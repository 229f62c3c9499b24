"""Reconciliation check (kind: reconcile): op parity vs pandas on a
consistent + broken ledger, missing-child policy, bucket invariance,
and the spec-level integration (per-partition attribution, exemplars,
parents= plumbing with both Dataset and pyarrow.Table sources)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import pipeline as P
from vald.ir import compile_table_spec
from vald.ops.stats import reconcile_ds


def _ledger(n_acct=200, seed=5):
    """Accounts table whose balance IS the sum of its entries, with a
    known subset broken."""
    rng = np.random.default_rng(seed)
    entries_per = rng.integers(1, 8, n_acct)
    acct_ids = np.repeat(np.arange(n_acct), entries_per)
    amounts = np.round(rng.normal(100, 30, acct_ids.size), 2)
    sums = np.zeros(n_acct)
    np.add.at(sums, acct_ids, amounts)
    balances = sums.copy()
    broken = rng.choice(n_acct, 30, replace=False)
    balances[broken] += 50.0  # clearly past any float-noise tolerance
    accounts = pa.table(
        {
            "acct": pa.array(np.arange(n_acct), type=pa.int64()),
            "balance": pa.array(np.round(balances, 2)),
            "part": pa.array(np.arange(n_acct) % 4, type=pa.int64()),
        }
    )
    entries = pa.table(
        {
            "acct": pa.array(acct_ids, type=pa.int64()),
            "amount": pa.array(amounts),
        }
    )
    return accounts, entries, set(broken.tolist())


class TestReconcileOp:
    def test_flags_exactly_the_broken_accounts(self, ray_session):
        import ray.data

        accounts, entries, broken = _ledger()
        out = reconcile_ds(
            ray.data.from_arrow(accounts).repartition(4),
            ray.data.from_arrow(entries).repartition(5),
            "acct", "balance", "acct", "amount", tolerance=0.02,
        ).to_pandas()
        assert len(out) == len(accounts)
        got_bad = set(out.loc[~out["ok"], "key"].astype(int).tolist())
        assert got_bad == broken

    def test_missing_child_fails_and_bucket_invariant(self, ray_session):
        import ray.data

        accounts = pa.table(
            {"acct": pa.array([1, 2, 3], type=pa.int64()),
             "balance": pa.array([10.0, 5.0, 1.0])}
        )
        entries = pa.table(
            {"acct": pa.array([1, 1, 2], type=pa.int64()),
             "amount": pa.array([4.0, 6.0, 5.0])}
        )
        outs = []
        for nb in (2, 64):
            o = (
                reconcile_ds(
                    ray.data.from_arrow(accounts).repartition(2),
                    ray.data.from_arrow(entries).repartition(2),
                    "acct", "balance", "acct", "amount", num_buckets=nb,
                )
                .to_pandas()
                .sort_values("key")
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # acct 3 has no entries -> child_sum NULL, not ok
        assert outs[0]["ok"].tolist() == [True, True, False]
        assert outs[0]["child_sum"].isna().tolist() == [False, False, True]


class TestReconcileSpec:
    def _spec(self, **over):
        chk = {
            "kind": "reconcile",
            "key": "acct",
            "column": "balance",
            "other_table": "entries",
            "other_key": "acct",
            "other_sum": "amount",
            "tolerance": 0.02,
        }
        chk.update(over)
        return compile_table_spec(
            {
                "table": "accounts",
                "partition_by": "part",
                "num_partitions": 4,
                "columns": {},
                "checks": [chk],
            }
        )

    def test_validate_integration_dataset_and_table_sources(self, ray_session):
        import ray.data

        accounts, entries, broken = _ledger()
        for src in (ray.data.from_arrow(entries).repartition(3), entries):
            res = P.validate(
                ray.data.from_arrow(accounts).repartition(4),
                self._spec(),
                parents={"entries": src},
            )
            v = res.verdicts_table()
            rows = v.filter(
                pc.equal(v["constraint_id"], "accounts.balance.reconcile")
            )
            assert int(pc.sum(rows["n_checked"]).as_py()) == len(accounts)
            assert int(pc.sum(rows["n_violations"]).as_py()) == len(broken)
            viol = res.violations_table()
            viol = viol.filter(
                pc.equal(viol["constraint_id"], "accounts.balance.reconcile")
            )
            assert len(viol) == len(broken)
            assert all("!= sum" in o for o in viol["observed"].to_pylist())

    def test_missing_other_ignore_downgrades_to_unchecked(self, ray_session):
        import ray.data

        accounts = pa.table(
            {"acct": pa.array([1, 2], type=pa.int64()),
             "balance": pa.array([10.0, 7.0]),
             "part": pa.array([0, 1], type=pa.int64())}
        )
        entries = pa.table(
            {"acct": pa.array([1], type=pa.int64()), "amount": pa.array([10.0])}
        )
        res = P.validate(
            ray.data.from_arrow(accounts),
            self._spec(missing_other="ignore"),
            parents={"entries": entries},
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "accounts.balance.reconcile"))
        assert int(pc.sum(rows["n_checked"]).as_py()) == 1
        assert int(pc.sum(rows["n_violations"]).as_py()) == 0

    def test_missing_parents_entry_raises(self, ray_session):
        import ray.data

        accounts = pa.table(
            {"acct": pa.array([1], type=pa.int64()),
             "balance": pa.array([1.0]),
             "part": pa.array([0], type=pa.int64())}
        )
        with pytest.raises(ValueError, match="parents"):
            P.validate(ray.data.from_arrow(accounts), self._spec())
