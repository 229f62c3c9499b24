"""Monotonic (ordering-invariant) check: op parity vs pandas,
bucket-count invariance, strict/decreasing modes, NULL exclusion, and
the spec-level `kind: monotonic` integration (verdict totals + exact
per-partition attribution + exemplar rows with prev -> value)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import pipeline as P
from vald.ir import compile_table_spec
from vald.ops.stats import monotonic_violations_ds


def _log(n=2000, seed=11) -> pa.Table:
    rng = np.random.default_rng(seed)
    key = rng.integers(0, 50, n)
    order = rng.permutation(n)
    # mostly increasing per key with injected backsteps
    val = order * 10 + rng.integers(0, 5, n)
    val = np.where(rng.random(n) < 0.1, val - 10_000, val)
    return pa.table(
        {
            "k": pa.array(key, type=pa.int64()),
            "o": pa.array(order, type=pa.int64()),
            "v": pa.array(val.astype(np.float64)),
            "part": pa.array(rng.integers(0, 4, n), type=pa.int64()),
        }
    )


def _expected(t: pa.Table, strict=False, increasing=True) -> pd.DataFrame:
    df = t.to_pandas().sort_values(["k", "o"])
    prev = df.groupby("k")["v"].shift(1)
    if increasing:
        viol = (df["v"] <= prev) if strict else (df["v"] < prev)
    else:
        viol = (df["v"] >= prev) if strict else (df["v"] > prev)
    viol = viol.fillna(False)
    g = df.assign(viol=viol).groupby("k").agg(
        n_rows=("v", "size"), n_violations=("viol", "sum")
    )
    return g.reset_index().astype("int64").sort_values("k").reset_index(drop=True)


class TestMonotonicOp:
    def test_parity_vs_pandas(self, ray_session):
        import ray.data

        t = _log()
        out = (
            monotonic_violations_ds(
                ray.data.from_arrow(t).repartition(5), "k", "o", "v"
            )
            .to_pandas()
            .astype("int64")
            .sort_values("k")
            .reset_index(drop=True)
        )
        exp = _expected(t)
        pd.testing.assert_frame_equal(out[["k", "n_rows", "n_violations"]], exp)
        assert out["n_violations"].sum() > 0

    @pytest.mark.parametrize("strict,increasing", [(True, True), (False, False)])
    def test_strict_and_decreasing(self, ray_session, strict, increasing):
        import ray.data

        t = _log(seed=13)
        direction = "increasing" if increasing else "decreasing"
        out = (
            monotonic_violations_ds(
                ray.data.from_arrow(t).repartition(4), "k", "o", "v",
                strict=strict, direction=direction,
            )
            .to_pandas()
            .astype("int64")
            .sort_values("k")
            .reset_index(drop=True)
        )
        exp = _expected(t, strict=strict, increasing=increasing)
        pd.testing.assert_frame_equal(out[["k", "n_rows", "n_violations"]], exp)

    def test_bucket_invariance_and_nulls(self, ray_session):
        import ray.data

        t = pa.table(
            {
                "k": pa.array([1, 1, 1, 2, None, 2], type=pa.int64()),
                "o": pa.array([1, 2, 3, 1, 2, None], type=pa.int64()),
                "v": pa.array([5.0, 3.0, 4.0, 1.0, 2.0, 0.0]),
            }
        )
        outs = []
        for nb in (2, 64):
            o = (
                monotonic_violations_ds(
                    ray.data.from_arrow(t).repartition(3), "k", "o", "v",
                    num_buckets=nb,
                )
                .to_pandas()
                .astype("int64")
                .sort_values("k")
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # k=1: 5 -> 3 violates (one backstep); NULL key/order rows dropped
        assert outs[0]["k"].tolist() == [1, 2]
        assert outs[0]["n_rows"].tolist() == [3, 1]
        assert outs[0]["n_violations"].tolist() == [1, 0]

    def test_bad_direction_rejected(self, ray_session):
        import ray.data

        with pytest.raises(ValueError):
            monotonic_violations_ds(
                ray.data.from_arrow(_log()), "k", "o", "v", direction="sideways"
            )


class TestMonotonicSpec:
    def test_validate_integration(self, ray_session):
        import ray.data

        t = _log()
        spec = compile_table_spec(
            {
                "table": "t",
                "partition_by": "part",
                "num_partitions": 4,
                "columns": {},
                "checks": [
                    {"kind": "monotonic", "key": "k", "order": "o", "column": "v"}
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t).repartition(5), spec)
        v = res.verdicts_table()
        cid = "t.v.monotonic"
        rows = v.filter(pc.equal(v["constraint_id"], cid))
        assert len(rows) > 0
        exp = _expected(t)
        assert int(pc.sum(rows["n_checked"]).as_py()) == len(t)
        assert int(pc.sum(rows["n_violations"]).as_py()) == int(
            exp["n_violations"].sum()
        )
        viol = res.violations_table()
        viol = viol.filter(pc.equal(viol["constraint_id"], cid))
        assert len(viol) == int(exp["n_violations"].sum())
        assert all("->" in o for o in viol["observed"].to_pylist())
        assert set(viol["detail"].to_pylist()) == {"monotonic[increasing]"}

    def test_clean_log_passes(self, ray_session):
        import ray.data

        t = pa.table(
            {
                "k": pa.array([1, 1, 2, 2], type=pa.int64()),
                "o": pa.array([1, 2, 1, 2], type=pa.int64()),
                "v": pa.array([1.0, 1.0, 5.0, 9.0]),
            }
        )
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {"kind": "monotonic", "key": "k", "order": "o", "column": "v"}
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t).repartition(2), spec)
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "t.v.monotonic"))
        assert int(pc.sum(rows["n_violations"]).as_py()) == 0
        # strict mode flags the tie
        spec2 = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {
                        "kind": "monotonic",
                        "key": "k",
                        "order": "o",
                        "column": "v",
                        "strict": True,
                    }
                ],
            }
        )
        res2 = P.validate(ray.data.from_arrow(t).repartition(2), spec2)
        v2 = res2.verdicts_table()
        rows2 = v2.filter(pc.equal(v2["constraint_id"], "t.v.monotonic"))
        assert int(pc.sum(rows2["n_violations"]).as_py()) == 1


def test_repeated_default_ids_get_suffixes(ray_session):
    """An increasing and a decreasing check on one column get two ids
    ("t.v.monotonic", "t.v.monotonic.1"), so their verdicts stay apart."""
    import ray.data

    t = _log(n=400)
    spec = compile_table_spec(
        {
            "table": "t",
            "columns": {},
            "checks": [
                {"kind": "monotonic", "key": "k", "order": "o", "column": "v"},
                {"kind": "monotonic", "key": "k", "order": "o", "column": "v",
                 "direction": "decreasing"},
            ],
        }
    )
    assert [d.constraint_id for d in spec.dist_checks] == ["t.v.monotonic", "t.v.monotonic.1"]
    v = P.validate(ray.data.from_arrow(t).repartition(3), spec).verdicts_table()
    for cid, increasing in (("t.v.monotonic", True), ("t.v.monotonic.1", False)):
        rows = v.filter(pc.equal(v["constraint_id"], cid))
        assert int(pc.sum(rows["n_checked"]).as_py()) == len(t)
        assert int(pc.sum(rows["n_violations"]).as_py()) == int(
            _expected(t, increasing=increasing)["n_violations"].sum()
        )


def test_monotonic_alone_emits_one_result_schema(ray_session):
    """A spec whose row pass emits no result rows (a monotonic check
    alone): every block of the result stream carries RESULT_SCHEMA, and
    Ray logs no 'different schema' warning when the check's block and
    the row pass's empty blocks meet in the union."""
    import logging

    import ray
    import ray.data

    class Records(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    seen = Records()
    log.addHandler(seen)
    try:
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {"kind": "monotonic", "key": "k", "order": "o", "column": "v"}
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(_log()).repartition(4), spec)
        schemas = [ray.get(b).schema for b in res.combined.get_internal_block_refs()]
    finally:
        log.removeHandler(seen)
    assert schemas and all(s == P.RESULT_SCHEMA for s in schemas), schemas
    assert not [m for m in seen.messages if "different schema" in m], seen.messages
