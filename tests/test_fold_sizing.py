"""Fan-out of the keyed exchange (``runtime.keyed_exchange``):
``fold_tasks`` bounds, the one bucket hash, the fused, monotonic,
reconcile and fd parity fixtures at forced fold-task counts, fan-out
that follows the row count and not the block count, empty inputs, and
per-bucket exemplar caps when one fold call sees many buckets."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import constraints_dist as cd
from vald import pipeline as P
from vald import runtime
from vald.hashing import bucket_ids, stable_hash64
from vald.ir import compile_table_spec
from vald.ops.stats import fd_groups_ds, monotonic_violations_ds, reconcile_ds

import test_cardinality
import test_dist_paths
import test_fd
import test_monotonic
import test_reconcile


def test_fold_tasks_bounds():
    r = runtime.ROWS_PER_FOLD_TASK
    assert runtime.fold_tasks(0) == 1  # empty stream: still one task
    assert runtime.fold_tasks(1) == 1
    assert runtime.fold_tasks(r) == 1
    assert runtime.fold_tasks(r + 1) == 2
    assert runtime.fold_tasks(3 * r) == 3
    # not clamped to the cluster's CPUs: a task never folds more than r rows
    assert runtime.fold_tasks(100 * r) == 100
    assert runtime.fold_tasks(100 * r + 1) == 101


@pytest.fixture
def forced_fold_tasks(monkeypatch):
    """``force(k)`` sets ROWS_PER_FOLD_TASK, when an exchange sizes
    itself, so that its n partial rows make k fold tasks (``k=None``
    keeps the constant); returns the list of task counts the exchanges
    chose."""
    chosen: list[int] = []

    def force(k):
        real = runtime.fold_tasks

        def sized(n_rows):
            if k is not None:
                monkeypatch.setattr(runtime, "ROWS_PER_FOLD_TASK", max(1, -(-n_rows // k)))
            chosen.append(real(n_rows))
            return chosen[-1]

        monkeypatch.setattr(runtime, "fold_tasks", sized)
        return chosen

    return force


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fused_parity_at_forced_fold_tasks(ray_session, forced_fold_tasks, k):
    chosen = forced_fold_tasks(k)
    for blocks, num_buckets in [(1, 1), (3, 7), (7, 256)]:
        test_fd.TestFdSpec().test_fused_parity(ray_session, blocks, num_buckets)
        test_cardinality.TestCardinalitySpec().test_fused_parity(
            ray_session, blocks, num_buckets
        )
    if k > 1:
        test_dist_paths.test_refint_anti_join_matches_broadcast_counts(ray_session)
    assert chosen and set(chosen) == {k}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_keyed_parity_at_forced_fold_tasks(ray_session, forced_fold_tasks, k):
    """The monotonic and reconcile check kinds and the three keyed ops
    give the same results however many fold tasks their exchange has."""
    chosen = forced_fold_tasks(k)
    mono = test_monotonic.TestMonotonicSpec()
    mono.test_validate_integration(ray_session)
    mono.test_clean_log_passes(ray_session)
    rec = test_reconcile.TestReconcileSpec()
    rec.test_validate_integration_dataset_and_table_sources(ray_session)
    rec.test_missing_other_ignore_downgrades_to_unchecked(ray_session)
    test_fd.TestFdOp().test_bucket_invariance_and_nulls(ray_session)
    test_monotonic.TestMonotonicOp().test_bucket_invariance_and_nulls(ray_session)
    test_reconcile.TestReconcileOp().test_missing_child_fails_and_bucket_invariant(
        ray_session
    )
    # a 4-row exchange makes 2 tasks at k=3: no whole rows-per-task gives 3
    assert chosen and max(chosen) == k


def _old_bucket_loop(t: pa.Table, cols: list[str], nb: int) -> np.ndarray:
    """The loop every keyed route used to write out."""
    mix = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(len(t), dtype=np.uint64)
    for c in cols:
        arr = t[c].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = h * mix + pd.util.hash_array(arr, categorize=False)
    return (h % np.uint64(nb)).astype(np.int32)


def test_bucket_ids_is_the_folded_siphash():
    """``bucket_ids`` equals the old loop on an int and a string column
    without NULLs."""
    t = pa.table(
        {
            "i": pa.array([3, 5, -7, 3, 0, 2**40], type=pa.int64()),
            "s": pa.array(["a", "b", "c", "a", "", "a\x1fb"]),
        }
    )
    for cols in (["i"], ["s"], ["i", "s"], ["s", "i"]):
        for nb in (1, 7, 256):
            got = bucket_ids([t[c] for c in cols], nb)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, _old_bucket_loop(t, cols, nb))


@pytest.mark.parametrize(
    "typ, vals",
    [
        (pa.int64(), [3, 5, -7, 2**40]),
        (pa.int32(), [3, 5, -7, 9]),
        (pa.bool_(), [True, False, True, False]),
        (pa.float64(), [3.0, 5.5, float("nan"), -0.0]),
        (pa.string(), ["a", "b", "", "a\x1fb"]),
    ],
)
def test_bucket_ids_of_a_key_ignores_nulls_elsewhere_in_its_batch(typ, vals):
    """One key, two batches, one of them holding a NULL: the key lands
    in the same bucket in both (the old loop hashed an int or bool
    column holding a NULL as float64 or object, so it did not). A
    batch without NULLs keeps the old loop's buckets."""
    clean = pa.table({"k": pa.array(vals, type=typ)})
    holed = pa.table({"k": pa.array([None, *vals, None], type=typ)})
    for nb in (7, 256, 2**31 - 1):
        want = bucket_ids([clean["k"]], nb)
        np.testing.assert_array_equal(want, _old_bucket_loop(clean, ["k"], nb))
        got = bucket_ids([holed["k"]], nb)
        np.testing.assert_array_equal(got[1:-1], want)
        assert got[0] == got[-1]  # every NULL shares one bucket
    two = pa.table({"k": holed["k"], "s": pa.array(["x"] * len(holed))})
    np.testing.assert_array_equal(
        bucket_ids([two["k"], two["s"]], 256)[1:-1],
        bucket_ids([clean["k"], pa.array(["x"] * len(clean))], 256),
    )


def _monotonic_spec(**over):
    chk = {"kind": "monotonic", "key": "k", "order": "o", "column": "v", **over}
    return compile_table_spec(
        {"table": "t", "row_ref": ["k", "o"], "columns": {}, "checks": [chk]}
    )


def _reconcile_spec():
    return test_reconcile.TestReconcileSpec()._spec()


def test_keyed_fan_out_follows_rows_not_blocks(ray_session, forced_fold_tasks):
    """2k rows in 40 blocks fold in ONE task: the monotonic check's and
    ``reconcile_ds``'s exchanges size from their rows, not from the
    input's block count."""
    import ray.data

    chosen = forced_fold_tasks(None)
    ds = ray.data.from_arrow(test_monotonic._log(n=2000)).repartition(40).materialize()
    assert ds.num_blocks() == 40
    P.validate(ds, _monotonic_spec())
    assert chosen == [1]
    accounts, entries, _ = test_reconcile._ledger(n_acct=500)
    assert len(entries) >= 1900
    reconcile_ds(
        ray.data.from_arrow(accounts).repartition(40),
        ray.data.from_arrow(entries).repartition(40),
        "acct", "balance", "acct", "amount",
    ).materialize()
    assert chosen == [1, 1]


def test_keyed_routes_on_empty_input(ray_session):
    import ray.data

    ev = ray.data.from_arrow(test_monotonic._log().slice(0, 0))
    accounts, entries, _ = test_reconcile._ledger()
    acc = ray.data.from_arrow(accounts.slice(0, 0))
    ent = ray.data.from_arrow(entries.slice(0, 0))
    ms, rs = _monotonic_spec(), _reconcile_spec()
    outs = [
        cd.monotonic_check_results(ev, ms, ms.dist_checks[0]),
        cd.reconcile_check_results(acc, rs, rs.dist_checks[0], {"entries": ent}),
        monotonic_violations_ds(ev, "k", "o", "v"),
        reconcile_ds(acc, ent, "acct", "balance", "acct", "amount"),
        fd_groups_ds(ev, "k", "v"),
    ]
    assert [o.count() for o in outs] == [0] * 5


def _buckets(keys: list[str], num_buckets: int) -> set[int]:
    return set((stable_hash64(pa.array(keys)) % np.uint64(num_buckets)).tolist())


@pytest.mark.parametrize("k", [1, 2])
def test_exemplar_cap_is_per_bucket(ray_session, forced_fold_tasks, k):
    """``max_violation_rows: 1`` keeps one fd / cardinality exemplar per
    bucket, also when a fold call sees all of them in one sorted block."""
    import ray.data

    forced_fold_tasks(k)
    rng = np.random.default_rng(3)
    n = 600
    t = pa.table(
        {
            "det": pa.array(rng.integers(0, 120, n), type=pa.int64()),
            "dep": pa.array(rng.integers(0, 2, n), type=pa.int64()),
            "g": pa.array(rng.integers(0, 40, n).astype(str)),
            "v": pa.array(rng.integers(0, 5, n).astype(str)),
        }
    )
    spec = compile_table_spec(
        {
            "table": "t",
            "columns": {},
            "checks": [
                {"kind": "fd", "columns": ["det"], "dependent": "dep",
                 "num_buckets": 7, "max_violation_rows": 1},
                {"kind": "cardinality", "column": "v", "group_by": "g",
                 "min_distinct": 10, "num_buckets": 7, "max_violation_rows": 1},
            ],
        }
    )
    x = P.validate(ray.data.from_arrow(t).repartition(3), spec).violations_table()
    df = t.to_pandas()
    ndep = df.groupby("det")["dep"].nunique()
    bad_det = [str(d) for d in ndep[ndep >= 2].index]
    assert len(bad_det) > 7
    got = x.filter(pc.equal(x["constraint_id"], "t.det->dep.fd"))
    assert len(got) == len(_buckets(bad_det, 7)) == 7
    assert _buckets(got["row_ref"].to_pylist(), 7) == _buckets(bad_det, 7)
    groups = sorted(df["g"].unique())
    got = x.filter(pc.equal(x["constraint_id"], "t.v.cardinality"))
    assert len(got) == len(_buckets(groups, 7)) == 7


@pytest.mark.parametrize("k", [1, 2])
def test_monotonic_exemplar_cap_is_per_bucket(ray_session, forced_fold_tasks, k):
    """``max_violation_rows: 1`` keeps one monotonic exemplar per bucket
    that holds a violation, also when one fold call sees every bucket."""
    import ray.data

    forced_fold_tasks(k)
    t = test_monotonic._log(n=2000)
    exp = test_monotonic._expected(t)
    bad = exp.loc[exp["n_violations"] > 0, "k"].to_numpy()
    assert len(bad) >= 20
    spec = _monotonic_spec(max_violation_rows=1, num_buckets=7)
    x = P.validate(ray.data.from_arrow(t).repartition(3), spec).violations_table()
    got = [int(r.split("|")[0]) for r in x["row_ref"].to_pylist()]
    want = set(bucket_ids([pa.array(bad, type=pa.int64())], 7).tolist())
    assert len(got) == len(want)
    assert set(bucket_ids([pa.array(got, type=pa.int64())], 7).tolist()) == want


@pytest.mark.parametrize("k", [1, 2])
def test_exchange_sorts_only_to_partition(ray_session, forced_fold_tasks, k):
    """One fold task needs no partitioning: the fused exchange runs a
    Ray ``Sort`` only when it has more than one fold task."""
    import ray.data

    chosen = forced_fold_tasks(k)
    t = pa.table({"det": pa.array(np.arange(400) % 37), "dep": pa.array(np.arange(400) % 3)})
    spec = compile_table_spec(
        {"table": "t", "columns": {},
         "checks": [{"kind": "fd", "columns": ["det"], "dependent": "dep"}]}
    )
    res = P.validate(ray.data.from_arrow(t).repartition(3), spec)
    assert sum(res.verdicts_table()["n_violations"].to_pylist()) > 0
    ops = [ln for ln in res.combined.stats().splitlines() if ln.startswith("Operator")]
    assert chosen[-1] == k
    assert any(" Sort" in ln for ln in ops) == (k > 1), ops
