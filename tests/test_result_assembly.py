"""How ``validate()``'s result is assembled: with one fold task the
fused exchange runs on the driver when a table is read (one Ray Data
execution for validate() and both tables), the tables equal the
``combined`` Dataset's rows whichever is read first, and a 0-row input
gives every check that reports under its own id a zero verdict on
every route."""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from vald import pipeline as P
from vald.ir import compile_table_spec

from test_fold_sizing import forced_fold_tasks  # noqa: F401 (fixture)

# one check of each fused kind, a row check and a refint check
CHECKS = [
    {"kind": "unique", "columns": ["x"]},
    {"kind": "fd", "columns": ["x"], "dependent": "y"},
    {"kind": "cardinality", "column": "y", "group_by": "g", "max_distinct": 2},
    {"kind": "completeness", "column": "z", "max_null_rate": 0.1},
    {"kind": "refint", "columns": ["p"], "parent_table": "par", "parent_columns": ["k"]},
]
# one check of each kind that reads the input in a pass of its own and
# reports under its own id
OWN_PASS_CHECKS = [
    {"kind": "monotonic", "key": ["g"], "order": ["id"], "column": "x"},
    {"kind": "reconcile", "key": "p", "column": "y", "other_table": "ledger",
     "other_key": "k", "other_sum": "amt"},
    {"kind": "freshness", "column": "id", "as_of": 0, "max_age_s": 1},
    {"kind": "quantile_bounds", "column": "y", "lower_q": 0.1, "upper_q": 0.9},
]


def _spec(strategy: str = "broadcast", extra: list = ()):
    checks = [
        {**c, "strategy": strategy} if c["kind"] == "refint" else c
        for c in CHECKS + list(extra)
    ]
    return compile_table_spec(
        {"table": "t", "row_ref": ["id"], "partition_by": "g", "num_partitions": 4,
         "columns": {"y": {"type": "integer", "maximum": 5}}, "checks": checks}
    )


def _input(n: int = 600) -> pa.Table:
    i = np.arange(n)
    return pa.table(
        {
            "id": i,
            "x": i % 250,
            "y": i % 7,
            "g": i % 11,
            "z": pa.array([None if v % 9 == 0 else v for v in i.tolist()], pa.int64()),
            "p": i % 13,
        }
    )


PARENTS = {
    "par": pa.table({"k": np.arange(10)}),
    "ledger": pa.table({"k": np.arange(13), "amt": np.arange(13.0)}),
}


def _validate(t: pa.Table, strategy: str = "broadcast", extra: list = ()):
    return P.validate(
        ray.data.from_arrow(t).repartition(3), _spec(strategy, extra), parents=PARENTS
    )


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


class _Executions(logging.Handler):
    """Counts the streaming executor's "execution finished" records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.n = 0

    def emit(self, record):
        self.n += "execution finished" in record.getMessage()


def test_one_fold_task_is_one_execution(ray_session, forced_fold_tasks):  # noqa: F811
    """At one fold task, validate() with a Table parent and both tables
    run one Ray Data execution (the read and the row pass); reading
    ``combined`` runs the exchange's plan, once."""
    chosen = forced_fold_tasks(1)
    log = logging.getLogger("ray.data._internal.execution.streaming_executor")
    seen, level = _Executions(), log.level
    log.addHandler(seen)
    log.setLevel(logging.INFO)
    try:
        res = _validate(_input())
        v, x = res.verdicts_table(), res.violations_table()
        assert not res.passed() and len(x)
        assert seen.n == 1
        res.combined.stats()
        res.combined.stats()
        assert seen.n == 2
    finally:
        log.removeHandler(seen)
        log.setLevel(level)
    assert chosen and set(chosen) == {1}
    assert set(v["constraint_id"].to_pylist()) == set(_spec().constraint_ids)


@pytest.mark.parametrize("first", ["tables", "combined"])
@pytest.mark.parametrize("k", [1, 2])
def test_tables_equal_the_dataset_view(ray_session, forced_fold_tasks, k, first):  # noqa: F811
    """The tables equal ``verdicts()`` / ``violations()`` collected and
    a fold of ``combined``'s own rows, at one fold task (folded on the
    driver) and at two (folded in the cluster), whichever is read
    first."""
    chosen = forced_fold_tasks(k)
    res = _validate(_input())
    if first == "combined":
        rows = pa.concat_tables(P._blocks(res.combined))
    v, x = res.verdicts_table(), res.violations_table()
    if first == "tables":
        rows = pa.concat_tables(P._blocks(res.combined))
    assert chosen[-1] == k
    assert len(x) and not res.passed()
    assert set(v["constraint_id"].to_pylist()) == set(_spec().constraint_ids)
    want_v = _sorted(P._fold_verdicts_local(rows))
    want_x = _sorted(P.ValidationResult._violations_of(rows))
    assert _sorted(v).equals(want_v)
    assert _sorted(x).equals(want_x)
    got_v = pa.Table.from_pandas(res.verdicts().to_pandas(), preserve_index=False)
    got_x = pa.Table.from_pandas(res.violations().to_pandas(), preserve_index=False)
    assert _sorted(got_v.cast(v.schema)).equals(want_v)
    assert _sorted(got_x.cast(x.schema)).equals(want_x)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("strategy", ["broadcast", "anti_join"])
def test_empty_input_gives_every_check_a_zero_verdict(
    ray_session, forced_fold_tasks, strategy, k  # noqa: F811
):
    """Ray calls no map on a 0-row block, so the row pass and every
    fold see nothing; every check still gets one verdict: partition 0,
    nothing checked, no violation, pass. This holds for the kinds with
    a pass of their own that report under their own id too."""
    forced_fold_tasks(k)
    spec = _spec(strategy, OWN_PASS_CHECKS)
    res = _validate(_input().slice(0, 0), strategy, OWN_PASS_CHECKS)
    v = res.verdicts_table()
    ids = spec.constraint_ids
    assert len(ids) == 11
    assert sorted(v["constraint_id"].to_pylist()) == sorted(ids)
    assert set(v["partition_id"].to_pylist()) == {0}
    assert set(v["n_checked"].to_pylist()) == {0}
    assert set(v["n_violations"].to_pylist()) == {0}
    assert all(v["pass"].to_pylist())
    assert res.passed() and len(res.violations_table()) == 0
    got = pa.Table.from_pandas(res.verdicts().to_pandas(), preserve_index=False)
    assert _sorted(got.cast(v.schema)).equals(_sorted(v))


def test_row_check_alone_on_empty_input(ray_session):
    """The same for a spec with one row check and nothing else: its
    row pass projects its own output, with no exchange."""
    spec = {"table": "t", "columns": {"y": {"type": "integer", "maximum": 5}}}
    res = P.validate(ray.data.from_arrow(_input().slice(0, 0)), spec)
    v = res.verdicts_table()
    assert v["constraint_id"].to_pylist() == ["t.y.maximum", "t.y.type"]
    assert set(v["n_checked"].to_pylist()) == {0} and all(v["pass"].to_pylist())


def test_checks_that_see_rows_keep_their_verdicts(ray_session):
    """On a non-empty input no zero verdict is added: every check's
    verdicts come from its own partials."""
    res = _validate(_input())
    v = res.verdicts_table()
    assert min(v["n_checked"].to_pylist()) > 0


def test_refint_without_a_parent_runs_no_check(ray_session):
    """A refint check whose parent is not given is not run, so it gets
    no verdict, on an empty input as on any other."""
    spec = {"table": "t", "columns": {},
            "checks": [{"kind": "refint", "columns": ["p"], "parent_table": "par",
                        "parent_columns": ["k"]}]}
    for n in (0, 20):
        res = P.validate(ray.data.from_arrow(_input(20).slice(0, n)), spec)
        assert res.verdicts_table().num_rows == 0


def test_drift_reports_only_its_column_ids(ray_session):
    """A drift check reports under per-column ids: no zero verdict is
    added under its own id."""
    from vald import corpus as C
    from vald import drift as D

    clean = C.corpus_dataset(400, 42, override_num_blocks=2)
    spec = {"table": "corpus", "columns": {},
            "checks": [{"kind": "drift", "constraint_id": "corpus.drift",
                        "columns": ["content"], "cat_columns": ["lang"],
                        "baseline_table": D.build_baseline(
                            clean, numeric_cols=["content"], cat_cols=["lang"])}]}
    got = set(P.validate(clean, spec).verdicts_table()["constraint_id"].to_pylist())
    assert got == {"corpus.drift.content", "corpus.drift.lang"}
