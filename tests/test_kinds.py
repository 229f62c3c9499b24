"""``ir.KINDS``, the check-kind table: one compile rule for every kind
(ids, severities, defaults, list-valued keys), and the same kinds on
the run side."""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray.data

from vald import pipeline as P
from vald.ir import compile_table_spec

_BASELINE = pa.table({"column": ["c"]})

# one spec with every kind: repeated default ids, explicit ids and
# bare-string list keys
_CHECKS = [
    {"kind": "sha_equal", "column": "c", "expected": "h"},
    {"kind": "sha_equal", "column": "c", "expected": "h2", "severity": "warn"},
    {"kind": "compare", "id": "len_eq", "left": {"column": "a"}, "op": "==",
     "right": {"column": "b"}},
    {"kind": "compare", "column": "a", "constraint_id": "x", "left": {"column": "a"},
     "op": "<", "right": {"value": 3}},
    {"kind": "compare", "column": "a", "left": {"column": "a"}, "op": ">=",
     "right": {"value": 0}},
    {"kind": "implies", "column": "a", "cond_left": {"column": "b"}, "cond_op": "==",
     "cond_right": {"value": 1}, "left": {"column": "a"}, "op": ">", "right": {"value": 0}},
    {"kind": "pair_in_set", "left": {"column": "a"}, "right": {"column": "b"},
     "pairs": [[1, 2]], "guard_left_in_domain": True},
    {"kind": "unique", "columns": "repo"},
    {"kind": "unique", "columns": ["repo"]},
    {"kind": "unique", "columns": ["a", "b"], "constraint_id": "u"},
    {"kind": "refint", "columns": "repo", "parent_table": "repos"},
    {"kind": "refint", "columns": ["a"], "parent_table": "p", "parent_columns": "pa",
     "strategy": "anti_join", "constraint_id": "r"},
    {"kind": "quantile_bounds", "column": "v", "upper_q": 0.9},
    {"kind": "completeness", "column": "v", "max_null_rate": 0.1, "severity": "warn"},
    {"kind": "freshness", "column": "ts", "as_of": "2024-01-01", "max_age_s": 60,
     "group_by": "g"},
    {"kind": "cardinality", "column": "v", "max_distinct": 5},
    {"kind": "cardinality", "column": "v", "min_distinct": 1, "group_by": ["g"],
     "num_buckets": 7},
    {"kind": "reconcile", "key": "k", "column": "v", "other_table": "o",
     "other_key": "k", "other_sum": "s"},
    {"kind": "monotonic", "key": "k", "order": "o", "column": "v", "strict": True},
    {"kind": "fd", "columns": "a", "dependent": "b"},
    {"kind": "fd", "columns": ["a", "c"], "dependent": "b", "max_violation_rows": 3},
    {"kind": "drift", "columns": ["v"], "baseline": "b.parquet"},
    {"kind": "drift", "columns": ["v"], "baseline": "b.parquet", "constraint_id": "d",
     "severity": "error", "ks_threshold": 0.2},
    {"kind": "drift", "cat_columns": ["c"], "baseline_table": _BASELINE},
    {"kind": "group_drift", "group_by": "g", "baseline_table": _BASELINE,
     "cat_columns": ["c"]},
]

# (constraint_id, kind, severity, every params key the compiler sets
# from the spec or a default the runner relies on); row checks also
# carry their column
_ROW = [
    ("t.c.sha_equal", "sha_equal", "c", "error", {"expected": "h"}),
    ("t.c.sha_equal.1", "sha_equal", "c", "warn", {"expected": "h2"}),
    ("t.len_eq.compare", "compare", None, "error",
     {"left": {"column": "a"}, "op": "==", "right": {"column": "b"}}),
    ("x", "compare", "a", "error",
     {"left": {"column": "a"}, "op": "<", "right": {"value": 3}}),
    ("t.a.compare", "compare", "a", "error",
     {"left": {"column": "a"}, "op": ">=", "right": {"value": 0}}),
    ("t.a.implies", "implies", "a", "error",
     {"cond_left": {"column": "b"}, "cond_op": "==", "cond_right": {"value": 1},
      "left": {"column": "a"}, "op": ">", "right": {"value": 0}}),
    ("t.pair_in_set.pair_in_set", "pair_in_set", None, "error",
     {"left": {"column": "a"}, "right": {"column": "b"}, "pairs": [[1, 2]],
      "guard_left_in_domain": True}),
]
_BUCKETED = {"num_buckets": 256, "max_violation_rows": None}
_DIST = [
    ("t.repo.unique", "unique", "error", {"columns": ["repo"]}),
    ("t.repo.unique.1", "unique", "error", {"columns": ["repo"]}),
    ("u", "unique", "error", {"columns": ["a", "b"]}),
    ("t.repo.refint", "refint", "error",
     {"columns": ["repo"], "parent_table": "repos", "parent_columns": ["repo"],
      "parent_path": None, "strategy": "auto", "max_broadcast_keys": None,
      "bits_per_key": 16}),
    ("r", "refint", "error",
     {"columns": ["a"], "parent_table": "p", "parent_columns": ["pa"],
      "parent_path": None, "strategy": "anti_join", "max_broadcast_keys": None,
      "bits_per_key": 16}),
    ("t.v.quantile_bounds", "quantile_bounds", "warn",
     {"column": "v", "lower_q": 0.0, "upper_q": 0.9, "max_violation_rows": None}),
    ("t.v.completeness", "completeness", "warn", {"column": "v", "max_null_rate": 0.1}),
    ("t.ts.freshness", "freshness", "error",
     {"column": "ts", "as_of": "2024-01-01", "max_age_s": 60, "group_by": "g",
      "max_violation_rows": None}),
    ("t.v.cardinality", "cardinality", "error",
     {"column": "v", "min_distinct": None, "max_distinct": 5, "group_by": None,
      **_BUCKETED}),
    ("t.v.cardinality.1", "cardinality", "error",
     {"column": "v", "min_distinct": 1, "max_distinct": None, "group_by": ["g"],
      "num_buckets": 7, "max_violation_rows": None}),
    ("t.v.reconcile", "reconcile", "error",
     {"key": "k", "column": "v", "other_table": "o", "other_key": "k",
      "other_sum": "s", "tolerance": 0.01, "missing_other": "violation", **_BUCKETED}),
    ("t.v.monotonic", "monotonic", "error",
     {"key": ["k"], "order": ["o"], "column": "v", "strict": True,
      "direction": "increasing", **_BUCKETED}),
    ("t.a->b.fd", "fd", "error", {"columns": ["a"], "dependent": "b", **_BUCKETED}),
    ("t.a_c->b.fd", "fd", "error",
     {"columns": ["a", "c"], "dependent": "b", "num_buckets": 256,
      "max_violation_rows": 3}),
    ("t.drift", "drift", "warn", {"columns": ["v"], "baseline": "b.parquet"}),
    ("d", "drift", "error",
     {"columns": ["v"], "baseline": "b.parquet", "ks_threshold": 0.2}),
    ("t.drift.1", "drift", "warn", {"cat_columns": ["c"], "baseline_table": _BASELINE}),
    ("t.g.group_drift", "group_drift", "warn",
     {"group_by": "g", "baseline_table": _BASELINE, "cat_columns": ["c"]}),
]


def test_golden_compile_of_every_kind():
    cs = compile_table_spec({"table": "t", "columns": {}, "checks": _CHECKS})
    got_row = [
        (c.constraint_id, c.keyword, c.column, c.severity, {k: c.params[k] for k in want})
        for c, (*_, want) in zip(cs.row_checks, _ROW)
    ]
    assert got_row == _ROW
    assert len(cs.row_checks) == len(_ROW)
    got_dist = [
        (d.constraint_id, d.kind, d.severity, {k: d.params[k] for k in want})
        for d, (*_, want) in zip(cs.dist_checks, _DIST)
    ]
    assert got_dist == _DIST
    assert len(cs.dist_checks) == len(_DIST)


def test_kind_tables_agree():
    """A kind added to one table only fails here."""
    from vald.constraints_dist import FUSED_KINDS, OWN_PASS_KINDS
    from vald.ir import KINDS

    row = {k for k, kind in KINDS.items() if kind.row}
    assert row == {"sha_equal", "compare", "implies", "pair_in_set"}
    run_side = [row, set(FUSED_KINDS), set(OWN_PASS_KINDS), {"refint"}]
    assert sum(len(s) for s in run_side) == len(KINDS) == 15
    assert set().union(*run_side) == set(KINDS)


@pytest.mark.parametrize(
    "check",
    [
        {"kind": "unique"},
        {"kind": "refint", "parent_table": "parent"},
    ],
    ids=["unique", "refint"],
)
def test_bare_string_columns_equal_one_list(ray_session, check):
    t = pa.table({"repo": ["a", "a", "b", "z"]})
    parent = pa.table({"repo": ["a", "b"]})
    outs = []
    for cols in ("repo", ["repo"]):
        cs = compile_table_spec(
            {"table": "t", "columns": {}, "checks": [{**check, "columns": cols}]}
        )
        res = P.validate(ray.data.from_arrow(t), cs, parents={"parent": parent})
        outs.append((cs.dist_checks, res.verdicts_table()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1].equals(outs[1][1])
    assert outs[0][1]["n_violations"].to_pylist() == [1]
