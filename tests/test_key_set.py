"""refint's parent-key set (``runtime.key_set``): one Arrow array of
distinct, NULL-free keys, built in one Ray task for a Dataset parent;
the same answer on every parent kind and route for multi-column keys
of any type and for parents without a key; and the plan it leaves."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from vald import corpus as C
from vald import pipeline as P
from vald.runtime import key_set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec(strategy: str) -> dict:
    return {
        "table": "t",
        "row_ref": ["id"],
        "columns": {},
        "checks": [
            {
                "kind": "refint",
                "columns": ["a", "b"],
                "parent_table": "p",
                "parent_columns": ["pa", "pb"],
                "strategy": strategy,
                "constraint_id": "t.refint",
            }
        ],
    }


def _parent(t: pa.Table, kind: str):
    if kind == "table":
        return t
    if kind == "dataset":
        return ray.data.from_arrow(t)
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def _counts(res) -> tuple[int, int]:
    v = res.verdicts_table()
    return sum(v["n_checked"].to_pylist()), sum(v["n_violations"].to_pylist())


def test_key_set_arrays(ray_session):
    """One key column keeps its type; several become the child side's
    KEY_SEP-joined strings; a key with a NULL part is dropped."""
    t = pa.table({"a": [1, 1, 2, None], "b": [1.5, 1.5, None, 2.0]})
    one = ray.get(key_set(t, ["a"]))
    assert one.type == pa.int64() and sorted(one.to_pylist()) == [1, 2]
    two = ray.get(key_set(ray.data.from_arrow(t).repartition(3), ["a", "b"]))
    assert two.to_pylist() == ["1\x1f1.5"]


@pytest.mark.parametrize("strategy", ["broadcast", "anti_join"])
@pytest.mark.parametrize("parent_kind", ["table", "dataset", "list"])
@pytest.mark.parametrize("key", ["float", "bool"])
def test_multi_column_key_type_parity(ray_session, key, parent_kind, strategy):
    """A float or bool key part is the same string on the child and the
    parent side: one real orphan of three child rows on every route."""
    second = {
        "float": ([1.0, 2.0, 3.0], [1.0, 2.0, 9.0]),
        "bool": ([True, False, True], [True, False, False]),
    }[key]
    child = pa.table({"id": [1, 2, 3], "a": [1, 2, 3], "b": second[0]})
    parent = pa.table({"pa": [1, 2, 3], "pb": second[1]})
    res = P.validate(
        ray.data.from_arrow(child), _spec(strategy), parents={"p": _parent(parent, parent_kind)}
    )
    assert _counts(res) == (3, 1)
    assert len(res.violations_table()) == 1


@pytest.mark.parametrize("strategy", ["broadcast", "anti_join"])
@pytest.mark.parametrize("parent_kind", ["table", "dataset", "list"])
@pytest.mark.parametrize("parent_rows", ["empty", "all_null"])
def test_parent_without_keys(ray_session, parent_rows, parent_kind, strategy):
    """A parent with no non-NULL key covers no child key: both routes
    report every checked child row as an orphan."""
    n = 0 if parent_rows == "empty" else 2
    parent = pa.table(
        {"pa": pa.array([None] * n, pa.int64()), "pb": pa.array([1, None][:n], pa.int64())}
    )
    child = pa.table({"id": [1, 2, 3], "a": [1, 2, None], "b": [1, 2, 3]})
    res = P.validate(
        ray.data.from_arrow(child), _spec(strategy), parents={"p": _parent(parent, parent_kind)}
    )
    assert _counts(res) == (2, 2)
    assert len(res.violations_table()) == 2


def test_read_parquet_parent_runs_only_its_read(ray_session, tmp_path):
    """The key set reads a Dataset parent with its own plan: after
    validate() the parent's stats list its read and nothing else."""
    f = str(tmp_path / "repos.parquet")
    pq.write_table(C.repos_table(300, 5), f)
    parent = ray.data.read_parquet(f)
    res = P.validate(C.corpus_dataset(300, 5, override_num_blocks=2), C.CORPUS_SPEC,
                     parents={"repos": parent})
    assert res.verdicts_table().num_rows
    ops = [ln for ln in parent.stats().splitlines() if ln.startswith("Operator")]
    assert ops and all("ReadParquet" in ln for ln in ops), ops
    assert not any("MapBatches" in ln for ln in ops), ops


@ray.remote
class _Calls:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1

    def get(self):
        return self.n


def test_computed_parent_runs_once_for_its_keys(ray_session):
    """A computed Dataset parent on the forced broadcast route (no
    planner ``count()``) runs its plan once: for its keys, not again
    for its schema."""
    calls = _Calls.remote()

    def tap(t):
        ray.get(calls.bump.remote())
        return t

    parent = ray.data.from_arrow(pa.table({"pa": list(range(100)), "pb": list(range(100))}))
    parent = parent.repartition(2).map_batches(tap, batch_format="pyarrow")
    child = pa.table({"id": [1, 2, 3], "a": [1, 2, 700], "b": [1, 2, 700]})
    res = P.validate(ray.data.from_arrow(child), _spec("broadcast"), parents={"p": parent})
    assert _counts(res) == (3, 1)
    assert ray.get(calls.get.remote()) == 2  # one call per block


def test_repartitioned_parent_matches_table(ray_session):
    """A parent Dataset in several blocks gives the same verdicts and
    violations as the same parent as one Arrow table."""
    n = 800
    parent = C.repos_table(n, 9)

    def run(src):
        res = P.validate(C.corpus_dataset(n, 9, override_num_blocks=3), C.CORPUS_SPEC,
                         parents={"repos": src})
        return res.verdicts_table(), res.violations_table()

    v_t, x_t = run(parent)
    v_d, x_d = run(ray.data.from_arrow(parent).repartition(5))
    assert v_t.equals(v_d)
    assert x_t.equals(x_d)
    assert len(x_t)


def test_dataset_parent_on_one_cpu():
    """With one CPU the key-set task and the row pass share it:
    validate() with a Dataset refint parent completes."""
    code = textwrap.dedent(
        """
        import ray, ray.data
        import pyarrow as pa
        ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
        from vald import pipeline as P
        spec = {"table": "t", "row_ref": ["id"], "columns": {},
                "checks": [{"kind": "refint", "columns": ["a"],
                            "parent_table": "p", "constraint_id": "r"}]}
        child = ray.data.from_arrow(pa.table({"id": [1, 2, 3], "a": [1, 2, 700]}))
        parent = ray.data.from_arrow(pa.table({"a": list(range(100))})).repartition(3)
        v = P.validate(child, spec, parents={"p": parent}).verdicts_table()
        print("counts", sum(v["n_checked"].to_pylist()), sum(v["n_violations"].to_pylist()))
        ray.shutdown()
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([ROOT, os.environ.get("PYTHONPATH", "")])}
    r = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert "counts 3 1" in r.stdout, r.stdout


@pytest.mark.parametrize("strategy", ["broadcast", "anti_join"])
def test_child_without_keys(ray_session, strategy):
    """A child whose keys are all NULL checks nothing on either route:
    one zero verdict row, and the anti-join runs no join."""
    child = pa.table({"id": [1, 2], "a": pa.array([None, None], pa.int64()), "b": [1, 2]})
    parent = pa.table({"pa": [1, 2], "pb": [1, 2]})
    res = P.validate(ray.data.from_arrow(child), _spec(strategy), parents={"p": parent})
    v = res.verdicts_table()
    assert [(r["n_checked"], r["n_violations"]) for r in v.to_pylist()] == [(0, 0)]
    assert len(res.violations_table()) == 0
