"""Fan-out of the fused exchange: ``fold_tasks`` bounds, the fused
parity fixtures at forced fold-task counts, and per-bucket exemplar
caps when one fold call sees many buckets."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import constraints_dist as cd
from vald import pipeline as P
from vald.hashing import stable_hash64
from vald.ir import compile_table_spec

import test_cardinality
import test_dist_paths
import test_fd


def test_fold_tasks_bounds():
    r = cd.ROWS_PER_FOLD_TASK
    assert cd.fold_tasks(0, 4) == 1  # empty stream: still one task
    assert cd.fold_tasks(1, 4) == 1
    assert cd.fold_tasks(r, 4) == 1
    assert cd.fold_tasks(r + 1, 4) == 2
    assert cd.fold_tasks(3 * r, 8) == 3
    assert cd.fold_tasks(100 * r, 2) == 2  # at most the cluster's CPUs
    assert cd.fold_tasks(100 * r, 1) == 1
    assert cd.fold_tasks(100 * r, 0) == 1


@pytest.fixture
def forced_fold_tasks(monkeypatch):
    """``force(k)`` sets ROWS_PER_FOLD_TASK, when an exchange sizes
    itself, so that its n partial rows make k fold tasks; returns the
    list of task counts the exchanges chose."""
    chosen: list[int] = []

    def force(k):
        real = cd.fold_tasks

        def sized(n_rows, cpus):
            monkeypatch.setattr(cd, "ROWS_PER_FOLD_TASK", max(1, -(-n_rows // k)))
            chosen.append(real(n_rows, cpus))
            return chosen[-1]

        monkeypatch.setattr(cd, "fold_tasks", sized)
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
