"""Regression tests for ADVICE r3: bloom_screen distributed hashing +
list-parent honor (pipeline._parent_key_hashes), quantile_bounds
max_violation_rows passthrough (ir.py), completeness exemplar
attribution (constraints_dist), fd bare-string determinant (ir.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from vald import pipeline as P
from vald.ir import compile_table_spec


class TestBloomScreenParents:
    """bloom_screen must be honored for every parent kind (ADVICE r3:
    a plain key LIST silently fell back to the exact set) and its
    hashing must match the validator's child-side convention."""

    def _run(self, parent, n_clean=200, n_orphan=30):
        child_keys = [f"p{i}" for i in range(n_clean)] + [
            f"x{i}" for i in range(n_orphan)
        ]
        child = pa.table({"fk": pa.array(child_keys)})
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {
                        "kind": "refint",
                        "columns": ["fk"],
                        "parent_table": "parent",
                        "parent_columns": ["pk"],
                        "strategy": "bloom_screen",
                    }
                ],
            }
        )
        res = P.validate(
            ray.data.from_arrow(child).repartition(2),
            spec,
            parents={"parent": parent},
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "t.fk.refint"))
        return (
            int(pc.sum(rows["n_checked"]).as_py()),
            int(pc.sum(rows["n_violations"]).as_py() or 0),
        )

    def test_list_parent_honored(self, ray_session):
        n, v = self._run([f"p{i}" for i in range(300)])
        assert n == 230
        # one-sided: >=29/30 orphans flagged w.h.p. at FPR ~4e-4
        assert 29 <= v <= 30

    def test_table_parent(self, ray_session):
        n, v = self._run(pa.table({"pk": pa.array([f"p{i}" for i in range(300)])}))
        assert n == 230 and 29 <= v <= 30

    def test_dataset_parent_distributed_hashing(self, ray_session):
        parent = ray.data.from_arrow(
            pa.table({"pk": pa.array([f"p{i}" for i in range(300)])})
        ).repartition(3)
        n, v = self._run(parent)
        assert n == 230 and 29 <= v <= 30

    def test_parent_key_hashes_match_across_kinds(self, ray_session):
        keys = [f"p{i}" for i in range(100)]
        h_list = P._parent_key_hashes(keys, ["pk"])
        h_tbl = P._parent_key_hashes(pa.table({"pk": pa.array(keys)}), ["pk"])
        h_ds = P._parent_key_hashes(
            ray.data.from_arrow(pa.table({"pk": pa.array(keys)})).repartition(4),
            ["pk"],
        )
        assert np.array_equal(h_list, h_tbl)
        assert np.array_equal(h_tbl, h_ds)


class TestQuantileBoundsExemplarCap:
    def test_max_violation_rows_passthrough(self, ray_session):
        v = np.concatenate([np.linspace(0.0, 1.0, 90), np.full(10, 1000.0)])
        t = pa.table({"v": pa.array(v, type=pa.float64())})
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {
                        "kind": "quantile_bounds",
                        "column": "v",
                        "lower_q": 0.0,
                        "upper_q": 0.5,
                        "max_violation_rows": 1,
                    }
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t), spec)
        cid = "t.v.quantile_bounds"
        verd = res.verdicts_table()
        rows = verd.filter(pc.equal(verd["constraint_id"], cid))
        n_viol = int(pc.sum(rows["n_violations"]).as_py() or 0)
        assert n_viol >= 10  # true count unaffected by the exemplar cap
        viol = res.violations_table()
        ex = viol.filter(pc.equal(viol["constraint_id"], cid))
        # single input block -> the per-batch cap of 1 binds exactly
        assert len(ex) == 1


class TestCompletenessExemplarAttribution:
    def test_exemplar_points_at_nulliest_partition(self, ray_session):
        n_per = 100
        part = np.repeat(np.arange(4), n_per)
        v = np.random.default_rng(7).random(4 * n_per)
        v[part == 2] = np.nan  # all nulls concentrated in part==2
        t = pa.table(
            {
                "v": pa.array(v, type=pa.float64()),
                "part": pa.array(part, type=pa.int64()),
            }
        )
        spec = compile_table_spec(
            {
                "table": "t",
                "partition_by": "part",
                "num_partitions": 8,
                "columns": {},
                "checks": [
                    {"kind": "completeness", "column": "v", "max_null_rate": 0.05}
                ],
            }
        )
        expected_pid = int(
            np.unique(np.asarray(P.build_partition_ids(t, spec))[part == 2])[0]
        )
        res = P.validate(ray.data.from_arrow(t).repartition(3), spec)
        viol = res.violations_table()
        ex = viol.filter(pc.equal(viol["constraint_id"], "t.v.completeness"))
        assert len(ex) == 1
        assert ex["partition_id"][0].as_py() == expected_pid


class TestFdStringDeterminant:
    def test_bare_string_columns_normalized(self, ray_session):
        t = pa.table(
            {
                "a": pa.array([1, 1, 2, 2], type=pa.int64()),
                "b": pa.array(["x", "y", "z", "z"]),
            }
        )
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [{"kind": "fd", "columns": "a", "dependent": "b"}],
            }
        )
        (dist,) = spec.dist_checks
        assert dist.params["columns"] == ["a"]
        res = P.validate(ray.data.from_arrow(t), spec)
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "t.a->b.fd"))
        assert int(pc.sum(rows["n_violations"]).as_py() or 0) == 2
