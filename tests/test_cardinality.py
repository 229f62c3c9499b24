"""Cardinality check (kind: cardinality / ops.stats.distinct_bounds_ds):
exact distinct counts vs pandas, bounds verdicts both ways, grouped +
whole-table modes, validate() integration with first-writer/dominant
partition attribution, parallelism invariance."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from vald import pipeline as P
from vald.ir import compile_table_spec
from vald.ops.stats import distinct_bounds_ds


def _tbl() -> pa.Table:
    # lang a: values {x, y, z} (3 distinct); lang b: {x} (1); lang c:
    # {x, y} (2); one NULL value and one NULL lang excluded
    rows = [
        ("a", "x", 0), ("a", "y", 0), ("a", "z", 1), ("a", "x", 1),
        ("b", "x", 0), ("b", "x", 1),
        ("c", "x", 1), ("c", "y", 1),
        ("a", None, 0), (None, "q", 1),
    ]
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows]),
            "src": pa.array([r[1] for r in rows]),
            "part": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )


class TestDistinctBoundsOp:
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_grouped(self, ray_session, blocks):
        import ray.data

        out = (
            distinct_bounds_ds(
                ray.data.from_arrow(_tbl()).repartition(blocks),
                "src", "lang", min_distinct=2,
            )
            .to_pandas()
            .sort_values("lang")
            .reset_index(drop=True)
        )
        assert out["lang"].tolist() == ["a", "b", "c"]
        assert out["n_distinct"].tolist() == [3, 1, 2]
        assert out["ok"].tolist() == [True, False, True]

    def test_whole_table_and_upper_bound(self, ray_session):
        import ray.data

        out = distinct_bounds_ds(
            ray.data.from_arrow(_tbl()), "src", None, max_distinct=3
        ).to_pandas()
        assert len(out) == 1
        assert out.loc[0, "n_distinct"] == 4  # x, y, z, q
        assert not bool(out.loc[0, "ok"])


class TestCardinalitySpec:
    def _spec(self, **kw):
        return compile_table_spec(
            {
                "table": "docs",
                "partition_by": "part",
                "num_partitions": 2,
                "columns": {},
                "checks": [
                    {"kind": "cardinality", "column": "src",
                     "group_by": "lang", **kw}
                ],
            }
        )

    def test_validate_integration(self, ray_session):
        import ray.data

        res = P.validate(
            ray.data.from_arrow(_tbl()).repartition(3),
            self._spec(min_distinct=2),
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "docs.src.cardinality"))
        assert int(pc.sum(rows["n_checked"]).as_py()) == 3  # unit = groups
        assert int(pc.sum(rows["n_violations"]).as_py()) == 1
        viol = res.violations_table()
        viol = viol.filter(
            pc.equal(viol["constraint_id"], "docs.src.cardinality")
        )
        assert len(viol) == 1
        assert viol["row_ref"].to_pylist() == ["b"]
        assert viol["observed"].to_pylist() == ["1"]

    def test_all_within_bounds_passes(self, ray_session):
        import ray.data

        res = P.validate(
            ray.data.from_arrow(_tbl()), self._spec(min_distinct=1, max_distinct=5),
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "docs.src.cardinality"))
        assert int(pc.sum(rows["n_violations"]).as_py()) == 0

    @pytest.mark.parametrize("num_buckets", [1, 7, 256])
    @pytest.mark.parametrize("blocks", [1, 3, 7])
    def test_fused_parity(self, ray_session, blocks, num_buckets):
        """Grouped and whole-table cardinality through the shared row
        pass and exchange: per-partition verdicts (dominant partition of
        first-writer credits) and exemplars equal a pandas reference at
        any block / bucket count; NULL groups and values are unchecked."""
        import ray.data

        rng = np.random.default_rng(5)
        n = 400
        lang = rng.choice(
            ["a", "b", "c", "d", "e", "f"], n, p=[0.4, 0.3, 0.15, 0.1, 0.03, 0.02]
        ).astype(object)
        src = rng.integers(0, 12, n).astype(str).astype(object)
        lang[rng.random(n) < 0.05] = None
        src[rng.random(n) < 0.05] = None
        t = pa.table(
            {
                "lang": pa.array(lang.tolist()),
                "src": pa.array(src.tolist()),
                "part": pa.array(rng.integers(0, 8, n), type=pa.int64()),
            }
        )
        checks = [
            {"kind": "cardinality", "column": "src", "group_by": "lang",
             "min_distinct": 10, "num_buckets": num_buckets},
            # same column, no explicit id: compiled as ".cardinality.1"
            {"kind": "cardinality", "column": "src", "max_distinct": 11,
             "num_buckets": num_buckets},
        ]
        spec = compile_table_spec(
            {"table": "docs", "partition_by": "part", "num_partitions": 4,
             "columns": {}, "checks": checks}
        )
        res = P.validate(ray.data.from_arrow(t).repartition(blocks), spec)
        v = res.verdicts_table().to_pandas()
        x = res.violations_table().to_pandas()
        df = t.to_pandas()
        df["pid"] = np.asarray(P.build_partition_ids(t, spec))

        def expected(d, lo, hi):
            # first writer of each (group, value); a group's verdict goes
            # to the partition with the most credits, ties -> min pid
            first = d.groupby(["g", "src"])["pid"].min().reset_index()
            credit = first.groupby(["g", "pid"]).size().reset_index(name="c")
            top = credit.sort_values(["g", "c", "pid"], ascending=[True, False, True])
            top = top.groupby("g").head(1).set_index("g")["pid"]
            tot = first.groupby("g").size()
            bad = (tot < lo) if lo is not None else (tot > hi)
            counts = {}
            for g, p in top.items():
                c, b = counts.get(int(p), (0, 0))
                counts[int(p)] = (c + 1, b + int(bad[g]))
            ex = sorted((str(g), int(top[g]), str(int(tot[g]))) for g in tot[bad].index)
            return counts, ex

        cases = [
            ("docs.src.cardinality", df.dropna(subset=["lang", "src"]).assign(g=lambda d: d["lang"]), 10, None),
            ("docs.src.cardinality.1", df.dropna(subset=["src"]).assign(g=""), None, 11),
        ]
        for cid, d, lo, hi in cases:
            counts, ex = expected(d, lo, hi)
            rows = v[v.constraint_id == cid]
            assert {
                int(r.partition_id): (int(r.n_checked), int(r.n_violations))
                for r in rows.itertuples()
            } == counts
            got = x[x.constraint_id == cid]
            assert sorted(zip(got.row_ref, got.partition_id, got.observed)) == ex
        assert len(x[x.constraint_id == "docs.src.cardinality.1"]) == 1
        assert 0 < len(x[x.constraint_id == "docs.src.cardinality"]) < 6

    def test_repeated_checks_get_distinct_ids(self, ray_session):
        """The shared exchange folds per constraint_id, so repeated
        default ids get a ".N" suffix and a repeated explicit id is a
        SpecError."""
        from vald import constraints_dist as cd
        from vald.ir import _SHARED_EXCHANGE_KINDS, SpecError

        assert set(_SHARED_EXCHANGE_KINDS) == set(cd.FUSED_KINDS)
        checks = [
            {"kind": "cardinality", "column": "src", "min_distinct": 1},
            {"kind": "cardinality", "column": "src", "max_distinct": 9},
            {"kind": "completeness", "column": "src", "max_null_rate": 0.1},
            {"kind": "completeness", "column": "src", "max_null_rate": 0.2},
            {"kind": "fd", "columns": ["lang"], "dependent": "src"},
            {"kind": "fd", "columns": ["lang"], "dependent": "src"},
            {"kind": "unique", "columns": ["src"]},
            {"kind": "unique", "columns": ["src"]},
        ]
        cs = compile_table_spec({"table": "docs", "checks": checks})
        assert [d.constraint_id for d in cs.dist_checks] == [
            "docs.src.cardinality", "docs.src.cardinality.1",
            "docs.src.completeness", "docs.src.completeness.1",
            "docs.lang->src.fd", "docs.lang->src.fd.1",
            "docs.src.unique", "docs.src.unique.1",
        ]
        with pytest.raises(SpecError, match="duplicate constraint_id 'x'"):
            compile_table_spec(
                {"table": "docs", "checks": [
                    {"kind": "completeness", "column": "src",
                     "max_null_rate": 0.1, "constraint_id": "x"},
                    {"kind": "cardinality", "column": "src",
                     "min_distinct": 1, "constraint_id": "x"},
                ]}
            )

    def test_missing_bounds_rejected(self, ray_session):
        with pytest.raises(ValueError, match="min_distinct"):
            self._spec()
