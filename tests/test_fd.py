"""Functional-dependency check: op parity vs pandas, bucket-count
invariance, and the spec-level `kind: fd` integration (verdict totals +
exact per-partition attribution + exemplar rows)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import pipeline as P
from vald.ir import compile_table_spec
from vald.ops.stats import fd_groups_ds


def _corpus(n=2000, seed=7) -> pa.Table:
    rng = np.random.default_rng(seed)
    det = rng.integers(0, 200, n)
    # dependent is a function of det for most groups; ~20 groups broken
    dep = det * 10
    broken = rng.choice(200, 20, replace=False)
    mask = np.isin(det, broken) & (rng.random(n) < 0.5)
    dep = np.where(mask, dep + 1, dep)
    return pa.table(
        {
            "det": pa.array(det, type=pa.int64()),
            "dep": pa.array(dep, type=pa.int64()),
            "part": pa.array(rng.integers(0, 4, n), type=pa.int64()),
        }
    )


def _expected(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    g = df.groupby("det").agg(n_dep=("dep", "nunique"), n_rows=("dep", "size"))
    return g[g["n_dep"] >= 2].reset_index().sort_values("det").reset_index(drop=True)


class TestFdOp:
    def test_parity_vs_pandas(self, ray_session):
        import ray.data

        t = _corpus()
        out = (
            fd_groups_ds(ray.data.from_arrow(t).repartition(5), "det", "dep")
            .to_pandas()
            .sort_values("det")
            .reset_index(drop=True)
        )
        exp = _expected(t)
        pd.testing.assert_frame_equal(
            out[["det", "n_dep", "n_rows"]].astype("int64"),
            exp[["det", "n_dep", "n_rows"]].astype("int64"),
        )
        assert len(out) > 0

    def test_bucket_invariance_and_nulls(self, ray_session):
        import ray.data

        t = pa.table(
            {
                "det": pa.array([1, 1, 2, 2, None, 3], type=pa.int64()),
                "dep": pa.array(["a", "b", "c", "c", "x", None]),
            }
        )
        outs = []
        for nb in (2, 64):
            o = (
                fd_groups_ds(
                    ray.data.from_arrow(t).repartition(3),
                    "det",
                    "dep",
                    num_buckets=nb,
                )
                .to_pandas()
                .sort_values("det")
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # only det=1 violates; NULL det / NULL dep rows excluded
        assert outs[0]["det"].tolist() == [1]
        assert outs[0]["n_dep"].tolist() == [2]


class TestFdSpec:
    def test_validate_integration(self, ray_session):
        import ray.data

        t = _corpus()
        spec = compile_table_spec(
            {
                "table": "t",
                "partition_by": "part",
                "num_partitions": 4,
                "columns": {},
                "checks": [
                    {"kind": "fd", "columns": ["det"], "dependent": "dep"}
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t).repartition(5), spec)
        v = res.verdicts_table()
        cid = "t.det->dep.fd"
        rows = v.filter(pc.equal(v["constraint_id"], cid))
        assert len(rows) > 0
        n_checked = int(pc.sum(rows["n_checked"]).as_py())
        n_viol = int(pc.sum(rows["n_violations"]).as_py())
        assert n_checked == len(t)
        exp = _expected(t)
        assert n_viol == int(exp["n_rows"].sum())
        # exemplar rows: one per inconsistent determinant
        viol = res.violations_table()
        viol = viol.filter(pc.equal(viol["constraint_id"], cid))
        assert len(viol) == len(exp)
        assert set(viol["detail"].to_pylist()) == {"fd"}

    def test_clean_fd_passes(self, ray_session):
        import ray.data

        t = pa.table(
            {
                "det": pa.array([1, 2, 3, 1], type=pa.int64()),
                "dep": pa.array([10, 20, 30, 10], type=pa.int64()),
            }
        )
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {"kind": "fd", "columns": ["det"], "dependent": "dep"}
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t), spec)
        v = res.verdicts_table()
        assert int(pc.sum(v["n_violations"]).as_py() or 0) == 0
        assert int(pc.sum(v["n_checked"]).as_py()) == 4


    @staticmethod
    def _nulls_table(n=600, seed=11) -> pa.Table:
        # NULL determinant, NULL dependent and NULL / NaN values mixed in
        rng = np.random.default_rng(seed)
        det = rng.integers(0, 60, n).astype(object)
        dep = (rng.integers(0, 60, n) // 6).astype(object)
        det[rng.random(n) < 0.05] = None
        dep[rng.random(n) < 0.05] = None
        v = rng.random(n)
        v[rng.random(n) < 0.08] = np.nan
        vmask = rng.random(n) < 0.04
        return pa.table(
            {
                "det": pa.array(det.tolist(), type=pa.int64()),
                "dep": pa.array(dep.tolist(), type=pa.int64()),
                "v": pa.array(v, type=pa.float64(), mask=vmask),
                "part": pa.array(rng.integers(0, 6, n), type=pa.int64()),
            }
        )

    @staticmethod
    def _fused_spec(num_buckets):
        return compile_table_spec(
            {
                "table": "t",
                "partition_by": "part",
                "num_partitions": 4,
                "columns": {},
                "checks": [
                    {"kind": "fd", "columns": ["det"], "dependent": "dep",
                     "num_buckets": num_buckets},
                    {"kind": "completeness", "column": "v", "max_null_rate": 0.05},
                ],
            }
        )

    @pytest.mark.parametrize("num_buckets", [1, 7, 256])
    @pytest.mark.parametrize("blocks", [1, 3, 7])
    def test_fused_parity(self, ray_session, blocks, num_buckets):
        """fd + completeness through the shared row pass and exchange:
        per-partition verdicts and exemplars equal a pandas reference
        at any block count and bucket count, NULLs unchecked."""
        import ray.data

        t = self._nulls_table()
        spec = self._fused_spec(num_buckets)
        res = P.validate(ray.data.from_arrow(t).repartition(blocks), spec)
        v = res.verdicts_table().to_pandas()
        x = res.violations_table().to_pandas()
        df = t.to_pandas()
        df["pid"] = np.asarray(P.build_partition_ids(t, spec))

        def got(cid):
            rows = v[v.constraint_id == cid]
            return {
                int(r.partition_id): (int(r.n_checked), int(r.n_violations))
                for r in rows.itertuples()
                if r.n_checked or r.n_violations
            }

        # fd: rows with det and dep set; a det with >= 2 deps is bad
        fd = df.dropna(subset=["det", "dep"])
        ndep = fd.groupby("det")["dep"].nunique()
        bad = fd["det"].isin(ndep[ndep >= 2].index)
        exp = {
            int(p): (int(len(g)), int(bad[g.index].sum()))
            for p, g in fd.groupby("pid")
        }
        assert got("t.det->dep.fd") == exp
        ex = x[x.constraint_id == "t.det->dep.fd"]
        minpid = fd.groupby("det")["pid"].min()
        assert sorted(zip(ex.row_ref, ex.partition_id, ex.observed)) == sorted(
            (str(int(d)), int(minpid[d]), str(int(ndep[d])))
            for d in ndep[ndep >= 2].index
        )

        # completeness: NaN and NULL both count as null; global decision
        isnull = df["v"].isna()
        firing = isnull.mean() > 0.05
        exp = {
            int(p): (int(len(g)), int(isnull[g.index].sum()) if firing else 0)
            for p, g in df.groupby("pid")
        }
        assert got("t.v.completeness") == exp
        ex = x[x.constraint_id == "t.v.completeness"]
        nulls_by_pid = isnull.groupby(df["pid"]).sum()
        worst = [int(nulls_by_pid.idxmax())] if firing else []
        assert ex.partition_id.tolist() == worst

    def test_fused_empty_input(self, ray_session):
        import ray.data

        t = self._nulls_table().slice(0, 0)
        res = P.validate(ray.data.from_arrow(t), self._fused_spec(7))
        v = res.verdicts_table()
        assert int(pc.sum(v["n_checked"]).as_py() or 0) == 0
        assert len(res.violations_table()) == 0


class TestCompleteness:
    def _spec(self, max_rate):
        return compile_table_spec(
            {
                "table": "t",
                "partition_by": "part",
                "num_partitions": 4,
                "columns": {},
                "checks": [
                    {
                        "kind": "completeness",
                        "column": "v",
                        "max_null_rate": max_rate,
                    }
                ],
            }
        )

    def _table(self):
        rng = np.random.default_rng(3)
        n = 1000
        v = rng.random(n)
        v[rng.choice(n, 100, replace=False)] = np.nan  # 10% null (NaN)
        return pa.table(
            {
                "v": pa.array(v, type=pa.float64()),
                "part": pa.array(rng.integers(0, 4, n), type=pa.int64()),
            }
        )

    def test_fires_above_threshold(self, ray_session):
        import ray.data

        t = self._table()
        res = P.validate(
            ray.data.from_arrow(t).repartition(5), self._spec(0.05)
        )
        v = res.verdicts_table()
        cid = "t.v.completeness"
        rows = v.filter(pc.equal(v["constraint_id"], cid))
        assert int(pc.sum(rows["n_checked"]).as_py()) == 1000
        # global decision: every partition's nulls count as violations
        assert int(pc.sum(rows["n_violations"]).as_py()) == 100
        assert not all(rows["pass"].to_pylist())

    def test_passes_below_threshold(self, ray_session):
        import ray.data

        t = self._table()
        res = P.validate(
            ray.data.from_arrow(t).repartition(5), self._spec(0.2)
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "t.v.completeness"))
        assert int(pc.sum(rows["n_violations"]).as_py()) == 0
        assert int(pc.sum(rows["n_checked"]).as_py()) == 1000
        assert all(rows["pass"].to_pylist())

    def test_parallelism_invariant(self, ray_session):
        import ray.data

        t = self._table()
        outs = []
        for nparts in (1, 3, 7):
            res = P.validate(
                ray.data.from_arrow(t).repartition(nparts),
                self._spec(0.05),
            )
            v = res.verdicts_table()
            rows = v.filter(
                pc.equal(v["constraint_id"], "t.v.completeness")
            ).to_pandas()
            outs.append(
                rows.sort_values("partition_id")[
                    ["partition_id", "n_checked", "n_violations"]
                ].reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        pd.testing.assert_frame_equal(outs[0], outs[2])


class TestBloomScreenRefint:
    """Opt-in approximate refint: bloom-miss children are DEFINITE
    orphans; false positives only let orphans pass (one-sided)."""

    def _run(self, strategy):
        import ray.data

        parent = pa.table({"pk": pa.array([f"p{i}" for i in range(500)])})
        child_keys = [f"p{i}" for i in range(400)] + [f"orphan{i}" for i in range(50)]
        child = pa.table({"fk": pa.array(child_keys)})
        chk = {
            "kind": "refint",
            "columns": ["fk"],
            "parent_table": "parent",
            "parent_columns": ["pk"],
        }
        if strategy:
            chk["strategy"] = strategy
        spec = compile_table_spec({"table": "t", "columns": {}, "checks": [chk]})
        res = P.validate(
            ray.data.from_arrow(child).repartition(3),
            spec,
            parents={"parent": ray.data.from_arrow(parent)},
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], "t.fk.refint"))
        return (
            int(pc.sum(rows["n_checked"]).as_py()),
            int(pc.sum(rows["n_violations"]).as_py() or 0),
        )

    def test_bloom_matches_exact_here(self, ray_session):
        # at 16 bits/key FPR ~4e-4: 50 orphans all miss w.h.p. — any
        # discrepancy vs exact must be one-sided (bloom <= exact)
        n_exact, v_exact = self._run(None)
        n_bloom, v_bloom = self._run("bloom_screen")
        assert (n_exact, v_exact) == (450, 50)
        assert n_bloom == 450
        assert v_bloom <= v_exact
        assert v_bloom >= 49  # >=49 of 50 w.h.p. at FPR 4e-4

    def test_clean_children_never_flagged(self, ray_session):
        import ray.data

        parent = pa.table({"pk": pa.array([f"p{i}" for i in range(300)])})
        child = pa.table({"fk": pa.array([f"p{i}" for i in range(300)])})
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
            ray.data.from_arrow(child),
            spec,
            parents={"parent": ray.data.from_arrow(parent)},
        )
        v = res.verdicts_table()
        # a present key ALWAYS hits the filter: zero false alarms
        assert int(pc.sum(v["n_violations"]).as_py() or 0) == 0


class TestQuantileBounds:
    def test_flags_outliers_exactly(self, ray_session):
        import ray.data

        rng = np.random.default_rng(11)
        v = rng.normal(100.0, 10.0, 5000)
        v[:25] = 10_000.0  # planted high outliers
        v[25:40] = -10_000.0  # planted low outliers
        t = pa.table({"v": pa.array(v, type=pa.float64())})
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {
                        "kind": "quantile_bounds",
                        "column": "v",
                        "lower_q": 0.005,
                        "upper_q": 0.995,
                    }
                ],
            }
        )
        res = P.validate(ray.data.from_arrow(t).repartition(4), spec)
        vt = res.verdicts_table()
        rows = vt.filter(pc.equal(vt["constraint_id"], "t.v.quantile_bounds"))
        n_viol = int(pc.sum(rows["n_violations"]).as_py())
        # exact reference: numpy linear-interpolation quantiles
        lo, hi = np.quantile(v, [0.005, 0.995])
        assert n_viol == int(((v < lo) | (v > hi)).sum())
        assert int(pc.sum(rows["n_checked"]).as_py()) == 5000
        # exemplars carry the offending values
        viol = res.violations_table()
        viol = viol.filter(pc.equal(viol["constraint_id"], "t.v.quantile_bounds"))
        assert len(viol) == n_viol

    def test_parallelism_invariant_and_nan(self, ray_session):
        import ray.data

        rng = np.random.default_rng(5)
        v = rng.random(2000) * 100
        v[::10] = np.nan  # unchecked
        t = pa.table({"v": pa.array(v, type=pa.float64())})
        spec = compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "checks": [
                    {
                        "kind": "quantile_bounds",
                        "column": "v",
                        "lower_q": 0.01,
                        "upper_q": 0.99,
                    }
                ],
            }
        )
        outs = []
        for nparts in (1, 6):
            res = P.validate(
                ray.data.from_arrow(t).repartition(nparts), spec
            )
            vt = res.verdicts_table()
            rows = vt.filter(
                pc.equal(vt["constraint_id"], "t.v.quantile_bounds")
            )
            outs.append(
                (
                    int(pc.sum(rows["n_checked"]).as_py()),
                    int(pc.sum(rows["n_violations"]).as_py()),
                )
            )
        assert outs[0] == outs[1]
        assert outs[0][0] == int(np.count_nonzero(~np.isnan(v)))
        assert outs[0][1] > 0


@pytest.mark.parametrize(
    "check, missing",
    [
        ({"kind": "fd", "determinant": ["det"], "dependent": "dep"}, "columns"),
        ({"kind": "fd", "columns": ["det"]}, "dependent"),
        ({"kind": "completeness", "max_null_rate": 0.1}, "column"),
        ({"kind": "completeness", "column": "v"}, "max_null_rate"),
        ({"kind": "cardinality", "min_distinct": 1}, "column"),
        ({"kind": "monotonic", "key": "det", "column": "v"}, "order"),
        ({"kind": "freshness", "column": "ts", "max_age_s": 60}, "as_of"),
        ({"kind": "reconcile", "key": "det", "column": "v", "other_table": "o",
          "other_key": "det"}, "other_sum"),
        ({"kind": "drift", "columns": ["v"]}, "baseline"),
        ({"kind": "quantile_bounds", "upper_q": 0.9}, "column"),
        ({"kind": "compare", "column": "a"}, "left"),
        ({"kind": "compare", "left": {"column": "a"}, "right": {"value": 1}}, "op"),
        ({"kind": "implies", "left": {"column": "a"}, "op": "==",
          "right": {"value": 1}}, "cond_left"),
        ({"kind": "pair_in_set", "left": {"column": "a"}, "right": {"column": "b"}},
         "pairs"),
        ({"kind": "cardinality", "column": "v"}, "min_distinct"),
        ({"kind": "monotonic", "key": "det", "order": "ts", "column": "v",
          "tolerence": 3, "strcit": True}, "tolerence', 'strcit"),
        ({"kind": "refint", "columns": ["det"], "parent_tabel": "p"}, "parent_tabel"),
    ],
    ids=["fd-columns", "fd-dependent", "completeness-column",
         "completeness-max_null_rate", "cardinality-column", "monotonic-order",
         "freshness-as_of", "reconcile-other_sum", "drift-baseline",
         "quantile_bounds-column", "compare-left", "compare-op", "implies-cond_left",
         "pair_in_set-pairs", "cardinality-bounds", "monotonic-unknown",
         "refint-unknown"],
)
def test_missing_required_param_is_spec_error(check, missing):
    from vald.ir import SpecError

    spec = {
        "table": "t",
        "columns": {},
        "checks": [{"kind": "unique", "columns": ["det"]}, check],
    }
    with pytest.raises(SpecError, match=rf"checks\[1\].*'{missing}'"):
        compile_table_spec(spec)


def test_repeated_default_ids_of_every_kind():
    """Two checks of one kind on one target get "<id>" and "<id>.1", so
    their verdicts never fold together."""
    twice = [
        {"kind": "sha_equal", "column": "c", "expected": "h"},
        {"kind": "refint", "columns": ["det"], "parent_table": "p"},
        {"kind": "quantile_bounds", "column": "v"},
        {"kind": "freshness", "column": "ts", "as_of": 0, "max_age_s": 1},
        {"kind": "reconcile", "key": "det", "column": "v", "other_table": "o",
         "other_key": "det", "other_sum": "v"},
        {"kind": "monotonic", "key": "det", "order": "ts", "column": "v"},
        {"kind": "drift", "columns": ["v"], "baseline": "b.parquet"},
        {"kind": "group_drift", "group_by": "g", "baseline": "b.parquet"},
    ]
    cs = compile_table_spec(
        {"table": "t", "columns": {}, "checks": [c for c in twice for _ in (0, 1)]}
    )
    ids = [c.constraint_id for c in cs.row_checks] + [d.constraint_id for d in cs.dist_checks]
    bases = ["t.c.sha_equal", "t.det.refint", "t.v.quantile_bounds", "t.ts.freshness",
             "t.v.reconcile", "t.v.monotonic", "t.drift", "t.g.group_drift"]
    assert ids == [i for b in bases for i in (b, f"{b}.1")]


def test_repeated_explicit_refint_id_is_spec_error():
    """validate() keys a refint check's broadcast parent keys by its id:
    two refint checks sharing an explicit id would both run against the
    second one's parent."""
    from vald.ir import SpecError

    check = {"kind": "refint", "columns": ["det"], "constraint_id": "x"}
    with pytest.raises(SpecError, match="duplicate constraint_id 'x'"):
        compile_table_spec(
            {"table": "t", "columns": {}, "checks": [
                {**check, "parent_table": "a"}, {**check, "parent_table": "b"}]}
        )
