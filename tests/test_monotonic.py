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
