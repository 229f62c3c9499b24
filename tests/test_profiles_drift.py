"""Profiles (B6) + drift (B9) tests: sketch profile vs exact values on
testdata; drift fires on a shifted corpus and stays silent on the
undrifted one (FIXTURES.md §4 null test)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from vald import corpus as C
from vald import drift as D
from vald import pipeline as P
from vald.aggregates import HllDistinct, TDigestQuantile, profile

SF = "/root/testdata/sf0.001"


def test_profile_operator_vs_exact(ray_session):
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"])
    prof = profile(ds, ["l_quantity", "l_extendedprice"], concurrency=2).to_pandas()
    assert set(prof.column) == {"l_quantity", "l_extendedprice"}
    import duckdb

    exact = duckdb.sql(
        f"SELECT count(*) n, min(l_quantity) mn, max(l_quantity) mx, avg(l_quantity) avg, "
        f"count(DISTINCT l_quantity) nd, quantile_cont(l_quantity, 0.5) p50 "
        f"FROM read_parquet('{SF}/lineitem.parquet')"
    ).fetchone()
    row = prof[prof.column == "l_quantity"].iloc[0]
    assert row.n == exact[0]
    assert row["min"] == exact[1] and row["max"] == exact[2]
    assert row["mean"] == pytest.approx(exact[3], rel=1e-9)
    assert abs(row.n_distinct - exact[4]) / exact[4] < 0.02
    assert row.p50 == pytest.approx(exact[5], rel=0.05)


def test_aggregate_fn_v2_sketches(ray_session):
    ds = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_extendedprice"])
    res = ds.aggregate(
        HllDistinct("l_extendedprice", alias_name="nd"),
        TDigestQuantile("l_extendedprice", q=0.5, alias_name="med"),
    )
    import duckdb

    exact_nd, exact_med = duckdb.sql(
        f"SELECT count(DISTINCT l_extendedprice), quantile_cont(l_extendedprice, 0.5) "
        f"FROM read_parquet('{SF}/lineitem.parquet')"
    ).fetchone()
    assert abs(res["nd"] - exact_nd) / exact_nd < 0.02
    assert res["med"] == pytest.approx(exact_med, rel=0.02)


def test_profile_string_and_null_handling(ray_session):
    t = pa.table(
        {
            "s": ["aa", "bbbb", None, "cc"],
            "x": [1.0, float("nan"), None, 4.0],
            "k": ["p", "p", "q", None],
        }
    )
    prof = profile(ray.data.from_arrow(t), ["s", "x", "k"], concurrency=1).to_pandas()
    srow = prof[prof.column == "s"].iloc[0]
    assert srow.n == 4 and srow.n_null == 1
    assert srow["min"] == 2 and srow["max"] == 4  # string → length stats
    xrow = prof[prof.column == "x"].iloc[0]
    assert xrow.n_null == 2  # null + NaN both count as null
    assert xrow["min"] == 1.0 and xrow["max"] == 4.0


def _drifted_corpus(n: int) -> "ray.data.Dataset":
    """Corpus variant with shifted content-length and lang mix."""
    base = C.corpus_dataset(n, 42, override_num_blocks=4)

    def shift(t: pa.Table) -> pa.Table:
        # +1σ-ish: double every content length; skew lang to 'md'
        content = [
            (c or "") + (c or "")[: len(c or "")] for c in t["content"].to_pylist()
        ]
        langs = ["md" if i % 2 == 0 else l for i, l in enumerate(t["lang"].to_pylist())]
        return (
            t.drop_columns(["content", "lang"])
            .append_column("lang", pa.array(langs))
            .append_column("content", pa.array(content))
        )

    return base.map_batches(shift, batch_format="pyarrow")


def test_drift_fires_on_shift_and_not_on_clean(ray_session):
    n = 4000
    clean = C.corpus_dataset(n, 42, override_num_blocks=4)
    baseline = D.build_baseline(clean, numeric_cols=["content"], cat_cols=["lang"])
    spec = dict(C.CORPUS_SPEC)
    spec = {
        "table": "corpus",
        "row_ref": ["repo", "commit", "path"],
        "row_ref_template": "{repo}@{commit}:{path}",
        "partition_by": "repo",
        "num_partitions": 4,
        "columns": {},
        "checks": [
            {
                "kind": "drift",
                "constraint_id": "corpus.drift",
                "columns": ["content"],
                "cat_columns": ["lang"],
                "baseline_table": baseline,
                "ks_threshold": 0.15,
                "psi_threshold": 0.2,
            }
        ],
    }
    res_clean = P.validate(clean, spec)
    assert res_clean.passed(), res_clean.verdicts_table().to_pandas()

    res_drift = P.validate(_drifted_corpus(n), spec)
    vt = res_drift.violations_table().to_pandas()
    assert (vt.constraint_id == "corpus.drift.content").any()  # KS on length
    assert (vt.constraint_id == "corpus.drift.lang").any()  # PSI on lang
