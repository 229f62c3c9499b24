"""Validation-check catalog queries (SURVEY.md 2.A/2.B): row kernels, uniqueness/refint, profiles, FD/completeness/quantile bounds, inference, drift.

Split from the single-file catalog (round 4, VERDICT item 6): shared
read/schema helpers live in ``vald.queries._shared``; the QUERIES /
ORACLE_SQL registries in ``vald.queries.registry`` are asserted
identical to the pre-split snapshot by tests/test_registry_split.py.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ._shared import _empty, _ensure_schema, _mkt_keys_ds, _read



# ---------------------------------------------------------------------------
# A2 required — per-column null count via partial aggregation
# ---------------------------------------------------------------------------


def q_required_nulls(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"nulls": [t["o_custkey"].null_count]})

    total = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("nulls", alias_name="n_null")
    )
    return pa.table({"n_null": pa.array([total["n_null"] or 0], type=pa.int64())})



# ---------------------------------------------------------------------------
# A3 enum — violation rows
# ---------------------------------------------------------------------------

_ENUM_RF = ("A", "N", "R")



def q_enum_violations(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag"])
    bad = ds.map_batches(
        lambda t: t.filter(
            pc.invert(
                pc.is_in(t["l_returnflag"], value_set=pa.array(list(_ENUM_RF)))
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _ensure_schema(
        bad,
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_linenumber", pa.int32()), ("l_returnflag", pa.string())]
        ),
    )



def q_enum_counts(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_returnflag"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by("l_returnflag", use_threads=False).aggregate([("l_returnflag", "count")])
        return agg.rename_columns(["l_returnflag", "n"])

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_returnflag")
        .aggregate(Sum("n", alias_name="n"))
    )
    return _ensure_schema(out, pa.schema([("l_returnflag", pa.string()), ("n", pa.int64())]))



# ---------------------------------------------------------------------------
# A4 pattern
# ---------------------------------------------------------------------------


def q_pattern(sf_dir: str):
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    bad = ds.map_batches(
        lambda t: t.filter(
            pc.invert(pc.match_substring_regex(t["c_name"], "^Customer#[0-9]+$"))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _ensure_schema(bad, pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]))



# ---------------------------------------------------------------------------
# A5 range
# ---------------------------------------------------------------------------


def q_range(sf_dir: str):
    import pyarrow.dataset as pads

    # B1 predicate pushdown: the range violation predicate runs in the
    # parquet fragment scanner — row-group min/max stats on l_discount
    # skip clean row groups without decoding them (null discounts fail
    # both comparisons on both engines, so nulls never surface).
    bad = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_discount"],
        filter=(pads.field("l_discount") < 0.0) | (pads.field("l_discount") > 0.1),
    )
    return _ensure_schema(
        bad,
        pa.schema(
            [("l_orderkey", pa.int64()), ("l_linenumber", pa.int32()), ("l_discount", pa.float64())]
        ),
    )



# ---------------------------------------------------------------------------
# A6 string length
# ---------------------------------------------------------------------------


def q_strlen(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def short(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(t["text"])
        t = t.append_column("text_len", pc.cast(ln, pa.int64()))
        return t.filter(pc.less(ln, pa.scalar(100))).select(["doc_id", "text_len"])

    return _ensure_schema(
        ds.map_batches(short, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("doc_id", pa.int64()), ("text_len", pa.int64())]),
    )



# ---------------------------------------------------------------------------
# A7 list bounds
# ---------------------------------------------------------------------------


def q_list_bounds(sf_dir: str):
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def badlen(t: pa.Table) -> pa.Table:
        ln = pc.cast(pc.list_value_length(t["embedding"]), pa.int64())
        t2 = pa.table({"vec_id": t["vec_id"], "emb_len": ln})
        return t2.filter(pc.not_equal(ln, pa.scalar(64)))

    return _ensure_schema(
        ds.map_batches(badlen, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("vec_id", pa.int64()), ("emb_len", pa.int64())]),
    )



# ---------------------------------------------------------------------------
# B4 uniqueness — pre-aggregated groupby (no full-row shuffle)
# ---------------------------------------------------------------------------


def q_unique_key(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by("o_orderkey", use_threads=False).aggregate([("o_orderkey", "count")])
        return agg.rename_columns(["o_orderkey", "cnt"])

    from ..runtime import bucketed_group_agg

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "o_orderkey",
        [("cnt", "sum")],
    )
    dups = counts.map_batches(
        lambda t: t.filter(pc.greater(t["cnt"], pa.scalar(1))), batch_format="pyarrow"
    )
    return _ensure_schema(dups, pa.schema([("o_orderkey", pa.int64()), ("cnt", pa.int64())]))



# ---------------------------------------------------------------------------
# B5 referential integrity — broadcast anti-semi-join (dimension is small)
# ---------------------------------------------------------------------------


def q_ref_integrity(sf_dir: str):
    # anti membership via the shared B5 switch (broadcast pc.is_in
    # under max_broadcast_keys — distinct keys computed distributed —
    # native left_anti join above it; the engine-internal path in
    # vald.pipeline.validate applies the same rule). NULL child keys
    # are a `required` matter, not an orphan: filtered out up front.
    from ..runtime import broadcast_or_semijoin

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.filter(pc.is_valid(t["o_custkey"])),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    bad = broadcast_or_semijoin(
        ds,
        "o_custkey",
        _read(sf_dir, "customer", ["c_custkey"]),
        keys_on="c_custkey",
        anti=True,
    )
    return _ensure_schema(bad, pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]))



# ---------------------------------------------------------------------------
# B6 exact profile
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Functional-dependency check (ops/stats.fd_groups_ds + the spec-level
# `kind: fd` in validate): determinants mapping to >= 2 distinct
# dependents. Here: which parts ship from more than one supplier —
# l_partkey -/-> l_suppkey violators with their distinct-supplier and
# row counts. One exchange of locally-distinct pairs bucketed on the
# determinant; see the op docstring for the 100-TB shape.
# ---------------------------------------------------------------------------


def q_fd_violations(sf_dir: str):
    from ..ops.stats import fd_groups_ds

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    out = fd_groups_ds(li, "l_partkey", "l_suppkey")
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("n_dep", pa.int64()),
                ("n_rows", pa.int64()),
            ]
        ),
    )



# ---------------------------------------------------------------------------
# Constraint inference (vald/infer.py): profile -> suggested spec. The
# driver-checkable face is the per-column evidence report — exact
# n/null/bounds/length stats plus the capped distinct (enum) set — on a
# 4-column orders slice; the oracle rebuilds every rule in SQL. The
# spec-emitting half (infer_table_spec) is pinned by the metamorphic
# self-consistency test (validate(ds, infer(ds)) == clean).
# ---------------------------------------------------------------------------


def q_infer_spec(sf_dir: str):
    import math

    from ..infer import infer_report

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderpriority"]
    rep = infer_report(_read(sf_dir, "orders", cols), cols, max_enum=16)
    out: dict[str, list] = {k: [] for k in (
        "col", "n", "n_null", "required", "num_min", "num_max",
        "len_min", "len_max", "enum_csv",
    )}
    for i in range(len(rep)):
        n = rep["n"][i].as_py()
        nn = rep["n_null"][i].as_py()
        out["col"].append(rep["column"][i].as_py())
        out["n"].append(n)
        out["n_null"].append(nn)
        out["required"].append(n > 0 and nn == 0)
        for side in ("num_min", "num_max"):
            v = rep[side][i].as_py()
            out[side].append(None if v is None or math.isnan(v) else round(v, 6))
        for side in ("len_min", "len_max"):
            v = rep[side][i].as_py()
            out[side].append(None if v is None or v < 0 else v)
        ev = rep["enum_vals"][i].as_py()
        out["enum_csv"].append(",".join(ev) if ev else None)
    return pa.table(
        {
            "col": pa.array(out["col"], type=pa.string()),
            "n": pa.array(out["n"], type=pa.int64()),
            "n_null": pa.array(out["n_null"], type=pa.int64()),
            "required": pa.array(out["required"], type=pa.bool_()),
            "num_min": pa.array(out["num_min"], type=pa.float64()),
            "num_max": pa.array(out["num_max"], type=pa.float64()),
            "len_min": pa.array(out["len_min"], type=pa.int64()),
            "len_max": pa.array(out["len_max"], type=pa.int64()),
            "enum_csv": pa.array(out["enum_csv"], type=pa.string()),
        }
    )



def q_quantile_bounds(sf_dir: str):
    """Spec-level empirical-outlier screen through validate(): rows of
    lineitem outside the exact [P(0.01), P(0.99)] price quantiles."""
    from .. import pipeline as P
    from ..ir import compile_table_spec

    spec = compile_table_spec(
        {
            "table": "lineitem",
            "columns": {},
            "checks": [
                {
                    "kind": "quantile_bounds",
                    "column": "l_extendedprice",
                    "lower_q": 0.01,
                    "upper_q": 0.99,
                }
            ],
        }
    )
    res = P.validate(
        _read(sf_dir, "lineitem", ["l_extendedprice"]), spec
    )
    v = res.verdicts_table()
    return pa.table(
        {
            "n_checked": pa.array(
                [int(pc.sum(v["n_checked"]).as_py() or 0)], type=pa.int64()
            ),
            "n_out": pa.array(
                [int(pc.sum(v["n_violations"]).as_py() or 0)], type=pa.int64()
            ),
        }
    )



def q_completeness(sf_dir: str):
    """Spec-level completeness (null-rate threshold) check driven
    end-to-end through validate(): the oracle mirrors the check's
    semantics — null counts surface as violations ONLY when the global
    rate breaches the threshold (testdata is null-free, so this also
    pins the non-firing path's zero totals)."""
    from .. import pipeline as P
    from ..ir import compile_table_spec

    spec = compile_table_spec(
        {
            "table": "orders",
            "columns": {},
            "checks": [
                {
                    "kind": "completeness",
                    "column": "o_custkey",
                    "max_null_rate": 1e-4,
                }
            ],
        }
    )
    res = P.validate(_read(sf_dir, "orders", ["o_custkey"]), spec)
    v = res.verdicts_table()
    n = int(pc.sum(v["n_checked"]).as_py() or 0)
    flagged = int(pc.sum(v["n_violations"]).as_py() or 0)
    firing = not all(v["pass"].to_pylist())
    return pa.table(
        {
            "col": pa.array(["o_custkey"], type=pa.string()),
            "n": pa.array([n], type=pa.int64()),
            "n_null_flagged": pa.array([flagged], type=pa.int64()),
            "firing": pa.array([firing], type=pa.bool_()),
        }
    )



def q_spec_diff(sf_dir: str):
    """Rows-only (spec dicts aren't SQL): contract drift between the
    inferred spec of the full documents table and of its short-docs
    slice — exercises infer_table_spec + diff_specs end-to-end."""
    from ..infer import diff_specs, infer_table_spec

    full = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])
    short = full.filter(expr="n_chars < 500")
    return diff_specs(
        infer_table_spec(full, "documents"),
        infer_table_spec(short, "documents"),
    )



def q_profile_exact(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_quantity"])
    res = ds.aggregate(
        Count(alias_name="n"),
        Count("l_quantity", ignore_nulls=True, alias_name="n_nonnull"),
        Min("l_quantity", alias_name="min_q"),
        Max("l_quantity", alias_name="max_q"),
        Mean("l_quantity", alias_name="avg_q"),
    )
    n_distinct = len(ds.unique("l_quantity"))
    return pa.table(
        {
            "n": pa.array([res["n"]], type=pa.int64()),
            "n_null": pa.array([res["n"] - res["n_nonnull"]], type=pa.int64()),
            "min_q": pa.array([round(res["min_q"], 6)], type=pa.float64()),
            "max_q": pa.array([round(res["max_q"], 6)], type=pa.float64()),
            "avg_q": pa.array([round(res["avg_q"], 6)], type=pa.float64()),
            "n_distinct": pa.array([n_distinct], type=pa.int64()),
        }
    )



def q_quantiles_exact(sf_dir: str):
    """Exact quantile_cont via histogram-narrowing selection
    (aggregates.exact_quantiles) — no sort, no O(n) reduce
    materialization (Ray's Quantile aggregate holds every value
    through the merge)."""
    from ..aggregates import exact_quantiles

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    res = exact_quantiles(ds, "l_extendedprice", [0.5, 0.9])
    return pa.table(
        {
            "median_price": pa.array([round(res[0.5], 6)], type=pa.float64()),
            "p90_price": pa.array([round(res[0.9], 6)], type=pa.float64()),
        }
    )



# ---------------------------------------------------------------------------
# A1 dynamic / B15 json — parse events.props per row (batched)
# ---------------------------------------------------------------------------


def _json_int(k) -> int | None:
    """Integer-or-None extraction mirroring the oracle's json_type CASE
    exactly (ADVICE r1): ints pass, integral floats pass, digit-strings
    pass, everything else (bools, non-integral floats, other strings)
    is NULL."""
    if isinstance(k, bool):
        return None
    if isinstance(k, int):
        return k
    if isinstance(k, float):
        return int(k) if k.is_integer() else None
    if isinstance(k, str):
        import re as _re

        return int(k) if _re.fullmatch(r"-?[0-9]+", k) else None
    return None



def q_json_props(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        ks = []
        for v in t["props"].to_pylist():
            if v is None:
                ks.append(None)
                continue
            try:
                ks.append(_json_int(json.loads(v).get("k")))
            except (json.JSONDecodeError, TypeError, ValueError):
                ks.append(None)
        out = pa.table({"event_id": t["event_id"], "k": pa.array(ks, type=pa.int64())})
        return out.filter(pc.greater_equal(out["k"], pa.scalar(90)))

    return _ensure_schema(
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("event_id", pa.int64()), ("k", pa.int64())]),
    )



# ---------------------------------------------------------------------------
# A12 dependencies — cross-field consistency
# ---------------------------------------------------------------------------


def q_dependencies(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    bad = ds.map_batches(
        lambda t: t.filter(
            pc.not_equal(pc.cast(pc.utf8_length(t["text"]), pa.int64()), t["n_chars"])
        ).select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _ensure_schema(bad, pa.schema([("doc_id", pa.int64())]))



# ---------------------------------------------------------------------------
# B3 content hash — the per-row invariant, oracle-checked via DuckDB sha256
# ---------------------------------------------------------------------------


def q_content_sha(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def sha(t: pa.Table) -> pa.Table:
        from ..hashing import sha256_hex_column

        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text_sha": pa.array(sha256_hex_column(t["text"]), type=pa.string()),
            }
        )

    return _ensure_schema(
        ds.map_batches(sha, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("doc_id", pa.int64()), ("text_sha", pa.string())]),
    )



# ---------------------------------------------------------------------------
# A8 uniqueItems — per-row element uniqueness, kernel + vectorized
# distinct-count twin (oracle: list_distinct)
# ---------------------------------------------------------------------------


def q_unique_items(sf_dir: str):
    # Latent-divergence notes (self-audit): element equality is exact
    # binary float comparison on BOTH sides; NaN elements would diverge
    # (pyarrow group_by unifies NaNs, DuckDB list_distinct keeps one
    # NaN too, but NaN != NaN in joins) — current testdata has none.
    # NULL handling (ADVICE r2): NULL embedding rows emit NULL
    # n_distinct / is_unique (= the oracle's len(list_distinct(NULL)));
    # NULL *elements* are dropped before the distinct count, matching
    # DuckDB list_distinct. Residual: is_unique for a list with exactly
    # one NULL element — kernel set() counts None as a value (draft-03
    # semantics) while list_distinct drops it; testdata has none.
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def per_batch(t: pa.Table) -> pa.Table:
        from ..kernels import eval_kernel

        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        ok = eval_kernel("uniqueItems", emb, {})
        # vectorized n_distinct per row: flatten + (row, value) group_by;
        # fill_null(0) keeps np.repeat sane on NULL rows (flatten skips
        # them, so row indices stay aligned with the value stream)
        row_valid = np.asarray(
            pc.is_valid(emb).to_numpy(zero_copy_only=False), dtype=bool
        )
        lens = np.asarray(
            pc.fill_null(pc.list_value_length(emb), 0).to_numpy(
                zero_copy_only=False
            ),
            dtype=np.int64,
        )
        rows = np.repeat(np.arange(len(t), dtype=np.int64), lens)
        flat = emb.flatten()
        elem_valid = np.asarray(
            pc.is_valid(flat).to_numpy(zero_copy_only=False), dtype=bool
        )
        if not elem_valid.all():
            rows = rows[elem_valid]
            flat = flat.filter(pa.array(elem_valid))
        distinct = (
            pa.table({"r": pa.array(rows), "v": flat})
            .group_by(["r", "v"], use_threads=False)
            .aggregate([])
        )
        nd = np.zeros(len(t), dtype=np.int64)
        np.add.at(nd, distinct["r"].to_numpy(zero_copy_only=False), 1)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "n_distinct": pa.array(nd, mask=~row_valid),
                "is_unique": pa.array(ok, mask=~row_valid),
            }
        )

    return _ensure_schema(
        ds.map_batches(per_batch, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema(
            [("vec_id", pa.int64()), ("n_distinct", pa.int64()), ("is_unique", pa.bool_())]
        ),
    )



# ---------------------------------------------------------------------------
# A9 divisibleBy — kernel-evaluated, violations (oracle: % <> 0)
# ---------------------------------------------------------------------------


def q_divisible(sf_dir: str):
    # Latent-divergence note (self-audit): the kernel uses a 1e-9
    # tolerance on value/7 (JSON-float semantics) while SQL % is exact;
    # they agree on integral l_quantity (all current testdata) and
    # could differ on non-integral multiples at the tolerance edge.
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])

    def bad(t: pa.Table) -> pa.Table:
        from ..kernels import eval_kernel

        ok = eval_kernel("divisibleBy", t["l_quantity"], {"value": 7})
        return t.filter(pa.array(~ok))

    return _ensure_schema(
        ds.map_batches(bad, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_linenumber", pa.int32()),
                ("l_quantity", pa.float64()),
            ]
        ),
    )



# ---------------------------------------------------------------------------
# A10 struct paths — dotted-path column access through a struct column
# (built in-flight: testdata has no struct columns), kernel minimum
# ---------------------------------------------------------------------------


def q_struct_path(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def bad(t: pa.Table) -> pa.Table:
        from ..kernels import eval_kernel, get_column

        lang = t["lang"]
        nchars = t["n_chars"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        if isinstance(nchars, pa.ChunkedArray):
            nchars = nchars.combine_chunks()
        meta = pa.StructArray.from_arrays([lang, nchars], names=["lang", "n_chars"])
        t2 = pa.table({"doc_id": t["doc_id"], "meta": meta})
        col = get_column(t2, "meta.n_chars")  # A10 dotted-path resolution
        ok = eval_kernel("minimum", col, {"value": 200})
        out = pa.table({"doc_id": t2["doc_id"], "n_chars": col})
        return out.filter(pa.array(~ok))

    return _ensure_schema(
        ds.map_batches(bad, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())]),
    )



# ---------------------------------------------------------------------------
# A13 disallow / A14 oneOf — dynamic-path combinators over the JSON
# props column (k_json_schema → vald.jsonschema), SQL CASE oracles
# ---------------------------------------------------------------------------

_SCHEMA_NOT = {
    "type": "object",
    "properties": {"k": {"disallow": [{"type": "integer", "minimum": 50}]}},
}


_SCHEMA_ONE_OF = {
    "type": "object",
    "oneOf": [
        {"properties": {"k": {"minimum": 50}}},
        {"properties": {"k": {"maximum": 80}}},
    ],
}



def _json_schema_violations(sf_dir: str, schema: dict):
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def bad(t: pa.Table) -> pa.Table:
        from ..kernels import eval_kernel

        ok = eval_kernel("jsonSchema", t["props"], {"schema": schema})
        return t.select(["event_id"]).filter(pa.array(~ok))

    return _ensure_schema(
        ds.map_batches(bad, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("event_id", pa.int64())]),
    )



def q_not(sf_dir: str):
    """A13 disallow: rows whose k is an integer >= 50 are violations."""
    return _json_schema_violations(sf_dir, _SCHEMA_NOT)



def q_one_of(sf_dir: str):
    """A14 oneOf: both branches match when 50 <= k <= 80 → violation."""
    return _json_schema_violations(sf_dir, _SCHEMA_ONE_OF)



def q_profile_sketch(sf_dir: str):
    from ..aggregates import profile

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    out = profile(ds, ["l_quantity", "l_extendedprice"], concurrency=(1, 2))
    return out.drop_columns(["tdigest", "hll"])



def q_drift_corpus(sf_dir: str):
    """Drift check null test + fire test in one result (rows-only)."""
    from .. import corpus as C
    from .. import drift as D
    from .. import pipeline as P

    n = 4000
    clean = C.corpus_dataset(n, 42, override_num_blocks=4)
    baseline = D.build_baseline(clean, numeric_cols=["content"], cat_cols=["lang"])
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
    res = P.validate(clean, spec)
    return res.verdicts_table()



def q_group_ks(sf_dir: str):
    """EXACT per-group two-sample KS (drift.group_ks_exact, the §5.3
    exact twin of the sketched group_drift): per-language n_chars
    distribution gap between even- and odd-doc_id halves — integer
    cumulative counts make the float statistic deterministic, so the
    DuckDB RANGE-window oracle value-hashes exactly."""
    from .. import drift as D

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def half(rem: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t["doc_id"]))
            return t.filter(
                pc.equal(
                    pc.bit_wise_and(t["doc_id"], pa.scalar(1)), pa.scalar(rem)
                )
            )

        return fn

    out = D.group_ks_exact(
        docs.map_batches(half(0), batch_format="pyarrow", zero_copy_batch=True),
        docs.map_batches(half(1), batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        "n_chars",
    ).map_batches(
        lambda t: pa.table(
            {
                "lang": t["group"],
                "n_a": t["n_a"],
                "n_b": t["n_b"],
                "ks": pc.round(t["ks"], ndigits=6),
            }
        ),
        batch_format="pyarrow",
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("lang", pa.string()),
                ("n_a", pa.int64()),
                ("n_b", pa.int64()),
                ("ks", pa.float64()),
            ]
        ),
    )


def q_group_drift(sf_dir: str):
    """Per-group (per-language) drift over documents.n_chars — null
    direction (even/odd doc_id halves share the distribution: no fire)
    plus the fire direction (a shifted copy of one language fires only
    that group). Rows-only: digest merge order is partition-dependent,
    so the KS/PSI floats aren't SQL-reproducible; row COUNT and the
    fired flags are deterministic."""
    from .. import drift as D

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    # null direction compares the corpus against ITS OWN baseline
    # (KS ~ digest error only) — per-language doc counts at small sf
    # are tens of rows, where any disjoint-halves split fires on
    # legitimate sampling noise (two-sample KS critical value at
    # n=30 is ~0.35); the statistical fire/null behavior at healthy n
    # is pinned by tests/test_group_drift.py
    base = D.build_group_baseline(docs, "lang", ["n_chars"])
    cur = docs
    null_side = D.group_drift_stats(cur, "lang", base, ["n_chars"]).to_pandas()
    null_side["direction"] = "null"

    def shift_en(t: pa.Table) -> pa.Table:
        is_en = pc.fill_null(pc.equal(t["lang"], pa.scalar("en")), False)
        bumped = pc.add(t["n_chars"], pa.scalar(10_000))
        return t.set_column(
            t.schema.get_field_index("n_chars"),
            "n_chars",
            pc.if_else(is_en, bumped, t["n_chars"]),
        )

    fire_side = D.group_drift_stats(
        cur.map_batches(shift_en, batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        base,
        ["n_chars"],
    ).to_pandas()
    fire_side["direction"] = "fire"
    out = pd.concat([null_side, fire_side], ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)



def q_media_decode(sf_dir: str):
    from ..ops.multimodal import decode_media, fake_media_dataset

    return decode_media(fake_media_dataset(200, kind="video"), concurrency=(1, 2))



# ---------------------------------------------------------------------------
# flagship corpus pipeline (rows-only check: no SQL oracle — the corpus
# is generated, not a driver table)
# ---------------------------------------------------------------------------

_CORPUS_N = 20000



def q_corpus_verdicts(sf_dir: str):
    from .. import corpus as C
    from .. import pipeline as P

    ds = C.corpus_dataset(_CORPUS_N, 42, override_num_blocks=16)
    res = P.validate(
        ds, C.CORPUS_SPEC, parents={"repos": C.repos_table(_CORPUS_N, 42)}
    )
    return res.verdicts_table()



def q_corpus_violations(sf_dir: str):
    from .. import corpus as C
    from .. import pipeline as P

    ds = C.corpus_dataset(_CORPUS_N, 42, override_num_blocks=16)
    res = P.validate(
        ds, C.CORPUS_SPEC, parents={"repos": C.repos_table(_CORPUS_N, 42)}
    )
    return res.violations_table()


# ---------------------------------------------------------------------------
# kind: monotonic — ordering invariant per key (ops/stats.py twin of
# constraints_dist.monotonic_check_results). Events carry a random
# `value`, so per-user backsteps are plentiful (the fire direction);
# the null direction is covered by tests/test_monotonic.py.
# ---------------------------------------------------------------------------


def q_monotonic(sf_dir: str):
    from ..ops.stats import monotonic_violations_ds

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = monotonic_violations_ds(ev, "user_id", ["ts", "event_id"], "value")
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_rows", pa.int64()),
                ("n_violations", pa.int64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# kind: reconcile — cross-table aggregate consistency (ops/stats.py
# twin of constraints_dist.reconcile_check_results). The synthetic
# orders.o_totalprice is NOT derived from lineitem (verified), so every
# joined order mismatches — the fire direction; the consistent-ledger
# null direction is covered by tests/test_reconcile.py.
# ---------------------------------------------------------------------------


def q_reconcile(sf_dir: str):
    from ..ops.stats import reconcile_ds

    out = reconcile_ds(
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
        _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"]),
        "o_orderkey",
        "o_totalprice",
        "l_orderkey",
        "l_extendedprice",
    )

    def partial(t: pa.Table) -> pa.Table:
        miss = pc.is_null(t["child_sum"]).to_numpy(zero_copy_only=False)
        bad = ~pc.fill_null(t["ok"], False).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_checked": pa.array([len(t)], pa.int64()),
                "n_mismatch": pa.array([int(bad.sum())], pa.int64()),
                "n_missing_child": pa.array([int(miss.sum())], pa.int64()),
            }
        )

    from ..runtime import collect_arrow

    parts = collect_arrow(out.map_batches(partial, batch_format="pyarrow"))
    if parts.num_columns == 0 or len(parts) == 0:
        return pa.table(
            {
                "n_checked": pa.array([0], pa.int64()),
                "n_mismatch": pa.array([0], pa.int64()),
                "n_missing_child": pa.array([0], pa.int64()),
            }
        )
    return pa.table(
        {
            "n_checked": pa.array([pc.sum(parts["n_checked"]).as_py() or 0], pa.int64()),
            "n_mismatch": pa.array([pc.sum(parts["n_mismatch"]).as_py() or 0], pa.int64()),
            "n_missing_child": pa.array(
                [pc.sum(parts["n_missing_child"]).as_py() or 0], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# kind: freshness — per-source staleness (ops/stats.py twin of
# constraints_dist.freshness_check_results). as_of pinned so the result
# is deterministic; at sf0.01 the 12.5-hour window splits the five
# event types 2 fresh / 3 stale (both directions exercised).
# ---------------------------------------------------------------------------

_FRESH_AS_OF = "2024-01-31T12:00:00"
_FRESH_MAX_AGE_S = 45_000


def q_freshness(sf_dir: str):
    from ..ops.stats import freshness_ds

    ev = _read(sf_dir, "events", ["event_type", "ts"])
    out = freshness_ds(ev, "ts", "event_type", _FRESH_AS_OF, _FRESH_MAX_AGE_S)
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("event_type", pa.string()),
                ("last_ts", pa.timestamp("us")),
                ("stale", pa.bool_()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# distinct-cardinality bounds (kind: cardinality twin): sources per
# language must stay >= 20 distinct (ops.stats.distinct_bounds_ds)
# ---------------------------------------------------------------------------


def q_cardinality(sf_dir: str):
    """Distinct sources per language with a lower bound of 20 —
    ops.stats.distinct_bounds_ds (the Deequ hasNumberOfDistinctValues
    shape; at sf0.01 en/es pass and de/fr/zh fail, so both verdict
    branches are exercised)."""
    from ..ops.stats import distinct_bounds_ds

    out = distinct_bounds_ds(
        _read(sf_dir, "documents", ["lang", "source"]),
        "source",
        "lang",
        min_distinct=20,
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("lang", pa.string()),
                ("n_distinct", pa.int64()),
                ("ok", pa.bool_()),
            ]
        ),
    )
