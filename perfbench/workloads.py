"""The four workloads: one operation each, its correctness check, and the
layer suite a traced run adds. Every call goes through vald's public API,
the way ``python -m vald run`` drives it."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from inputs import EXTRA_CHECKS, Catalog, Corpus
from session import STAGES, parse_stats

# Corpus sizes. The read uses Ray's default blocks (about one per MiB of
# Parquet), so the exchange fan-out grows with the corpus.
SMALL_CORPUS_ROWS = 2_000
ROWPASS_CORPUS_ROWS = 20_000
# Catalog tables at TPC-H row counts for this scale factor.
CATALOG_SF = 0.01
CATALOG_QUERIES = [
    "q_enum_counts",
    "q_profile_exact",
    "q_unique_key",
    "q_ref_integrity",
    "q_json_props",
    "q_dedup",
    "q_shipping_priority",
    "q_window_sliding",
    "q_fd_violations",
    "q_infer_spec",
    "q_revenue_by_nation",
    "q_sessions",
    "q_top_cust_per_nation",
    "q_monotonic",
    "q_reconcile",
    "q_cardinality",
]
LAYERS = ["sources", "ir", "hashing", "pipeline", "constraints_dist", "runtime", "queries"]
UNIQUE_CID = "corpus.key.unique"


def corpus_spec(kind: str) -> dict:
    from vald.corpus import CORPUS_SPEC

    checks = list(CORPUS_SPEC["checks"])
    if kind == "rowpass":
        checks = [c for c in checks if c["kind"] != "unique"]
    elif kind == "multicheck":
        checks = checks + EXTRA_CHECKS
    return {**CORPUS_SPEC, "checks": checks}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "corpus" or "catalog"
    spec_kind: str = ""
    n_rows: int = 0
    op_limit_s: float = 60.0


WORKLOADS = {
    w.name: w
    for w in [
        Workload("corpus_validate", "corpus", "validate", SMALL_CORPUS_ROWS),
        Workload("corpus_rowpass", "corpus", "rowpass", ROWPASS_CORPUS_ROWS),
        Workload("corpus_multicheck", "corpus", "multicheck", SMALL_CORPUS_ROWS, 90.0),
        Workload("catalog_sf01", "catalog", op_limit_s=120.0),
    ]
}


# --- operations ---------------------------------------------------------------


def corpus_op(corpus: Corpus, spec: dict, tr):
    """read_source -> compile -> validate -> verdicts + violations."""
    import ray.data

    from vald import ir, pipeline, sources

    with tr.span("sources.read_source", "sources"):
        ds = sources.read_source(corpus.files, format="parquet")
        parent = ray.data.read_parquet(corpus.repos_path)
    with tr.span("ir.compile_table_spec", "ir"):
        cs = ir.compile_table_spec(spec)
    with tr.span("pipeline.validate", "pipeline"):
        res = pipeline.validate(ds, cs, parents={"repos": parent})
    with tr.span("pipeline.fold", "pipeline"):
        verdicts = res.verdicts_table()
        violations = res.violations_table()
    return {"result": res, "verdicts": verdicts, "violations": violations}


def _to_pandas(out):
    import pandas as pd

    return out if isinstance(out, pd.DataFrame) else out.to_pandas()


def catalog_op(catalog: Catalog, tr):
    """One pass over CATALOG_QUERIES, each result brought into this process."""
    from vald.queries.registry import QUERIES

    frames = {}
    for q in CATALOG_QUERIES:
        with tr.span(f"queries.{q}", "queries"):
            frames[q] = _to_pandas(QUERIES[q](catalog.dir))
    return frames


# --- correctness --------------------------------------------------------------


def check_corpus(spec_kind: str, corpus: Corpus, out) -> str | None:
    """None when the outputs match the corpus truth (and, for multicheck,
    the DuckDB verdict totals of the extra kinds); else what differs."""
    extra = {c["constraint_id"] for c in EXTRA_CHECKS}
    v = out["violations"]
    got = set(zip(v["constraint_id"].to_pylist(), v["row_ref"].to_pylist()))
    expected = corpus.truth
    if spec_kind == "rowpass":
        expected = {p for p in expected if p[0] != UNIQUE_CID}
    base = {p for p in got if p[0] not in extra}
    if base != expected:
        return (
            f"violation set differs from truth: {len(expected - base)} missing, "
            f"{len(base - expected)} extra"
        )
    verdicts = out["verdicts"]
    if verdicts.num_rows == 0:
        return "no verdict rows"
    if spec_kind != "multicheck":
        return None
    cids = verdicts["constraint_id"].to_pylist()
    n_checked = verdicts["n_checked"].to_pylist()
    n_viol = verdicts["n_violations"].to_pylist()
    for cid, (ref_checked, ref_viol) in corpus.extra_totals.items():
        got_checked = sum(c for i, c in zip(cids, n_checked) if i == cid)
        got_viol = sum(c for i, c in zip(cids, n_viol) if i == cid)
        exemplars = sum(1 for p in got if p[0] == cid)
        if (got_checked, got_viol) != (ref_checked, ref_viol):
            return (
                f"{cid}: (n_checked, n_violations) = {(got_checked, got_viol)}, "
                f"DuckDB reference {(ref_checked, ref_viol)}"
            )
        if (exemplars > 0) != (ref_viol > 0):
            return f"{cid}: {exemplars} violation rows for {ref_viol} violations"
    return None


def check_catalog(catalog: Catalog, frames, canon) -> str | None:
    bad = []
    for q, df in frames.items():
        if (len(df), *canon(df)) != catalog.oracle[q]:
            bad.append(q)
    return f"results differ from ORACLE_SQL: {bad}" if bad else None


# --- layer suite (traced runs) -------------------------------------------------


def _median_rate(fn, units: float) -> float:
    """Median of units/second over 3 to 20 calls, repeated for 0.3 s."""
    rates, t_end = [], time.perf_counter() + 0.3
    while len(rates) < 3 or (time.perf_counter() < t_end and len(rates) < 20):
        t0 = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


def stage_metrics(stats_text: str) -> dict[str, float]:
    st = parse_stats(stats_text)
    m = {}
    for s in STAGES:
        m[f"stage.{s}.busy_s"] = st["busy"][s]
        m[f"stage.{s}.tasks"] = st["tasks"][s]
    m["pipeline.tasks"] = sum(st["tasks"].values())
    m["pipeline.input_scans"] = st["scans"]
    return m


def layer_suite(corpus: Corpus, catalog: Catalog, tr) -> dict:
    """Direct calls into each layer's public functions, each in a span."""
    import pyarrow.parquet as pq
    import ray.data

    from vald import constraints_dist, hashing, ir, pipeline, runtime, sources

    m: dict[str, float] = {}
    with tr.operation("layers"):
        with tr.span("sources.read_materialize", "sources") as s:
            mds = sources.read_source(corpus.files, format="parquet").materialize()
        m["sources.read_s"] = s.end - s.start
        m["sources.blocks"] = mds.num_blocks()
        del mds

        spec = corpus_spec("multicheck")
        with tr.span("ir.compile_table_spec", "ir"):
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                ir.compile_table_spec(spec)
                times.append(time.perf_counter() - t0)
        m["ir.compile_ms"] = statistics.median(times) * 1000

        batch = pq.ParquetFile(corpus.files[0]).read_row_group(0)
        content = batch["content"]
        mb = sum(len(x) for x in content.to_pylist() if x) / 1e6
        with tr.span("hashing.sha256_hex_column", "hashing"):
            m["hashing.sha256_mb_per_s"] = _median_rate(
                lambda: hashing.sha256_hex_column(content), mb
            )

        rowpass_cs = ir.compile_table_spec(corpus_spec("rowpass"))
        repos = set(pq.read_table(corpus.repos_path)["repo"].to_pylist())
        refint = {d.constraint_id: repos for d in rowpass_cs.dist_checks if d.kind == "refint"}
        with tr.span("pipeline.RowValidator", "pipeline"):
            validator = pipeline.RowValidator(cset=rowpass_cs, broadcast_refs=refint)
            m["pipeline.rowpass_rows_per_s"] = _median_rate(
                lambda: validator(batch), batch.num_rows
            )

        cs = ir.compile_table_spec(spec)
        for dist in cs.dist_checks:
            if dist.kind not in ("completeness", "cardinality", "fd"):
                continue
            fn = getattr(constraints_dist, f"{dist.kind}_check_results")
            with tr.span(f"constraints_dist.{dist.kind}", "constraints_dist") as s:
                ds = sources.read_source(corpus.files, format="parquet")
                fn(ds, cs, dist).materialize()
            m[f"constraints_dist.{dist.kind}_s"] = s.end - s.start

        lineitem = ray.data.read_parquet(f"{catalog.dir}/lineitem.parquet")
        with tr.span("runtime.bucketed_group_agg", "runtime") as s:
            runtime.bucketed_group_agg(
                lineitem, "l_orderkey", [("l_extendedprice", "sum")]
            ).materialize()
        m["runtime.bucketed_group_agg_s"] = s.end - s.start
        orders = ray.data.read_parquet(f"{catalog.dir}/orders.parquet")
        customer = ray.data.read_parquet(f"{catalog.dir}/customer.parquet")
        with tr.span("runtime.broadcast_or_semijoin", "runtime") as s:
            runtime.broadcast_or_semijoin(
                orders, "o_custkey", customer, keys_on="c_custkey", anti=True
            ).materialize()
        m["runtime.broadcast_or_semijoin_s"] = s.end - s.start
    return m


PER_LAYER = (
    [
        ("sources.read_s", "s"),
        ("sources.blocks", "count"),
        ("ir.compile_ms", "ms"),
        ("hashing.sha256_mb_per_s", "MB/s"),
        ("pipeline.rowpass_rows_per_s", "rows/s"),
        ("pipeline.fold_s", "s"),
        ("pipeline.input_scans", "count"),
        ("pipeline.tasks", "count"),
    ]
    + [(f"stage.{s}.{k}", u) for s in STAGES for k, u in (("busy_s", "s"), ("tasks", "count"))]
    + [(f"constraints_dist.{k}_s", "s") for k in ("completeness", "cardinality", "fd")]
    + [("runtime.bucketed_group_agg_s", "s"), ("runtime.broadcast_or_semijoin_s", "s")]
    + [(f"queries.{q}_s", "s") for q in CATALOG_QUERIES]
    + [(f"self.{layer}_s", "s") for layer in LAYERS]
    + [
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
