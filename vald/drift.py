"""Distribution-drift checks (SURVEY.md B9): per-partition KS / PSI vs
a frozen baseline profile.

Plan shape (no data shuffle — only sketch rows move):

1. per-batch partial sketches per (partition, column) — numeric columns
   (or string columns viewed as lengths) feed a t-digest; categorical
   columns feed a value-count dict (enum-ish cardinality assumed).
2. ``groupby(partition_id, column)`` merges partials into one sketch
   per partition-column.
3. a stateless map over the merged sketch rows computes, vs the
   actor-held baseline:
   - **KS** = max |CDF_part − CDF_base| on a merged t-digest quantile
     grid (numeric),
   - **PSI** (numeric) over 10 bins frozen at the BASELINE's deciles
     (so bins always align, FIXTURES.md §4),
   - **PSI** (categorical) over the baseline's value probabilities with
     ε-floored bins,
   and emits RESULT_SCHEMA rows: a violation when the statistic
   exceeds its threshold, plus per-partition verdict partials.

Baseline artifact (FIXTURES.md §4): Parquet rows
``(column, kind, n, payload, values_json)`` where payload is a
serialized t-digest and values_json holds categorical probabilities.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import pipeline as P
from .ir import ConstraintSet, DistCheck
from .sketches import TDigest, ks_statistic

__all__ = [
    "build_baseline",
    "save_baseline",
    "load_baseline",
    "drift_check_results",
    "psi_numeric",
    "psi_categorical",
    "build_group_baseline",
    "group_drift_stats",
    "group_drift_check_results",
    "group_ks_exact",
]

BASELINE_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("kind", pa.string()),  # "numeric" | "categorical"
        ("n", pa.int64()),
        ("payload", pa.binary()),  # serialized t-digest (numeric)
        ("values_json", pa.string()),  # {"value": prob} (categorical)
    ]
)

_EPS = 1e-6


def psi_numeric(part: TDigest, base: TDigest, nbins: int = 10) -> float:
    """PSI over bins frozen at the baseline's quantile edges: expected
    mass per bin is 1/nbins by construction; observed mass from the
    partition CDF evaluated at those edges."""
    if part.total_weight == 0 or base.total_weight == 0:
        return 0.0
    edges = [base.quantile(i / nbins) for i in range(1, nbins)]
    cdfs = [0.0] + [part.cdf(e) for e in edges] + [1.0]
    obs = np.clip(np.diff(cdfs), _EPS, None)
    exp = np.full(nbins, 1.0 / nbins)
    obs = obs / obs.sum()
    return float(np.sum((obs - exp) * np.log(obs / exp)))


def psi_categorical(part_counts: dict, base_probs: dict) -> float:
    total = sum(part_counts.values())
    if total == 0:
        return 0.0
    cats = set(part_counts) | set(base_probs)
    p = np.array([max(part_counts.get(c, 0) / total, _EPS) for c in sorted(cats)])
    q = np.array([max(base_probs.get(c, 0.0), _EPS) for c in sorted(cats)])
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


# ---------------------------------------------------------------------------
# partial / merge stages (shared by baseline build + drift check)
# ---------------------------------------------------------------------------

_SKETCH_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("column", pa.string()),
        ("kind", pa.string()),
        ("n", pa.int64()),
        ("payload", pa.binary()),
        ("values_json", pa.string()),
    ]
)


def _sketch_partials(
    numeric_cols: list[str], cat_cols: list[str], cs: ConstraintSet | None
):
    """Returns a map_batches fn emitting one sketch row per
    (partition, column) per batch."""
    from .aggregates import _numeric_view

    def fn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _SKETCH_SCHEMA.empty_table()
        pids = (
            P.build_partition_ids(t, cs)
            if cs is not None
            else np.zeros(len(t), dtype=np.int32)
        )
        rows = {f.name: [] for f in _SKETCH_SCHEMA}
        for pid in np.unique(pids):
            sub = t.filter(pa.array(pids == pid))
            for c in numeric_cols:
                nv = _numeric_view(sub[c])
                vals = nv[~np.isnan(nv)] if nv is not None else np.empty(0)
                rows["partition_id"].append(int(pid))
                rows["column"].append(c)
                rows["kind"].append("numeric")
                rows["n"].append(int(len(vals)))
                rows["payload"].append(TDigest().update(vals).serialize())
                rows["values_json"].append("")
            for c in cat_cols:
                vc = pc.value_counts(sub[c].drop_null())
                counts = {
                    str(x["values"]): int(x["counts"]) for x in vc.to_pylist()
                }
                rows["partition_id"].append(int(pid))
                rows["column"].append(c)
                rows["kind"].append("categorical")
                rows["n"].append(int(sum(counts.values())))
                rows["payload"].append(b"")
                rows["values_json"].append(json.dumps(counts, sort_keys=True))
        return pa.Table.from_arrays(
            [pa.array(rows[f.name], type=f.type) for f in _SKETCH_SCHEMA],
            schema=_SKETCH_SCHEMA,
        )

    return fn


def _merge_sketch_group(g: pa.Table) -> pa.Table:
    kind = g["kind"][0].as_py()
    n = int(pc.sum(g["n"]).as_py() or 0)
    if kind == "numeric":
        td = TDigest()
        for b in g["payload"].to_pylist():
            td.merge(TDigest.deserialize(b))
        payload, values_json = td.serialize(), ""
    else:
        counts: dict[str, int] = {}
        for s in g["values_json"].to_pylist():
            for k, v in json.loads(s or "{}").items():
                counts[k] = counts.get(k, 0) + v
        payload, values_json = b"", json.dumps(counts, sort_keys=True)
    return pa.Table.from_arrays(
        [
            pa.array([g["partition_id"][0].as_py()], type=pa.int32()),
            pa.array([g["column"][0].as_py()]),
            pa.array([kind]),
            pa.array([n], type=pa.int64()),
            pa.array([payload], type=pa.binary()),
            pa.array([values_json]),
        ],
        schema=_SKETCH_SCHEMA,
    )


def _merged_sketches(
    ds: "ray.data.Dataset",
    numeric_cols: list[str],
    cat_cols: list[str],
    cs: ConstraintSet | None,
) -> "ray.data.Dataset":
    partials = ds.map_batches(
        _sketch_partials(numeric_cols, cat_cols, cs),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partials.groupby(["partition_id", "column"]).map_groups(
        _merge_sketch_group, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# baseline build / io
# ---------------------------------------------------------------------------


def build_baseline(
    ds: "ray.data.Dataset", numeric_cols: list[str], cat_cols: list[str] | None = None
) -> pa.Table:
    """Whole-table baseline profile from a (clean) reference dataset."""
    merged = _merged_sketches(ds, numeric_cols, cat_cols or [], cs=None)
    t = pa.Table.from_pandas(merged.to_pandas(), preserve_index=False)
    out = {f.name: [] for f in BASELINE_SCHEMA}
    for i in range(len(t)):
        kind = t["kind"][i].as_py()
        out["column"].append(t["column"][i].as_py())
        out["kind"].append(kind)
        n = t["n"][i].as_py()
        out["n"].append(n)
        if kind == "numeric":
            out["payload"].append(t["payload"][i].as_py())
            out["values_json"].append("")
        else:
            counts = json.loads(t["values_json"][i].as_py() or "{}")
            probs = {k: v / n for k, v in counts.items()} if n else {}
            out["payload"].append(b"")
            out["values_json"].append(json.dumps(probs, sort_keys=True))
    return pa.Table.from_arrays(
        [pa.array(out[f.name], type=f.type) for f in BASELINE_SCHEMA],
        schema=BASELINE_SCHEMA,
    )


def save_baseline(baseline: pa.Table, path: str) -> None:
    import pyarrow.parquet as pq

    pq.write_table(baseline, path)


def load_baseline(path: str) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(path)


# ---------------------------------------------------------------------------
# drift check (plugs into pipeline.validate via constraints_dist)
# ---------------------------------------------------------------------------


class _DriftCompare:
    """Actor-held baseline (B7): loaded once per actor, compared against
    each merged partition sketch row."""

    def __init__(
        self,
        baseline_path: str | None,
        baseline_table: bytes | None,
        cid: str,
        ks_threshold: float,
        psi_threshold: float,
    ):
        if baseline_table is not None:
            import io

            import pyarrow.ipc as ipc

            t = ipc.open_stream(io.BytesIO(baseline_table)).read_all()
        else:
            t = load_baseline(baseline_path)
        self.base: dict[str, tuple[str, object]] = {}
        for i in range(len(t)):
            col = t["column"][i].as_py()
            kind = t["kind"][i].as_py()
            if kind == "numeric":
                self.base[col] = (kind, TDigest.deserialize(t["payload"][i].as_py()))
            else:
                self.base[col] = (kind, json.loads(t["values_json"][i].as_py() or "{}"))
        self.cid = cid
        self.ks_t = ks_threshold
        self.psi_t = psi_threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        # one count row per compared sketch row (even when n == 0), one
        # violation row per drifted one
        pids, cids, cols, ns, bads, observed = [], [], [], [], [], []
        for i in range(len(t)):
            col = t["column"][i].as_py()
            if col not in self.base:
                continue
            kind, base = self.base[col]
            if kind == "numeric":
                td = TDigest.deserialize(t["payload"][i].as_py())
                ks = ks_statistic(td, base)
                psi = psi_numeric(td, base)
                bad = ks > self.ks_t or psi > self.psi_t
                obs = f"ks={ks:.4f},psi={psi:.4f}"
            else:
                counts = json.loads(t["values_json"][i].as_py() or "{}")
                psi = psi_categorical(counts, base)
                bad = psi > self.psi_t
                obs = f"psi={psi:.4f}"
            pids.append(t["partition_id"][i].as_py())
            cids.append(f"{self.cid}.{col}")
            ns.append(int(t["n"][i].as_py()))
            bads.append(bool(bad))
            cols.append(col)
            observed.append(obs)
        k = [j for j, b in enumerate(bads) if b]
        return P.result_table(
            [
                P.result_cols(
                    len(pids),
                    partition_id=pids,
                    constraint_id=cids,
                    n_checked=ns,
                    n_violations=[int(b) for b in bads],
                ),
                P.result_cols(
                    len(k),
                    partition_id=[pids[j] for j in k],
                    constraint_id=[cids[j] for j in k],
                    row_ref=[f"partition={pids[j]}" for j in k],
                    column=[cols[j] for j in k],
                    observed=[observed[j] for j in k],
                    detail="drift",
                    is_violation=True,
                ),
            ]
        )


# ---------------------------------------------------------------------------
# per-GROUP drift (VERDICT r3 item 5): the per-language / per-domain
# distribution-shift check a training pipeline actually runs. Same
# sketch algebra as B9, but the scope key is a data column (lang,
# domain, source) instead of the partition hash: per-batch t-digest /
# value-count partials per (group, column), merged per group, KS/PSI
# vs a per-group baseline. Exchange volume is one ~delta-centroid
# summary per (group, batch) — raw values never move; group count is
# guarded by max_groups (same rule as ops.stats.group_zscore).
# ---------------------------------------------------------------------------

GROUP_BASELINE_SCHEMA = pa.schema(
    [
        ("group", pa.string()),
        ("column", pa.string()),
        ("kind", pa.string()),  # "numeric" | "categorical"
        ("n", pa.int64()),
        ("payload", pa.binary()),
        ("values_json", pa.string()),
    ]
)

_GROUP_SKETCH_SCHEMA = GROUP_BASELINE_SCHEMA  # partials share the layout

DEFAULT_MAX_GROUPS = 100_000


def _group_sketch_partials(
    group_col: str, numeric_cols: list[str], cat_cols: list[str]
):
    """One sketch row per (group, column) per batch. The Python loop is
    over GROUPS (bounded: languages/domains), never rows — values enter
    each digest as one vectorized update. NULL group rows are skipped
    (unchecked), matching grouped-op policy elsewhere."""
    import pandas as pd

    from .aggregates import _numeric_view

    def fn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _GROUP_SKETCH_SCHEMA.empty_table()
        g = pc.cast(t[group_col], pa.string()).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(g, use_na_sentinel=True)
        rows = {f.name: [] for f in _GROUP_SKETCH_SCHEMA}
        masks = [codes == gi for gi in range(len(uniq))]
        for c in numeric_cols:
            nv = _numeric_view(t[c])
            for gi, gval in enumerate(uniq):
                vals = (
                    np.empty(0) if nv is None else nv[masks[gi]]
                )
                vals = vals[~np.isnan(vals)] if len(vals) else vals
                rows["group"].append(str(gval))
                rows["column"].append(c)
                rows["kind"].append("numeric")
                rows["n"].append(int(len(vals)))
                rows["payload"].append(TDigest().update(vals).serialize())
                rows["values_json"].append("")
        for c in cat_cols:
            for gi, gval in enumerate(uniq):
                vc = pc.value_counts(t[c].filter(pa.array(masks[gi])).drop_null())
                counts = {str(x["values"]): int(x["counts"]) for x in vc.to_pylist()}
                rows["group"].append(str(gval))
                rows["column"].append(c)
                rows["kind"].append("categorical")
                rows["n"].append(int(sum(counts.values())))
                rows["payload"].append(b"")
                rows["values_json"].append(json.dumps(counts, sort_keys=True))
        return pa.Table.from_arrays(
            [pa.array(rows[f.name], type=f.type) for f in _GROUP_SKETCH_SCHEMA],
            schema=_GROUP_SKETCH_SCHEMA,
        )

    return fn


def _merge_group_sketch(g: pa.Table) -> pa.Table:
    kind = g["kind"][0].as_py()
    n = int(pc.sum(g["n"]).as_py() or 0)
    if kind == "numeric":
        td = TDigest()
        for b in g["payload"].to_pylist():
            td.merge(TDigest.deserialize(b))
        payload, values_json = td.serialize(), ""
    else:
        counts: dict[str, int] = {}
        for s in g["values_json"].to_pylist():
            for k, v in json.loads(s or "{}").items():
                counts[k] = counts.get(k, 0) + v
        payload, values_json = b"", json.dumps(counts, sort_keys=True)
    return pa.Table.from_arrays(
        [
            pa.array([g["group"][0].as_py()]),
            pa.array([g["column"][0].as_py()]),
            pa.array([kind]),
            pa.array([n], type=pa.int64()),
            pa.array([payload], type=pa.binary()),
            pa.array([values_json]),
        ],
        schema=_GROUP_SKETCH_SCHEMA,
    )


def _merged_group_sketches(
    ds: "ray.data.Dataset",
    group_col: str,
    numeric_cols: list[str],
    cat_cols: list[str],
) -> "ray.data.Dataset":
    cols = list(dict.fromkeys([group_col] + numeric_cols + cat_cols))
    partials = ds.map_batches(
        lambda t, c=cols: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(
        _group_sketch_partials(group_col, numeric_cols, cat_cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partials.groupby(["group", "column"]).map_groups(
        _merge_group_sketch, batch_format="pyarrow"
    )


def build_group_baseline(
    ds: "ray.data.Dataset",
    group_col: str,
    numeric_cols: list[str],
    cat_cols: list[str] | None = None,
    *,
    max_groups: int = DEFAULT_MAX_GROUPS,
) -> pa.Table:
    """Per-group baseline profile from a (clean) reference dataset —
    rows (group, column, kind, n, payload=t-digest, values_json=probs).
    Save/load with save_baseline/load_baseline (plain parquet)."""
    merged = _merged_group_sketches(ds, group_col, numeric_cols, cat_cols or [])
    t = pa.Table.from_pandas(merged.to_pandas(), preserve_index=False)
    if len(t) > max_groups * max(1, len(numeric_cols) + len(cat_cols or [])):
        raise ValueError(
            f"group baseline: {len(t)} (group, column) rows exceeds "
            f"max_groups={max_groups}; a group key this wide should be "
            "profiled per partition (kind: drift), not per group"
        )
    out = {f.name: [] for f in GROUP_BASELINE_SCHEMA}
    for i in range(len(t)):
        kind = t["kind"][i].as_py()
        n = t["n"][i].as_py()
        out["group"].append(t["group"][i].as_py())
        out["column"].append(t["column"][i].as_py())
        out["kind"].append(kind)
        out["n"].append(n)
        if kind == "numeric":
            out["payload"].append(t["payload"][i].as_py())
            out["values_json"].append("")
        else:
            counts = json.loads(t["values_json"][i].as_py() or "{}")
            probs = {k: v / n for k, v in counts.items()} if n else {}
            out["payload"].append(b"")
            out["values_json"].append(json.dumps(probs, sort_keys=True))
    return pa.Table.from_arrays(
        [pa.array(out[f.name], type=f.type) for f in GROUP_BASELINE_SCHEMA],
        schema=GROUP_BASELINE_SCHEMA,
    )


def _group_baseline_index(t: pa.Table) -> dict:
    base: dict[tuple[str, str], tuple[str, object]] = {}
    for i in range(len(t)):
        key = (t["group"][i].as_py(), t["column"][i].as_py())
        kind = t["kind"][i].as_py()
        if kind == "numeric":
            base[key] = (kind, TDigest.deserialize(t["payload"][i].as_py()))
        else:
            base[key] = (kind, json.loads(t["values_json"][i].as_py() or "{}"))
    return base


GROUP_DRIFT_STATS_SCHEMA = pa.schema(
    [
        ("group", pa.string()),
        ("column", pa.string()),
        ("kind", pa.string()),
        ("n", pa.int64()),
        ("ks", pa.float64()),
        ("psi", pa.float64()),
        ("fired", pa.bool_()),
    ]
)


def group_drift_stats(
    ds: "ray.data.Dataset",
    group_col: str,
    baseline: "pa.Table | str",
    numeric_cols: list[str],
    cat_cols: list[str] | None = None,
    *,
    ks_threshold: float = 0.15,
    psi_threshold: float = 0.25,
) -> "ray.data.Dataset":
    """Standalone per-group drift op: one (group, column) row with the
    KS / PSI statistics vs the per-group baseline and the fired flag.
    Groups absent from the baseline fire with ks=psi=inf (a NEW
    language/domain appearing IS distribution shift)."""
    if isinstance(baseline, str):
        baseline = load_baseline(baseline)
    base_ref = ray.put(baseline)
    kst, psit = float(ks_threshold), float(psi_threshold)
    merged = _merged_group_sketches(ds, group_col, numeric_cols, cat_cols or [])

    def compare(t: pa.Table) -> pa.Table:
        base = _group_baseline_index(ray.get(base_ref))
        rows = {f.name: [] for f in GROUP_DRIFT_STATS_SCHEMA}
        for i in range(len(t)):
            gval = t["group"][i].as_py()
            col = t["column"][i].as_py()
            kind = t["kind"][i].as_py()
            n = int(t["n"][i].as_py() or 0)
            hit = base.get((gval, col))
            if hit is None:
                ks = psi = float("inf")
                fired = True
            elif kind == "numeric":
                td = TDigest.deserialize(t["payload"][i].as_py())
                ks = ks_statistic(td, hit[1])
                psi = psi_numeric(td, hit[1])
                fired = ks > kst or psi > psit
            else:
                counts = json.loads(t["values_json"][i].as_py() or "{}")
                ks = 0.0
                psi = psi_categorical(counts, hit[1])
                fired = psi > psit
            rows["group"].append(gval)
            rows["column"].append(col)
            rows["kind"].append(kind)
            rows["n"].append(n)
            rows["ks"].append(float(ks))
            rows["psi"].append(float(psi))
            rows["fired"].append(bool(fired))
        return pa.Table.from_arrays(
            [
                pa.array(rows[f.name], type=f.type)
                for f in GROUP_DRIFT_STATS_SCHEMA
            ],
            schema=GROUP_DRIFT_STATS_SCHEMA,
        )

    return merged.map_batches(compare, batch_format="pyarrow")


def group_ks_exact(
    ds_a: "ray.data.Dataset",
    ds_b: "ray.data.Dataset",
    group_col: str,
    val_col: str,
    *,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """EXACT two-sample Kolmogorov-Smirnov statistic per group — the
    §5.3 exact twin of the t-digest ``group_drift_stats`` (sketches are
    never oracle-compared; this is). Returns one row per group present
    in either side: (group, n_a, n_b, ks).

    ks = max over distinct values v of |#{a <= v}/n_a − #{b <= v}/n_b|,
    evaluated from INTEGER cumulative counts, so the float result is a
    deterministic function of the counts and reproduces DuckDB's
    RANGE-window formulation bit-for-bit.

    Shape: both sides pre-aggregate per batch to (group, value,
    count_a, count_b) partials — the exchange is one row per distinct
    (group, value) per batch, never per input row — then one
    group-hash bucket shuffle; each group's distinct values land in ONE
    combine task (documented per-group-fits-a-task assumption, same as
    sessionize). NULL group or value rows are dropped on both sides."""
    from .ops.windows import _bucket_ids

    def flagged(col_a: int, col_b: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select([group_col, val_col])
            t = t.filter(
                pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[val_col]))
            )
            g = t.group_by([group_col, val_col], use_threads=False).aggregate(
                [([], "count_all")]
            )
            n = g.column(2)
            zero = pc.multiply(pc.cast(n, pa.int64()), pa.scalar(0, type=pa.int64()))
            return pa.table(
                {
                    "g": pc.cast(g[group_col], pa.string()),
                    "v": pc.cast(g[val_col], pa.float64()),
                    "ca": pc.cast(n, pa.int64()) if col_a else zero,
                    "cb": pc.cast(n, pa.int64()) if col_b else zero,
                }
            )

        return fn

    stacked = ds_a.map_batches(
        flagged(1, 0), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        ds_b.map_batches(flagged(0, 1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def bucketize(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(_bucket_ids(t["g"], num_buckets))
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "group": pa.array([], type=pa.string()),
                "n_a": pa.array([], type=pa.int64()),
                "n_b": pa.array([], type=pa.int64()),
                "ks": pa.array([], type=pa.float64()),
            }
        )
        if len(t) == 0:
            return empty
        t = (
            t.drop_columns(["__bucket"])
            .group_by(["g", "v"], use_threads=False)
            .aggregate([("ca", "sum"), ("cb", "sum")])
        )
        order = pc.sort_indices(
            t, sort_keys=[("g", "ascending"), ("v", "ascending")]
        )
        t = t.take(order)
        n = len(t)
        gcol = t["g"].combine_chunks()
        ca = t["ca_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = t["cb_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.empty(n, dtype=bool)
        new[0] = True
        if n > 1:
            ga = gcol.to_numpy(zero_copy_only=False)
            new[1:] = ga[1:] != ga[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        cum_a = np.cumsum(ca)
        cum_b = np.cumsum(cb)
        base_a = cum_a[starts] - ca[starts]
        base_b = cum_b[starts] - cb[starts]
        cum_a = cum_a - base_a[seg]
        cum_b = cum_b - base_b[seg]
        ends = np.append(starts[1:], n) - 1
        n_a = cum_a[ends]
        n_b = cum_b[ends]
        # rows are distinct (group, value): every row is a CDF step
        fa = np.where(n_a[seg] > 0, cum_a / np.maximum(n_a[seg], 1), 0.0)
        fb = np.where(n_b[seg] > 0, cum_b / np.maximum(n_b[seg], 1), 0.0)
        ks = np.maximum.reduceat(np.abs(fa - fb), starts)
        return pa.table(
            {
                "group": gcol.take(pa.array(starts, type=pa.int64())),
                "n_a": pa.array(n_a, type=pa.int64()),
                "n_b": pa.array(n_b, type=pa.int64()),
                "ks": pa.array(ks, type=pa.float64()),
            }
        )

    return (
        stacked.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def group_drift_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """``kind: group_drift`` entry called from pipeline.validate.

    params: group_by (the scope column), columns (numeric),
    cat_columns, baseline (path) OR baseline_table (pa.Table),
    ks_threshold, psi_threshold. Verdict rows attribute to
    partition_id = hash(group) % num_partitions so per-group outcomes
    stay deterministic across parallelism levels; the group itself is
    recorded in row_ref/observed."""
    from .hashing import partition_ids as _pids

    bt = dist.params["baseline_table"]
    baseline = bt if bt is not None else load_baseline(dist.params["baseline"])
    stats = group_drift_stats(
        ds,
        dist.params["group_by"],
        baseline,
        dist.params["columns"],
        dist.params["cat_columns"],
        ks_threshold=float(dist.params["ks_threshold"]),
        psi_threshold=float(dist.params["psi_threshold"]),
    )
    cid = dist.constraint_id
    n_parts = cs.num_partitions

    def to_results(t: pa.Table) -> pa.Table:
        # one count row per (group, column) stat row (even when n == 0),
        # one violation row per fired one
        if len(t) == 0:
            return P.result_table([])
        pids = _pids(t["group"], n_parts).astype(np.int64).tolist()
        cids = [f"{cid}.{c}" for c in t["column"].to_pylist()]
        fired = [bool(f) for f in t["fired"].to_pylist()]
        k = [i for i, f in enumerate(fired) if f]
        groups, cols = t["group"].to_pylist(), t["column"].to_pylist()
        ks, psi = t["ks"].to_pylist(), t["psi"].to_pylist()
        return P.result_table(
            [
                P.result_cols(
                    len(t),
                    partition_id=pids,
                    constraint_id=cids,
                    n_checked=[int(n or 0) for n in t["n"].to_pylist()],
                    n_violations=[int(f) for f in fired],
                ),
                P.result_cols(
                    len(k),
                    partition_id=[pids[i] for i in k],
                    constraint_id=[cids[i] for i in k],
                    row_ref=[f"group={groups[i]}" for i in k],
                    column=[cols[i] for i in k],
                    observed=[f"ks={ks[i]:.4f},psi={psi[i]:.4f}" for i in k],
                    detail="group_drift",
                    is_violation=True,
                ),
            ]
        )

    return stats.map_batches(to_results, batch_format="pyarrow")


def drift_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """B9 entry called from pipeline.validate for ``kind: drift`` checks.

    params (defaults in ``ir.KINDS``): columns (numeric view),
    cat_columns, baseline (path) OR baseline_table (pa.Table),
    ks_threshold, psi_threshold."""
    numeric_cols = dist.params["columns"]
    cat_cols = dist.params["cat_columns"]
    merged = _merged_sketches(ds, numeric_cols, cat_cols, cs)

    baseline_path = dist.params["baseline"]
    baseline_bytes = None
    bt = dist.params["baseline_table"]
    if bt is not None:
        import io

        import pyarrow.ipc as ipc

        buf = io.BytesIO()
        with ipc.new_stream(buf, bt.schema) as w:
            w.write_table(bt)
        baseline_bytes = buf.getvalue()

    return merged.map_batches(
        _DriftCompare,
        fn_constructor_kwargs={
            "baseline_path": baseline_path,
            "baseline_table": baseline_bytes,
            "cid": dist.constraint_id,
            "ks_threshold": float(dist.params["ks_threshold"]),
            "psi_threshold": float(dist.params["psi_threshold"]),
        },
        batch_format="pyarrow",
        concurrency=(1, 2),
    )
