"""Per-group feature normalization (training-data op).

``group_zscore`` standardizes a numeric column within groups —
``z = (x - mean_g) / std_g`` — the classic feature-scaling step before
training, and the per-domain score normalization used when combining
quality signals across heterogeneous sources (a perplexity of 80 means
something different per language/domain).

Shape (100 TB): two streaming passes, no row shuffle. Pass 1 reduces
each batch to per-group moment partials (n, sum, sum of squares — the
Chan-mergeable moments, exact under any combination order up to IEEE
rounding) and combines them through ``bucketed_group_agg``; the
resulting per-group table is GROUPS-sized, collected on the driver
(``max_groups`` guards the bound explicitly) and broadcast once via
``ray.put``. Pass 2 stamps z per batch with one vectorized gather —
group labels are factorized against the broadcast table, so the hot
path is numpy take, not a hash probe per row.

NaN/NULL policy: NULL and NaN values contribute to no moments and
produce no output row (SQL oracles add the matching guards);
zero-variance groups emit NULL z (division by zero is not data).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..hashing import bucket_ids
from ..runtime import bucketed_group_agg, keyed_exchange, map_sized


def group_moments(
    ds: "ray.data.Dataset",
    key: str,
    val: str,
    *,
    num_buckets: int = 64,
) -> pa.Table:
    """Exact per-group (n, sum, sumsq) over NULL/NaN-cleaned values —
    one batch-local pre-aggregation, one bucketed combine."""

    _EMPTY = pa.table(
        {
            key: pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.float64()),
            "ss": pa.array([], type=pa.float64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(t[key]),
            pc.and_(
                pc.is_valid(t[val]),
                pc.invert(pc.is_nan(pc.cast(t[val], pa.float64()))),
            ),
        )
        t = t.filter(pc.fill_null(keep, False))
        if len(t) == 0:
            return _EMPTY.cast(
                pa.schema(
                    [
                        (key, t.schema.field(key).type),
                        ("n", pa.int64()),
                        ("s", pa.float64()),
                        ("ss", pa.float64()),
                    ]
                )
            )
        v = pc.cast(t[val], pa.float64())
        small = pa.table(
            {
                key: t[key],
                "n": pa.array(np.ones(len(t), dtype=np.int64)),
                "s": v,
                "ss": pc.multiply(v, v),
            }
        )
        agg = small.group_by(key, use_threads=False).aggregate(
            [("n", "sum"), ("s", "sum"), ("ss", "sum")]
        )
        return agg.rename_columns([key, "n", "s", "ss"])

    out = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key,
        [("n", "sum"), ("s", "sum"), ("ss", "sum")],
        num_buckets=num_buckets,
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def group_zscore(
    ds: "ray.data.Dataset",
    key: str,
    val: str,
    *,
    out_col: str = "z",
    max_groups: int = 2_000_000,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Stamp ``out_col = (val - mean_group) / std_pop_group`` onto the
    rows whose value participated in the moments (NULL/NaN rows drop).
    The group-stats table must fit the driver — ``max_groups`` guards
    the broadcast assumption the way B5's planner threshold does."""
    stats = group_moments(ds, key, val, num_buckets=num_buckets)
    if len(stats) > max_groups:
        raise ValueError(
            f"group_zscore: {len(stats)} groups exceeds max_groups="
            f"{max_groups}; normalize per-partition or raise the bound"
        )
    n = stats["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    s = stats["s"].to_numpy(zero_copy_only=False)
    ss = stats["ss"].to_numpy(zero_copy_only=False)
    mean = s / np.maximum(n, 1.0)
    var = np.maximum(ss / np.maximum(n, 1.0) - mean * mean, 0.0)
    std = np.sqrt(var)
    # broadcast the labels + (mean, std) arrays once
    labels_ref = ray.put(stats[key].combine_chunks())
    mean_ref = ray.put(mean)
    std_ref = ray.put(std)

    def stamp(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(t[key]),
            pc.and_(
                pc.is_valid(t[val]),
                pc.invert(pc.is_nan(pc.cast(t[val], pa.float64()))),
            ),
        )
        t = t.filter(pc.fill_null(keep, False))
        labels = ray.get(labels_ref)
        idx = pc.index_in(t[key], value_set=labels).to_numpy(
            zero_copy_only=False
        )
        m = ray.get(mean_ref)[idx]
        sd = ray.get(std_ref)[idx]
        v = pc.cast(t[val], pa.float64()).to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0.0, (v - m) / sd, np.nan)
        zcol = pa.array(z, type=pa.float64())
        zcol = pc.if_else(pc.is_nan(zcol), pa.scalar(None, pa.float64()), zcol)
        return t.append_column(out_col, zcol)

    return ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Pivoted count features (one-hot / wide feature extraction)
# ---------------------------------------------------------------------------


def pivot_counts(
    ds: "ray.data.Dataset",
    key: str,
    cat: str,
    categories: "list | None" = None,
    *,
    prefix: str = "n_",
    max_categories: int = 10_000,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Pivot a categorical column into per-key count features: one row
    per distinct ``key``, one ``<prefix><category>`` int64 column per
    category — the classic one-hot/count feature-engineering step
    before training.

    Shape (100 TB): when ``categories`` is not supplied, one cheap
    distinct pass discovers them (bounded by ``max_categories`` — a
    pivot wider than that is a modeling bug, not a dataset). The pivot
    itself is ONE pass: each batch reduces to a per-key wide partial
    (indicator columns summed by one Arrow hash-aggregate), and the
    partials combine through ``bucketed_group_agg`` keyed on ``key`` —
    the exchange moves one wide row per distinct key per batch. NULL
    keys are dropped; NULL categories count toward no column.
    """
    from ..runtime import bucketed_group_agg

    if categories is None:
        def cat_local(t: pa.Table) -> pa.Table:
            return (
                t.select([cat])
                .drop_null()
                .group_by(cat, use_threads=False)
                .aggregate([])
            )

        found = bucketed_group_agg(
            ds.map_batches(
                cat_local, batch_format="pyarrow", zero_copy_batch=True
            ),
            cat,
            [],
            num_buckets=min(num_buckets, 16),
        ).to_pandas()
        if len(found) > max_categories:
            raise ValueError(
                f"pivot_counts: {len(found)} categories exceeds "
                f"max_categories={max_categories}"
            )
        categories = sorted(found[cat].tolist())
    cols = [f"{prefix}{c}" for c in categories]

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key]))
        small = {key: t[key]}
        for c, name in zip(categories, cols):
            small[name] = pc.cast(
                pc.fill_null(pc.equal(t[cat], pa.scalar(c)), False), pa.int64()
            )
        agg = (
            pa.table(small)
            .group_by(key, use_threads=False)
            .aggregate([(name, "sum") for name in cols])
        )
        return agg.rename_columns([key] + cols)

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key,
        [(name, "sum") for name in cols],
        num_buckets=num_buckets,
    )


def heavy_hitters(
    ds: "ray.data.Dataset",
    col: str,
    *,
    k: int = 10,
    capacity: int = 4096,
    num_buckets: int = 256,
) -> pa.Table:
    """Top-``k`` most frequent values of ``col`` with Misra-Gries
    frequency bounds — the mergeable-summaries formulation (Agarwal et
    al., PODS'12): each batch reduces to exact value counts, then
    compresses to at most ``capacity`` counters by subtracting the
    (capacity+1)-th largest count ``thr`` from every counter and
    dropping the non-positive ones; partials merge by plain summation
    (``bucketed_group_agg``), and the per-batch ``thr`` values ride the
    same exchange as a NULL-value row, summing into the global error
    bound ``E``.

    Returns a DRIVER-sized (k-row) Arrow table
    ``(col, est_count, max_count)`` sorted by (est_count DESC, value
    ASC): ``est_count <= true_count <= max_count = est_count + E``,
    and every value with ``true_count > E`` is guaranteed to surface.
    When no batch exceeds ``capacity`` distinct values, ``E = 0`` and
    the counts are EXACT — the §5.3 exact-regime twin a SQL oracle can
    check; undersize ``capacity`` to trade memory for the bounded
    error. NULL data values are dropped (documented; the NULL slot is
    the error channel).

    Shape (100 TB): per-batch compress caps every exchange payload at
    ``capacity`` rows regardless of input cardinality; the final
    candidate pull is per-bucket top-k under the SAME total order
    (count DESC, value ASC), which preserves the global top-k
    (selection under a total order distributes over partitions), so
    the driver sees O(k x buckets) rows, never the value universe."""
    if k < 1 or capacity < 1:
        raise ValueError("k and capacity must be >= 1")

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([col]).drop_null()
        if len(t) == 0:
            return pa.table(
                {
                    col: pa.array([], type=t.schema.field(col).type),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        agg = t.group_by(col, use_threads=False).aggregate([([], "count_all")])
        agg = agg.rename_columns([col, "cnt"])
        if len(agg) <= capacity:
            return agg
        cnt = agg["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        thr = np.sort(cnt)[::-1][capacity]
        keep = cnt > thr
        vals = agg[col].filter(pa.array(keep))
        out = pa.table(
            {
                col: vals,
                "cnt": pa.array(cnt[keep] - thr, type=pa.int64()),
            }
        )
        err = pa.table(
            {
                col: pa.array([None], type=agg.schema.field(col).type),
                "cnt": pa.array([int(thr)], type=pa.int64()),
            }
        )
        return pa.concat_tables([out, err])

    combined = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        col,
        [("cnt", "sum")],
        num_buckets=num_buckets,
    )

    def local_top(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        nulls = t.filter(pc.is_null(t[col]))
        vals = t.drop_null()
        order = pc.sort_indices(
            vals, sort_keys=[("cnt", "descending"), (col, "ascending")]
        )
        return pa.concat_tables([vals.take(order[:k]), nulls])

    parts = ray.get(
        combined.map_batches(
            local_top, batch_format="pyarrow", zero_copy_batch=True
        ).to_arrow_refs()
    )
    parts = [p for p in parts if len(p)]
    if not parts:
        return pa.table(
            {
                col: pa.array([], type=pa.string()),
                "est_count": pa.array([], type=pa.int64()),
                "max_count": pa.array([], type=pa.int64()),
            }
        )
    cand = pa.concat_tables(parts)
    err_total = int(
        pc.sum(cand.filter(pc.is_null(cand[col]))["cnt"]).as_py() or 0
    )
    vals = cand.drop_null()
    order = pc.sort_indices(
        vals, sort_keys=[("cnt", "descending"), (col, "ascending")]
    )
    top = vals.take(order[:k])
    est = top["cnt"]
    return pa.table(
        {
            col: top[col],
            "est_count": est,
            "max_count": pc.add(est, pa.scalar(err_total, type=pa.int64())),
        }
    )


def group_vector_mean(
    ds: "ray.data.Dataset",
    key_col: str,
    emb_col: str,
) -> "ray.data.Dataset":
    """Per-group mean embedding (class centroids / per-domain mean
    vectors) — the labeled-data twin of the k-means centroid update:
    one streaming pass reduces each batch to (key, n, vsum) partials
    via a SEGMENTED vector sum (sort batch rows by group code, one
    ``np.add.reduceat`` over the stacked float64 matrix — no per-row
    Python, no scatter loop), then a ``groupby(key)`` merge sums the
    partial vectors and divides once.

    Output: one row per group — ``(key_col, n, mean)`` with ``mean`` a
    ``list<double>``. Rows with NULL key or NULL embedding are dropped
    (documented; a missing vector has no centroid contribution).
    Accumulation is float64 regardless of input width.

    Shape (100 TB): the exchange carries one dim-width row per
    (group, batch) — for 1e6 batches x 1024-d float64 that is 8 KB per
    group per batch, independent of row count; group cardinality is
    assumed driver-irrelevant (the result stays a Dataset). Embedding
    width must be constant per group (checked at merge)."""
    from ..ops.similarity import embedding_matrix

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[emb_col]))
        t = t.filter(m)
        key_type = t.schema.field(key_col).type
        if len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "n": pa.array([], type=pa.int64()),
                    "vsum": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        emb = embedding_matrix(t, emb_col).astype(np.float64)
        enc = pc.dictionary_encode(t[key_col].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_codes[1:] != sorted_codes[:-1]])
        )
        sums = np.add.reduceat(emb[order], starts, axis=0)
        counts = np.diff(np.concatenate([starts, [len(codes)]]))
        keys = enc.dictionary.take(pa.array(sorted_codes[starts], type=pa.int32()))
        d = emb.shape[1]
        offsets = pa.array(
            np.arange(0, (len(starts) + 1) * d, d, dtype=np.int32)
        )
        vsum = pa.ListArray.from_arrays(
            offsets, pa.array(sums.ravel(), type=pa.float64())
        )
        return pa.table(
            {
                key_col: keys,
                "n": pa.array(counts, type=pa.int64()),
                "vsum": vsum,
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        key_type = g.schema.field(key_col).type
        if len(g) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "n": pa.array([], type=pa.int64()),
                    "mean": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        dims = pc.list_value_length(g["vsum"]).to_numpy(zero_copy_only=False)
        if len(np.unique(dims)) != 1:
            raise ValueError(
                f"group {g[key_col][0].as_py()!r} mixes embedding widths "
                f"{sorted(set(dims.tolist()))}"
            )
        d = int(dims[0])
        vs = (
            pc.list_flatten(g["vsum"])
            .to_numpy(zero_copy_only=False)
            .reshape(len(g), d)
        )
        n = int(pc.sum(g["n"]).as_py())
        mean = vs.sum(axis=0) / n
        return pa.table(
            {
                key_col: g[key_col].slice(0, 1),
                "n": pa.array([n], type=pa.int64()),
                "mean": pa.array([mean.tolist()], type=pa.list_(pa.float64())),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key_col)
        .map_groups(merge, batch_format="pyarrow")
    )


def group_quantile_sketch(
    ds: "ray.data.Dataset",
    key_col: str,
    val_col: str,
    qs: "list[float]",
    *,
    compression: float = 200.0,
) -> "ray.data.Dataset":
    """Per-group approximate quantiles via mergeable t-digests — the
    sketch twin (SURVEY §5.3 duality) of the exact grouped quantile:
    at 100 TB the exact path's per-group sort is the cost, the digest
    path exchanges one ~compression-centroid summary per (group,
    batch) and never moves raw values.

    Output is LONG form, one row per (group, q): ``(key_col, q,
    value, n)``. Per batch, rows sort once by group code and each
    group's value slice feeds one ``TDigest`` (the Python loop is over
    GROUPS-per-batch, not rows; values enter vectorized). NULL keys /
    NULL / NaN values are dropped (digest semantics). Accuracy is the
    t-digest bound (~1/compression relative rank error, exact at the
    extremes); merge order varies with partitioning, so results are
    tolerance-stable, not bit-stable — the exact twin remains the
    oracle surface."""
    from ..sketches import TDigest

    qs = [float(q) for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[val_col]))
        t = t.filter(m)
        key_type = t.schema.field(key_col).type
        if len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "digest": pa.array([], type=pa.binary()),
                }
            )
        vals = (
            pc.cast(t[val_col], pa.float64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        enc = pc.dictionary_encode(t[key_col].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_vals = vals[order]
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_codes[1:] != sorted_codes[:-1]])
        )
        ends = np.concatenate([starts[1:], [len(codes)]])
        keys = enc.dictionary.take(pa.array(sorted_codes[starts], type=pa.int32()))
        digests = [
            TDigest(compression).update(sorted_vals[s:e]).serialize()
            for s, e in zip(starts, ends)
        ]
        return pa.table(
            {
                key_col: keys,
                "digest": pa.array(digests, type=pa.binary()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        key_type = g.schema.field(key_col).type
        if len(g) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "q": pa.array([], type=pa.float64()),
                    "value": pa.array([], type=pa.float64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        from ..sketches import TDigest as TD

        acc = TD.deserialize(g["digest"][0].as_py())
        for b in g["digest"].to_pylist()[1:]:
            acc = acc.merge(TD.deserialize(b))
        n = int(acc.total_weight)
        return pa.table(
            {
                key_col: pa.concat_arrays(
                    [g[key_col].slice(0, 1).combine_chunks()] * len(qs)
                ),
                "q": pa.array(qs, type=pa.float64()),
                "value": pa.array(
                    [acc.quantile(q) for q in qs], type=pa.float64()
                ),
                "n": pa.array([n] * len(qs), type=pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key_col)
        .map_groups(merge, batch_format="pyarrow")
    )


def group_distinct_sketch(
    ds: "ray.data.Dataset",
    key_col: str,
    val_col: str,
    *,
    p: int = 14,
) -> "ray.data.Dataset":
    """Per-group approximate distinct count via mergeable HyperLogLogs —
    the B6 sketch twin of the exact grouped distinct count
    (``ops.dedup.distinct_count`` / q_daily_distinct): at 100 TB the
    exact path exchanges one row per distinct (group, value) pair, the
    HLL path exchanges ONE 2^p-byte register set per (group, batch)
    regardless of value cardinality (±1.04/sqrt(2^p) ≈ ±0.8% at the
    default p=14).

    Output: one row per group — ``(key_col, n_distinct_est)`` (float64
    estimate; callers round). Same per-batch shape as
    ``group_quantile_sketch``: sort rows once by group code, one HLL
    per group slice (Python loop over GROUPS per batch, hashing enters
    vectorized), merge = register-wise max per key. NULL keys / NULL
    values are dropped (SQL COUNT(DISTINCT) semantics)."""
    from ..sketches import HLL, hash64_values

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[val_col]))
        t = t.filter(m)
        key_type = t.schema.field(key_col).type
        if len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "hll": pa.array([], type=pa.binary()),
                }
            )
        h = hash64_values(t[val_col].combine_chunks())
        enc = pc.dictionary_encode(t[key_col].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_h = h[order]
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_codes[1:] != sorted_codes[:-1]])
        )
        ends = np.concatenate([starts[1:], [len(codes)]])
        keys = enc.dictionary.take(pa.array(sorted_codes[starts], type=pa.int32()))
        sk = [
            HLL(p).update_hashes(sorted_h[s:e]).serialize()
            for s, e in zip(starts, ends)
        ]
        return pa.table(
            {key_col: keys, "hll": pa.array(sk, type=pa.binary())}
        )

    def merge(g: pa.Table) -> pa.Table:
        key_type = g.schema.field(key_col).type
        if len(g) == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "n_distinct_est": pa.array([], type=pa.float64()),
                }
            )
        acc = HLL.deserialize(g["hll"][0].as_py())
        for b in g["hll"].to_pylist()[1:]:
            acc = acc.merge(HLL.deserialize(b))
        return pa.table(
            {
                key_col: g[key_col].slice(0, 1),
                "n_distinct_est": pa.array(
                    [acc.estimate()], type=pa.float64()
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key_col)
        .map_groups(merge, batch_format="pyarrow")
    )


def fd_groups_ds(
    ds: "ray.data.Dataset",
    determinant: "str | list[str]",
    dependent: str,
    *,
    min_dep: int = 2,
    num_buckets: int = 256,
):
    """Functional-dependency violation groups: determinant values that
    map to ≥ ``min_dep`` distinct dependent values (the Deequ/metanome
    "A determines B" data-quality check, reported as its violators).

    Shape (100 TB): one exchange, two vectorized reductions.

    1. Per batch, rows collapse to locally-distinct
       ``(det…, dep) -> cnt`` via one Arrow hash-aggregate — the
       exchange carries one row per distinct pair per batch, never the
       input rows.
    2. The shuffle key is ``hashing.bucket_ids`` of the DETERMINANT
       only (``num_buckets`` is its modulus), so every pair of one
       determinant lands in one bucket; ``runtime.keyed_exchange``
       sorts the pairs on it in blocks sized from their row count, and
       the combine runs per sorted block of whole buckets: it
       re-aggregates pairs exactly (sum of counts), then folds to one
       row per determinant — ``n_dep`` distinct dependents (row count
       of the pair table) and ``n_rows`` (sum of counts) — and filters
       to the violators. No second exchange exists: the det-only
       bucketing makes the final fold block-local.

    NULL policy: rows with a NULL determinant or NULL dependent are
    excluded (SQL oracle: ``WHERE det IS NOT NULL AND dep IS NOT
    NULL``), matching COUNT(DISTINCT)'s NULL semantics.

    Returns a Dataset of ``det… , n_dep:int64, n_rows:int64`` rows.
    """
    det = [determinant] if isinstance(determinant, str) else list(determinant)
    cols = det + [dependent]

    def local_pairs(t: pa.Table) -> pa.Table:
        t = t.select(cols).drop_null()
        agg = t.group_by(cols, use_threads=False).aggregate([([], "count_all")])
        agg = agg.rename_columns(cols + ["cnt"])
        return agg.append_column(
            "__gb", pa.array(bucket_ids([agg[kc] for kc in det], num_buckets))
        )

    def combine(g: pa.Table) -> pa.Table:
        pairs = (
            g.group_by(cols, use_threads=False)
            .aggregate([("cnt", "sum")])
            .rename_columns(cols + ["cnt"])
        )
        fin = (
            pairs.group_by(det, use_threads=False)
            .aggregate([("cnt", "sum"), ([], "count_all")])
            .rename_columns(det + ["n_rows", "n_dep"])
        )
        fin = fin.filter(pc.greater_equal(fin["n_dep"], pa.scalar(min_dep)))
        return fin.select(det + ["n_dep", "n_rows"]).cast(
            pa.schema(
                [fin.schema.field(c) for c in det]
                + [("n_dep", pa.int64()), ("n_rows", pa.int64())]
            )
        )

    return keyed_exchange(ds, "__gb", combine, local_pairs)


# ---------------------------------------------------------------------------
# Monotonicity (ordering invariant) — the Deequ-style "value never
# decreases per key in event order" data-quality check
# ---------------------------------------------------------------------------


def monotonic_flags(
    g: pa.Table,
    key_cols: "list[str]",
    order_cols: "list[str]",
    val_col: str,
    *,
    strict: bool = False,
    increasing: bool = True,
) -> "tuple[pa.Table, np.ndarray]":
    """Per-bucket core shared by the ops twin and the ``kind:
    monotonic`` check: sort ``g`` by (key…, order…), compare each value
    to its predecessor WITHIN the key segment with one Arrow
    slice-compare (works for any ordered Arrow type — numeric,
    timestamp, string), and return (sorted table, violation mask).
    Row 0 of each key segment never violates (SQL: LAG IS NULL).
    Caller must have dropped NULL key/order/value rows: ties in
    ``order_cols`` make the predecessor ambiguous, same caveat as the
    SQL window formulation."""
    n = len(g)
    if n == 0:
        return g, np.zeros(0, dtype=bool)
    idx = pc.sort_indices(
        g, sort_keys=[(c, "ascending") for c in [*key_cols, *order_cols]]
    )
    g = g.take(idx).combine_chunks()
    if n == 1:
        return g, np.zeros(1, dtype=bool)
    prev, cur = g.slice(0, n - 1), g.slice(1)
    same = np.ones(n - 1, dtype=bool)
    for kc in key_cols:
        same &= pc.equal(cur[kc], prev[kc]).to_numpy(zero_copy_only=False)
    if increasing:
        cmpf = pc.less_equal if strict else pc.less
    else:
        cmpf = pc.greater_equal if strict else pc.greater
    steps = pc.fill_null(
        cmpf(cur[val_col], prev[val_col]), False
    ).to_numpy(zero_copy_only=False)
    return g, np.concatenate(([False], same & steps))


def monotonic_exchange(
    ds: "ray.data.Dataset",
    key_cols: "list[str]",
    order_cols: "list[str]",
    col: str,
    fold,
    *,
    carry: "list[pa.Field]" = (),
    add_carry=None,
    strict: bool = False,
    increasing: bool = True,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """The monotonic route shared by ``monotonic_violations_ds`` and the
    ``kind: monotonic`` check: ``ds`` projected to the key, order and
    value columns plus the ``carry`` columns (``add_carry(batch)``
    appends them), rows holding a NULL dropped, each row stamped
    ``__gb`` = ``hashing.bucket_ids`` of its key, in ONE
    ``runtime.keyed_exchange`` (fan-out from the row count; the
    projection is its ``project``). ``fold(g, viol)`` gets each sorted
    block — whole keys, sorted by (key…, order…) by
    ``monotonic_flags`` — and its violation mask, and returns the
    block's output table."""
    cols = list(dict.fromkeys([*key_cols, *order_cols, col]))
    keep = cols + [f.name for f in carry]

    def stamp(t: pa.Table) -> pa.Table:
        t = (add_carry(t) if add_carry else t).select(keep).drop_null()
        return t.append_column(
            "__gb", pa.array(bucket_ids([t[kc] for kc in key_cols], num_buckets))
        )

    def per_block(g: pa.Table) -> pa.Table:
        g, viol = monotonic_flags(
            g, key_cols, order_cols, col, strict=strict, increasing=increasing
        )
        return fold(g, viol)

    return keyed_exchange(ds, "__gb", per_block, stamp)


def monotonic_violations_ds(
    ds: "ray.data.Dataset",
    key: "str | list[str]",
    order: "str | list[str]",
    col: str,
    *,
    strict: bool = False,
    direction: str = "increasing",
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-key ordering-violation counts: in (key, order…) ascending
    order, count rows whose ``col`` steps the wrong way vs their
    predecessor (non-strict ``increasing``: a violation is
    ``value < previous``; ``strict`` also flags ties; ``decreasing``
    mirrors). The classic event-log invariants — "balance never
    decreases per account", "version only moves forward per repo".

    Shape (100 TB): ``monotonic_exchange`` moves each participating row
    once into its key's bucket (ordering needs the actual rows — no
    partial aggregation exists for a sequence property) through one
    keyed exchange sized from the row count; each sorted block is one
    Arrow sort + one vectorized slice-compare (``monotonic_flags``),
    then a per-key Arrow hash-aggregate. ``num_buckets`` is only the
    hash modulus: the output does not depend on it. NULL
    key/order/value rows are excluded (the SQL oracle filters the same
    way).

    Returns a Dataset of ``key…, n_rows:int64, n_violations:int64`` —
    one row per key (keys with zero violations included: the check's
    null direction is data too)."""
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    key_cols = [key] if isinstance(key, str) else list(key)
    order_cols = [order] if isinstance(order, str) else list(order)

    def per_key(g: pa.Table, viol: np.ndarray) -> pa.Table:
        small = g.select(key_cols).append_column(
            "n_violations", pa.array(viol.astype(np.int64))
        )
        agg = (
            small.group_by(key_cols, use_threads=False)
            .aggregate([([], "count_all"), ("n_violations", "sum")])
            .rename_columns([*key_cols, "n_rows", "n_violations"])
        )
        return agg.select([*key_cols, "n_rows", "n_violations"])

    return monotonic_exchange(
        ds, key_cols, order_cols, col, per_key,
        strict=strict, increasing=(direction == "increasing"),
        num_buckets=num_buckets,
    )


# ---------------------------------------------------------------------------
# Cross-table reconciliation — parent column vs child aggregate
# ---------------------------------------------------------------------------


def reconcile_exchange(
    parent: "ray.data.Dataset",
    child: "ray.data.Dataset",
    key: str,
    col: str,
    other_key: str,
    other_sum: str,
    fold,
    *,
    carry: "list[pa.Field]" = (),
    add_carry=None,
    tolerance: float = 0.01,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """The reconcile route shared by ``reconcile_ds`` and the ``kind:
    reconcile`` check. The child side ships per-batch per-key partial
    sums only; the parent side ships (key, value) plus the ``carry``
    columns (``add_carry(batch)`` appends them), rows holding a NULL
    dropped. Each side is mapped with ``runtime.map_sized`` (in
    bundles sized from its rows when it is materialized). Keys are cast
    to string and stamped ``__gb`` = ``hashing.bucket_ids`` of the key,
    and ONE ``runtime.keyed_exchange`` (fan-out from the row count)
    co-locates a key's partials with its parent rows. Per sorted block:
    one Arrow hash-aggregate of the child sums, one left hash-join onto
    the parent rows, and ``ok`` = |parent_val - child_sum| <= tolerance,
    False when the child sum is missing or either side is NaN (DuckDB's
    rule). ``fold(joined)`` gets ``key, parent_val, child_sum, ok``,
    the carry columns and ``__gb``, one row per parent row of the
    block, and returns the block's output table."""
    names = [f.name for f in carry]

    def sides(t: pa.Table, side: int) -> pa.Table:
        return t.append_column(
            "__gb", pa.array(bucket_ids([t["key"]], num_buckets))
        ).append_column("side", pa.array(np.full(len(t), side, dtype=np.int8)))

    def child_partial(t: pa.Table) -> pa.Table:
        small = pa.table(
            {
                "key": pc.cast(t[other_key], pa.string()),
                "val": pc.cast(t[other_sum], pa.float64()),
            }
        ).drop_null()
        agg = (
            small.group_by(["key"], use_threads=False)
            .aggregate([("val", "sum")])
            .rename_columns(["key", "val"])
        )
        for f in carry:
            agg = agg.append_column(f, pa.nulls(len(agg), f.type))
        return sides(agg, 1)

    def parent_partial(t: pa.Table) -> pa.Table:
        t = add_carry(t) if add_carry else t
        small = pa.table(
            {
                "key": pc.cast(t[key], pa.string()),
                "val": pc.cast(t[col], pa.float64()),
                **{c: t[c] for c in names},
            }
        ).drop_null()
        return sides(small, 0)

    def per_block(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        sums = (
            g.filter(pa.array(side == 1))
            .group_by(["key"], use_threads=False)
            .aggregate([("val", "sum")])
            .rename_columns(["key", "child_sum"])
        )
        joined = (
            g.filter(pa.array(side == 0))
            .select(["key", "val", *names, "__gb"])
            .rename_columns(["key", "parent_val", *names, "__gb"])
            .join(sums, keys="key", join_type="left outer")
        )
        diff = pc.abs(pc.subtract(joined["parent_val"], joined["child_sum"]))
        ok = pc.fill_null(pc.less_equal(diff, pa.scalar(tolerance)), False)
        return fold(joined.append_column("ok", ok))

    both = map_sized(child, child_partial).union(map_sized(parent, parent_partial))
    return keyed_exchange(both, "__gb", per_block)


def reconcile_ds(
    parent: "ray.data.Dataset",
    child: "ray.data.Dataset",
    key: str,
    col: str,
    other_key: str,
    other_sum: str,
    *,
    tolerance: float = 0.01,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Cross-table aggregate reconciliation: for each parent row,
    compare ``col`` against ``sum(other_sum)`` over the child rows with
    the matching key — the accounting-style consistency check
    ("orders.o_totalprice equals the sum of its line items", "account
    balance equals the sum of its ledger entries") that neither refint
    nor FD expresses.

    Shape (100 TB): ``reconcile_exchange`` — the child NEVER ships
    rows, only per-batch per-key partial sums; parents ship (key,
    value). One keyed exchange sized from the row count co-locates a
    key's partials and its parent row; ``num_buckets`` is only the hash
    modulus. Parent rows with a NULL key or NULL value are excluded
    (unchecked); a parent key with NO child rows surfaces as
    ``child_sum`` NULL and ``ok`` false (a missing ledger is a failed
    reconciliation — filter upstream when absence is legitimate), and
    so does a NaN value or child sum.

    Returns a Dataset of ``key:string, parent_val:float64,
    child_sum:float64?, ok:bool`` — one row per checked parent row."""
    return reconcile_exchange(
        parent, child, key, col, other_key, other_sum,
        lambda j: j.select(["key", "parent_val", "child_sum", "ok"]),
        tolerance=tolerance, num_buckets=num_buckets,
    )


# ---------------------------------------------------------------------------
# Freshness / staleness — per-source data-recency check
# ---------------------------------------------------------------------------


def freshness_ds(
    ds: "ray.data.Dataset",
    ts_col: str,
    group_by: "str | list[str] | None",
    as_of: "str | int",
    max_age_s: float,
) -> "ray.data.Dataset":
    """Per-group data freshness: each group's latest ``ts_col`` must be
    within ``max_age_s`` seconds of ``as_of`` (ISO string or epoch µs)
    — "every source fed data recently", the staleness check a training
    pipeline runs before trusting an ingest. ``group_by=None`` checks
    the whole table as one group.

    Shape: per-batch (group, max ts) partials — one tiny row per
    (group, batch) — through the bucketed combine; nothing else moves.
    Rows with a NULL timestamp or NULL group key are excluded.

    Returns ``group…, last_ts:timestamp[us], stale:bool``."""
    import datetime as _dt

    if isinstance(as_of, str):
        as_of_us = np.datetime64(as_of, "us").astype(np.int64)
    else:
        as_of_us = int(as_of)
    threshold = as_of_us - int(round(max_age_s * 1_000_000))
    keys = (
        [] if group_by is None
        else [group_by] if isinstance(group_by, str) else list(group_by)
    )

    def partial(t: pa.Table) -> pa.Table:
        small = t.select([*keys, ts_col]).drop_null()
        if not keys:
            small = small.append_column(
                "__g", pa.array(np.zeros(len(small), dtype=np.int8))
            )
        gcols = keys or ["__g"]
        agg = (
            small.group_by(gcols, use_threads=False)
            .aggregate([(ts_col, "max")])
            .rename_columns([*gcols, "last_us"])
        )
        from ..runtime import ts_to_us_int64

        return agg.set_column(
            agg.schema.get_field_index("last_us"),
            "last_us",
            ts_to_us_int64(agg["last_us"]),
        )

    gcols = keys or ["__g"]
    combined = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        gcols,
        [("last_us", "max")],
    )

    def finish(t: pa.Table) -> pa.Table:
        last = t["last_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = t.drop_columns(["last_us"] + ([] if keys else ["__g"]))
        return out.append_column(
            "last_ts", pa.array(last.astype("datetime64[us]"))
        ).append_column("stale", pa.array(last < threshold))

    return combined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Categorical entropy profiling — distribution-shape data-quality signal
# ---------------------------------------------------------------------------


def categorical_entropy_ds(
    ds: "ray.data.Dataset",
    cols: "list[str]",
    *,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Shannon entropy (natural log) of each column's value
    distribution — the standard "is this field degenerate / skewed /
    near-uniform" profile signal. NULLs are excluded (entropy is over
    observed values); a constant column scores 0.

    Shape (100 TB): per-batch (column, value, count) partials feed one
    bucketed combine, then the identity ``H = ln(T) − Σ n·ln n / T``
    turns the per-VALUE table into a per-COLUMN sum — a second tiny
    grouped aggregation over (column) — so no distinct-value list ever
    lands on the driver and cardinality is unbounded. Values exchange
    as strings (the usual categorical-profile convention; numeric
    columns are profiled by B6 histograms instead).

    Returns ``(column:string, n:int64, n_distinct:int64,
    entropy:float64)`` — one row per profiled column."""
    from ..runtime import bucketed_group_agg

    cols = list(cols)

    def counts_partial(t: pa.Table) -> pa.Table:
        pieces = []
        for c in cols:
            v = pc.drop_null(t[c])
            if len(v) == 0:
                continue
            small = pa.table({"v": pc.cast(v, pa.string())})
            agg = small.group_by("v", use_threads=False).aggregate([("v", "count")])
            agg = agg.rename_columns(["v", "n"])
            pieces.append(
                pa.table(
                    {
                        "column": pa.array([c] * len(agg), type=pa.string()),
                        "v": agg["v"],
                        "n": pc.cast(agg["n"], pa.int64()),
                    }
                )
            )
        if not pieces:
            return pa.table(
                {
                    "column": pa.array([], type=pa.string()),
                    "v": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(pieces)

    per_value = bucketed_group_agg(
        ds.select_columns(cols).map_batches(
            counts_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["column", "v"],
        [("n", "sum")],
        num_buckets=num_buckets,
    )

    def nlogn(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "column": t["column"],
                "n": t["n"],
                "d": pa.array(np.ones(len(t), dtype=np.int64)),
                "nlogn": pa.array(n * np.log(n), type=pa.float64()),
            }
        )

    folded = bucketed_group_agg(
        per_value.map_batches(nlogn, batch_format="pyarrow"),
        "column",
        [("n", "sum"), ("d", "sum"), ("nlogn", "sum")],
        num_buckets=8,
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["nlogn"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(n > 0, np.log(n) - s / np.maximum(n, 1), 0.0)
        return pa.table(
            {
                "column": t["column"],
                "n": pc.cast(t["n"], pa.int64()),
                "n_distinct": pc.cast(t["d"], pa.int64()),
                "entropy": pa.array(np.maximum(h, 0.0), type=pa.float64()),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Per-group simple linear regression (trend detection) — one-pass moments
# ---------------------------------------------------------------------------


def group_linreg_ds(
    ds: "ray.data.Dataset",
    key: str,
    x: str,
    y: str,
    *,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Ordinary-least-squares ``y = slope·x + intercept`` per group —
    trend detection over keyed series ("is this source's quality score
    drifting down over time") — from the closed form over the five
    sufficient moments (n, Σx, Σy, Σxy, Σx²) plus Σy² for r²:

        slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
        intercept = (Σy − slope·Σx) / n
        r² = slope² · Sxx / Syy   (NULL when either variance is 0)

    Shape (100 TB): ONE streaming pass — per-batch per-group moment
    partials (one Arrow hash-aggregate) through the bucketed combine,
    then a vectorized finish per combined row; rows never shuffle.
    Rows with NULL/NaN in x or y are excluded pairwise (SQL ``regr_*``
    semantics). Groups with n < 2 or zero x-variance emit NULL
    slope/intercept (a vertical/degenerate fit is not data).

    Returns ``(key, n:int64, slope, intercept, r2:float64)``."""
    from ..runtime import bucketed_group_agg

    def partial(t: pa.Table) -> pa.Table:
        xv = pc.cast(t[x], pa.float64())
        yv = pc.cast(t[y], pa.float64())
        keep = pc.and_(
            pc.is_valid(t[key]),
            pc.and_(
                pc.and_(pc.is_valid(xv), pc.invert(pc.is_nan(xv))),
                pc.and_(pc.is_valid(yv), pc.invert(pc.is_nan(yv))),
            ),
        )
        t2 = pa.table({key: t[key], "x": xv, "y": yv}).filter(
            pc.fill_null(keep, False)
        )
        if len(t2) == 0:
            return pa.table(
                {
                    key: pa.array([], type=t.schema.field(key).type),
                    "n": pa.array([], type=pa.int64()),
                    "sx": pa.array([], type=pa.float64()),
                    "sy": pa.array([], type=pa.float64()),
                    "sxy": pa.array([], type=pa.float64()),
                    "sxx": pa.array([], type=pa.float64()),
                    "syy": pa.array([], type=pa.float64()),
                }
            )
        xn = t2["x"].to_numpy(zero_copy_only=False)
        yn = t2["y"].to_numpy(zero_copy_only=False)
        small = pa.table(
            {
                key: t2[key],
                "n": pa.array(np.ones(len(t2), dtype=np.int64)),
                "sx": t2["x"],
                "sy": t2["y"],
                "sxy": pa.array(xn * yn, type=pa.float64()),
                "sxx": pa.array(xn * xn, type=pa.float64()),
                "syy": pa.array(yn * yn, type=pa.float64()),
            }
        )
        agg = small.group_by(key, use_threads=False).aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")]
        )
        return agg.rename_columns([key, "n", "sx", "sy", "sxy", "sxx", "syy"])

    combined = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key,
        [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")],
        num_buckets=num_buckets,
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            vx = n * sxx - sx * sx  # n² · var_x
            vy = n * syy - sy * sy
            slope = np.where((n >= 2) & (vx > 0), (n * sxy - sx * sy) / vx, np.nan)
            intercept = np.where(np.isnan(slope), np.nan, (sy - slope * sx) / n)
            r2 = np.where(
                np.isnan(slope) | (vy <= 0), np.nan, slope * slope * vx / vy
            )

        def fcol(v):
            a = pa.array(v, type=pa.float64())
            return pc.if_else(pc.is_nan(a), pa.scalar(None, pa.float64()), a)

        return pa.table(
            {
                key: t[key],
                "n": pc.cast(t["n"], pa.int64()),
                "slope": fcol(slope),
                "intercept": fcol(intercept),
                "r2": fcol(r2),
            }
        )

    return combined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Distinct-cardinality bounds — Deequ hasNumberOfDistinctValues shape
# ---------------------------------------------------------------------------


def distinct_bounds_ds(
    ds: "ray.data.Dataset",
    col: str,
    group_by: "str | list[str] | None",
    *,
    min_distinct: "int | None" = None,
    max_distinct: "int | None" = None,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """EXACT distinct-value count of ``col`` per group with a bounds
    verdict — Deequ's ``hasNumberOfDistinctValues`` ("every shard holds
    at least k distinct repos", "a categorical column stays within its
    expected arity"). ``group_by=None`` checks the whole table.

    Shape (100 TB): the B4 uniqueness exchange — per-batch LOCALLY
    DISTINCT (group, value) rows (one Arrow hash-aggregate) bucketed on
    hash(group, value), so each distinct pair moves once per batch and
    is counted exactly once; a second tiny (group, count) combine sums
    per-bucket tallies. NULL values and NULL group keys are excluded
    (oracles add the matching guards).

    Returns ``(group…, n_distinct:int64, ok:bool)``."""
    from ..runtime import bucketed_group_agg

    keys = (
        [] if group_by is None
        else [group_by] if isinstance(group_by, str) else list(group_by)
    )

    def local_distinct(t: pa.Table) -> pa.Table:
        small = t.select([*keys, col]).drop_null()
        if not keys:
            small = small.append_column(
                "__g", pa.array(np.zeros(len(small), dtype=np.int8))
            )
        gcols = keys or ["__g"]
        return small.group_by([*gcols, col], use_threads=False).aggregate([])

    gcols = keys or ["__g"]
    pairs = bucketed_group_agg(
        ds.map_batches(local_distinct, batch_format="pyarrow", zero_copy_batch=True),
        [*gcols, col],
        [],
        num_buckets=num_buckets,
    )

    def count_partial(t: pa.Table) -> pa.Table:
        small = t.select(gcols).append_column(
            "n_distinct", pa.array(np.ones(len(t), dtype=np.int64))
        )
        agg = small.group_by(gcols, use_threads=False).aggregate(
            [("n_distinct", "sum")]
        )
        return agg.rename_columns([*gcols, "n_distinct"])

    counts = bucketed_group_agg(
        pairs.map_batches(count_partial, batch_format="pyarrow"),
        gcols,
        [("n_distinct", "sum")],
        num_buckets=min(num_buckets, 16),
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_distinct"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = np.ones(len(t), dtype=bool)
        if min_distinct is not None:
            ok &= n >= int(min_distinct)
        if max_distinct is not None:
            ok &= n <= int(max_distinct)
        out = t if keys else t.drop_columns(["__g"])
        return out.append_column("ok", pa.array(ok))

    return counts.map_batches(finish, batch_format="pyarrow")
