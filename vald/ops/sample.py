"""Deterministic sampling operators (SURVEY.md §2 B13).

``hash_sample`` keeps a row iff Knuth's multiplicative hash of an
integer key lands below ``frac`` of the 32-bit space — deterministic
(no seed state to ship), stable under repartitioning, and exactly
reproducible in SQL (``(key * 2654435761) % 4294967296 < frac * 2**32``),
so unlike ``Dataset.random_sample`` it is DuckDB-oracle-checkable.
Stratification falls out for free: the same key always makes the same
cut, so joins between two hash-sampled tables on the key stay aligned.

Domain note (documented, not a silent cap): the multiply is exact in
int64 for keys < 2**33; beyond that, callers must pre-fold the key
(e.g. ``key % 2**32``) on BOTH sides. Testdata ids are far below the
bound.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

_KNUTH = 2654435761
_M32 = 1 << 32


def hash_sample(
    ds: "ray.data.Dataset", key: str, frac: float
) -> "ray.data.Dataset":
    """Keep rows where hash(key) < frac of the 32-bit space. Null keys
    are dropped (SQL comparison with NULL is never true — same policy)."""
    threshold = int(frac * _M32)

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = t[key]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        # fill nulls BEFORE to_numpy: a null int64 column converts to
        # float64 + NaN, and NaN->int64 casts are undefined
        k = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (k * _KNUTH) % _M32
        return t.filter(pa.array(valid & (h < threshold)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample(
    ds: "ray.data.Dataset",
    group_col: str,
    key: str,
    n: int,
) -> "ray.data.Dataset":
    """Deterministic fixed-``n``-per-group sample (balanced subsampling
    for curation): keep the ``n`` rows whose Knuth hash of ``key`` is
    smallest within each ``group_col`` value. Seedless and
    repartition-stable like ``hash_sample``; the SQL twin is
    ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY
    (key*2654435761)%2**32, key) <= n``.

    Built on ``ops.rank.grouped_topk`` (per-batch partial top-k
    combiner before the shuffle), so the exchange moves at most
    ``n × groups`` rows per batch. Same int64-domain note as
    ``hash_sample``; NULL keys/groups are dropped."""
    import pyarrow.compute as pc

    from .rank import grouped_topk

    def stamp(t: pa.Table) -> pa.Table:
        col = t[key]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        k = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (k * _KNUTH) % _M32
        return t.filter(pa.array(valid)).append_column(
            "__h", pa.array(h[valid], type=pa.int64())
        )

    stamped = ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_topk(stamped, group_col, "__h", key, n, descending=False)
    return out.drop_columns(["__h", "rn"])


def select_by_budget(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols,
    token_col: str,
    budget: int,
    *,
    out_col: str = "cum_tokens",
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-group token-budget selection — the curation step "take the
    best documents from each source until its token budget is spent":
    within each ``group_col`` value, scan rows in ``order_cols`` order
    (list of ``(col, "ascending"|"descending")``; must be a total order
    within the group, so include a tie-break id) and keep a row while
    the RUNNING sum of ``token_col`` (including the current row) stays
    ≤ ``budget``. Emits the surviving rows plus ``out_col`` with the
    running total — exactly the SQL
    ``SUM(tok) OVER (PARTITION BY g ORDER BY ...) <= budget`` filter.

    Partitioning: the single key-hash shuffle used by
    ``windows.cumulative`` (``runtime.keyed_exchange``: every row of one
    group lands in one sorted block; ``num_buckets`` is only the hash
    modulus); inside a block one Arrow sort restores group segments
    and the running sums are one vectorized cumsum with per-segment
    base subtraction (int64 — token counts are integral, so the prefix
    sums are exact). Rows with a
    NULL group, NULL order column, or NULL token count are dropped
    (the SQL twin guards the same way)."""
    import pyarrow.compute as pc

    from ..hashing import bucket_ids
    from ..runtime import keyed_exchange
    from .windows import _adjacent_change

    order_cols = [
        (c, "ascending") if isinstance(c, str) else (c[0], c[1])
        for c in order_cols
    ]

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[group_col])
        for oc, _ in order_cols:
            m = pc.and_(m, pc.is_valid(t[oc]))
        m = pc.and_(m, pc.is_valid(t[token_col]))
        t = t.filter(m)
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[group_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__bucket"])
        n = len(g)
        if n == 0:
            return g.append_column(out_col, pa.array([], type=pa.int64()))
        order = pc.sort_indices(
            g,
            sort_keys=[(group_col, "ascending")] + list(order_cols),
        )
        g = g.take(order)
        vals = (
            pc.cast(g[token_col], pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        new_key = _adjacent_change(g[group_col].combine_chunks(), n)
        starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        cs = np.cumsum(vals)
        cum = cs - (cs[starts] - vals[starts])[seg_id]
        keep = cum <= budget
        g = g.append_column(out_col, pa.array(cum, type=pa.int64()))
        return g.filter(pa.array(keep))

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def mix_sources(
    ds: "ray.data.Dataset",
    group_col: str,
    key: str,
    targets: "dict[str, float]",
) -> "ray.data.Dataset":
    """Deterministic mixture rebalancing — downsample each group so the
    surviving corpus matches the ``targets`` proportions at the LARGEST
    achievable total size (the bottleneck group is kept whole): with
    counts n_g, scale s = min over target groups present of n_g / p_g,
    quota k_g = floor(p_g · s), and each group keeps its k_g rows with
    the smallest Knuth hash of ``key`` (ties by key) — seedless,
    repartition-stable, and exactly reproducible in SQL as
    ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY (key*2654435761)%2^32,
    key) <= k_g`` with k_g derived from the same counts. Groups not in
    ``targets`` (and rows with a NULL group/key) are dropped.

    Shape (100 TB): one count pass (per-batch partials + bucketed
    combine — only (group, count) rows move), quotas are a driver-side
    dict over |targets| entries, then ``grouped_topk``'s per-batch
    partial top-k bounds the selection exchange to k_g × batches rows
    per group. Same int64 hash-domain note as ``hash_sample``."""
    import pyarrow.compute as pc

    from ..runtime import bucketed_group_agg
    from .rank import grouped_topk

    tkeys = [g for g, p in targets.items() if p > 0]
    if not tkeys:
        return ds.limit(0)

    def cnt_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[group_col]))
        small = pa.table(
            {
                group_col: t[group_col],
                "n": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )
        agg = small.group_by(group_col, use_threads=False).aggregate([("n", "sum")])
        return agg.rename_columns([group_col, "n"])

    counts = (
        bucketed_group_agg(
            ds.map_batches(cnt_partial, batch_format="pyarrow", zero_copy_batch=True),
            group_col,
            [("n", "sum")],
        )
        .to_pandas()
        .set_index(group_col)["n"]
        .to_dict()
    )
    present = [g for g in tkeys if counts.get(g, 0) > 0]
    if not present:
        return ds.limit(0)
    scale = min(counts[g] / targets[g] for g in present)
    quota = {g: int(np.floor(targets[g] * scale)) for g in tkeys}
    kmax = max(quota.values())
    if kmax == 0:
        return ds.limit(0)

    qgroups = pa.array(list(quota.keys()), type=pa.string())
    qvals = np.array([quota[g] for g in quota], dtype=np.int64)
    q_ref = ray.put((qgroups, qvals))

    def stamp(t: pa.Table) -> pa.Table:
        qg, _ = ray.get(q_ref)
        m = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[key]))
        m = pc.and_(m, pc.fill_null(pc.is_in(t[group_col], value_set=qg), False))
        t = t.filter(m)
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (k * _KNUTH) % _M32
        return t.append_column("__h", pa.array(h, type=pa.int64()))

    ranked = grouped_topk(
        ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True),
        group_col,
        "__h",
        key,
        kmax,
        descending=False,
    )

    def cut(t: pa.Table) -> pa.Table:
        qg, qv = ray.get(q_ref)
        idx = pc.index_in(t[group_col], value_set=qg).to_numpy(
            zero_copy_only=False
        )
        lim = qv[idx.astype(np.int64)]
        rn = t["rn"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(rn <= lim)).drop_columns(["__h", "rn"])

    return ranked.map_batches(cut, batch_format="pyarrow", zero_copy_batch=True)
