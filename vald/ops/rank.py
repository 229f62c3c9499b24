"""Grouped top-k / arg-max operators (SURVEY.md §2 B12 family).

Scalable shape: a per-batch PARTIAL top-k combiner (at most ``k`` rows
per group key survive each batch) runs before the shuffle, so the
``groupby(key)`` exchange moves O(k x n_batches) rows per group instead
of the whole group — the same partial-before-shuffle rule the engine
uses for aggregates (vald/pipeline.py) and sliding windows
(vald/ops/windows.py). The final per-group merge is a tiny
``map_groups`` sort over the surviving candidates: it handles one
group per call, so it stays on Ray's ``groupby(key)``.

``global_rank`` range-partitions (a bucket's rank offset is the count
of every earlier bucket), so it keeps ``groupby(bucket).map_groups``;
``group_percent_rank`` ranks within a key, so its rows move through
``runtime.keyed_exchange`` on a hash bucket of the key and each fold
task sizes from the row count.

Null policy (documented, matches the query-catalog oracles): rows whose
group key or order value is null are dropped before ranking — SQL
ROW_NUMBER() oracles add the matching ``IS NOT NULL`` guards.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def _topk_indices(
    codes: np.ndarray, order: np.ndarray, tiebreak: np.ndarray, k: int, descending: bool
) -> np.ndarray:
    """Vectorized per-group top-k over parallel arrays: lexsort by
    (group, order, tiebreak asc), then keep positions < k within each
    run of equal group codes. No Python loop over rows."""
    if descending:
        kind = order.dtype.kind
        if kind in "Mm":  # datetime64/timedelta64: negate the int64 view
            ord_key = -order.view("i8")
        elif kind == "u":  # unsigned: complement (negation would wrap)
            ord_key = np.iinfo(order.dtype).max - order
        elif kind == "b":
            ord_key = ~order
        else:
            ord_key = -order
    else:
        ord_key = order
    perm = np.lexsort((tiebreak, ord_key, codes))
    sorted_codes = codes[perm]
    # position within each run of equal codes
    change = np.empty(len(sorted_codes), dtype=bool)
    if len(sorted_codes):
        change[0] = True
        change[1:] = sorted_codes[1:] != sorted_codes[:-1]
    starts = np.flatnonzero(change)
    run_id = np.cumsum(change) - 1
    pos = np.arange(len(sorted_codes)) - starts[run_id]
    return perm[pos < k]


def grouped_topk(
    ds: "ray.data.Dataset",
    key: str,
    order_col: str,
    tiebreak: str,
    k: int,
    descending: bool = True,
    rank_col: str = "rn",
) -> "ray.data.Dataset":
    """Top-k rows per ``key`` ordered by ``order_col`` (then ``tiebreak``
    ascending), with a 1-based dense ``rank_col`` — the distributed twin
    of ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY order_col
    [DESC], tiebreak)``... ``WHERE rn <= k``."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        mask = pc.and_(pc.is_valid(t[key]), pc.is_valid(t[order_col]))
        t = t.filter(mask)
        if len(t) == 0:
            return t
        codes = pc.dictionary_encode(t[key].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        order = t[order_col].to_numpy(zero_copy_only=False)
        tb = t[tiebreak].to_numpy(zero_copy_only=False)
        keep = np.sort(_topk_indices(codes, order, tb, k, descending))
        return t.take(pa.array(keep))

    def merge(g: pa.Table) -> pa.Table:
        g = g.sort_by(
            [
                (order_col, "descending" if descending else "ascending"),
                (tiebreak, "ascending"),
            ]
        )
        g = g.slice(0, k)
        return g.append_column(
            rank_col, pa.array(np.arange(1, len(g) + 1), type=pa.int64())
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key)
        .map_groups(merge, batch_format="pyarrow")
    )


def latest_by(
    ds: "ray.data.Dataset",
    key: str,
    order_col: str,
    tiebreak: str,
    *,
    descending: bool = True,
) -> "ray.data.Dataset":
    """Most-recent FULL row per ``key`` — the CDC/upsert compaction
    step (collapse a change log to each entity's current state) and
    the snapshot-dedup step for re-crawled corpora (keep the newest
    fetch of each URL). Exactly ``ROW_NUMBER() OVER (PARTITION BY key
    ORDER BY order_col DESC, tiebreak) = 1`` with every input column
    carried through.

    ``tiebreak`` must complete a TOTAL order within each key (same
    contract as ``grouped_topk``) or "latest" is ambiguous. Rows with a
    NULL key or NULL order value are dropped (a change record without
    a version stamp has no position in the log).

    Shape (100 TB): inherits ``grouped_topk``'s per-batch partial
    compaction — each batch keeps at most ONE row per key before the
    shuffle, so the exchange carries ~one row per (key, batch), not
    the history; pass ``descending=False`` for "earliest"."""
    return grouped_topk(
        ds, key, order_col, tiebreak, k=1, descending=descending
    ).drop_columns(["rn"])


def _ntile_from_rank(rank: np.ndarray, total: int, n: int) -> np.ndarray:
    """SQL NTILE(n) semantics from a 1-based ROW_NUMBER: the first
    ``total % n`` tiles get ``ceil(total/n)`` rows, the rest get
    ``floor(total/n)`` (matches DuckDB/postgres)."""
    q, r = divmod(total, n)
    big = r * (q + 1)  # rows covered by the (q+1)-sized tiles
    tile = np.empty(len(rank), dtype=np.int64)
    in_big = rank <= big
    if q == 0:
        # fewer rows than tiles: every row its own tile
        return rank.astype(np.int64)
    tile[in_big] = (rank[in_big] - 1) // (q + 1) + 1
    tile[~in_big] = r + (rank[~in_big] - big - 1) // q + 1
    return tile


def global_rank(
    ds: "ray.data.Dataset",
    order_col: str,
    tiebreak: str,
    *,
    descending: bool = False,
    ntile: int | None = None,
    num_buckets: int = 64,
    sample_seed: int = 42,
    rank_col: str = "rnk",
    tile_col: str = "tile",
) -> "ray.data.Dataset":
    """Exact distributed global ranking — the scalable twin of
    ``ROW_NUMBER() OVER (ORDER BY order_col [DESC], tiebreak)`` (B12),
    with optional ``NTILE(ntile)`` derived from the same rank.

    Shape (100 TB): classic sample-partition-rank. (1) sample the order
    column to pick ``num_buckets - 1`` range boundaries (boundary
    quality affects only balance, never correctness — every row's rank
    is exact for any boundaries); (2) one streaming pass counts rows
    per bucket (a ``num_buckets``-row exchange, nothing else moves);
    (3) prefix-sum the counts into bucket offsets on the driver
    (``num_buckets`` ints, broadcast in the task closure); (4) shuffle
    ONLY the (order, tiebreak) projection by bucket and sort each
    bucket locally: rank = bucket offset + local position. Equal order
    values always land in one bucket (``searchsorted`` side='right'),
    so cross-bucket ties are impossible; a single hot value therefore
    serializes into one bucket — the documented skew caveat shared with
    every range partitioner (B8 notes).

    ``num_buckets`` must scale with input (~rows / 5M, the B4 rule).
    NULL order or tiebreak values are dropped (SQL oracles add the
    matching ``IS NOT NULL`` guards). ``order_col`` must be numeric or
    temporal (object-dtype sort ambiguity is not worth supporting —
    rank on a key, not on raw text)."""

    def _nums(col) -> np.ndarray:
        arr = col.to_numpy(zero_copy_only=False)
        if arr.dtype == object:
            raise TypeError(
                f"global_rank needs a numeric/temporal column, got {col.type}"
            )
        if arr.dtype.kind in "mM":
            # temporal → int64 so quantile/negation/searchsorted all work;
            # epoch order == chronological order
            return arr.astype("int64")
        return arr

    proj = ds.map_batches(
        lambda t: t.select([order_col, tiebreak]).filter(
            pc.and_(pc.is_valid(t[order_col]), pc.is_valid(t[tiebreak]))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # (1) boundaries from a bounded sample (balance only, never values).
    # count() runs on the INPUT dataset — parquet reads answer it from
    # metadata without executing the projection pipeline.
    sample = proj.random_sample(
        min(1.0, (200.0 * num_buckets) / max(ds.count(), 1)),
        seed=sample_seed,
    ).to_pandas()
    if len(sample):
        qs = np.linspace(0, 1, num_buckets + 1)[1:-1]
        bounds = np.unique(
            np.quantile(_nums(pa.Array.from_pandas(sample[order_col])), qs)
        )
    else:
        bounds = np.empty(0)
    if descending:
        # bucket 0 must hold the LARGEST values so offsets ascend in
        # rank order; flip boundaries and search from the right
        bounds = bounds[::-1]

    def _bucket_of(vals: np.ndarray) -> np.ndarray:
        if len(bounds) == 0:
            return np.zeros(len(vals), dtype=np.int64)
        if descending:
            # first bucket = values > bounds[0] (flipped, descending)
            return np.searchsorted(-bounds, -vals, side="right").astype(np.int64)
        return np.searchsorted(bounds, vals, side="right").astype(np.int64)

    # (2) per-bucket counts — a tiny exchange
    def counts(t: pa.Table) -> pa.Table:
        b = _bucket_of(_nums(t[order_col]))
        c = np.bincount(b, minlength=len(bounds) + 1)
        return pa.table(
            {
                "b": pa.array(np.arange(len(c), dtype=np.int64)),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    ctbl = (
        proj.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .sum("c")
        .to_pandas()
        .sort_values("b")
    )
    nb = len(bounds) + 1
    per_bucket = np.zeros(nb, dtype=np.int64)
    if len(ctbl):
        per_bucket[ctbl["b"].to_numpy()] = ctbl["sum(c)"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(per_bucket)[:-1]])
    total = int(per_bucket.sum())

    # (3)+(4) shuffle the projection by bucket, sort locally, stamp rank
    def stamp(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__b", pa.array(_bucket_of(_nums(t[order_col])))
        )

    def rank_bucket(g: pa.Table) -> pa.Table:
        b = int(g["__b"][0].as_py())
        order = _nums(g[order_col])
        tb = _nums(g[tiebreak])
        perm = np.lexsort((tb, -order if descending else order))
        g = g.take(pa.array(perm)).drop_columns("__b")
        rnk = offsets[b] + np.arange(1, len(g) + 1, dtype=np.int64)
        g = g.append_column(rank_col, pa.array(rnk))
        if ntile:
            g = g.append_column(
                tile_col, pa.array(_ntile_from_rank(rnk, total, ntile))
            )
        return g

    return (
        proj.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(rank_bucket, batch_format="pyarrow")
    )


def group_percent_rank(
    ds: "ray.data.Dataset",
    key_col: str,
    val_col: str,
    *,
    carry_cols: "tuple | list" = (),
    out_col: str = "pct_rank",
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """SQL ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY val)`` —
    the per-group percentile feature (quality-score normalization
    across heterogeneous sources: "is this doc in its source's top
    1%"). Ties share the minimum rank (RANK semantics); a single-row
    group scores 0.

    Shape (100 TB): one key-hash shuffle (``runtime.keyed_exchange``:
    every row of a key in one sorted block, the cumulative/sessionize
    recipe; ``num_buckets`` is only the hash modulus), per block one
    Arrow sort by (key, val) and a fully
    vectorized rank pass (segment starts via adjacent-change, tie
    groups via a running maximum of change positions). Rows with NULL
    key or val are dropped (SQL guards added in oracles). Returns
    (key_col, *carry_cols, val_col, out_col:float64)."""
    from ..hashing import bucket_ids
    from ..runtime import keyed_exchange
    from .windows import _adjacent_change

    carry = list(carry_cols)

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[val_col]))
        t = t.filter(pc.fill_null(m, False)).select([key_col, *carry, val_col])
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[key_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            return g.select([key_col, *carry, val_col]).slice(0, 0).append_column(
                out_col, pa.array([], type=pa.float64())
            )
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[(key_col, "ascending"), (val_col, "ascending")],
            )
        )
        keys = g[key_col].combine_chunks()
        vals = g[val_col].combine_chunks()
        new_key = _adjacent_change(keys, n)
        new_pair = new_key | _adjacent_change(vals, n)
        starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        seg_start = starts[seg_id]
        counts = np.diff(np.r_[starts, n]).astype(np.int64)[seg_id]
        pos = np.arange(n, dtype=np.int64)
        tie_first = np.maximum.accumulate(np.where(new_pair, pos, -1))
        rank = tie_first - seg_start + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(counts > 1, (rank - 1) / (counts - 1), 0.0)
        return g.select([key_col, *carry, val_col]).append_column(
            out_col, pa.array(pct, type=pa.float64())
        )

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)
