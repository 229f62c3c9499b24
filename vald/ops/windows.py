"""Window operators (SURVEY.md §2 B18) as first-class library functions.

VERDICT r2 item 2: tumbling / sliding windows and gap sessionization
were previously inlined in the query catalog with hardcoded widths and
a fixed 32-bucket user hash; this module makes them parameterized
operators a pipeline author can call.

Scale design (100 TB):
- ``tumbling_window`` / ``sliding_window`` pre-aggregate per batch
  (local ``group_by`` on (window_start, keys)) BEFORE the shuffle, so
  the all-to-all moves one row per distinct (window, key) per batch,
  never one row per event.
- ``sessionize``, ``cumulative``, ``rolling``, ``rolling_time`` and
  ``lagged`` move each event once through ``runtime.keyed_exchange``
  on a ``hashing.bucket_ids`` bucket of the key; the per-block segment
  math is a single Arrow sort + vectorized numpy pass (no Python
  per-row work). The exchange sizes its fold tasks from the row count
  (``runtime.fold_tasks``), so no task folds more than
  ``ROWS_PER_FOLD_TASK`` events however many blocks the input has;
  ``num_buckets`` is only the hash modulus.
- ``watermark_late`` and ``interval_concurrency_ds`` RANGE-partition
  (a running max or sum needs ordered buckets), so their bucket count
  follows the B4 rule ``max(min_buckets, ceil(rows /
  rows_per_bucket))``: one ``map_groups`` group per bucket.
- Output is parallelism-invariant: window starts are epoch-aligned
  (floor division on the microsecond epoch), session boundaries depend
  only on (key, ts) order, and bucket count never changes results
  (covered by the partition-invariance test).
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import bucket_ids
from ..runtime import bucketed_group_agg, keyed_exchange

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

__all__ = [
    "tumbling_window",
    "sliding_window",
    "sessionize",
    "cumulative",
    "rolling",
    "rolling_time",
    "lagged",
    "watermark_late",
    "interval_concurrency_ds",
    "dense_tumbling_counts",
]

# B4's scaling rule for the range-bucket ops: one shuffle group ≈ one
# task's memory
_ROWS_PER_BUCKET = 5_000_000
_MIN_BUCKETS = 32


def _us(d: "_dt.timedelta | int") -> int:
    """Duration → integer microseconds (int input is already µs)."""
    if isinstance(d, _dt.timedelta):
        return int(round(d.total_seconds() * 1_000_000))
    return int(d)


def _ts_int64(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """timestamp[us] column → int64 epoch-µs numpy array (nulls must be
    filtered by the caller first)."""
    v = col.to_numpy(zero_copy_only=False)
    return np.asarray(v, dtype="datetime64[us]").astype(np.int64)


def _drop_null_ts(t: pa.Table, ts_col: str) -> pa.Table:
    c = t[ts_col]
    if c.null_count:
        t = t.filter(pc.is_valid(c))
    return t


def _count_sum(ds: "ray.data.Dataset", keys: list[str], out_col: str):
    # windows × group keys can be high-cardinality; use the bucketed
    # combine shape (see runtime.bucketed_group_agg) over partials
    return bucketed_group_agg(ds, keys, [(out_col, "sum")])


def tumbling_window(
    ds: "ray.data.Dataset",
    ts_col: str,
    window: "_dt.timedelta | int",
    *,
    key_cols: Sequence[str] = (),
    out_col: str = "n",
) -> "ray.data.Dataset":
    """Event counts per epoch-aligned tumbling window of width
    ``window`` (timedelta, or int µs), optionally keyed by ``key_cols``.

    Returns a Dataset with columns (window_start, *key_cols, out_col).
    window_start = floor(ts / window) * window on the µs epoch — for
    whole-unit widths this equals SQL ``date_trunc``. Rows with a NULL
    timestamp are dropped (SQL GROUP BY would give them their own NULL
    window; a stream engine has no window to assign them to)."""
    w = _us(window)
    if w <= 0:
        raise ValueError("window must be positive")
    keys = list(key_cols)

    def partial(t: pa.Table) -> pa.Table:
        t = _drop_null_ts(t, ts_col)
        if len(t) == 0:
            return pa.table(
                {
                    "window_start": pa.array([], type=pa.timestamp("us")),
                    **{k: pa.array([], type=t.schema.field(k).type) for k in keys},
                    out_col: pa.array([], type=pa.int64()),
                }
            )
        iv = _ts_int64(t[ts_col])
        ws = (iv // w) * w  # numpy int // is FLOOR division → epoch-aligned
        small = pa.table(
            {
                "window_start": pa.array(ws.astype("datetime64[us]")),
                **{k: t[k] for k in keys},
                out_col: pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )
        agg = small.group_by(["window_start", *keys], use_threads=False).aggregate(
            [(out_col, "sum")]
        )
        return agg.rename_columns(["window_start", *keys, out_col])

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _count_sum(pre, ["window_start", *keys], out_col)


def sliding_window(
    ds: "ray.data.Dataset",
    ts_col: str,
    window: "_dt.timedelta | int",
    slide: "_dt.timedelta | int",
    *,
    key_cols: Sequence[str] = (),
    out_col: str = "n",
) -> "ray.data.Dataset":
    """Event counts per sliding window: width ``window``, advancing by
    ``slide``, starts epoch-aligned to multiples of ``slide``. Each
    event lands in the ceil(window/slide) windows covering it (exactly
    window/slide when slide divides window). Explosion is vectorized
    (np.repeat/np.tile) and pre-aggregated per batch before the
    shuffle, so the exchange moves (window/slide) × distinct-window
    rows per batch, not exploded events."""
    w, s = _us(window), _us(slide)
    if w <= 0 or s <= 0:
        raise ValueError("window and slide must be positive")
    if s > w:
        raise ValueError("slide larger than window leaves gaps — not a sliding window")
    nw = math.ceil(w / s)
    keys = list(key_cols)

    def explode(t: pa.Table) -> pa.Table:
        t = _drop_null_ts(t, ts_col)
        empty = pa.table(
            {
                "window_start": pa.array([], type=pa.timestamp("us")),
                **{k: pa.array([], type=t.schema.field(k).type) for k in keys},
                out_col: pa.array([], type=pa.int64()),
            }
        )
        if len(t) == 0:
            return empty
        iv = _ts_int64(t[ts_col])
        n = len(iv)
        latest = (iv // s) * s  # newest window containing the event
        rows = np.repeat(np.arange(n, dtype=np.int64), nw)
        offs = np.tile(np.arange(nw, dtype=np.int64) * s, n)
        starts = latest[rows] - offs
        valid = starts > iv[rows] - w  # only when slide doesn't divide window
        if not valid.all():
            rows, starts = rows[valid], starts[valid]
        if len(rows) == 0:
            return empty
        small = pa.table(
            {
                "window_start": pa.array(starts.astype("datetime64[us]")),
                **{k: t[k].take(pa.array(rows)) for k in keys},
                out_col: pa.array(np.ones(len(rows), dtype=np.int64)),
            }
        )
        agg = small.group_by(["window_start", *keys], use_threads=False).aggregate(
            [(out_col, "sum")]
        )
        return agg.rename_columns(["window_start", *keys, out_col])

    pre = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return _count_sum(pre, ["window_start", *keys], out_col)


def _adjacent_change(col: "pa.ChunkedArray", n: int) -> np.ndarray:
    """boolean[n]: True where row i starts a new key run in a SORTED
    column (index 0 always True). Arrow slice-compare — works for any
    comparable type incl. strings; NULL keys form one run (nulls sort
    together; null-vs-null compares are filled False, validity
    transitions force a boundary)."""
    out = np.empty(n, dtype=bool)
    out[0] = True
    if n == 1:
        return out
    a, b = col.slice(1), col.slice(0, n - 1)
    neq = pc.fill_null(pc.not_equal(a, b), False)
    vchange = pc.not_equal(pc.is_valid(a), pc.is_valid(b))
    out[1:] = np.asarray(
        pc.or_(neq, vchange).to_numpy(zero_copy_only=False), dtype=bool
    )
    return out


def sessionize(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    gap: "_dt.timedelta | int",
    *,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Gap-based sessionization: consecutive events of the same key
    belong to one session while the inter-event gap is ≤ ``gap``.

    Returns (key_col, session_id, session_start, n_events) with
    session_id 1-based per key in time order — identical to the SQL
    window-function formulation (SUM of gap-breaks OVER key ORDER BY
    ts).

    Partitioning: events move once through ``runtime.keyed_exchange``
    on ``hashing.bucket_ids(key) % num_buckets``; all events of one key
    land in one bucket and a bucket in one sorted block, so sessions
    never span tasks. The exchange sizes its fold tasks from the row
    count; ``num_buckets`` is only the hash modulus. Results are
    bucket-count-invariant (tested)."""
    gap_us = _us(gap)
    if gap_us < 0:
        raise ValueError("gap must be non-negative")

    def bucketize(t: pa.Table) -> pa.Table:
        t = _drop_null_ts(t, ts_col)
        return pa.table(
            {
                key_col: t[key_col],
                ts_col: t[ts_col],
                "__bucket": pa.array(bucket_ids([t[key_col]], num_buckets)),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        key_type = g.schema.field(key_col).type
        if n == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=key_type),
                    "session_id": pa.array([], type=pa.int64()),
                    "session_start": pa.array([], type=pa.timestamp("us")),
                    "n_events": pa.array([], type=pa.int64()),
                }
            )
        order = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending"), (ts_col, "ascending")]
        )
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        ts = _ts_int64(g[ts_col])
        new_key = _adjacent_change(keys, n)
        gap_break = np.empty(n, dtype=bool)
        gap_break[0] = True
        gap_break[1:] = (ts[1:] - ts[:-1]) > gap_us
        is_new = new_key | gap_break
        bounds = np.flatnonzero(is_new)
        counts = np.diff(np.r_[bounds, n]).astype(np.int64)
        starts = ts[bounds]
        bkeys = keys.take(pa.array(bounds))
        # 1-based session index within each key run
        sess_new_key = _adjacent_change(bkeys, len(bounds))
        first_idx = np.maximum.accumulate(
            np.where(sess_new_key, np.arange(len(bounds)), 0)
        )
        sid = (np.arange(len(bounds)) - first_idx + 1).astype(np.int64)
        return pa.table(
            {
                key_col: bkeys,
                "session_id": pa.array(sid),
                "session_start": pa.array(starts.astype("datetime64[us]")),
                "n_events": pa.array(counts),
            }
        )

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def cumulative(
    ds: "ray.data.Dataset",
    key_col: str,
    order_cols: Sequence[str],
    val_col: str,
    *,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-key RUNNING aggregate in ``order_cols`` order — the SQL
    window frame ``ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW``:
    emits one row per input row with ``cum_n`` (running row count) and
    ``cum_sum`` (running sum of ``val_col``, NULL counted as 0).

    ``order_cols`` must be a TOTAL order within each key (e.g.
    ``("ts", "event_id")``) or the ROWS frame itself is ambiguous —
    same requirement the SQL formulation has.

    Partitioning: same single key-hash shuffle as ``sessionize`` —
    every row of one key lands in one fold block, and segments are
    restored by an Arrow sort + vectorized numpy pass. The running sum
    is a cumsum with per-segment base subtraction (float64; max
    cancellation error ~ total-block-sum x 1e-16, far below the
    6-decimal comparison grain). Rows with a NULL key or NULL order
    column are dropped (SQL window rows with NULL keys form their own
    partition; callers needing that pass a filled key)."""
    order_cols = list(order_cols)

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[key_col])
        for oc in order_cols:
            m = pc.and_(m, pc.is_valid(t[oc]))
        t = t.filter(m).select([key_col, *order_cols, val_col])
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[key_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            base = g.select([key_col, *order_cols]).slice(0, 0)
            return base.append_column(
                "cum_n", pa.array([], type=pa.int64())
            ).append_column("cum_sum", pa.array([], type=pa.float64()))
        order = pc.sort_indices(
            g,
            sort_keys=[(key_col, "ascending")]
            + [(oc, "ascending") for oc in order_cols],
        )
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        vals = (
            pc.fill_null(pc.cast(g[val_col], pa.float64()), 0.0)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        new_key = _adjacent_change(keys, n)
        starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        cs = np.cumsum(vals)
        base = cs[starts] - vals[starts]
        cum_sum = cs - base[seg_id]
        cum_n = np.arange(n, dtype=np.int64) - starts[seg_id] + 1
        out = g.select([key_col, *order_cols])
        return out.append_column(
            "cum_n", pa.array(cum_n, type=pa.int64())
        ).append_column("cum_sum", pa.array(cum_sum, type=pa.float64()))

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def rolling(
    ds: "ray.data.Dataset",
    key_col: str,
    order_cols: Sequence[str],
    val_col: str,
    *,
    frame_rows: int,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-key MOVING aggregate over the last ``frame_rows`` rows in
    ``order_cols`` order — the SQL window frame ``ROWS BETWEEN
    frame_rows-1 PRECEDING AND CURRENT ROW``: emits one row per input
    row with ``roll_n`` (rows actually in the frame — < frame_rows near
    each key's head) and ``roll_sum`` (frame sum of ``val_col``, NULL
    counted as 0).

    ``order_cols`` must be a TOTAL order within each key (same
    requirement ``cumulative`` documents) or the frame membership is
    ambiguous.

    Partitioning: identical single key-hash shuffle as ``cumulative`` —
    all rows of one key land in one fold block so frames never cross
    tasks, and results are bucket-count-invariant. The frame sum is a difference of two
    cumsum reads (``cs0[i+1] - cs0[lo]`` where ``lo`` is the frame
    start clamped to the key's segment start) — O(n) per block, no
    per-window loop. Rows with a NULL key or NULL order column are
    dropped (documented in ``cumulative``)."""
    if frame_rows < 1:
        raise ValueError("frame_rows must be >= 1")
    order_cols = list(order_cols)

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[key_col])
        for oc in order_cols:
            m = pc.and_(m, pc.is_valid(t[oc]))
        t = t.filter(m).select([key_col, *order_cols, val_col])
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[key_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            base = g.select([key_col, *order_cols]).slice(0, 0)
            return base.append_column(
                "roll_n", pa.array([], type=pa.int64())
            ).append_column("roll_sum", pa.array([], type=pa.float64()))
        order = pc.sort_indices(
            g,
            sort_keys=[(key_col, "ascending")]
            + [(oc, "ascending") for oc in order_cols],
        )
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        vals = (
            pc.fill_null(pc.cast(g[val_col], pa.float64()), 0.0)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        new_key = _adjacent_change(keys, n)
        starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(idx - frame_rows + 1, starts[seg_id])
        cs0 = np.concatenate([[0.0], np.cumsum(vals)])
        roll_sum = cs0[idx + 1] - cs0[lo]
        roll_n = idx - lo + 1
        out = g.select([key_col, *order_cols])
        return out.append_column(
            "roll_n", pa.array(roll_n, type=pa.int64())
        ).append_column("roll_sum", pa.array(roll_sum, type=pa.float64()))

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def rolling_time(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    val_col: str,
    *,
    window: "_dt.timedelta | str | int",
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-key MOVING aggregate over a TIME window — the SQL frame
    ``RANGE BETWEEN <window> PRECEDING AND CURRENT ROW`` ordered by one
    timestamp column: one output row per input row with ``roll_n`` /
    ``roll_sum`` over same-key rows whose ts lies in
    ``[ts_i - window, ts_i]`` — INCLUDING the current row's ts-peers
    (SQL RANGE peer semantics; the ROWS-frame ``rolling`` excludes
    following peers). The rate-limit / burst-detection window a
    training-data event pipeline actually runs.

    ``window``: datetime.timedelta, pandas-parsable string ("1h",
    "15min"), or int microseconds.

    Partitioning: same single key-hash shuffle as ``rolling``. Inside a
    sorted block the frame bounds are TWO vectorized ``searchsorted`` passes
    over a per-segment-shifted int64 timeline (each key segment gets a
    disjoint shifted range, so one global binary search respects
    segment boundaries); an overflow guard falls back to a per-segment
    loop when ``segments x (ts span + window)`` would overflow int64.
    No per-window Python loop either way. NULL key/ts rows are dropped
    (see ``cumulative``); NULL values count as 0 in the sum."""
    if isinstance(window, str):
        win_us = int(pd.Timedelta(window).value // 1000)
    else:
        win_us = _us(window)
    if win_us < 0:
        raise ValueError("window must be non-negative")

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col]))
        t = t.filter(m).select([key_col, ts_col, val_col])
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[key_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            base = g.select([key_col, ts_col]).slice(0, 0)
            return base.append_column(
                "roll_n", pa.array([], type=pa.int64())
            ).append_column("roll_sum", pa.array([], type=pa.float64()))
        order = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending"), (ts_col, "ascending")]
        )
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        ts = _ts_int64(g[ts_col])
        vals = (
            pc.fill_null(pc.cast(g[val_col], pa.float64()), 0.0)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        new_key = _adjacent_change(keys, n)
        starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        rel = ts - ts.min()
        span = int(rel.max()) + win_us + 1
        nseg = len(starts)
        if span * nseg < 2**62:
            shifted = seg_id.astype(np.int64) * span + rel
            lo = np.searchsorted(shifted, shifted - win_us, side="left")
            hi = np.searchsorted(shifted, shifted, side="right")
        else:  # pragma: no cover - needs a multi-millennium ts span
            bounds = np.append(starts, n)
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(bounds[:-1], bounds[1:]):
                seg = rel[s:e]
                lo[s:e] = s + np.searchsorted(seg, seg - win_us, side="left")
                hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        cs0 = np.concatenate([[0.0], np.cumsum(vals)])
        roll_sum = cs0[hi] - cs0[lo]
        roll_n = (hi - lo).astype(np.int64)
        out = g.select([key_col, ts_col])
        return out.append_column(
            "roll_n", pa.array(roll_n, type=pa.int64())
        ).append_column("roll_sum", pa.array(roll_sum, type=pa.float64()))

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def lagged(
    ds: "ray.data.Dataset",
    key_col: str,
    order_cols: Sequence[str],
    val_col: str,
    *,
    offset: int = 1,
    out_col: str | None = None,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-key shifted value in ``order_cols`` order — the SQL window
    functions ``LAG(val, offset)`` (``offset > 0``) and
    ``LEAD(val, -offset)`` (``offset < 0``): emits one row per input
    row with ``out_col`` holding the value ``offset`` rows earlier in
    the same key partition, NULL where that row does not exist
    (including the first ``offset`` rows of every key, exactly the SQL
    default-NULL behavior).

    ``order_cols`` must be a TOTAL order within each key (same
    requirement ``cumulative`` documents) or the shift target is
    ambiguous. ``val_col`` may be any Arrow type (the shift is an Arrow
    ``take`` with a null index mask, not a numeric cast) and may also
    be one of the key/order columns.

    Partitioning: identical single key-hash shuffle as ``sessionize`` /
    ``cumulative`` — all rows of one key land in one fold block, so
    shifts never cross tasks, and results are bucket-count-invariant.
    Rows with
    a NULL key or NULL order column are dropped (documented in
    ``cumulative``)."""
    if offset == 0:
        raise ValueError("offset must be non-zero (0 is the row itself)")
    order_cols = list(order_cols)
    name = out_col or (f"lag_{val_col}" if offset > 0 else f"lead_{val_col}")
    keep = list(dict.fromkeys([key_col, *order_cols, val_col]))

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[key_col])
        for oc in order_cols:
            m = pc.and_(m, pc.is_valid(t[oc]))
        t = t.filter(m).select(keep)
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[key_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        val_type = g.schema.field(val_col).type
        if n == 0:
            return g.select(keep).slice(0, 0).append_column(
                name, pa.array([], type=val_type)
            )
        order = pc.sort_indices(
            g,
            sort_keys=[(key_col, "ascending")]
            + [(oc, "ascending") for oc in order_cols],
        )
        g = g.take(order)
        keys = g[key_col].combine_chunks()
        new_key = _adjacent_change(keys, n)
        seg_id = np.cumsum(new_key) - 1
        idx = np.arange(n, dtype=np.int64) - offset
        ok = (idx >= 0) & (idx < n)
        ok[ok] &= seg_id[idx[ok]] == seg_id[ok]
        # Arrow take with a masked index array: invalid slots -> NULL
        take_idx = pa.array(np.where(ok, idx, 0), type=pa.int64(), mask=~ok)
        shifted = g[val_col].combine_chunks().take(take_idx)
        return g.select(keep).append_column(name, shifted)

    return keyed_exchange(ds, "__bucket", per_bucket, bucketize)


def _ord_int64(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Ordering column → int64 numpy (timestamp[*] → epoch units,
    integer types pass through). Nulls must be filtered first."""
    if pa.types.is_timestamp(col.type):
        return _ts_int64(col)
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


_I64_MIN = np.iinfo(np.int64).min


def watermark_late(
    ds: "ray.data.Dataset",
    ts_col: str,
    order_cols: Sequence[str],
    *,
    delay: "_dt.timedelta | int",
    num_buckets: int | None = None,
    rows_per_bucket: int = _ROWS_PER_BUCKET,
    min_buckets: int = _MIN_BUCKETS,
) -> "ray.data.Dataset":
    """Event-time watermark assignment over an arrival-ordered log —
    the bounded-out-of-orderness watermark of Flink / Beam / MillWheel
    (Akidau et al., VLDB'15 "The Dataflow Model"), replayed over a
    batch Dataset.

    ``order_cols`` is the ARRIVAL order (must be a total order; e.g.
    ``("arrival_ts", "event_id")``); ``ts_col`` is EVENT time. After
    the engine has seen rows 1..i-1 in arrival order, the watermark is
    ``max(event_time over rows 1..i-1) - delay``; row i is LATE when
    its event time is behind that watermark. Emits every input row
    plus two columns: ``watermark`` (timestamp[us]; NULL for the
    globally-first arrival, which has no watermark yet) and
    ``is_late`` (bool). Equivalent SQL:
    ``ts < max(ts) OVER (ORDER BY <order_cols> ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING) - delay``.

    Scale design (100 TB): a global running max cannot hash-partition,
    so the op RANGE-partitions on the first order column — pass 0
    scans only that column for (min, max, count) partials (one row per
    block to the driver); pass 1 scans (order, ts) and emits one
    (range-bucket, max event-time) partial per batch; the driver folds
    those into an EXCLUSIVE prefix max per bucket (num_buckets int64s,
    broadcast once via ray.put); pass 2 moves the full rows exactly
    once into their range bucket, restores arrival order with one
    Arrow sort, and the running max is a vectorized
    ``np.maximum.accumulate`` seeded by the bucket's prefix. Driver
    state and the broadcast are O(num_buckets), never O(rows).
    Buckets follow the B4 data-scaled rule so no task holds more than
    ~``rows_per_bucket`` rows. Rows with a NULL event time or NULL
    order column are dropped (they have no place on either axis;
    matches the other B18 ops)."""
    import ray

    d_us = _us(delay)
    if d_us < 0:
        raise ValueError("delay must be non-negative")
    order_cols = list(order_cols)
    if not order_cols:
        raise ValueError("order_cols must name at least one column")
    oc0 = order_cols[0]

    # pass 0: bounds of the range key + row count (order column only)
    def bounds_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[oc0]))
        if len(t) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ov = _ord_int64(t[oc0])
        return pa.table({"lo": pa.array([int(ov.min())]),
                         "hi": pa.array([int(ov.max())]),
                         "n": pa.array([len(t)])})

    from ..runtime import collect_arrow

    bt = collect_arrow(
        ds.select_columns([oc0])
        .map_batches(bounds_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if len(bt) == 0:  # empty input: emit the schema, no rows
        def empty_mark(t: pa.Table) -> pa.Table:
            return t.append_column(
                "watermark", pa.nulls(len(t), pa.timestamp("us"))
            ).append_column("is_late", pa.nulls(len(t), pa.bool_()))
        return ds.map_batches(empty_mark, batch_format="pyarrow")
    lo = pc.min(bt["lo"]).as_py()
    hi = pc.max(bt["hi"]).as_py()
    total = pc.sum(bt["n"]).as_py()
    if num_buckets is None:
        num_buckets = max(min_buckets, math.ceil(total / rows_per_bucket))
    span = max(hi - lo + 1, 1)

    def bucket_of(ov: np.ndarray) -> np.ndarray:
        # monotone in the range key: earlier bucket => strictly smaller
        # first-order value, so the exclusive prefix max is exact.
        # float64 math throughout: in int64, (ov-lo)*num_buckets wraps
        # negative for spans >= 2**63/num_buckets (and ov-lo itself can
        # wrap for mixed-sign extremes), np.clip then sends rows to
        # bucket 0 NON-monotonically (ADVICE r4). Every float64 step —
        # cast, subtract, scale, floor, clip — is monotone
        # non-decreasing in ov, which is all the invariant needs;
        # precision loss only coarsens boundaries, never reorders them.
        b = np.floor(
            (ov.astype(np.float64) - float(lo)) * (float(num_buckets) / float(span))
        )
        return np.clip(b, 0, num_buckets - 1).astype(np.int64)

    def valid_rows(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[ts_col])
        for oc in order_cols:
            m = pc.and_(m, pc.is_valid(t[oc]))
        return t.filter(m)

    # pass 1: per-(batch, bucket) max event-time partials
    def max_partial(t: pa.Table) -> pa.Table:
        t = valid_rows(t)
        if len(t) == 0:
            return pa.table({"b": pa.array([], pa.int64()),
                             "m": pa.array([], pa.int64())})
        b = bucket_of(_ord_int64(t[oc0]))
        iv = _ts_int64(t[ts_col])
        ub, inv = np.unique(b, return_inverse=True)
        m = np.full(len(ub), _I64_MIN, dtype=np.int64)
        np.maximum.at(m, inv, iv)
        return pa.table({"b": pa.array(ub), "m": pa.array(m)})

    mt = collect_arrow(
        ds.select_columns(list(dict.fromkeys([*order_cols, ts_col])))
        .map_batches(max_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    bucket_max = np.full(num_buckets, _I64_MIN, dtype=np.int64)
    if len(mt):
        np.maximum.at(
            bucket_max,
            mt["b"].to_numpy(zero_copy_only=False).astype(np.int64),
            mt["m"].to_numpy(zero_copy_only=False).astype(np.int64),
        )
    acc = np.maximum.accumulate(bucket_max)
    prefix = np.concatenate(([_I64_MIN], acc[:-1]))  # EXCLUSIVE prefix max
    prefix_ref = ray.put(prefix)

    # pass 2: one range shuffle, per-bucket arrival sort + running max
    def bucketize(t: pa.Table) -> pa.Table:
        t = valid_rows(t)
        return t.append_column(
            "__bucket", pa.array(bucket_of(_ord_int64(t[oc0])))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            g = g.drop_columns(["__bucket"])
            return g.append_column(
                "watermark", pa.nulls(0, pa.timestamp("us"))
            ).append_column("is_late", pa.array([], pa.bool_()))
        pre = ray.get(prefix_ref)[g["__bucket"][0].as_py()]
        order = pc.sort_indices(
            g, sort_keys=[(oc, "ascending") for oc in order_cols]
        )
        g = g.take(order)
        iv = _ts_int64(g[ts_col])
        run = np.maximum.accumulate(iv)
        prior = np.concatenate(([np.int64(pre)], run[:-1]))
        prior = np.maximum(prior, np.int64(pre))
        seen = prior != _I64_MIN
        wm = np.where(seen, prior - d_us, 0)
        late = seen & (iv < wm)
        g = g.drop_columns(["__bucket"])
        return g.append_column(
            "watermark",
            pa.array(wm.astype("datetime64[us]"), mask=~seen),
        ).append_column("is_late", pa.array(late))

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Interval concurrency (distributed sweep line) — "max concurrent
# sessions" over [start, end) intervals
# ---------------------------------------------------------------------------


def interval_concurrency_ds(
    ds: "ray.data.Dataset",
    start_col: str,
    end_col: str,
    *,
    num_buckets: int | None = None,
    rows_per_bucket: int = _ROWS_PER_BUCKET,
    min_buckets: int = _MIN_BUCKETS,
) -> "ray.data.Dataset":
    """Maximum number of simultaneously-open ``[start, end)`` intervals
    and the FIRST instant it is reached — capacity planning's "peak
    concurrent sessions" — via the classic sweep line (±1 delta events,
    running sum), distributed with the watermark_late range-partition +
    exclusive-prefix recipe:

    - pass 0 scans only the endpoint columns for (min, max, count)
      partials (one row per block);
    - pass 1 emits one (range-bucket, Σdelta) partial per batch; the
      driver folds an EXCLUSIVE prefix SUM per bucket — the number of
      intervals already open when a bucket begins (O(num_buckets)
      driver state, broadcast once);
    - pass 2 moves each ±1 delta event exactly once to its range
      bucket, one Arrow sort by (t, delta) per bucket (ends BEFORE
      starts at equal t — the half-open convention: back-to-back
      intervals never overlap), a vectorized cumsum seeded by the
      bucket's prefix, one (max, argmax-t) row out per bucket.

    The bucket map is the overflow-safe float64 monotone map (shared
    rationale with watermark_late). NULL start/end rows are dropped;
    empty intervals (end <= start) contribute +1/−1 at the same (or
    inverted) instants and never count, matching the SQL sweep. Returns
    ONE row: ``(max_concurrency:int64, at:timestamp[us])`` — 0 / NULL
    for an empty input."""
    import ray
    import ray.data

    from ..runtime import collect_arrow

    def bounds_partial(t: pa.Table) -> pa.Table:
        t = _drop_null_ts(_drop_null_ts(t, start_col), end_col)
        if len(t) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        s = _ts_int64(t[start_col])
        e = _ts_int64(t[end_col])
        return pa.table({"lo": pa.array([int(min(s.min(), e.min()))]),
                         "hi": pa.array([int(max(s.max(), e.max()))]),
                         "n": pa.array([2 * len(t)])})

    pruned = ds.select_columns([start_col, end_col])
    bt = collect_arrow(
        pruned.map_batches(bounds_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if len(bt) == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "max_concurrency": pa.array([0], pa.int64()),
                    "at": pa.nulls(1, pa.timestamp("us")),
                }
            )
        )
    lo = pc.min(bt["lo"]).as_py()
    hi = pc.max(bt["hi"]).as_py()
    total = pc.sum(bt["n"]).as_py()
    if num_buckets is None:
        num_buckets = max(min_buckets, math.ceil(total / rows_per_bucket))
    span = max(hi - lo + 1, 1)

    def bucket_of(tv: np.ndarray) -> np.ndarray:
        b = np.floor(
            (tv.astype(np.float64) - float(lo)) * (float(num_buckets) / float(span))
        )
        return np.clip(b, 0, num_buckets - 1).astype(np.int64)

    def deltas(t: pa.Table) -> pa.Table:
        t = _drop_null_ts(_drop_null_ts(t, start_col), end_col)
        s = _ts_int64(t[start_col])
        e = _ts_int64(t[end_col])
        tv = np.concatenate([s, e])
        d = np.concatenate(
            [np.ones(len(s), dtype=np.int64), -np.ones(len(e), dtype=np.int64)]
        )
        return pa.table({"t": pa.array(tv), "d": pa.array(d)})

    dl = pruned.map_batches(deltas, batch_format="pyarrow", zero_copy_batch=True)

    # pass 1: per-(batch, bucket) delta sums -> exclusive prefix per bucket
    def sum_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"b": pa.array([], pa.int64()),
                             "sd": pa.array([], pa.int64())})
        b = bucket_of(t["t"].to_numpy(zero_copy_only=False))
        ub, inv = np.unique(b, return_inverse=True)
        sd = np.zeros(len(ub), dtype=np.int64)
        np.add.at(sd, inv, t["d"].to_numpy(zero_copy_only=False))
        return pa.table({"b": pa.array(ub), "sd": pa.array(sd)})

    st = collect_arrow(
        dl.map_batches(sum_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    bucket_sum = np.zeros(num_buckets, dtype=np.int64)
    if len(st):
        np.add.at(
            bucket_sum,
            st["b"].to_numpy(zero_copy_only=False).astype(np.int64),
            st["sd"].to_numpy(zero_copy_only=False).astype(np.int64),
        )
    prefix = np.concatenate(([0], np.cumsum(bucket_sum)[:-1]))  # EXCLUSIVE
    prefix_ref = ray.put(prefix)

    # pass 2: per-bucket sorted cumsum seeded by the prefix
    def bucketize(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(bucket_of(t["t"].to_numpy(zero_copy_only=False)))
        )

    _EMPTY_MAX = pa.table(
        {
            "mx": pa.array([], pa.int64()),
            "at": pa.array([], pa.int64()),
        }
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return _EMPTY_MAX
        pre = int(ray.get(prefix_ref)[g["__bucket"][0].as_py()])
        order = pc.sort_indices(
            g, sort_keys=[("t", "ascending"), ("d", "ascending")]
        )
        g = g.take(order)
        run = pre + np.cumsum(g["d"].to_numpy(zero_copy_only=False))
        i = int(np.argmax(run))  # first occurrence of the max
        return pa.table(
            {
                "mx": pa.array([int(run[i])], pa.int64()),
                "at": pa.array([int(g["t"][i].as_py())], pa.int64()),
            }
        )

    maxima = collect_arrow(
        dl.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
    if len(maxima) == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "max_concurrency": pa.array([0], pa.int64()),
                    "at": pa.nulls(1, pa.timestamp("us")),
                }
            )
        )
    mx = maxima["mx"].to_numpy(zero_copy_only=False).astype(np.int64)
    at = maxima["at"].to_numpy(zero_copy_only=False).astype(np.int64)
    best = int(mx.max())
    first = int(at[mx == best].min())
    return ray.data.from_arrow(
        pa.table(
            {
                "max_concurrency": pa.array([best], pa.int64()),
                "at": pa.array(
                    np.array([first], dtype=np.int64).astype("datetime64[us]")
                ),
            }
        )
    )


# ---------------------------------------------------------------------------
# Dense tumbling counts (gap-fill): every window in [min, max] gets a
# row, zeros where nothing happened — monitoring/forecasting input shape
# ---------------------------------------------------------------------------


def dense_tumbling_counts(
    ds: "ray.data.Dataset",
    ts_col: str,
    window: "_dt.timedelta | int",
    *,
    key_cols: Sequence[str] = (),
    out_col: str = "n",
    max_keys: int = 100_000,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """``tumbling_window`` counts with the GAPS FILLED: one row for
    EVERY epoch-aligned window between the corpus's first and last
    event (× every observed key combination), ``out_col`` = 0 where
    nothing happened — the dense series monitoring dashboards and
    forecasting models consume ("an hour with zero events IS the
    signal").

    Shape (100 TB): the aggregate side is the tumbling pre-aggregation
    (one row per distinct (window, keys) — tiny next to events); its
    [min, max] window bound is a metadata-scale pull. The dense grid is
    GENERATED DISTRIBUTED — ``ray.data.range(n_windows)`` mapped to
    window starts, cross-producted per batch against the observed key
    tuples (pulled once, ``max_keys``-guarded: a grid wider than that
    is a modeling bug) — and LEFT-joins the aggregate hash-partitioned;
    nothing row-scale ever lands on the driver. Empty input → empty
    output (there is no range to fill)."""
    import ray
    import ray.data

    from ..runtime import (
        collect_arrow,
        join_partitions,
        join_remote_args,
        nonempty_blocks,
    )

    keys = list(key_cols)
    w = _us(window)
    agg = tumbling_window(ds, ts_col, window, key_cols=keys, out_col=out_col)
    m = agg.materialize()  # one row per (window, keys); join barrier too

    def bounds(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        iv = _ts_int64(t["window_start"])
        return pa.table({"lo": pa.array([int(iv.min())]),
                         "hi": pa.array([int(iv.max())])})

    bt = collect_arrow(
        m.map_batches(bounds, batch_format="pyarrow", zero_copy_batch=True)
    )
    if len(bt) == 0:
        empty_cols = {"window_start": pa.array([], pa.timestamp("us"))}
        sch = ds.schema()
        base = getattr(sch, "base_schema", sch)
        for k in keys:
            empty_cols[k] = pa.array([], type=base.field(k).type)
        empty_cols[out_col] = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table(empty_cols))
    lo = pc.min(bt["lo"]).as_py()
    hi = pc.max(bt["hi"]).as_py()
    n_windows = (hi - lo) // w + 1

    if keys:
        kt = collect_arrow(
            m.map_batches(
                lambda t: t.select(keys)
                .group_by(keys, use_threads=False)
                .aggregate([]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
        kt = kt.group_by(keys, use_threads=False).aggregate([])  # global distinct
        if len(kt) > max_keys:
            raise ValueError(
                f"dense_tumbling_counts: {len(kt)} key combinations exceeds "
                f"max_keys={max_keys} — a dense grid that wide is a modeling "
                "bug; densify per shard or raise the bound"
            )
        kt_ref = ray.put(kt)
    else:
        kt_ref = None

    def grid(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ws = lo + ids * w
        if kt_ref is None:
            return pa.table(
                {"window_start": pa.array(ws.astype("datetime64[us]"))}
            )
        kt_l = ray.get(kt_ref)
        nk = len(kt_l)
        rep = np.repeat(ws, nk)
        tile = pa.array(np.tile(np.arange(nk, dtype=np.int64), len(ws)))
        cols = {"window_start": pa.array(rep.astype("datetime64[us]"))}
        for k in keys:
            cols[k] = kt_l[k].take(tile)
        return pa.table(cols)

    g = ray.data.range(n_windows).map_batches(
        grid, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = g.join(
        nonempty_blocks(m),
        join_type="left_outer",
        num_partitions=join_partitions(num_partitions),
        on=("window_start", *keys),
        aggregator_ray_remote_args=join_remote_args(),
    )

    def fill(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(out_col)
        return t.set_column(
            i, out_col, pc.cast(pc.fill_null(t[out_col], 0), pa.int64())
        )

    return joined.map_batches(fill, batch_format="pyarrow")
