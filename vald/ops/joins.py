"""As-of (nearest-prior) join — an engine operator Ray Data lacks
natively (SURVEY.md §2 B14 family; the "custom operator" tier of the
build rules: composition of map_batches + the keyed exchange, with the
partitioning assumption documented).

Semantics match SQL ASOF JOIN (DuckDB dialect, backward direction):
for each left row, attach the right row with the greatest
``right.ts <= left.ts`` among rows sharing the ``by`` key. Inner mode
drops unmatched left rows; left mode keeps them with NULL right
columns.

Scale design (100 TB):
- each side is projected to (by, ts, needed cols) BEFORE the shuffle
  (``runtime.map_sized``: in a few coalesced bundles when the side is
  materialized, else per block); both sides move ONCE through
  ``runtime.keyed_exchange`` on a ``hashing.bucket_ids(by) %
  num_buckets`` bucket.
- the match over each sorted block is one Arrow sort + a vectorized
  ``np.searchsorted`` over composite (key, ts) codes — no Python
  per-row work. Composite overflow (huge key cardinality × time span
  in one block) falls back to a per-key segment walk, still
  searchsorted-based.
- partitioning assumption (same as ``sessionize``): all rows of one
  ``by`` key fit one task. The exchange sizes its fold tasks from the
  row count; ``num_buckets`` is only the hash modulus. Results are
  bucket-count-invariant (tested).
"""

from __future__ import annotations

import datetime as _dt
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import bucket_ids
from ..runtime import keyed_exchange, map_sized
from .windows import _drop_null_ts, _ts_int64, _us

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

__all__ = ["asof_join", "range_join"]


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    by: str,
    ts_col: str,
    left_cols: list[str],
    right_cols: dict[str, str],
    join_type: str = "inner",
    tolerance: "_dt.timedelta | int | None" = None,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Backward as-of join: per left row, the matching ``by``-key right
    row with the greatest ``ts <= left.ts``. When several right rows
    tie on that ts, ONE of them is attached (which one is unspecified,
    matching SQL ASOF semantics) — attach only payload functionally
    dependent on (by, ts) when deterministic output matters.

    - ``left_cols``: left columns to carry through (must include ``by``
      and ``ts_col``).
    - ``right_cols``: {right column -> output name} to attach; output
      names must not collide with ``left_cols``.
    - ``tolerance``: optional max ``left.ts - right.ts`` (timedelta or
      µs); matches farther back are treated as no-match.
    - NULL-ts and NULL-``by`` rows are dropped on BOTH sides (no
      equality / ordering comparison can hold on them; in left mode
      this means a NULL-key left row is absent from the output, unlike
      SQL LEFT ASOF JOIN which would keep it — documented divergence).
    """
    if join_type not in ("inner", "left"):
        raise ValueError("join_type must be 'inner' or 'left'")
    if by not in left_cols or ts_col not in left_cols:
        raise ValueError("left_cols must include the by and ts columns")
    tol_us = None if tolerance is None else _us(tolerance)
    out_names = list(right_cols.values())
    if set(out_names) & set(left_cols):
        raise ValueError("right output names collide with left_cols")

    # ---- union schema: left passthrough + right payload + side tag ----
    # the right side's payload column types, captured from its schema so
    # the left side's null columns cast to the same type
    right_schema = right.schema()
    rtypes = {
        out: right_schema.base_schema.field(src).type
        for src, out in right_cols.items()
    }

    def _drop_null_by(t: pa.Table) -> pa.Table:
        c = t[by]
        if c.null_count:
            t = t.filter(pc.is_valid(c))
        return t

    def tag_left_typed(t: pa.Table) -> pa.Table:
        t = _drop_null_by(_drop_null_ts(t, ts_col))
        n = len(t)
        cols = {c: t[c] for c in left_cols}
        for out, typ in rtypes.items():
            cols[out] = pa.nulls(n, typ)
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        cols["__bucket"] = pa.array(bucket_ids([t[by]], num_buckets))
        return pa.table(cols)

    lschema = left.schema()
    ltypes = {c: lschema.base_schema.field(c).type for c in left_cols}

    def tag_right(t: pa.Table) -> pa.Table:
        t = _drop_null_by(_drop_null_ts(t, ts_col))
        n = len(t)
        cols = {}
        for c in left_cols:
            if c == by or c == ts_col:
                cols[c] = t[c]
            else:
                cols[c] = pa.nulls(n, ltypes[c])
        for src, out in right_cols.items():
            cols[out] = t[src]
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        cols["__bucket"] = pa.array(bucket_ids([t[by]], num_buckets))
        return pa.table(cols)

    tagged = map_sized(left, tag_left_typed).union(map_sized(right, tag_right))

    def _match_in_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy(zero_copy_only=False)
        lmask, rmask = side == 0, side == 1
        lt = g.filter(pa.array(lmask))
        rt = g.filter(pa.array(rmask))
        n_l, n_r = len(lt), len(rt)
        empty = pa.table(
            {
                **{c: pa.chunked_array([[]], type=ltypes[c]) for c in left_cols},
                **{o: pa.chunked_array([[]], type=rtypes[o]) for o in out_names},
            }
        )
        if n_l == 0:
            return empty
        if n_r == 0:
            if join_type == "inner":
                return empty
            return pa.table(
                {
                    **{c: lt[c] for c in left_cols},
                    **{o: pa.nulls(n_l, rtypes[o]) for o in out_names},
                }
            )

        # factorize keys over BOTH sides so codes agree
        both_keys = pa.concat_arrays(
            [lt[by].combine_chunks(), rt[by].combine_chunks()]
        )
        codes_all = pc.dictionary_encode(both_keys).indices.to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        lcode, rcode = codes_all[:n_l], codes_all[n_l:]
        lts = _ts_int64(lt[ts_col])
        rts = _ts_int64(rt[ts_col])
        tmin = min(lts.min(), rts.min())
        span = int(max(lts.max(), rts.max()) - tmin) + 2
        ncodes = int(codes_all.max()) + 1

        if ncodes <= (2**62) // span:
            lcomp = lcode * span + (lts - tmin + 1)
            rcomp = rcode * span + (rts - tmin + 1)
            order = np.argsort(rcomp, kind="stable")
            rs = rcomp[order]
            idx = np.searchsorted(rs, lcomp, side="right") - 1
            safe = np.maximum(idx, 0)
            hit = (idx >= 0) & (rcode[order[safe]] == lcode)
            if tol_us is not None:
                hit &= (lts - rts[order[safe]]) <= tol_us
            ridx = order[safe]
        else:  # pragma: no cover - degenerate span×cardinality bucket
            # per-key segment walk (still searchsorted inside segments)
            order = np.lexsort((rts, rcode))
            rs_code, rs_ts = rcode[order], rts[order]
            seg_starts = np.searchsorted(rs_code, np.arange(ncodes), side="left")
            seg_ends = np.searchsorted(rs_code, np.arange(ncodes), side="right")
            ridx = np.zeros(n_l, dtype=np.int64)
            hit = np.zeros(n_l, dtype=bool)
            for i in range(n_l):
                s, e = seg_starts[lcode[i]], seg_ends[lcode[i]]
                j = np.searchsorted(rs_ts[s:e], lts[i], side="right") - 1
                if j >= 0:
                    hit[i] = True
                    ridx[i] = order[s + j]
                    if tol_us is not None and lts[i] - rs_ts[s + j] > tol_us:
                        hit[i] = False

        if join_type == "inner":
            lt_out = lt.filter(pa.array(hit))
            take_idx = pa.array(ridx[hit])
            return pa.table(
                {
                    **{c: lt_out[c] for c in left_cols},
                    **{o: rt[o].take(take_idx) for o in out_names},
                }
            )
        # left join: NULL right payload where no hit
        hit_arr = pa.array(hit)
        gather_idx = pa.array(np.where(hit, ridx, 0))
        out_cols = {c: lt[c] for c in left_cols}
        for o in out_names:
            gathered = rt[o].take(gather_idx).combine_chunks()
            out_cols[o] = pc.if_else(hit_arr, gathered, pa.scalar(None, type=rtypes[o]))
        return pa.table(out_cols)

    return keyed_exchange(tagged, "__bucket", _match_in_bucket)


_CLOSED = {
    # closed -> (start_op, end_op) as numpy ufuncs: start_op(s, ts) and
    # end_op(ts, e) must BOTH hold for a match
    "left": (np.less_equal, np.less),       # s <= ts <  e
    "both": (np.less_equal, np.less_equal), # s <= ts <= e
    "right": (np.less, np.less_equal),      # s <  ts <= e
    "neither": (np.less, np.less),          # s <  ts <  e
}


def range_join(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    by: str,
    ts_col: str,
    start_col: str,
    end_col: str,
    point_cols: list[str],
    interval_cols: dict[str, str],
    join_type: str = "inner",
    closed: str = "left",
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Range (interval) join: each ``points`` row joins EVERY
    ``intervals`` row sharing the ``by`` key whose
    ``[start_col, end_col]`` interval contains ``ts_col`` under the
    ``closed`` convention (default ``"left"`` = ``start <= ts < end``).
    Multi-match emits one output row per (point, interval) pair, like a
    SQL inner join on the range predicate; ``join_type="left"`` keeps
    unmatched points with NULL interval payload.

    Scale design (same shuffle shape as :func:`asof_join`): both sides
    are projected per batch, move ONCE to ``hash(by) % num_buckets``
    buckets, and the match per sorted block is one sort + two vectorized
    ``np.searchsorted`` passes over composite (key, start) codes.
    Candidate slabs use the bounded-duration bound: an interval can
    only contain ``ts`` if it STARTS within ``D = max(end - start)`` of
    it, so per point only intervals with ``start in [ts - D, ts]`` are
    enumerated, then the exact predicate filters (lossless — any
    interval starting earlier has ``end <= start + D < ts``).

    Documented boundary: one pathologically long interval in a block
    widens every slab in that block (candidates per point ~ intervals
    starting within D). If durations are wildly mixed, split long
    intervals upstream into <= D-sized pieces (dedup pairs after) —
    the standard banding valve; not needed for uniform-width windows.

    NULL ``by`` / ``ts`` / ``start`` / ``end`` rows are dropped on both
    sides (documented divergence from SQL LEFT JOIN, as in asof_join).
    Intervals empty under ``closed`` (e.g. end <= start for "left")
    never match and are dropped at tag time.
    """
    if join_type not in ("inner", "left"):
        raise ValueError("join_type must be 'inner' or 'left'")
    if closed not in _CLOSED:
        raise ValueError(f"closed must be one of {sorted(_CLOSED)}")
    if by not in point_cols or ts_col not in point_cols:
        raise ValueError("point_cols must include the by and ts columns")
    out_names = list(interval_cols.values())
    if set(out_names) & set(point_cols):
        raise ValueError("interval output names collide with point_cols")
    s_op, e_op = _CLOSED[closed]

    ischema = intervals.schema()
    if ischema is None:
        raise ValueError(
            "intervals dataset has no known schema (empty dataset after an "
            "all-to-all op loses it in Ray 2.49) — construct empty inputs "
            "with a typed Arrow table so payload column types are known"
        )
    rtypes = {
        out: ischema.base_schema.field(src).type
        for src, out in interval_cols.items()
    }
    pschema = points.schema()
    ptypes = {c: pschema.base_schema.field(c).type for c in point_cols}

    def _drop_null(t: pa.Table, col: str) -> pa.Table:
        c = t[col]
        if c.null_count:
            t = t.filter(pc.is_valid(c))
        return t

    def tag_points(t: pa.Table) -> pa.Table:
        t = _drop_null(_drop_null_ts(t, ts_col), by)
        n = len(t)
        cols = {c: t[c] for c in point_cols}
        for out, typ in rtypes.items():
            cols[out] = pa.nulls(n, typ)
        cols["__s"] = pa.nulls(n, pa.int64())
        cols["__e"] = pa.nulls(n, pa.int64())
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        cols["__bucket"] = pa.array(bucket_ids([t[by]], num_buckets))
        return pa.table(cols)

    def tag_intervals(t: pa.Table) -> pa.Table:
        t = _drop_null(_drop_null(_drop_null(t, start_col), end_col), by)
        s = _ts_int64(t[start_col])
        e = _ts_int64(t[end_col])
        # drop intervals that are empty under the closed convention
        nonempty = e >= s if closed == "both" else e > s
        if not nonempty.all():
            t = t.filter(pa.array(nonempty))
            s, e = s[nonempty], e[nonempty]
        n = len(t)
        cols = {}
        for c in point_cols:
            cols[c] = t[by] if c == by else pa.nulls(n, ptypes[c])
        for src, out in interval_cols.items():
            cols[out] = t[src]
        cols["__s"] = pa.array(s)
        cols["__e"] = pa.array(e)
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        cols["__bucket"] = pa.array(bucket_ids([t[by]], num_buckets))
        return pa.table(cols)

    tagged = map_sized(points, tag_points).union(map_sized(intervals, tag_intervals))

    def _match_in_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy(zero_copy_only=False)
        lmask = side == 0
        lt = g.filter(pa.array(lmask))
        rt = g.filter(pa.array(~lmask))
        n_l, n_r = len(lt), len(rt)
        empty = pa.table(
            {
                **{c: pa.chunked_array([[]], type=ptypes[c]) for c in point_cols},
                **{o: pa.chunked_array([[]], type=rtypes[o]) for o in out_names},
            }
        )
        if n_l == 0:
            return empty
        if n_r == 0:
            if join_type == "inner":
                return empty
            return pa.table(
                {
                    **{c: lt[c] for c in point_cols},
                    **{o: pa.nulls(n_l, rtypes[o]) for o in out_names},
                }
            )

        both_keys = pa.concat_arrays(
            [lt[by].combine_chunks(), rt[by].combine_chunks()]
        )
        codes_all = pc.dictionary_encode(both_keys).indices.to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        lcode, rcode = codes_all[:n_l], codes_all[n_l:]
        pts = _ts_int64(lt[ts_col])
        sts = rt["__s"].to_numpy(zero_copy_only=False).astype(np.int64)
        ets = rt["__e"].to_numpy(zero_copy_only=False).astype(np.int64)
        dur_max = int((ets - sts).max())  # >= 0: empty intervals dropped
        vmin = min(int(pts.min()), int(sts.min()))
        vmax = max(int(pts.max()), int(sts.max()))
        span = vmax - vmin + 2
        ncodes = int(codes_all.max()) + 1

        if ncodes <= (2**62) // span:
            rcomp = rcode * span + (sts - vmin + 1)
            order = np.argsort(rcomp, kind="stable")
            rs = rcomp[order]
            base = lcode * span
            lo = np.searchsorted(
                rs, base + np.maximum(pts - dur_max - vmin + 1, 0), side="left"
            )
            hi = np.searchsorted(rs, base + (pts - vmin + 1), side="right")
            counts = hi - lo
            total = int(counts.sum())
            pi = np.repeat(np.arange(n_l), counts)
            offs = np.cumsum(counts) - counts
            ii = np.arange(total) - np.repeat(offs, counts) + np.repeat(lo, counts)
            rj = order[ii]
        else:  # pragma: no cover - degenerate span×cardinality bucket
            order = np.lexsort((sts, rcode))
            rs_code, rs_ts = rcode[order], sts[order]
            pis, rjs = [], []
            for i in range(n_l):
                s0 = np.searchsorted(rs_code, lcode[i], side="left")
                e0 = np.searchsorted(rs_code, lcode[i], side="right")
                seg = rs_ts[s0:e0]
                a = s0 + np.searchsorted(seg, pts[i] - dur_max, side="left")
                b = s0 + np.searchsorted(seg, pts[i], side="right")
                if b > a:
                    pis.append(np.full(b - a, i, dtype=np.int64))
                    rjs.append(order[a:b])
            pi = np.concatenate(pis) if pis else np.empty(0, dtype=np.int64)
            rj = np.concatenate(rjs) if rjs else np.empty(0, dtype=np.int64)

        keep = s_op(sts[rj], pts[pi]) & e_op(pts[pi], ets[rj])
        pi, rj = pi[keep], rj[keep]

        matched = pa.table(
            {
                **{c: lt[c].take(pa.array(pi)) for c in point_cols},
                **{o: rt[o].take(pa.array(rj)) for o in out_names},
            }
        )
        if join_type == "inner":
            return matched
        unhit = np.ones(n_l, dtype=bool)
        unhit[pi] = False
        if not unhit.any():
            return matched
        lt_un = lt.filter(pa.array(unhit))
        unmatched = pa.table(
            {
                **{c: lt_un[c] for c in point_cols},
                **{o: pa.nulls(len(lt_un), rtypes[o]) for o in out_names},
            }
        )
        return pa.concat_tables([matched, unmatched])

    return keyed_exchange(tagged, "__bucket", _match_in_bucket)
