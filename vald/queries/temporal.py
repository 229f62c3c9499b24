"""Windowed / event-time catalog queries: tumbling, sliding, sessions, cumulative, rolling, lag, transitions, latest-by, daily distinct.

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
from ray.data.aggregate import Count, Max, Mean, Min, Quantile, Sum

from ._shared import _empty, _ensure_schema, _mkt_keys_ds, _read



# ---------------------------------------------------------------------------
# windowed aggregate over the events stream: tumbling 1-hour windows
# via the B18 library operator (vald.ops.windows.tumbling_window)
# ---------------------------------------------------------------------------


def q_window_hourly(sf_dir: str):
    from datetime import timedelta

    from ..ops.windows import tumbling_window

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    out = tumbling_window(
        ds, "ts", timedelta(hours=1), key_cols=("event_type",), out_col="n"
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("window_start", pa.timestamp("us")),
                ("event_type", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )



# ---------------------------------------------------------------------------
# B18 sliding windows: 2-hour windows advancing hourly via the library
# operator (vald.ops.windows.sliding_window — vectorized explode,
# per-batch pre-aggregation before the shuffle)
# ---------------------------------------------------------------------------


def q_window_sliding(sf_dir: str):
    from datetime import timedelta

    from ..ops.windows import sliding_window

    ds = _read(sf_dir, "events", ["ts"])
    out = sliding_window(
        ds, "ts", timedelta(hours=2), timedelta(hours=1), out_col="n"
    )
    return _ensure_schema(
        out,
        pa.schema([("window_start", pa.timestamp("us")), ("n", pa.int64())]),
    )



# ---------------------------------------------------------------------------
# B18 session windows: gap-based sessionization (30-min inactivity)
# via the library operator (vald.ops.windows.sessionize) — one keyed
# exchange sized from the row count, results bucket-count-invariant
# ---------------------------------------------------------------------------


def q_sessions(sf_dir: str):
    from datetime import timedelta

    from ..ops.windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    out = sessionize(ds, "user_id", "ts", timedelta(minutes=30))
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("session_id", pa.int64()),
                ("session_start", pa.timestamp("us")),
                ("n_events", pa.int64()),
            ]
        ),
    )



# ---------------------------------------------------------------------------
# B11 exact distinct-count per group: per-batch local distinct, one
# exchange on the (day, user) pair, shuffle-free per-day count partials
# ---------------------------------------------------------------------------


def q_daily_distinct(sf_dir: str):
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def local_distinct(t: pa.Table) -> pa.Table:
        t = t.drop_null()
        if len(t) == 0:
            return pa.table(
                {
                    "day": pa.array([], type=pa.string()),
                    "user_id": pa.array([], type=pa.int64()),
                }
            )
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        return (
            pa.table({"day": day, "user_id": t["user_id"]})
            .group_by(["day", "user_id"], use_threads=False)
            .aggregate([])
        )

    def day_partial(t: pa.Table) -> pa.Table:
        agg = (
            pa.table({"day": t["day"]})
            .group_by("day", use_threads=False)
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["day", "n_users"])

    from ..runtime import bucketed_group_agg

    out = (
        bucketed_group_agg(
            ev.map_batches(
                local_distinct, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["day", "user_id"],
            [],  # empty aggs = exact global distinct on the pair
        )
        .map_batches(day_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )
    return _ensure_schema(
        out, pa.schema([("day", pa.string()), ("n_users", pa.int64())])
    )



# ---------------------------------------------------------------------------
# B18 running per-key window aggregate (ROWS UNBOUNDED PRECEDING):
# ops/windows.cumulative — one key-hash shuffle, per-bucket sort +
# vectorized cumsum, data-scaled buckets
# ---------------------------------------------------------------------------


def q_cumulative(sf_dir: str):
    import pyarrow.dataset as pads

    from ..ops.windows import cumulative

    ds = _read(
        sf_dir,
        "events",
        ["event_id", "ts", "user_id", "event_type", "value"],
        filter=pads.field("event_type") == "purchase",
    ).map_batches(
        # NaN exclusion for float parity with the oracle's isnan guard
        # (self-audit convention; sf testdata has no NaNs)
        lambda t: t.filter(
            pc.fill_null(pc.invert(pc.is_nan(t["value"])), True)
        ),
        batch_format="pyarrow",
    )
    out = cumulative(ds, "user_id", ("ts", "event_id"), "value").map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "cum_n": t["cum_n"],
                "cum_sum": pc.round(t["cum_sum"], ndigits=6),
            }
        ),
        batch_format="pyarrow",
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("event_id", pa.int64()),
                ("cum_n", pa.int64()),
                ("cum_sum", pa.float64()),
            ]
        ),
    )



def q_rolling(sf_dir: str):
    """Per-user moving 5-row sum of purchase values (B18,
    ops.windows.rolling) — the SQL ROWS-frame
    ``ROWS BETWEEN 4 PRECEDING AND CURRENT ROW``; one key-hash shuffle,
    frame sums via cumsum differences (no per-window loop)."""
    import pyarrow.dataset as pads

    from ..ops.windows import rolling

    ds = _read(
        sf_dir,
        "events",
        ["event_id", "ts", "user_id", "event_type", "value"],
        filter=pads.field("event_type") == "purchase",
    ).map_batches(
        # NaN exclusion for float parity with the oracle's isnan guard
        # (self-audit convention; sf testdata has no NaNs)
        lambda t: t.filter(
            pc.fill_null(pc.invert(pc.is_nan(t["value"])), True)
        ),
        batch_format="pyarrow",
    )
    out = rolling(
        ds, "user_id", ("ts", "event_id"), "value", frame_rows=5
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "roll_n": t["roll_n"],
                "roll_sum": pc.round(t["roll_sum"], ndigits=6),
            }
        ),
        batch_format="pyarrow",
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("event_id", pa.int64()),
                ("roll_n", pa.int64()),
                ("roll_sum", pa.float64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# B18 RANGE-frame time window (r4, ops.windows.rolling_time): per-user
# trailing-1-hour purchase count/sum — SQL `RANGE BETWEEN INTERVAL 1
# HOUR PRECEDING AND CURRENT ROW` incl. ts-peer semantics; oracle =
# the native DuckDB RANGE window.
# ---------------------------------------------------------------------------


def q_rolling_time(sf_dir: str):
    import pyarrow.dataset as pads

    from ..ops.windows import rolling_time

    ds = _read(
        sf_dir,
        "events",
        ["ts", "user_id", "event_type", "value"],
        filter=pads.field("event_type") == "purchase",
    ).map_batches(
        # NaN exclusion for float parity with the oracle's isnan guard
        lambda t: t.filter(
            pc.fill_null(pc.invert(pc.is_nan(t["value"])), True)
        ),
        batch_format="pyarrow",
    )
    out = rolling_time(ds, "user_id", "ts", "value", window="1h").map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "roll_n": t["roll_n"],
                "roll_sum": pc.round(t["roll_sum"], ndigits=6),
            }
        ),
        batch_format="pyarrow",
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
                ("roll_n", pa.int64()),
                ("roll_sum", pa.float64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# B18 LAG window: per-user inter-event gap via ops.windows.lagged
# (oracle = SQL LAG window function)
# ---------------------------------------------------------------------------


def q_lag(sf_dir: str):
    """Per-user gap to the previous event in (ts, event_id) order.
    First event per user (NULL lag) is filtered on BOTH sides so the
    value hash never rides on NULL encoding; rows with a NULL key or
    order column are dropped by the operator (oracle mirrors)."""
    from ..ops.windows import lagged

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    lg = lagged(ev, "user_id", ("ts", "event_id"), "ts", offset=1, out_col="prev_ts")

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["prev_ts"]))
        gap = pc.subtract(
            pc.cast(t["ts"], pa.int64()), pc.cast(t["prev_ts"], pa.int64())
        )
        return pa.table(
            {"event_id": t["event_id"], "user_id": t["user_id"], "gap_us": gap}
        )

    out = lg.map_batches(finish, batch_format="pyarrow")
    return _ensure_schema(
        out,
        pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("gap_us", pa.int64())]
        ),
    )



def q_transitions(sf_dir: str):
    """User-journey Markov transition counts: how often event type A is
    followed by event type B within the same user's (ts, event_id)
    stream — `lagged` (one key-hash shuffle) + per-batch partial counts
    + a ~k² (k = #event types) native groupby, so the exchange after
    the window op is one row per (prev, curr) pair per batch. Rows
    whose prev OR curr type is NULL are dropped on both sides (a NULL
    lag value is indistinguishable from row-1-of-key, which SQL LAG
    also returns as NULL)."""
    from ..ops.windows import lagged

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    lg = lagged(
        ev, "user_id", ("ts", "event_id"), "event_type", offset=1, out_col="prev"
    )

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["prev"]), pc.is_valid(t["event_type"])))
        agg = (
            pa.table({"prev": t["prev"], "curr": t["event_type"]})
            .group_by(["prev", "curr"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["prev", "curr", "n"])

    out = (
        lg.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["prev", "curr"])
        .sum("n")
        .map_batches(
            lambda t: t.rename_columns(["prev", "curr", "n"]),
            batch_format="pyarrow",
        )
    )
    return _ensure_schema(
        out,
        pa.schema([("prev", pa.string()), ("curr", pa.string()), ("n", pa.int64())]),
    )



def q_latest_event(sf_dir: str):
    """Each user's most recent event (ops.rank.latest_by — the
    CDC/upsert compaction operator): full-row ROW_NUMBER()=1 semantics,
    per-batch one-row-per-key partial compaction before the shuffle."""
    from ..ops.rank import latest_by

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out = latest_by(ds, "user_id", "ts", "event_id").select_columns(
        ["user_id", "event_id", "event_type"]
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("event_id", pa.int64()),
                ("event_type", pa.string()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# B18 event-time semantics: bounded-out-of-orderness watermarks over a
# replayed event log (vald.ops.windows.watermark_late). Arrival order
# is simulated with a deterministic per-event network jitter (both
# sides compute ts + ((event_id*37) mod 97) minutes), so the log is
# genuinely out-of-order (~46% late at a 30-min watermark delay).
# ---------------------------------------------------------------------------

_WM_DELAY_MIN = 30  # watermark lag behind max observed event time
_WM_ALLOWED_MIN = 15  # allowed lateness before a window stops accepting


def _jittered_events(sf_dir: str, extra_cols: list[str]):
    """events + deterministic arrival timestamp ``arr`` (simulated
    network delay of ((event_id*37) mod 97) minutes; rows with NULL
    ts/event_id dropped — they have no place on either time axis)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", *extra_cols])

    def jitter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["event_id"])))
        iv = np.asarray(
            t["ts"].to_numpy(zero_copy_only=False), dtype="datetime64[us]"
        ).astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = iv + ((eid * 37) % 97) * 60_000_000
        return t.append_column("arr", pa.array(arr.astype("datetime64[us]")))

    return ds.map_batches(jitter, batch_format="pyarrow", zero_copy_batch=True)


def q_late_events(sf_dir: str):
    """Late-arrival audit: per event type, how many events arrive
    behind a 30-minute bounded-out-of-orderness watermark when the log
    is replayed in (jittered) arrival order."""
    from datetime import timedelta

    from ..ops.windows import watermark_late

    wm = watermark_late(
        _jittered_events(sf_dir, ["event_type"]),
        "ts",
        ("arr", "event_id"),
        delay=timedelta(minutes=_WM_DELAY_MIN),
    )

    def partial(t: pa.Table) -> pa.Table:
        small = pa.table(
            {
                "event_type": t["event_type"],
                "late_n": pc.cast(
                    pc.fill_null(t["is_late"], False), pa.int64()
                ),
                "total_n": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )
        agg = small.group_by(["event_type"], use_threads=False).aggregate(
            [("late_n", "sum"), ("total_n", "sum")]
        )
        return agg.rename_columns(["event_type", "late_n", "total_n"])

    from ..runtime import bucketed_group_agg

    pre = wm.map_batches(partial, batch_format="pyarrow")
    out = bucketed_group_agg(
        pre, ["event_type"], [("late_n", "sum"), ("total_n", "sum")]
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("event_type", pa.string()),
                ("late_n", pa.int64()),
                ("total_n", pa.int64()),
            ]
        ),
    )


def q_watermark_agg(sf_dir: str):
    """Hourly tumbling sum(value) under allowed-lateness semantics: a
    row is DROPPED when, at its arrival, the watermark has already
    passed its window's end by more than the allowed lateness
    (Dataflow-model window garbage-collection; the window's pane is
    closed). Kept rows aggregate exactly once."""
    from datetime import timedelta

    from ..ops.windows import watermark_late
    from ..runtime import bucketed_group_agg

    wm = watermark_late(
        _jittered_events(sf_dir, ["value"]),
        "ts",
        ("arr", "event_id"),
        delay=timedelta(minutes=_WM_DELAY_MIN),
    )
    hour_us = 3_600_000_000
    allowed_us = _WM_ALLOWED_MIN * 60_000_000

    def partial(t: pa.Table) -> pa.Table:
        iv = np.asarray(
            t["ts"].to_numpy(zero_copy_only=False), dtype="datetime64[us]"
        ).astype(np.int64)
        ws = (iv // hour_us) * hour_us
        wmc = t["watermark"]
        wm_us = np.asarray(
            wmc.to_numpy(zero_copy_only=False), dtype="datetime64[us]"
        ).astype(np.int64)
        no_wm = pc.is_null(wmc).to_numpy(zero_copy_only=False)
        keep = no_wm | (wm_us <= ws + hour_us + allowed_us)
        vals = pc.fill_null(pc.cast(t["value"], pa.float64()), 0.0).to_numpy(
            zero_copy_only=False
        )
        small = pa.table(
            {
                "window_start": pa.array(ws[keep].astype("datetime64[us]")),
                "val_sum": pa.array(vals[keep]),
                "n": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
            }
        )
        agg = small.group_by(["window_start"], use_threads=False).aggregate(
            [("val_sum", "sum"), ("n", "sum")]
        )
        return agg.rename_columns(["window_start", "val_sum", "n"])

    pre = wm.map_batches(partial, batch_format="pyarrow")
    out = bucketed_group_agg(
        pre, ["window_start"], [("val_sum", "sum"), ("n", "sum")]
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("val_sum"),
            "val_sum",
            pc.round(t["val_sum"], ndigits=2),
        )

    out = out.map_batches(finish, batch_format="pyarrow")
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("window_start", pa.timestamp("us")),
                ("val_sum", pa.float64()),
                ("n", pa.int64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# peak concurrency: max simultaneously-open synthetic sessions
# [ts, ts + value minutes) via the distributed sweep line
# (vald.ops.windows.interval_concurrency_ds)
# ---------------------------------------------------------------------------


def q_peak_sessions(sf_dir: str):
    """Peak concurrent sessions where each event opens a session of
    ``value`` minutes — the capacity-planning sweep-line; oracle
    replays the identical ±1 running sum in SQL (ends before starts at
    equal instants: the half-open convention)."""
    from ..ops.windows import interval_concurrency_ds

    def mk_intervals(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["value"]))
        t = t.filter(pc.fill_null(m, False))
        s = np.asarray(
            t["ts"].to_numpy(zero_copy_only=False), dtype="datetime64[us]"
        ).astype(np.int64)
        dur = np.rint(
            t["value"].to_numpy(zero_copy_only=False) * 60_000_000
        ).astype(np.int64)
        return pa.table(
            {
                "s": pa.array(s.astype("datetime64[us]")),
                "e": pa.array((s + dur).astype("datetime64[us]")),
            }
        )

    iv = _read(sf_dir, "events", ["ts", "value"]).map_batches(
        mk_intervals, batch_format="pyarrow", zero_copy_batch=True
    )
    out = interval_concurrency_ds(iv, "s", "e")
    return _ensure_schema(
        out,
        pa.schema(
            [("max_concurrency", pa.int64()), ("at", pa.timestamp("us"))]
        ),
    )


# ---------------------------------------------------------------------------
# per-type value trend: OLS slope of value over time (ops.stats
# .group_linreg_ds) — "is this source drifting" as a regression
# ---------------------------------------------------------------------------

_TREND_T0 = np.datetime64("2024-01-01T00:00:00", "us")


def q_value_trend(sf_dir: str):
    """Per-event_type OLS trend of value over days since the corpus
    epoch — ops.stats.group_linreg_ds (one-pass moment partials);
    oracle = DuckDB regr_slope/intercept/r2 on the same centered x."""
    from ..ops.stats import group_linreg_ds

    def mk_x(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["event_type"]))
        t = t.filter(pc.fill_null(m, False))
        iv = np.asarray(
            t["ts"].to_numpy(zero_copy_only=False), dtype="datetime64[us]"
        ).astype(np.int64)
        x = (iv - int(_TREND_T0.astype(np.int64))) / 86_400_000_000.0
        return pa.table(
            {
                "event_type": t["event_type"],
                "x": pa.array(x, type=pa.float64()),
                "value": t["value"],
            }
        )

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
        mk_x, batch_format="pyarrow", zero_copy_batch=True
    )
    out = group_linreg_ds(ds, "event_type", "x", "value").map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"],
                "slope": pc.round(t["slope"], 6),
                "intercept": pc.round(t["intercept"], 6),
                "r2": pc.round(t["r2"], 6),
            }
        ),
        batch_format="pyarrow",
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("event_type", pa.string()),
                ("n", pa.int64()),
                ("slope", pa.float64()),
                ("intercept", pa.float64()),
                ("r2", pa.float64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# dense hourly series: gap-filled per-type counts (ops.windows
# .dense_tumbling_counts) — zero-event hours are rows, not holes
# ---------------------------------------------------------------------------


def q_gapfill(sf_dir: str):
    """Hourly event counts per event_type with every (hour, type) cell
    present — missing cells 0 (ops.windows.dense_tumbling_counts);
    oracle = generate_series × DISTINCT types LEFT JOIN the aggregate."""
    from datetime import timedelta

    from ..ops.windows import dense_tumbling_counts

    def clean(t: pa.Table) -> pa.Table:
        return t.filter(pc.fill_null(pc.is_valid(t["event_type"]), False))

    ds = _read(sf_dir, "events", ["ts", "event_type"]).map_batches(
        clean, batch_format="pyarrow", zero_copy_batch=True
    )
    out = dense_tumbling_counts(
        ds, "ts", timedelta(hours=1), key_cols=["event_type"]
    )
    return _ensure_schema(
        out,
        pa.schema(
            [
                ("window_start", pa.timestamp("us")),
                ("event_type", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# trending types per day: tumbling window x grouped top-k composition
# ---------------------------------------------------------------------------


def q_trending(sf_dir: str):
    """Top-2 event types per day by count — pure composition of the
    B18 tumbling window and the B12 grouped top-k (partial-combiner)
    operators; oracle = GROUP BY day + ROW_NUMBER window."""
    from datetime import timedelta

    from ..ops.rank import grouped_topk
    from ..ops.windows import tumbling_window

    def clean(t: pa.Table) -> pa.Table:
        return t.filter(pc.fill_null(pc.is_valid(t["event_type"]), False))

    daily = tumbling_window(
        _read(sf_dir, "events", ["ts", "event_type"]).map_batches(
            clean, batch_format="pyarrow", zero_copy_batch=True
        ),
        "ts",
        timedelta(days=1),
        key_cols=["event_type"],
    )
    out = grouped_topk(daily, "window_start", "n", "event_type", k=2)
    return _ensure_schema(
        out.map_batches(
            lambda t: t.select(["window_start", "event_type", "n", "rn"]),
            batch_format="pyarrow",
        ),
        pa.schema(
            [
                ("window_start", pa.timestamp("us")),
                ("event_type", pa.string()),
                ("n", pa.int64()),
                ("rn", pa.int64()),
            ]
        ),
    )
