"""vald.ops.windows (SURVEY.md §2 B18 as library operators, VERDICT r2
item 2): parameterized tumbling / sliding / session windows, data-scaled
partitioning, and the partition-invariance contract (bucket count never
changes results)."""

from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from vald.ops.windows import sessionize, sliding_window, tumbling_window

T0 = datetime(2024, 1, 1)


def _events_ds(rows):
    """rows: list of (key, minutes-offset)."""
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([r[0] for r in rows]),
                "ts": pa.array(
                    [T0 + timedelta(minutes=r[1]) for r in rows],
                    type=pa.timestamp("us"),
                ),
            }
        )
    )


def _collect(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_tumbling_counts_match_pandas(ray_session):
    rng = np.random.default_rng(7)
    rows = [(int(k), int(m)) for k, m in zip(rng.integers(0, 3, 200), rng.integers(0, 600, 200))]
    out = _collect(
        tumbling_window(_events_ds(rows), "ts", timedelta(hours=1), key_cols=("k",))
    )
    df = pd.DataFrame(rows, columns=["k", "m"])
    df["ts"] = pd.to_datetime([T0 + timedelta(minutes=int(m)) for m in df["m"]])
    exp = (
        df.groupby([df["ts"].dt.floor("1h"), "k"])
        .size()
        .rename("n")
        .reset_index()
        .rename(columns={"ts": "window_start"})
    )
    exp = exp[["window_start", "k", "n"]].sort_values(
        ["window_start", "k", "n"]
    ).reset_index(drop=True)
    got = out[["window_start", "k", "n"]].sort_values(
        ["window_start", "k", "n"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64"}), exp.astype({"n": "int64"}), check_dtype=False
    )


def test_sliding_nondividing_slide(ray_session):
    # window 90 min, slide 60 min: events land in 1 or 2 windows
    # depending on position inside the hour — brute-force check
    rows = [(0, m) for m in [0, 10, 29, 30, 31, 59, 60, 95, 125, 300]]
    out = _collect(sliding_window(_events_ds(rows), "ts", timedelta(minutes=90), timedelta(minutes=60)))
    w, s = 90 * 60_000_000, 60 * 60_000_000
    expected: dict[int, int] = {}
    for _, m in rows:
        t = int((T0 + timedelta(minutes=m) - datetime(1970, 1, 1)).total_seconds() * 1e6)
        start = (t // s) * s
        while start > t - w:
            expected[start] = expected.get(start, 0) + 1
            start -= s
    got = {
        int(pd.Timestamp(r.window_start).value // 1000): int(r.n)
        for r in out.itertuples()
    }
    assert got == expected


def test_sliding_rejects_gappy_slide(ray_session):
    with pytest.raises(ValueError):
        sliding_window(_events_ds([(0, 0)]), "ts", timedelta(minutes=30), timedelta(minutes=60))


def _brute_sessions(rows, gap_min):
    df = pd.DataFrame(rows, columns=["k", "m"]).sort_values(["k", "m"])
    out = []
    for k, grp in df.groupby("k", dropna=False):
        sid, start, n, last = 0, None, 0, None
        for m in grp["m"]:
            if last is None or m - last > gap_min:
                if start is not None:
                    out.append((k, sid, start, n))
                sid, start, n = sid + 1, m, 0
            n += 1
            last = m
        out.append((k, sid, start, n))
    return sorted(out)


@pytest.mark.parametrize("buckets", [1, 4, 16])
def test_sessionize_matches_bruteforce_and_bucket_invariant(ray_session, buckets):
    rng = np.random.default_rng(11)
    rows = [
        (int(k), int(m))
        for k, m in zip(rng.integers(0, 20, 400), np.sort(rng.integers(0, 2000, 400)))
    ]
    out = _collect(
        sessionize(
            _events_ds(rows), "k", "ts", timedelta(minutes=30), num_buckets=buckets
        )
    )
    got = sorted(
        (
            int(r.k),
            int(r.session_id),
            int((pd.Timestamp(r.session_start) - T0).total_seconds() // 60),
            int(r.n_events),
        )
        for r in out.itertuples()
    )
    assert got == _brute_sessions(rows, 30)


def test_sessionize_string_keys_and_null_key_run(ray_session):
    rows = [("a", 0), ("a", 10), ("a", 50), ("b", 0), (None, 0), (None, 5)]
    ds = _events_ds(rows)
    out = _collect(sessionize(ds, "k", "ts", timedelta(minutes=30), num_buckets=3))
    by_key = {}
    for r in out.itertuples():
        key = r.k if isinstance(r.k, str) else None
        by_key.setdefault(key, []).append((int(r.session_id), int(r.n_events)))
    assert sorted(by_key["a"]) == [(1, 2), (2, 1)]  # 0,10 | 50
    assert by_key["b"] == [(1, 1)]
    assert by_key[None] == [(1, 2)]  # null keys form one run


def test_sessionize_data_scaled_default_buckets(ray_session):
    # the default bucket count; the exchange sizes its tasks from rows
    ds = _events_ds([(0, i) for i in range(10)])
    out = sessionize(ds, "k", "ts", timedelta(minutes=30))
    df = _collect(out)
    assert int(df["n_events"].sum()) == 10


def _minutes(*ms):
    return pa.array([T0 + timedelta(minutes=m) for m in ms], type=pa.timestamp("us"))


def test_sessionize_key_bucket_ignores_nulls_in_its_block(ray_session):
    """Key 3's events sit in two blocks, one of which also holds a NULL
    key. Both must hash to one bucket: one session of two events."""
    a = pa.table({"k": pa.array([3, 4], pa.int64()), "ts": _minutes(0, 0)})
    b = pa.table({"k": pa.array([3, None], pa.int64()), "ts": _minutes(10, 0)})
    out = _collect(sessionize(ray.data.from_arrow([a, b]), "k", "ts", timedelta(minutes=30)))
    got = {
        (None if pd.isna(r.k) else int(r.k), int(r.session_id), int(r.n_events))
        for r in out.itertuples()
    }
    assert got == {(3, 1, 2), (4, 1, 1), (None, 1, 1)}


def test_asof_key_bucket_ignores_nulls_in_its_block(ray_session):
    """The same shape for ``asof_join``: key 3's right row shares a
    block with a NULL key and must still meet its left row."""
    from vald.ops.joins import asof_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([3, 4], pa.int64()), "ts": _minutes(10, 10)})
    )
    right = ray.data.from_arrow(
        [
            pa.table({"k": pa.array([4], pa.int64()), "ts": _minutes(0), "v": [1.0]}),
            pa.table({"k": pa.array([3, None], pa.int64()), "ts": _minutes(0, 0), "v": [2.0, 3.0]}),
        ]
    )
    out = asof_join(
        left, right, by="k", ts_col="ts", left_cols=["k", "ts"], right_cols={"v": "rv"}
    ).to_pandas()
    assert sorted(zip(out["k"].tolist(), out["rv"].tolist())) == [(3, 2.0), (4, 1.0)]


@pytest.mark.parametrize("buckets", [1, 7])
def test_cumulative_matches_pandas_and_bucket_invariant(ray_session, buckets):
    from vald.ops.windows import cumulative

    rng = np.random.RandomState(3)
    n = 500
    keys = rng.randint(0, 20, size=n)
    # duplicate timestamps force the (ts, eid) total-order tiebreak
    mins = rng.randint(0, 50, size=n)
    vals = rng.uniform(-5, 5, size=n).round(3)
    eid = np.arange(n, dtype=np.int64)
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "ts": pa.array(
                [T0 + timedelta(minutes=int(m)) for m in mins],
                type=pa.timestamp("us"),
            ),
            "eid": pa.array(eid),
            "v": pa.array(vals, type=pa.float64()),
        }
    )
    out = (
        cumulative(
            ray.data.from_arrow(t).repartition(4),
            "k",
            ("ts", "eid"),
            "v",
            num_buckets=buckets,
        )
        .to_pandas()
        .sort_values(["k", "ts", "eid"])
        .reset_index(drop=True)
    )
    ref = (
        t.to_pandas()
        .sort_values(["k", "ts", "eid"])
        .reset_index(drop=True)
        .assign(
            cum_n=lambda d: d.groupby("k").cumcount() + 1,
            cum_sum=lambda d: d.groupby("k")["v"].cumsum(),
        )
    )
    assert (out["cum_n"].to_numpy() == ref["cum_n"].to_numpy()).all()
    assert np.allclose(out["cum_sum"].to_numpy(), ref["cum_sum"].to_numpy())
    assert (out["eid"].to_numpy() == ref["eid"].to_numpy()).all()


def test_cumulative_null_val_counts_zero(ray_session):
    from vald.ops.windows import cumulative

    t = pa.table(
        {
            "k": pa.array([1, 1, 1], type=pa.int64()),
            "ts": pa.array(
                [T0, T0 + timedelta(minutes=1), T0 + timedelta(minutes=2)],
                type=pa.timestamp("us"),
            ),
            "eid": pa.array([0, 1, 2], type=pa.int64()),
            "v": pa.array([2.0, None, 3.0], type=pa.float64()),
        }
    )
    out = (
        cumulative(ray.data.from_arrow(t), "k", ("ts", "eid"), "v", num_buckets=2)
        .to_pandas()
        .sort_values("eid")
    )
    assert out["cum_sum"].tolist() == [2.0, 2.0, 5.0]
    assert out["cum_n"].tolist() == [1, 2, 3]


@pytest.mark.parametrize("buckets", [2, 7])
def test_lagged_matches_pandas_and_bucket_invariant(ray_session, buckets):
    from vald.ops.windows import lagged

    rng = np.random.default_rng(11)
    n = 400
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 12, n),
            "ts": rng.integers(0, 10_000, n),
            "eid": np.arange(n),
            "v": rng.normal(size=n),
        }
    )
    t = pa.table(
        {
            "k": pa.array(df.k, type=pa.int64()),
            "ts": pa.array(df.ts, type=pa.int64()),
            "eid": pa.array(df.eid, type=pa.int64()),
            "v": pa.array(df.v, type=pa.float64()),
        }
    )
    out = (
        lagged(
            ray.data.from_arrow(t), "k", ("ts", "eid"), "v", num_buckets=buckets
        )
        .to_pandas()
        .sort_values(["k", "ts", "eid"])
        .reset_index(drop=True)
    )
    ref = df.sort_values(["k", "ts", "eid"]).reset_index(drop=True)
    ref["lag_v"] = ref.groupby("k")["v"].shift(1)
    assert (out["eid"].to_numpy() == ref["eid"].to_numpy()).all()
    assert np.allclose(
        out["lag_v"].to_numpy(), ref["lag_v"].to_numpy(), equal_nan=True
    )


def test_lagged_lead_and_offset_2(ray_session):
    from vald.ops.windows import lagged

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
            "o": pa.array([1, 2, 3, 4, 1], type=pa.int64()),
            "v": pa.array(["a", "b", "c", "d", "e"], type=pa.string()),
        }
    )
    lead = (
        lagged(ray.data.from_arrow(t), "k", ("o",), "v", offset=-1, num_buckets=2)
        .to_pandas()
        .sort_values(["k", "o"])
    )
    assert lead["lead_v"].tolist() == ["b", "c", "d", None, None]
    two = (
        lagged(ray.data.from_arrow(t), "k", ("o",), "v", offset=2, num_buckets=2)
        .to_pandas()
        .sort_values(["k", "o"])
    )
    assert two["lag_v"].tolist() == [None, None, "a", "b", None]
    with pytest.raises(ValueError):
        lagged(ray.data.from_arrow(t), "k", ("o",), "v", offset=0)


@pytest.mark.parametrize("buckets", [2, 7])
def test_rolling_matches_pandas_and_bucket_invariant(ray_session, buckets):
    from vald.ops.windows import rolling

    rng = np.random.RandomState(11)
    n = 400
    keys = rng.randint(0, 15, size=n)
    mins = rng.randint(0, 40, size=n)  # duplicate ts → (ts, eid) tiebreak
    vals = rng.uniform(-5, 5, size=n).round(3)
    eid = np.arange(n, dtype=np.int64)
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "ts": pa.array(
                [T0 + timedelta(minutes=int(m)) for m in mins],
                type=pa.timestamp("us"),
            ),
            "eid": pa.array(eid),
            "v": pa.array(vals, type=pa.float64()),
        }
    )
    out = (
        rolling(
            ray.data.from_arrow(t).repartition(4),
            "k",
            ("ts", "eid"),
            "v",
            frame_rows=5,
            num_buckets=buckets,
        )
        .to_pandas()
        .sort_values(["k", "ts", "eid"])
        .reset_index(drop=True)
    )
    ref = t.to_pandas().sort_values(["k", "ts", "eid"]).reset_index(drop=True)
    g = ref.groupby("k")["v"]
    ref["roll_sum"] = g.transform(lambda s: s.rolling(5, min_periods=1).sum())
    ref["roll_n"] = g.transform(lambda s: s.rolling(5, min_periods=1).count())
    assert (out["eid"].to_numpy() == ref["eid"].to_numpy()).all()
    assert (out["roll_n"].to_numpy() == ref["roll_n"].to_numpy()).all()
    assert np.allclose(out["roll_sum"].to_numpy(), ref["roll_sum"].to_numpy())


def test_rolling_null_val_and_frame_1(ray_session):
    from vald.ops.windows import rolling

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], type=pa.int64()),
            "o": pa.array([0, 1, 2, 0], type=pa.int64()),
            "v": pa.array([2.0, None, 3.0, 7.0], type=pa.float64()),
        }
    )
    out = (
        rolling(ray.data.from_arrow(t), "k", ("o",), "v", frame_rows=2, num_buckets=2)
        .to_pandas()
        .sort_values(["k", "o"])
    )
    # NULL counts as 0 in the sum but still occupies a frame slot
    assert out["roll_sum"].tolist() == [2.0, 2.0, 3.0, 7.0]
    assert out["roll_n"].tolist() == [1, 2, 2, 1]
    one = (
        rolling(ray.data.from_arrow(t), "k", ("o",), "v", frame_rows=1, num_buckets=2)
        .to_pandas()
        .sort_values(["k", "o"])
    )
    assert one["roll_sum"].tolist() == [2.0, 0.0, 3.0, 7.0]
    assert (one["roll_n"] == 1).all()
    with pytest.raises(ValueError):
        rolling(ray.data.from_arrow(t), "k", ("o",), "v", frame_rows=0)


# ---------------------------------------------------------------------------
# rolling_time (r4): SQL RANGE-frame time window incl. peer semantics
# ---------------------------------------------------------------------------


def _rt_brute(df, win_us):
    rows = []
    for k, g in df.groupby("k"):
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        v = g["v"].fillna(0.0).to_numpy()
        order = np.argsort(ts, kind="stable")
        ts, v = ts[order], v[order]
        for i in range(len(ts)):
            m = (ts >= ts[i] - win_us) & (ts <= ts[i])  # peers included
            rows.append((k, ts[i], int(m.sum()), float(v[m].sum())))
    out = pd.DataFrame(rows, columns=["k", "ts_us", "roll_n", "roll_sum"])
    return out.sort_values(["k", "ts_us", "roll_n"]).reset_index(drop=True)


@pytest.mark.parametrize("buckets", [1, 7])
def test_rolling_time_matches_bruteforce_and_bucket_invariant(ray_session, buckets):
    from vald.ops.windows import rolling_time

    rng = np.random.default_rng(11)
    n = 400
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 12, n),
            "ts": [T0 + timedelta(minutes=int(m)) for m in rng.integers(0, 300, n)],
            "v": rng.random(n).round(3),
        }
    )
    # inject ts-peers: duplicate 20 rows exactly (RANGE peer semantics)
    df = pd.concat([df, df.iloc[:20]], ignore_index=True)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(df["k"].astype("int64")),
                "ts": pa.array(df["ts"], type=pa.timestamp("us")),
                "v": pa.array(df["v"], type=pa.float64()),
            }
        )
    ).repartition(4)
    out = rolling_time(
        ds, "k", "ts", "v", window=timedelta(hours=1), num_buckets=buckets
    ).to_pandas()
    out["ts_us"] = out["ts"].astype("datetime64[us]").astype("int64")
    got = (
        out[["k", "ts_us", "roll_n", "roll_sum"]]
        .sort_values(["k", "ts_us", "roll_n"])
        .reset_index(drop=True)
    )
    want = _rt_brute(df, 3_600_000_000)
    assert len(got) == len(want)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["roll_n"].to_numpy() == want["roll_n"].to_numpy()).all()
    assert np.allclose(got["roll_sum"].to_numpy(), want["roll_sum"].to_numpy())


def test_rolling_time_null_policy_and_window_parse(ray_session):
    from vald.ops.windows import rolling_time

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, None], type=pa.int64()),
            "ts": pa.array(
                [T0, T0 + timedelta(minutes=30), T0 + timedelta(minutes=90), T0],
                type=pa.timestamp("us"),
            ),
            "v": pa.array([1.0, None, 4.0, 9.0], type=pa.float64()),
        }
    )
    out = (
        rolling_time(ray.data.from_arrow(t), "k", "ts", "v", window="1h")
        .to_pandas()
        .sort_values("ts")
        .reset_index(drop=True)
    )
    # NULL key row dropped; NULL value counts as 0 in the sum
    assert len(out) == 3
    assert out["roll_n"].tolist() == [1, 2, 2]
    assert out["roll_sum"].tolist() == [1.0, 1.0, 4.0]


class TestIntervalConcurrency:
    """ops.windows.interval_concurrency_ds — distributed sweep line:
    brute-force parity (incl. first-max tiebreak and same-instant
    end-before-start), bucket invariance, empty/degenerate intervals."""

    @staticmethod
    def _brute(iv):
        evs = []
        for s, e in iv:
            evs.append((s, 1))
            evs.append((e, -1))
        evs.sort()  # (t, d): d=-1 sorts before d=1 at equal t
        run, best, at = 0, 0, None
        for t, d in evs:
            run += d
            if run > best:
                best, at = run, t
        return best, at

    def _ds(self, iv, blocks=4):
        from datetime import datetime, timedelta

        T0 = datetime(2024, 1, 1)
        t = pa.table(
            {
                "s": pa.array(
                    [T0 + timedelta(minutes=s) for s, _ in iv],
                    type=pa.timestamp("us"),
                ),
                "e": pa.array(
                    [T0 + timedelta(minutes=e) for _, e in iv],
                    type=pa.timestamp("us"),
                ),
            }
        )
        import ray

        return ray.data.from_arrow(t).repartition(blocks)

    @pytest.mark.parametrize("buckets", [1, 4, 33])
    def test_matches_bruteforce(self, ray_session, buckets):
        from datetime import datetime, timedelta

        from vald.ops.windows import interval_concurrency_ds

        rng = np.random.default_rng(9)
        iv = [
            (int(s), int(s) + int(d))
            for s, d in zip(
                rng.integers(0, 500, 300), rng.integers(0, 50, 300)
            )
        ]
        # same-instant edges: back-to-back (end == next start) never
        # overlaps under the half-open convention
        iv += [(600, 610), (610, 620), (605, 605)]  # incl. empty interval
        got = interval_concurrency_ds(
            self._ds(iv), "s", "e", num_buckets=buckets
        ).to_pandas()
        best, at = self._brute(iv)
        T0 = datetime(2024, 1, 1)
        assert int(got.loc[0, "max_concurrency"]) == best
        assert got.loc[0, "at"] == T0 + timedelta(minutes=at)

    def test_empty_input(self, ray_session):
        from vald.ops.windows import interval_concurrency_ds

        got = interval_concurrency_ds(self._ds([]), "s", "e").to_pandas()
        assert int(got.loc[0, "max_concurrency"]) == 0
        assert pd.isna(got.loc[0, "at"])

    def test_back_to_back_never_two(self, ray_session):
        from vald.ops.windows import interval_concurrency_ds

        got = interval_concurrency_ds(
            self._ds([(0, 10), (10, 20), (20, 30)]), "s", "e"
        ).to_pandas()
        assert int(got.loc[0, "max_concurrency"]) == 1


class TestDenseTumblingCounts:
    """ops.windows.dense_tumbling_counts — gap-fill: every window in
    [min, max] (x every key) present, zeros where nothing happened."""

    def _events(self):
        from datetime import datetime, timedelta

        T0 = datetime(2024, 1, 1)
        # hours 0, 1, 5 for type a; hour 3 for type b; gaps elsewhere
        rows = [("a", 0), ("a", 0), ("a", 1), ("a", 5), ("b", 3)]
        return pa.table(
            {
                "et": pa.array([r[0] for r in rows]),
                "ts": pa.array(
                    [T0 + timedelta(hours=r[1], minutes=7) for r in rows],
                    type=pa.timestamp("us"),
                ),
            }
        )

    def test_keyed_grid(self, ray_session):
        from datetime import timedelta

        import ray

        from vald.ops.windows import dense_tumbling_counts

        out = (
            dense_tumbling_counts(
                ray.data.from_arrow(self._events()).repartition(2),
                "ts",
                timedelta(hours=1),
                key_cols=["et"],
            )
            .to_pandas()
            .sort_values(["et", "window_start"])
            .reset_index(drop=True)
        )
        # 6 hours x 2 types = 12 dense rows
        assert len(out) == 12
        a = out[out["et"] == "a"]["n"].tolist()
        b = out[out["et"] == "b"]["n"].tolist()
        assert a == [2, 1, 0, 0, 0, 1]
        assert b == [0, 0, 0, 1, 0, 0]

    def test_global_grid_and_empty(self, ray_session):
        from datetime import timedelta

        import ray

        from vald.ops.windows import dense_tumbling_counts

        out = (
            dense_tumbling_counts(
                ray.data.from_arrow(self._events()), "ts", timedelta(hours=1)
            )
            .to_pandas()
            .sort_values("window_start")
        )
        # un-keyed: hour 3 holds the type-b event
        assert out["n"].tolist() == [2, 1, 0, 1, 0, 1]
        empty = dense_tumbling_counts(
            ray.data.from_arrow(self._events().slice(0, 0)),
            "ts",
            timedelta(hours=1),
            key_cols=["et"],
        )
        assert empty.count() == 0

    def test_max_keys_refusal(self, ray_session):
        from datetime import timedelta

        import ray

        from vald.ops.windows import dense_tumbling_counts

        with pytest.raises(Exception, match="max_keys"):
            dense_tumbling_counts(
                ray.data.from_arrow(self._events()),
                "ts",
                timedelta(hours=1),
                key_cols=["et"],
                max_keys=1,
            ).to_pandas()
