"""Property-based tests (hypothesis): the distributed implementations
must agree with their sequential definitions on ARBITRARY inputs, not
just the fixtures — exact_quantiles vs numpy's quantile_cont, and
watermark_late vs a literal replay of the watermark definition.

Example counts are kept small: each example drives real Ray Dataset
pipelines (~100 ms apiece)."""

from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ray

from vald.aggregates import exact_quantiles
from vald.ops.windows import watermark_late

_SET = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_vals = st.lists(
    st.one_of(
        st.floats(
            min_value=-1e12,
            max_value=1e12,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.none(),
        st.just(float("inf")),
        st.just(float("-inf")),
    ),
    min_size=1,
    max_size=300,
)


@given(vals=_vals, q=st.floats(min_value=0.0, max_value=1.0))
@_SET
def test_exact_quantile_matches_duckdb(ray_session, vals, q):
    """Reference = DuckDB quantile_cont (NOT numpy: numpy's lerp
    NaN-poisons on an infinite bracket endpoint — inf - inf — where
    both DuckDB and exact_quantiles return the infinite endpoint)."""
    import duckdb

    clean = [v for v in vals if v is not None]
    if not clean:
        return
    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(vals, type=pa.float64())})
    ).repartition(3)
    got = exact_quantiles(ds, "x", [q], collect_cap=8, buckets=4)[q]
    con = duckdb.connect()
    con.execute("CREATE TABLE t (x DOUBLE)")
    con.executemany("INSERT INTO t VALUES (?)", [(v,) for v in clean])
    # q as a DOUBLE literal: DuckDB parses "0.9999999999999999" as
    # DECIMAL(17,16), which casts to exactly 1.0 (another quantile)
    want = con.execute(f"SELECT quantile_cont(x, {q:.17e}) FROM t").fetchone()[0]
    if np.isfinite(want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
    elif np.isnan(want):  # a -inf..+inf bracket is indeterminate
        assert np.isnan(got)
    else:
        assert got == want  # ±inf endpoints compare exactly


_T0 = datetime(2024, 1, 1)


@given(
    offs=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200
    ),
    delay=st.integers(min_value=0, max_value=5_000),
)
@_SET
def test_watermark_matches_replay(ray_session, offs, delay):
    rows = list(enumerate(offs))  # arrival seq i carries event minute offs[i]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "seq": pa.array([r[0] for r in rows], type=pa.int64()),
                "ts": pa.array(
                    [_T0 + timedelta(minutes=r[1]) for r in rows],
                    type=pa.timestamp("us"),
                ),
            }
        )
    ).repartition(3)
    got = (
        watermark_late(
            ds, "ts", ("seq",), delay=timedelta(minutes=delay), num_buckets=5
        )
        .to_pandas()
        .sort_values("seq")
        .reset_index(drop=True)
    )
    prior = None
    for i, off in rows:
        row = got.loc[i]
        if prior is None:
            assert not row["is_late"]
        else:
            wm = prior - delay
            assert row["watermark"] == _T0 + timedelta(minutes=wm)
            assert bool(row["is_late"]) == (off < wm)
        prior = off if prior is None else max(prior, off)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=120),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    strict=st.booleans(),
)
@_SET
def test_monotonic_matches_pandas_replay(ray_session, keys, seed, strict):
    from vald.ops.stats import monotonic_violations_ds

    rng = np.random.default_rng(seed)
    n = len(keys)
    order = rng.permutation(n)
    vals = rng.integers(-5, 5, n).astype(float)
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "o": pa.array(order, type=pa.int64()),
            "v": pa.array(vals),
        }
    )
    got = (
        monotonic_violations_ds(
            ray.data.from_arrow(t).repartition(3), "k", "o", "v",
            strict=strict, num_buckets=4,
        )
        .to_pandas()
        .astype("int64")
        .sort_values("k")
        .reset_index(drop=True)
    )
    import pandas as pd

    df = t.to_pandas().sort_values(["k", "o"])
    prev = df.groupby("k")["v"].shift(1)
    viol = ((df["v"] <= prev) if strict else (df["v"] < prev)).fillna(False)
    exp = (
        df.assign(viol=viol)
        .groupby("k")
        .agg(n_rows=("v", "size"), n_violations=("viol", "sum"))
        .reset_index()
        .astype("int64")
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "n_rows", "n_violations"]], exp)


# ---------------------------------------------------------------------------
# r5 additions (VERDICT r4 item 7): join/window edge properties —
# asof tolerance boundaries vs pandas merge_asof, range_join closed
# conventions vs a literal double loop, augment_by_key route parity.
# ---------------------------------------------------------------------------


@given(
    lts=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 500)),
        min_size=1, max_size=80,
    ),
    rts=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 500)),
        min_size=1, max_size=80,
    ),
    tol=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    join_type=st.sampled_from(["inner", "left"]),
)
@_SET
def test_asof_matches_merge_asof(ray_session, lts, rts, tol, join_type):
    """asof_join vs pandas merge_asof (backward, allow_exact_matches,
    inclusive tolerance) on arbitrary keyed event times — exercises the
    exact-tie and tolerance-boundary edges. Right (key, ts) pairs are
    deduped so the tie rule ('one of them, unspecified') can't produce
    two legal answers."""
    import pandas as pd

    from vald.ops.joins import asof_join

    rts = sorted(set(rts))
    left = pa.table(
        {
            "k": pa.array([k for k, _ in lts], type=pa.int64()),
            "ts": pa.array(
                [_T0 + timedelta(minutes=m) for _, m in lts],
                type=pa.timestamp("us"),
            ),
            "pid": pa.array(list(range(len(lts))), type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([k for k, _ in rts], type=pa.int64()),
            "ts": pa.array(
                [_T0 + timedelta(minutes=m) for _, m in rts],
                type=pa.timestamp("us"),
            ),
            "v": pa.array([k * 1000 + m for k, m in rts], type=pa.int64()),
        }
    )
    got = asof_join(
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(right).repartition(2),
        by="k",
        ts_col="ts",
        left_cols=["k", "ts", "pid"],
        right_cols={"v": "v"},
        join_type=join_type,
        tolerance=None if tol is None else timedelta(minutes=tol),
        num_buckets=3,
    ).to_pandas()
    want = pd.merge_asof(
        left.to_pandas().sort_values("ts", kind="stable"),
        right.to_pandas().sort_values("ts", kind="stable"),
        on="ts",
        by="k",
        direction="backward",
        allow_exact_matches=True,
        tolerance=None if tol is None else pd.Timedelta(minutes=tol),
    ).sort_values("pid")
    if join_type == "inner":
        want = want[want["v"].notna()]
    want = want.reset_index(drop=True)
    if len(got) == 0:  # empty result loses columns in Ray 2.49
        assert len(want) == 0
        return
    got = got.sort_values("pid").reset_index(drop=True)
    assert got["pid"].tolist() == want["pid"].tolist()
    assert (
        got["v"].astype("float64").fillna(-1).tolist()
        == want["v"].astype("float64").fillna(-1).tolist()
    )


@given(
    pts=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 60)),
        min_size=1, max_size=50,
    ),
    ivs=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 60), st.integers(0, 15)),
        min_size=1, max_size=40,
    ),
    closed=st.sampled_from(["left", "both", "right", "neither"]),
    join_type=st.sampled_from(["inner", "left"]),
)
@_SET
def test_range_join_matches_bruteforce(ray_session, pts, ivs, closed, join_type):
    """range_join vs the literal double loop for every closed
    convention — exercises the boundary-inclusion edges (ts == start,
    ts == end, zero-length intervals)."""
    from vald.ops.joins import range_join

    points = pa.table(
        {
            "k": pa.array([k for k, _ in pts], type=pa.int64()),
            "ts": pa.array(
                [_T0 + timedelta(minutes=m) for _, m in pts],
                type=pa.timestamp("us"),
            ),
            "pid": pa.array(list(range(len(pts))), type=pa.int64()),
        }
    )
    intervals = pa.table(
        {
            "k": pa.array([k for k, _, _ in ivs], type=pa.int64()),
            "s": pa.array(
                [_T0 + timedelta(minutes=s) for _, s, _ in ivs],
                type=pa.timestamp("us"),
            ),
            "e": pa.array(
                [_T0 + timedelta(minutes=s + d) for _, s, d in ivs],
                type=pa.timestamp("us"),
            ),
            "iid": pa.array(list(range(len(ivs))), type=pa.int64()),
        }
    )
    got = (
        range_join(
            ray.data.from_arrow(points).repartition(3),
            ray.data.from_arrow(intervals).repartition(2),
            by="k",
            ts_col="ts",
            start_col="s",
            end_col="e",
            point_cols=["k", "ts", "pid"],
            interval_cols={"iid": "iid"},
            join_type=join_type,
            closed=closed,
            num_buckets=3,
        )
        .to_pandas()
    )
    got_pairs = (
        []
        if len(got) == 0  # empty result loses columns in Ray 2.49
        else sorted(
            (int(r.pid), -1 if pd_isna(r.iid) else int(r.iid))
            for r in got.itertuples()
        )
    )
    ops = {
        "left": lambda s, ts, e: s <= ts < e,
        "both": lambda s, ts, e: s <= ts <= e,
        "right": lambda s, ts, e: s < ts <= e,
        "neither": lambda s, ts, e: s < ts < e,
    }[closed]
    want_pairs = []
    for pid, (pk, pm) in enumerate(pts):
        hits = [
            iid
            for iid, (ik, s, d) in enumerate(ivs)
            if ik == pk and ops(s, pm, s + d)
        ]
        if hits:
            want_pairs.extend((pid, iid) for iid in hits)
        elif join_type == "left":
            want_pairs.append((pid, -1))
    assert got_pairs == sorted(want_pairs)


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


@given(
    fkeys=st.lists(
        st.one_of(st.integers(0, 20), st.none()), min_size=1, max_size=100
    ),
    dkeys=st.sets(st.integers(0, 20), min_size=0, max_size=15),
    how=st.sampled_from(["inner", "left"]),
)
@_SET
def test_augment_by_key_route_parity(ray_session, fkeys, dkeys, how):
    """broadcast (dense-LUT) and forced-join routes of augment_by_key
    must agree on arbitrary fact/dim key sets, including NULL fact keys
    and non-member keys."""
    import pandas as pd

    from vald.runtime import augment_by_key

    fact_t = pa.table(
        {
            "k": pa.array(fkeys, type=pa.int64()),
            "rid": pa.array(list(range(len(fkeys))), type=pa.int64()),
        }
    )
    dim_t = pa.table(
        {
            "pk": pa.array(sorted(dkeys), type=pa.int64()),
            "val": pa.array([k * 7 for k in sorted(dkeys)], type=pa.int64()),
        }
    )
    if not dkeys and how == "left":
        return  # all-empty dim loses Dataset schema; covered by unit test

    def run(mbk):
        out = augment_by_key(
            ray.data.from_arrow(fact_t).repartition(3),
            "k",
            ray.data.from_arrow(dim_t),
            "pk",
            how=how,
            fill={"val": -1} if how == "left" else None,
            max_broadcast_keys=mbk,
        ).to_pandas()
        return sorted(
            map(tuple, out.astype("float64").fillna(-9).values.tolist())
        )

    assert run(None) == run(0)


@given(
    iv=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 30)),
        min_size=1, max_size=80,
    ),
)
@_SET
def test_interval_concurrency_matches_sweep(ray_session, iv):
    """interval_concurrency_ds vs the literal sorted sweep on arbitrary
    [s, s+d) intervals (zero-length included)."""
    from vald.ops.windows import interval_concurrency_ds

    rows = [(s, s + d) for s, d in iv]
    t = pa.table(
        {
            "s": pa.array(
                [_T0 + timedelta(minutes=s) for s, _ in rows],
                type=pa.timestamp("us"),
            ),
            "e": pa.array(
                [_T0 + timedelta(minutes=e) for _, e in rows],
                type=pa.timestamp("us"),
            ),
        }
    )
    got = interval_concurrency_ds(
        ray.data.from_arrow(t).repartition(3), "s", "e", num_buckets=4
    ).to_pandas()
    evs = sorted(
        [(s, 1) for s, _ in rows] + [(e, -1) for _, e in rows]
    )  # (t, d): -1 before +1 at equal t
    run, best, at = 0, 0, None
    for tt, d in evs:
        run += d
        if run > best:
            best, at = run, tt
    assert int(got.loc[0, "max_concurrency"]) == best
    if best > 0:
        assert got.loc[0, "at"] == _T0 + timedelta(minutes=at)


@given(
    keys=st.lists(st.integers(0, 4), min_size=1, max_size=150),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@_SET
def test_group_percent_rank_matches_pandas(ray_session, keys, seed):
    import pandas as pd

    from vald.ops.rank import group_percent_rank

    rng = np.random.default_rng(seed)
    n = len(keys)
    vals = rng.integers(0, 6, n).astype(float)  # heavy ties
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "v": pa.array(vals),
            "i": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    got = (
        group_percent_rank(
            ray.data.from_arrow(t).repartition(3), "k", "v",
            carry_cols=("i",), num_buckets=3,
        )
        .to_pandas()
        .sort_values("i")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    grp = df.groupby("k")["v"]
    want = ((grp.rank(method="min") - 1) / (grp.transform("size") - 1)).fillna(0.0)
    assert np.allclose(got["pct_rank"].to_numpy(), want.to_numpy()[got["i"]])
