"""runtime.broadcast_or_semijoin / guarded_broadcast — the shared B5
broadcast-vs-join guard (VERDICT r3 items 1+2).

Covers: path parity (broadcast vs forced left_semi/left_anti join),
NULL-key semantics, empty key sets, driver-array inputs past the
threshold, the guarded_broadcast refusal, and forced-join-path parity
for the two queries the round-3 verdict flagged (q_waiting_orders,
q_top_balance)."""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray.data

from vald import runtime
from vald.runtime import broadcast_or_semijoin, guarded_broadcast

SF = "/root/testdata/sf0.001"


def _tbl():
    return pa.table(
        {
            "k": pa.array([1, 2, 3, 4, 5, None, 7, 8], type=pa.int64()),
            "v": pa.array(list("abcdefgh")),
        }
    )


def _keys_ds():
    return ray.data.from_arrow(
        pa.table({"pk": pa.array([2, 4, 4, None, 8, 100], type=pa.int64())})
    )


def _rows(ds):
    out = ds.to_pandas() if not isinstance(ds, pa.Table) else ds.to_pandas()
    return sorted(
        map(tuple, out.astype(str).values.tolist())
    )


class TestBroadcastOrSemijoin:
    @pytest.mark.parametrize("anti", [False, True])
    def test_path_parity_dataset_keys(self, ray_session, anti):
        ds = ray.data.from_arrow(_tbl())
        a = broadcast_or_semijoin(ds, "k", _keys_ds(), keys_on="pk", anti=anti)
        ds2 = ray.data.from_arrow(_tbl())
        b = broadcast_or_semijoin(
            ds2, "k", _keys_ds(), keys_on="pk", anti=anti, max_broadcast_keys=0
        )
        assert _rows(a) == _rows(b)
        # semantics: members = {2,4,8}; NULL child key is non-member
        # (kept by anti, dropped by semi) — compare on the string col,
        # pandas floats nullable ints
        vs = {r[1] for r in _rows(a)}
        if anti:
            assert vs == {"a", "c", "e", "f", "g"}
        else:
            assert vs == {"b", "d", "h"}

    @pytest.mark.parametrize("anti", [False, True])
    def test_driver_array_over_threshold_joins(self, ray_session, anti):
        # an Arrow-array key set past the threshold must route through
        # the join, never ray.put
        ds = ray.data.from_arrow(_tbl())
        keys = pa.array([2, 4, 8], type=pa.int64())
        out = broadcast_or_semijoin(
            ds, "k", keys, anti=anti, max_broadcast_keys=1
        )
        ref = broadcast_or_semijoin(
            ray.data.from_arrow(_tbl()), "k", keys, anti=anti
        )
        assert _rows(out) == _rows(ref)

    def test_empty_keys(self, ray_session):
        ds = ray.data.from_arrow(_tbl())
        semi = broadcast_or_semijoin(ds, "k", pa.array([], type=pa.int64()))
        assert semi.count() == 0
        anti = broadcast_or_semijoin(
            ray.data.from_arrow(_tbl()), "k", pa.array([], type=pa.int64()), anti=True
        )
        assert anti.count() == 8

    def test_list_and_table_inputs(self, ray_session):
        ds = ray.data.from_arrow(_tbl())
        out = broadcast_or_semijoin(ds, "k", [2, 4, 8])
        assert {r[0] for r in _rows(out)} == {"2", "4", "8"}
        out2 = broadcast_or_semijoin(
            ray.data.from_arrow(_tbl()),
            "k",
            pa.table({"pk": pa.array([2, 4], type=pa.int64())}),
            keys_on="pk",
        )
        assert {r[0] for r in _rows(out2)} == {"2", "4"}


class TestGuardedBroadcast:
    def test_refuses_over_threshold(self, ray_session):
        with pytest.raises(ValueError, match="max_broadcast_keys"):
            guarded_broadcast([1, 2, 3], max_broadcast_keys=2)
        with pytest.raises(ValueError, match="max_broadcast_keys"):
            guarded_broadcast(_keys_ds(), keys_on="pk", max_broadcast_keys=2)

    def test_dedups_and_drops_nulls(self, ray_session):
        import ray as _ray

        ref = guarded_broadcast(_keys_ds(), keys_on="pk")
        arr = _ray.get(ref)
        assert sorted(arr.to_pylist()) == [2, 4, 8, 100]


class TestAugmentByKey:
    """runtime.augment_by_key — the guarded dense-LUT dimension
    broadcast (VERDICT r4 item 3): path parity, left/inner semantics,
    NULL fact keys, fill defaults, sparse (index_in) keys."""

    def _fact(self):
        return ray.data.from_arrow(
            pa.table(
                {
                    "k": pa.array([1, 2, None, 7, 2, 999_999], type=pa.int64()),
                    "x": pa.array(list("abcdef")),
                }
            )
        ).repartition(3)

    def _dim(self):
        return ray.data.from_arrow(
            pa.table(
                {
                    "pk": pa.array([1, 2, 7], type=pa.int64()),
                    "nat": pa.array([10, 20, 70], type=pa.int32()),
                }
            )
        )

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_path_parity(self, ray_session, how):
        from vald.runtime import augment_by_key

        fill = {"nat": -1} if how == "left" else None
        a = _rows(
            augment_by_key(self._fact(), "k", self._dim(), "pk", how=how, fill=fill)
        )
        b = _rows(
            augment_by_key(
                self._fact(), "k", self._dim(), "pk",
                how=how, fill=fill, max_broadcast_keys=0,
            )
        )
        assert a == b and len(a) > 0
        if how == "inner":
            # NULL key and non-member key dropped
            assert len(a) == 4
        else:
            assert len(a) == 6  # everything kept, fill applied

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_null_keys_route_parity(self, ray_session, how):
        # a NULL fact key matches nothing on every route, not even a
        # NULL dimension key (the index_in probe used to match it)
        from vald.runtime import augment_by_key

        dim = ray.data.from_arrow(
            pa.table(
                {
                    "pk": pa.array([1, 2, 7, None], type=pa.int64()),
                    "nat": pa.array([10, 20, 70, 99], type=pa.int32()),
                }
            )
        )
        routes = {
            "dense_lut": {},
            "index_in": {"dense_lut_cap": 0},
            "join": {"max_broadcast_keys": 0},
        }
        outs = {
            name: _rows(augment_by_key(self._fact(), "k", dim, "pk", how=how, **kw))
            for name, kw in routes.items()
        }
        assert outs["dense_lut"] == outs["index_in"] == outs["join"]
        df = augment_by_key(self._fact(), "k", dim, "pk", how=how).to_pandas()
        assert 99 not in df["nat"].tolist()
        assert len(df) == (4 if how == "inner" else 6)

    def test_sparse_keys_index_in_path(self, ray_session):
        from vald.runtime import augment_by_key

        dim = ray.data.from_arrow(
            pa.table(
                {
                    "pk": pa.array([1, 2**40], type=pa.int64()),
                    "v": pa.array([1.5, 2.5]),
                }
            )
        )
        fact = ray.data.from_arrow(
            pa.table({"k": pa.array([2**40, 1, 3], type=pa.int64())})
        )
        out = augment_by_key(fact, "k", dim, "pk", how="inner").to_pandas()
        assert sorted(out["v"].tolist()) == [1.5, 2.5]

    def test_empty_dim(self, ray_session):
        from vald.runtime import augment_by_key

        # schema'd empty (map-produced 0-row blocks keep their columns —
        # the documented dim contract; a bare row-filter loses them)
        dim = self._dim().map_batches(
            lambda t: t.slice(0, 0), batch_format="pyarrow"
        )
        inner = augment_by_key(self._fact(), "k", dim, "pk", how="inner")
        assert inner.count() == 0
        left = augment_by_key(
            self._fact(), "k", dim, "pk", how="left", fill={"nat": 0}
        ).to_pandas()
        assert len(left) == 6 and (left["nat"] == 0).all()


class TestFlaggedQueriesForcedJoinPath:
    """VERDICT r3+r4 'done' criterion: every flagged query produces
    identical output when the broadcast threshold is forced to 0 —
    r3's key-set broadcasts and r4's dense-LUT dimension maps
    (q_revenue_by_nation / q_trade_volume / q_market_share)."""

    @pytest.mark.parametrize(
        "qname",
        [
            "q_waiting_orders",
            "q_top_balance",
            "q_revenue_by_nation",
            "q_trade_volume",
            "q_market_share",
        ],
    )
    def test_forced_join_parity(self, ray_session, qname, monkeypatch):
        from vald import queries as Q

        base = getattr(Q, qname)(SF).to_pandas()
        monkeypatch.setattr(runtime, "DEFAULT_MAX_BROADCAST_KEYS", 0)
        forced = getattr(Q, qname)(SF).to_pandas()
        cols = sorted(base.columns)
        assert sorted(forced.columns) == cols
        a = sorted(map(tuple, base[cols].astype(str).values.tolist()))
        b = sorted(map(tuple, forced[cols].astype(str).values.tolist()))
        assert a == b
        # q_trade_volume's two-nation window is legitimately empty at
        # sf0.001 (nonempty at the sf0.01 driver grade) — parity and
        # schema still checked above
        if qname != "q_trade_volume":
            assert len(a) > 0
