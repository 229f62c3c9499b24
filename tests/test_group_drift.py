"""Per-group drift (VERDICT r3 item 5): fire/null directions, the
new-group rule, the exact-twin tolerance (§5.3 — digest KS vs exact
two-sample KS), and validate() integration via kind: group_drift."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data

from vald import drift as D
from vald import pipeline as P
from vald.ir import compile_table_spec


def _corpus(shift: dict[str, float] | None = None, n_per: int = 600, seed: int = 5):
    """3 language groups with distinct but fixed value distributions;
    ``shift`` adds an offset to named groups."""
    rng = np.random.default_rng(seed)
    langs, vals = [], []
    for li, lang in enumerate(["en", "de", "fr"]):
        v = rng.normal(loc=10.0 * (li + 1), scale=2.0, size=n_per)
        v += (shift or {}).get(lang, 0.0)
        langs.extend([lang] * n_per)
        vals.append(v)
    return pa.table(
        {
            "lang": pa.array(langs),
            "v": pa.array(np.concatenate(vals), type=pa.float64()),
        }
    )


class TestGroupDriftStats:
    def test_null_direction_no_fire(self, ray_session):
        base = D.build_group_baseline(
            ray.data.from_arrow(_corpus(seed=5)), "lang", ["v"]
        )
        cur = ray.data.from_arrow(_corpus(seed=6)).repartition(3)
        out = D.group_drift_stats(cur, "lang", base, ["v"]).to_pandas()
        assert len(out) == 3
        assert not out["fired"].any()

    def test_fires_only_on_shifted_group(self, ray_session):
        base = D.build_group_baseline(
            ray.data.from_arrow(_corpus(seed=5)), "lang", ["v"]
        )
        cur = ray.data.from_arrow(_corpus(shift={"de": 6.0}, seed=6)).repartition(3)
        out = D.group_drift_stats(cur, "lang", base, ["v"]).to_pandas()
        fired = set(out[out["fired"]]["group"])
        assert fired == {"de"}

    def test_new_group_fires(self, ray_session):
        base = D.build_group_baseline(
            ray.data.from_arrow(_corpus(seed=5)), "lang", ["v"]
        )
        extra = pa.table(
            {
                "lang": pa.array(["zh"] * 50),
                "v": pa.array(np.linspace(0, 1, 50), type=pa.float64()),
            }
        )
        cur = ray.data.from_arrow(pa.concat_tables([_corpus(seed=6), extra]))
        out = D.group_drift_stats(cur, "lang", base, ["v"]).to_pandas()
        zh = out[out["group"] == "zh"]
        assert len(zh) == 1 and bool(zh["fired"].iloc[0])
        assert np.isinf(zh["ks"].iloc[0])

    def test_categorical_group_psi(self, ray_session):
        rng = np.random.default_rng(9)
        t_base = pa.table(
            {
                "lang": pa.array(["en"] * 400),
                "cat": pa.array(rng.choice(["a", "b"], 400, p=[0.5, 0.5])),
            }
        )
        base = D.build_group_baseline(
            ray.data.from_arrow(t_base), "lang", [], ["cat"]
        )
        t_cur = pa.table(
            {
                "lang": pa.array(["en"] * 400),
                "cat": pa.array(rng.choice(["a", "b"], 400, p=[0.95, 0.05])),
            }
        )
        out = D.group_drift_stats(
            ray.data.from_arrow(t_cur), "lang", base, [], ["cat"]
        ).to_pandas()
        assert bool(out["fired"].iloc[0])

    def test_exact_twin_tolerance(self, ray_session):
        """§5.3: the digest-grid KS must track the exact two-sample KS
        within a small absolute tolerance."""
        t_base = _corpus(seed=5)
        t_cur = _corpus(shift={"de": 3.0}, seed=6)
        base = D.build_group_baseline(ray.data.from_arrow(t_base), "lang", ["v"])
        out = (
            D.group_drift_stats(
                ray.data.from_arrow(t_cur).repartition(4), "lang", base, ["v"]
            )
            .to_pandas()
            .set_index("group")
        )
        bdf = t_base.to_pandas()
        cdf = t_cur.to_pandas()
        for lang in ["en", "de", "fr"]:
            a = np.sort(bdf[bdf["lang"] == lang]["v"].to_numpy())
            b = np.sort(cdf[cdf["lang"] == lang]["v"].to_numpy())
            grid = np.union1d(a, b)
            ks_exact = float(
                np.abs(
                    np.searchsorted(a, grid, side="right") / len(a)
                    - np.searchsorted(b, grid, side="right") / len(b)
                ).max()
            )
            assert abs(out.loc[lang, "ks"] - ks_exact) < 0.05, lang

    def test_parallelism_invariant_verdicts(self, ray_session):
        base = D.build_group_baseline(
            ray.data.from_arrow(_corpus(seed=5)), "lang", ["v"]
        )
        t_cur = _corpus(shift={"de": 6.0}, seed=6)
        fired = []
        for parts in (1, 6):
            out = D.group_drift_stats(
                ray.data.from_arrow(t_cur).repartition(parts), "lang", base, ["v"]
            ).to_pandas()
            fired.append(tuple(sorted(out[out["fired"]]["group"])))
        assert fired[0] == fired[1] == ("de",)


class TestGroupDriftCheck:
    def _spec(self, base):
        return compile_table_spec(
            {
                "table": "t",
                "columns": {},
                "num_partitions": 8,
                "checks": [
                    {
                        "kind": "group_drift",
                        "group_by": "lang",
                        "columns": ["v"],
                        "baseline_table": base,
                    }
                ],
            }
        )

    def test_validate_fire_and_null(self, ray_session):
        base = D.build_group_baseline(
            ray.data.from_arrow(_corpus(seed=5)), "lang", ["v"]
        )
        cid = "t.lang.group_drift.v"

        res = P.validate(
            ray.data.from_arrow(_corpus(seed=6)).repartition(3),
            self._spec(base),
        )
        v = res.verdicts_table()
        rows = v.filter(pc.equal(v["constraint_id"], cid))
        assert int(pc.sum(rows["n_violations"]).as_py() or 0) == 0

        res2 = P.validate(
            ray.data.from_arrow(_corpus(shift={"de": 6.0}, seed=6)).repartition(3),
            self._spec(base),
        )
        v2 = res2.verdicts_table()
        rows2 = v2.filter(pc.equal(v2["constraint_id"], cid))
        assert int(pc.sum(rows2["n_violations"]).as_py() or 0) == 1
        viol = res2.violations_table()
        ex = viol.filter(pc.equal(viol["constraint_id"], cid))
        assert len(ex) == 1
        assert ex["row_ref"][0].as_py() == "group=de"


class TestGroupKsExact:
    """drift.group_ks_exact — the oracle-checkable §5.3 exact twin."""

    def _brute(self, ta, tb):
        import pandas as pd

        da, db = ta.to_pandas(), tb.to_pandas()
        out = {}
        for lang in sorted(set(da["lang"]) | set(db["lang"])):
            a = np.sort(da[da["lang"] == lang]["v"].to_numpy())
            b = np.sort(db[db["lang"] == lang]["v"].to_numpy())
            grid = np.union1d(a, b)
            fa = np.searchsorted(a, grid, side="right") / max(len(a), 1)
            fb = np.searchsorted(b, grid, side="right") / max(len(b), 1)
            out[lang] = float(np.abs(fa - fb).max())
        return out

    def _tables(self, seed):
        rng = np.random.default_rng(seed)
        def mk(shift):
            langs = rng.choice(["en", "de", "fr"], 300)
            v = rng.integers(0, 50, 300).astype(float)
            v[langs == "de"] += shift
            return pa.table({"lang": pa.array(langs), "v": pa.array(v)})
        return mk(0.0), mk(7.0)

    @pytest.mark.parametrize("buckets", [1, 16])
    def test_matches_bruteforce_and_bucket_invariant(self, ray_session, buckets):
        from vald.drift import group_ks_exact

        ta, tb = self._tables(3)
        out = group_ks_exact(
            ray.data.from_arrow(ta).repartition(3),
            ray.data.from_arrow(tb).repartition(2),
            "lang",
            "v",
            num_buckets=buckets,
        ).to_pandas()
        want = self._brute(ta, tb)
        got = dict(zip(out["group"], out["ks"]))
        assert set(got) == set(want)
        for k in want:
            assert abs(got[k] - want[k]) < 1e-12, k

    def test_exact_twin_tracks_digest_ks(self, ray_session):
        """§5.3 duality: the sketched group_drift ks must sit within
        tolerance of this exact statistic on the same data."""
        from vald import drift as D

        base_t = _corpus(seed=5)
        cur_t = _corpus(shift={"de": 3.0}, seed=6)
        base = D.build_group_baseline(ray.data.from_arrow(base_t), "lang", ["v"])
        sk = (
            D.group_drift_stats(ray.data.from_arrow(cur_t), "lang", base, ["v"])
            .to_pandas()
            .set_index("group")["ks"]
        )
        exact = D.group_ks_exact(
            ray.data.from_arrow(base_t), ray.data.from_arrow(cur_t), "lang", "v"
        ).to_pandas().set_index("group")["ks"]
        for lang in ["en", "de", "fr"]:
            assert abs(sk[lang] - exact[lang]) < 0.05, lang
