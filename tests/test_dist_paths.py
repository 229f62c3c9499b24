"""B5 anti-join refint path + B8 salted rollups — the alternate
distributed strategies not exercised by the flagship (which uses the
broadcast path)."""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from vald import constraints_dist as cd
from vald import corpus as C
from vald.ir import compile_table_spec


def test_refint_anti_join_matches_broadcast_counts(ray_session):
    n = 4000
    cs = compile_table_spec(C.CORPUS_SPEC)
    dist = [d for d in cs.dist_checks if d.kind == "refint"][0]
    child = C.corpus_dataset(n, 42, override_num_blocks=4)
    parent = ray.data.from_arrow(C.repos_table(n, 42))
    out = cd.refint_anti_join_results(child, parent, cs, dist).to_pandas()

    partials = out[~out.is_violation]
    viols = out[out.is_violation]
    # ghost repos injected at slot 6 (~0.1%): violations exist and the
    # violation count equals the number of slot-6 rows
    idx = np.arange(n, dtype=np.uint64)
    slots = C._slots(idx, 42)
    n_ghost_rows = int((slots == 6).sum())
    assert partials.n_violations.sum() == n_ghost_rows
    assert (viols.observed.astype(int).sum()) == n_ghost_rows
    assert all(r.startswith("ghost/") for r in viols.row_ref)
    # n_checked covers every non-null child key
    assert partials.n_checked.sum() == n


def test_salted_group_counts(ray_session):
    n = 5000
    ds = C.corpus_dataset(n, 42, override_num_blocks=4)
    out = cd.salted_group_counts(ds, "repo", num_salts=8).to_pandas()
    assert out.cnt.sum() == n
    # matches a direct pandas count
    import pyarrow.parquet  # noqa: F401

    direct = (
        C.gen_batch(np.arange(n, dtype=np.uint64), n, 42)
        .to_pandas()
        .groupby("repo")
        .size()
    )
    merged = out.set_index("repo").cnt.sort_index()
    assert (merged == direct.sort_index()).all()
    # the corpus is Zipf-skewed: hot repo holds a large share
    assert merged.max() > n * 0.05


def test_validate_routes_refint_through_anti_join(ray_session):
    """VERDICT r1 item 3: validate() must reach the fused anti-join path
    (strategy forced AND auto-threshold), with verdicts identical to the
    broadcast path."""
    import copy

    from vald import pipeline as P

    n = 6000
    parents_tbl = C.repos_table(n, 42)

    def run(spec, parents):
        res = P.validate(
            C.corpus_dataset(n, 42, override_num_blocks=4), spec, parents=parents
        )
        return (
            res.verdicts_table()
            .to_pandas()
            .sort_values(["constraint_id", "partition_id"])
            .reset_index(drop=True)
        )

    base = run(C.CORPUS_SPEC, {"repos": parents_tbl})

    # forced strategy on a Dataset parent
    spec_forced = copy.deepcopy(C.CORPUS_SPEC)
    for ch in spec_forced["checks"]:
        if ch.get("kind") == "refint":
            ch["strategy"] = "anti_join"
    forced = run(spec_forced, {"repos": ray.data.from_arrow(parents_tbl)})
    assert base.equals(forced)

    # auto routing: threshold below the parent row count
    spec_auto = copy.deepcopy(C.CORPUS_SPEC)
    for ch in spec_auto["checks"]:
        if ch.get("kind") == "refint":
            ch["max_broadcast_keys"] = 1  # any real parent exceeds this
    auto = run(spec_auto, {"repos": ray.data.from_arrow(parents_tbl)})
    assert base.equals(auto)


def test_fused_unique_hash_first_matches_full_fallback(ray_session):
    """r2 hash-first uniqueness (opt-in light shuffle + candidate
    refinement) must produce identical verdicts AND violations to the
    default ref-carrying full shuffle, on a dup-heavy corpus — and so
    must its extreme-duplication fallback. Specs do not expose the
    strategy; it is set on the compiled unique check."""
    from vald import constraints_dist as cd
    from vald import pipeline as P

    n = 8000

    def run(strategy=None, max_cand=5_000_000):
        spec = compile_table_spec(C.CORPUS_SPEC)
        if strategy:
            for d in spec.dist_checks:
                if d.kind == "unique":
                    d.params["unique_strategy"] = strategy
        orig = cd.fused_unique_results

        def patched(raw, cs, dists, max_candidate_broadcast=max_cand):
            return orig(raw, cs, dists, max_candidate_broadcast=max_cand)

        cd.fused_unique_results = patched
        try:
            res = P.validate(
                C.corpus_dataset(n, 42, override_num_blocks=4),
                spec,
                parents={"repos": C.repos_table(n, 42)},
            )
            verd = (
                res.verdicts_table()
                .to_pandas()
                .sort_values(["constraint_id", "partition_id"])
                .reset_index(drop=True)
            )
            viol = (
                res.violations_table()
                .to_pandas()
                .sort_values(["constraint_id", "row_ref", "column"])
                .reset_index(drop=True)
            )
            return verd, viol
        finally:
            cd.fused_unique_results = orig

    verd_full, viol_full = run()  # default: full shuffle
    verd_hash, viol_hash = run("hash_first")
    verd_fb, viol_fb = run("hash_first", max_cand=0)  # forced fallback
    assert verd_hash.equals(verd_full)
    assert viol_hash.equals(viol_full)
    assert verd_fb.equals(verd_full)
    assert viol_fb.equals(viol_full)
    dup = verd_full[verd_full.constraint_id == "corpus.key.unique"]
    assert dup["n_violations"].sum() > 0


# completeness, cardinality and fd: the dataset-level kinds that share
# the row pass and the unique exchange
_EXTRA_CHECKS = [
    {"kind": "completeness", "column": "path", "max_null_rate": 0.01},
    {"kind": "cardinality", "column": "lang", "group_by": "repo", "min_distinct": 1},
    {"kind": "fd", "columns": ["repo", "path"], "dependent": "lang"},
]


@ray.remote
class _Counter:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1

    def get(self):
        return self.n


@pytest.mark.parametrize("extra", [False, True], ids=["corpus_spec", "plus_fused_kinds"])
def test_validate_reads_input_once(ray_session, extra):
    """validate() calls the input's last map exactly once per block: the
    fused kinds ride the row pass instead of re-reading the input."""
    from vald import pipeline as P

    n = 2000
    ds = C.corpus_dataset(n, 42, override_num_blocks=7).materialize()
    counter = _Counter.remote()

    def tap(t: pa.Table) -> pa.Table:
        ray.get(counter.bump.remote())
        return t

    tapped = ds.map_batches(
        tap, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    checks = list(C.CORPUS_SPEC["checks"]) + (_EXTRA_CHECKS if extra else [])
    res = P.validate(
        tapped,
        {**C.CORPUS_SPEC, "checks": checks},
        parents={"repos": C.repos_table(n, 42)},
    )
    v = res.verdicts_table()
    assert len(v) > 0
    assert ray.get(counter.get.remote()) == ds.num_blocks()


def test_bucketed_group_agg_matches_named_aggregate(ray_session):
    """bucketed_group_agg is exact: same groups/values as Ray's named
    aggregate, invariant to the bucket count, null keys grouped."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from vald.runtime import bucketed_group_agg

    rng = np.random.RandomState(7)
    keys = rng.randint(0, 5000, size=20_000)
    sub = rng.choice(["a", "b", None], size=20_000)
    vals = rng.randint(0, 100, size=20_000)
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "s": pa.array(sub),
            "v": pa.array(vals, type=pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)

    # reference: one-table Arrow hash aggregate (Ray's named aggregate
    # itself CRASHES on a null string key — numpy object sort — which
    # the bucketed shape also fixes)
    ref = (
        t.group_by(["k", "s"], use_threads=False)
        .aggregate([("v", "sum")])
        .rename_columns(["k", "s", "v"])
        .to_pandas()
        .fillna({"s": "<null>"})
        .sort_values(["k", "s"])
        .reset_index(drop=True)
    )
    for nb in (4, 64):
        got = (
            bucketed_group_agg(ds, ["k", "s"], [("v", "sum")], num_buckets=nb)
            .to_pandas()
            .fillna({"s": "<null>"})
            .sort_values(["k", "s"])
            .reset_index(drop=True)[ref.columns.tolist()]
        )
        assert got.equals(ref), f"num_buckets={nb} diverged"

    # empty-aggs form = exact distinct
    dist = (
        bucketed_group_agg(ds, "k", [], num_buckets=16)
        .to_pandas()["k"]
        .sort_values()
        .to_numpy()
    )
    assert (dist == np.unique(keys)).all()
