"""End-to-end: synthetic corpus → validate() → verdicts + violations
exactly match the generator's injected ground truth (SURVEY.md §5.2.6a
injection totality, §5.2.6b partition invariance, §5.2.6d null test)."""

import numpy as np
import pyarrow as pa
import pytest

from vald import corpus as C
from vald import pipeline as P
from vald.ir import compile_table_spec

N = 8000
SEED = 42


@pytest.fixture(scope="module")
def result(ray_session):
    ds = C.corpus_dataset(N, SEED, override_num_blocks=8)
    parents = {"repos": C.repos_table(N, SEED)}
    return P.validate(ds, C.CORPUS_SPEC, parents=parents)


def _violas(result) -> set[tuple[str, str]]:
    t = result.violations_table()
    return set(zip(t["constraint_id"].to_pylist(), t["row_ref"].to_pylist()))


def test_injection_totality(result):
    truth = C.truth_table(N, SEED)
    expected = set(zip(truth["constraint_id"].to_pylist(), truth["row_ref"].to_pylist()))
    got = _violas(result)
    assert expected, "generator should inject violations at N=8000"
    missing = expected - got
    extra = got - expected
    assert not missing, f"missing {len(missing)}: {sorted(missing)[:5]}"
    assert not extra, f"extra {len(extra)}: {sorted(extra)[:5]}"


def test_verdicts_fold(result):
    v = result.verdicts_table()
    assert len(v) > 0
    df = v.to_pandas()
    # every constraint with violations must have pass=False rows
    truth = C.truth_table(N, SEED).to_pandas()
    injected_cids = set(truth["constraint_id"])
    for cid in injected_cids:
        sub = df[df.constraint_id == cid]
        assert (~sub["pass"]).any(), f"{cid} should fail somewhere"
        assert sub.n_violations.sum() > 0
    # n_checked for a row constraint ≈ number of non-null rows
    pat = df[df.constraint_id == "corpus.commit.pattern"]
    assert pat.n_checked.sum() == N  # commit never null in the corpus


def test_clean_corpus_null_test(ray_session):
    """Rows with slot >= 8 only → zero violations (SURVEY §5.2.6d)."""
    idx = np.arange(N, dtype=np.uint64)
    slots = C._slots(idx, SEED)
    clean_idx = idx[slots >= C._CLEAN_SLOT]
    t = C.gen_batch(clean_idx, N, SEED)
    import ray.data

    ds = ray.data.from_arrow(t)
    res = P.validate(
        ds, C.CORPUS_SPEC, parents={"repos": C.repos_table(N, SEED)}
    )
    assert len(res.violations_table()) == 0
    assert res.passed()


def test_partition_invariance(ray_session):
    """Same verdict/violation sets at different block counts (§5.2.6b)."""
    small = 3000
    outs = []
    for blocks in (2, 13):
        ds = C.corpus_dataset(small, SEED, override_num_blocks=blocks)
        res = P.validate(
            ds,
            C.CORPUS_SPEC,
            parents={"repos": C.repos_table(small, SEED)},
        )
        vt = res.violations_table()
        outs.append(
            (
                set(zip(vt["constraint_id"].to_pylist(), vt["row_ref"].to_pylist())),
                res.verdicts_table()
                .to_pandas()
                .groupby("constraint_id")[["n_checked", "n_violations"]]
                .sum()
                .to_dict(),
            )
        )
    assert outs[0] == outs[1]


def test_content_sha_invariant(ray_session):
    """B3: engine sha256(content) equals independent recomputation
    (BASELINE.json:16 per-row invariant)."""
    import hashlib

    cs = compile_table_spec(C.CORPUS_SPEC)
    ds = C.corpus_dataset(500, SEED, override_num_blocks=2)
    stamped = P.stamp(ds, cs, sha_of="content")
    df = stamped.to_pandas()
    assert "content_sha" in df.columns and "row_ref" in df.columns
    for _, row in df.sample(25, random_state=0).iterrows():
        assert row.content_sha == hashlib.sha256(row.content.encode()).hexdigest()
    # row_ref matches the canonical template
    r = df.iloc[0]
    assert r.row_ref == f"{r.repo}@{r.commit}:{r['path']}"


def test_validate_empty_input(ray_session):
    """Zero-row input: no verdict rows except plan-time ones, no
    violations, passed() is True — nothing divides by zero."""
    import pyarrow as pa

    import ray.data
    from vald import corpus as C
    from vald import pipeline as P

    empty = C.corpus_dataset(4, 42).limit(0)
    res = P.validate(empty, C.CORPUS_SPEC, parents={"repos": C.repos_table(4, 42)})
    assert res.violations_table().num_rows == 0
    assert res.passed()
