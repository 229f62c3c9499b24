"""Deduplication operators (exact, MinHash-LSH, SimHash, n-gram
Jaccard) — Ray-Data-first.

Shuffle discipline: nothing here ever moves document bodies through an
all-to-all. Exact dedup shuffles (hash, id) pairs; MinHash shuffles
(band_hash, id, signature) rows; SimHash shuffles (chunk_value, id,
simhash). Candidate pairs are verified where they are grouped; pair
dedup across bands is a distributed groupby on (id_a, id_b).

Near-dup grouping has two paths (documented per SURVEY.md "custom
operators"):

- ``near_dup_groups(pairs_table)`` — driver union-find over VERIFIED
  pairs; correct while the verified-pair count is driver-sized
  (pairs ≈ duplicates, not corpus size).
- ``near_dup_groups_ds(pairs_dataset)`` — fully distributed connected
  components via alternating large-star / small-star rounds
  (the MapReduce CC formulation of Kiveris et al., "Connected
  Components in MapReduce and Beyond", SoCC'14 — public algorithm),
  expressed as map_batches + keyed exchanges; edges never touch the
  driver. Use this when pairs may exceed driver memory (hot
  boilerplate clusters make pairs quadratic in cluster size).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..hashing import bucket_ids, stable_hash64
from ..runtime import bucketed_group_agg, keyed_exchange

__all__ = [
    "exact_dedup",
    "distinct_count",
    "minhash_signatures",
    "minhash_dedup_pairs",
    "minhash_dedup_pairs_ds",
    "near_dup_groups",
    "near_dup_groups_ds",
    "drop_near_dups",
    "simhash_column",
    "simhash_dedup_pairs",
    "simhash_dedup_pairs_ds",
    "ngram_jaccard",
    "jaccard_pairs",
    "jaccard_pairs_ds",
    "line_dedup_ds",
    "dup_span_stats_ds",
]

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# exact dedup (B11): content-hash → bucket groupby → keep first
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: "ray.data.Dataset",
    on: str,
    *,
    id_col: str | None = None,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Drop exact-duplicate rows by the value of ``on`` (e.g. text or a
    precomputed content_sha). Keeps the row with the smallest ``id_col``
    (deterministic across parallelism); without ``id_col``, keeps an
    arbitrary-but-single row per value.

    Plan: ``runtime.keyed_exchange`` on a bucket of the value hash,
    then a keep-min over each sorted block. Document bodies move once (with
    their row), never in the aggregate. TRULY exact: equal-hash runs
    are broken by comparing the actual ``on`` values, so a 64-bit hash
    collision between distinct values cannot drop a live row."""

    def stamp(t: pa.Table) -> pa.Table:
        h = stable_hash64(t[on])
        t = t.append_column("__h", pa.array(h, type=pa.uint64()))
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def keep_first(g: pa.Table) -> pa.Table:
        # sort by (h, value, id): equal values are adjacent within a
        # hash run, and the min id leads each value group
        order = [("__h", "ascending"), (on, "ascending")]
        if id_col is not None:
            order.append((id_col, "ascending"))
        g = g.sort_by(order)
        n = len(g)
        h = g["__h"].to_numpy(zero_copy_only=False)
        first = np.ones(n, dtype=bool)
        if n > 1:
            h_diff = h[1:] != h[:-1]
            vals = g[on]
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            a, b = vals.slice(1), vals.slice(0, n - 1)
            # value difference with null-safe semantics: null == null
            neq = pc.fill_null(pc.not_equal(a, b), False)
            one_null = pc.xor(pc.is_null(a), pc.is_null(b))
            v_diff = np.asarray(
                pc.or_(neq, one_null).to_numpy(zero_copy_only=False), dtype=bool
            )
            first[1:] = h_diff | v_diff
        return g.filter(pa.array(first)).drop_columns(["__h", "__bucket"])

    return keyed_exchange(ds, "__bucket", keep_first, stamp)


def distinct_count(ds: "ray.data.Dataset", on: str, num_buckets: int = 256) -> int:
    """COUNT(DISTINCT on) via per-batch local distinct → keyed exchange
    on a bucket of the hash → distinct count per sorted block. Only
    hashes shuffle.

    Collision bound (documented, not guarded): counts distinct 64-bit
    ``stable_hash64`` values, so two distinct inputs colliding under-count
    by 1; expected error ≈ n²/2⁶⁵ (< 0.003 at n = 10M). Use
    ``exact_dedup(...).count()`` when exactness beats the extra bytes."""

    def pre(t: pa.Table) -> pa.Table:
        h = np.unique(stable_hash64(t[on].drop_null()))
        return pa.table(
            {
                "h": pa.array(h, type=pa.uint64()),
                "bucket": pa.array((h % np.uint64(num_buckets)).astype(np.int32)),
            }
        )

    def count_bucket(g: pa.Table) -> pa.Table:
        n = len(np.unique(g["h"].to_numpy(zero_copy_only=False)))
        return pa.table({"n": pa.array([n], type=pa.int64())})

    out = keyed_exchange(ds, "bucket", count_bucket, pre)
    return int(out.sum("n") or 0)


# ---------------------------------------------------------------------------
# MinHash + LSH (shingle → minhash → band → bucket groupby)
# ---------------------------------------------------------------------------


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """uint64 hashes of the k-character shingles of a text (rolling,
    deterministic via blake2b-seeded multiplicative hashing)."""
    if len(text) < k:
        text = text + "\x00" * (k - len(text))
    n = len(text) - k + 1
    # vectorized byte-window hashing: polynomial rolling hash base 257
    b = np.frombuffer(text.encode("utf-8", "surrogatepass")[: n + k - 1 + 8], dtype=np.uint8)
    # byte windows stand in for char windows on multibyte text — only
    # consistency matters for shingling, not codepoint alignment
    n_b = len(b) - k + 1
    if n_b <= 0:
        return np.array([np.uint64(1)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        acc = np.zeros(n_b, dtype=np.uint64)
        for i in range(k):
            acc = acc * np.uint64(1099511628211) + b[i : i + n_b].astype(np.uint64)
    return np.unique(acc)


class MinHasher:
    """Stateful per-worker minhash: permutation parameters generated
    once (seeded), reused across batches (actor-pool friendly)."""

    def __init__(self, num_perm: int = 128, shingle_k: int = 5, seed: int = 1):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 1 << 61, size=num_perm).astype(np.uint64) * np.uint64(2) + np.uint64(1)
        self.b = rng.randint(0, 1 << 61, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k

    # shingle-axis chunk size: bounds the (chunk × num_perm) transient
    # to ~4 MB at 128 perms regardless of document size (a 64 KiB doc
    # would otherwise allocate a ~65 MB matrix per row)
    _CHUNK = 4096

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k)  # (S,)
        out = np.full(self.num_perm, _M64, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for s in range(0, len(sh), self._CHUNK):
                chunk = sh[s : s + self._CHUNK]
                # (S_chunk, P) universal hashing; running min over chunks
                vals = chunk[:, None] * self.a[None, :] + self.b[None, :]
                np.minimum(out, vals.min(axis=0), out=out)
        return out

    def batch_signatures(self, texts: list[str | None]) -> np.ndarray:
        out = np.zeros((len(texts), self.num_perm), dtype=np.uint64)
        for i, t in enumerate(texts):
            if t:
                out[i] = self.signature(t)
        return out


def minhash_signatures(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 128,
    shingle_k: int = 5,
    concurrency: int | tuple[int, int] = (1, 8),
) -> "ray.data.Dataset":
    """id + minhash signature (fixed_size_list<uint32>, low bits of the
    uint64 minima) per row — actor-pool stage (permutations built once
    per actor)."""

    class Sig:
        def __init__(self):
            self.mh = MinHasher(num_perm=num_perm, shingle_k=shingle_k)

        def __call__(self, t: pa.Table) -> pa.Table:
            sigs = self.mh.batch_signatures(t[text_col].to_pylist())
            # stored/shuffled as uint32 (low bits): equality of the full
            # uint64 minima is preserved; a false slot agreement needs a
            # 2^-32 truncation collision (negligible vs the minhash
            # estimator's own variance). Halves the exploded shuffle
            # payload AND avoids this host's ~45x-slower uint64
            # vector-compare path (measured; see BENCH/BASELINE.md).
            return pa.table(
                {
                    id_col: t[id_col],
                    "sig": pa.FixedSizeListArray.from_arrays(
                        pa.array(
                            sigs.reshape(-1).astype(np.uint32),
                            type=pa.uint32(),
                        ),
                        num_perm,
                    ),
                }
            )

    return ds.map_batches(
        Sig, batch_format="pyarrow", zero_copy_batch=True, concurrency=concurrency
    )


def _sig_matrix(t: pa.Table, num_perm: int) -> np.ndarray:
    flat = t["sig"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(-1, num_perm).astype(np.uint32, copy=False)


# all-pairs verification cap per band/chunk group, and the slab size
# (pairs per vectorized comparison) bounding the m[ia] transient
_GROUP_CAP = 2048
_PAIR_CHUNK = 1 << 16


def _segment_pair_indices(
    starts: np.ndarray, ends: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pair index arrays for sorted equal-key segments.

    Segments of length <= ``cap`` emit all C(L,2) pairs
    (``np.triu_indices``); larger segments fall back to a STAR against
    the segment's first row — O(L) pairs instead of O(L²). The star
    keeps every member connected for downstream connected components
    (component recall is preserved for true duplicate clusters), but
    pairwise completeness above the cap is sacrificed: a hot
    boilerplate group would otherwise be quadratic in both time and
    output (VERDICT r2 scale valve, documented)."""
    ia_parts: list[np.ndarray] = []
    ib_parts: list[np.ndarray] = []
    for s, e in zip(starts, ends):
        L = int(e - s)
        if L < 2:
            continue
        if L <= cap:
            # O(P) arithmetic construction — NOT np.triu_indices, whose
            # O(L^2) mask allocation measured ~1.3 s at L≈1300 on this
            # memory-starved host. row i pairs with i+1..L-1:
            cnt = np.arange(L - 1, 0, -1, dtype=np.int64)
            ia = np.repeat(np.arange(L - 1, dtype=np.int64), cnt)
            offs = np.cumsum(cnt) - cnt
            ib = (
                np.arange(len(ia), dtype=np.int64)
                - np.repeat(offs, cnt)
                + ia
                + 1
            )
            ia_parts.append(ia + s)
            ib_parts.append(ib + s)
        else:
            ia_parts.append(np.full(L - 1, s, dtype=np.int64))
            ib_parts.append(np.arange(s + 1, e, dtype=np.int64))
    if not ia_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(ia_parts), np.concatenate(ib_parts)


def minhash_dedup_pairs_ds(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] = (1, 8),
    group_cap: int = _GROUP_CAP,
) -> "ray.data.Dataset":
    """Near-duplicate pairs with estimated Jaccard ≥ threshold, as a
    DISTRIBUTED Dataset (id_a, id_b, jaccard_est) — nothing reaches the
    driver; at scale, write the result to parquet or feed it to
    ``near_dup_groups_ds``.

    shingle → minhash (actor pool) → explode to one (band_hash, id, sig)
    row per band → groupby(band_hash-bucket) → vectorized verify INSIDE
    the group by signature agreement (band groups above ``group_cap``
    fall back to star pairs — see ``_segment_pair_indices``) →
    distributed pair dedup (same pair surfacing from multiple bands):
    per-batch local ``group_by`` max → ``groupby(id_a, id_b)`` max."""
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    sigs = minhash_signatures(
        ds, text_col, id_col, num_perm=num_perm, shingle_k=shingle_k, concurrency=concurrency
    )

    def explode(t: pa.Table) -> pa.Table:
        m = _sig_matrix(t, num_perm)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = len(t)
        band_hashes = np.zeros((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for bidx in range(bands):
                chunk = m[:, bidx * rows_per_band : (bidx + 1) * rows_per_band]
                acc = np.full(n, np.uint64(bidx * 1315423911 + 17), dtype=np.uint64)
                for j in range(rows_per_band):
                    acc = acc * np.uint64(0x9E3779B97F4A7C15) + chunk[:, j]
                band_hashes[:, bidx] = acc
        out_ids = np.repeat(ids, bands)
        out_bh = band_hashes.reshape(-1)
        out_sig = np.repeat(m, bands, axis=0)
        return pa.table(
            {
                "band_hash": pa.array(out_bh, type=pa.uint64()),
                "bucket": pa.array((out_bh % np.uint64(256)).astype(np.int32)),
                id_col: pa.array(out_ids),
                "sig": pa.FixedSizeListArray.from_arrays(
                    pa.array(out_sig.reshape(-1), type=pa.uint32()), num_perm
                ),
            }
        )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        # group by band_hash inside the bucket; VECTORIZED verification
        # (VERDICT r2: replaces the nested Python pair loop) — one numpy
        # signature-agreement comparison per pair slab, hot groups
        # star-capped by _segment_pair_indices
        order = pc.sort_indices(g, sort_keys=[("band_hash", "ascending")])
        g = g.take(order)
        bh = g["band_hash"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        m = _sig_matrix(g, num_perm)
        starts = np.flatnonzero(np.r_[True, bh[1:] != bh[:-1]])
        ends = np.r_[starts[1:], len(bh)]
        ia, ib = _segment_pair_indices(starts, ends, group_cap)
        a_parts, b_parts, j_parts = [], [], []
        for s in range(0, len(ia), _PAIR_CHUNK):
            ca, cb = ia[s : s + _PAIR_CHUNK], ib[s : s + _PAIR_CHUNK]
            est = (m[ca] == m[cb]).mean(axis=1)
            keep = (est >= threshold) & (ids[ca] != ids[cb])
            if not keep.any():
                continue
            ka, kb = ca[keep], cb[keep]
            a_parts.append(np.minimum(ids[ka], ids[kb]))
            b_parts.append(np.maximum(ids[ka], ids[kb]))
            j_parts.append(est[keep])
        if not a_parts:
            return pa.table(
                {
                    "id_a": pa.array([], type=pa.int64()),
                    "id_b": pa.array([], type=pa.int64()),
                    "jaccard_est": pa.array([], type=pa.float64()),
                }
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(a_parts), type=pa.int64()),
                "id_b": pa.array(np.concatenate(b_parts), type=pa.int64()),
                "jaccard_est": pa.array(
                    np.concatenate(j_parts), type=pa.float64()
                ),
            }
        )

    pairs = (
        sigs.map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pyarrow")
    )
    return _dedup_pairs_ds(pairs, "jaccard_est", "max")


_PAIR_MIX = np.uint64(0x9E3779B97F4A7C15)


def _dedup_pairs_ds(
    pairs: "ray.data.Dataset",
    score_col: str,
    how: str,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Distributed (id_a, id_b) dedup keeping max/min score: per-batch
    local group_by first, so the exchange moves one row per distinct
    pair per batch; the global combine is ``bucketed_group_agg`` —
    Ray's named-aggregate path on a high-cardinality composite key
    measured ~10x slower than this shape (see ``jaccard_pairs_ds``
    stage 1)."""
    agg = [(score_col, how)]

    def local(t: pa.Table) -> pa.Table:
        out = t.group_by(["id_a", "id_b"], use_threads=False).aggregate(agg)
        return out.rename_columns(["id_a", "id_b", score_col])

    return bucketed_group_agg(
        pairs.map_batches(local, batch_format="pyarrow", zero_copy_batch=True),
        ["id_a", "id_b"],
        agg,
        num_buckets,
    )


def _pairs_table(pairs: "ray.data.Dataset", score_col: str, score_type) -> pa.Table:
    """Driver-side collect + deterministic sort (small-result wrapper)."""
    t = pa.Table.from_pandas(pairs.to_pandas(), preserve_index=False)
    if len(t) == 0:
        return pa.table(
            {
                "id_a": pa.array([], type=pa.int64()),
                "id_b": pa.array([], type=pa.int64()),
                score_col: pa.array([], type=score_type),
            }
        )
    t = t.select(["id_a", "id_b", score_col])
    return t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def minhash_dedup_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] = (1, 8),
    group_cap: int = _GROUP_CAP,
) -> pa.Table:
    """Driver-sized wrapper around ``minhash_dedup_pairs_ds``: collects
    the (already distributed-deduped) pair Dataset into a sorted Arrow
    table. Use the ``_ds`` variant when pairs may be large."""
    pairs = minhash_dedup_pairs_ds(
        ds,
        text_col,
        id_col,
        num_perm=num_perm,
        bands=bands,
        shingle_k=shingle_k,
        threshold=threshold,
        concurrency=concurrency,
        group_cap=group_cap,
    )
    return _pairs_table(pairs, "jaccard_est", pa.float64())


def near_dup_groups(pairs: pa.Table) -> dict[int, int]:
    """Union-find over verified pairs (driver-side; pairs are tiny —
    see module docstring for the scale assumption). Returns
    id → group-representative (smallest id in the component)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


# ---------------------------------------------------------------------------
# distributed connected components (alternating large-star / small-star)
# ---------------------------------------------------------------------------


def _star_round(
    edges: "ray.data.Dataset", *, large: bool, num_buckets: int
) -> "ray.data.Dataset":
    """One large-star or small-star round (Kiveris et al. SoCC'14):
    map symmetrize/orient → keyed exchange on a bucket of src →
    vectorized per-segment min over each sorted block. Edges are
    (id_a=lo, id_b=hi)."""

    def orient(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        if large:
            # both directions: each node sees its full neighborhood
            src = np.concatenate([a, b])
            dst = np.concatenate([b, a])
        else:
            # point down: src = hi, dst = lo
            src = np.maximum(a, b)
            dst = np.minimum(a, b)
        with np.errstate(over="ignore"):
            bucket = (
                (src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                % np.uint64(num_buckets)
            ).astype(np.int32)
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "bucket": pa.array(bucket),
            }
        )

    def star(g: pa.Table) -> pa.Table:
        src = g["src"].to_numpy(zero_copy_only=False)
        dst = g["dst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        changed = np.r_[True, src[1:] != src[:-1]]
        bounds = np.flatnonzero(changed)
        seg_min = np.minimum.reduceat(dst, bounds)
        seg_src = src[bounds]
        m_seg = np.minimum(seg_min, seg_src)
        seg_id = np.cumsum(changed) - 1
        m_row = m_seg[seg_id]
        if large:
            # emit (dst, m) for dst > src; m <= src < dst so no self-loop
            keep = dst > src
            lo, hi = m_row[keep], dst[keep]
        else:
            # emit (dst, m) for every dst != m, plus (src, m) per segment
            keep = dst != m_row
            lo = np.concatenate([m_row[keep], m_seg])
            hi = np.concatenate([dst[keep], seg_src])
        return pa.table({"id_a": pa.array(lo), "id_b": pa.array(hi)})

    return keyed_exchange(edges, "bucket", star, orient)


def _edge_dedup(
    edges: "ray.data.Dataset", num_buckets: int = 256
) -> "ray.data.Dataset":
    def local(t: pa.Table) -> pa.Table:
        return t.group_by(["id_a", "id_b"], use_threads=False).aggregate([])

    return bucketed_group_agg(
        edges.map_batches(local, batch_format="pyarrow", zero_copy_batch=True),
        ["id_a", "id_b"],
        [],
        num_buckets,
    )


def near_dup_groups_ds(
    pairs: "ray.data.Dataset",
    *,
    max_rounds: int = 16,
    num_buckets: int = 256,
    driver_threshold: int = 2_000_000,
) -> "ray.data.Dataset":
    """Connected components over a pair Dataset. Pair sets up to
    ``driver_threshold`` edges short-circuit to the driver union-find
    (bounded materialization, ≤ ~32 MB at the default — the star rounds'
    per-round exchange latency would dominate); larger graphs run the
    fully DISTRIBUTED rounds below, where pairs never touch the driver.

    Alternating large-star / small-star rounds (public MapReduce CC
    algorithm, Kiveris et al. SoCC'14) expressed as map_batches +
    keyed exchanges; converges in O(log n) rounds to star graphs rooted
    at each component's minimum id. Convergence is detected by a stable
    (count, xor-of-mixed-edge-hashes) signature — XOR of a splitmix64
    finalizer over each (id_a, id_b) is order- and partition-invariant
    and equal edge SETS are the only realistic way to repeat it
    (a false match needs a 64-bit hash-fold collision at equal counts,
    unlike the previous sum(id) signature where e.g. swapping mass
    between edges collides); ``max_rounds`` still bounds pathological
    inputs.

    Returns a Dataset (id, group_id) with one row per node that appears
    in ``pairs`` — identical assignments to the driver union-find
    ``near_dup_groups`` (tested on seeded clusters).

    Partitioning assumption: a single star root's neighborhood must fit
    one fold task (true once components collapse; a component with
    10^9 members would need the root's bucket to hold 10^9 edges —
    at that point dedup the inputs first)."""
    edges = pairs.select_columns(["id_a", "id_b"]).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "id": pa.array([], type=pa.int64()),
                    "group_id": pa.array([], type=pa.int64()),
                }
            )
        )
    if n_edges <= driver_threshold:
        # planner fallback (same shape as B5/drop_near_dups): each
        # star round costs 5 all-to-all exchanges whose FIXED latency
        # dwarfs the work on a bounded graph — ≤ threshold pairs
        # (≤ 32 MB at 2M) union-find on the driver instead. The
        # distributed rounds remain the ONLY path above the threshold;
        # both paths are parity-tested against each other.
        tab = pa.concat_tables(
            [p for p in ray.get(edges.to_arrow_refs()) if len(p)]
        ).combine_chunks()
        ref = near_dup_groups(tab)
        nodes = np.unique(
            np.concatenate(
                [
                    tab["id_a"].to_numpy(zero_copy_only=False),
                    tab["id_b"].to_numpy(zero_copy_only=False),
                ]
            )
        ).astype(np.int64)
        roots = np.fromiter(
            (ref.get(int(n), int(n)) for n in nodes),
            dtype=np.int64,
            count=len(nodes),
        )
        return ray.data.from_arrow(
            pa.table(
                {
                    "id": pa.array(nodes, type=pa.int64()),
                    "group_id": pa.array(roots, type=pa.int64()),
                }
            )
        )
    def _sig_partial(t: pa.Table) -> pa.Table:
        # one (count, xor) row per batch: splitmix64-style finalizer
        # over each edge, folded with XOR (order/partition-invariant;
        # uint64 arithmetic wraps by construction)
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = a * np.uint64(0x9E3779B97F4A7C15) ^ (
            b + np.uint64(0xC2B2AE3D27D4EB4F)
        )
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
        return pa.table(
            {
                "n": pa.array([len(t)], type=pa.int64()),
                "x": pa.array([int(x)], type=pa.uint64()),
            }
        )

    def _signature(e) -> tuple:
        # bounded pull: one 2-column row per block
        parts = e.map_batches(
            _sig_partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        n = sum(p["n"] for p in parts)
        x = 0
        for p in parts:
            x ^= p["x"]
        return (n, x)

    prev_sig = None
    for _ in range(max_rounds):
        edges = _star_round(edges, large=True, num_buckets=num_buckets)
        edges = _edge_dedup(edges)
        edges = _star_round(edges, large=False, num_buckets=num_buckets)
        edges = _edge_dedup(edges).materialize()
        sig = _signature(edges)
        if sig == prev_sig:
            break
        prev_sig = sig

    def labels(t: pa.Table) -> pa.Table:
        lo = t["id_a"].to_numpy(zero_copy_only=False)
        hi = t["id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id": pa.array(np.concatenate([hi, lo])),
                "group_id": pa.array(np.concatenate([lo, lo])),
            }
        )

    return bucketed_group_agg(
        edges.map_batches(labels, batch_format="pyarrow", zero_copy_batch=True),
        "id",
        [("group_id", "min")],
        num_buckets,
    )


def drop_near_dups(
    ds: "ray.data.Dataset",
    id_col: str,
    groups: "ray.data.Dataset",
    *,
    max_broadcast_ids: int = 2_000_000,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Apply near-dup grouping to the corpus: keep each group's
    representative (``group_id`` row) plus every unpaired row; drop the
    other group members. ``groups`` is ``near_dup_groups_ds`` output
    (id, group_id).

    The drop set is |non-representative duplicates| — when it fits
    (≤ ``max_broadcast_ids``) it is broadcast once and applied with a
    vectorized ``pc.is_in`` per batch (no shuffle of the corpus);
    above that the corpus is ``left_anti``-joined against the drop ids
    (all-to-all, but moves only (row, id) — choose the path the data
    demands, same planner shape as refint B5)."""
    drop = groups.map_batches(
        lambda t: t.filter(pc.not_equal(t["id"], t["group_id"])).select(["id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_drop = drop.count()
    if n_drop == 0:
        return ds
    if n_drop <= max_broadcast_ids:
        parts = ray.get(drop.to_arrow_refs())
        ids = pa.concat_tables([p for p in parts if len(p)])["id"].combine_chunks()
        ids_ref = ray.put(ids)

        def keep(t: pa.Table) -> pa.Table:
            value_set = ray.get(ids_ref)
            return t.filter(
                pc.invert(
                    pc.fill_null(pc.is_in(t[id_col], value_set=value_set), False)
                )
            )

        return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    renamed = drop.map_batches(
        lambda t: t.rename_columns([id_col]), batch_format="pyarrow"
    )
    from ..runtime import join_partitions, join_remote_args

    return ds.join(
        renamed,
        join_type="left_anti",
        num_partitions=join_partitions(num_partitions),
        on=(id_col,),
        aggregator_ray_remote_args=join_remote_args(),
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def _simhash_batch(texts: list[str | None], ngram: int = 3) -> np.ndarray:
    """64-bit SimHash per text over character n-grams."""
    out = np.zeros(len(texts), dtype=np.uint64)
    bits = np.arange(64, dtype=np.uint64)
    for i, t in enumerate(texts):
        if not t:
            continue
        h = _shingle_hashes(t, ngram)
        # accumulate bit votes
        votes = np.zeros(64, dtype=np.int64)
        for chunk_start in range(0, len(h), 4096):
            chunk = h[chunk_start : chunk_start + 4096]
            bitsmat = ((chunk[:, None] >> bits[None, :]) & np.uint64(1)).astype(np.int64)
            votes += (2 * bitsmat - 1).sum(axis=0)
        pos = (votes > 0).astype(np.uint64)
        out[i] = np.bitwise_or.reduce(pos << bits)
    return out


def simhash_column(
    ds: "ray.data.Dataset", text_col: str, id_col: str, ngram: int = 3
) -> "ray.data.Dataset":
    def fn(t: pa.Table) -> pa.Table:
        sh = _simhash_batch(t[text_col].to_pylist(), ngram)
        return pa.table({id_col: t[id_col], "simhash": pa.array(sh, type=pa.uint64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def simhash_dedup_pairs_ds(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    max_hamming: int = 3,
    ngram: int = 3,
    group_cap: int = _GROUP_CAP,
) -> "ray.data.Dataset":
    """Pairs with Hamming(simhash) <= max_hamming via pigeonhole
    banding: split 64 bits into (max_hamming+1) chunks; any pair within
    distance shares at least one exact chunk → groupby(chunk, value) →
    vectorized Hamming verify (groups above ``group_cap`` fall back to
    star pairs — see ``_segment_pair_indices``). Returns a DISTRIBUTED
    Dataset (id_a, id_b, hamming), deduped across chunks by a
    distributed min-groupby."""
    sh = simhash_column(ds, text_col, id_col, ngram)
    nchunks = max_hamming + 1
    width = 64 // nchunks

    def explode(t: pa.Table) -> pa.Table:
        # VECTORIZED (VERDICT r2: replaces the .tolist()/extend build) —
        # np.repeat/np.tile, same template as the embedding explode
        h = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = np.asarray(
            t[id_col].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        n = len(h)
        chunks = np.repeat(np.arange(nchunks, dtype=np.int32), n)
        shifts = np.repeat(
            np.arange(nchunks, dtype=np.uint64) * np.uint64(width), n
        )
        h_all = np.tile(h, nchunks)
        vals = (h_all >> shifts) & np.uint64((1 << width) - 1)
        with np.errstate(over="ignore"):
            bucket = (
                (vals * _PAIR_MIX + chunks.astype(np.uint64))
                % np.uint64(256)
            ).astype(np.int32)
        return pa.table(
            {
                # shuffle on a 256-value hash bucket, not the raw
                # high-cardinality (chunk, value) composite — the
                # in-group segmenting below restores exact groups
                # (BENCH/BASELINE.md note 16)
                "bucket": pa.array(bucket),
                "chunk": pa.array(chunks),
                "value": pa.array(vals, type=pa.uint64()),
                id_col: pa.array(np.tile(ids, nchunks), type=pa.int64()),
                "simhash": pa.array(h_all, type=pa.uint64()),
            }
        )

    def pairs_in_group(g: pa.Table) -> pa.Table:
        # VECTORIZED Hamming verify (VERDICT r2: replaces the nested
        # Python pair loop): popcount via uint8-view unpackbits (numpy
        # 1.26 has no bitwise_count), pair slabs bound the transient.
        # The task receives one hash BUCKET of (chunk, value) groups;
        # sort + run-detection restores the exact group boundaries.
        order = pc.sort_indices(
            g, sort_keys=[("chunk", "ascending"), ("value", "ascending")]
        )
        g = g.take(order)
        ids = np.asarray(
            g[id_col].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        h = g["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ch = g["chunk"].to_numpy(zero_copy_only=False)
        vals = g["value"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        new_seg = np.r_[True, (ch[1:] != ch[:-1]) | (vals[1:] != vals[:-1])]
        starts = np.flatnonzero(new_seg)
        ends = np.r_[starts[1:], n]
        ia, ib = _segment_pair_indices(starts, ends, group_cap)
        a_parts, b_parts, d_parts = [], [], []
        for s in range(0, len(ia), _PAIR_CHUNK):
            ca, cb = ia[s : s + _PAIR_CHUNK], ib[s : s + _PAIR_CHUNK]
            xor = np.ascontiguousarray(h[ca] ^ h[cb])
            d = np.unpackbits(xor.view(np.uint8).reshape(len(xor), 8), axis=1).sum(
                axis=1
            )
            keep = (d <= max_hamming) & (ids[ca] != ids[cb])
            if not keep.any():
                continue
            ka, kb = ca[keep], cb[keep]
            a_parts.append(np.minimum(ids[ka], ids[kb]))
            b_parts.append(np.maximum(ids[ka], ids[kb]))
            d_parts.append(d[keep].astype(np.int64))
        if not a_parts:
            return pa.table(
                {
                    "id_a": pa.array([], type=pa.int64()),
                    "id_b": pa.array([], type=pa.int64()),
                    "hamming": pa.array([], type=pa.int64()),
                }
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(a_parts), type=pa.int64()),
                "id_b": pa.array(np.concatenate(b_parts), type=pa.int64()),
                "hamming": pa.array(np.concatenate(d_parts), type=pa.int64()),
            }
        )

    pairs = (
        sh.map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_group, batch_format="pyarrow")
    )
    return _dedup_pairs_ds(pairs, "hamming", "min")


def simhash_dedup_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    max_hamming: int = 3,
    ngram: int = 3,
    group_cap: int = _GROUP_CAP,
) -> pa.Table:
    """Driver-sized wrapper around ``simhash_dedup_pairs_ds``."""
    pairs = simhash_dedup_pairs_ds(
        ds, text_col, id_col, max_hamming=max_hamming, ngram=ngram,
        group_cap=group_cap,
    )
    return _pairs_table(pairs, "hamming", pa.int64())


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact character-k-gram Jaccard (verification twin for the
    MinHash estimate — §5.3 exact/sketch duality)."""
    sa = set(a[i : i + k] for i in range(max(1, len(a) - k + 1)))
    sb = set(b[i : i + k] for i in range(max(1, len(b) - k + 1)))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# EXACT all-pairs n-gram Jaccard (the SQL-expressible exact twin of the
# MinHash-LSH estimate): distributed shingle inverted index
# ---------------------------------------------------------------------------


def _batch_shingle_hashes(
    col, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc DISTINCT k-gram hashes for a whole Arrow string column,
    fully vectorized from the string buffers — the batch-level hot loop
    of ``jaccard_pairs_ds`` (replaces a per-doc Python set
    comprehension that dominated the pipeline wall: measured ~50 s of
    an 80 s run at 20k docs / 8 cpus).

    Windows are UTF-8 BYTE k-grams (like ``_shingle_hashes``); for
    ASCII text byte == character windows exactly, so the prefix-filter
    recall bound is exact there; on multibyte text candidate
    generation is byte-aligned while verification stays character-
    exact (documented approximation — same caveat as the MinHash
    path). Docs shorter than k (incl. empty / null) contribute ONE
    shingle — the whole text — matching ``_shingle_set`` and the
    oracle's substr semantics. The shingle's IDENTITY is its 64-bit
    rolling hash (length-mixed); a collision merges two shingles and
    can only ADD candidates — verification is string-exact.

    Returns (doc_idx int64[m], h uint64[m], n_sh int64[n]): distinct
    (doc, shingle-hash) pairs with doc_idx ascending, and each doc's
    distinct-shingle count."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    n = len(col)
    if n == 0:
        return (
            np.array([], dtype=np.int64),
            np.array([], dtype=np.uint64),
            np.array([], dtype=np.int64),
        )
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    offsets = np.frombuffer(col.buffers()[1], dtype=off_dtype)[
        col.offset : col.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    L = np.diff(offsets)

    B = np.uint64(257)
    MIX = np.uint64(0x100000001B3)
    di_parts: list[np.ndarray] = []
    h_parts: list[np.ndarray] = []
    with np.errstate(over="ignore"):
        long_docs = np.flatnonzero(L >= k)
        if len(long_docs):
            Wl = L[long_docs] - k + 1
            doc_rep = np.repeat(long_docs, Wl)
            tot = int(Wl.sum())
            seg0 = np.cumsum(Wl) - Wl
            win_pos = np.arange(tot, dtype=np.int64) - np.repeat(seg0, Wl)
            starts = np.repeat(offsets[long_docs], Wl) + win_pos
            acc = np.zeros(tot, dtype=np.uint64)
            for j in range(k):
                acc = acc * B + data[starts + j]
            di_parts.append(doc_rep)
            h_parts.append(acc * MIX + np.uint64(k))
        # short docs: one shingle = the whole text; one vectorized pass
        # per length class (< k classes), length mixed into the hash so
        # a short text never collides with a full window's prefix
        for ell in range(k):
            docs = np.flatnonzero(L == ell)
            if not len(docs):
                continue
            acc = np.zeros(len(docs), dtype=np.uint64)
            st = offsets[docs]
            for j in range(ell):
                acc = acc * B + data[st + j]
            di_parts.append(docs)
            h_parts.append(acc * MIX + np.uint64(ell))
    doc_idx = np.concatenate(di_parts)
    h = np.concatenate(h_parts)
    # distinct (doc, h): sort then adjacent-dedup
    order = np.lexsort((h, doc_idx))
    doc_idx, h = doc_idx[order], h[order]
    keep = np.ones(len(h), dtype=bool)
    if len(h) > 1:
        keep[1:] = (doc_idx[1:] != doc_idx[:-1]) | (h[1:] != h[:-1])
    doc_idx, h = doc_idx[keep], h[keep]
    n_sh = np.bincount(doc_idx, minlength=n).astype(np.int64)
    return doc_idx, h, n_sh


def jaccard_pairs_ds(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    k: int = 12,
    threshold: float = 0.5,
    max_df: int | None = None,
    num_buckets: int = 256,
    heavy_df_min: int = 16,
    max_broadcast_docs: int = 2_000_000,
    broadcast_corpus_docs: int = 500_000,
) -> "ray.data.Dataset":
    """EXACT all-pairs character-k-gram Jaccard similarity >= threshold
    via PREFIX-FILTERED candidate generation + exact re-verification
    (the filter-verify all-pairs join of Bayardo et al. WWW'07 — public
    algorithm, cited by paper).

    Why not a plain shingle inverted index: a shingle shared by m docs
    emits C(m,2) co-occurrence rows, so hot boilerplate shingles make
    candidate generation quadratic (measured: 56.3M pair rows for 5k
    docs / 256 true pairs at sf0.1). Prefix filtering removes exactly
    that blowup: under ANY globally consistent total order on shingles,
    two sets with |X∩Y| >= α must share an element within their first
    |X|−α+1 / |Y|−α+1 shingles; Jaccard >= t implies the integer bound
    |X∩Y| >= ceil(t·|x|) for BOTH sets of the pair (proof: c >=
    t(na+nb)/(1+t) and t <= na/nb for any qualifying pair). Ordering
    shingles rarest-first pushes hot shingles out of every prefix, so
    they never generate pairs (measured: 2.8M emitted / 1.0M distinct
    candidates on the same input — 20x less exchange).

    Plan — four stages, no document body ever re-shuffled:

    1. heavy-shingle document frequencies: per-batch distinct-shingle
       count partials keyed by the shingle's 64-bit hash →
       ``bucketed_group_agg`` sum → keep df >= heavy_df_min. Zipf
       makes this set tiny (~1k rows at sf0.1); it broadcasts once via
       ``ray.put``. df accuracy only
       affects PRUNING, never correctness (hash collisions merge two
       shingles' counts — the rarity order shifts, the verified result
       cannot) — the order just has to be the same everywhere, so at
       100 TB this pass can run on a deterministic ``hash_sample`` of
       docs with a scaled threshold.
    2. prefix postings: per row, DISTINCT shingles ordered by
       (heavy-df, h) where the 64-bit rolling hash h IS the shingle's
       identity end-to-end (vectorized straight from the Arrow string
       buffers — ``_batch_shingle_hashes``; no per-doc Python). A hash
       tie merges two shingles everywhere consistently, so it can only
       ADD candidates (bigger co-occurrence segments) and shrink one
       doc's prefix by at most its multiplicity (~2^-64 per shingle
       pair per doc; the prefix bound is conservative and the final
       result is string-exact regardless). Emit only the first
       n_sh − ceil(t·n_sh) + 1 postings per row (np.lexsort +
       run-position trick, no per-row Python sort).
    3. candidate pairs: keyed exchange on a bucket of the shingle hash
       → equal-hash segments of each sorted block emit
       C(L,2) index pairs, pruned by the pair bound
       c >= ceil(t(na+nb)/(1+t)) combined with PPJoin's positional
       filter (Xiao et al. WWW'08: shared elements all rank at or
       after the generating one, so c <= min(na−pos_a, nb−pos_b) —
       lossless, since a true pair's earliest shared prefix element
       always passes), then deduped per batch and globally by
       (id_a, id_b). ``max_df`` keeps its old meaning as the
       documented approximation valve (segments longer than it are
       dropped — lowers recall, never adds false positives).
    4. EXACT verification: candidate doc ids are gathered (driver-
       bounded broadcast below ``max_broadcast_docs`` — candidates are
       O(true duplicates), not corpus-sized; above it, two clamped
       native hash joins ship the texts to the pair rows instead).
       Jaccard is recomputed from the two TEXTS with the same shingle
       definition — string-exact, byte-for-byte the brute-force
       ``ngram_jaccard`` semantics, so hash order never leaks into the
       result."""
    _ceil_t = lambda n: np.ceil(threshold * n).astype(np.int64)  # noqa: E731

    def _shingle_set(s: str | None) -> set:
        s = s or ""
        return {s[j : j + k] for j in range(max(1, len(s) - k + 1))}

    # ---- stage 1: heavy-shingle df ------------------------------------
    # Keyed by the shingle's 64-bit hash, NOT the string: df feeds
    # pruning only (a hash collision merges two shingles' counts — the
    # rarity ORDER shifts, the verified result cannot), and an int64
    # bucketed combine avoids Ray's named-aggregate shuffle, which
    # measured ~10x slower than groupby(int bucket) + vectorized
    # pa.Table.group_by inside map_groups on a 2.4M-distinct-shingle
    # corpus (77 s -> 8 s at 5k hi-entropy docs / 8 cpus).
    def df_partial(t: pa.Table) -> pa.Table:
        _, h_u, _ = _batch_shingle_hashes(t[text_col], k)
        # (doc, h) pairs are distinct per doc → per-hash multiplicity
        # IS the batch document frequency
        h, c = np.unique(h_u, return_counts=True)
        return pa.table(
            {"h": pa.array(h.view(np.int64)), "df": pa.array(c.astype(np.int64))}
        )

    heavy_pdf = (
        bucketed_group_agg(
            ds.map_batches(df_partial, batch_format="pyarrow"),
            "h",
            [("df", "sum")],
            num_buckets,
        )
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["df"], pa.scalar(heavy_df_min))),
            batch_format="pyarrow",
        )
        .to_pandas()  # bounded: Zipf tail above heavy_df_min only
    )
    if "h" in heavy_pdf.columns and len(heavy_pdf):
        hv = heavy_pdf["h"].to_numpy().astype(np.int64)
        dv = heavy_pdf["df"].to_numpy().astype(np.int64)
        order = np.argsort(hv)  # searchsorted lookup in stage 2
        heavy_keys, heavy_df = hv[order], dv[order]
    else:  # fully-empty input corpus: groupby yields a schemaless frame
        heavy_keys = np.array([], dtype=np.int64)
        heavy_df = np.array([], dtype=np.int64)
    heavy_ref = ray.put((heavy_keys, heavy_df))

    _EMPTY_POST = pa.table(
        {
            "__bucket": pa.array([], type=pa.int32()),
            "h": pa.array([], type=pa.int64()),
            "id": pa.array([], type=pa.int64()),
            "n_sh": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
        }
    )

    # ---- stage 2: prefix postings -------------------------------------
    # fully vectorized: shingling via _batch_shingle_hashes (no per-doc
    # Python), ordering by (heavy-df, h) — the hash IS the shingle's
    # identity end-to-end (df pass, postings, co-occurrence grouping),
    # so order totality holds except at 64-bit hash ties, which merge
    # two shingles and can only ADD candidates (verification is
    # string-exact; docstring correctness note)
    def prefix_postings(t: pa.Table) -> pa.Table:
        hk, hdf = ray.get(heavy_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        doc_idx, h1, counts = _batch_shingle_hashes(t[text_col], k)
        if not len(h1):
            return _EMPTY_POST
        cls = np.ones(len(h1), dtype=np.int64)
        if len(hk):  # hk: SORTED int64 heavy-shingle hashes, hdf aligned
            h1s = h1.view(np.int64)
            ins = np.minimum(np.searchsorted(hk, h1s), len(hk) - 1)
            hit = hk[ins] == h1s
            cls[hit] = hdf[ins[hit]]
        order = np.lexsort((h1, cls, doc_idx))
        sorted_doc = doc_idx[order]
        change = np.empty(len(sorted_doc), dtype=bool)
        change[0] = True
        change[1:] = sorted_doc[1:] != sorted_doc[:-1]
        starts = np.flatnonzero(change)
        run_id = np.cumsum(change) - 1
        pos_in_doc = np.arange(len(sorted_doc)) - starts[run_id]
        prefix_len = counts - _ceil_t(counts) + 1
        m = pos_in_doc < prefix_len[sorted_doc]
        keep = order[m]
        return pa.table(
            {
                "__bucket": pa.array(
                    (h1[keep] % np.uint64(num_buckets)).astype(np.int32)
                ),
                "h": pa.array(h1[keep].view(np.int64)),
                "id": pa.array(ids[doc_idx[keep]], type=pa.int64()),
                "n_sh": pa.array(counts[doc_idx[keep]], type=pa.int64()),
                # rank of the shingle in the doc's full rarity order —
                # feeds the PPJoin positional bound in cooccur
                "pos": pa.array(pos_in_doc[m], type=pa.int64()),
            }
        )

    _EMPTY_PAIRS = pa.table(
        {
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "na": pa.array([], type=pa.int64()),
            "nb": pa.array([], type=pa.int64()),
        }
    )

    # ---- stage 3: candidate pairs -------------------------------------
    def cooccur_in_bucket(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("h", "ascending"), ("id", "ascending")]
        )
        g = g.take(order)
        sh = g["h"].to_numpy(zero_copy_only=False)
        n = len(g)
        neq = np.ones(n, dtype=bool)
        if n > 1:
            neq[1:] = sh[1:] != sh[:-1]
        starts = np.flatnonzero(neq)
        ends = np.r_[starts[1:], n]
        if max_df is not None:
            keep = (ends - starts) <= max_df
            starts, ends = starts[keep], ends[keep]
        cap = int((ends - starts).max()) if len(starts) else 0
        ia, ib = _segment_pair_indices(starts, ends, max(cap, 2))
        if not len(ia):
            return _EMPTY_PAIRS
        ids = g["id"].to_numpy(zero_copy_only=False)
        nsh = g["n_sh"].to_numpy(zero_copy_only=False)
        pos = g["pos"].to_numpy(zero_copy_only=False)
        na, nb = nsh[ia], nsh[ib]
        # pair bound: Jaccard >= t needs c >= ceil(t(na+nb)/(1+t))
        c_min = np.ceil(threshold * (na + nb) / (1.0 + threshold)).astype(
            np.int64
        )
        # size filter (min >= ceil(t*max)) is implied by the pair bound;
        # PPJoin positional filter: shared elements all rank >= this
        # one, so c <= min(na - pos_a, nb - pos_b). Lossless: for a
        # true pair, its EARLIEST shared prefix element satisfies the
        # bound, and dedup keeps the pair if any emission survives.
        ok = np.minimum(na - pos[ia], nb - pos[ib]) >= c_min
        ia, ib, na, nb = ia[ok], ib[ok], na[ok], nb[ok]
        if not len(ia):
            return _EMPTY_PAIRS
        out = pa.table(
            {
                # ids ascend within a segment (sort key 2) → id_a < id_b
                "id_a": pa.array(ids[ia], type=pa.int64()),
                "id_b": pa.array(ids[ib], type=pa.int64()),
                "na": pa.array(na, type=pa.int64()),
                "nb": pa.array(nb, type=pa.int64()),
            }
        )
        # batch-local dedup: one row per distinct pair leaves the task
        return (
            out.group_by(["id_a", "id_b"], use_threads=False)
            .aggregate([("na", "min"), ("nb", "min")])
            .rename_columns(["id_a", "id_b", "na", "nb"])
        )

    def _verify_pairs(t: pa.Table, txts) -> pa.Table:
        """String-exact Jaccard over candidate pair rows (shared by the
        broadcast and fast paths). ``txts`` is (sorted int64 ids,
        aligned pa.StringArray) — Arrow/numpy so the ray.get in every
        task is ZERO-COPY from the object store (a broadcast Python
        dict measured 256 tasks x ~60 MB re-deserialization at 100k
        docs: 8-cpu wall 412 s vs 39 s at 20k); texts are materialized
        per NEEDED doc only (.as_py(), cached per batch)."""
        sids, tarr = txts
        ia = t["id_a"].to_pylist()
        ib = t["id_b"].to_pylist()
        cache: dict = {}

        def sset(d):
            r = cache.get(d)
            if r is None:
                pos = int(np.searchsorted(sids, d))
                s = (
                    tarr[pos].as_py()
                    if pos < len(sids) and sids[pos] == d
                    else None
                )
                r = _shingle_set(s)
                cache[d] = r
            return r

        jac = np.empty(len(ia), dtype=np.float64)
        for i, (a, b) in enumerate(zip(ia, ib)):
            A, B = sset(a), sset(b)
            c = len(A & B)
            u = len(A) + len(B) - c
            jac[i] = c / u if u else 1.0
        keep = jac >= threshold
        return pa.table(
            {
                "id_a": t["id_a"].filter(pa.array(keep)),
                "id_b": t["id_b"].filter(pa.array(keep)),
                "jaccard": pa.array(
                    np.round(jac[keep], 6), type=pa.float64()
                ),
            }
        )

    def _gather_text_map(source: "ray.data.Dataset", id_filter):
        """Driver-bounded (sorted ids, aligned texts) gather as Arrow —
        stays zero-copy through ray.put/get; id_filter=None takes all."""

        def gather(t: pa.Table) -> pa.Table:
            if id_filter is not None:
                m = pc.fill_null(
                    pc.is_in(t[id_col], value_set=id_filter), False
                )
                t = t.filter(m)
            return pa.table({"id": t[id_col], "text": t[text_col]})

        parts = [
            p
            for p in ray.get(
                source.map_batches(
                    gather, batch_format="pyarrow"
                ).to_arrow_refs()
            )
            if len(p)
        ]
        tbl = pa.concat_tables(parts) if parts else None
        if tbl is None or len(tbl) == 0:
            return (
                np.array([], dtype=np.int64),
                pa.array([], type=pa.string()),
            )
        tbl = tbl.combine_chunks()
        ids = tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        texts = tbl["text"].combine_chunks().take(pa.array(order))
        return ids[order], texts

    # GLOBAL pair dedup: a bucketed combine, for the same measured
    # reason as stage 1
    candidates = bucketed_group_agg(
        keyed_exchange(
            ds.map_batches(prefix_postings, batch_format="pyarrow"),
            "__bucket",
            cooccur_in_bucket,
        ),
        ["id_a", "id_b"],
        [("na", "min"), ("nb", "min")],
        num_buckets,
    )

    # FAST PATH (small/medium corpora, measured latency win): when the
    # WHOLE corpus fits the driver-broadcast contract, ship (id, text)
    # once via ray.put and verify right after the pair dedup — skipping
    # the candidates materialize, the distinct-id pass and the
    # candidate-text gather (3 driver round-trips + 1 dataset pass).
    # At 100 TB n_docs blows the bound and the candidate-bounded paths
    # below take over (candidates are O(true duplicates), not corpus-
    # sized, so THOSE stay broadcastable long after the corpus isn't).
    n_docs = ds.count()
    if n_docs <= broadcast_corpus_docs:
        corpus_ref = ray.put(_gather_text_map(ds, None))
        return candidates.map_batches(
            lambda t: _verify_pairs(t, ray.get(corpus_ref)), batch_format="pyarrow"
        )

    # ---- stage 4: exact verification ----------------------------------
    def ids_partial(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    t["id_a"].to_numpy(zero_copy_only=False),
                    t["id_b"].to_numpy(zero_copy_only=False),
                ]
            )
        ) if len(t) else np.array([], dtype=np.int64)
        return pa.table({"id": pa.array(u, type=pa.int64())})

    # the exchange above is a barrier-shaped all-to-all; materialize once
    # so the candidate Dataset feeds BOTH the id gather and the verify
    # stage without re-execution (and so any downstream join is
    # livelock-safe, BENCH/BASELINE.md note 12)
    candidates = candidates.materialize()
    n_cand_pairs = candidates.count()

    if 2 * n_cand_pairs <= max_broadcast_docs:
        # 2*pairs bounds the distinct-id count, so the per-batch-unique
        # gather is driver-bounded — skip the distinct shuffle entirely
        ids_pdf = candidates.map_batches(
            ids_partial, batch_format="pyarrow"
        ).to_pandas()
        cand_ids = (
            np.unique(ids_pdf["id"].to_numpy().astype(np.int64))
            if "id" in ids_pdf.columns and len(ids_pdf)
            else np.array([], dtype=np.int64)  # no candidates at all
        )
        n_cand_docs = len(cand_ids)
    else:
        ids_ds = bucketed_group_agg(
            candidates.map_batches(ids_partial, batch_format="pyarrow"),
            "id",
            [],
            num_buckets,
        ).materialize()
        n_cand_docs = ids_ds.count()
        cand_ids = None
        if n_cand_docs <= max_broadcast_docs:
            ids_pdf = ids_ds.to_pandas()
            cand_ids = (
                ids_pdf["id"].to_numpy().astype(np.int64)
                if "id" in ids_pdf.columns and len(ids_pdf)
                else np.array([], dtype=np.int64)
            )

    if cand_ids is not None:
        id_set = pa.array(cand_ids, type=pa.int64())
        texts_ref = ray.put(_gather_text_map(ds, id_set))

        def verify(t: pa.Table) -> pa.Table:
            return _verify_pairs(t, ray.get(texts_ref))

        return candidates.map_batches(verify, batch_format="pyarrow")

    # scale fallback: too many candidate docs to broadcast — ship texts
    # to the pair rows with two clamped native hash joins instead
    from ..runtime import join_partitions, join_remote_args

    docs = ds.map_batches(
        lambda t: pa.table({"__vid": t[id_col], "__vtext": t[text_col]}),
        batch_format="pyarrow",
    )

    j1 = candidates.join(
        docs,
        join_type="inner",
        num_partitions=join_partitions(None),
        on=("id_a",),
        right_on=("__vid",),
        aggregator_ray_remote_args=join_remote_args(),
    ).rename_columns({"__vtext": "__ta"})
    j2 = j1.materialize().join(
        docs,
        join_type="inner",
        num_partitions=join_partitions(None),
        on=("id_b",),
        right_on=("__vid",),
        aggregator_ray_remote_args=join_remote_args(),
    ).rename_columns({"__vtext": "__tb"})

    def verify_joined(t: pa.Table) -> pa.Table:
        ta = t["__ta"].to_pylist()
        tb = t["__tb"].to_pylist()
        jac = np.empty(len(ta), dtype=np.float64)
        for i in range(len(ta)):
            A, B = _shingle_set(ta[i]), _shingle_set(tb[i])
            c = len(A & B)
            u = len(A) + len(B) - c
            jac[i] = c / u if u else 1.0
        keep = jac >= threshold
        return pa.table(
            {
                "id_a": t["id_a"].filter(pa.array(keep)),
                "id_b": t["id_b"].filter(pa.array(keep)),
                "jaccard": pa.array(np.round(jac[keep], 6), type=pa.float64()),
            }
        )

    return j2.map_batches(verify_joined, batch_format="pyarrow")


def jaccard_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    k: int = 12,
    threshold: float = 0.5,
    max_df: int | None = None,
) -> pa.Table:
    """Driver-sized wrapper around ``jaccard_pairs_ds`` (sorted Arrow
    table; pairs ≈ duplicates, not corpus size)."""
    pairs = jaccard_pairs_ds(
        ds, text_col, id_col, k=k, threshold=threshold, max_df=max_df
    )
    return _pairs_table(pairs, "jaccard", pa.float64())


# ---------------------------------------------------------------------------
# Line-level dedup (CCNet / RefinedWeb-style boilerplate removal)
# ---------------------------------------------------------------------------


def line_dedup_ds(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    min_df: int = 2,
    delimiter: str = "\n",
    max_broadcast_lines: int = 2_000_000,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Corpus-level frequent-line removal (the public CCNet / RefinedWeb
    boilerplate-dedup stage): delete every line whose DOCUMENT frequency
    (number of distinct docs containing it) is >= ``min_df``, preserving
    the order of the surviving lines. ``delimiter`` is the literal line
    separator ("\\n" for prose; " " turns the same operator into a
    frequent-token filter).

    Returns (id_col, n_lines, n_removed, text_col) — original line
    count, occurrences removed, and the reassembled cleaned text. Rows
    with NULL text are dropped (no lines to speak of).

    Shape (100 TB): stage 1 computes line document-frequencies with
    per-batch pre-aggregation (per-doc DISTINCT lines via one Arrow
    dictionary-encode, then a local count) before a bucketed combine —
    the exchange moves one row per distinct line per batch, never one
    per occurrence, and document bodies never shuffle. Stage 2 removes
    the frequent set: broadcast once via ``ray.put`` + vectorized
    ``pc.is_in`` when it fits (boilerplate sets are tiny relative to the
    corpus — no shuffle at all), else an exploded ``left_anti`` join +
    one id-bucket reassembly shuffle (same planner shape as B5/
    ``drop_near_dups``)."""

    def _explode(t: pa.Table):
        from ..runtime import compact_strings

        texts = compact_strings(pc.fill_null(t[text_col], ""))
        lines = pc.split_pattern(texts, pattern=delimiter)
        flat = pc.list_flatten(lines).combine_chunks()
        lens = (
            pc.fill_null(pc.list_value_length(lines), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        doc_idx = np.repeat(np.arange(len(t), dtype=np.int64), lens)
        return flat, lens, doc_idx

    def df_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "line": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        t = t.filter(pc.is_valid(t[text_col]))
        if len(t) == 0:
            return empty
        flat, _, doc_idx = _explode(t)
        if len(flat) == 0:
            return empty
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ndict = len(enc.dictionary)
        # distinct (doc, line) pairs -> per-line distinct-doc count
        pair_codes = np.unique(doc_idx * ndict + codes) % ndict
        dfc = np.bincount(pair_codes, minlength=ndict).astype(np.int64)
        return pa.table({"line": enc.dictionary, "df": pa.array(dfc)})

    dfs = bucketed_group_agg(
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
        "line",
        [("df", "sum")],
    )
    freq = dfs.map_batches(
        lambda t: t.filter(pc.greater_equal(t["df"], pa.scalar(min_df))).select(
            ["line"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_freq = freq.count()

    base_cols = [id_col, text_col]

    if n_freq <= max_broadcast_lines:
        if n_freq == 0:
            freq_arr = pa.array([], type=pa.string())
        else:
            parts = ray.get(freq.to_arrow_refs())
            freq_arr = pa.concat_tables([p for p in parts if len(p)])[
                "line"
            ].combine_chunks()
        freq_ref = ray.put(freq_arr)

        def clean(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[text_col])).select(base_cols)
            id_type = t.schema.field(id_col).type
            if len(t) == 0:
                return pa.table(
                    {
                        id_col: pa.array([], type=id_type),
                        "n_lines": pa.array([], type=pa.int64()),
                        "n_removed": pa.array([], type=pa.int64()),
                        text_col: pa.array([], type=pa.string()),
                    }
                )
            value_set = ray.get(freq_ref)
            flat, lens, doc_idx = _explode(t)
            bad = np.asarray(
                pc.fill_null(pc.is_in(flat, value_set=value_set), False).to_numpy(
                    zero_copy_only=False
                ),
                dtype=bool,
            )
            n_docs = len(t)
            n_removed = np.bincount(
                doc_idx[bad], minlength=n_docs
            ).astype(np.int64)
            kept = flat.filter(pa.array(~bad))
            kept_per_doc = lens - n_removed
            offsets = np.zeros(n_docs + 1, dtype=np.int64)
            np.cumsum(kept_per_doc, out=offsets[1:])
            la = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int64()), kept
            )
            return pa.table(
                {
                    id_col: t[id_col],
                    "n_lines": pa.array(lens),
                    "n_removed": pa.array(n_removed),
                    text_col: pc.binary_join(la, pa.scalar(delimiter)),
                }
            )

        return ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)

    # ---- join fallback: frequent set too large to broadcast ----
    from ..runtime import join_partitions, join_remote_args

    def explode_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col])).select(base_cols)
        id_type = t.schema.field(id_col).type
        if len(t) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=id_type),
                    "__pos": pa.array([], type=pa.int64()),
                    "line": pa.array([], type=pa.string()),
                    "n_lines": pa.array([], type=pa.int64()),
                }
            )
        flat, lens, doc_idx = _explode(t)
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
        )
        ndocs = len(t)
        # one NULL-line SENTINEL row per doc (__pos = -1): a NULL key
        # never matches in the anti-join, so every doc survives to
        # reassembly even when ALL of its lines are frequent — no
        # second recovery join needed
        sent = pa.table(
            {
                id_col: t[id_col],
                "__pos": pa.array(np.full(ndocs, -1, dtype=np.int64)),
                "line": pa.nulls(ndocs, type=pa.string()),
                "n_lines": pa.array(lens),
            }
        )
        body = pa.table(
            {
                id_col: t[id_col].take(pa.array(doc_idx)),
                "__pos": pa.array(pos),
                "line": flat,
                "n_lines": pa.array(np.repeat(lens, lens)),
            }
        )
        return pa.concat_tables([sent, body]).combine_chunks()

    exploded = ds.map_batches(
        explode_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    kept = exploded.join(
        freq,
        join_type="left_anti",
        num_partitions=join_partitions(num_partitions),
        on=("line",),
        aggregator_ray_remote_args=join_remote_args(),
    )

    def reassemble(g: pa.Table) -> pa.Table:
        id_type = g.schema.field(id_col).type
        if len(g) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=id_type),
                    "n_lines": pa.array([], type=pa.int64()),
                    "n_removed": pa.array([], type=pa.int64()),
                    text_col: pa.array([], type=pa.string()),
                }
            )
        g = g.take(
            pc.sort_indices(
                g, sort_keys=[(id_col, "ascending"), ("__pos", "ascending")]
            )
        )
        ids = g[id_col].combine_chunks()
        n = len(g)
        from .windows import _adjacent_change

        new_doc = _adjacent_change(ids, n)
        starts = np.flatnonzero(new_doc)
        counts = np.diff(np.r_[starts, n]).astype(np.int64) - 1  # minus sentinel
        nl = g["n_lines"].to_numpy(zero_copy_only=False).astype(np.int64)[starts]
        lines = g["line"].combine_chunks()
        kept_vals = lines.filter(pc.is_valid(lines))  # drop sentinels, order kept
        offsets = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        la = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int64()), kept_vals)
        return pa.table(
            {
                id_col: ids.take(pa.array(starts)),
                "n_lines": pa.array(nl),
                "n_removed": pa.array(nl - counts),
                text_col: pc.binary_join(la, pa.scalar(delimiter)),
            }
        )

    def stamp_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__bucket", pa.array(bucket_ids([t[id_col]], 256)))

    return keyed_exchange(kept, "__bucket", reassemble, stamp_bucket)


# ---------------------------------------------------------------------------
# Duplicate-passage detection (token n-gram spans shared across docs)
# ---------------------------------------------------------------------------


def token_grams(t: pa.Table, text_col: str, width: int):
    """(grams, doc_idx, n_windows_per_doc) for non-null-text rows of a
    batch: every token ``width``-gram (sliding window, stride 1,
    whitespace tokens, ``' '``-joined) plus the row index it came from.
    Pure Arrow/numpy: tokenize once, build grams as ``width`` shifted
    Arrow slices joined element-wise — no per-row Python. Shared by
    ``dup_span_stats_ds`` and ``vald.ops.decontam``."""
    from ..runtime import compact_strings

    texts = compact_strings(pc.fill_null(t[text_col], ""))
    toks = pc.utf8_split_whitespace(texts)
    flat = pc.list_flatten(toks).combine_chunks()
    lens = (
        pc.fill_null(pc.list_value_length(toks), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    # str.split() semantics: drop empty tokens (Arrow yields [""]
    # for an empty string)
    doc_idx_tok = np.repeat(np.arange(len(t), dtype=np.int64), lens)
    nonempty = np.asarray(
        pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False),
        dtype=bool,
    )
    if not nonempty.all():
        flat = flat.filter(pa.array(nonempty))
        doc_idx_tok = doc_idx_tok[nonempty]
        lens = np.bincount(doc_idx_tok, minlength=len(t)).astype(np.int64)
    m = len(flat)
    nw = np.maximum(lens - width + 1, 0)
    if m < width:
        return pa.array([], type=pa.string()), np.empty(0, np.int64), nw
    k = m - width + 1
    slices = [flat.slice(j, k) for j in range(width)]
    grams = pc.binary_join_element_wise(*slices, pa.scalar(" "))
    # a window is valid iff it does not cross a doc boundary
    valid = doc_idx_tok[:k] == doc_idx_tok[width - 1 :]
    grams = grams.filter(pa.array(valid))
    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    return grams, doc_idx_tok[:k][valid], nw


def dup_span_stats_ds(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    width: int = 4,
    min_df: int = 2,
    max_broadcast_grams: int = 2_000_000,
) -> "ray.data.Dataset":
    """Duplicate-passage statistics: for every doc, how many of its
    token ``width``-grams (sliding window, stride 1, whitespace tokens)
    also appear in >= ``min_df`` distinct documents — the cross-doc
    span-duplication signal behind substring-dedup pipelines (public
    "deduplicating training data" recipe), computed EXACTLY on the gram
    strings (no hash-collision approximation, so a SQL oracle can
    reproduce it).

    Returns (id_col, n_windows, n_dup_windows); docs with fewer than
    ``width`` tokens have zero windows and are omitted (mirrors the SQL
    formulation). Rows with NULL text are dropped.

    Shape (100 TB): gram construction is w Arrow slices +
    ``binary_join_element_wise`` (no per-row Python); stage 1 ships one
    row per distinct gram per batch (per-doc DISTINCT via one
    dictionary-encode) into a bucketed combine; stage 2 broadcasts the
    frequent-gram set when it fits (``ray.put`` once, ``pc.is_in`` per
    batch — duplicated passages are rare relative to the corpus), else
    co-groups the exploded occurrences with the frequent grams in one
    keyed exchange on a gram-hash bucket and sums per doc (same planner
    shape as B5)."""

    def _grams(t: pa.Table):
        return token_grams(t, text_col, width)

    def df_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gram": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        t = t.filter(pc.is_valid(t[text_col]))
        if len(t) == 0:
            return empty
        grams, doc_idx, _ = _grams(t)
        if len(grams) == 0:
            return empty
        enc = grams.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ndict = len(enc.dictionary)
        pair_codes = np.unique(doc_idx * ndict + codes) % ndict
        dfc = np.bincount(pair_codes, minlength=ndict).astype(np.int64)
        return pa.table({"gram": enc.dictionary, "df": pa.array(dfc)})

    dfs = bucketed_group_agg(
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
        "gram",
        [("df", "sum")],
    )
    freq = dfs.map_batches(
        lambda t: t.filter(pc.greater_equal(t["df"], pa.scalar(min_df))).select(
            ["gram"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_freq = freq.count()

    def _out_schema(id_type):
        return pa.table(
            {
                id_col: pa.array([], type=id_type),
                "n_windows": pa.array([], type=pa.int64()),
                "n_dup_windows": pa.array([], type=pa.int64()),
            }
        )

    if n_freq <= max_broadcast_grams:
        if n_freq == 0:
            freq_arr = pa.array([], type=pa.string())
        else:
            parts = ray.get(freq.to_arrow_refs())
            freq_arr = pa.concat_tables([p for p in parts if len(p)])[
                "gram"
            ].combine_chunks()
        freq_ref = ray.put(freq_arr)

        def stats(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[text_col]))
            id_type = t.schema.field(id_col).type
            if len(t) == 0:
                return _out_schema(id_type)
            value_set = ray.get(freq_ref)
            grams, doc_idx, nw = _grams(t)
            ndocs = len(t)
            if len(grams):
                bad = np.asarray(
                    pc.fill_null(
                        pc.is_in(grams, value_set=value_set), False
                    ).to_numpy(zero_copy_only=False),
                    dtype=bool,
                )
                ndup = np.bincount(doc_idx[bad], minlength=ndocs).astype(np.int64)
            else:
                ndup = np.zeros(ndocs, dtype=np.int64)
            keep = nw > 0  # mirror SQL: zero-window docs have no rows
            return pa.table(
                {
                    id_col: t[id_col].filter(pa.array(keep)),
                    "n_windows": pa.array(nw[keep]),
                    "n_dup_windows": pa.array(ndup[keep]),
                }
            )

        return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)

    # ---- fallback: frequent-gram set too large to broadcast ----
    # join-free shape: co-group exploded occurrences with the frequent
    # grams by gram-hash bucket (one keyed exchange), emit per-doc
    # dup-count partials, then one bucketed per-doc sum over (window
    # totals ∪ dup partials). Avoids Ray 2.49 joins over join-derived
    # inputs (empty partitions surface schema-less blocks that crash
    # Acero).
    id_type = ds.schema().base_schema.field(id_col).type

    def occ_tagged(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        if len(t) == 0:
            return pa.table(
                {
                    "gram": pa.array([], type=pa.string()),
                    id_col: pa.array([], type=id_type),
                    "__n": pa.array([], type=pa.int64()),
                    "__isfreq": pa.array([], type=pa.int8()),
                }
            )
        grams, doc_idx, _ = _grams(t)
        # pre-aggregate per (gram, doc) so the exchange moves distinct
        # pairs with an occurrence count, never one row per window
        occ = pa.table(
            {"gram": grams, id_col: t[id_col].take(pa.array(doc_idx))}
        )
        agg = occ.group_by(["gram", id_col], use_threads=False).aggregate(
            [([], "count_all")]
        )
        agg = agg.rename_columns(["gram", id_col, "__n"])
        return pa.table(
            {
                "gram": agg["gram"],
                id_col: agg[id_col],
                "__n": pc.cast(agg["__n"], pa.int64()),
                "__isfreq": pa.array(np.zeros(len(agg), dtype=np.int8)),
            }
        )

    freq_tagged = freq.map_batches(
        lambda t: pa.table(
            {
                "gram": t["gram"],
                id_col: pa.nulls(len(t), type=id_type),
                "__n": pa.array(np.zeros(len(t), dtype=np.int64)),
                "__isfreq": pa.array(np.ones(len(t), dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    )

    def stamp(t: pa.Table) -> pa.Table:
        return t.append_column("__bucket", pa.array(bucket_ids([t["gram"]], 256)))

    def per_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], type=id_type),
                "n_windows": pa.array([], type=pa.int64()),
                "n_dup_windows": pa.array([], type=pa.int64()),
            }
        )
        isf = pc.equal(g["__isfreq"], pa.scalar(1, type=pa.int8()))
        fr = g.filter(isf)["gram"].combine_chunks()
        occ = g.filter(pc.invert(isf))
        if len(occ) == 0 or len(fr) == 0:
            return empty
        bad = pc.fill_null(pc.is_in(occ["gram"], value_set=fr), False)
        occd = occ.filter(bad)
        if len(occd) == 0:
            return empty
        agg = (
            occd.select([id_col, "__n"])
            .group_by(id_col, use_threads=False)
            .aggregate([("__n", "sum")])
        )
        agg = agg.rename_columns([id_col, "n_dup_windows"])
        return pa.table(
            {
                id_col: agg[id_col],
                "n_windows": pa.array(np.zeros(len(agg), dtype=np.int64)),
                "n_dup_windows": pc.cast(agg["n_dup_windows"], pa.int64()),
            }
        )

    partials = keyed_exchange(
        ds.map_batches(occ_tagged, batch_format="pyarrow", zero_copy_batch=True).union(
            freq_tagged
        ),
        "__bucket",
        per_bucket,
        stamp,
    )

    def totals(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        if len(t) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=id_type),
                    "n_windows": pa.array([], type=pa.int64()),
                    "n_dup_windows": pa.array([], type=pa.int64()),
                }
            )
        _, _, nw = _grams(t)
        keep = nw > 0  # mirror SQL: zero-window docs have no rows
        kt = t.filter(pa.array(keep))
        return pa.table(
            {
                id_col: kt[id_col],
                "n_windows": pa.array(nw[keep]),
                "n_dup_windows": pa.array(np.zeros(int(keep.sum()), dtype=np.int64)),
            }
        )

    base = ds.map_batches(totals, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_group_agg(
        base.union(partials),
        id_col,
        [("n_windows", "sum"), ("n_dup_windows", "sum")],
    )


# ---------------------------------------------------------------------------
# Edit-distance fuzzy pairs (SymSpell deletion-neighborhood join)
# ---------------------------------------------------------------------------


def _ed_le1(a: str, b: str) -> "int | None":
    """Exact edit distance when <= 1, else None. O(len) single pass —
    the verify step for deletion-neighborhood candidates."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    if la == lb:
        diff = 0
        for x, y in zip(a, b):
            if x != y:
                diff += 1
                if diff > 1:
                    return None
        return 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # lb == la + 1: b must be a with exactly one char inserted
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def edit_distance_pairs_ds(
    ds: "ray.data.Dataset",
    col: str,
    id_col: str,
    *,
    max_len: int = 64,
    num_buckets: int = 256,
    max_key_group: int = 4096,
) -> "ray.data.Dataset":
    """All (id_a, id_b, ed) pairs of rows whose ``col`` strings are
    within edit distance 1 — fuzzy duplicate detection for SHORT
    string columns (names, codes, titles), never an all-pairs scan.

    Algorithm: the symmetric-delete (SymSpell, Garbe 2012 — public
    algorithm) candidate rule — ed(a, b) <= 1 implies a and b share a
    key in {s} ∪ del1(s) (the string or one single-char deletion).
    Each row explodes into its len+1 keys; keys hash-partition; every
    key's group emits its EXACT-verified pairs (``_ed_le1``: deletion
    keys over-generate); pairs found under several keys collapse in
    one bucketed distinct keyed on (id_a, id_b).

    Shape (100 TB): the exchange is O(rows × (len+1)) key rows — the
    SymSpell space trade — and per-key groups stay small on natural
    data (``max_key_group`` fails loudly on pathological low-entropy
    columns, the pivot/max_categories convention; long/repetitive text
    belongs to the MinHash family, not edit distance). NULL and
    longer-than-``max_len`` strings are dropped. The per-row deletion
    enumeration is a Python loop by necessity (no Arrow kernel exists)
    but is bounded by max_len tiny strings; everything wide — the key
    exchange, the distinct — is bucketed. ``id_a < id_b`` in every
    output row."""
    import pandas as pd

    _EMPTY_KEYS = pa.table(
        {
            "key": pa.array([], type=pa.string()),
            "rid": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.string()),
        }
    )

    _EMPTY_PAIRS = pa.table(
        {
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "ed": pa.array([], type=pa.int64()),
        }
    )

    def explode_keys(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.is_valid(t[col]),
            pc.less_equal(pc.utf8_length(t[col]), pa.scalar(max_len)),
        )
        t = t.filter(pc.fill_null(m, False))
        if len(t) == 0:
            return _EMPTY_KEYS
        ids = t[id_col].to_pylist()
        strs = t[col].to_pylist()
        keys, rids, ss = [], [], []
        for rid, s in zip(ids, strs):
            keys.append(s)
            rids.append(rid)
            ss.append(s)
            for i in range(len(s)):
                keys.append(s[:i] + s[i + 1 :])
                rids.append(rid)
                ss.append(s)
        return pa.table(
            {
                "key": pa.array(keys, type=pa.string()),
                "rid": pa.array(rids, type=pa.int64()),
                "s": pa.array(ss, type=pa.string()),
            }
        )

    def stamp(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(t["key"].to_numpy(zero_copy_only=False)), categorize=False
        )
        return t.append_column(
            "__b", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return _EMPTY_PAIRS
        g = g.take(
            pc.sort_indices(
                g, sort_keys=[("key", "ascending"), ("rid", "ascending")]
            )
        )
        keys = g["key"].to_pylist()
        rids = g["rid"].to_pylist()
        strs = g["s"].to_pylist()
        n = len(keys)
        found: dict = {}
        lo = 0
        while lo < n:
            hi = lo + 1
            while hi < n and keys[hi] == keys[lo]:
                hi += 1
            width = hi - lo
            if width > max_key_group:
                raise ValueError(
                    f"edit_distance_pairs_ds: key group of {width} exceeds "
                    f"max_key_group={max_key_group} (low-entropy column?) — "
                    "use the MinHash-family ops for long/repetitive text"
                )
            if width > 1:
                for i in range(lo, hi):
                    for j in range(i + 1, hi):
                        if rids[i] == rids[j]:
                            continue
                        a, b = rids[i], rids[j]
                        if a > b:
                            a, b = b, a
                        if (a, b) in found:
                            continue
                        d = _ed_le1(strs[i], strs[j])
                        if d is not None:
                            found[(a, b)] = d
            lo = hi
        if not found:
            return _EMPTY_PAIRS
        items = sorted(found.items())
        arr = np.array([k for k, _ in items], dtype=np.int64)
        return pa.table(
            {
                "id_a": pa.array(arr[:, 0]),
                "id_b": pa.array(arr[:, 1]),
                "ed": pa.array(
                    np.array([d for _, d in items], dtype=np.int64)
                ),
            }
        )

    pairs = keyed_exchange(
        ds.map_batches(explode_keys, batch_format="pyarrow", zero_copy_batch=True),
        "__b",
        per_bucket,
        stamp,
    )
    # same pair discovered via keys hashing to DIFFERENT buckets: one
    # global bucketed distinct ((id_a, id_b) -> min ed; ed is identical
    # on every discovery, min is just the combiner)
    return bucketed_group_agg(
        pairs, ["id_a", "id_b"], [("ed", "min")], num_buckets=num_buckets
    )


def lsh_params_for_threshold(
    threshold: float,
    num_perm: int = 128,
    *,
    fp_weight: float = 0.5,
) -> "tuple[int, int]":
    """Pick the MinHash-LSH banding ``(bands, rows_per_band)`` for a
    target Jaccard ``threshold`` — the standard S-curve optimization
    (as popularized by the public datasketch library / MMDS ch. 3):
    candidate probability at similarity s is ``1 − (1 − s^r)^b``;
    minimize ``fp_weight · ∫₀^t P(s) ds + (1−fp_weight) · ∫ₜ¹ (1−P(s)) ds``
    over every (b, r) with ``b·r <= num_perm``.

    Returns the (bands, rows) to pass to the near-dup ops; exact — a
    512-point midpoint quadrature per candidate, microseconds total."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if num_perm < 2:
        raise ValueError("num_perm must be >= 2")
    xs = (np.arange(512, dtype=np.float64) + 0.5) / 512.0
    below = xs < threshold
    best, best_err = (1, num_perm), float("inf")
    for r in range(1, num_perm + 1):
        b = num_perm // r
        if b < 1:
            break
        p = 1.0 - (1.0 - xs**r) ** b
        fp = p[below].sum() / 512.0
        fn = (1.0 - p[~below]).sum() / 512.0
        err = fp_weight * fp + (1.0 - fp_weight) * fn
        if err < best_err:
            best, best_err = (b, r), err
    return best
