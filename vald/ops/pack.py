"""Sequence packing (training-batch construction): group variable-length
documents into fixed-capacity packs so a training pipeline can fill
context windows with minimal padding — the standard greedy packing step
of LLM data preparation.

Algorithm: next-fit-decreasing (NFD) per hash bucket. Docs shuffle ONCE
to ``hash(id) % num_buckets``; each bucket sorts its docs by
(length desc, id asc) and walks them once, closing a pack whenever the
next doc would overflow ``cap``. A doc longer than ``cap`` gets a pack
of its own. NFD's waste bound holds per bucket: every closed pack is
more than half full except possibly the buckets' last packs, so total
padding waste is < 50% worst-case and far lower on natural length
distributions (sorted-decreasing input packs tightly).

Scale design (100 TB): only (id, length) metadata moves through the
shuffle — never document bodies; callers join ``pack_id`` back to the
corpus by id (hash_sample-aligned). The per-bucket walk is a Python
loop over an int64 numpy array (inherently sequential scan state), so
``rows_per_bucket`` defaults lower than the B4 rule to keep a bucket's
walk ~O(1 s); the loop touches 8 bytes per doc, not the text. Packing
is deterministic for a fixed ``num_buckets`` (pass it explicitly for
byte-stable reruns); pack composition intentionally varies with bucket
count — packing is bucket-local by design, a global greedy order would
serialize the whole corpus through one task.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["pack_sequences"]

_ROWS_PER_BUCKET = 1_000_000
_MIN_BUCKETS = 32


def pack_sequences(
    ds,
    id_col: str,
    len_col: str,
    cap: int,
    *,
    num_buckets: int | None = None,
    rows_per_bucket: int = _ROWS_PER_BUCKET,
    min_buckets: int = _MIN_BUCKETS,
):
    """Assign every row a ``pack_id`` (int64, ``bucket * 2**32 + local``)
    and ``pack_pos`` (0-based position inside the pack) such that the
    sum of ``len_col`` within each pack is <= ``cap`` unless the pack is
    a single oversized doc. Rows with NULL id/length or length <= 0 are
    dropped (zero-length docs carry no tokens to pack).

    Returns (id_col, len_col, pack_id, pack_pos)."""
    from ..hashing import bucket_ids

    if cap <= 0:
        raise ValueError("cap must be positive")
    if num_buckets is None:
        num_buckets = max(min_buckets, math.ceil(ds.count() / rows_per_bucket))

    def bucketize(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[len_col]))
        m = pc.and_(m, pc.greater(t[len_col], pa.scalar(0)))
        t = t.filter(m).select([id_col, len_col])
        return t.append_column(
            "__bucket", pa.array(bucket_ids([t[id_col]], num_buckets))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        id_type = g.schema.field(id_col).type
        if len(g) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=id_type),
                    len_col: pa.array([], type=pa.int64()),
                    "pack_id": pa.array([], type=pa.int64()),
                    "pack_pos": pa.array([], type=pa.int64()),
                }
            )
        bucket = int(g["__bucket"][0].as_py())
        g = g.take(
            pc.sort_indices(
                g, sort_keys=[(len_col, "descending"), (id_col, "ascending")]
            )
        )
        lens = (
            pc.cast(g[len_col], pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n = len(lens)
        pack = np.empty(n, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        pid, run, p = 0, 0, 0
        for i in range(n):  # metadata-only scan: 8 B/doc, never the text
            L = int(lens[i])
            if run and run + L > cap:
                pid += 1
                run, p = 0, 0
            pack[i] = pid
            pos[i] = p
            run += L
            p += 1
        return pa.table(
            {
                id_col: g[id_col],
                len_col: pa.array(lens),
                "pack_id": pa.array((bucket << 32) + pack),
                "pack_pos": pa.array(pos),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
