"""Stable, vectorized hashing utilities (SURVEY.md B3, §4.3).

Determinism contract: every hash here is stable across processes,
parallelism levels and runs (no PYTHONHASHSEED dependence), because
partition ids and violation keys must be identical at N and 4N
parallelism (SURVEY.md §4.3 "determinism").
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["stable_hash64", "bucket_ids", "partition_ids", "sha256_hex_column"]


def _as_object_array(values) -> np.ndarray:
    """``values`` as a numpy object array of Python values, NULL as
    None. A string or binary Arrow column converts in one
    ``to_numpy`` call (the same str/bytes objects as ``to_pylist``, at
    about a seventh of its time on a 500-row column); any other type
    goes through ``to_pylist``, since ``to_numpy`` would turn an int
    column holding a NULL into float64, which hashes differently."""
    if isinstance(values, (pa.ChunkedArray, pa.Array)):
        t = values.type
        if (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            return values.to_numpy(zero_copy_only=False)
        values = values.to_pylist()
    return np.asarray(values, dtype=object)


def stable_hash64(values) -> np.ndarray:
    """uint64 hash of a string column — pandas' fixed-key siphash
    (``pd.util.hash_array``), deterministic across processes, vectorized.

    CAVEAT (verified in sandbox): pandas hashes strings as C strings —
    the value is TRUNCATED at the first NUL byte, so "a\\x00b" and
    "a\\x00c" collide. Never join composite keys with "\\x00" before
    hashing; use "\\x1f" (KEY_SEP) instead."""
    arr = _as_object_array(values)
    return pd.util.hash_array(arr, categorize=False)


# composite-key join separator, safe for stable_hash64 (see caveat above)
KEY_SEP = "\x1f"


_MIX = np.uint64(0x9E3779B97F4A7C15)


def bucket_ids(arrays, num_buckets: int) -> np.ndarray:
    """int32 hash bucket of each row of the key columns ``arrays``
    (Arrow arrays of one length): the pandas siphash of each column
    folded as ``h = h * 0x9E3779B97F4A7C15 + hash(column)``, then
    ``% num_buckets``. The one bucket hash of every keyed exchange. A
    NULL hashes as 0 and only valid values are hashed, so a key's
    bucket never depends on NULLs in its batch (Arrow turns an int or
    bool column holding a NULL into float64 or object)."""
    h = np.zeros(len(arrays[0]), dtype=np.uint64)
    for a in arrays:
        col = np.zeros(len(a), dtype=np.uint64)
        valid = pc.is_valid(a).to_numpy(zero_copy_only=False) if a.null_count else slice(None)
        col[valid] = pd.util.hash_array(
            pc.drop_null(a).to_numpy(zero_copy_only=False), categorize=False
        )
        with np.errstate(over="ignore"):
            h = h * _MIX + col
    return (h % np.uint64(num_buckets)).astype(np.int32)


def partition_ids(values, num_partitions: int) -> np.ndarray:
    """partition_id = hash64(key) % P  (SURVEY.md §4.3 partitioning key)."""
    return (stable_hash64(values) % np.uint64(num_partitions)).astype(np.int32)


def sha256_hex_column(values) -> list[str]:
    """Per-row sha256 hex of a string/binary column — the per-row
    invariant vs the reference (BASELINE.json:16 "content sha256
    equality"). Runs inside map_batches workers (B3).

    Arrow string/binary columns are hashed STRAIGHT FROM THE ARROW
    BUFFERS (offsets + data memoryview) — no per-row Python string
    materialization, no utf-8 re-encode; on wide content columns this
    halves the stage's memory traffic."""
    if isinstance(values, pa.ChunkedArray):
        out: list[str | None] = []
        for chunk in values.chunks:
            out.extend(sha256_hex_column(chunk))
        return out
    if isinstance(values, pa.Array) and (
        pa.types.is_string(values.type)
        or pa.types.is_binary(values.type)
        or pa.types.is_large_string(values.type)
        or pa.types.is_large_binary(values.type)
    ):
        large = pa.types.is_large_string(values.type) or pa.types.is_large_binary(
            values.type
        )
        validity, offsets_buf, data_buf = values.buffers()
        odtype = np.int64 if large else np.int32
        offsets = np.frombuffer(offsets_buf, dtype=odtype)[
            values.offset : values.offset + len(values) + 1
        ]
        data = memoryview(data_buf)
        sha256 = hashlib.sha256
        valid = np.ones(len(values), dtype=bool)
        if values.null_count:
            valid = np.asarray(
                pc.is_valid(values).to_numpy(zero_copy_only=False), dtype=bool
            )
        out = [
            sha256(data[offsets[i] : offsets[i + 1]]).hexdigest()
            if valid[i]
            else None
            for i in range(len(values))
        ]
        return out
    # generic fallback (python values)
    if isinstance(values, pa.Array):
        values = values.to_pylist()
    out = []
    for v in values:
        if v is None:
            out.append(None)
        else:
            b = v if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8")
            out.append(hashlib.sha256(b).hexdigest())
    return out
