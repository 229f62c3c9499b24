"""Input sources beyond Parquet (B1 breadth): JSONL and CSV readers
with the same column-pruning discipline where the format allows it.

Parquet stays the scale format (columnar, prunable, row-group
filterable); JSONL is the native interchange format of the reference's
world (per-line JSON documents), CSV the lowest common denominator.
Both decode whole rows (row-oriented formats cannot prune at the
storage layer), so ``columns=`` prunes right after decode — the batch
that leaves the read stage carries only what the pipeline needs.
"""

from __future__ import annotations

import inspect
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs

import ray
import ray.data

__all__ = ["read_source", "jsonl_documents", "build_filter"]

_FORMATS = ("parquet", "jsonl", "csv")

_OPS = {
    "==": lambda f, v: f == v,
    "!=": lambda f, v: f != v,
    "<": lambda f, v: f < v,
    "<=": lambda f, v: f <= v,
    ">": lambda f, v: f > v,
    ">=": lambda f, v: f >= v,
    "in": lambda f, v: f.isin(v),
    "not_in": lambda f, v: ~f.isin(v),
    "is_null": lambda f, v: f.is_null(),
    "not_null": lambda f, v: ~f.is_null(),
}


def build_filter(spec) -> "pads.Expression":
    """Declarative filter spec → pyarrow dataset Expression, so a
    TableSpec / CLI / JSON config can express a pushdown predicate
    without importing pyarrow (B1 predicate pushdown surface).

    Grammar: ``{"col": name, "op": one-of ==,!=,<,<=,>,>=,in,not_in,
    is_null,not_null, "value": v}`` | ``{"and": [specs]}`` |
    ``{"or": [specs]}`` | ``{"not": spec}``. A ready-made
    ``pads.Expression`` passes through unchanged."""
    if isinstance(spec, pads.Expression):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"filter spec must be a dict or Expression, got {type(spec)}")
    if "and" in spec:
        parts = [build_filter(s) for s in spec["and"]]
        out = parts[0]
        for p in parts[1:]:
            out = out & p
        return out
    if "or" in spec:
        parts = [build_filter(s) for s in spec["or"]]
        out = parts[0]
        for p in parts[1:]:
            out = out | p
        return out
    if "not" in spec:
        return ~build_filter(spec["not"])
    op = spec["op"]
    if op not in _OPS:
        raise ValueError(f"unknown filter op {op!r}; one of {sorted(_OPS)}")
    return _OPS[op](pads.field(spec["col"]), spec.get("value"))


def _read_blocks(paths: str | list[str], reader) -> dict:
    """``override_num_blocks`` for ``reader`` over ``paths``, from one
    listing of its files: a file as given, a directory walked
    recursively, skipping names without one of the reader's default
    ``file_extensions`` and names under the directory that start with
    ``.`` or ``_`` (Ray skips those only for some spellings of the
    path; a file left out asks for fewer blocks, never a split). The
    plan asks for one block per ``target_min_block_size`` of file
    bytes, at most one per file, and only when there are at least as
    many files as cluster CPUs; otherwise ``{}``, Ray's own plan.

    Ray splits a read's output (``SplitBlocks``) to reach more blocks
    than read tasks; a read that asks for no more blocks than files is
    not split, so the map that follows fuses into the read tasks. Many
    tiny files still share a task. With fewer files than CPUs that
    would leave CPUs idle, and Ray's plan (at least ``2 x CPUs``
    blocks, split after the read) spreads the map over them instead. A
    missing path counts as a file of 0 bytes; the reader reports it."""
    exts = inspect.signature(reader).parameters["file_extensions"].default
    exts = None if exts is None else tuple("." + e.lower() for e in exts)
    sizes = []
    for p in [paths] if isinstance(paths, str) else paths:
        try:
            fs, path = pafs.FileSystem.from_uri(p)
        except pa.ArrowInvalid:  # a plain local path, not a URI
            fs, path = pafs.LocalFileSystem(), os.path.abspath(p)
        info = fs.get_file_info(path)
        if info.type != pafs.FileType.Directory:
            found = [(info.path, info.size or 0)]
        else:
            found = [
                (f.path, f.size)
                for f in fs.get_file_info(pafs.FileSelector(path, recursive=True))
                if f.is_file
                and not f.path[len(path) :].lstrip("/").startswith((".", "_"))
            ]
        sizes += [n for f, n in found if exts is None or f.lower().endswith(exts)]
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else os.cpu_count()
    if not sizes or len(sizes) < cpus:
        return {}
    per_block = ray.data.DataContext.get_current().target_min_block_size
    return {"override_num_blocks": min(len(sizes), max(1, -(-sum(sizes) // per_block)))}


def read_source(
    paths: str | list[str],
    *,
    format: str = "parquet",
    columns: list[str] | None = None,
    filter=None,
) -> "ray.data.Dataset":
    """Read ``paths`` in the given format as a Dataset of Arrow batches.

    - parquet: storage-level column pruning via ``columns=`` AND
      predicate pushdown via ``filter=`` (an Expression or
      ``build_filter`` spec) — row-group statistics skip IO before
      decode.
    - jsonl / csv: full-row decode (inherent to the format), then an
      immediately-fused filter + ``select_columns`` so only matching
      rows / requested columns enter the object store. Same semantics,
      applied post-decode (these formats carry no row statistics).

    When the input has at least as many files as the cluster has CPUs,
    the read is planned from its files (``_read_blocks``): at most one
    block per file and per ``DataContext.target_min_block_size`` bytes
    of files. Ray then fuses the maps that follow (the post-decode
    filter here, ``validate()``'s row pass) into the read tasks, so
    the decoded input never passes through the object store between
    read and row pass, and every CPU still has a file to read. With
    fewer files than CPUs (one checkpoint shard, a few large files)
    the read keeps Ray's own plan: at least ``2 × CPUs`` blocks (up to
    200, one per ``target_min_block_size`` of decoded bytes), got by
    splitting each file's read output, so the row pass spreads over
    every CPU at the cost of a pass of the decoded input through the
    object store. A Dataset built with ``ray.data.read_parquet`` always
    keeps Ray's plan.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown source format {format!r}; one of {_FORMATS}")
    expr = None if filter is None else build_filter(filter)
    reader = {
        "parquet": ray.data.read_parquet,
        "jsonl": ray.data.read_json,
        "csv": ray.data.read_csv,
    }[format]
    blocks = _read_blocks(paths, reader)
    if format == "parquet":
        kwargs = {} if expr is None else {"filter": expr}
        return reader(paths, columns=columns, **kwargs, **blocks)
    ds = reader(paths, **blocks)
    if expr is not None:
        ds = ds.map_batches(
            lambda t, e=expr: t.filter(e),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    if columns:
        ds = ds.select_columns(columns)
    return ds


def jsonl_documents(
    paths: str | list[str],
    *,
    doc_column: str = "doc",
) -> "ray.data.Dataset":
    """Read JSONL files as ONE raw-JSON-string column per line —
    the per-document shape of the reference's ``validate(doc)`` world.
    Feed the column to a ``jsonSchema`` check (vald.kernels) for full
    recursive draft-03 validation per line.

    Implemented with ``read_text`` (each line is one row) so documents
    keep their exact raw bytes — no parse/re-serialize roundtrip — and
    malformed lines surface as validation failures, not read errors.
    """
    ds = ray.data.read_text(paths)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([doc_column])

    return ds.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
