"""Input sources: Parquet, JSONL and CSV read as Datasets with the same
column-pruning and filter discipline wherever the format allows it.

Parquet is the scale format (columnar, prunable, row-group
filterable). vald plans its read itself (``ParquetFiles``, a Ray
``Datasource``) from one listing of the files and one footer read per
file: the footers give each read task its rows, bytes and schema, and
the row groups to split a read into when there are fewer files than
CPUs. JSONL is the native interchange format of the reference's world
(per-line JSON documents), CSV the lowest common denominator; both go
through Ray's readers and decode whole rows (row-oriented formats
cannot prune at the storage layer), so ``columns=`` prunes right after
decode — the batch that leaves the read stage carries only what the
pipeline needs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data._internal.datasource.parquet_datasource import (
    PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT,
)
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask
from ray.data.datasource.partitioning import Partitioning, PathPartitionParser

__all__ = ["read_source", "jsonl_documents", "build_filter"]

_FORMATS = ("parquet", "jsonl", "csv")

# one parser per process: Ray resolves its base directory (a filesystem
# lookup of ~1.5 ms) on the first call and keeps it
_HIVE = PathPartitionParser(Partitioning("hive"))

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


def _list_files(paths: str | list[str], exts: tuple[str, ...] | None = None) -> list:
    """``(filesystem, path, bytes)`` of every file read from ``paths``,
    from one listing: a file as given, a directory walked recursively
    in path order, skipping names under it that start with ``.`` or
    ``_``, as Ray's readers do, and with ``exts`` set, names without one
    of those extensions. A missing path raises ``FileNotFoundError``, as
    Ray's readers do."""
    out = []
    for p in [paths] if isinstance(paths, str) else paths:
        try:
            fs, path = pafs.FileSystem.from_uri(p)
        except pa.ArrowInvalid:  # a plain local path, not a URI
            fs, path = pafs.LocalFileSystem(), os.path.abspath(p)
        info = fs.get_file_info(path)
        if info.type == pafs.FileType.NotFound:
            raise FileNotFoundError(p)
        found = [info]
        if info.type == pafs.FileType.Directory:
            found = sorted(
                (
                    f
                    for f in fs.get_file_info(pafs.FileSelector(path, recursive=True))
                    if f.is_file
                    and not f.path[len(path) :].lstrip("/").startswith((".", "_"))
                ),
                key=lambda f: f.path,
            )
        out += [
            (fs, f.path, f.size or 0)
            for f in found
            if exts is None or f.path.lower().endswith(exts)
        ]
    return out


def _cpus() -> int:
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else os.cpu_count()
    return max(1, int(cpus))


def _num_blocks(units: int, nbytes: int, cpus: int, floor: int = 1) -> dict:
    """``override_num_blocks`` for a read of ``units`` pieces holding
    ``nbytes`` of files: one block per ``target_min_block_size`` bytes,
    at least ``floor`` and at most one per piece, so that Ray need not
    split a read task's output to reach the count (it still splits a
    task it estimates above ``target_max_block_size``). ``{}``, Ray's
    own split plan (see ``read_source``), with fewer pieces than CPUs."""
    if not units or units < cpus:
        return {}
    per_block = ray.data.DataContext.get_current().target_min_block_size
    return {"override_num_blocks": min(units, max(floor, -(-nbytes // per_block)))}


class _Piece(NamedTuple):
    """Row groups of one Parquet file that one read task reads together:
    all of them, or one when the read is planned by row group."""

    fs: pafs.FileSystem
    path: str
    size: int  # of the file, from the listing (0: not known)
    row_groups: list[int]
    partitions: dict[str, str]  # hive ``k=v`` directories the file has no column for
    num_rows: int
    nbytes: int  # uncompressed bytes of the columns read, from the footer


class ParquetFiles(Datasource):
    """A Parquet read planned from one listing and the files' footers.

    Each piece is a whole file or, when there are fewer files than
    CPUs, one row group; a read task takes a run of consecutive pieces.
    Each task carries its rows, bytes, files and the schema from the
    footers, so ``count()`` and ``schema()`` read no data, and reads
    its pieces with ``columns=`` and ``filter=`` pushed into the
    fragment scan, so row-group statistics still skip I/O. In-memory
    sizes are the footers' uncompressed sizes times Ray's default
    Parquet encoding ratio, the estimate ``read_parquet`` uses when it
    does not sample the files. The operator is named ``ReadParquet``,
    as a ``ray.data.read_parquet`` read is."""

    def __init__(self, pieces: list[_Piece], schema, columns, expr):
        self._pieces = pieces
        self._schema = schema
        self._columns = columns
        self._expr = expr
        # batches of about a tenth of a block, as read_parquet sizes them
        max_block = ray.data.DataContext.get_current().target_max_block_size
        self._batch_bytes = max_block // 10 if max_block else None

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(p.nbytes for p in self._pieces) * PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        pieces = self._pieces
        if not pieces:
            return []
        tasks = []
        for idx in np.array_split(np.arange(len(pieces)), min(parallelism, len(pieces))):
            group = [pieces[i] for i in idx]
            meta = BlockMetadata(
                num_rows=None if self._expr is not None else sum(p.num_rows for p in group),
                size_bytes=sum(p.nbytes for p in group) * PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT,
                input_files=list(dict.fromkeys(p.path for p in group)),
                exec_stats=None,
            )
            read = functools.partial(
                _read_pieces, group, self._columns, self._expr, self._batch_bytes
            )
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def _read_pieces(pieces: list[_Piece], columns, expr, batch_bytes) -> Iterator[pa.Table]:
    """The read task of ``ParquetFiles``: one fragment scan per row
    group, the file's hive partitions given to the scan as its
    partition expression, so they fill their string columns and
    ``expr`` may test them. Each scan's batch size is ``batch_bytes``
    over the decoded bytes per row that the task's last batch measured,
    the first scan's over the footer's bytes per row; a batch that
    decodes to more than twice ``batch_bytes`` (a dictionary-encoded
    column can decode to tens of times its footer size) is yielded in
    slices of about ``batch_bytes``."""
    fmt = pads.ParquetFileFormat()
    per_row = None
    for path, run in itertools.groupby(pieces, key=lambda p: p.path):
        run = list(run)
        parts = run[0].partitions
        frag = fmt.make_fragment(
            path,
            run[0].fs,
            partition_expression=functools.reduce(
                operator.and_, (pads.field(k) == v for k, v in parts.items()), pads.scalar(True)
            ),
            file_size=run[0].size or None,
        )
        schema = frag.physical_schema
        for k in parts:
            schema = schema.append(pa.field(k, pa.string()))
        cols = None if columns is None else [c for c in columns if c in schema.names]
        for p in run:
            for g in p.row_groups:
                est = per_row or p.nbytes / max(1, p.num_rows)
                scan = {"batch_size": max(1, int(batch_bytes / est))} if batch_bytes and est else {}
                for batch in frag.subset(row_group_ids=[g]).to_batches(
                    schema=schema, columns=cols, filter=expr, use_threads=False, **scan
                ):
                    if not batch.num_rows:
                        continue
                    per_row = batch.nbytes / batch.num_rows or per_row
                    t = pa.Table.from_batches([batch])
                    t = t if columns is None else t.select(columns)
                    if batch_bytes and batch.nbytes > 2 * batch_bytes:
                        step = -(-t.num_rows // -(-batch.nbytes // batch_bytes))
                        yield from (t.slice(i, step) for i in range(0, t.num_rows, step))
                    else:
                        yield t


def _footers(files: list) -> list:
    """``pq.read_metadata`` of each of ``files``: in turn on a local
    disk, and on a thread pool on any other filesystem, where each
    footer read is a round trip to the store."""

    def read(f):
        return pq.read_metadata(f[1], filesystem=f[0])

    if all(isinstance(fs, pafs.LocalFileSystem) for fs, _, _ in files):
        return [read(f) for f in files]
    with ThreadPoolExecutor() as pool:
        return list(pool.map(read, files))


def _read_parquet(paths: str | list[str], columns, expr) -> "ray.data.Dataset":
    """``ParquetFiles`` over ``paths``: one footer read per file; whole
    files as pieces, or row groups when there are fewer files than
    CPUs, so that the read can still give every CPU a task."""
    files = _list_files(paths)
    cpus = _cpus()
    by_row_group = len(files) < cpus
    pieces, schema = [], None
    for (fs, path, size), md in zip(files, _footers(files)):
        file_schema = md.schema.to_arrow_schema()
        parts = {k: v for k, v in _HIVE(path).items() if k not in file_schema.names}
        if schema is None:  # the first file's, as read_parquet's
            schema = file_schema
            for k in parts:
                schema = schema.append(pa.field(k, pa.string()))
            if columns is not None:
                schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
        n = md.num_row_groups
        for run in [[g] for g in range(n)] if by_row_group else [list(range(n))]:
            rgs = [md.row_group(g) for g in run]
            pieces.append(
                _Piece(
                    fs,
                    path,
                    size,
                    run,
                    parts,
                    sum(rg.num_rows for rg in rgs),
                    sum(_uncompressed(rg, columns) for rg in rgs),
                )
            )
    nbytes = sum(size for _, _, size in files)
    blocks = _num_blocks(len(pieces), nbytes, cpus, floor=cpus if by_row_group else 1)
    return ray.data.read_datasource(ParquetFiles(pieces, schema, columns, expr), **blocks)


def _uncompressed(rg, columns) -> int:
    """Uncompressed bytes of row group ``rg``, of ``columns`` only when set."""
    if columns is None:
        return rg.total_byte_size
    cols = (rg.column(j) for j in range(rg.num_columns))
    return sum(
        c.total_uncompressed_size for c in cols if c.path_in_schema.split(".")[0] in columns
    )


def read_source(
    paths: str | list[str],
    *,
    format: str = "parquet",
    columns: list[str] | None = None,
    filter=None,
) -> "ray.data.Dataset":
    """Read ``paths`` in the given format as a Dataset of Arrow batches.

    - parquet: a ``ParquetFiles`` read, planned by vald from one listing
      of the files and one footer read per file, with storage-level
      column pruning via ``columns=`` and predicate pushdown via
      ``filter=`` (an Expression or ``build_filter`` spec): row-group
      statistics skip IO before decode. ``count()`` and ``schema()``
      come from the footers without reading data (``count()`` only
      without ``filter=``). Hive ``k=v`` directories add string
      columns, as ``ray.data.read_parquet`` does, which ``filter=`` may
      also test (``read_parquet`` rejects that). Files whose schemas
      differ behave as with ``read_parquet``: ``schema()`` is the first
      file's, and each file is read with its own schema, so its rows
      keep the columns and types it has (Ray logs a schema change), and
      a ``filter=`` on a column one of the files lacks fails with
      Arrow's ``No match for FieldRef`` error. The footers are read in
      turn on a local disk and concurrently on any other filesystem.
    - jsonl / csv: Ray's readers. Full-row decode (inherent to the
      format), then an immediately-fused filter + ``select_columns`` so
      only matching rows / requested columns enter the object store.
      Same semantics, applied post-decode (these formats carry no row
      statistics).

    The read is planned so that Ray fuses the maps that follow (the
    post-decode filter here, ``validate()``'s row pass) into the read
    tasks, and the decoded input never passes through the object store
    between read and row pass: at most one task per piece and one per
    ``DataContext.target_min_block_size`` of file bytes. A piece is a
    file; for Parquet with fewer files than the cluster has CPUs (one
    checkpoint shard, a few large files) it is a row group, and the
    read has at least one task per CPU. With fewer pieces than CPUs
    (jsonl or csv in fewer files than CPUs, Parquet in fewer row groups
    than CPUs) the read keeps Ray's own plan: at least ``2 × CPUs``
    blocks, got by splitting each task's read output, so the row pass
    spreads over every CPU at the cost of a pass of the decoded input
    through the object store. A missing path raises
    ``FileNotFoundError``.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown source format {format!r}; one of {_FORMATS}")
    expr = None if filter is None else build_filter(filter)
    if format == "parquet":
        return _read_parquet(paths, columns, expr)
    reader = ray.data.read_json if format == "jsonl" else ray.data.read_csv
    exts = inspect.signature(reader).parameters["file_extensions"].default
    files = _list_files(paths, None if exts is None else tuple("." + e.lower() for e in exts))
    ds = reader(paths, **_num_blocks(len(files), sum(n for _, _, n in files), _cpus()))
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
