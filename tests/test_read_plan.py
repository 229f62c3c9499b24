"""The plan ``read_source`` gives ``validate()``: with at least as many
files as CPUs, one fused read + row pass task per file (no
``SplitBlocks``) and tiny files grouped by bytes; with fewer files, one
fused task per run of row groups; with fewer row groups too, Ray's own
split plan; and the same verdicts and violations whichever way the
input arrives."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data
from ray.data import DataContext

from vald import corpus as C
from vald import pipeline as P
from vald.sources import read_source

N = 900
SEED = 11
# completeness, cardinality and fd on top of the corpus spec: every
# fused kind goes through the one keyed exchange
EXTRA_CHECKS = [
    {"kind": "completeness", "column": "path", "max_null_rate": 0.01,
     "constraint_id": "corpus.path.completeness"},
    {"kind": "cardinality", "column": "lang", "group_by": "repo",
     "min_distinct": 1, "constraint_id": "corpus.lang.cardinality"},
    {"kind": "fd", "columns": ["repo", "path"], "dependent": "lang",
     "constraint_id": "corpus.repo_path.lang.fd"},
]
SPEC = {**C.CORPUS_SPEC, "checks": C.CORPUS_SPEC.get("checks", []) + EXTRA_CHECKS}
_OP = re.compile(r"^Operator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks executed", re.M)


def _write(tmp_path, n_files: int, n_rows: int) -> list[str]:
    t = C.gen_batch(np.arange(n_rows, dtype=np.uint64), n_rows, SEED)
    step = -(-n_rows // n_files)
    files = []
    for i in range(n_files):
        f = str(tmp_path / f"part-{i:03d}.parquet")
        pq.write_table(t.slice(i * step, step), f)
        files.append(f)
    return files


def _write_row_groups(path, n_row_groups: int, n_rows: int = N) -> str:
    """All ``n_rows`` rows of ``_write``'s table in one file of
    ``n_row_groups`` row groups."""
    t = C.gen_batch(np.arange(n_rows, dtype=np.uint64), n_rows, SEED)
    pq.write_table(t, str(path), row_group_size=-(-n_rows // n_row_groups))
    assert pq.read_metadata(str(path)).num_row_groups == n_row_groups
    return str(path)


def _operators(res) -> dict[str, int]:
    return {m["name"]: int(m["tasks"]) for m in _OP.finditer(res.combined.stats())}


def _cpus() -> int:
    return int(ray.cluster_resources()["CPU"])


def _validate(ds, n_rows=N):
    return P.validate(ds, SPEC, parents={"repos": C.repos_table(n_rows, SEED)})


@pytest.fixture
def min_block_bytes(monkeypatch):
    """Sets ``DataContext.target_min_block_size`` for one test."""

    def set_(n: int) -> int:
        monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", n)
        return n

    return set_


def test_read_fuses_with_the_row_pass(ray_session, tmp_path, min_block_bytes):
    n_files = _cpus()
    files = _write(tmp_path, n_files, N)
    min_block_bytes(min(os.path.getsize(f) for f in files) // 2)
    ops = _operators(_validate(read_source(files)))
    assert ops.get("ReadParquet->MapBatches(_TaskValidator)") == n_files, ops
    assert not any("SplitBlocks" in name for name in ops), ops


def test_fewer_files_than_cpus_keep_rays_plan(ray_session, tmp_path, min_block_bytes):
    """With fewer files than CPUs a plan of one task per file would
    leave CPUs idle: the read keeps Ray's split plan, and the row pass
    runs more tasks than there are files."""
    n_files = _cpus() - 1
    files = _write(tmp_path, n_files, N)
    min_block_bytes(min(os.path.getsize(f) for f in files) // 2)
    ops = _operators(_validate(read_source(files)))
    assert any("SplitBlocks" in name for name in ops), ops
    row_pass = [n for name, n in ops.items() if "_TaskValidator" in name]
    assert row_pass and row_pass[0] > n_files, ops


def test_row_groups_of_one_file_fuse_with_the_row_pass(ray_session, tmp_path):
    """One file of 8 row groups at 4 CPUs: the read is planned by row
    group, runs at least one fused read + row pass task per CPU, and
    gives the verdicts and violations of a ``ray.data.read_parquet``
    read of the same file."""
    f = _write_row_groups(tmp_path / "one.parquet", 8)
    res = _validate(read_source(f))
    ops = _operators(res)
    assert ops.get("ReadParquet->MapBatches(_TaskValidator)", 0) >= _cpus(), ops
    assert not any("SplitBlocks" in name for name in ops), ops
    ref = _validate(ray.data.read_parquet(f))
    assert _sorted(res.verdicts_table()).equals(_sorted(ref.verdicts_table()))
    assert _sorted(res.violations_table()).equals(_sorted(ref.violations_table()))


def test_files_the_reader_skips_are_not_counted(ray_session, tmp_path, min_block_bytes):
    """A directory of jsonl files that also holds a README and a
    ``_SUCCESS`` marker: the plan counts only the files the json reader
    reads, so it asks for no more blocks than read tasks."""
    n_files = _cpus()
    for i in range(n_files):
        (tmp_path / f"part-{i}.jsonl").write_text(
            "".join(f'{{"id": {i * 10 + j}}}\n' for j in range(10))
        )
    for name in ("README.txt", "_SUCCESS"):
        (tmp_path / name).write_text("not data\n" * 50)
    min_block_bytes(1)
    ds = read_source(str(tmp_path), format="jsonl").materialize()
    assert sorted(r["id"] for r in ds.take_all()) == list(range(n_files * 10))
    assert "SplitBlocks" not in ds.stats()


def test_tiny_files_share_read_tasks(ray_session, tmp_path, min_block_bytes):
    files = _write(tmp_path, 30, N)
    total = sum(os.path.getsize(f) for f in files)
    per_block = min_block_bytes(total // 4)
    ops = _operators(_validate(read_source(files)))
    tasks = ops["ReadParquet->MapBatches(_TaskValidator)"]
    assert 1 <= tasks <= math.ceil(total / per_block) < 30, ops


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def test_same_results_on_every_read_route(ray_session, tmp_path, min_block_bytes):
    """``read_source``'s plan by file and by row group, Ray's own split
    plan (what a caller-built ``ray.data.read_parquet`` Dataset gets)
    and a repartitioned in-memory table give the same verdicts and
    violations."""
    files = _write(tmp_path, 4, N)
    min_block_bytes(min(os.path.getsize(f) for f in files) // 2)
    one = _write_row_groups(tmp_path / "one.parquet", 8)
    routes = {
        "read_source": read_source(files),
        "row_groups": read_source(one),
        "read_parquet": ray.data.read_parquet(files),
        "from_arrow": ray.data.from_arrow(pq.read_table(files)).repartition(7),
    }
    got = {}
    for name, ds in routes.items():
        res = _validate(ds)
        got[name] = (_sorted(res.verdicts_table()), _sorted(res.violations_table()))
    assert len(got["read_source"][1]) > 0
    for name in ("row_groups", "read_parquet", "from_arrow"):
        assert got[name][0].equals(got["read_source"][0]), name
        assert got[name][1].equals(got["read_source"][1]), name
