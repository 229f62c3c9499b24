"""Checkpoint/resume (B16, SURVEY §5.2.7) + CLI smoke."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

import ray.data

from vald import corpus as C
from vald.checkpoint import CheckpointManager, run_resumable

N = 3000
SEED = 42


def _partitions(n_shards=4):
    per = N // n_shards
    return {
        f"shard{i}": (
            lambda i=i: ray.data.range(per).map_batches(
                lambda b, i=i: C.gen_batch(
                    b["id"].to_numpy() + i * per, N, SEED
                ),
                batch_format="pyarrow",
            )
        )
        for i in range(n_shards)
    }


def test_resume_skips_completed_and_outputs_identical(tmp_path, ray_session):
    parents = {"repos": C.repos_table(N, SEED)}
    out_full = str(tmp_path / "full")
    s1 = run_resumable(_partitions(), C.CORPUS_SPEC, out_full, parents=parents)
    assert len(s1.completed) == 4 and not s1.skipped
    assert s1.total_violations > 0

    # interrupted run: only 2 of 4 partitions, then resume with all 4
    out_resume = str(tmp_path / "resumed")
    parts = _partitions()
    first_two = {k: parts[k] for k in list(sorted(parts))[:2]}
    run_resumable(first_two, C.CORPUS_SPEC, out_resume, parents=parents)
    mgr = CheckpointManager(out_resume)
    assert mgr.completed() == {"shard0", "shard1"}
    mtimes = {
        p: os.path.getmtime(os.path.join(mgr.ckpt_dir, p + ".json"))
        for p in mgr.completed()
    }
    s2 = run_resumable(parts, C.CORPUS_SPEC, out_resume, parents=parents)
    assert sorted(s2.skipped) == ["shard0", "shard1"]
    assert sorted(s2.completed) == ["shard2", "shard3"]
    # completed partitions were NOT recomputed (manifest mtimes unchanged)
    for p, m in mtimes.items():
        assert os.path.getmtime(os.path.join(mgr.ckpt_dir, p + ".json")) == m

    # outputs byte-identical to the uninterrupted run
    for kind in ("violations", "verdicts"):
        for shard in ("shard0", "shard1", "shard2", "shard3"):
            a = pq.read_table(f"{out_full}/{kind}/partition={shard}/part-0.parquet")
            b = pq.read_table(f"{out_resume}/{kind}/partition={shard}/part-0.parquet")
            assert a.equals(b), (kind, shard)

    # lineage content
    man = mgr.manifest("shard2")
    assert man["constraint_ids"] and man["code_version"] and man["rows"] > 0


def test_cli_end_to_end(tmp_path):
    """CLI drives gen-corpus → run --checkpoint → resume, in a fresh
    process (the CLI owns its own Ray session)."""
    env = dict(os.environ)
    corpus_dir = str(tmp_path / "corpus")
    r = subprocess.run(
        [sys.executable, "-m", "vald", "--num-cpus", "2", "gen-corpus",
         "--rows", "2000", "--out", corpus_dir],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.strip().splitlines()[-1])["rows"] == 2000

    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as f:
        json.dump(C.CORPUS_SPEC, f)
    out_dir = str(tmp_path / "out")
    r2 = subprocess.run(
        [sys.executable, "-m", "vald", "--num-cpus", "2", "run",
         "--input", f"{corpus_dir}/corpus/*.parquet", "--spec", spec_path,
         "--parent", f"repos={corpus_dir}/repos.parquet",
         "--out", out_dir, "--checkpoint"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr
    res = json.loads(r2.stdout.strip().splitlines()[-1])
    assert res["completed"] >= 1 and res["violations"] > 0

    # resume: everything skipped
    r3 = subprocess.run(
        [sys.executable, "-m", "vald", "--num-cpus", "2", "run",
         "--input", f"{corpus_dir}/corpus/*.parquet", "--spec", spec_path,
         "--parent", f"repos={corpus_dir}/repos.parquet",
         "--out", out_dir, "--checkpoint"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    res3 = json.loads(r3.stdout.strip().splitlines()[-1])
    assert res3["completed"] == 0 and res3["skipped"] == res["completed"] + res["skipped"]


def test_cli_spec_error_before_ray_starts(tmp_path):
    """A spec with an unknown check key exits 2 with the SpecError,
    before the CLI starts Ray or lists its input."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"table": "t", "checks": [{"kind": "unique", "columns": ["a"], "colums": ["b"]}]}
    ))
    code = (
        "import ray\n"
        "from vald import cli\n"
        "cli._ray_init = lambda n: print('ray started')\n"
        f"rc = cli.main(['run', '--input', 'missing/*.parquet', '--spec', {str(spec_path)!r}])\n"
        "print(rc, ray.is_initialized())\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert r.stdout.split() == ["2", "False"], (r.stdout, r.stderr)
    assert "spec error: checks[0] (kind 'unique'): unknown key(s) ['colums']" in r.stderr


def test_cli_dedup_minhash(tmp_path):
    """CLI dedup end-to-end in a fresh process: pairs + groups + deduped
    corpus written; duplicate cluster collapses to its representative."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [
        "the quick brown fox jumps over the lazy dog " * 8,
        "the quick brown fox jumps over the lazy dog " * 8,
        "the quick brown fox jumps over the lazy cat " * 8,
        "completely different content about databases and systems " * 6,
    ]
    src = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), type=pa.int64()), "text": texts}),
        str(src),
    )
    out = str(tmp_path / "out")
    r = subprocess.run(
        [sys.executable, "-m", "vald", "--num-cpus", "2", "dedup",
         "--input", str(src), "--method", "minhash", "--on", "text",
         "--id", "doc_id", "--threshold", "0.5", "--out", out],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert res["rows_in"] == 4 and res["rows_out"] == 2
    kept = pq.read_table(os.path.join(out, "deduped")).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 3]
    groups = pq.read_table(os.path.join(out, "groups")).to_pandas()
    assert set(groups["group_id"]) == {0}


def test_speculative_straggler_backup(tmp_path, ray_session):
    """Partition-level speculative execution (SURVEY §4.3, r4): a
    straggling partition gets ONE backup attempt; the first finisher
    wins; outputs are byte-identical to a non-speculative run."""
    import time as _time

    parents = {"repos": C.repos_table(N, SEED)}
    marker = tmp_path / "slow_attempts"

    def _parts_with_straggler():
        parts = _partitions()
        inner = parts["shard3"]

        def slow_thunk():
            n = int(marker.read_text()) if marker.exists() else 0
            marker.write_text(str(n + 1))
            ds = inner()
            if n == 0:
                # first attempt straggles INSIDE execution (not under
                # the creation lock): 8s sleep in its only map stage
                return ds.map_batches(
                    lambda t: (_time.sleep(8), t)[1], batch_format="pyarrow"
                )
            return ds

        parts["shard3"] = slow_thunk
        return parts

    out_spec = str(tmp_path / "spec")
    t0 = _time.monotonic()
    s = run_resumable(
        _parts_with_straggler(),
        C.CORPUS_SPEC,
        out_spec,
        parents=parents,
        pipeline_width=3,
        speculate_factor=1.5,
        speculate_min_done=1,
    )
    wall = _time.monotonic() - t0
    assert sorted(s.completed) == ["shard0", "shard1", "shard2", "shard3"]
    # the backup was actually launched (thunk ran twice for shard3)
    assert int(marker.read_text()) == 2
    # byte-identical to a plain run
    out_plain = str(tmp_path / "plain")
    run_resumable(
        _partitions(), C.CORPUS_SPEC, out_plain, parents=parents
    )
    for kind in ("violations", "verdicts"):
        for pid in s.completed:
            a = open(
                os.path.join(out_spec, kind, f"partition={pid}", "part-0.parquet"),
                "rb",
            ).read()
            b = open(
                os.path.join(out_plain, kind, f"partition={pid}", "part-0.parquet"),
                "rb",
            ).read()
            assert a == b, (kind, pid)
    assert wall < 60
