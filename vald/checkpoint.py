"""Per-partition checkpoint / resume with lineage (SURVEY.md B16).

Ray Data has no job-level checkpointing, so this is explicit design
(BASELINE.json: "resumable from checkpoint with per-partition lineage +
metrics"):

- a *checkpoint partition* is a unit of input (a file shard or a block
  range of the generated corpus) that is validated independently;
- partition outputs are written to deterministic paths
  ``out/violations/partition=<pid>/part-0.parquet`` and
  ``out/verdicts/partition=<pid>/part-0.parquet`` (tables sorted by
  (constraint_id, row_ref) first → byte-deterministic across reruns);
- only after both outputs commit is the manifest
  ``out/_checkpoints/<pid>.json`` written ATOMICALLY (tmp + rename),
  carrying lineage: input files, constraint ids, code version, row and
  byte counts, wall time;
- resume = the planner filters the partition list against completed
  manifests; a crash mid-partition just rewrites that partition
  (outputs are idempotent).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from . import __version__
from .ir import ConstraintSet, compile_table_spec
from .pipeline import validate

__all__ = ["CheckpointManager", "run_resumable"]


class CheckpointManager:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.ckpt_dir = os.path.join(out_dir, "_checkpoints")
        os.makedirs(self.ckpt_dir, exist_ok=True)

    def completed(self) -> set[str]:
        return {
            f[: -len(".json")]
            for f in os.listdir(self.ckpt_dir)
            if f.endswith(".json")
        }

    def manifest(self, pid: str) -> dict | None:
        p = os.path.join(self.ckpt_dir, f"{pid}.json")
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def commit(self, pid: str, lineage: dict) -> None:
        """Atomic: write tmp then rename (POSIX rename is atomic)."""
        final = os.path.join(self.ckpt_dir, f"{pid}.json")
        tmp = final + ".tmp"
        with open(tmp, "w") as f:
            json.dump(lineage, f, sort_keys=True)
        os.replace(tmp, final)

    def partition_dir(self, kind: str, pid: str) -> str:
        d = os.path.join(self.out_dir, kind, f"partition={pid}")
        os.makedirs(d, exist_ok=True)
        return d


@dataclass
class RunSummary:
    completed: list[str]
    skipped: list[str]
    total_rows: int
    total_violations: int


def run_resumable(
    partitions: dict[str, Callable[[], "ray.data.Dataset"]],
    spec: dict | ConstraintSet,
    out_dir: str,
    *,
    parents: dict | None = None,
    resume: bool = True,
    pipeline_width: int = 3,
    speculate_factor: float | None = None,
    speculate_min_done: int = 3,
) -> RunSummary:
    """Validate each checkpoint partition independently; skip completed
    ones on resume. ``partitions`` maps pid → thunk producing that
    partition's Dataset (e.g. one input file shard).

    ``pipeline_width`` partitions run CONCURRENTLY (driver threads, each
    driving its own Ray Data pipeline): small shards no longer underfill
    the cluster between partitions, while outputs stay byte-identical —
    each partition's files and manifest are independent, sorted, and
    committed atomically, so completion order cannot affect bytes.

    ``speculate_factor`` enables PARTITION-LEVEL SPECULATIVE EXECUTION
    (straggler mitigation, the former SURVEY §4.3 v1 limitation): once
    ``speculate_min_done`` partitions have finished, any in-flight
    partition older than ``speculate_factor × median(finished walls)``
    gets one concurrent backup attempt; the first attempt to finish
    wins. Double execution is SAFE BY CONSTRUCTION: outputs are a
    deterministic pure function of (partition input, spec) — sorted
    tables, attempt-unique tmp files, atomic renames — so both
    attempts produce byte-identical files and commit order cannot
    change a single output byte (pinned by the byte-determinism test).
    On a real cluster this bounds job completion by the healthy nodes
    instead of the slowest; the loser's work is the standard
    speculative-execution waste."""
    import threading

    cs = spec if isinstance(spec, ConstraintSet) else compile_table_spec(spec)
    mgr = CheckpointManager(out_dir)
    done = mgr.completed() if resume else set()
    skipped = [pid for pid in sorted(partitions) if pid in done]
    todo = [pid for pid in sorted(partitions) if pid not in done]

    # Dataset CREATION is serialized: concurrent read_parquet calls race
    # in fsspec's lazy filesystem-registry import (observed: spurious
    # HTTPFileSystem ImportError). Execution stays concurrent — creation
    # is metadata-only and cheap.
    create_lock = threading.Lock()

    def run_one(pid: str, attempt: int = 0) -> tuple[str, int, int]:
        t0 = time.monotonic()
        with create_lock:
            ds = partitions[pid]()
        res = validate(ds, cs, parents=parents)
        viol = res.violations_table()
        verd = res.verdicts_table()
        for kind, table in (("violations", viol), ("verdicts", verd)):
            final = os.path.join(mgr.partition_dir(kind, pid), "part-0.parquet")
            tmp = f"{final}.tmp-{attempt}"  # attempt-unique, then atomic
            pq.write_table(table, tmp)
            os.replace(tmp, final)
        rows = int(
            pa.compute.max(verd["n_checked"]).as_py() or 0
        ) if len(verd) else 0
        nviol = int(pa.compute.sum(verd["n_violations"]).as_py() or 0) if len(verd) else 0
        mgr.commit(
            pid,
            {
                "partition_id": pid,
                "input_files": getattr(ds, "input_files", lambda: [])() or [],
                "constraint_ids": cs.constraint_ids,
                "code_version": __version__,
                "rows": rows,
                "n_violations": nviol,
                "attempt": attempt,
                "wall_s": round(time.monotonic() - t0, 3),
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        )
        return pid, rows, nviol

    completed: list[str] = []
    total_rows = total_violations = 0
    if pipeline_width <= 1 or len(todo) <= 1:
        results = [run_one(pid) for pid in todo]
    elif speculate_factor is None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=pipeline_width) as pool:
            results = list(pool.map(run_one, todo))
    else:
        results = _run_speculative(
            run_one,
            todo,
            pipeline_width,
            float(speculate_factor),
            int(speculate_min_done),
        )
    for pid, rows, nviol in results:
        completed.append(pid)
        total_rows += rows
        total_violations += nviol
    return RunSummary(completed, skipped, total_rows, total_violations)


def _run_speculative(
    run_one: Callable,
    todo: list[str],
    width: int,
    factor: float,
    min_done: int,
    poll_s: float = 0.25,
) -> list[tuple[str, int, int]]:
    """Scheduler loop for speculative partition execution: at most
    ``width`` PRIMARY attempts in flight, plus backup slots; one backup
    per straggling partition; first finished attempt wins, a failed
    attempt only surfaces if no other attempt can still win."""
    import statistics
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    results: dict[str, tuple[str, int, int]] = {}
    walls: list[float] = []
    pending = list(todo)
    started: dict[str, float] = {}
    in_flight: dict = {}  # future -> (pid, attempt)
    attempts: dict[str, int] = {}
    failures: dict[str, Exception] = {}

    with ThreadPoolExecutor(max_workers=width + max(1, width // 2)) as pool:
        while pending or in_flight:
            n_primary = sum(1 for (_, a) in in_flight.values() if a == 0)
            while pending and n_primary < width:
                pid = pending.pop(0)
                started[pid] = time.monotonic()
                attempts[pid] = 1
                in_flight[pool.submit(run_one, pid, 0)] = (pid, 0)
                n_primary += 1
            if not in_flight:
                continue
            finished, _ = wait(
                list(in_flight), timeout=poll_s, return_when=FIRST_COMPLETED
            )
            for f in finished:
                pid, attempt = in_flight.pop(f)
                attempts[pid] -= 1
                if pid in results:
                    continue  # a sibling attempt already won
                try:
                    results[pid] = f.result()
                    walls.append(time.monotonic() - started[pid])
                except Exception as e:  # noqa: BLE001 - win-or-raise below
                    failures[pid] = e
                    if attempts[pid] == 0:
                        raise
            if len(walls) >= min_done:
                med = statistics.median(walls)
                now = time.monotonic()
                for f, (pid, attempt) in list(in_flight.items()):
                    if (
                        attempt == 0
                        and attempts.get(pid, 0) == 1
                        and pid not in results
                        and now - started[pid] > factor * med
                    ):
                        attempts[pid] += 1
                        in_flight[pool.submit(run_one, pid, 1)] = (pid, 1)
    return [results[pid] for pid in todo]
