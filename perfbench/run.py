"""vald benchmark.

    python3 perfbench/run.py --workload corpus_validate --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. Each run prepares its inputs from the seed
(cached under .perfbench_data/), starts a fresh Ray session with
num_cpus=2, runs one untimed warm-up operation, then a closed loop of
operations for --seconds, checks every output against an independent
reference, and prints one JSON result as the last line of stdout.
--trace 0 reports the end-to-end metrics; --trace 1 makes a separate
traced run that reports the per-layer metrics. --workload all runs the
gated workloads BENCHMARK.json lists, each in its own process, one result
line each. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as W
from inputs import add_extra_references, prepare_catalog, prepare_corpus, tables_read
from session import (
    OpTimeout,
    RaySession,
    call_with_limit,
    exit_on_sigterm,
    parse_stats,
    run_child,
)
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_data"
RUN_LIMIT_S = 165.0  # one run, set-up and teardown included, ends before this
TEARDOWN_RESERVE_S = 25.0  # Ray shutdown + the after-run probes


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _checkout_ok() -> bool:
    return (ROOT / "vald" / "__init__.py").is_file() and (
        ROOT / "tools" / "driver_sim.py"
    ).is_file()


def _load_canon():
    """The catalog's canonical (schema signature, value hash) of a frame,
    as the repo's catalog simulation (tools/driver_sim.py) computes it."""
    spec = importlib.util.spec_from_file_location("driver_sim", ROOT / "tools" / "driver_sim.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod._canon_frame


def alu_probe(n: int) -> float | None:
    probe = ROOT / "BENCH" / "alu_probe.py"
    if not probe.is_file():
        return None
    try:
        out = subprocess.run(
            [sys.executable, str(probe), str(n)],
            capture_output=True, text=True, timeout=30, cwd=ROOT,
        ).stdout.split()
        return float(out[1])
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        return None


def host_context() -> dict:
    import pyarrow
    import ray

    digest = hashlib.sha256()
    for p in sorted((ROOT / "vald").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = r.stdout.strip() or None
    return {
        "git_sha": sha,
        "vald_sources_sha256": digest.hexdigest(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }


class Runner:
    """One workload run: inputs, a fresh Ray session, warm-up, the closed
    loop (or the traced pairs and layer suite), checks and teardown."""

    def __init__(self, wl, seed: int, seconds: float, traced: bool, canon):
        self.wl, self.seed, self.seconds, self.traced = wl, seed, seconds, traced
        self.canon = canon
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.timed_out = False

    # -- inputs ---------------------------------------------------------------
    def prepare(self) -> None:
        wl = self.wl
        self.corpus = self.catalog = None
        if wl.kind == "corpus" or self.traced:
            n = wl.n_rows or W.SMALL_CORPUS_ROWS
            self.corpus = prepare_corpus(str(CACHE), n, self.seed)
            if wl.spec_kind == "multicheck":
                add_extra_references(self.corpus)
        if wl.kind == "catalog" or self.traced:
            self.catalog = prepare_catalog(
                str(CACHE), W.CATALOG_SF, self.seed, W.CATALOG_QUERIES, self.canon
            )
        if wl.kind == "catalog":
            from vald.queries.registry import ORACLE_SQL

            self.rows_per_op = sum(
                self.catalog.table_rows[t]
                for q in W.CATALOG_QUERIES
                for t in tables_read(ORACLE_SQL[q])
            )
        else:
            self.rows_per_op = self.corpus.n_rows

    # -- operations ------------------------------------------------------------
    def op(self, tr):
        if self.wl.kind == "catalog":
            return W.catalog_op(self.catalog, tr)
        return W.corpus_op(self.corpus, W.corpus_spec(self.wl.spec_kind), tr)

    def check(self, out) -> str | None:
        if self.wl.kind == "catalog":
            return W.check_catalog(self.catalog, out, self.canon)
        return W.check_corpus(self.wl.spec_kind, self.corpus, out)

    def remaining(self) -> float:
        return self.deadline - time.monotonic() - TEARDOWN_RESERVE_S

    def attempt(self, fn, limit_s: float, check=None):
        """Time fn() under a wall-clock limit and check its output outside
        the timed interval. Returns (seconds, output) or None on failure;
        a timeout is re-raised after it is counted."""
        def timed():
            t0 = time.perf_counter()
            out = fn()
            return time.perf_counter() - t0, out

        self.attempted += 1
        try:
            wall, out = call_with_limit(timed, min(limit_s, max(self.remaining(), 1.0)))
        except OpTimeout as e:
            self.failed += 1
            self.timed_out = True
            self.errors.append(str(e))
            raise
        except Exception as e:  # noqa: BLE001 - an operation's failure is a data point
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            _log(traceback.format_exc())
            return None
        err = check(out) if check else None
        if err:
            self.failed += 1
            self.errors.append(err)
            _log(f"wrong result: {err}")
            return None
        return wall, out

    # -- the run ------------------------------------------------------------------
    def run(self) -> tuple[dict, dict]:
        null = NullTracer()
        ctx: dict = {"workload": self.wl.name, "seed": self.seed}
        ctx["alu_probe_before"] = {"1": alu_probe(1), "2": alu_probe(2)}
        session = RaySession(str(CACHE / "ray"))
        metrics: dict = {}
        walls: list[float] = []
        try:
            self.prepare()
            t0 = time.perf_counter()
            session.start()
            warm = self.attempt(lambda: self.op(null), self.wl.op_limit_s, self.check)
            setup_s = time.perf_counter() - t0
            if warm and self.wl.kind == "corpus":

                ctx["read_blocks"] = parse_stats(warm[1]["result"].combined.stats())["read_blocks"]
            del warm
            gc.collect()
            if self.traced:
                metrics = self.traced_body()
            else:
                walls = self.timed_loop()
                metrics = self.e2e_metrics(setup_s, walls, session)
        except Exception as e:  # noqa: BLE001 - report and tear down, never hang
            if not self.timed_out:
                self.failed += 1
                self.errors.append(f"{type(e).__name__}: {e}")
                _log(traceback.format_exc())
        finally:
            # an exception still in flight here is SIGTERM's SystemExit
            session.close(abandoned=self.timed_out or sys.exc_info()[0] is not None)
        ctx["alu_probe_after"] = {"1": alu_probe(1), "2": alu_probe(2)}
        ctx.update(
            num_cpus=2,
            timed_ops=len(walls),
            op_walls_s=[round(w, 4) for w in walls],
            attempted=self.attempted,
            failed=self.failed,
            failed_share=self.failed / max(self.attempted, 1),
            errors=self.errors[:5],
            **host_context(),
        )
        result = {
            "correct": self.failed == 0 and self.attempted > 0 and bool(metrics),
            "attempted": max(self.attempted, self.failed, 1),
            "failed": self.failed,
            "metrics": metrics,
        }
        return result, ctx

    def timed_loop(self) -> list[float]:
        null = NullTracer()
        walls: list[float] = []
        start = time.monotonic()
        while not walls or time.monotonic() - start < self.seconds:
            if walls and self.remaining() < 2 * max(walls):
                break
            got = self.attempt(lambda: self.op(null), self.wl.op_limit_s, self.check)
            if got:
                walls.append(got[0])
            del got
            gc.collect()
            if self.failed and not walls:
                break
        return walls

    def e2e_metrics(self, setup_s: float, walls: list[float], session) -> dict:
        if not walls:
            return {}
        wall = statistics.median(walls)
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": self.rows_per_op / wall, "unit": "rows/s"},
            "peak_rss_mb": {"value": session.peak_rss_mb, "unit": "MB"},
        }

    def traced_body(self) -> dict:
        """Untraced and traced operations in alternation for --seconds,
        then the layer suite; per-layer metrics from spans and stats()."""
        tr, null = Tracer(), NullTracer()
        plain, traced, m = [], [], {}
        start, i = time.monotonic(), 0
        while not traced or time.monotonic() - start < self.seconds:
            got = self.attempt(lambda: self.op(null), self.wl.op_limit_s, self.check)
            if got:
                plain.append(got[0])
            del got
            with tr.operation(f"op{i}"):
                got = self.attempt(lambda: self.op(tr), self.wl.op_limit_s, self.check)
            if got and self.wl.kind == "corpus":
                m.update(W.stage_metrics(got[1]["result"].combined.stats()))
            if got:
                traced.append(got[0])
            del got
            gc.collect()
            i += 1
            if not (plain and traced) or self.remaining() < 60:
                break
        # every traced run reports every layer: the catalog workload adds one
        # validate operation for the stage and pipeline metrics, the corpus
        # workloads one catalog pass for the query metrics
        if self.wl.kind == "catalog":
            with tr.operation("layers.validate"):
                got = self.attempt(
                    lambda: W.corpus_op(self.corpus, W.corpus_spec("validate"), tr),
                    W.WORKLOADS["corpus_validate"].op_limit_s,
                    lambda out: W.check_corpus("validate", self.corpus, out),
                )
            if got:
                m.update(W.stage_metrics(got[1]["result"].combined.stats()))
        else:
            with tr.operation("layers.catalog_pass"):
                got = self.attempt(
                    lambda: W.catalog_op(self.catalog, tr),
                    W.WORKLOADS["catalog_sf01"].op_limit_s,
                    lambda out: W.check_catalog(self.catalog, out, self.canon),
                )
        del got
        got = self.attempt(
            lambda: W.layer_suite(self.corpus, self.catalog, tr), self.remaining()
        )
        if got:
            m.update(got[1])
        for name, durs in tr.durations("queries.").items():
            m[f"{name}_s"] = statistics.median(durs)
        folds = tr.durations("pipeline.fold").get("pipeline.fold")
        if folds:
            m["pipeline.fold_s"] = statistics.median(folds)
        selfs = tr.self_times()
        for layer in W.LAYERS:
            m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
        if plain and traced:
            m["trace.untraced_wall_s"] = statistics.median(plain)
            m["trace.traced_wall_s"] = statistics.median(traced)
            m["trace.overhead_ratio"] = m["trace.traced_wall_s"] / m["trace.untraced_wall_s"]
        os.makedirs(CACHE, exist_ok=True)
        tr.dump(str(CACHE / f"spans-{self.wl.name}-s{self.seed}.json"))
        units = dict(W.PER_LAYER)
        missing = [k for k in units if k not in m]
        if missing:
            self.failed += 1
            self.errors.append(f"per-layer metrics missing: {missing}")
        return {k: {"value": m[k], "unit": units[k]} for k in units if k in m}


def run_all(args) -> int:
    """Every gated workload, as BENCHMARK.json lists them, each in a child
    process: a timed-out operation in one cannot touch the next."""
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rcs = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        rcs.append(run_child(cmd))
    return max(rcs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exit_on_sigterm()

    if not _checkout_ok():
        _log(f"no vald checkout at {ROOT} (vald/ and tools/driver_sim.py are required)")
        return 2
    if args.workload == "all":
        return run_all(args)
    # workers inherit PYTHONPATH, so they import vald from this checkout
    # whatever the working directory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    # no implicit ray.init(): an operation abandoned after its time limit
    # must not start a new cluster once the session is torn down
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, str(ROOT))
    import vald

    if not Path(vald.__file__).resolve().is_relative_to(ROOT):
        _log(f"vald imported from {vald.__file__}, not from {ROOT}")
        return 2
    if args.workload not in W.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; one of {list(W.WORKLOADS)} or all")
        return 2
    # Ray session logs of earlier runs are not needed
    shutil.rmtree(CACHE / "ray", ignore_errors=True)
    runner = Runner(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), _load_canon())
    try:
        result, ctx = runner.run()
    except SystemExit as e:  # SIGTERM; the session is already torn down
        os._exit(e.code)
    print(json.dumps({"context": ctx}), flush=True)
    print(json.dumps(result), flush=True)
    if runner.timed_out:
        # the abandoned operation thread may still sit in Ray's client;
        # its session is gone, so leave without waiting on it
        _log("an operation timed out; its Ray session was torn down")
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
