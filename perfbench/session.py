"""Ray session lifecycle, per-operation time limits, memory sampling and
public ``Dataset.stats()`` parsing for the benchmark."""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import threading
import time

NUM_CPUS = 2
OBJECT_STORE_BYTES = 768 * 2**20
# Unix socket paths are limited to 107 bytes; Ray puts its sockets under
# <temp_dir>/session_<date>_<pid>/sockets/<name> (about 70 bytes below it).
_MAX_TEMP_DIR_LEN = 36


class OpTimeout(Exception):
    """An operation outlived its wall-clock limit."""


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks tear down the
    Ray session instead of leaving its processes behind."""

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def run_child(args: list[str], timeout_s: float | None = None, **popen_kwargs) -> int:
    """Run a child process to its end. If the wait is cut short (timeout,
    SIGTERM), the child gets SIGTERM and 30 s to tear down its own Ray
    session before SIGKILL."""
    with subprocess.Popen(args, **popen_kwargs) as child:
        try:
            return child.wait(timeout=timeout_s)
        finally:
            if child.poll() is None:
                child.terminate()
                try:
                    child.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()


def _stat(pid: int) -> list[str] | None:
    """Fields 3.. of /proc/<pid>/stat: [0] state, [1] ppid, [19] start time."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    return stat[stat.rfind(")") + 2 :].split()


def descendants(*roots: int) -> set[tuple[int, str]]:
    """(pid, start time) of every live descendant of the roots. The start
    time tells a process from a later one that reuses its pid."""
    table = {int(e): _stat(int(e)) for e in os.listdir("/proc") if e.isdigit()}
    kids: dict[int, list[int]] = {}
    for pid, st in table.items():
        if st:
            kids.setdefault(int(st[1]), []).append(pid)
    out, todo = set(), list(roots)
    while todo:
        for c in kids.get(todo.pop(), []):
            out.add((c, table[c][19]))
            todo.append(c)
    return out


def _pss_kib(pid: int) -> int:
    """Proportional set size: a page shared by k processes counts 1/k in
    each, so summing over processes counts shared object-store pages once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """Samples the summed PSS of this process and its descendants (Ray's
    GCS, raylet, agents and workers) and keeps the peak. Also remembers
    every descendant seen, so teardown can wait for each to end."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.peak_kib = 0
        self.seen: set[tuple[int, str]] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        procs = descendants(os.getpid())
        self.seen.update(procs)
        total = _pss_kib(os.getpid()) + sum(_pss_kib(pid) for pid, _ in procs)
        self.peak_kib = max(self.peak_kib, total)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def start(self) -> "MemorySampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)


def _alive(proc: tuple[int, str]) -> bool:
    st = _stat(proc[0])
    return st is not None and st[19] == proc[1] and st[0] not in ("Z", "X")


def _signal(proc: tuple[int, str], sig: int) -> None:
    if _alive(proc):
        with contextlib.suppress(OSError):
            os.kill(proc[0], sig)


def reap(procs: set[tuple[int, str]], grace_s: float = 10.0) -> None:
    """Wait for every process to end; SIGKILL what outlives the grace period."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline and any(_alive(p) for p in procs):
        time.sleep(0.1)
    for p in procs:
        _signal(p, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and any(_alive(p) for p in procs):
        time.sleep(0.1)


def kill_tree(procs: set[tuple[int, str]]) -> None:
    """SIGSTOP the given processes and every descendant until no new one
    appears (a stopped raylet starts no more workers), then SIGKILL them all
    and wait until each has ended."""
    stopped: set[tuple[int, str]] = set()
    todo = set(procs)
    while todo:
        for p in todo:
            _signal(p, signal.SIGSTOP)
        stopped |= todo
        todo = descendants(*(p[0] for p in stopped)) - stopped
    reap(stopped, grace_s=0.0)


class RaySession:
    """A fresh local Ray session with ``num_cpus=2``. ``close()`` shuts it
    down and waits until every process it started has ended."""

    def __init__(self, temp_root: str):
        self.temp_root = temp_root
        self.sampler = MemorySampler()
        self.started = False

    def start(self) -> "RaySession":
        import ray
        from ray.data import DataContext

        self.started = True
        kwargs = {}
        if len(self.temp_root) <= _MAX_TEMP_DIR_LEN:
            os.makedirs(self.temp_root, exist_ok=True)
            kwargs["_temp_dir"] = self.temp_root
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kwargs,
        )
        exit_on_sigterm()  # Ray's core worker installed its own handler
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.sampler.start()
        return self

    def close(self, abandoned: bool = False) -> None:
        """Shut the session down and wait for its processes to end. With an
        operation abandoned inside Ray (time limit, SIGTERM) the processes
        are killed without ``ray.shutdown()``: the abandoned thread would
        make Ray exit this process half way through the shutdown."""
        import ray

        if not self.started:
            return
        self.sampler.stop()
        self.sampler.sample()
        procs = self.sampler.seen | descendants(os.getpid())
        if abandoned:
            kill_tree(procs)
            return
        done = threading.Event()

        def shutdown():
            with contextlib.suppress(Exception):
                ray.shutdown()
            done.set()

        threading.Thread(target=shutdown, daemon=True).start()
        done.wait(timeout=30)
        reap(procs | descendants(os.getpid()))

    @property
    def peak_rss_mb(self) -> float:
        return self.sampler.peak_kib / 1024.0


@contextlib.contextmanager
def ray_session(temp_root: str):
    s = RaySession(temp_root).start()
    try:
        yield s
    finally:
        s.close()


def call_with_limit(fn, limit_s: float):
    """Run ``fn()`` in a daemon thread; raise OpTimeout if it has not
    returned within ``limit_s``. The caller must tear the session down
    after a timeout: the abandoned call may still hold Ray work."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=max(limit_s, 0.0))
    if t.is_alive():
        raise OpTimeout(f"operation exceeded {limit_s:.1f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# --- public Dataset.stats() ---------------------------------------------------

_OP_LINE = re.compile(r"^Operator \d+ (?P<name>.+?):\s*(?P<rest>.*)$")
_SUB_LINE = re.compile(r"^\s+Suboperator \d+ (?P<name>\S+?):\s*(?P<rest>.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_BLOCKS = re.compile(r"(\d+) blocks produced")
_BUSY = re.compile(r"Remote wall time: .*?([0-9.]+)(ns|us|ms|s) total")
_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_EXCHANGE = ("Sort", "Repartition", "Aggregate", "Shuffle", "Join", "Zip")
# the row pass and the projection of its result stream (pipeline.validate)
_ROWPASS = ("_TaskValidator", "RowValidator", "_project_res")
STAGES = ("read", "rowpass", "exchange", "other")


def stage_of(op_name: str) -> str:
    first = op_name.split("->")[0].split("(")[0]
    if any(first.startswith(x) for x in _EXCHANGE):
        return "exchange"
    if any(x in op_name for x in _ROWPASS):
        return "rowpass"
    if first.startswith("Read"):
        return "read"
    return "other"


def parse_stats(text: str) -> dict:
    """Per-stage task busy seconds (summed "Remote wall time") and task
    counts, the number of read operators (input scans) and the blocks each
    read produced, from the text of the public ``Dataset.stats()``.
    Operators shown as ``[execution cached]`` count as scans but add no
    time or tasks. Busy time is used rather than the operator lines'
    "executed in": Ray prints the whole execution's time there for every
    all-to-all operator, so those would add up to more than the run."""
    busy = {s: 0.0 for s in STAGES}
    tasks = {s: 0 for s in STAGES}
    scans, read_blocks = 0, []
    current = op_stage = None  # current: stage the detail lines belong to
    for line in text.splitlines():
        m = _OP_LINE.match(line) or _SUB_LINE.match(line)
        if m:
            name, rest = m.group("name"), m.group("rest")
            if line.startswith("Operator"):
                op_stage = None if name.startswith("Union") else stage_of(name)
                if name.startswith("Read"):
                    scans += 1
                    b = _BLOCKS.search(rest)
                    if b:
                        read_blocks.append(int(b.group(1)))
            current = None if "[execution cached]" in rest else op_stage
            t = _TASKS.search(rest)
            if t and current is not None:
                tasks[current] += int(t.group(1))
            continue
        b = _BUSY.search(line)
        if b and current is not None:
            busy[current] += float(b.group(1)) * _UNIT_S[b.group(2)]
    return {"busy": busy, "tasks": tasks, "scans": scans, "read_blocks": read_blocks}
