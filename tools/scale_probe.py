"""Scale probe: validate() on a generated corpus read with
``sources.read_source``, with the exchange's share of the wall time; or
(``--keyed``) the keyed exchanges of monotonic, reconcile,
``bucketed_group_agg``, ``sessionize`` and ``asof_join`` at a small and
a large input block count.

    python tools/scale_probe.py --dir DIR --rows 100000 [--extra] [--runs 1]
                                [--num-cpus 2] [--dump PREFIX]
    python tools/scale_probe.py --keyed [--rows 20000] [--runs 1] [--num-cpus 2]
    python tools/scale_probe.py --dir DIR --parent-keys 1000000 [--rows 200000]
                                [--runs 1] [--num-cpus 2]
    python tools/scale_probe.py --dir DIR --rows 100000 --row-groups 8
                                [--runs 1] [--num-cpus 2]

Writes ``vald.corpus.write_corpus(DIR/corpus-n<rows>, rows)`` on the first
call (later calls reuse it), then starts a Ray session with ``--num-cpus``
CPUs and runs ``validate()`` on ``CORPUS_SPEC`` (``--extra`` adds a
completeness, a cardinality and an fd check) ``--runs`` times after one
untimed warm-up. Each run times ``validate()`` plus ``verdicts_table()``
and ``violations_table()`` as one number, as ``vald run`` and the
benchmark run them. Then, untimed, it prints every operator line of the
last run's public ``combined.stats()`` (the read's line gives its block
count) with the operator's summed task busy time; with one fold task
that reads ``combined``, which builds and runs the exchange's task only
then. ``--dump``
writes the sorted verdict and violation rows to PREFIX.verdicts.parquet
and PREFIX.violations.parquet, to compare two checkouts.

``--keyed`` builds a synthetic event table of ``--rows`` rows (default
20k; key, order, a timestamp of ``order`` minutes, value with injected
backsteps), an accounts table (one row per key, balance = the sum of
its events' values, every 7th off by 1.0) and a marks table (half as
many rows, each key's marks at distinct odd half-minutes), and times a
``kind: monotonic`` check in ``validate()``,
``ops.stats.monotonic_violations_ds``, ``ops.stats.reconcile_ds``,
``runtime.bucketed_group_agg`` (sum of value per key),
``ops.windows.sessionize`` (30-minute gap) and ``ops.joins.asof_join``
(events as of the marks) with their inputs in 4 and in 100 blocks,
``--runs`` times after one untimed warm-up. Each line gives a wall time and a digest of the sorted
output (verdicts and violations for the check), which must agree across
block counts and checkouts.

``--parent-keys N`` times ``validate()`` of one refint check whose parent
is a ``ray.data.read_parquet`` Dataset of N distinct string keys (written
once to DIR/parent-k<N>.parquet; N stays under ``max_broadcast_keys``, so
the check takes the broadcast route) against a child of ``--rows`` rows
(default 200k, in 4 blocks, about 1% of them orphans), ``--runs`` times
after one untimed warm-up. Each line gives the wall time and a digest of
the sorted verdicts and violations, which must agree across checkouts.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXTRA_CHECKS = [
    {"kind": "completeness", "column": "path", "max_null_rate": 0.01},
    {"kind": "cardinality", "column": "lang", "group_by": "repo", "min_distinct": 1},
    {"kind": "fd", "columns": ["repo", "path"], "dependent": "lang"},
]


_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_busy(stats: str) -> list[tuple[str, float, str]]:
    """(name, summed task "Remote wall time", header line) per operator
    of a ``Dataset.stats()`` text, sub-operators folded into theirs.
    An all-to-all operator's "executed in" is the whole execution's
    time, so busy time is the comparable number."""
    out = []
    for line in stats.splitlines():
        m = re.match(r"Operator \d+ (\S+)", line)
        if m:
            out.append([m.group(1), 0.0, line.strip()])
            continue
        b = re.search(r"Remote wall time: .*?([\d.]+)(ns|us|ms|s) total", line)
        if b and out:
            out[-1][1] += float(b.group(1)) * _UNIT_S[b.group(2)]
    return [tuple(o) for o in out]


def digest(t) -> str:
    """Short sha256 of a table's rows in sorted order."""
    import hashlib

    t = t.sort_by([(c, "ascending") for c in t.column_names])
    return hashlib.sha256(t.to_pandas().to_csv(index=False).encode()).hexdigest()[:16]


def keyed(rows: int, runs: int) -> None:
    """The ``--keyed`` probe (see the module docstring)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from datetime import timedelta

    from vald import pipeline
    from vald.ops.joins import asof_join
    from vald.ops.stats import monotonic_violations_ds, reconcile_ds
    from vald.ops.windows import sessionize
    from vald.runtime import bucketed_group_agg

    rng = np.random.default_rng(7)
    n_keys = max(1, rows // 10)
    k = rng.integers(0, n_keys, rows)
    o = rng.permutation(rows)
    v = o * 10.0 + rng.integers(0, 5, rows)
    v = np.where(rng.random(rows) < 0.05, v - 1e6, v)
    events = pa.table({"k": k, "o": o, "ts": (o * 60_000_000).astype("datetime64[us]"), "v": v})
    balance = np.bincount(k, weights=v, minlength=n_keys)
    balance[::7] += 1.0
    accounts = pa.table({"k": np.arange(n_keys), "balance": balance})
    n_marks = max(1, rows // 2)
    marks = pa.table(
        {
            "k": rng.integers(0, n_keys, n_marks),
            "ts": ((rng.permutation(n_marks) * 2 + 1) * 30_000_000).astype("datetime64[us]"),
            "m": np.arange(n_marks),
        }
    )
    spec = {
        "table": "events",
        "columns": {},
        "checks": [{"kind": "monotonic", "key": "k", "order": "o", "column": "v"}],
    }

    def blocks(t, n):
        return ray.data.from_arrow(t).repartition(n).materialize()

    ev = {n: blocks(events, n) for n in (4, 100)}
    ac = {n: blocks(accounts, n) for n in (4, 100)}
    mk = {n: blocks(marks, n) for n in (4, 100)}

    def check(n):
        res = pipeline.validate(ev[n], spec)
        return digest(res.verdicts_table()) + "/" + digest(res.violations_table())

    def op_monotonic(n):
        return digest(ray_table(monotonic_violations_ds(ev[n], "k", "o", "v")))

    def op_reconcile(n):
        return digest(ray_table(reconcile_ds(ac[n], ev[n], "k", "balance", "k", "v")))

    def op_group_agg(n):
        return digest(ray_table(bucketed_group_agg(ev[n], "k", [("v", "sum")])))

    def op_sessionize(n):
        return digest(ray_table(sessionize(ev[n], "k", "ts", timedelta(minutes=30))))

    def op_asof(n):
        out = asof_join(
            mk[n], ev[n], by="k", ts_col="ts", left_cols=["k", "ts", "m"], right_cols={"v": "v"}
        )
        return digest(ray_table(out))

    routes = [
        ("monotonic check in validate()", check),
        ("ops.stats.monotonic_violations_ds", op_monotonic),
        ("ops.stats.reconcile_ds", op_reconcile),
        ("runtime.bucketed_group_agg", op_group_agg),
        ("ops.windows.sessionize", op_sessionize),
        ("ops.joins.asof_join", op_asof),
    ]
    for _, fn in routes:  # warm-up: worker start and imports
        fn(4)
    for i in range(runs):
        for name, fn in routes:
            for n in (4, 100):
                t0 = time.perf_counter()
                out = fn(n)
                print(
                    f"run {i}: {name} at {n} blocks: {time.perf_counter() - t0:.2f} s"
                    f"  digest {out}",
                    flush=True,
                )


def large_parent(d: str, n_keys: int, rows: int, runs: int) -> None:
    """The ``--parent-keys`` probe (see the module docstring)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from vald import pipeline
    from vald.runtime import DEFAULT_MAX_BROADCAST_KEYS

    if n_keys > DEFAULT_MAX_BROADCAST_KEYS:
        raise SystemExit(f"--parent-keys must be at most {DEFAULT_MAX_BROADCAST_KEYS}")

    def keys(ids):
        return pc.binary_join_element_wise("repo", pc.cast(pa.array(ids), pa.string()), "")

    path = os.path.join(d, f"parent-k{n_keys}.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        pq.write_table(pa.table({"repo": keys(np.arange(n_keys))}), path, row_group_size=100_000)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, n_keys, rows)
    ids[rng.random(rows) < 0.01] += n_keys  # orphans
    child = ray.data.from_arrow(
        pa.table({"id": np.arange(rows), "repo": keys(ids)})
    ).repartition(4).materialize()
    spec = {
        "table": "t",
        "row_ref": ["id"],
        "columns": {},
        "checks": [{"kind": "refint", "columns": ["repo"], "parent_table": "repos"}],
    }

    def once():
        t0 = time.perf_counter()
        res = pipeline.validate(child, spec, parents={"repos": ray.data.read_parquet(path)})
        v, x = res.verdicts_table(), res.violations_table()
        return time.perf_counter() - t0, digest(v) + "/" + digest(x)

    once()  # warm-up: worker start and imports
    for i in range(runs):
        wall, out = once()
        print(
            f"run {i}: validate() with a {n_keys}-key Dataset parent, {rows} child rows:"
            f" {wall:.2f} s  digest {out}",
            flush=True,
        )


def row_groups(d: str, n: int, spec: dict, runs: int) -> None:
    """The ``--row-groups`` probe (see the module docstring)."""
    import pyarrow.parquet as pq
    import ray

    from vald import pipeline, sources

    one = os.path.join(d, f"one-rg{n}.parquet")
    if not os.path.exists(one):
        t = pq.read_table(os.path.join(d, "corpus"))
        pq.write_table(t, one, row_group_size=-(-t.num_rows // n))
    reads = {
        "read_source": lambda: sources.read_source(one),
        "read_parquet": lambda: ray.data.read_parquet(one),
    }
    last = {}

    def once(name):
        parent = ray.data.read_parquet(os.path.join(d, "repos.parquet"))
        t0 = time.perf_counter()
        res = pipeline.validate(reads[name](), spec, parents={"repos": parent})
        v, x = res.verdicts_table(), res.violations_table()
        last[name] = res
        return time.perf_counter() - t0, digest(v) + "/" + digest(x)

    for name in reads:  # warm-up: worker start and imports
        once(name)
    for i in range(runs):
        for name in list(reads) if i % 2 == 0 else list(reversed(reads)):
            wall, out = once(name)
            print(f"run {i}: {name} of {n} row groups: {wall:.2f} s  digest {out}", flush=True)
    for name, res in last.items():
        for _, busy, line in operator_busy(res.combined.stats()):
            print(f"{name}: {line}  [busy {busy:.2f} s]")


def ray_table(ds):
    """A Dataset's rows as one Arrow table."""
    import pyarrow as pa

    return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir")
    ap.add_argument("--rows", type=int)
    ap.add_argument("--extra", action="store_true")
    ap.add_argument("--keyed", action="store_true")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--num-cpus", type=int, default=2)
    ap.add_argument("--dump")
    ap.add_argument("--parent-keys", type=int)
    ap.add_argument("--row-groups", type=int)
    a = ap.parse_args()
    if not a.keyed and not a.dir:
        ap.error("--dir is required without --keyed")

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    from vald import pipeline, sources
    from vald.corpus import CORPUS_SPEC, write_corpus

    ray.init(num_cpus=a.num_cpus, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    if a.keyed:
        keyed(a.rows or 20_000, a.runs)
        ray.shutdown()
        return
    if a.parent_keys:
        large_parent(a.dir, a.parent_keys, a.rows or 200_000, a.runs)
        ray.shutdown()
        return
    a.rows = a.rows or 100_000
    d = os.path.join(a.dir, f"corpus-n{a.rows}")
    if not os.path.isdir(os.path.join(d, "corpus")):
        write_corpus(d, a.rows)
    files = sorted(glob.glob(os.path.join(d, "corpus", "*.parquet")))
    spec = {**CORPUS_SPEC, "checks": list(CORPUS_SPEC["checks"]) + (EXTRA_CHECKS if a.extra else [])}
    if a.row_groups:
        row_groups(d, a.row_groups, spec, a.runs)
        ray.shutdown()
        return

    def once():
        ds = sources.read_source(files, format="parquet")
        parent = ray.data.read_parquet(os.path.join(d, "repos.parquet"))
        t0 = time.perf_counter()
        res = pipeline.validate(ds, spec, parents={"repos": parent})
        v, x = res.verdicts_table(), res.violations_table()
        return res, v, x, time.perf_counter() - t0

    once()  # warm-up: worker start and imports
    for i in range(a.runs):
        res, v, x, wall = once()
        print(f"run {i}: validate() + tables {wall:.2f} s", flush=True)
    for _, busy, line in operator_busy(res.combined.stats()):
        print(f"{line}  [busy {busy:.2f} s]")
    if a.dump:
        pq.write_table(v.sort_by([(c, "ascending") for c in v.column_names]), a.dump + ".verdicts.parquet")
        pq.write_table(x.sort_by([(c, "ascending") for c in x.column_names]), a.dump + ".violations.parquet")
    ray.shutdown()


if __name__ == "__main__":
    main()
