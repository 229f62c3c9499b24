"""Scale probe: validate() on a generated corpus read with Ray's default
blocks, with the exchange's share of the wall time.

    python tools/scale_probe.py --dir DIR --rows 100000 [--extra] [--runs 1]
                                [--num-cpus 2] [--dump PREFIX]

Writes ``vald.corpus.write_corpus(DIR/corpus-n<rows>, rows)`` on the first
call (later calls reuse it), then starts a Ray session with ``--num-cpus``
CPUs and runs ``validate()`` on ``CORPUS_SPEC`` (``--extra`` adds a
completeness, a cardinality and an fd check) ``--runs`` times after one
untimed warm-up. Each run is timed in two parts: ``validate(...,
materialize=False)`` returns once the read and the row pass are done (it
materializes the row pass's stream), and ``combined.materialize()`` then
runs the exchanges and folds. It prints both per run, then every operator
line of the last run's public ``Dataset.stats()`` (the read's line gives
its block count) with the operator's summed task busy time. ``--dump``
writes the sorted verdict and violation rows to PREFIX.verdicts.parquet
and PREFIX.violations.parquet, to compare two checkouts.
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    ap.add_argument("--rows", type=int, default=100_000)
    ap.add_argument("--extra", action="store_true")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--num-cpus", type=int, default=2)
    ap.add_argument("--dump")
    a = ap.parse_args()

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
    d = os.path.join(a.dir, f"corpus-n{a.rows}")
    if not os.path.isdir(os.path.join(d, "corpus")):
        write_corpus(d, a.rows)
    files = sorted(glob.glob(os.path.join(d, "corpus", "*.parquet")))
    spec = {**CORPUS_SPEC, "checks": list(CORPUS_SPEC["checks"]) + (EXTRA_CHECKS if a.extra else [])}

    def once():
        ds = sources.read_source(files, format="parquet")
        parent = ray.data.read_parquet(os.path.join(d, "repos.parquet"))
        t0 = time.perf_counter()
        res = pipeline.validate(ds, spec, parents={"repos": parent}, materialize=False)
        t1 = time.perf_counter()
        res.combined = res.combined.materialize()
        return res, t1 - t0, time.perf_counter() - t1

    once()  # warm-up: worker start and imports
    for i in range(a.runs):
        res, rowpass, exchange = once()
        wall = rowpass + exchange
        print(
            f"run {i}: validate() {wall:.2f} s = read + row pass {rowpass:.2f} s"
            f" + exchanges and folds {exchange:.2f} s ({exchange / wall:.0%})",
            flush=True,
        )
    for _, busy, line in operator_busy(res.combined.stats()):
        print(f"{line}  [busy {busy:.2f} s]")
    if a.dump:
        v = res.verdicts_table()
        x = res.violations_table()
        pq.write_table(v.sort_by([(c, "ascending") for c in v.column_names]), a.dump + ".verdicts.parquet")
        pq.write_table(x.sort_by([(c, "ascending") for c in x.column_names]), a.dump + ".violations.parquet")
    ray.shutdown()


if __name__ == "__main__":
    main()
