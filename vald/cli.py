"""CLI entry point (SURVEY.md §3.3): ``python -m vald <cmd>`` — also the
payload one would hand to ``ray job submit`` on a real cluster.

The CLI owns the Ray session (guarded init); library code never does.

Commands:
  run         validate parquet input against a JSON spec, checkpointed
  gen-corpus  write the deterministic synthetic corpus + repos + truth
  baseline    build & save a drift baseline profile
  profile     per-column profile of a parquet input
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(args) -> int:
    import ray.data

    from .checkpoint import run_resumable
    from .ir import SpecError, compile_table_spec
    from .pipeline import validate
    from .sources import read_source

    with open(args.spec) as f:
        spec = json.load(f)
    # a bad spec fails before Ray starts
    try:
        cs = compile_table_spec(spec)
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return 2
    _ray_init(args.num_cpus)
    parents = {}
    for p in args.parent or []:
        name, path = p.split("=", 1)
        parents[name] = ray.data.read_parquet(path)

    fmt = getattr(args, "format", "parquet")
    files = sorted(globmod.glob(args.input))
    if not files:
        print(f"no input matches {args.input!r}", file=sys.stderr)
        return 2
    # spec-scoped validation (B1 predicate pushdown): a spec may carry
    # "row_filter": <build_filter spec> limiting the run to matching
    # rows — pushed into the parquet fragment scanner, so row-group
    # stats skip IO on the pruned ranges (post-decode on jsonl/csv)
    row_filter = spec.get("row_filter") if isinstance(spec, dict) else None
    if args.out and args.checkpoint:
        partitions = {
            f"shard{i:05d}": (
                lambda f=f: read_source(f, format=fmt, filter=row_filter)
            )
            for i, f in enumerate(files)
        }
        summary = run_resumable(
            partitions,
            cs,
            args.out,
            parents=parents,
            resume=not args.no_resume,
            speculate_factor=args.speculate,
        )
        print(
            json.dumps(
                {
                    "completed": len(summary.completed),
                    "skipped": len(summary.skipped),
                    "rows": summary.total_rows,
                    "violations": summary.total_violations,
                    "out": args.out,
                }
            )
        )
    else:
        ds = read_source(files, format=fmt, filter=row_filter)
        res = validate(ds, cs, parents=parents)
        verd = res.verdicts_table()
        if args.out:
            import pyarrow.parquet as pq

            os.makedirs(args.out, exist_ok=True)
            pq.write_table(res.violations_table(), os.path.join(args.out, "violations.parquet"))
            pq.write_table(verd, os.path.join(args.out, "verdicts.parquet"))
        import pyarrow.compute as pc

        print(
            json.dumps(
                {
                    "pass": bool(res.passed()),
                    "constraints": verd.num_rows,
                    "violations": int(pc.sum(verd["n_violations"]).as_py() or 0),
                }
            )
        )
    return 0


def cmd_dedup(args) -> int:
    """Corpus deduplication: exact keeps one row per value; minhash /
    simhash / embedding write pairs + groups and the deduped corpus."""
    import ray.data

    from .ops import dedup as dd
    from .sources import read_source

    _ray_init(args.num_cpus)
    files = sorted(globmod.glob(args.input))
    if not files:
        print(f"no input matches {args.input!r}", file=sys.stderr)
        return 2
    ds = read_source(files, format=args.format)
    n_in = ds.count()
    os.makedirs(args.out, exist_ok=True)
    if args.method == "exact":
        kept = dd.exact_dedup(ds, args.on, id_col=args.id)
        kept.write_parquet(os.path.join(args.out, "deduped"))
        n_out = ray.data.read_parquet(os.path.join(args.out, "deduped")).count()
        pairs_rows = None
    else:
        if args.method == "minhash":
            pairs = dd.minhash_dedup_pairs_ds(
                ds, args.on, args.id, threshold=args.threshold
            )
        elif args.method == "simhash":
            pairs = dd.simhash_dedup_pairs_ds(
                ds, args.on, args.id, max_hamming=args.max_hamming
            )
        else:  # embedding
            from .ops.similarity import embedding_dedup_pairs_ds

            pairs = embedding_dedup_pairs_ds(
                ds,
                embedding_col=args.on,
                id_col=args.id,
                threshold=args.threshold,
            )
        pairs = pairs.materialize()
        pairs.write_parquet(os.path.join(args.out, "pairs"))
        pairs_rows = pairs.count()
        groups = dd.near_dup_groups_ds(pairs).materialize()
        groups.write_parquet(os.path.join(args.out, "groups"))
        kept = dd.drop_near_dups(ds, args.id, groups)
        kept.write_parquet(os.path.join(args.out, "deduped"))
        n_out = ray.data.read_parquet(os.path.join(args.out, "deduped")).count()
    print(
        json.dumps(
            {
                "method": args.method,
                "rows_in": n_in,
                "rows_out": n_out,
                "rows_dropped": n_in - n_out,
                "pairs": pairs_rows,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_gen_corpus(args) -> int:
    from .corpus import write_corpus

    _ray_init(args.num_cpus)
    write_corpus(args.out, args.rows, args.seed)
    print(json.dumps({"out": args.out, "rows": args.rows, "seed": args.seed}))
    return 0


def cmd_baseline(args) -> int:
    import ray.data

    from .drift import build_baseline, save_baseline

    _ray_init(args.num_cpus)
    ds = ray.data.read_parquet(sorted(globmod.glob(args.input)))
    baseline = build_baseline(
        ds, numeric_cols=args.numeric or [], cat_cols=args.categorical or []
    )
    save_baseline(baseline, args.out)
    print(json.dumps({"out": args.out, "columns": baseline.num_rows}))
    return 0


def cmd_profile(args) -> int:
    import ray.data

    from .aggregates import profile

    _ray_init(args.num_cpus)
    # the read must also carry the partition column, or pruning would
    # drop it before _ProfilePartial hashes it
    read_cols = list(args.columns)
    if args.partition_by and args.partition_by not in read_cols:
        read_cols.append(args.partition_by)
    ds = ray.data.read_parquet(sorted(globmod.glob(args.input)), columns=read_cols)
    out = profile(ds, args.columns, partition_col=args.partition_by)
    df = out.to_pandas().drop(columns=["tdigest", "hll"])
    print(df.to_string(index=False))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="vald", description="Ray-Data-native table validator")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="validate tabular input against a spec")
    p.add_argument("--input", required=True, help="input file glob")
    p.add_argument(
        "--format", default="parquet", choices=["parquet", "jsonl", "csv"],
        help="input format (parquet prunes at storage; jsonl/csv decode rows)",
    )
    p.add_argument("--spec", required=True, help="JSON table-spec path")
    p.add_argument("--out", default=None, help="output dir")
    p.add_argument("--parent", action="append", help="name=parquet_path (refint parents)")
    p.add_argument("--checkpoint", action="store_true", help="per-shard checkpointed run")
    p.add_argument("--no-resume", action="store_true")
    p.add_argument(
        "--speculate",
        type=float,
        default=None,
        help="straggler factor: back up partitions slower than "
        "FACTOR x median finished wall (first finisher wins)",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("dedup", help="deduplicate a corpus")
    p.add_argument("--input", required=True, help="input file glob")
    p.add_argument(
        "--format", default="parquet", choices=["parquet", "jsonl", "csv"]
    )
    p.add_argument(
        "--method",
        default="exact",
        choices=["exact", "minhash", "simhash", "embedding"],
    )
    p.add_argument("--on", required=True, help="text / key / embedding column")
    p.add_argument("--id", required=True, help="integer id column")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--max-hamming", type=int, default=3)
    p.add_argument("--out", required=True, help="output dir (pairs/groups/deduped)")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("gen-corpus", help="write synthetic corpus")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("baseline", help="build drift baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--numeric", nargs="*", default=[])
    p.add_argument("--categorical", nargs="*", default=[])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("profile", help="profile parquet columns")
    p.add_argument("--input", required=True)
    p.add_argument("--columns", nargs="+", required=True)
    p.add_argument("--partition-by", default=None)
    p.set_defaults(fn=cmd_profile)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
