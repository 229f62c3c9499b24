"""Plan & run: read → stamp → fused row-checks → shuffled checks →
verdict fold (SURVEY.md §3.2-§3.4).

Execution shape (Ray-Data-first, BASELINE.json north_rule):

- ONE ``map_batches`` task pass (``RowValidator``) evaluates every
  row-kind check of the ConstraintSet per zero-copy Arrow batch (inside
  the read tasks, for a ``sources.read_source`` input) and
  emits a small *result stream*: per-batch verdict partials + violation
  rows (RESULT_SCHEMA). The same pass emits the batch partials of the
  dataset-level checks that share it (EXT_SCHEMA): the fused kinds
  unique, fd, cardinality and completeness (constraints_dist.FUSED_KINDS)
  and the child keys of large-parent refint. The input is read once;
  the stream is ~|violations| + O(batches × constraints) + the
  per-batch distinct keys — far smaller than the input — so it is
  materialized and feeds every later stage.
- ONE keyed exchange on ``ubucket`` folds all fused kinds together
  (constraints_dist.fused_exchange), one fold call per check per
  sorted block; it also projects the stream's result rows, in the
  same task as the fold when it has one fold task. That one task runs
  on the driver, when the result is read (``ValidationResult``), not
  as a Ray Data execution. The large-parent refint anti-join runs its
  own exchange over the same materialized stream.
- Small refint parents are broadcast: ``runtime.key_set`` builds each
  parent's distinct, NULL-free keys as one Arrow array in one Ray task
  in the cluster (a Dataset parent runs only its own read plan), and
  the row pass tests membership with ``pc.is_in``.
- drift, group_drift, freshness, monotonic, reconcile and
  quantile_bounds still read the input themselves (their own pruned
  pass) and UNION their result rows into the same schema. Monotonic
  and reconcile share their route with their ops.stats twins.
- Every keyed exchange above is ``runtime.keyed_exchange``: one
  bucket hash (``hashing.bucket_ids``, or the fused kinds' key-string
  hash), a fan-out from the exchanged stream's row count, not from the
  input's block count, and folds over whole sorted blocks. An exchange
  with one fold task runs no Ray sort: it projects, sorts and folds in
  one task.
- Result rows are built only by this module's builder (``result_cols``,
  ``count_rows``, ``violation_rows``, ``result_table``): every check,
  here and in constraints_dist and drift, hands it column parts.
- Verdict fold (B10): groupby (partition_id, constraint_id) over the
  tiny partial rows; sums are commutative+associative so verdicts are
  identical at any parallelism (SURVEY.md §4.3 determinism).

Stateful setup (compiled regexes, fetching the broadcast parent-key
arrays) happens once per worker process in ``RowValidator.__init__``
(B7), cached by ``_TaskValidator``.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from . import hashing
from .ir import CompiledCheck, ConstraintSet, compile_table_spec
from .sources import read_source

__all__ = [
    "RESULT_SCHEMA",
    "RowValidator",
    "ValidationResult",
    "validate",
    "stamp",
    "result_table",
]

RESULT_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("constraint_id", pa.string()),
        ("row_ref", pa.string()),
        ("column", pa.string()),
        ("observed", pa.string()),
        ("detail", pa.string()),
        ("is_violation", pa.bool_()),
        ("n_checked", pa.int64()),
        ("n_violations", pa.int64()),
    ]
)

VERDICT_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("constraint_id", pa.string()),
        ("pass", pa.bool_()),
        ("n_checked", pa.int64()),
        ("n_violations", pa.int64()),
        ("metrics_json", pa.string()),
    ]
)

# Cap on violation detail rows emitted per (constraint, batch): verdict
# counts stay exact; exemplar rows are bounded so a pathological batch
# (100% violations at 100 TB) cannot blow up the result stream.
DEFAULT_MAX_VIOLATIONS_PER_BATCH = 100_000


# Per-column fill for rows built by result_cols / partial_rows.
_DEFAULTS: dict[str, Any] = {
    "partition_id": 0,
    "row_ref": "",
    "column": "",
    "observed": "",
    "detail": "",
    "is_violation": False,
    "n_checked": 0,
    "n_violations": 0,
    "rec": "res",
    "uh": 0,
    "ubucket": 0,
    "ucnt": 0,
}


def _rows(schema: pa.Schema, rows: dict[str, list]) -> pa.Table:
    n = len(rows.get("constraint_id", []))
    cols = [
        pa.array(
            rows[f.name] if f.name in rows else [_DEFAULTS[f.name]] * n,
            type=f.type,
        )
        for f in schema
    ]
    return pa.Table.from_arrays(cols, schema=schema)


# --- the result-row builder: every RESULT_SCHEMA row is built here ---------
#
# A check builds its rows as *parts* (``result_cols`` column lists, usually
# from ``count_rows`` and ``violation_rows``) and turns them into Arrow with
# ONE ``result_table`` call.


def result_cols(k: int, **cols) -> dict[str, list]:
    """``k`` RESULT_SCHEMA rows as column lists: a list value is the
    column, any other value is repeated, a missing column takes its
    default."""
    return {
        f.name: (
            cols[f.name] if isinstance(cols.get(f.name), list)
            else [cols.get(f.name, _DEFAULTS.get(f.name))] * k
        )
        for f in RESULT_SCHEMA
    }


def count_rows(
    cid: str, n_checked: np.ndarray, n_viol: np.ndarray, *, keep_empty: bool = False, **const
) -> dict[str, list]:
    """Verdict-partial rows, one per partition with a nonzero count;
    ``n_checked``/``n_viol`` are indexed by partition id. ``keep_empty``
    emits one zero row at partition 0 when no partition has a count, so
    the check still gets a verdict."""
    present = np.flatnonzero((n_checked > 0) | (n_viol > 0))
    if keep_empty and len(present) == 0:
        present = np.zeros(1, dtype=np.int64)
    return result_cols(
        len(present),
        partition_id=present.tolist(),
        constraint_id=cid,
        n_checked=n_checked[present].astype(np.int64).tolist(),
        n_violations=n_viol[present].astype(np.int64).tolist(),
        **const,
    )


def violation_rows(
    cid: str, pids, refs: list, observed: list, column: str, detail: str
) -> dict[str, list]:
    """Exemplar rows, one per ``refs`` entry; ``pids`` gives each row's
    partition."""
    return result_cols(
        len(refs),
        partition_id=np.asarray(pids, dtype=np.int64).tolist(),
        constraint_id=cid,
        row_ref=refs,
        column=column,
        observed=observed,
        detail=detail,
        is_violation=True,
    )


def _flat(parts: list[dict[str, list]]) -> dict[str, list]:
    return {f.name: [v for p in parts for v in p[f.name]] for f in RESULT_SCHEMA}


def result_table(parts: list[dict[str, list]]) -> pa.Table:
    """One RESULT_SCHEMA table from ``result_cols`` parts (one Arrow
    build); ``[]`` gives the empty table."""
    return _rows(RESULT_SCHEMA, _flat(parts))


# Extended (internal) schema emitted by RowValidator: result rows
# (rec == "res") plus the partial rows of the dataset-level checks that
# share THIS input pass, so the input (and its wide content column) is
# read and decoded exactly once:
#
# - rec == <kind> for the fused kinds (constraints_dist.FUSED_KINDS:
#   unique, fd, cardinality, completeness): row_ref carries the key
#   (unique key, fd determinant, cardinality group), observed the value
#   (fd dependent, cardinality value), ucnt a row count, n_checked /
#   n_violations completeness's row / null counts, uh the key hash and
#   ubucket the bucket of the one shared exchange;
# - rec == "rkey" for child-key partials of large-parent refint.
#
# _project_res() strips partial rows back to RESULT_SCHEMA.
EXT_SCHEMA = pa.schema(
    list(RESULT_SCHEMA)
    + [
        ("rec", pa.string()),
        ("uh", pa.uint64()),
        ("ubucket", pa.int32()),
        ("ucnt", pa.int64()),
    ]
)


def ext_table(parts: list[dict[str, list]]) -> pa.Table:
    """``result_table`` as EXT_SCHEMA rows (``rec == "res"``)."""
    return _rows(EXT_SCHEMA, _flat(parts))


def _project_res(t: pa.Table) -> pa.Table:
    t = t.filter(pc.equal(t["rec"], pa.scalar("res")))
    return t.select(RESULT_SCHEMA.names)


def partial_rows(cid: str, rec: str, **cols) -> pa.Table:
    """Arrow-native EXT_SCHEMA partial rows — no Python lists.

    ``cols`` maps EXT column names to equal-length arrays (Arrow or
    numpy); every other column is a constant. Partials are ~one row per
    DISTINCT key per batch (≈ batch size for fine-grained keys like
    (repo,path,commit)), so this path stays in Arrow/numpy: refs ride
    zero-copy from the per-batch ``group_by``, constants come from
    ``pa.repeat`` (C++-level, no per-row Python objects). Measured: a
    list-based emission (`to_pylist()` of n refs + list rebuild) was the
    single largest allocation source in the fused pass on this VM's
    ~45 MB/s/stream allocator."""
    k = len(next(iter(cols.values())))
    fixed = {**_DEFAULTS, "constraint_id": cid, "rec": rec}
    arrays = []
    for f in EXT_SCHEMA:
        a = cols.get(f.name)
        if a is None:
            a = pa.repeat(pa.scalar(fixed[f.name], f.type), k)
        elif isinstance(a, np.ndarray):
            a = pa.array(a, type=f.type)
        else:
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            a = a.cast(f.type)
        arrays.append(a)
    return pa.Table.from_arrays(arrays, schema=EXT_SCHEMA)


def build_row_ref(t: pa.Table, cs: ConstraintSet) -> pa.Array | None:
    """Vectorized canonical row_ref string (FIXTURES.md §5):
    template '{repo}@{commit}:{path}' or '|'-joined key columns."""
    cols = cs.row_ref_cols
    if not cols:
        return None
    if cs.row_ref_template:
        # split template into literal separators around {col} placeholders
        import re as _re

        parts = _re.split(r"\{(\w+)\}", cs.row_ref_template)
        # parts = [lit0, col1, lit1, col2, lit2, ...]
        arrays: list = []
        seps: list[str] = []
        pending = parts[0]
        for i in range(1, len(parts), 2):
            colname, lit = parts[i], parts[i + 1]
            arr = pc.fill_null(pc.cast(t[colname], pa.string()), "<null>")
            if pending:
                arr = pc.binary_join_element_wise(pa.array([pending] * len(t)), arr, "")
                pending = ""
            arrays.append(arr)
            seps.append(lit)
        out = arrays[0]
        for arr, lit in zip(arrays[1:], seps[:-1]):
            out = pc.binary_join_element_wise(out, arr, lit)
        if seps and seps[-1]:
            out = pc.binary_join_element_wise(out, pa.array([seps[-1]] * len(t)), "")
        return out
    joined = [pc.fill_null(pc.cast(t[c], pa.string()), "<null>") for c in cols]
    if len(joined) == 1:
        return joined[0]
    return pc.binary_join_element_wise(*joined, "|")


def refs_at(refs: pa.Array | None, idx: np.ndarray) -> list[str]:
    """The row_refs of the rows at ``idx`` ("" without a row_ref key).
    Only the violating rows' refs are ever materialized to Python: a
    full-batch ``to_pylist`` would run on every batch with ANY
    violation."""
    if refs is None:
        return [""] * len(idx)
    taken = refs.take(pa.array(idx, type=pa.int64()))
    return ["<null>" if v is None else v for v in taken.to_pylist()]


_TYPE_CATEGORY_CHECKS = [
    ("string", lambda t: pa.types.is_string(t) or pa.types.is_large_string(t)),
    ("integer", pa.types.is_integer),
    ("number", lambda t: pa.types.is_floating(t) or pa.types.is_decimal(t)),
    ("boolean", pa.types.is_boolean),
    ("timestamp", pa.types.is_timestamp),
    ("binary", lambda t: pa.types.is_binary(t) or pa.types.is_large_binary(t)),
    (
        "array",
        lambda t: pa.types.is_list(t)
        or pa.types.is_large_list(t)
        or pa.types.is_fixed_size_list(t),
    ),
    ("object", pa.types.is_struct),
]


def _type_category(t: pa.DataType) -> str:
    for name, check in _TYPE_CATEGORY_CHECKS:
        if check(t):
            return name
    return str(t)


def schema_congruence_rows(observed: pa.Schema, cs: ConstraintSet) -> pa.Table:
    """A11 (additionalProperties, table-level): observed schema fields
    vs the declared physical schema — a PLAN-TIME check producing
    result rows (one verdict + violations per offending column).
    'number' accepts integer columns (integers are numbers, spec03 §5.1)."""
    declared = cs.declared_schema or {}
    cid = f"{cs.table}.__schema__.congruence"
    bad: list[tuple[str, str, str]] = []  # (column, observed, detail)

    obs = {f.name: f.type for f in observed}
    for colname, want in declared.items():
        if colname not in obs:
            bad.append((colname, "<missing>", "schema.missing_column"))
            continue
        got = _type_category(obs[colname])
        ok = got == want or (want == "number" and got == "integer")
        if not ok:
            bad.append((colname, got, "schema.type_mismatch"))
    if cs.closed_world:
        for colname in obs:
            if colname not in declared:
                bad.append((colname, _type_category(obs[colname]), "schema.undeclared_column"))
    # one verdict partial: n_checked = number of declared columns (+
    # observed ones under closed_world)
    n_checked = len(declared) + (len(obs) if cs.closed_world else 0)
    parts = [count_rows(cid, np.array([n_checked]), np.array([len(bad)]), keep_empty=True)]
    for colname, observed_desc, detail in bad:
        parts.append(
            violation_rows(cid, [0], [colname], [observed_desc], colname, detail)
        )
    return result_table(parts)


def build_partition_ids(t: pa.Table, cs: ConstraintSet) -> np.ndarray:
    if cs.partition_by is None:
        return np.zeros(len(t), dtype=np.int32)
    return hashing.partition_ids(t[cs.partition_by], cs.num_partitions)


class RowValidator:
    """Row-pass callable (B7): compiles the spec ONCE per worker in
    __init__ (regexes, broadcast key sets), evaluates every row check
    per batch in __call__ and emits EXT_SCHEMA rows: RESULT rows plus
    the batch partials of the dataset-level checks sharing the pass."""

    def __init__(
        self,
        spec: dict | None = None,
        cset: ConstraintSet | None = None,
        broadcast_refs: dict[str, "ray.ObjectRef"] | None = None,
        max_violations_per_batch: int = DEFAULT_MAX_VIOLATIONS_PER_BATCH,
        refint_fused: dict[str, list[str]] | None = None,
    ):
        self.cs = cset if cset is not None else compile_table_spec(spec)
        self.max_v = max_violations_per_batch
        # refint checks routed through the large-parent anti-join path:
        # this validator emits their child-key partials inline
        # (rec == "rkey") so the anti-join never re-reads the input.
        self.refint_fused = refint_fused or {}
        # fused dataset-level kinds: their batch partials ride this pass
        from .constraints_dist import FUSED_KINDS

        self.fused = [d for d in self.cs.dist_checks if d.kind in FUSED_KINDS]
        # broadcast small-side key sets for refint (B5 broadcast fallback):
        # runtime.key_set builds each as an Arrow array in the cluster
        # (one Ray task for a Dataset parent), fetched once per worker
        # here; the per-batch membership test is a vectorized pc.is_in
        # against it — no per-row Python objects.
        self.key_arrays: dict[str, pa.Array] = {}
        # bloom-screen refint (opt-in): parent keys as a Bloom filter —
        # 2 B/key broadcast vs 8+ B/key exact; one-sided error (an
        # orphan child passes with prob = filter FPR), see validate()
        self.bloom_filters: dict[str, object] = {}
        from .ops.decontam import BloomFilter

        for cid, ref in (broadcast_refs or {}).items():
            obj = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            if isinstance(obj, BloomFilter):
                self.bloom_filters[cid] = obj
            else:
                self.key_arrays[cid] = obj if isinstance(obj, pa.Array) else pa.array(list(obj))

    def __call__(self, batch: pa.Table) -> pa.Table:
        cs = self.cs
        n = len(batch)
        if n == 0:
            return ext_table([])
        pids = build_partition_ids(batch, cs)
        refs = build_row_ref(batch, cs)

        parts: list[dict[str, list]] = []
        P = max(int(pids.max()) + 1, 1)

        def emit_partials(cid: str, checked: np.ndarray, bad: np.ndarray):
            # one verdict-partial row per (partition, constraint) per
            # batch — vectorized (np.bincount), no per-partition loop
            n_checked = np.bincount(pids, weights=checked, minlength=P)
            n_bad = np.bincount(pids, weights=bad, minlength=P)
            parts.append(count_rows(cid, n_checked, n_bad, keep_empty=True))

        for check in cs.row_checks:
            ok = check.eval(batch)
            checked = check.checked_mask(batch)
            bad = checked & ~ok
            emit_partials(check.constraint_id, checked, bad)
            idx = np.flatnonzero(bad)[: self.max_v]
            if len(idx):
                parts.append(
                    violation_rows(
                        check.constraint_id,
                        pids[idx],
                        refs_at(refs, idx),
                        check.observed(batch, idx),
                        check.column or "",
                        check.keyword,
                    )
                )

        # broadcast refint (B5): vectorized membership (pc.is_in)
        # against the actor-held Arrow key array — zero Python objects.
        # Large-parent refint checks (self.refint_fused) only count
        # their checked rows here and emit key partials below; their
        # orphans are found by the anti-join.
        for dist in cs.dist_checks:
            if dist.kind != "refint" or (
                dist.constraint_id not in self.key_arrays
                and dist.constraint_id not in self.bloom_filters
                and dist.constraint_id not in self.refint_fused
            ):
                continue
            cols = dist.params["columns"]
            keycol = key_column(batch, cols)
            checked = np.asarray(
                pc.is_valid(keycol).to_numpy(zero_copy_only=False), dtype=bool
            )
            if dist.constraint_id in self.refint_fused:
                emit_partials(dist.constraint_id, checked, np.zeros_like(checked))
                continue
            if dist.constraint_id in self.bloom_filters:
                # bloom screen: a miss is a DEFINITE orphan; an FP
                # (≈4e-4) lets an orphan pass — violations are a
                # one-sided under-count, never false alarms
                from .hashing import stable_hash64

                h = stable_hash64(pc.cast(keycol, pa.string()))
                ok_np = self.bloom_filters[dist.constraint_id].contains(h)
                ok_pa = pa.array(ok_np)
            else:
                value_set = self.key_arrays[dist.constraint_id]
                if value_set.type != keycol.type:
                    value_set = value_set.cast(keycol.type)
                ok_pa = pc.is_in(keycol, value_set=value_set)
            bad = checked & ~np.asarray(
                pc.fill_null(ok_pa, False).to_numpy(zero_copy_only=False), dtype=bool
            )
            emit_partials(dist.constraint_id, checked, bad)
            idx = np.flatnonzero(bad)[: self.max_v]
            if len(idx):
                from .kernels import observed_strings

                parts.append(
                    violation_rows(
                        dist.constraint_id,
                        pids[idx],
                        refs_at(refs, idx),
                        observed_strings(keycol, idx),
                        ",".join(cols),
                        "refint",
                    )
                )

        # dataset-level checks that share THIS pass instead of
        # re-reading the input: the fused kinds' batch partials and the
        # large-parent refint child-key partials (rec == "rkey"), all
        # Arrow-native (see partial_rows)
        from . import constraints_dist as cd

        partials = [
            cd.FUSED_KINDS[d.kind].partial(batch, d, cs, pids, refs)
            for d in self.fused
        ]
        partials += [
            cd.refint_key_partial(batch, d, pids)
            for d in cs.dist_checks
            if d.kind == "refint" and d.constraint_id in self.refint_fused
        ]
        return pa.concat_tables([ext_table(parts), *partials])


def stamp(
    ds: "ray.data.Dataset",
    cs: ConstraintSet,
    *,
    sha_of: str | None = None,
    drop: list[str] | None = None,
) -> "ray.data.Dataset":
    """B3: append ``row_ref``, ``partition_id`` (and ``content_sha`` when
    ``sha_of`` names a column) to every row. ``drop`` prunes wide columns
    right after hashing (memory discipline, SURVEY.md §4.3)."""

    def _stamp(t: pa.Table) -> pa.Table:
        refs = build_row_ref(t, cs)
        if refs is not None and "row_ref" not in t.column_names:
            t = t.append_column("row_ref", refs)
        if "partition_id" not in t.column_names:
            t = t.append_column(
                "partition_id", pa.array(build_partition_ids(t, cs), type=pa.int32())
            )
        if sha_of is not None:
            name = f"{sha_of}_sha"
            if name in t.column_names:  # engine-computed value wins
                t = t.drop_columns([name])
            t = t.append_column(
                name,
                pa.array(hashing.sha256_hex_column(t[sha_of]), type=pa.string()),
            )
        if drop:
            t = t.drop_columns([c for c in drop if c in t.column_names])
        return t

    return ds.map_batches(_stamp, batch_format="pyarrow")


# Above this many result rows the fold stays distributed (groupby on
# the cluster); below it the result stream is pulled to the driver and
# folded with pyarrow (milliseconds vs a full shuffle round-trip). By
# the same rule, a fused exchange with one fold task (a stream of at
# most runtime.ROWS_PER_FOLD_TASK rows) runs on the driver when the
# result is read, not as a Ray Data execution of that one task: on the
# benchmark's 2k-row corpus its function takes ~6 ms, the execution
# ~50 ms (4 CPUs visible, Ray num_cpus=2).
LOCAL_FOLD_MAX_ROWS = 2_000_000


def _verdicts_of(agg: pa.Table) -> pa.Table:
    """VERDICT_SCHEMA rows from summed partials (``partition_id``,
    ``constraint_id``, ``n_checked``, ``n_violations``)."""
    nv = agg["n_violations"]
    metrics = [
        json.dumps({"n_checked": c, "n_violations": v})
        for c, v in zip(agg["n_checked"].to_pylist(), nv.to_pylist())
    ]
    return pa.Table.from_arrays(
        [
            pc.cast(agg["partition_id"], pa.int32()),
            agg["constraint_id"],
            pc.equal(nv, pa.scalar(0)),
            pc.cast(agg["n_checked"], pa.int64()),
            pc.cast(nv, pa.int64()),
            pa.array(metrics, type=pa.string()),
        ],
        schema=VERDICT_SCHEMA,
    )


def _fold_verdicts_local(t: pa.Table) -> pa.Table:
    partials = t.filter(pc.invert(t["is_violation"]))
    return _verdicts_of(
        partials.select(["partition_id", "constraint_id", "n_checked", "n_violations"])
        .group_by(["partition_id", "constraint_id"], use_threads=False)
        .aggregate([("n_checked", "sum"), ("n_violations", "sum")])
        .rename_columns(["partition_id", "constraint_id", "n_checked", "n_violations"])
    )


def _blocks(ds: "ray.data.Dataset") -> list[pa.Table]:
    """The non-empty blocks of the materialized ``ds`` as Arrow tables,
    fetched by ref in block order: no Ray Data execution, not even the
    one ``to_arrow_refs`` runs for the schema of an all-empty ``ds``."""
    from ray.data.block import BlockAccessor

    refs = [r for b in ds.iter_internal_ref_bundles() for r, m in b.blocks if m.num_rows != 0]
    return [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]


def _zero_verdicts(checks: list[str], seen) -> pa.Table:
    """A zero verdict partial (partition 0, nothing checked, no
    violation) for each id in ``checks`` that is not in ``seen``."""
    zero = np.zeros(1, dtype=np.int64)
    return result_table(
        [count_rows(c, zero, zero, keep_empty=True) for c in checks if c not in seen]
    )


class ValidationResult:
    """Both outputs derive from one (small) result stream.

    The stream is bounded by design: O(batches × constraints ×
    partitions-per-batch) verdict partials plus per-batch-capped
    violation exemplars — it is NOT proportional to input rows. Small
    streams fold on the driver; huge ones fold distributed.

    ``combined`` is the stream as a materialized Dataset. When the row
    pass's stream is small enough for one fold task, validate() runs
    neither the fused exchange nor the result projection: the table
    API fetches the row pass's blocks and runs that one task's function
    (``runtime.sort_fold``) on the driver, after which it adds the
    other parts' rows. ``combined`` is then built on first access: the
    same plan as when validate() builds it (the row pass, one
    ``MapBatches(project_sort_fold)``, in a union with the other
    parts), materialized once, with the same ``stats()``.

    Every row check, refint check with a parent, fused check and
    monotonic, reconcile, freshness and quantile_bounds check gets a
    verdict: one with no verdict row, because no row reached its
    partial or fold, gets a zero one at partition 0 (nothing checked,
    no violation). A 0-row input gives none of them a row, since Ray
    calls no map on an empty block. drift and group_drift are left as
    they are: they report under per-column ids, so a missing check id
    does not mean an empty input."""

    def __init__(
        self,
        checks: list[str],
        combined: "ray.data.Dataset | None" = None,
        *,
        plan=None,
        raw: "ray.data.Dataset | None" = None,
        fold=None,
        rest: "list[ray.data.Dataset]" = (),
    ):
        self._checks = checks
        self._combined = combined
        # without ``combined``: ``plan()`` builds it; ``fold`` maps the
        # materialized row-pass stream ``raw``, as one table, to its
        # result rows, and ``rest`` holds the other parts, materialized
        self._plan, self._raw, self._fold, self._rest = plan, raw, fold, list(rest)
        self._local: pa.Table | None = None

    @property
    def combined(self) -> "ray.data.Dataset":
        if self._combined is None:
            self._combined = self._plan().materialize()
        return self._combined

    def _local_table(self) -> pa.Table | None:
        if self._local is None:
            if self._combined is not None:
                if self._combined.count() > LOCAL_FOLD_MAX_ROWS:
                    return None
                parts = _blocks(self._combined)
            elif sum(d.count() for d in [self._raw, *self._rest]) > LOCAL_FOLD_MAX_ROWS:
                return None
            else:
                raw = _blocks(self._raw)
                parts = [self._fold(pa.concat_tables(raw) if raw else ext_table([]))]
                parts += [b for d in self._rest for b in _blocks(d)]
            t = pa.concat_tables(parts).combine_chunks() if parts else result_table([])
            seen = pc.unique(t.filter(pc.invert(t["is_violation"]))["constraint_id"])
            zero = _zero_verdicts(self._checks, set(seen.to_pylist()))
            self._local = pa.concat_tables([t, zero]) if len(zero) else t
        return self._local

    # --- Dataset-returning API (distributed path) ---
    def violations(self) -> "ray.data.Dataset":
        local = self._local_table()
        if local is not None:
            return ray.data.from_arrow(self._violations_of(local))
        return self.combined.map_batches(
            lambda t: t.filter(t["is_violation"]).select(
                ["partition_id", "constraint_id", "row_ref", "column", "observed", "detail"]
            ),
            batch_format="pyarrow",
        )

    def verdicts(self) -> "ray.data.Dataset":
        local = self._local_table()
        if local is not None:
            return ray.data.from_arrow(_fold_verdicts_local(local))
        partials = self.combined.map_batches(
            lambda t: t.filter(pc.invert(t["is_violation"])).select(
                ["partition_id", "constraint_id", "n_checked", "n_violations"]
            ),
            batch_format="pyarrow",
        )
        agg = partials.groupby(["partition_id", "constraint_id"]).aggregate(
            Sum("n_checked", alias_name="n_checked"),
            Sum("n_violations", alias_name="n_violations"),
        )
        return agg.map_batches(_verdicts_of, batch_format="pyarrow")

    # --- local (Arrow table) API ---
    @staticmethod
    def _violations_of(t: pa.Table) -> pa.Table:
        return t.filter(t["is_violation"]).select(
            ["partition_id", "constraint_id", "row_ref", "column", "observed", "detail"]
        )

    def violations_table(self) -> pa.Table:
        """Deterministically sorted violations (small result)."""
        local = self._local_table()
        if local is not None:
            t = self._violations_of(local)
        else:
            t = pa.Table.from_pandas(self.violations().to_pandas(), preserve_index=False)
        if len(t) == 0:
            return t
        return t.sort_by(
            [("constraint_id", "ascending"), ("row_ref", "ascending"), ("column", "ascending")]
        )

    def verdicts_table(self) -> pa.Table:
        local = self._local_table()
        if local is not None:
            t = _fold_verdicts_local(local)
        else:
            t = pa.Table.from_pandas(self.verdicts().to_pandas(), preserve_index=False)
            zero = _zero_verdicts(self._checks, set(t["constraint_id"].to_pylist()))
            t = pa.concat_tables([t.cast(VERDICT_SCHEMA), _fold_verdicts_local(zero)])
        if len(t) == 0:
            return t
        return t.sort_by(
            [("constraint_id", "ascending"), ("partition_id", "ascending")]
        )

    def passed(self) -> bool:
        v = self.verdicts_table()
        if len(v) == 0:
            return True
        return bool(pc.all(v["pass"]).as_py())


# None = one batch per block. Over a sources.read_source input the row
# pass runs inside the read tasks, and a block is what one task read:
# one file, a group of files of about DataContext.target_min_block_size
# bytes in all, or a run of one file's row groups, so the row pass sees
# each block whole in the task that read it.
DEFAULT_BATCH_SIZE = None

# Per-worker-process validator cache for the stateless-task path: the
# first batch a worker sees compiles the spec / fetches broadcast sets,
# later batches reuse it — actor-style state amortization WITHOUT actor
# pools (tasks schedule elastically on any free CPU; measured ~7x
# better utilization than a cold actor pool on short jobs).
_VALIDATOR_CACHE: dict[str, "RowValidator"] = {}


class _TaskValidator:
    """Picklable map_batches callable wrapping the cached RowValidator.
    With ``project`` it returns only the RESULT_SCHEMA rows
    (``_project_res``) in the same call: a map that follows is not
    called on a 0-row block, and its output would have no schema."""

    def __init__(
        self,
        token: str,
        cset: ConstraintSet,
        broadcast_refs: dict,
        refint_fused: dict[str, list[str]] | None = None,
        project: bool = False,
    ):
        self.token = token
        self.cset = cset
        self.broadcast_refs = broadcast_refs
        self.refint_fused = refint_fused or {}
        self.project = project

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = _VALIDATOR_CACHE.get(self.token)
        if v is None:
            v = RowValidator(
                cset=self.cset,
                broadcast_refs=self.broadcast_refs,
                refint_fused=self.refint_fused,
            )
            _VALIDATOR_CACHE.clear()  # one live spec per worker is enough
            _VALIDATOR_CACHE[self.token] = v
        return _project_res(v(batch)) if self.project else v(batch)


# Parents with more than this many rows are NOT broadcast: validate()
# routes them through the fused anti-join path instead (B5 large-parent
# planner). Override per check with params["max_broadcast_keys"], or
# force a path with params["strategy"] = "broadcast" | "anti_join".
# One shared constant: catalog queries inherit the same guard through
# runtime.broadcast_or_semijoin / runtime.guarded_broadcast.
from . import runtime  # noqa: E402
from .runtime import (  # noqa: E402
    DEFAULT_MAX_BROADCAST_KEYS,
    coalesce,
    key_column,
    key_set,
)


def _list_table(keys: list, pcols: list[str]) -> pa.Table:
    """A list parent (scalars, or tuples for a multi-column key) as an
    Arrow table with one column per parent key column."""
    rows = [v if isinstance(v, tuple) else (v,) for v in keys]
    return pa.table({c: pa.array([r[i] for r in rows]) for i, c in enumerate(pcols)})


def _parent_key_hashes(src, pcols: list[str]) -> np.ndarray:
    """uint64 key hashes for the bloom_screen refint rung (ADVICE r3).

    Dataset parents hash DISTRIBUTED: per-batch local dedup + the same
    cast-to-string / KEY_SEP-join / stable_hash64 convention the
    RowValidator applies to child keys, emitted as uint64 partials —
    the driver only ever concatenates 8 B/key hash arrays, never the
    key strings (the old path materialized every distinct key as a
    Python string on the driver, making bloom's footprint no better
    than the exact set it replaces). List parents are converted to an
    Arrow table first so the cast semantics match the child side.
    """
    from .hashing import KEY_SEP, stable_hash64

    if isinstance(src, list):
        src = _list_table(src, pcols)

    def key_strings(t: pa.Table):
        t = t.select(pcols).group_by(pcols, use_threads=False).aggregate([])
        if len(pcols) == 1:
            return pc.cast(t[pcols[0]], pa.string())
        joined = [pc.cast(t[c], pa.string()) for c in pcols]
        return pc.binary_join_element_wise(*joined, KEY_SEP)

    if isinstance(src, pa.Table):
        return np.unique(stable_hash64(key_strings(src)))

    def pre(t: pa.Table) -> pa.Table:
        h = np.unique(stable_hash64(key_strings(t)))
        return pa.table({"h": pa.array(h, type=pa.uint64())})

    parts = ray.get(
        src.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True).to_arrow_refs()
    )
    arrs = [p["h"].to_numpy(zero_copy_only=False) for p in parts if len(p)]
    if not arrs:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(arrs))


def validate(
    ds: "ray.data.Dataset",
    spec: dict | ConstraintSet,
    *,
    parents: dict[str, "ray.data.Dataset | pa.Table | list"] | None = None,
    batch_size: int | None = DEFAULT_BATCH_SIZE,
) -> ValidationResult:
    """Run the full ConstraintSet against a Dataset.

    The input is read once, by the row pass. Row checks, refint
    membership and the batch partials of unique, fd, cardinality and
    completeness come out of that pass; the four fused kinds are then
    decided in one shared keyed exchange (constraints_dist.fused_exchange)
    whose fan-out comes from the pass's output row count; with one fold
    task it runs no Ray sort.
    The kinds of constraints_dist.OWN_PASS_KINDS (drift, group_drift,
    freshness, monotonic, reconcile and quantile_bounds) still read
    ``ds`` themselves.

    The row pass is one stateless task per block of ``ds``. Over a
    ``sources.read_source`` input Ray fuses it into the read, so each
    read task decodes its files (or, with fewer files than the cluster
    has CPUs, its run of row groups) and runs the row pass on them, and
    only the small result stream enters the object store. A Dataset
    whose read Ray splits into more blocks than read tasks (Ray's own
    plan: any ``ray.data.read_parquet`` Dataset with fewer files than
    that plan wants blocks, and ``read_source`` with fewer row groups
    than CPUs) does not fuse: its blocks pass through the object store
    and the row pass runs one task per block, spread over every CPU.

    ``parents`` maps refint parent_table name → its key source (Dataset /
    Arrow table / list of keys; a list is planned as an Arrow table).
    The planner picks the B5 execution path per check:

    - small parents (≤ ``max_broadcast_keys`` rows, default 2M) are
      broadcast: ``runtime.key_set`` builds their distinct, NULL-free
      keys as one Arrow array in one Ray task in the cluster (a Table
      or list parent is reduced on the driver and ``ray.put``), and
      the fused row pass checks them with a vectorized ``pc.is_in``
      (no shuffle); the driver waits for that task but never holds
      the keys;
    - large parents route through the fused anti-join path: the row pass
      emits pre-aggregated child-key partials inline (no second input
      read) and a hash-partitioned ``left_anti`` join against the parent
      keys finds the orphans (constraints_dist.fused_refint_anti_results).
    - ``params["strategy"]`` forces "broadcast" or "anti_join".

    With one fused kind or more, the result projection of the row
    pass's stream runs in the fused exchange. When that exchange (or,
    with large-parent refint alone, the projection) would have one fold
    task, validate() runs no Ray Data execution for it: the returned
    ``ValidationResult`` fetches the row pass's blocks and runs the
    task's function on the driver when a table is read, and builds its
    ``combined`` Dataset only when that is read. Everything else (an
    exchange with more fold tasks, the anti-join, the kinds with their
    own pass and the schema congruence rows) runs before validate()
    returns.
    """
    cs = spec if isinstance(spec, ConstraintSet) else compile_table_spec(spec)

    # --- refint planner: broadcast vs fused anti-join, per check ---
    broadcast_refs: dict[str, ray.ObjectRef] = {}
    refint_fused: dict[str, list[str]] = {}
    anti_parents: dict[str, "ray.data.Dataset"] = {}
    for dist in cs.dist_checks:
        if dist.kind != "refint":
            continue
        pt = dist.params["parent_table"]
        src = (parents or {}).get(pt) if pt else None
        if src is None and dist.params["parent_path"]:
            src = read_source(
                dist.params["parent_path"], columns=list(dist.params["parent_columns"])
            )
        if src is None:
            continue
        pcols = list(dist.params["parent_columns"])
        if isinstance(src, list):  # then planned like any Table parent
            src = _list_table(src, pcols)
        strategy = dist.params["strategy"]
        threshold = int(dist.params["max_broadcast_keys"] or DEFAULT_MAX_BROADCAST_KEYS)
        cid = dist.constraint_id

        if strategy == "bloom_screen":
            # opt-in APPROXIMATE screen (the refint rung of the
            # decontam scale ladder): parent keys as a Bloom filter —
            # ~2 B/key broadcast at 16 bits/key vs 8+ B/key for the
            # exact set, for parents that outgrow the broadcast
            # threshold but whose anti-join is too expensive for a
            # quick screen. One-sided: a missing child passes with
            # prob = FPR (~4e-4); flagged violations are always real.
            # Hashing is distributed for Dataset parents.
            from .ops.decontam import BloomFilter

            bloom = BloomFilter(
                _parent_key_hashes(src, pcols),
                bits_per_key=int(dist.params["bits_per_key"]),
            )
            broadcast_refs[cid] = ray.put(bloom)
            continue
        # a Dataset's count() is parquet metadata for file-backed
        # parents; for computed parents it executes the parent once
        is_table = isinstance(src, pa.Table)
        if strategy == "anti_join" or (
            strategy == "auto" and (len(src) if is_table else src.count()) > threshold
        ):
            anti_parents[cid] = ray.data.from_arrow(src.select(pcols)) if is_table else src
            refint_fused[cid] = list(dist.params["columns"])
            continue
        broadcast_refs[cid] = key_set(src, pcols)
    if broadcast_refs:
        # key sets are built in the cluster: wait for them, without
        # fetching them here, so no row-pass task holds a CPU meanwhile
        refs = list(broadcast_refs.values())
        ray.wait(refs, num_returns=len(refs), fetch_local=False)

    # --- distributed checks union into the same result stream ---
    # The fused kinds and fused refint consume the partials the row pass
    # emitted inline (EXT_SCHEMA), so the input is read exactly once;
    # the raw stream is materialized first (it feeds both the result
    # projection and the exchanges). Without them the row pass projects
    # its own output, so even its empty blocks carry RESULT_SCHEMA.
    from . import constraints_dist as cd

    fused = [d for d in cs.dist_checks if d.kind in cd.FUSED_KINDS]
    partials = bool(fused or refint_fused)

    # stateless-task row pass: elastic scheduling, state amortized via
    # the per-process _VALIDATOR_CACHE.
    import uuid

    raw = ds.map_batches(
        _TaskValidator(
            uuid.uuid4().hex, cs, broadcast_refs, refint_fused, project=not partials
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    if partials:
        raw = raw.materialize()
    rest = []
    for dist in cs.dist_checks:
        if dist.constraint_id in anti_parents:
            rest.append(
                cd.fused_refint_anti_results(raw, anti_parents[dist.constraint_id], cs, dist)
            )
        elif dist.kind in cd.OWN_PASS_KINDS:
            # kinds that still read the input themselves (own pruned pass)
            rest.append(cd.OWN_PASS_KINDS[dist.kind](ds, cs, dist, parents))
    # A11 schema congruence: plan-time, driver-side (ds.schema() is
    # metadata — no data pass)
    if cs.declared_schema is not None:
        rest.append(ray.data.from_arrow(schema_congruence_rows(ds.schema().base_schema, cs)))
    # the checks that report under their own id (a refint check without
    # a parent does not run; drift and group_drift report per column):
    # one with no verdict saw no row
    checks = [c.constraint_id for c in cs.row_checks] + [
        d.constraint_id
        for d in cs.dist_checks
        if d.kind in cd.FUSED_KINDS
        or d.constraint_id in broadcast_refs.keys() | refint_fused.keys()
        or (d.kind in cd.OWN_PASS_KINDS and d.kind not in ("drift", "group_drift"))
    ]

    def union(head: "ray.data.Dataset", parts: list) -> "ray.data.Dataset":
        return head.union(*parts) if parts else head

    if not partials:
        return ValidationResult(checks, union(raw, rest).materialize())
    if fused:
        # the result projection rides the exchange: one task with the
        # fold when the exchange has one fold task
        stream = lambda: cd.fused_exchange(raw, fused, keep=_project_res)  # noqa: E731
        fold = cd.fused_fold(fused, keep=_project_res)
    else:
        stream, fold = (lambda: coalesce(raw, _project_res)), _project_res  # noqa: E731
    if runtime.fold_tasks(raw.count()) > 1:
        return ValidationResult(checks, union(stream(), rest).materialize())
    # one fold task: it runs on the driver when the result is read, and
    # the other parts run here, in one execution
    done = [union(rest[0], rest[1:]).materialize()] if rest else []
    return ValidationResult(
        checks, plan=lambda: union(stream(), done), raw=raw, fold=fold, rest=done
    )
