"""ConstraintSet IR + compiler (SURVEY.md §3.4).

Two compile entry points:

- ``compile_table_spec(spec)`` — declarative table spec (the engine's
  native surface): per-column keyword constraints (vectorized kernels,
  §2.A), cross-field expression checks (A12/B15), and distributed
  checks (unique B4, refint B5, drift B9) that the planner turns into
  shuffle/join/broadcast stages.

- ``compile_value_schema(schema, column)`` — a full draft-03 JSON
  Schema applied to each *value* of one column (the conformance path,
  FIXTURES.md §3): per-row dynamic validation via vald.jsonschema.

``constraint_id`` is the stable string ``"<table>.<column>.<keyword>[.n]"``
so violation keys are deterministic across runs and cluster sizes
(BASELINE.json:6 violation key contract).

Row-kind checks FUSE into one map_batches pass (SURVEY.md §3.4);
agg/cross-table/drift kinds each plan their own stage in pipeline.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

from . import jsonschema as js
from . import kernels as K

__all__ = [
    "CompiledCheck",
    "DistCheck",
    "ConstraintSet",
    "compile_table_spec",
    "compile_value_schema",
    "register_check",
]


# Keywords understood inside a column spec, in deterministic eval order.
_COLUMN_KEYWORDS = (
    "type",
    "required",
    "enum",
    "pattern",
    "format",
    "minimum",
    "maximum",
    "minLength",
    "maxLength",
    "minItems",
    "maxItems",
    "uniqueItems",
    "divisibleBy",
    "multipleOf",
    "jsonSchema",
    "elements",
)

# Annotation-only keywords carried but never executed [spec03 §5.20-5.22].
# exclusiveMinimum/Maximum are modifiers consumed by minimum/maximum.
_ANNOTATIONS = (
    "title",
    "description",
    "default",
    "severity",
    "exclusiveMinimum",
    "exclusiveMaximum",
)


@dataclass
class CompiledCheck:
    """One row-kind check: eval -> bool mask (True = pass) per batch."""

    constraint_id: str
    keyword: str
    column: str | None
    params: dict = field(default_factory=dict)
    severity: str = "error"
    kind: str = "row"

    def eval(self, t: pa.Table) -> np.ndarray:
        if self.keyword in ("compare", "implies", "pair_in_set"):
            return self._eval_expr(t)
        if self.keyword == "value_schema":
            return self._eval_value_schema(t)
        if self.keyword == "elements":
            return self._eval_elements(t)
        if self.keyword == "sha_equal":
            return self._eval_sha_equal(t)
        col = K.get_column(t, self.column)
        return K.eval_kernel(self.keyword, col, self.params)

    def checked_mask(self, t: pa.Table) -> np.ndarray:
        """Rows that count toward n_checked: all rows for required /
        value_schema / expr checks, non-null rows otherwise."""
        if self.keyword in ("required", "value_schema", "compare", "implies", "pair_in_set"):
            return np.ones(len(t), dtype=bool)
        return ~K.null_mask(K.get_column(t, self.column))

    def _eval_sha_equal(self, t: pa.Table) -> np.ndarray:
        """B3 per-row invariant (BASELINE.json:16): engine-computed
        sha256(column) must equal the stored ``expected`` column."""
        import pyarrow.compute as pc

        from .hashing import sha256_hex_column

        col = K.get_column(t, self.column)
        exp = K.get_column(t, self.params["expected"])
        got = pa.array(sha256_hex_column(col), type=pa.string())
        ok = K._to_np(pc.equal(got, pc.cast(exp, pa.string())))
        return ok | K._to_np(pc.is_null(col)) | K._to_np(pc.is_null(exp))

    def _eval_elements(self, t: pa.Table) -> np.ndarray:
        """A10 array-element constraints: flatten the list column, run
        the sub-checks vectorized over the child array, fold verdicts
        back to parents — no per-row recursion."""
        import pyarrow.compute as pc

        col = K.get_column(t, self.column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        parents = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
        ok = np.ones(len(t), dtype=bool)
        ft = pa.table({"__elem__": flat})
        for sub in self.params["_subchecks"]:
            sub_ok = sub.eval(ft)
            bad = np.unique(parents[~sub_ok])
            if len(bad):
                ok[bad] = False
        return ok

    # --- expression checks (A12 dependencies / cross-field) ---
    def _eval_expr(self, t: pa.Table) -> np.ndarray:
        p = self.params
        if self.keyword == "compare":
            return K.eval_compare(t, p["left"], p["right"], p["op"])
        if self.keyword == "implies":
            # if <cond> holds then <then> must hold [spec03 §5.8 requires/dependencies]
            cond = K.eval_compare(t, p["cond_left"], p["cond_right"], p["cond_op"])
            then = K.eval_compare(t, p["left"], p["right"], p["op"])
            return ~cond | then
        if self.keyword == "pair_in_set":
            import pyarrow.compute as pc

            lv = K.eval_operand(t, p["left"])
            rv = K.eval_operand(t, p["right"])
            joined = pc.binary_join_element_wise(
                pc.cast(lv, pa.string()), pc.cast(rv, pa.string()), "\x00"
            )
            allowed = ["\x00".join(map(str, pair)) for pair in p["pairs"]]
            ok = K._to_np(pc.is_in(joined, value_set=pa.array(allowed)))
            anynull = K._to_np(pc.is_null(joined))
            if p.get("guard_left_in_domain"):
                # conditional-dependency semantics [spec03 §5.8]: the
                # pair constraint only applies when the left value is in
                # the declared domain (out-of-domain values are the
                # enum check's business, not this one's)
                domain = pa.array(sorted({str(pair[0]) for pair in p["pairs"]}))
                in_dom = K._to_np(pc.is_in(pc.cast(lv, pa.string()), value_set=domain))
                ok = ok | ~in_dom
            return ok | anynull
        raise ValueError(self.keyword)

    # --- conformance path: full JSON Schema per value ---
    def _eval_value_schema(self, t: pa.Table) -> np.ndarray:
        schema = self.params["schema"]
        parse_json = self.params.get("parse_json", False)
        vals = t[self.column].to_pylist()
        out = np.empty(len(vals), dtype=bool)
        for i, v in enumerate(vals):
            if parse_json and isinstance(v, str):
                try:
                    v = json.loads(v)
                except json.JSONDecodeError:
                    out[i] = False
                    continue
            out[i] = js.is_valid(v, schema)
        return out

    def observed(self, t: pa.Table, idx: np.ndarray) -> list[str]:
        if self.column is None:
            return [""] * len(idx)
        try:
            col = K.get_column(t, self.column)
        except KeyError:
            return [""] * len(idx)
        return K.observed_strings(col, idx)


@dataclass
class DistCheck:
    """A distributed (shuffle/join/aggregate) check descriptor; planned
    by pipeline.py / constraints_dist.py, not evaluated per batch."""

    constraint_id: str
    kind: str  # "unique" | "refint" | "drift" | "agg"
    params: dict = field(default_factory=dict)
    severity: str = "error"


@dataclass
class ConstraintSet:
    table: str
    row_checks: list[CompiledCheck] = field(default_factory=list)
    dist_checks: list[DistCheck] = field(default_factory=list)
    row_ref_cols: list[str] = field(default_factory=list)
    row_ref_template: str | None = None
    partition_by: str | None = None  # column whose hash scopes partitions
    num_partitions: int = 8
    annotations: dict = field(default_factory=dict)
    # A11 schema congruence: declared physical schema (column -> type
    # category string) checked against the observed Dataset schema at
    # plan time; closed_world forbids undeclared columns
    declared_schema: dict | None = None
    closed_world: bool = False

    @property
    def constraint_ids(self) -> list[str]:
        ids = [c.constraint_id for c in self.row_checks] + [
            d.constraint_id for d in self.dist_checks
        ]
        if self.declared_schema is not None:
            ids.append(f"{self.table}.__schema__.congruence")
        return ids


# --- user-extension surface (B17): registry keyed by keyword name,
# mirroring how JSON Schema validators dispatch per keyword [spec03 §5] ---
_CUSTOM_CHECKS: dict[str, Any] = {}


def register_check(keyword: str, kernel) -> None:
    """Register a custom kernel ``fn(col, params) -> np.ndarray`` usable
    from column specs under ``keyword`` (B17 plugin surface)."""
    _CUSTOM_CHECKS[keyword] = kernel
    K.KERNELS[keyword] = kernel


class SpecError(ValueError):
    pass


def _compile_column(table: str, col: str, colspec: dict) -> list[CompiledCheck]:
    checks: list[CompiledCheck] = []
    unknown = [
        k
        for k in colspec
        if k not in _COLUMN_KEYWORDS and k not in _ANNOTATIONS and k not in _CUSTOM_CHECKS
    ]
    if unknown:
        raise SpecError(f"unknown keyword(s) {unknown} on column {col!r}")
    severity = colspec.get("severity", "error")

    def add(keyword: str, params: dict):
        checks.append(
            CompiledCheck(
                constraint_id=f"{table}.{col}.{keyword}",
                keyword=keyword,
                column=col,
                params=params,
                severity=severity,
            )
        )

    for kw in _COLUMN_KEYWORDS:
        if kw not in colspec:
            continue
        v = colspec[kw]
        if kw == "type":
            add("type", {"types": v})
        elif kw == "required":
            if v:
                add("required", {})
        elif kw == "enum":
            if not isinstance(v, list) or not v:
                raise SpecError(f"enum on {col!r} must be a nonempty list")
            add("enum", {"values": v})
        elif kw == "pattern":
            add("pattern", {"pattern": v, "_compiled": K.compile_pattern(v)})
        elif kw == "format":
            add("format", {"format": v})
        elif kw == "minimum":
            add("minimum", {"value": v, "exclusive": colspec.get("exclusiveMinimum", False)})
        elif kw == "maximum":
            add("maximum", {"value": v, "exclusive": colspec.get("exclusiveMaximum", False)})
        elif kw in ("minLength", "maxLength", "minItems", "maxItems"):
            add(kw, {"value": v})
        elif kw == "uniqueItems":
            if v:
                add("uniqueItems", {})
        elif kw in ("divisibleBy", "multipleOf"):
            add(kw, {"value": v})
        elif kw == "jsonSchema":
            add("jsonSchema", {"schema": v})
        elif kw == "elements":
            # sub-spec applied to every array element [spec03 §5.5 items]
            subs = _compile_column(table, "__elem__", v)
            add("elements", {"spec": v, "_subchecks": subs})
    for kw in _CUSTOM_CHECKS:
        if kw in colspec:
            add(kw, colspec[kw] if isinstance(colspec[kw], dict) else {"value": colspec[kw]})
    return checks


# Parameters a check kind cannot run without (checked at compile time).
_REQUIRED_PARAMS = {
    "fd": ("columns", "dependent"),
    "completeness": ("column", "max_null_rate"),
    "cardinality": ("column",),
}

# Kinds folded in validate()'s one shared exchange, split by
# constraint_id (the keys of constraints_dist.FUSED_KINDS).
_SHARED_EXCHANGE_KINDS = ("unique", "fd", "completeness", "cardinality")


def compile_table_spec(spec: dict) -> ConstraintSet:
    """Compile a declarative table spec into a ConstraintSet.

    Spec shape::

        {"table": "corpus",
         "row_ref": ["repo", "commit", "path"],          # key columns
         "row_ref_template": "{repo}@{commit}:{path}",   # optional
         "partition_by": "repo", "num_partitions": 8,
         "columns": {"commit": {"required": True, "pattern": "^[0-9a-f]{40}$"},
                     "lang": {"enum": ["py", "js"]}},
         "checks": [  # cross-field + distributed
            {"kind": "compare", "id": "len_eq", "left": {...}, "op": "==", "right": {...}},
            {"kind": "implies", ...}, {"kind": "pair_in_set", ...},
            {"kind": "unique", "columns": ["repo","path","commit"]},
            {"kind": "refint", "columns": ["repo"], "parent_table": "repos",
             "parent_columns": ["repo"]},
            {"kind": "drift", "columns": [...], "baseline": <path>,
             "ks_threshold": 0.1, "psi_threshold": 0.2}]}
    """
    if "table" not in spec:
        raise SpecError("spec missing 'table'")
    table = spec["table"]
    cs = ConstraintSet(
        table=table,
        row_ref_cols=list(spec.get("row_ref", [])),
        row_ref_template=spec.get("row_ref_template"),
        partition_by=spec.get("partition_by"),
        num_partitions=int(spec.get("num_partitions", 8)),
        annotations={k: spec[k] for k in _ANNOTATIONS if k in spec},
        declared_schema=spec.get("declared_schema"),
        closed_world=bool(spec.get("closed_world", False)),
    )
    for col, colspec in spec.get("columns", {}).items():
        cs.row_checks.extend(_compile_column(table, col, colspec))

    counters: dict[str, int] = {}

    def next_id(base: str) -> str:
        # default ids repeat on repeated checks: the 2nd gets ".1", ...
        n = counters.get(base, 0)
        counters[base] = n + 1
        return base if n == 0 else f"{base}.{n}"

    for i, chk in enumerate(spec.get("checks", [])):
        kind = chk.get("kind")
        # fused kinds run inside Ray tasks: a missing parameter must fail
        # here, not as a KeyError mid-pipeline
        for key in _REQUIRED_PARAMS.get(kind, ()):
            if chk.get(key) is None:
                raise SpecError(f"checks[{i}] (kind {kind!r}): missing required key {key!r}")
        if kind == "sha_equal":
            col = chk["column"]
            cs.row_checks.append(
                CompiledCheck(
                    constraint_id=chk.get(
                        "constraint_id", f"{table}.{col}.sha_equal"
                    ),
                    keyword="sha_equal",
                    column=col,
                    params={"expected": chk["expected"]},
                    severity=chk.get("severity", "error"),
                )
            )
        elif kind in ("compare", "implies", "pair_in_set"):
            col = chk.get("column") or chk.get("id") or kind
            cid = next_id(f"{table}.{col}.{kind}")
            cs.row_checks.append(
                CompiledCheck(
                    constraint_id=chk.get("constraint_id", cid),
                    keyword=kind,
                    column=chk.get("column"),
                    params={k: v for k, v in chk.items() if k not in ("kind", "id", "column", "constraint_id", "severity")},
                    severity=chk.get("severity", "error"),
                )
            )
        elif kind == "unique":
            cols = chk["columns"]
            cid = chk.get("constraint_id") or next_id(
                f"{table}.{'_'.join(cols)}.unique"
            )
            cs.dist_checks.append(
                DistCheck(cid, "unique", {"columns": cols}, chk.get("severity", "error"))
            )
        elif kind == "refint":
            cols = chk["columns"]
            cid = chk.get(
                "constraint_id", f"{table}.{'_'.join(cols)}.refint"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "refint",
                    {
                        "columns": cols,
                        "parent_table": chk.get("parent_table"),
                        "parent_columns": chk.get("parent_columns", cols),
                        "parent_path": chk.get("parent_path"),
                        # planner knobs (validate() reads these):
                        # "auto" | "broadcast" | "anti_join" |
                        # "bloom_screen" (approximate, one-sided)
                        "strategy": chk.get("strategy", "auto"),
                        "max_broadcast_keys": chk.get("max_broadcast_keys"),
                        "bits_per_key": chk.get("bits_per_key", 16),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "quantile_bounds":
            # empirical-outlier screen: values outside the table's own
            # exact [P(lower_q), P(upper_q)] quantiles are violations
            col = chk["column"]
            cid = chk.get(
                "constraint_id", f"{table}.{col}.quantile_bounds"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "quantile_bounds",
                    {
                        "column": col,
                        "lower_q": float(chk.get("lower_q", 0.0)),
                        "upper_q": float(chk.get("upper_q", 1.0)),
                        # exemplar cap passthrough (ADVICE r3: was
                        # silently dropped; the results fn reads it)
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "warn"),
                )
            )
        elif kind == "completeness":
            # null-rate threshold (Deequ "completeness >= c"): the
            # column may hold nulls up to max_null_rate of checked rows
            col = chk["column"]
            cid = chk.get("constraint_id") or next_id(f"{table}.{col}.completeness")
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "completeness",
                    {
                        "column": col,
                        "max_null_rate": float(chk["max_null_rate"]),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "freshness":
            # per-group staleness: latest `column` within max_age_s of
            # the explicit as_of (never wall clock — determinism)
            col = chk["column"]
            cid = chk.get(
                "constraint_id", f"{table}.{col}.freshness"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "freshness",
                    {
                        "column": col,
                        "as_of": chk["as_of"],
                        "max_age_s": chk["max_age_s"],
                        "group_by": chk.get("group_by"),
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "cardinality":
            # distinct-count bounds (Deequ hasNumberOfDistinctValues):
            # distinct `column` values per group within [min, max]
            col = chk["column"]
            if chk.get("min_distinct") is None and chk.get("max_distinct") is None:
                raise SpecError(
                    f"checks[{i}]: cardinality check needs min_distinct and/or max_distinct"
                )
            cid = chk.get("constraint_id") or next_id(f"{table}.{col}.cardinality")
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "cardinality",
                    {
                        "column": col,
                        "min_distinct": chk.get("min_distinct"),
                        "max_distinct": chk.get("max_distinct"),
                        "group_by": chk.get("group_by"),
                        "num_buckets": chk.get("num_buckets", 256),
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "reconcile":
            # cross-table aggregate consistency: column ==
            # sum(other_sum) over other_table rows sharing the key
            col = chk["column"]
            cid = chk.get(
                "constraint_id", f"{table}.{col}.reconcile"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "reconcile",
                    {
                        "key": chk["key"],
                        "column": col,
                        "other_table": chk["other_table"],
                        "other_key": chk["other_key"],
                        "other_sum": chk["other_sum"],
                        "tolerance": chk.get("tolerance", 0.01),
                        "missing_other": chk.get("missing_other", "violation"),
                        "num_buckets": chk.get("num_buckets", 256),
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "monotonic":
            # ordering invariant: within each key, in (order...) order,
            # `column` never steps the wrong way vs its predecessor
            keyc = chk["key"]
            keyc = [keyc] if isinstance(keyc, str) else list(keyc)
            orderc = chk["order"]
            orderc = [orderc] if isinstance(orderc, str) else list(orderc)
            col = chk["column"]
            cid = chk.get(
                "constraint_id", f"{table}.{col}.monotonic"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "monotonic",
                    {
                        "key": keyc,
                        "order": orderc,
                        "column": col,
                        "strict": bool(chk.get("strict", False)),
                        "direction": chk.get("direction", "increasing"),
                        "num_buckets": chk.get("num_buckets", 256),
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "fd":
            # functional dependency: columns (determinant) -> dependent.
            # A bare-string determinant is normalized to a 1-list
            # (ADVICE r3: list("col") exploded it into characters).
            cols = chk["columns"]
            cols = [cols] if isinstance(cols, str) else list(cols)
            dep = chk["dependent"]
            cid = chk.get("constraint_id") or next_id(
                f"{table}.{'_'.join(cols)}->{dep}.fd"
            )
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "fd",
                    {
                        "columns": cols,
                        "dependent": dep,
                        "num_buckets": chk.get("num_buckets", 256),
                        "max_violation_rows": chk.get("max_violation_rows"),
                    },
                    chk.get("severity", "error"),
                )
            )
        elif kind == "group_drift":
            # per-group (language/domain/source) distribution shift vs
            # a per-group baseline — params pass through like drift
            gcol = chk["group_by"]
            cid = chk.get("constraint_id", f"{table}.{gcol}.group_drift")
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "group_drift",
                    {k: v for k, v in chk.items() if k not in ("kind", "constraint_id", "severity")},
                    chk.get("severity", "warn"),
                )
            )
        elif kind == "drift":
            cid = chk.get("constraint_id", f"{table}.drift")
            cs.dist_checks.append(
                DistCheck(
                    cid,
                    "drift",
                    {k: v for k, v in chk.items() if k not in ("kind", "constraint_id", "severity")},
                    chk.get("severity", "warn"),
                )
            )
        else:
            raise SpecError(f"unknown check kind {kind!r}")
    # two shared-exchange checks with one id would have their partials
    # merged and folded under one check's params
    seen: set[str] = set()
    for d in cs.dist_checks:
        if d.kind in _SHARED_EXCHANGE_KINDS:
            if d.constraint_id in seen:
                raise SpecError(f"duplicate constraint_id {d.constraint_id!r}")
            seen.add(d.constraint_id)
    return cs


def compile_value_schema(
    schema: dict, column: str = "v", table: str = "conformance", parse_json: bool = False
) -> ConstraintSet:
    """Compile a full draft-03 JSON Schema applied to each value of one
    column (conformance path, FIXTURES.md §3). Rejects malformed
    schemas at compile time by probing $ref resolution."""
    if not isinstance(schema, dict):
        raise SpecError("schema must be a dict")
    # compile-time $ref cycle/dangling probe [SURVEY A16]
    _probe_refs(schema, schema, set(), 0)
    check = CompiledCheck(
        constraint_id=f"{table}.{column}.schema",
        keyword="value_schema",
        column=column,
        params={"schema": schema, "parse_json": parse_json},
    )
    return ConstraintSet(table=table, row_checks=[check], row_ref_cols=[])


def _probe_refs(node, root: dict, seen: set[int], depth: int) -> None:
    if depth > 64:
        raise SpecError("schema nesting exceeds max depth")
    if isinstance(node, dict):
        if "$ref" in node and isinstance(node["$ref"], str):
            js._resolve_ref(node["$ref"], root)  # raises SchemaError if dangling
        for v in node.values():
            _probe_refs(v, root, seen, depth + 1)
    elif isinstance(node, list):
        for v in node:
            _probe_refs(v, root, seen, depth + 1)
