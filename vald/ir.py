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

``KINDS`` holds one compile rule per check kind: its keys and their
defaults, its default id and severity, and whether it is a row check
(FUSED into the one map_batches pass, SURVEY.md §3.4) or a dataset-level
``DistCheck`` that validate() plans (constraints_dist.FUSED_KINDS,
constraints_dist.OWN_PASS_KINDS, refint's planner).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

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
    "KINDS",
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
            if p["guard_left_in_domain"]:
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
    kind: str  # a KINDS entry that is not a row kind
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


class Kind(NamedTuple):
    """How one check kind compiles: the keys it takes, how its default
    id is built, and whether it is a row check or a dataset-level one."""

    # keys it cannot run without (checked at compile time: checks run
    # inside Ray tasks, where a missing key would fail mid-pipeline as a
    # KeyError); a tuple entry names alternatives, one of which must be set
    required: tuple
    # the other keys it takes -> default (a callable default is computed
    # from the check's other keys); every other key is a SpecError
    optional: dict
    # the middle part of the default id "<table>.<target>.<kind>"
    # (None: "<table>.<kind>")
    target: Callable[[dict], str | None]
    # keys holding column lists: a bare string is a 1-list
    lists: tuple = ()
    severity: str = "error"
    # True: a CompiledCheck of the row pass (its "column" key is the
    # check's column, its "id" key only names the default id); False: a
    # DistCheck, planned by validate()
    row: bool = False


def _column(p: dict) -> str:
    return p["column"]


def _columns(p: dict) -> str:
    return "_".join(p["columns"])


def _expr(name: str, required: tuple, **optional) -> Kind:
    """An expression kind (A12 cross-field checks over one row's
    operands), named by its ``column``, else its ``id``, else the kind."""
    return Kind(
        required,
        {"column": None, "id": None, **optional},
        lambda p: p["column"] or p["id"] or name,
        row=True,
    )


# exemplar cap and bucket-hash modulus of the exchanged kinds
_BUCKETED = {"num_buckets": 256, "max_violation_rows": None}
# B9 drift (per partition) and group_drift (per group) vs a baseline
# profile (path or Arrow table)
_DRIFT = {
    "columns": (),
    "cat_columns": (),
    "ks_threshold": 0.15,
    "psi_threshold": 0.25,
}

# Every check kind of a table spec's "checks" list (SURVEY.md §3.4: one
# rule per kind, as a JSON Schema validator dispatches per keyword).
KINDS: dict[str, Kind] = {
    # B3 per-row invariant: sha256(column) equals the ``expected`` column
    "sha_equal": Kind(("column", "expected"), {}, _column, row=True),
    "compare": _expr("compare", ("left", "op", "right")),
    # if <cond> holds then <then> must hold [spec03 §5.8 dependencies]
    "implies": _expr(
        "implies", ("cond_left", "cond_op", "cond_right", "left", "op", "right")
    ),
    # guard_left_in_domain: only pairs whose left value is in the
    # declared domain are checked
    "pair_in_set": _expr(
        "pair_in_set", ("left", "right", "pairs"), guard_left_in_domain=False
    ),
    "unique": Kind(("columns",), {}, _columns, lists=("columns",)),
    # parent keys come from validate()'s parents[parent_table] or are
    # read from parent_path; strategy: "auto" | "broadcast" |
    # "anti_join" | "bloom_screen" (approximate, one-sided)
    "refint": Kind(
        ("columns",),
        {
            "parent_table": None,
            "parent_columns": lambda p: p["columns"],
            "parent_path": None,
            "strategy": "auto",
            "max_broadcast_keys": None,
            "bits_per_key": 16,
        },
        _columns,
        lists=("columns", "parent_columns"),
    ),
    # empirical-outlier screen: values outside the table's own exact
    # [P(lower_q), P(upper_q)] quantiles are violations
    "quantile_bounds": Kind(
        ("column",),
        {"lower_q": 0.0, "upper_q": 1.0, "max_violation_rows": None},
        _column,
        severity="warn",
    ),
    # null-rate threshold (Deequ "completeness >= c")
    "completeness": Kind(("column", "max_null_rate"), {}, _column),
    # per-group staleness: latest ``column`` within max_age_s of the
    # explicit as_of (never wall clock: determinism)
    "freshness": Kind(
        ("column", "as_of", "max_age_s"),
        {"group_by": None, "max_violation_rows": None},
        _column,
    ),
    # distinct-count bounds (Deequ hasNumberOfDistinctValues) per group
    "cardinality": Kind(
        ("column", ("min_distinct", "max_distinct")),
        {"group_by": None, **_BUCKETED},
        _column,
    ),
    # cross-table aggregate consistency: column == sum(other_sum) over
    # the other_table rows sharing the key
    "reconcile": Kind(
        ("key", "column", "other_table", "other_key", "other_sum"),
        {"tolerance": 0.01, "missing_other": "violation", **_BUCKETED},
        _column,
    ),
    # ordering invariant: within each key, in (order...) order, column
    # never steps the wrong way vs its predecessor
    "monotonic": Kind(
        ("key", "order", "column"),
        {"strict": False, "direction": "increasing", **_BUCKETED},
        _column,
        lists=("key", "order"),
    ),
    # functional dependency: columns (determinant) -> dependent
    "fd": Kind(
        ("columns", "dependent"),
        _BUCKETED,
        lambda p: f"{_columns(p)}->{p['dependent']}",
        lists=("columns",),
    ),
    "drift": Kind(
        (("baseline", "baseline_table"),),
        _DRIFT,
        lambda p: None,
        lists=("columns", "cat_columns"),
        severity="warn",
    ),
    "group_drift": Kind(
        ("group_by", ("baseline", "baseline_table")),
        _DRIFT,
        lambda p: p["group_by"],
        lists=("columns", "cat_columns"),
        severity="warn",
    ),
}

# keys every check kind takes
_CHECK_KEYS = ("kind", "constraint_id", "severity")


def compile_table_spec(spec: dict) -> ConstraintSet:
    """Compile a declarative table spec into a ConstraintSet.

    Spec shape::

        {"table": "corpus",
         "row_ref": ["repo", "commit", "path"],          # key columns
         "row_ref_template": "{repo}@{commit}:{path}",   # optional
         "partition_by": "repo", "num_partitions": 8,
         "columns": {"commit": {"required": True, "pattern": "^[0-9a-f]{40}$"},
                     "lang": {"enum": ["py", "js"]}},
         "checks": [  # cross-field + distributed, one rule per KINDS entry
            {"kind": "compare", "id": "len_eq", "left": {...}, "op": "==", "right": {...}},
            {"kind": "implies", ...}, {"kind": "pair_in_set", ...},
            {"kind": "unique", "columns": ["repo","path","commit"]},
            {"kind": "refint", "columns": ["repo"], "parent_table": "repos",
             "parent_columns": ["repo"]},
            {"kind": "drift", "columns": [...], "baseline": <path>,
             "ks_threshold": 0.1, "psi_threshold": 0.2}]}

    A check's id is its ``constraint_id``, else ``"<table>.<target>.<kind>"``
    (``KINDS[kind].target``) with a ``.N`` suffix on the N-th repeat.
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
        # default ids repeat on repeated checks of any kind: the 2nd
        # gets ".1", ... (checks sharing an id fold into one verdict)
        n = counters.get(base, 0)
        counters[base] = n + 1
        return base if n == 0 else f"{base}.{n}"

    for i, chk in enumerate(spec.get("checks", [])):
        name = chk.get("kind")
        if name not in KINDS:
            raise SpecError(f"unknown check kind {name!r}")
        kind = KINDS[name]
        where = f"checks[{i}] (kind {name!r})"
        params = {}
        for key in kind.required:
            alts = key if isinstance(key, tuple) else (key,)
            if all(chk.get(k) is None for k in alts):
                raise SpecError(
                    f"{where}: missing required key " + " or ".join(repr(k) for k in alts)
                )
            params.update((k, chk.get(k)) for k in alts)
        unknown = [
            k for k in chk if k not in params and k not in kind.optional and k not in _CHECK_KEYS
        ]
        if unknown:
            raise SpecError(f"{where}: unknown key(s) {unknown}")
        for k, default in kind.optional.items():
            if k in chk:
                params[k] = chk[k]
            else:
                params[k] = default(params) if callable(default) else default
        for k in kind.lists:
            if isinstance(params[k], str):
                params[k] = [params[k]]
            elif params[k] is not None:
                params[k] = list(params[k])
        target = kind.target(params)
        cid = chk.get("constraint_id") or next_id(
            f"{table}.{target}.{name}" if target else f"{table}.{name}"
        )
        severity = chk.get("severity", kind.severity)
        if kind.row:
            column = params.pop("column", None)
            params.pop("id", None)
            cs.row_checks.append(CompiledCheck(cid, name, column, params, severity))
        else:
            cs.dist_checks.append(DistCheck(cid, name, params, severity))
    # validate() keys per-check state by id (the shared exchange's
    # partials, refint's broadcast parent keys): two dataset-level checks
    # with one id would run under one check's params
    seen: set[str] = set()
    for d in cs.dist_checks:
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
