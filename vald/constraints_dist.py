"""Distributed constraints: the fused dataset-level kinds (uniqueness
B4, functional dependency, distinct cardinality, completeness),
referential integrity at scale (B5 anti-join path), drift (B9), the
kinds that still read the input themselves (freshness, monotonic,
reconcile, quantile bounds) and salting helpers (B8).

All stages emit pipeline.RESULT_SCHEMA rows so they union into the one
result stream that validate() folds into verdicts.

Fused kinds (``FUSED_KINDS``, one ``{kind: (batch partial, bucket
fold)}`` table): a kind's *batch partial* runs inside the RowValidator
pass — the input is read and decoded once — and rides the result
stream as pipeline.EXT_SCHEMA rows (``rec`` = the kind). ONE
``groupby("ubucket").map_groups`` exchange (``fused_exchange``) then
folds every fused check at once: each bucket is split by
constraint_id and handed to that kind's *bucket fold*. The standalone
``*_check_results(ds, cs, dist)`` functions run the same partial over
``ds`` and the same fold.

Shuffle discipline (SURVEY.md "minimize shuffles"): partials are
pre-aggregated per batch with a vectorized pyarrow ``Table.group_by``,
so an exchange moves one row per distinct key (or pair) per batch, not
one per input row, keyed by a small int bucket. The uniqueness key
(repo,path,commit) is fine-grained and naturally balanced; salting
(B8) applies to per-*repo* rollups, provided by ``salted_group_counts``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Min, Sum

from .hashing import KEY_SEP, stable_hash64
from .ir import ConstraintSet, DistCheck
from . import pipeline as P

__all__ = [
    "FUSED_KINDS",
    "fused_exchange",
    "refint_anti_join_results",
    "fused_refint_anti_results",
    "drift_check_results",
    "group_drift_check_results",
    "fd_check_results",
    "monotonic_check_results",
    "reconcile_check_results",
    "freshness_check_results",
    "cardinality_check_results",
    "completeness_check_results",
    "quantile_bounds_check_results",
    "salted_group_counts",
]


def _key_ref(t: pa.Table, cols: list[str], cs: ConstraintSet) -> list[str]:
    """Canonical row_ref for a key group: the real row_ref template when
    the key IS the row_ref key, else '|'-joined values."""
    if set(cols) == set(cs.row_ref_cols) and cs.row_ref_template:
        return P.build_row_ref(t, cs).to_pylist()
    joined = [pc.fill_null(pc.cast(t[c], pa.string()), "<null>") for c in cols]
    if len(joined) == 1:
        return joined[0].to_pylist()
    return pc.binary_join_element_wise(*joined, "|").to_pylist()


def _np(col, dtype=np.int64) -> np.ndarray:
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype=dtype)


def _joined(t: pa.Table, cols: list[str], null: str | None = None):
    """One string key per row: ``cols`` cast to string and KEY_SEP-joined.
    ``null`` replaces NULLs first; without it a NULL in any column makes
    the key NULL (the row is then unchecked by the caller)."""
    keys = [pc.cast(t[c], pa.string()) for c in cols]
    if null is not None:
        keys = [pc.fill_null(k, null) for k in keys]
    return keys[0] if len(keys) == 1 else pc.binary_join_element_wise(*keys, KEY_SEP)


def _cols(k: int, **cols) -> dict[str, list]:
    """RESULT_SCHEMA columns as lists of length ``k``; a scalar value is
    repeated, a missing column takes its default."""
    return {
        f.name: (
            cols[f.name] if isinstance(cols.get(f.name), list)
            else [cols.get(f.name, P._DEFAULTS.get(f.name))] * k
        )
        for f in P.RESULT_SCHEMA
    }


def _count_rows(cid: str, n_checked: np.ndarray, n_viol: np.ndarray, **const) -> dict:
    """Verdict-partial rows, one per partition with a nonzero count;
    ``n_checked``/``n_viol`` are indexed by partition id."""
    present = np.flatnonzero((n_checked > 0) | (n_viol > 0))
    return _cols(
        len(present),
        partition_id=present.tolist(),
        constraint_id=cid,
        n_checked=n_checked[present].astype(np.int64).tolist(),
        n_violations=n_viol[present].astype(np.int64).tolist(),
        **const,
    )


def _violation_rows(
    cid: str, pids, refs: list, observed: list, column: str, detail: str
) -> dict:
    return _cols(
        len(refs),
        partition_id=[int(p) for p in pids],
        constraint_id=cid,
        row_ref=refs,
        column=column,
        observed=observed,
        detail=detail,
        is_violation=True,
    )


def _table(parts: list[dict]) -> pa.Table:
    """One RESULT_SCHEMA table from ``_cols`` parts (one Arrow build)."""
    return P.result_rows(
        {f.name: [v for p in parts for v in p[f.name]] for f in P.RESULT_SCHEMA}
    )


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    v = sorted_values
    return np.flatnonzero(np.r_[True, v[1:] != v[:-1]])


def _max_rows(dist: DistCheck) -> int:
    return int(
        dist.params.get("max_violation_rows") or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )


def _group_keys(dist: DistCheck) -> list[str]:
    gb = dist.params.get("group_by") or []
    return [gb] if isinstance(gb, str) else list(gb)


# --- fused kinds: batch partials (row pass) ----------------------------------


def _keyed_partial(dist: DistCheck, key, rec: str | None = None, **cols) -> pa.Table:
    """EXT partial rows (``rec`` defaults to the kind) bucketed on
    ``key``'s stable hash modulo the check's own ``num_buckets``;
    ``key`` rides in row_ref."""
    h = stable_hash64(key)
    bucket = (h % np.uint64(int(dist.params.get("num_buckets", 256)))).astype(np.int32)
    return P.partial_rows(
        dist.constraint_id, rec or dist.kind, row_ref=key, uh=h, ubucket=bucket, **cols
    )


def _unique_partial(batch, dist, cs, pids, refs) -> pa.Table:
    # NULL key columns become "<null>" and are checked like any value
    cols = list(dist.params["columns"])
    if set(cols) == set(cs.row_ref_cols) and cs.row_ref_template:
        ref = refs if refs is not None else P.build_row_ref(batch, cs)
    else:
        ref = _joined(batch, cols, null="<null>")
    # group by (ref, pid) — NOT ref with min(pid) — so a key that spans
    # partitions inside one batch credits each partition exactly (ADVICE r2)
    agg = pa.table(
        {"ref": ref, "pid": pids, "cnt": np.ones(len(batch), dtype=np.int64)}
    ).group_by(["ref", "pid"], use_threads=False).aggregate([("cnt", "sum")])
    return _keyed_partial(dist, agg["ref"], partition_id=agg["pid"], ucnt=agg["cnt_sum"])


def _fd_partial(batch, dist, cs, pids, refs) -> pa.Table:
    small = pa.table(
        {
            "ref": _joined(batch, dist.params["columns"]),
            "dep": pc.cast(batch[dist.params["dependent"]], pa.string()),
            "pid": pids,
            "cnt": np.ones(len(batch), dtype=np.int64),
        }
    ).drop_null()  # NULL determinant or dependent rows are unchecked
    agg = small.group_by(["ref", "dep", "pid"], use_threads=False).aggregate(
        [("cnt", "sum")]
    )
    # bucketed on the determinant: its pairs land in one fold
    return _keyed_partial(
        dist, agg["ref"], observed=agg["dep"], partition_id=agg["pid"], ucnt=agg["cnt_sum"]
    )


def _cardinality_partial(batch, dist, cs, pids, refs) -> pa.Table:
    keys = _group_keys(dist)
    small = pa.table(
        {
            "g": _joined(batch, keys) if keys else pa.repeat("", len(batch)),
            "v": pc.cast(batch[dist.params["column"]], pa.string()),
            "pid": pids,
        }
    ).drop_null()  # NULL group or value rows are unchecked
    agg = small.group_by(["g", "v"], use_threads=False).aggregate([("pid", "min")])
    # bucketed on the GROUP: one fold sees a group's whole value set
    return _keyed_partial(
        dist, agg["g"], observed=agg["v"], partition_id=agg["pid_min"]
    )


def _completeness_partial(batch, dist, cs, pids, refs) -> pa.Table:
    c = batch[dist.params["column"]]
    if pa.types.is_floating(c.type):  # NaN counts as null (kernel NaN policy)
        nulls = np.isnan(c.to_numpy(zero_copy_only=False).astype(np.float64))
    else:
        nulls = _np(pc.is_null(c), bool)
    n = np.bincount(pids)
    n_null = np.bincount(pids[nulls], minlength=len(n))
    present = np.flatnonzero(n)
    # one bucket per constraint: the global rate is decided in one fold
    h = stable_hash64(pa.array([dist.constraint_id]))[0]
    return P.partial_rows(
        dist.constraint_id,
        dist.kind,
        partition_id=present,
        n_checked=n[present],
        n_violations=n_null[present],
        ubucket=np.full(len(present), h % np.uint64(256), dtype=np.int32),
    )


def refint_key_partial(batch: pa.Table, dist: DistCheck, pids) -> pa.Table:
    """Large-parent refint child-key partials (``rec == "rkey"``): one
    row per distinct non-NULL child key and partition per batch, which
    ``fused_refint_anti_results`` consumes instead of re-reading the
    input."""
    agg = (
        pa.table(
            {
                "ref": _joined(batch, dist.params["columns"]),
                "pid": pids,
                "cnt": np.ones(len(batch), dtype=np.int64),
            }
        )
        .drop_null()
        .group_by(["ref", "pid"], use_threads=False)
        .aggregate([("cnt", "sum")])
    )
    return _keyed_partial(
        dist, agg["ref"], "rkey", partition_id=agg["pid"], ucnt=agg["cnt_sum"]
    )


# --- fused kinds: bucket folds (the shared exchange) -------------------------


def _unique_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
    cid = dist.constraint_id
    pids, cnt = _np(g["partition_id"]), _np(g["ucnt"])
    keys = g.group_by(["uh", "row_ref"], use_threads=False).aggregate(
        [("partition_id", "min"), ("ucnt", "sum")]
    )
    kpid, kcnt = _np(keys["partition_id_min"]), _np(keys["ucnt_sum"])
    n_parts = int(pids.max()) + 1
    # every key row lands in exactly one bucket: n_checked sums exactly;
    # a key's excess occurrences go to its first (min) partition
    n_checked = np.bincount(pids, weights=cnt, minlength=n_parts)
    excess = np.bincount(kpid, weights=kcnt - 1, minlength=n_parts)
    out = [_count_rows(cid, n_checked, excess)]
    dup = np.flatnonzero(kcnt > 1)
    if len(dup):
        refs = keys["row_ref"].take(dup).to_pylist()
        out.append(
            _violation_rows(cid, kpid[dup], refs, [str(c) for c in kcnt[dup]], "", "unique")
        )
    return out


def _fd_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
    cid = dist.constraint_id
    # distinct dependents and min partition per determinant
    det = g.group_by("row_ref", use_threads=False).aggregate(
        [("observed", "count_distinct"), ("partition_id", "min")]
    )
    bad = det.filter(pc.greater_equal(det["observed_count_distinct"], 2))
    badv = _np(pc.is_in(g["row_ref"], value_set=bad["row_ref"].combine_chunks()), bool)
    pids, cnt = _np(g["partition_id"]), _np(g["ucnt"])
    n_parts = int(pids.max()) + 1
    out = [
        _count_rows(
            cid,
            np.bincount(pids, weights=cnt, minlength=n_parts),
            np.bincount(pids[badv], weights=cnt[badv], minlength=n_parts),
        )
    ]
    if len(bad):
        # capped exemplars: one row per inconsistent determinant,
        # attributed to its min contributing partition (the unique
        # exemplar convention)
        ex = bad.slice(0, _max_rows(dist))
        out.append(
            _violation_rows(
                cid,
                _np(ex["partition_id_min"]),
                ex["row_ref"].to_pylist(),
                [str(v) for v in ex["observed_count_distinct"].to_pylist()],
                dist.params["dependent"],
                "fd",
            )
        )
    return out


def _cardinality_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
    cid, col = dist.constraint_id, dist.params["column"]
    lo, hi = dist.params.get("min_distinct"), dist.params.get("max_distinct")
    # each distinct (group, value) credits its FIRST-writer partition
    # (min pid: deterministic under any execution order); a group's
    # verdict goes to its DOMINANT contributor: max credit, ties -> min
    # pid, i.e. the first row per group in this sort order
    credit = (
        g.group_by(["row_ref", "observed"], use_threads=False)
        .aggregate([("partition_id", "min")])
        .group_by(["row_ref", "partition_id_min"], use_threads=False)
        .aggregate([([], "count_all")])
        .sort_by(
            [
                ("row_ref", "ascending"),
                ("count_all", "descending"),
                ("partition_id_min", "ascending"),
            ]
        )
    )
    grp = credit["row_ref"].to_numpy(zero_copy_only=False)
    starts = _run_starts(grp)
    tot = np.add.reduceat(_np(credit["count_all"]), starts)
    pids = _np(credit["partition_id_min"])[starts]
    bad = np.zeros(len(starts), dtype=bool)
    if lo is not None:
        bad |= tot < int(lo)
    if hi is not None:
        bad |= tot > int(hi)
    n_parts = int(pids.max()) + 1
    idx = np.flatnonzero(bad)[: _max_rows(dist)]
    return [
        _count_rows(
            cid,
            np.bincount(pids, minlength=n_parts),
            np.bincount(pids[bad], minlength=n_parts),
            column=col,
        ),
        _violation_rows(
            cid,
            pids[idx],
            [str(grp[starts[i]]) for i in idx],
            [str(int(tot[i])) for i in idx],
            col,
            f"cardinality[{'' if lo is None else lo},{'' if hi is None else hi}]",
        ),
    ]


def _completeness_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
    cid, col = dist.constraint_id, dist.params["column"]
    max_rate = float(dist.params["max_null_rate"])
    agg = (
        g.group_by("partition_id", use_threads=False)
        .aggregate([("n_checked", "sum"), ("n_violations", "sum")])
        .sort_by("partition_id")
    )
    pids = _np(agg["partition_id"])
    n, n_null = _np(agg["n_checked_sum"]), _np(agg["n_violations_sum"])
    rate = n_null.sum() / n.sum() if n.sum() else 0.0
    firing = rate > max_rate
    detail = f"null_rate>{max_rate}" if firing else f"null_rate<={max_rate}"
    n_parts = int(pids.max()) + 1
    out = [
        # the decision is on the GLOBAL rate; a partition's n_violations
        # is its own null count when the check fires
        _count_rows(
            cid,
            np.bincount(pids, weights=n, minlength=n_parts),
            np.bincount(pids, weights=n_null * firing, minlength=n_parts),
            column=col,
            observed=f"{rate:.6f}",
            detail=detail,
        )
    ]
    if firing:
        # one exemplar for the table-wide breach, attributed to the
        # partition contributing the most nulls (ties -> min pid)
        worst = [pids[int(np.argmax(n_null))]]
        out.append(_violation_rows(cid, worst, [""], [f"{rate:.6f}"], col, detail))
    return out


class FusedKind(NamedTuple):
    partial: Callable  # (batch, dist, cs, pids, refs) -> EXT partial rows
    fold: Callable  # (one check's rows in one bucket, dist) -> [_cols parts]
    columns: tuple  # the EXT columns the fold reads (all the exchange ships)


FUSED_KINDS: dict[str, FusedKind] = {
    "unique": FusedKind(
        _unique_partial, _unique_fold, ("row_ref", "partition_id", "uh", "ucnt")
    ),
    "fd": FusedKind(
        _fd_partial, _fd_fold, ("row_ref", "observed", "partition_id", "ucnt")
    ),
    "cardinality": FusedKind(
        _cardinality_partial, _cardinality_fold, ("row_ref", "observed", "partition_id")
    ),
    "completeness": FusedKind(
        _completeness_partial,
        _completeness_fold,
        ("partition_id", "n_checked", "n_violations"),
    ),
}


def fused_exchange(
    raw: "ray.data.Dataset", dists: list[DistCheck]
) -> "ray.data.Dataset":
    """Fold every fused check in ``dists`` in ONE exchange over the EXT
    stream ``raw``: the partial rows of those checks, projected to the
    columns their folds read, are grouped by ``ubucket``; each bucket is
    split by constraint_id and folded by its kind. Buckets keep each
    kind's own rule (key hash % the check's ``num_buckets``; one bucket
    per completeness check), so every key, determinant or group is
    decided in exactly one fold task."""
    by_cid = {d.constraint_id: d for d in dists}
    cid_arr = pa.array(list(by_cid), type=pa.string())
    cols = list(
        dict.fromkeys(
            ["constraint_id", "ubucket"]
            + [c for d in dists for c in FUSED_KINDS[d.kind].columns]
        )
    )

    def project(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.not_equal(t["rec"], pa.scalar("res")),
            pc.is_in(t["constraint_id"], value_set=cid_arr),
        )
        return t.filter(m).select(cols)

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by("constraint_id")
        cids = g["constraint_id"].to_numpy(zero_copy_only=False)
        starts = _run_starts(cids)
        out = [_cols(0)]
        for a, b in zip(starts, [*starts[1:], len(g)]):
            d = by_cid[cids[a]]
            out += FUSED_KINDS[d.kind].fold(g.slice(a, b - a), d)
        return _table(out)

    return (
        raw.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ubucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _standalone(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """One fused check outside validate(): its batch partial over ``ds``
    (a pass of its own), then the shared exchange."""

    def partials(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_ext()
        pids = P.build_partition_ids(t, cs)
        return FUSED_KINDS[dist.kind].partial(t, dist, cs, pids, None)

    parts = ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    return fused_exchange(parts, [dist])


def fused_unique_results(
    raw: "ray.data.Dataset",
    cs: ConstraintSet,
    dists: list[DistCheck],
    max_candidate_broadcast: int = 5_000_000,
) -> "ray.data.Dataset":
    """B4 HASH-FIRST uniqueness (opt-in: set ``params["unique_strategy"]
    = "hash_first"`` on a compiled unique DistCheck; specs do not expose
    it): consumes the unique partial rows the row pass
    emitted (``rec == "unique"``) and keeps the heavy key strings OUT of
    the first exchange:

    1. **totals, no shuffle**: n_checked verdict partials come straight
       from the partial rows (bincount by partition, weighted by ucnt).
    2. **candidate detection, light shuffle**: only (cid-code:int8,
       uh:uint64, ubucket:int32, ucnt:int64) ≈ 21 B/row moves through
       the groupby — ~6× fewer bytes than shipping the canonical ref
       strings (measured 123 B/row on the 8M corpus). Hashes with total
       count > 1 are duplicate CANDIDATES (true dups ∪ rare collisions).
    3. **refinement**: candidate uh sets are broadcast (ray.put) and the
       materialized raw stream is filtered down to candidate rows only
       (tiny: ~dup-rate × keys); a bucket groupby over THOSE carries the
       refs and produces exact per-key counts, violation rows, and
       n_violations partials — the ref-equality comparison here is the
       hash-collision guard, so verdicts stay exact.

    MEASURED (this sandbox, 1M@32cpu and 8M@8cpu): the hash-first
    duplicate detection is SLOWER end-to-end than the single
    ref-carrying shuffle (54 s vs 38-42 s at 8M/8cpu) — Ray's sort-based
    groupby cost is dominated by ROW count, not bytes, and hash-first
    pays a second shuffle plus two extra passes. The default therefore
    folds uniqueness in the shared ``fused_exchange``; this path is for
    regimes where per-row key strings are far wider than here (multi-KB
    refs). Falls back to ``fused_exchange`` when candidates exceed
    ``max_candidate_broadcast``.

    ``raw`` must be materialized by the caller (validate does)."""
    cid_list = [d.constraint_id for d in dists]
    cid_arr = pa.array(cid_list, type=pa.string())

    def only_keys(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t["rec"], pa.scalar("unique")),
            pc.is_in(t["constraint_id"], value_set=cid_arr),
        )
        return t.filter(m)

    # --- 1. totals: verdict n_checked partials, no shuffle ---
    def totals(t: pa.Table) -> pa.Table:
        t = only_keys(t)
        code = _np(pc.index_in(t["constraint_id"], value_set=cid_arr))
        pids, cnt = _np(t["partition_id"]), _np(t["ucnt"])
        out = [_cols(0)]
        for ci, cid in enumerate(cid_list):
            sel = code == ci
            if sel.any():
                n_checked = np.bincount(pids[sel], weights=cnt[sel])
                out.append(_count_rows(cid, n_checked, np.zeros_like(n_checked)))
        return _table(out)

    totals_ds = raw.map_batches(totals, batch_format="pyarrow", zero_copy_batch=True)

    # --- 2. light candidate shuffle: hashes only ---
    def light(t: pa.Table) -> pa.Table:
        t = only_keys(t)
        code = pc.cast(
            pc.index_in(t["constraint_id"], value_set=cid_arr), pa.int8()
        )
        return pa.table(
            {
                "cidc": code,
                "uh": t["uh"],
                "ubucket": t["ubucket"],
                "ucnt": t["ucnt"],
            }
        )

    def cand_bucket(g: pa.Table) -> pa.Table:
        agg = g.group_by(["cidc", "uh"], use_threads=False).aggregate(
            [("ucnt", "sum")]
        )
        agg = agg.rename_columns(["cidc", "uh", "cnt"])
        return agg.filter(pc.greater(agg["cnt"], pa.scalar(1))).select(
            ["cidc", "uh"]
        )

    cands = (
        raw.map_batches(light, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ubucket")
        .map_groups(cand_bucket, batch_format="pyarrow")
        .materialize()
    )
    n_cand = cands.count()
    if n_cand == 0:
        return totals_ds
    if n_cand > max_candidate_broadcast:
        # extreme-duplication fallback: ship refs through the shuffle
        return fused_exchange(raw, dists)

    cand_t = pa.concat_tables(
        [p for p in ray.get(cands.to_arrow_refs()) if len(p)]
    )
    cand_sets: dict[int, pa.Array] = {}
    codes = _np(cand_t["cidc"])
    uhs = cand_t["uh"].combine_chunks()
    for ci in range(len(cid_list)):
        sel = np.flatnonzero(codes == ci)
        if len(sel):
            cand_sets[ci] = uhs.take(pa.array(sel, type=pa.int64()))
    cand_ref = ray.put(cand_sets)

    # --- 3. refinement: candidate rows only, WITH refs ---
    def refine_filter(t: pa.Table) -> pa.Table:
        t = only_keys(t)
        sets = ray.get(cand_ref)
        code_np = _np(pc.index_in(t["constraint_id"], value_set=cid_arr))
        mask = np.zeros(len(t), dtype=bool)
        for ci, uh_set in sets.items():
            m = pc.fill_null(pc.is_in(t["uh"], value_set=uh_set), False)
            mask |= _np(m, bool) & (code_np == ci)
        return t.filter(pa.array(mask)).select(
            ["constraint_id", "uh", "ubucket", "row_ref", "partition_id", "ucnt"]
        )

    def refine_bucket(g: pa.Table) -> pa.Table:
        out = [_cols(0)]
        for cid in sorted(pc.unique(g["constraint_id"]).to_pylist()):
            rows = g.filter(pc.equal(g["constraint_id"], pa.scalar(cid)))
            keys = rows.group_by(["uh", "row_ref"], use_threads=False).aggregate(
                [("partition_id", "min"), ("ucnt", "sum")]
            )
            kpid, kcnt = _np(keys["partition_id_min"]), _np(keys["ucnt_sum"])
            dup = np.flatnonzero(kcnt > 1)
            # n_violations partials per partition: excess occurrences
            excess = np.bincount(kpid[dup], weights=kcnt[dup] - 1)
            out.append(_count_rows(cid, np.zeros_like(excess), excess))
            out.append(
                _violation_rows(
                    cid,
                    kpid[dup],
                    keys["row_ref"].take(dup).to_pylist(),
                    [str(c) for c in kcnt[dup]],
                    "",
                    "unique",
                )
            )
        return _table(out)

    refined = (
        raw.map_batches(refine_filter, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ubucket")
        .map_groups(refine_bucket, batch_format="pyarrow")
    )
    return totals_ds.union(refined)


def refint_anti_join_results(
    child: "ray.data.Dataset",
    parent: "ray.data.Dataset",
    cs: ConstraintSet,
    dist: DistCheck,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """B5 large-parent path: native hash-partitioned ``left_anti`` join
    (Ray 2.49.2 ``Dataset.join``, JoinType left_anti verified) on
    pre-aggregated child keys. Used when the parent key set is too big
    to broadcast; the broadcast path lives in RowValidator.

    Child keys are pre-aggregated per batch (key, partition_id, cnt)
    before the join, so the exchange moves distinct keys, not rows.
    """
    cols = list(dist.params["columns"])
    pcols = list(dist.params.get("parent_columns", cols))
    cid = dist.constraint_id
    from .runtime import join_barrier, join_partitions, join_remote_args

    P_parts = join_partitions(num_partitions or cs.num_partitions)

    def pre(t: pa.Table) -> pa.Table:
        pids = P.build_partition_ids(t, cs)
        small = t.select(cols).append_column("partition_id", pa.array(pids, type=pa.int32()))
        # refint never checks null keys — drop them before the shuffle
        valid = np.ones(len(t), dtype=bool)
        for c in cols:
            valid &= ~np.asarray(pc.is_null(t[c]).to_numpy(zero_copy_only=False), dtype=bool)
        small = small.filter(pa.array(valid))
        small = small.append_column("cnt", pa.array(np.ones(len(small), dtype=np.int64)))
        agg = small.group_by(cols, use_threads=False).aggregate(
            [("partition_id", "min"), ("cnt", "sum")]
        )
        return agg.rename_columns(cols + ["partition_id", "cnt"])

    child_keys = child.map_batches(
        pre, batch_format="pyarrow", zero_copy_batch=True, batch_size=16384
    )
    child_keys = child_keys.groupby(cols).aggregate(
        Sum("cnt", alias_name="cnt"), Min("partition_id", alias_name="partition_id")
    )
    parent_keys = parent.select_columns(pcols)
    # join_barrier: child_keys is a groupby output — see runtime.join_barrier
    missing = join_barrier(child_keys).join(
        parent_keys,
        join_type="left_anti",
        num_partitions=P_parts,
        on=tuple(cols),
        right_on=tuple(pcols) if pcols != cols else None,
        aggregator_ray_remote_args=join_remote_args(),
    )

    # total checked = all child non-null keys; computed from child_keys
    def totals(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_result()
        valid = np.ones(len(t), dtype=bool)
        for c in cols:
            valid &= ~np.asarray(pc.is_null(t[c]).to_numpy(zero_copy_only=False), dtype=bool)
        cnt = np.asarray(t["cnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
        pids = np.asarray(t["partition_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        for pid in np.unique(pids):
            sel = (pids == pid) & valid
            out["partition_id"].append(int(pid))
            out["constraint_id"].append(cid)
            out["row_ref"].append("")
            out["column"].append("")
            out["observed"].append("")
            out["detail"].append("")
            out["is_violation"].append(False)
            out["n_checked"].append(int(cnt[sel].sum()))
            out["n_violations"].append(0)
        return P.result_rows(out)

    def missing_rows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_result()
        valid = np.ones(len(t), dtype=bool)
        for c in cols:
            valid &= ~np.asarray(pc.is_null(t[c]).to_numpy(zero_copy_only=False), dtype=bool)
        t = t.filter(pa.array(valid))
        if len(t) == 0:
            return P._empty_result()
        refs = _key_ref(t, cols, cs)
        cnt = np.asarray(t["cnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
        pids = np.asarray(
            t["partition_id"].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        # per-partition n_violations via one bincount (same formulation
        # as fused_refint_anti_results, VERDICT r2 item 7)
        nv = np.bincount(pids, weights=cnt, minlength=int(pids.max()) + 1)
        present = np.flatnonzero(nv > 0)
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([""] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend([0] * kp)
        out["n_violations"].extend(nv[present].astype(np.int64).tolist())
        colnames = ",".join(cols)
        for i in range(len(t)):
            out["partition_id"].append(int(pids[i]))
            out["constraint_id"].append(cid)
            out["row_ref"].append(refs[i])
            out["column"].append(colnames)
            out["observed"].append(str(int(cnt[i])))
            out["detail"].append("refint")
            out["is_violation"].append(True)
            out["n_checked"].append(0)
            out["n_violations"].append(0)
        return P.result_rows(out)

    return child_keys.map_batches(totals, batch_format="pyarrow").union(
        missing.map_batches(missing_rows, batch_format="pyarrow")
    )


def fused_refint_anti_results(
    raw: "ray.data.Dataset",
    parent: "ray.data.Dataset",
    cs: ConstraintSet,
    dist: DistCheck,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """B5 large-parent path, single-input-pass variant: consumes the
    pre-aggregated child-key partials (``rec == "rkey"``) that
    RowValidator emitted inline, so the anti-join NEVER re-reads the
    child input (Ray 2.49 has no projection pushdown — a second consumer
    of the read would re-decode every column, including the wide content
    column). Chosen automatically by ``validate()`` when the parent
    exceeds ``max_broadcast_keys``.

    Plan: rkey partials → totals (verdict n_checked, no shuffle) and, in
    parallel, bucket groupby → per-bucket distinct child keys →
    hash-partitioned ``left_anti`` join against the parent's canonical
    key strings → violation rows. The join moves distinct KEYS on both
    sides, never child rows; skew on hot parents is bounded because the
    child side is already reduced to one row per distinct key.
    """
    cid = dist.constraint_id
    cols = list(dist.params["columns"])
    pcols = list(dist.params.get("parent_columns", cols))
    from .runtime import join_barrier, join_partitions, join_remote_args

    P_parts = join_partitions(num_partitions or cs.num_partitions)
    from .hashing import KEY_SEP

    def project_rkey(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t["rec"], pa.scalar("rkey")),
            pc.equal(t["constraint_id"], pa.scalar(cid)),
        )
        return t.filter(m).select(
            ["row_ref", "partition_id", "uh", "ubucket", "ucnt"]
        )

    keys = raw.map_batches(project_rkey, batch_format="pyarrow", zero_copy_batch=True)

    def totals(t: pa.Table) -> pa.Table:
        # verdict n_checked partials straight from the (pre-distinct)
        # partials — sums are exact, no shuffle needed
        if len(t) == 0:
            return P._empty_result()
        pids = np.asarray(t["partition_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        cnt = np.asarray(t["ucnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
        Pmax = int(pids.max()) + 1 if len(pids) else 1
        n_checked = np.bincount(pids, weights=cnt, minlength=Pmax)
        present = np.flatnonzero(n_checked > 0)
        kp = len(present)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([""] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend(n_checked[present].astype(np.int64).tolist())
        out["n_violations"].extend([0] * kp)
        return P.result_rows(out)

    totals_ds = keys.map_batches(totals, batch_format="pyarrow")

    def per_bucket(g: pa.Table) -> pa.Table:
        agg = g.group_by(["uh", "row_ref"], use_threads=False).aggregate(
            [("partition_id", "min"), ("ucnt", "sum")]
        )
        agg = agg.rename_columns(["uh", "ref", "partition_id", "cnt"])
        return agg.select(["ref", "partition_id", "cnt"])

    child_keys = keys.groupby("ubucket").map_groups(per_bucket, batch_format="pyarrow")

    def parent_pre(t: pa.Table) -> pa.Table:
        # canonical parent key string, local distinct — the join's right
        # side moves one row per distinct parent key per block
        joined = [pc.cast(t[c], pa.string()) for c in pcols]
        ref = joined[0] if len(joined) == 1 else pc.binary_join_element_wise(*joined, KEY_SEP)
        small = pa.table({"ref": ref}).drop_null()
        return small.group_by("ref", use_threads=False).aggregate([])

    parent_keys = parent.map_batches(
        parent_pre, batch_format="pyarrow", zero_copy_batch=True
    )

    # join_barrier: child_keys is a groupby output — see runtime.join_barrier
    missing = join_barrier(child_keys).join(
        parent_keys,
        join_type="left_anti",
        num_partitions=P_parts,
        on=("ref",),
        aggregator_ray_remote_args=join_remote_args(),
    )

    def missing_rows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_result()
        pids = np.asarray(t["partition_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        cnt = np.asarray(t["cnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
        refs = t["ref"].to_pylist()
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        Pmax = int(pids.max()) + 1 if len(pids) else 1
        n_bad = np.bincount(pids, weights=cnt, minlength=Pmax)
        present = np.flatnonzero(n_bad > 0)
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([""] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend([0] * kp)
        out["n_violations"].extend(n_bad[present].astype(np.int64).tolist())
        for i in range(len(t)):
            out["partition_id"].append(int(pids[i]))
            out["constraint_id"].append(cid)
            out["row_ref"].append(refs[i])
            out["column"].append(",".join(cols))
            out["observed"].append(str(int(cnt[i])))
            out["detail"].append("refint")
            out["is_violation"].append(True)
            out["n_checked"].append(0)
            out["n_violations"].append(0)
        return P.result_rows(out)

    return totals_ds.union(missing.map_batches(missing_rows, batch_format="pyarrow"))


def drift_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """B9: per-partition KS/PSI drift vs a baseline profile — delegates
    to vald.drift (needs sketches)."""
    from . import drift

    return drift.drift_check_results(ds, cs, dist)


def group_drift_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Per-group KS/PSI drift (``kind: group_drift``) — delegates to
    vald.drift (needs sketches)."""
    from . import drift

    return drift.group_drift_check_results(ds, cs, dist)


def completeness_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Completeness check (``kind: completeness``, Deequ's
    ``completeness(col) >= c``): the column may be null in at most
    ``max_null_rate`` of rows. Unlike ``required`` (zero-null strict,
    a ROW check), the decision is a GLOBAL aggregate: per batch one
    (partition_id, n, n_null) partial row per partition (NaN counts as
    null for float columns — the kernel NaN policy), all of a check's
    partials go to ONE bucket, and that fold applies the threshold to
    the GLOBAL rate — per-partition RESULT rows keep exact attribution
    (a partition's n_violations is its own null count) while pass/fail
    is decided on the table-wide rate, so verdicts are
    parallelism-invariant. One exemplar row marks a breach, attributed
    to the partition contributing the most nulls (ties -> min pid).
    validate() computes the partials in its row pass; this function
    runs them over ``ds`` on their own."""
    return _standalone(ds, cs, dist)


def quantile_bounds_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Empirical-outlier screen (``kind: quantile_bounds``): rows whose
    value falls outside the table's own exact [P(lower_q), P(upper_q)]
    quantiles. Two passes:

    1. ``aggregates.exact_quantiles`` pins the two scalar thresholds —
       EXACT histogram-narrowing selection (no sort, no O(n) reduce
       materialization), deterministic and parallelism-invariant (a
       t-digest merge's centroids depend on partition order; the §5.3
       sketch twin remains the accept-threshold-jitter alternative,
       documented trade).
    2. One pruned streaming pass flags out-of-bound rows: per-partition
       (n_checked, n_violations) partials + capped exemplars. NULL/NaN
       values are unchecked (the quantile ignores them too).
    """
    col = dist.params["column"]
    lo_q = float(dist.params["lower_q"])
    hi_q = float(dist.params["upper_q"])
    cid = dist.constraint_id
    max_rows = int(
        dist.params.get("max_violation_rows") or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )

    pruned_cols = list(
        dict.fromkeys([col] + _pid_cols(cs) + list(cs.row_ref_cols or []))
    )
    pruned = ds.map_batches(
        lambda t, c=pruned_cols: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    from .aggregates import exact_quantiles

    res = exact_quantiles(ds, col, [lo_q, hi_q])
    lo, hi = res[lo_q], res[hi_q]

    def flag(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_result()
        pids = np.asarray(P.build_partition_ids(t, cs), dtype=np.int64)
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        checked = ~np.isnan(v)
        if lo is None or hi is None:  # all-null column: nothing checked
            bad = np.zeros(len(v), dtype=bool)
        else:
            with np.errstate(invalid="ignore"):
                bad = checked & ((v < lo) | (v > hi))
        Pmax = int(pids.max()) + 1
        n_checked = np.bincount(pids[checked], minlength=Pmax)
        n_viol = np.bincount(pids[bad], minlength=Pmax)
        present = np.flatnonzero(n_checked > 0)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([col] * kp)
        out["observed"].extend([f"[{lo},{hi}]"] * kp)
        out["detail"].extend([f"q[{lo_q},{hi_q}]"] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend(n_checked[present].astype(np.int64).tolist())
        out["n_violations"].extend(n_viol[present].astype(np.int64).tolist())
        idx = np.flatnonzero(bad)[:max_rows]
        if len(idx):
            ref = P.build_row_ref(t, cs)
            refs = (
                [""] * len(idx)
                if ref is None
                else [
                    "<null>" if r is None else r
                    for r in ref.take(pa.array(idx, type=pa.int64())).to_pylist()
                ]
            )
            for j, i in enumerate(idx):
                out["partition_id"].append(int(pids[i]))
                out["constraint_id"].append(cid)
                out["row_ref"].append(refs[j])
                out["column"].append(col)
                out["observed"].append(repr(float(v[i])))
                out["detail"].append("quantile_bounds")
                out["is_violation"].append(True)
                out["n_checked"].append(0)
                out["n_violations"].append(0)
        return P.result_rows(out)

    return pruned.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def fd_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Functional-dependency check (``kind: fd``): every determinant
    value must map to exactly one dependent value (Deequ-style
    "A determines B"). A row violates when its determinant group holds
    ≥ 2 distinct dependent values.

    Per batch, rows collapse to locally-distinct ``(det-ref, dep,
    partition_id) -> cnt`` via one Arrow hash-aggregate, bucketed on the
    determinant hash so a determinant's pairs land in ONE fold. Inside
    the fold: exact pair counts, per-determinant distinct-dependent
    count, then

    - ``n_checked`` partials per partition = sum of cnt (exact per-pid
      attribution: the pid rides every pair row, the advice-r2 rule),
    - ``n_violations`` partials per partition = rows whose determinant
      is inconsistent,
    - one exemplar violation row per bad determinant (observed =
      distinct-dependent count, detail = "fd"), attributed to the
      determinant's min partition and capped at ``max_violation_rows``
      per bucket.

    NULL policy: rows with NULL determinant or NULL dependent are
    excluded from both counts (COUNT(DISTINCT) semantics; the oracle
    filters the same way). ``num_buckets`` scales like B4
    (~distinct determinants / 5M). validate() computes the partials in
    its row pass; this function runs them over ``ds`` on their own.
    """
    return _standalone(ds, cs, dist)


def _pid_cols(cs: ConstraintSet) -> list[str]:
    return [cs.partition_by] if cs.partition_by else []


def salted_group_counts(
    ds: "ray.data.Dataset",
    key: str,
    num_salts: int = 16,
) -> "ray.data.Dataset":
    """B8 demonstration primitive: two-phase salted count per hot key.

    Phase 1 groups on (key, salt) — spreading a hot key over
    ``num_salts`` reducers — phase 2 groups the tiny partials on key.
    Used by per-repo rollups where a single giant repo would serialize
    a direct groupby(key).
    """

    def add_salt(t: pa.Table) -> pa.Table:
        n = len(t)
        salt = np.arange(n, dtype=np.int64) % num_salts
        small = t.select([key]).append_column("salt", pa.array(salt))
        small = small.append_column("cnt", pa.array(np.ones(n, dtype=np.int64)))
        return small.group_by([key, "salt"], use_threads=False).aggregate([("cnt", "sum")]).rename_columns([key, "salt", "cnt"])

    phase1 = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
    phase1 = phase1.groupby([key, "salt"]).aggregate(Sum("cnt", alias_name="cnt"))
    return phase1.groupby(key).aggregate(Sum("cnt", alias_name="cnt"))


def monotonic_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Ordering-invariant check (``kind: monotonic``): within each key,
    in (order…) ascending order, ``column`` must never step the wrong
    way vs its predecessor (non-strict ``increasing``: violation =
    value < previous; ``strict`` also flags ties; ``decreasing``
    mirrors) — "balance never decreases per account", "version only
    moves forward per repo".

    Shape: one key-hash exchange of the PARTICIPATING columns only
    (key, order, value, partition id, row_ref — a sequence property
    needs the rows; no partial aggregation exists), then per bucket one
    Arrow sort + one vectorized slice-compare
    (``ops.stats.monotonic_flags``, shared with the standalone op).
    Per-partition attribution is exact: the partition id rides each
    row, n_checked/n_violations come from one ``np.bincount`` each.
    Capped exemplars carry the violating row's row_ref and observed
    (prev -> value) transition. NULL key/order/value rows are excluded
    from both counts (SQL LAG-filter semantics). ``num_buckets``
    follows the B4 data-scaled rule."""
    from .ops.stats import monotonic_flags

    key_cols = list(dist.params["key"])
    order_cols = list(dist.params["order"])
    col = dist.params["column"]
    strict = bool(dist.params.get("strict", False))
    direction = dist.params.get("direction", "increasing")
    increasing = direction == "increasing"
    cid = dist.constraint_id
    num_buckets = int(dist.params.get("num_buckets", 256))
    max_rows = int(
        dist.params.get("max_violation_rows") or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )

    data_cols = list(dict.fromkeys([*key_cols, *order_cols, col]))

    def pre(t: pa.Table) -> pa.Table:
        pids = P.build_partition_ids(t, cs)
        ref = P.build_row_ref(t, cs)
        small = t.select(data_cols).append_column(
            "__pid", pa.array(np.asarray(pids, dtype=np.int32))
        )
        small = small.append_column(
            "__ref",
            pc.fill_null(ref, "<null>")
            if ref is not None
            else pa.nulls(len(t), pa.string()),
        )
        m = None
        for c in data_cols:
            v = pc.is_valid(small[c])
            m = v if m is None else pc.and_(m, v)
        small = small.filter(m)
        h = np.zeros(len(small), dtype=np.uint64)
        mix = np.uint64(0x9E3779B97F4A7C15)
        import pandas as pd

        for kc in key_cols:
            arr = small[kc].to_numpy(zero_copy_only=False)
            with np.errstate(over="ignore"):
                h = h * mix + pd.util.hash_array(arr, categorize=False)
        return small.append_column(
            "__gb", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__gb"])
        if len(g) == 0:
            return P._empty_result()
        g, viol = monotonic_flags(
            g, key_cols, order_cols, col, strict=strict, increasing=increasing
        )
        pids = np.asarray(
            g["__pid"].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        Pmax = int(pids.max()) + 1
        n_checked = np.bincount(pids, minlength=Pmax)
        n_viol = np.bincount(pids[viol], minlength=Pmax)
        present = np.flatnonzero(n_checked > 0)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([col] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend(n_checked[present].astype(np.int64).tolist())
        out["n_violations"].extend(n_viol[present].astype(np.int64).tolist())
        idx = np.flatnonzero(viol)[:max_rows]
        if len(idx):
            take = pa.array(idx, type=pa.int64())
            prev_take = pa.array(idx - 1, type=pa.int64())
            refs = g["__ref"].take(take).to_pylist()
            vals = pc.cast(g[col], pa.string()).take(take).to_pylist()
            prevs = pc.cast(g[col], pa.string()).take(prev_take).to_pylist()
            for j, i in enumerate(idx):
                out["partition_id"].append(int(pids[i]))
                out["constraint_id"].append(cid)
                out["row_ref"].append(refs[j] if refs[j] is not None else "")
                out["column"].append(col)
                out["observed"].append(f"{prevs[j]} -> {vals[j]}")
                out["detail"].append(
                    f"monotonic[{direction}{',strict' if strict else ''}]"
                )
                out["is_violation"].append(True)
                out["n_checked"].append(0)
                out["n_violations"].append(0)
        return P.result_rows(out)

    cols_needed = list(
        dict.fromkeys(data_cols + _pid_cols(cs) + list(cs.row_ref_cols or []))
    )
    pruned = ds.map_batches(
        lambda t, c=cols_needed: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return (
        pruned.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__gb")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def reconcile_check_results(
    ds: "ray.data.Dataset",
    other: "ray.data.Dataset",
    cs: ConstraintSet,
    dist: DistCheck,
) -> "ray.data.Dataset":
    """Cross-table reconciliation check (``kind: reconcile``): each
    validated row's ``column`` must equal ``sum(other_sum)`` over the
    ``other_table`` rows sharing its key, within ``tolerance`` — the
    accounting consistency neither refint (existence) nor FD
    (functional shape) expresses. ``other`` resolves from the same
    ``parents=`` mapping refint uses.

    Shape: the other table never ships rows — per-batch per-key partial
    sums only; the validated side ships (key, value, partition id,
    row_ref). ONE hash exchange co-locates a key's partials with its
    rows; per bucket one Arrow hash-aggregate + hash-join, then
    vectorized compare + ``np.bincount`` per-partition attribution.
    NULL key/value rows are excluded (unchecked); a key with NO other
    rows fails reconciliation (``missing_other: "ignore"`` downgrades
    it to unchecked). Capped exemplars carry row_ref and the
    ``value != sum`` pair."""
    import pandas as pd

    key = dist.params["key"]
    col = dist.params["column"]
    okey = dist.params["other_key"]
    osum = dist.params["other_sum"]
    tol = float(dist.params.get("tolerance", 0.01))
    missing_viol = dist.params.get("missing_other", "violation") == "violation"
    cid = dist.constraint_id
    num_buckets = int(dist.params.get("num_buckets", 256))
    max_rows = int(
        dist.params.get("max_violation_rows") or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )
    mix_mod = np.uint64(num_buckets)

    def _bucket(k: "pa.ChunkedArray") -> np.ndarray:
        arr = k.to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = pd.util.hash_array(arr, categorize=False)
        return (h % mix_mod).astype(np.int32)

    def other_partial(t: pa.Table) -> pa.Table:
        small = pa.table(
            {
                "key": pc.cast(t[okey], pa.string()),
                "val": pc.cast(t[osum], pa.float64()),
            }
        ).drop_null()
        agg = (
            small.group_by(["key"], use_threads=False)
            .aggregate([("val", "sum")])
            .rename_columns(["key", "val"])
        )
        n = len(agg)
        return pa.table(
            {
                "__b": pa.array(_bucket(agg["key"])),
                "key": agg["key"],
                "val": agg["val"],
                "__pid": pa.array(np.full(n, -1, dtype=np.int32)),
                "__ref": pa.nulls(n, pa.string()),
                "side": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    def parent_partial(t: pa.Table) -> pa.Table:
        pids = P.build_partition_ids(t, cs)
        ref = P.build_row_ref(t, cs)
        small = pa.table(
            {
                "key": pc.cast(t[key], pa.string()),
                "val": pc.cast(t[col], pa.float64()),
                "__pid": pa.array(np.asarray(pids, dtype=np.int32)),
                "__ref": pc.fill_null(ref, "<null>")
                if ref is not None
                else pa.nulls(len(t), pa.string()),
            }
        )
        m = pc.and_(pc.is_valid(small["key"]), pc.is_valid(small["val"]))
        small = small.filter(m)
        n = len(small)
        return pa.table(
            {
                "__b": pa.array(_bucket(small["key"])),
                "key": small["key"],
                "val": small["val"],
                "__pid": small["__pid"],
                "__ref": small["__ref"],
                "side": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        ch = g.filter(pa.array(side == 1)).select(["key", "val"])
        pt = g.filter(pa.array(side == 0)).select(
            ["key", "val", "__pid", "__ref"]
        )
        if len(pt) == 0:
            return P._empty_result()
        sums = (
            ch.group_by(["key"], use_threads=False)
            .aggregate([("val", "sum")])
            .rename_columns(["key", "child_sum"])
        )
        joined = pt.rename_columns(["key", "parent_val", "__pid", "__ref"]).join(
            sums, keys="key", join_type="left outer"
        )
        pv = joined["parent_val"].to_numpy(zero_copy_only=False)
        csc = joined["child_sum"]
        missing = pc.is_null(csc).to_numpy(zero_copy_only=False)
        cv = pc.fill_null(csc, 0.0).to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            bad_diff = ~missing & (np.abs(pv - cv) > tol)
        viol = bad_diff | (missing & missing_viol)
        checked = ~missing | missing_viol  # ignored-missing rows: unchecked
        pids = np.asarray(
            joined["__pid"].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        Pmax = int(pids.max()) + 1
        n_checked = np.bincount(pids[checked], minlength=Pmax)
        n_viol = np.bincount(pids[viol], minlength=Pmax)
        present = np.flatnonzero(n_checked > 0)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([col] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend(n_checked[present].astype(np.int64).tolist())
        out["n_violations"].extend(n_viol[present].astype(np.int64).tolist())
        idx = np.flatnonzero(viol)[:max_rows]
        if len(idx):
            take = pa.array(idx, type=pa.int64())
            refs = joined["__ref"].take(take).to_pylist()
            for j, i in enumerate(idx):
                out["partition_id"].append(int(pids[i]))
                out["constraint_id"].append(cid)
                out["row_ref"].append(refs[j] if refs[j] is not None else "")
                out["column"].append(col)
                out["observed"].append(
                    f"{pv[i]!r} != sum {'<missing>' if missing[i] else repr(float(cv[i]))}"
                )
                out["detail"].append("reconcile")
                out["is_violation"].append(True)
                out["n_checked"].append(0)
                out["n_violations"].append(0)
        return P.result_rows(out)

    pruned_cols = list(dict.fromkeys([key, col] + _pid_cols(cs) + list(cs.row_ref_cols or [])))
    pruned = ds.map_batches(
        lambda t, c=pruned_cols: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    both = other.map_batches(
        other_partial, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        pruned.map_batches(parent_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    return both.groupby("__b").map_groups(per_bucket, batch_format="pyarrow")


def freshness_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Freshness check (``kind: freshness``): every group's latest
    ``column`` timestamp must be within ``max_age_s`` seconds of
    ``as_of`` — the per-source staleness gate a pipeline runs before
    trusting an ingest. The check unit is the GROUP (``group_by``;
    whole table as one group when omitted): n_checked counts groups,
    a stale group is one violation, attributed to the partition that
    holds the group's LATEST event (the most recent writer).

    Shape: one (partition, group, max-ts) partial row per batch —
    O(partitions × groups × batches), never event rows — merged in a
    single fold task (the completeness convention). NULL timestamps /
    group keys are excluded. ``as_of`` is explicit (ISO string or epoch
    µs), never wall-clock: verdicts must be deterministic and
    re-runnable."""
    col = dist.params["column"]
    as_of = dist.params["as_of"]
    if isinstance(as_of, str):
        as_of_us = int(np.datetime64(as_of, "us").astype(np.int64))
    else:
        as_of_us = int(as_of)
    max_age_s = float(dist.params["max_age_s"])
    threshold = as_of_us - int(round(max_age_s * 1_000_000))
    gb = dist.params.get("group_by") or []
    keys = [gb] if isinstance(gb, str) else list(gb)
    cid = dist.constraint_id
    max_rows = int(
        dist.params.get("max_violation_rows") or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )

    part_schema = pa.schema(
        [("partition_id", pa.int32()), ("g", pa.string()), ("last_us", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return part_schema.empty_table()
        from .hashing import KEY_SEP

        pids = P.build_partition_ids(t, cs)
        cols = {"partition_id": pa.array(np.asarray(pids, dtype=np.int32))}
        if keys:
            parts = [pc.cast(t[k], pa.string()) for k in keys]
            cols["g"] = (
                parts[0]
                if len(parts) == 1
                else pc.binary_join_element_wise(*parts, KEY_SEP)
            )
        else:
            cols["g"] = pa.array([""] * len(t), type=pa.string())
        from .runtime import ts_to_us_int64

        cols["last_us"] = ts_to_us_int64(t[col])
        small = pa.table(cols).drop_null()
        agg = (
            small.group_by(["partition_id", "g"], use_threads=False)
            .aggregate([("last_us", "max")])
            .rename_columns(["partition_id", "g", "last_us"])
        )
        return agg.select(part_schema.names)

    def fold(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P._empty_result()
        df = t.to_pandas()
        # per group: overall latest ts + the partition holding it
        top = df.sort_values("last_us").groupby("g", sort=True).tail(1)
        last = top["last_us"].to_numpy()
        pids = top["partition_id"].to_numpy().astype(np.int64)
        stale = last < threshold
        Pmax = int(pids.max()) + 1
        n_checked = np.bincount(pids, minlength=Pmax)
        n_viol = np.bincount(pids[stale], minlength=Pmax)
        present = np.flatnonzero(n_checked > 0)
        out: dict[str, list] = {k.name: [] for k in P.RESULT_SCHEMA}
        kp = len(present)
        out["partition_id"].extend(present.tolist())
        out["constraint_id"].extend([cid] * kp)
        out["row_ref"].extend([""] * kp)
        out["column"].extend([col] * kp)
        out["observed"].extend([""] * kp)
        out["detail"].extend([""] * kp)
        out["is_violation"].extend([False] * kp)
        out["n_checked"].extend(n_checked[present].astype(np.int64).tolist())
        out["n_violations"].extend(n_viol[present].astype(np.int64).tolist())
        idx = np.flatnonzero(stale)[:max_rows]
        grefs = top["g"].tolist()
        for i in idx:
            out["partition_id"].append(int(pids[i]))
            out["constraint_id"].append(cid)
            out["row_ref"].append(grefs[i])
            out["column"].append(col)
            out["observed"].append(
                str(np.int64(last[i]).astype("datetime64[us]"))
            )
            out["detail"].append(f"freshness[max_age_s={max_age_s:g}]")
            out["is_violation"].append(True)
            out["n_checked"].append(0)
            out["n_violations"].append(0)
        return P.result_rows(out)

    cols_needed = list(dict.fromkeys([col, *keys] + _pid_cols(cs)))
    partials = ds.map_batches(
        lambda t, c=cols_needed: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.repartition(1).map_batches(
        fold, batch_format="pyarrow", batch_size=None
    )


def cardinality_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Distinct-cardinality check (``kind: cardinality``): the number
    of distinct ``column`` values — per ``group_by`` group, whole table
    as one group when omitted — must lie within
    [``min_distinct``, ``max_distinct``] (either bound optional) —
    Deequ's ``hasNumberOfDistinctValues`` as a distributed verdict
    ("every language must keep >= k distinct sources", "a categorical
    column stays within its expected arity").

    Shape: per-batch LOCALLY DISTINCT (group, value) rows carrying their
    min partition, bucketed on hash(GROUP) so one fold sees a group's
    whole value set and decides it exactly, with no second stage. The
    fold credits each distinct (group, value) to its FIRST-writer
    partition (min pid: deterministic under any execution order), totals
    each group and attributes its verdict to the DOMINANT contributor
    (max credit, ties → min pid). NULL values / group keys are
    excluded. The check unit is the GROUP: n_checked counts groups, an
    out-of-bounds group is one violation with ``row_ref`` = the group
    and ``observed`` = its distinct count; exemplars are capped at
    ``max_violation_rows`` per bucket.

    Trade: without ``group_by`` the whole table is one group, so every
    batch's locally-distinct values go to ONE fold task (bounded by the
    column's distinct count, not the row count). Hashing on (group,
    value) with a second credit fold would spread that; it measured
    ~1 s slower per validate() on the benchmark's GROUPED check (``lang``
    by ``repo``, 2k-row corpus, Ray at num_cpus=2, 4-core VM). The
    whole-table mode's single task has not been measured at a size
    where it matters.
    validate() computes the partials in its row pass; this function
    runs them over ``ds`` on their own."""
    return _standalone(ds, cs, dist)
