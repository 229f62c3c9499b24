"""Distributed constraints: the fused dataset-level kinds (uniqueness
B4, functional dependency, distinct cardinality, completeness),
referential integrity against large parents (B5 anti-join over the row
pass's child-key partials), the kinds that still read the input
themselves (``OWN_PASS_KINDS``, one ``{kind: fn(ds, cs, dist,
parents)}`` table: freshness, monotonic, reconcile, quantile bounds,
and vald.drift's drift B9 and group_drift) and salting helpers (B8).

All stages emit pipeline.RESULT_SCHEMA rows, built with pipeline's
result-row builder (``count_rows``, ``violation_rows``,
``result_table``), so they union into the one result stream that
validate() folds into verdicts.

One exchange: every keyed stage here — the fused kinds, the refint
child keys, monotonic and reconcile — goes through
``runtime.keyed_exchange``. It coalesces a stream into
``runtime.fold_tasks`` blocks of at most ``ROWS_PER_FOLD_TASK`` rows,
sized from the stream's row count (not from the input's block count, a
bucket count or the cluster's CPUs), partitions them on an int bucket
column with a Ray sort only when there is more than one, and folds
whole blocks sorted on that column, so a bucket's rows meet in one fold
call; every fold is invariant to how many buckets it sees. A
check's ``num_buckets`` is only the bucket hash's modulus, and exemplar
caps (``max_violation_rows``) stay per bucket (``_first_per_bucket``).

Fused kinds (``FUSED_KINDS``, one ``{kind: (batch partial, bucket
fold)}`` table): a kind's *batch partial* runs inside the RowValidator
pass — the input is read and decoded once — and rides the result
stream as pipeline.EXT_SCHEMA rows (``rec`` = the kind), bucketed on
the key string's ``stable_hash64``. ONE exchange on ``ubucket``
(``fused_exchange``) then folds every fused check at once: each sorted
block is split by constraint_id and handed to that kind's *bucket
fold*. The standalone ``*_check_results(ds, cs, dist)`` functions run
the same partial over ``ds`` and the same fold.

Monotonic and reconcile share their route with their ``ops.stats``
twins (``monotonic_exchange``, ``reconcile_exchange``): the same
projection, NULL drop, ``hashing.bucket_ids`` stamp, exchange and
compare; the check only carries partition id and row_ref through it
and folds to verdict partials and exemplars.

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
from ray.data.aggregate import Sum

from .hashing import KEY_SEP, stable_hash64
from .ir import ConstraintSet, DistCheck
from . import drift
from . import pipeline as P
from .runtime import (
    coalesce,
    join_barrier,
    join_partitions,
    join_remote_args,
    keyed_exchange,
)

__all__ = [
    "FUSED_KINDS",
    "OWN_PASS_KINDS",
    "fused_exchange",
    "fused_refint_anti_results",
    "fd_check_results",
    "monotonic_check_results",
    "reconcile_check_results",
    "freshness_check_results",
    "cardinality_check_results",
    "completeness_check_results",
    "quantile_bounds_check_results",
    "salted_group_counts",
]


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


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    v = sorted_values
    return np.flatnonzero(np.r_[True, v[1:] != v[:-1]])


def _max_rows(dist: DistCheck) -> int:
    return int(
        dist.params["max_violation_rows"] or P.DEFAULT_MAX_VIOLATIONS_PER_BATCH
    )


def _group_keys(dist: DistCheck) -> list[str]:
    gb = dist.params["group_by"] or []
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
    out = [P.count_rows(cid, n_checked, excess)]
    dup = np.flatnonzero(kcnt > 1)
    if len(dup):
        refs = keys["row_ref"].take(dup).to_pylist()
        out.append(
            P.violation_rows(cid, kpid[dup], refs, [str(c) for c in kcnt[dup]], "", "unique")
        )
    return out


def _fd_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
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
    filters the same way). ``num_buckets`` is only the hash modulus.
    """
    cid = dist.constraint_id
    # distinct dependents and min partition per determinant
    det = g.group_by(["row_ref", "ubucket"], use_threads=False).aggregate(
        [("observed", "count_distinct"), ("partition_id", "min")]
    )
    bad = det.filter(pc.greater_equal(det["observed_count_distinct"], 2))
    badv = _np(pc.is_in(g["row_ref"], value_set=bad["row_ref"].combine_chunks()), bool)
    pids, cnt = _np(g["partition_id"]), _np(g["ucnt"])
    n_parts = int(pids.max()) + 1
    out = [
        P.count_rows(
            cid,
            np.bincount(pids, weights=cnt, minlength=n_parts),
            np.bincount(pids[badv], weights=cnt[badv], minlength=n_parts),
        )
    ]
    if len(bad):
        # capped exemplars: one row per inconsistent determinant,
        # attributed to its min contributing partition (the unique
        # exemplar convention)
        ex = bad.take(_first_per_bucket(_np(bad["ubucket"]), _max_rows(dist)))
        out.append(
            P.violation_rows(
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
    where it matters."""
    cid, col = dist.constraint_id, dist.params["column"]
    lo, hi = dist.params["min_distinct"], dist.params["max_distinct"]
    # each distinct (group, value) credits its FIRST-writer partition
    # (min pid: deterministic under any execution order); a group's
    # verdict goes to its DOMINANT contributor: max credit, ties -> min
    # pid, i.e. the first row per group in this sort order
    credit = (
        g.group_by(["row_ref", "ubucket", "observed"], use_threads=False)
        .aggregate([("partition_id", "min")])
        .group_by(["row_ref", "ubucket", "partition_id_min"], use_threads=False)
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
    idx = np.flatnonzero(bad)
    idx = idx[_first_per_bucket(_np(credit["ubucket"])[starts[idx]], _max_rows(dist))]
    return [
        P.count_rows(
            cid,
            np.bincount(pids, minlength=n_parts),
            np.bincount(pids[bad], minlength=n_parts),
            column=col,
        ),
        P.violation_rows(
            cid,
            pids[idx],
            [str(grp[starts[i]]) for i in idx],
            [str(int(tot[i])) for i in idx],
            col,
            f"cardinality[{'' if lo is None else lo},{'' if hi is None else hi}]",
        ),
    ]


def _completeness_fold(g: pa.Table, dist: DistCheck) -> list[dict]:
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
    to the partition contributing the most nulls (ties -> min pid)."""
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
        P.count_rows(
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
        out.append(P.violation_rows(cid, worst, [""], [f"{rate:.6f}"], col, detail))
    return out


class FusedKind(NamedTuple):
    partial: Callable  # (batch, dist, cs, pids, refs) -> EXT partial rows
    fold: Callable  # (one check's rows of whole buckets, dist) -> builder parts
    columns: tuple  # the EXT columns the fold reads besides ubucket


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


def _first_per_bucket(buckets: np.ndarray, cap: int) -> np.ndarray:
    """Indexes of the first ``cap`` entries of each bucket, in order:
    exemplar caps stay per bucket when a fold sees many buckets."""
    order = np.argsort(buckets, kind="stable")
    starts = _run_starts(buckets[order])
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))
    return np.sort(order[rank < cap])


def fused_exchange(
    raw: "ray.data.Dataset", dists: list[DistCheck]
) -> "ray.data.Dataset":
    """Fold every fused check in ``dists`` in ONE exchange
    (``runtime.keyed_exchange``) over the materialized EXT stream
    ``raw``: the partial rows of those checks, projected to the columns
    their folds read, are coalesced into ``fold_tasks`` blocks and
    sorted on ``ubucket``; each sorted block is split by constraint_id
    and folded by its kind. Buckets keep each kind's own rule (key hash
    % the check's ``num_buckets``; one bucket per completeness check),
    so every key, determinant or group is decided in exactly one fold
    call, and every fold is invariant to the bucket count. Every fused
    check of validate() goes through here; each fold returns builder
    parts (``pipeline.count_rows``/``violation_rows``) and a block's
    parts become one ``pipeline.result_table``."""
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

    def per_block(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return P.result_table([])
        g = g.sort_by("constraint_id")  # stable: bucket order is kept
        cids = g["constraint_id"].to_numpy(zero_copy_only=False)
        starts = _run_starts(cids)
        out = []
        for a, b in zip(starts, [*starts[1:], len(g)]):
            d = by_cid[cids[a]]
            out += FUSED_KINDS[d.kind].fold(g.slice(a, b - a), d)
        return P.result_table(out)

    return keyed_exchange(raw, "ubucket", per_block, project)


def _standalone(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """One fused check outside validate(): its batch partial over ``ds``
    (a pass of its own, materialized so the exchange sizes from it),
    then the shared exchange. perfbench's per-layer timings call it
    through the three ``*_check_results`` below."""

    def partials(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P.ext_table([])
        pids = P.build_partition_ids(t, cs)
        return FUSED_KINDS[dist.kind].partial(t, dist, cs, pids, None)

    parts = ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    return fused_exchange(parts.materialize(), [dist])


def completeness_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """The completeness check (``_completeness_fold``) over ``ds`` in a
    pass of its own."""
    return _standalone(ds, cs, dist)


def fd_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """The fd check (``_fd_fold``) over ``ds`` in a pass of its own."""
    return _standalone(ds, cs, dist)


def cardinality_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """The cardinality check (``_cardinality_fold``) over ``ds`` in a
    pass of its own."""
    return _standalone(ds, cs, dist)


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
    parallel, a keyed exchange on ``ubucket`` sized like ``fused_exchange`` →
    per-block distinct child keys →
    hash-partitioned ``left_anti`` join against the parent's canonical
    key strings → violation rows. The join moves distinct KEYS on both
    sides, never child rows; skew on hot parents is bounded because the
    child side is already reduced to one row per distinct key.
    """
    cid = dist.constraint_id
    cols = list(dist.params["columns"])
    pcols = list(dist.params["parent_columns"])
    P_parts = join_partitions(num_partitions or cs.num_partitions)

    def project_rkey(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t["rec"], pa.scalar("rkey")),
            pc.equal(t["constraint_id"], pa.scalar(cid)),
        )
        return t.filter(m).select(
            ["row_ref", "partition_id", "uh", "ubucket", "ucnt"]
        )

    def totals(t: pa.Table) -> pa.Table:
        # verdict n_checked partials straight from the (pre-distinct)
        # partials — sums are exact, no shuffle needed
        if len(t) == 0:
            return P.result_table([])
        n_checked = np.bincount(_np(t["partition_id"]), weights=_np(t["ucnt"]))
        return P.result_table([P.count_rows(cid, n_checked, np.zeros_like(n_checked))])

    totals_ds = coalesce(raw, project_rkey).map_batches(totals, batch_format="pyarrow")

    def distinct_child_keys(g: pa.Table) -> pa.Table:
        agg = g.group_by(["uh", "row_ref"], use_threads=False).aggregate(
            [("partition_id", "min"), ("ucnt", "sum")]
        )
        agg = agg.rename_columns(["uh", "ref", "partition_id", "cnt"])
        return agg.select(["ref", "partition_id", "cnt"])

    child_keys = keyed_exchange(raw, "ubucket", distinct_child_keys, project_rkey)

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

    # join_barrier: child_keys may be a sort output — see runtime.join_barrier
    missing = join_barrier(child_keys).join(
        parent_keys,
        join_type="left_anti",
        num_partitions=P_parts,
        on=("ref",),
        aggregator_ray_remote_args=join_remote_args(),
    )

    def missing_rows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return P.result_table([])
        pids, cnt = _np(t["partition_id"]), _np(t["cnt"])
        n_bad = np.bincount(pids, weights=cnt)
        return P.result_table(
            [
                P.count_rows(cid, np.zeros_like(n_bad), n_bad),
                P.violation_rows(
                    cid,
                    pids,
                    t["ref"].to_pylist(),
                    [str(c) for c in cnt],
                    ",".join(cols),
                    "refint",
                ),
            ]
        )

    return totals_ds.union(missing.map_batches(missing_rows, batch_format="pyarrow"))


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
    max_rows = _max_rows(dist)

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
            return P.result_table([])
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
        out = [
            P.count_rows(
                cid,
                n_checked,
                n_viol,
                column=col,
                observed=f"[{lo},{hi}]",
                detail=f"q[{lo_q},{hi_q}]",
            )
        ]
        idx = np.flatnonzero(bad)[:max_rows]
        if len(idx):
            out.append(
                P.violation_rows(
                    cid,
                    pids[idx],
                    P.refs_at(P.build_row_ref(t, cs), idx),
                    [repr(float(x)) for x in v[idx]],
                    col,
                    "quantile_bounds",
                )
            )
        return P.result_table(out)

    return pruned.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


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


# the columns the monotonic and reconcile checks carry through their
# exchange: each row's partition id and row_ref
_CARRY = [pa.field("__pid", pa.int32()), pa.field("__ref", pa.string())]


def _add_carry(cs: ConstraintSet):
    """A batch with the ``_CARRY`` columns appended (a NULL row_ref
    reads "<null>"; without a row_ref key it is "")."""

    def add(t: pa.Table) -> pa.Table:
        ref = P.build_row_ref(t, cs)
        pids = np.asarray(P.build_partition_ids(t, cs), dtype=np.int32)
        return t.append_column("__pid", pa.array(pids)).append_column(
            "__ref", pa.repeat("", len(t)) if ref is None else pc.fill_null(ref, "<null>")
        )

    return add


def monotonic_check_results(
    ds: "ray.data.Dataset", cs: ConstraintSet, dist: DistCheck
) -> "ray.data.Dataset":
    """Ordering-invariant check (``kind: monotonic``): within each key,
    in (order…) ascending order, ``column`` must never step the wrong
    way vs its predecessor (non-strict ``increasing``: violation =
    value < previous; ``strict`` also flags ties; ``decreasing``
    mirrors) — "balance never decreases per account", "version only
    moves forward per repo".

    Shape: ``ops.stats.monotonic_exchange``, the route of the
    ``monotonic_violations_ds`` op — the PARTICIPATING columns only
    (key, order, value, plus partition id and row_ref carried along; a
    sequence property needs the rows, no partial aggregation exists),
    bucketed by ``hashing.bucket_ids`` of the key, through one keyed
    exchange whose fan-out comes from the row count; per sorted block
    one Arrow sort + one vectorized slice-compare
    (``ops.stats.monotonic_flags``). ``num_buckets`` is only the hash
    modulus. Per-partition attribution is exact: the partition id
    rides each row, n_checked/n_violations come from one
    ``np.bincount`` each. Capped exemplars (``max_violation_rows`` per
    bucket) carry the violating row's row_ref and observed (prev ->
    value) transition. NULL key/order/value rows are excluded from both
    counts (SQL LAG-filter semantics)."""
    from .ops.stats import monotonic_exchange

    key_cols = list(dist.params["key"])
    order_cols = list(dist.params["order"])
    col = dist.params["column"]
    strict = bool(dist.params["strict"])
    direction = dist.params["direction"]
    detail = f"monotonic[{direction}{',strict' if strict else ''}]"
    cid = dist.constraint_id
    max_rows = _max_rows(dist)

    def fold(g: pa.Table, viol: np.ndarray) -> pa.Table:
        if len(g) == 0:
            return P.result_table([])
        pids = _np(g["__pid"])
        n_parts = int(pids.max()) + 1
        out = [
            P.count_rows(
                cid,
                np.bincount(pids, minlength=n_parts),
                np.bincount(pids[viol], minlength=n_parts),
                column=col,
            )
        ]
        idx = np.flatnonzero(viol)
        idx = idx[_first_per_bucket(_np(g["__gb"])[idx], max_rows)]
        if len(idx):
            prevs, vals = (
                pc.cast(g[col].take(i), pa.string()).to_pylist() for i in (idx - 1, idx)
            )
            out.append(
                P.violation_rows(
                    cid,
                    pids[idx],
                    g["__ref"].take(idx).to_pylist(),
                    [f"{p} -> {v}" for p, v in zip(prevs, vals)],
                    col,
                    detail,
                )
            )
        return P.result_table(out)

    return monotonic_exchange(
        ds,
        key_cols,
        order_cols,
        col,
        fold,
        carry=_CARRY,
        add_carry=_add_carry(cs),
        strict=strict,
        increasing=direction == "increasing",
        num_buckets=int(dist.params["num_buckets"]),
    )


def reconcile_check_results(
    ds: "ray.data.Dataset",
    cs: ConstraintSet,
    dist: DistCheck,
    parents: dict | None,
) -> "ray.data.Dataset":
    """Cross-table reconciliation check (``kind: reconcile``): each
    validated row's ``column`` must equal ``sum(other_sum)`` over the
    ``other_table`` rows sharing its key, within ``tolerance`` — the
    accounting consistency neither refint (existence) nor FD
    (functional shape) expresses. The other table resolves from the
    same ``parents`` mapping (validate()'s ``parents=``) refint uses; a
    pa.Table is wrapped into a Dataset.

    Shape: ``ops.stats.reconcile_exchange``, the route of the
    ``reconcile_ds`` op — the other table never ships rows, only
    per-batch per-key partial sums; the validated side ships (key,
    value, plus partition id and row_ref carried along). One keyed
    exchange, bucketed by ``hashing.bucket_ids`` of the key and sized
    from the row count, co-locates a key's partials with its rows; per
    sorted block one Arrow hash-aggregate + hash-join and the op's
    compare, then ``np.bincount`` per-partition attribution.
    ``num_buckets`` is only the hash modulus. NULL key/value rows are
    excluded (unchecked); a NaN value or NaN other-sum fails, as in
    the op and DuckDB; a key with NO other rows fails reconciliation
    (``missing_other: "ignore"`` downgrades it to unchecked). Capped
    exemplars (``max_violation_rows`` per bucket) carry row_ref and
    the ``value != sum`` pair."""
    from .ops.stats import reconcile_exchange

    other = (parents or {}).get(dist.params["other_table"])
    if other is None:
        raise ValueError(
            f"reconcile check {dist.constraint_id!r} needs "
            f"parents[{dist.params['other_table']!r}]"
        )
    if isinstance(other, pa.Table):
        other = ray.data.from_arrow(other)
    elif not hasattr(other, "map_batches"):
        raise ValueError("reconcile other_table must be a Dataset or pyarrow Table")
    key = dist.params["key"]
    col = dist.params["column"]
    missing_viol = dist.params["missing_other"] == "violation"
    cid = dist.constraint_id
    max_rows = _max_rows(dist)

    def fold(j: pa.Table) -> pa.Table:
        if len(j) == 0:
            return P.result_table([])
        missing = _np(pc.is_null(j["child_sum"]), bool)
        checked = ~missing | missing_viol  # ignored-missing rows: unchecked
        viol = checked & ~_np(j["ok"], bool)
        pids = _np(j["__pid"])
        n_parts = int(pids.max()) + 1
        out = [
            P.count_rows(
                cid,
                np.bincount(pids[checked], minlength=n_parts),
                np.bincount(pids[viol], minlength=n_parts),
                column=col,
            )
        ]
        idx = np.flatnonzero(viol)
        idx = idx[_first_per_bucket(_np(j["__gb"])[idx], max_rows)]
        if len(idx):
            pv = _np(j["parent_val"], np.float64)
            cv = _np(pc.fill_null(j["child_sum"], 0.0), np.float64)
            out.append(
                P.violation_rows(
                    cid,
                    pids[idx],
                    j["__ref"].take(idx).to_pylist(),
                    [
                        f"{pv[i]!r} != sum "
                        f"{'<missing>' if missing[i] else repr(float(cv[i]))}"
                        for i in idx
                    ],
                    col,
                    "reconcile",
                )
            )
        return P.result_table(out)

    return reconcile_exchange(
        ds,
        other,
        key,
        col,
        dist.params["other_key"],
        dist.params["other_sum"],
        fold,
        carry=_CARRY,
        add_carry=_add_carry(cs),
        tolerance=float(dist.params["tolerance"]),
        num_buckets=int(dist.params["num_buckets"]),
    )


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
    keys = _group_keys(dist)
    cid = dist.constraint_id
    max_rows = _max_rows(dist)

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
            return P.result_table([])
        df = t.to_pandas()
        # per group: overall latest ts + the partition holding it
        top = df.sort_values("last_us").groupby("g", sort=True).tail(1)
        last = top["last_us"].to_numpy()
        pids = top["partition_id"].to_numpy().astype(np.int64)
        stale = last < threshold
        Pmax = int(pids.max()) + 1
        n_checked = np.bincount(pids, minlength=Pmax)
        n_viol = np.bincount(pids[stale], minlength=Pmax)
        idx = np.flatnonzero(stale)[:max_rows]
        grefs = top["g"].tolist()
        return P.result_table(
            [
                P.count_rows(cid, n_checked, n_viol, column=col),
                P.violation_rows(
                    cid,
                    pids[idx],
                    [grefs[i] for i in idx],
                    [str(np.int64(last[i]).astype("datetime64[us]")) for i in idx],
                    col,
                    f"freshness[max_age_s={max_age_s:g}]",
                ),
            ]
        )

    cols_needed = list(dict.fromkeys([col, *keys] + _pid_cols(cs)))
    partials = ds.map_batches(
        lambda t, c=cols_needed: t.select([x for x in c if x in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.repartition(1).map_batches(
        fold, batch_format="pyarrow", batch_size=None
    )


def _input_only(fn: Callable) -> Callable:
    """``fn(ds, cs, dist)`` with ``OWN_PASS_KINDS``' signature."""
    return lambda ds, cs, dist, parents: fn(ds, cs, dist)


# The kinds that still read the input in a pass of their own:
# {kind: fn(ds, cs, dist, parents) -> RESULT_SCHEMA rows}.
OWN_PASS_KINDS: dict[str, Callable] = {
    "drift": _input_only(drift.drift_check_results),
    "group_drift": _input_only(drift.group_drift_check_results),
    "freshness": _input_only(freshness_check_results),
    "monotonic": _input_only(monotonic_check_results),
    "quantile_bounds": _input_only(quantile_bounds_check_results),
    "reconcile": reconcile_check_results,
}
