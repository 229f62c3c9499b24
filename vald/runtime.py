"""Small runtime-environment helpers shared across stages."""

from __future__ import annotations

import ray

__all__ = [
    "collect_arrow",
    "join_partitions",
    "join_remote_args",
    "join_barrier",
    "bucketed_group_agg",
    "broadcast_or_semijoin",
    "guarded_broadcast",
    "ts_to_us_int64",
    "compact_strings",
    "nonempty_blocks",
    "augment_by_key",
    "DEFAULT_MAX_BROADCAST_KEYS",
]

# Key sets larger than this never ride a driver-side ``ray.put``
# broadcast: membership routes through a hash-partitioned semi/anti
# join instead (the B5 planner rule, shared by validate() and every
# catalog query). 2M int64 keys ~= 16 MB broadcast object — cheap to
# ship once per node, safely below worker-heap concerns.
DEFAULT_MAX_BROADCAST_KEYS = 2_000_000


def collect_arrow(ds) -> "pa.Table":
    """Execute a pipeline whose OUTPUT is small (partials, maxima,
    capped survivors) and concat the Arrow batches directly — never
    ``take_all()``, which materializes one Python dict per row and
    dominates wall time past ~10^5 rows. The smallness contract is the
    caller's: outputs here are bounded by design (per-block partial
    rows, per-bucket maxima, collect_cap'd values), not by data size."""
    import pyarrow as pa

    tables = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None) if len(t)]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def nonempty_blocks(mds, empty_like=None):
    """Strip a MATERIALIZED dataset's 0-row blocks before a
    ``Dataset.join``.

    Ray 2.49's sort-based groupby (``bucketed_group_agg``'s combine)
    emits SCHEMA-LESS 0-row blocks for empty group partitions; feeding
    them to the hash-shuffle join makes an aggregator finalize against
    a no-column table and acero dies with ``No match ... for key field
    reference`` (the per-block sibling of ``barrier_nonempty``'s
    all-empty case; observed in-sandbox joining a bucketed vocabulary).
    This is pure object-store REF surgery — block refs are re-listed,
    never pulled to the driver or copied — so it is free at any scale.
    If every block is empty, returns a one-block dataset built from
    ``empty_like`` (a schema-ful empty table) so downstream joins see a
    schema; callers that can short-circuit the empty case should
    (the join result is known) rather than pass ``empty_like``."""
    refs = [
        ref
        for b in mds.iter_internal_ref_bundles()
        for ref, md in b.blocks
        if md.num_rows
    ]
    if not refs:
        import pyarrow as pa

        if empty_like is None:
            raise ValueError(
                "nonempty_blocks: every block is empty and no empty_like "
                "schema table was provided"
            )
        return ray.data.from_arrow(empty_like)
    return ray.data.from_arrow_refs(refs)


def compact_strings(arr):
    """Deep-copy a string array/chunked-array into freshly built Arrow
    buffers. REQUIRED before ``pc.utf8_split_whitespace`` /
    ``pc.split_pattern`` on Ray-Data zero-copy batches: pyarrow 16.1's
    split kernels read past the logical end of the data buffer into its
    64-byte padding, which Arrow-pool allocations zero but plasma-backed
    object-store blocks may not. Observed in-sandbox: splitting a
    whitespace-only ``'   '`` row NONDETERMINISTICALLY returned a
    phantom ``' '`` token in ~20% of runs when the batch came through
    the object store, and never on driver-built arrays with identical
    logical buffers. An identity ``take`` re-materializes the column
    through Arrow builders (zero-padded by construction) — one
    vectorized data copy, negligible next to the split itself."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.take(arr, pa.array(np.arange(len(arr), dtype=np.int64)))


def ts_to_us_int64(arr):
    """Epoch-µs int64 view of a timestamp/date/int column, unit-safe.

    ``pc.cast(ts_col, int64)`` returns the RAW stored integers — ns for
    the pandas/Arrow-default ``timestamp[ns]`` — so comparing them to a
    µs threshold silently passes 1000×-stale data (ADVICE r4, high).
    Normalize the unit FIRST: any timestamp/date casts to
    ``timestamp[us]`` (tz preserved; the stored value is already a UTC
    epoch offset), then to int64. Plain integer columns are taken as
    epoch µs verbatim, per the freshness-params contract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = arr.type
    if pa.types.is_timestamp(t):
        arr = pc.cast(arr, pa.timestamp("us", tz=t.tz))
    elif pa.types.is_date(t):
        arr = pc.cast(arr, pa.timestamp("us"))
    return pc.cast(arr, pa.int64())


def join_barrier(ds):
    """Materialize barrier between an upstream all-to-all (groupby /
    sort) and a downstream ``Dataset.join``.

    Ray 2.49's streaming executor LIVELOCKS when an AllToAllOperator
    feeds a JoinOperator on a small CPU budget (measured in-sandbox at
    num_cpus=2: groupby→join ran >400 s without progress — machine
    ~96% idle — while the same join against the MATERIALIZED groupby
    output finished in 4 s; fractional aggregator CPUs did not help,
    so it is the operator-pipelining interaction, not CPU
    reservation). The barrier costs one object-store pass over the
    join input — typically the PRE-AGGREGATED side (one row per
    distinct key), far smaller than the raw input — and Ray spills it
    if needed, so this stays safe at cluster scale, where the extra
    pass is also the only cost (the livelock itself mainly bites
    small/busy clusters)."""
    return ds.materialize()


def barrier_nonempty(ds) -> "tuple | None":
    """``join_barrier`` + empty-input guard for ``Dataset.join``.

    Ray 2.49 propagates 0-row blocks as SCHEMA-LESS RefBundles; when
    every block of a join input is empty the join aggregator hands
    acero an empty table with NO columns and the join dies with
    ``No match ... for key field reference`` instead of returning the
    correct empty result (measured in-sandbox: a dimension filter that
    matches no rows at sf0.001). Returns ``(materialized_ds, count)``
    so callers can short-circuit to their empty result when count==0 —
    the barrier is the same one ``join_barrier`` already requires, so
    this costs nothing extra on pre-aggregated join inputs."""
    m = ds.materialize()
    return m, m.count()


def join_remote_args() -> dict:
    """``aggregator_ray_remote_args`` for ``Dataset.join``.

    Ray 2.49's hash-shuffle join reserves ONE WHOLE CPU per aggregator
    actor for the lifetime of the pipeline. When the join's upstream
    contains its own all-to-all (e.g. a groupby feeding the join),
    aggregators for the join grab the CPUs at launch and the upstream
    barrier can never schedule → LIVELOCK on small clusters (measured
    in-sandbox: q_shipping_priority at num_cpus=2 ran >10 min without
    completing vs ~7 s at 32; a join with pre-materialized inputs at
    the same width finishes in seconds, isolating the reservation —
    not the join itself — as the cause). Fractional reservation keeps
    every aggregator schedulable while leaving most of each CPU for
    the producing tasks; aggregators are IO/accumulate-bound between
    barrier flushes, so under-reserving costs little at any scale."""
    return {"num_cpus": 0.25}


def join_partitions(requested: int | None, default: int = 8) -> int:
    """Clamp a hash-join partition count to the cluster's CPU budget.

    Ray 2.49's hash-shuffle ``Dataset.join`` spins up ~``num_partitions``
    concurrent aggregators; asking for far more partitions than CPUs
    DEADLOCKS on a small cluster (verified in-sandbox: num_partitions=32
    on a 4-CPU local cluster hangs forever, 4 completes). On a real
    multi-node cluster the CPU budget is the whole cluster's, so this
    still scales out; callers wanting more partitions than CPUs must opt
    in explicitly at the call site.
    """
    want = requested or default
    try:
        cpus = int(ray.cluster_resources().get("CPU", default))
    except Exception:  # not initialised yet — let the call site's value stand
        return want
    return max(2, min(want, cpus))


def _as_key_array(keys, keys_on: str):
    """Normalize a driver-side key container to a deduped, null-free
    ChunkedArray, or return None when ``keys`` is a Dataset."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = None
    if isinstance(keys, pa.Table):
        arr = keys[keys_on]
    elif isinstance(keys, pa.ChunkedArray):
        arr = keys
    elif isinstance(keys, pa.Array):
        arr = pa.chunked_array([keys])
    elif isinstance(keys, (list, tuple, set, frozenset)):
        arr = pa.chunked_array([pa.array(list(keys))])
    else:
        try:
            import numpy as np

            if isinstance(keys, np.ndarray):
                arr = pa.chunked_array([pa.array(keys)])
        except Exception:  # pragma: no cover - numpy always present here
            pass
    if arr is None:
        return None
    # NULL keys never match in the join path; drop them up front so the
    # broadcast pc.is_in path agrees (is_in with a NULL in value_set
    # would otherwise report NULL children as members).
    return pc.unique(pc.drop_null(arr.combine_chunks()))


def _local_distinct_keys(keys_ds, keys_on: str):
    """One column, per-block local distinct, materialized.

    The materialize is load-bearing twice over: it is the count we
    guard the broadcast decision on, and it is the all-to-all barrier
    the downstream ``Dataset.join`` needs (see ``join_barrier``)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def pre(t: "pa.Table") -> "pa.Table":
        t = t.select([keys_on])
        t = t.filter(pc.is_valid(t[keys_on]))
        return t.group_by([keys_on], use_threads=False).aggregate([])

    return keys_ds.map_batches(
        pre, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()


def broadcast_or_semijoin(
    ds,
    on: str,
    keys,
    keys_on: "str | None" = None,
    *,
    anti: bool = False,
    max_broadcast_keys: "int | None" = None,
    num_partitions: "int | None" = None,
):
    """Membership filter of ``ds`` against a key set, B5-planner shaped.

    Keeps rows of ``ds`` whose ``on`` value appears in ``keys``
    (``anti=True`` inverts: keep rows whose key is absent). ``keys``
    may be a Dataset (scalable path), or a driver-side Arrow
    array/table/list for already-bounded sets.

    Planner rule (the guard every call site inherits):

    - key count <= ``max_broadcast_keys`` (default 2M): distinct keys
      — computed DISTRIBUTED-first for Dataset inputs, per-block local
      ``group_by`` so the driver only ever pulls the deduped partials —
      broadcast once via ``ray.put``; the filter is one vectorized
      ``pc.is_in`` per batch, zero shuffles.
    - above the threshold: the keys NEVER land on the driver; ``ds``
      hash-partition semi/anti-joins against the distinct-key Dataset
      (``left_semi`` / ``left_anti``), which scales to fact-sized key
      sets at the cost of one exchange of ``ds``.

    NULL handling matches SQL semi-join semantics on both paths: a
    NULL child key is never a member (dropped by semi, kept by anti);
    NULL keys in the key set are ignored.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    threshold = int(
        DEFAULT_MAX_BROADCAST_KEYS if max_broadcast_keys is None else max_broadcast_keys
    )
    keys_on = keys_on or on

    arr = _as_key_array(keys, keys_on)
    if arr is not None and len(arr) <= threshold:
        return _broadcast_membership(ds, on, arr, anti)
    if arr is not None:
        m = ray.data.from_arrow(pa.table({keys_on: arr}))
        n = len(arr)
    else:
        m = _local_distinct_keys(keys, keys_on)
        n = m.count()
        if n <= threshold:
            parts = [p for p in ray.get(m.to_arrow_refs()) if len(p)]
            if not parts:
                arr = pa.chunked_array([pa.array([], type=pa.null())])
            else:
                t = pa.concat_tables(parts)
                arr = (
                    t.group_by([keys_on], use_threads=False)
                    .aggregate([])[keys_on]
                    .combine_chunks()
                )
            return _broadcast_membership(ds, on, arr, anti)

    if n == 0:
        # Ray 2.49 joins die on all-empty inputs (see barrier_nonempty);
        # the correct result is known anyway.
        return ds if anti else ds.limit(0)
    return ds.join(
        m,
        join_type="left_anti" if anti else "left_semi",
        num_partitions=join_partitions(num_partitions),
        on=(on,),
        right_on=(keys_on,) if keys_on != on else None,
        aggregator_ray_remote_args=join_remote_args(),
    )


def _broadcast_membership(ds, on: str, arr, anti: bool):
    import pyarrow.compute as pc

    if len(arr) == 0:
        return ds if anti else ds.limit(0)
    keys_ref = ray.put(arr)

    def member(t):
        m = pc.fill_null(pc.is_in(t[on], value_set=ray.get(keys_ref)), False)
        return t.filter(pc.invert(m) if anti else m)

    return ds.map_batches(member, batch_format="pyarrow", zero_copy_batch=True)


def guarded_broadcast(
    keys,
    keys_on: "str | None" = None,
    *,
    max_broadcast_keys: "int | None" = None,
    what: str = "key set",
) -> "ray.ObjectRef":
    """``ray.put`` of a key array with the B5 size guard.

    For call sites that fuse membership with other per-batch work (LUT
    gathers, multi-clause predicates) and therefore can't use
    ``broadcast_or_semijoin`` directly: normalizes Dataset / Arrow /
    list inputs to a deduped null-free array (Dataset inputs dedup
    distributed-first, per-block local distinct) and REFUSES — loudly,
    not with a driver OOM at 100x — to broadcast past the threshold.
    Callers hitting the ValueError must restructure onto the join path.
    """
    import pyarrow as pa

    threshold = int(
        DEFAULT_MAX_BROADCAST_KEYS if max_broadcast_keys is None else max_broadcast_keys
    )
    arr = _as_key_array(keys, keys_on or "key")
    if arr is None:  # Dataset
        if keys_on is None:
            raise ValueError("guarded_broadcast needs keys_on for Dataset inputs")
        m = _local_distinct_keys(keys, keys_on)
        n = m.count()
        if n > threshold:
            raise ValueError(
                f"{what}: {n} keys exceeds max_broadcast_keys={threshold}; "
                "route through broadcast_or_semijoin instead of broadcasting"
            )
        parts = [p for p in ray.get(m.to_arrow_refs()) if len(p)]
        if not parts:
            arr = pa.chunked_array([pa.array([], type=pa.null())])
        else:
            t = pa.concat_tables(parts)
            arr = (
                t.group_by([keys_on], use_threads=False)
                .aggregate([])[keys_on]
                .combine_chunks()
            )
    elif len(arr) > threshold:
        raise ValueError(
            f"{what}: {len(arr)} keys exceeds max_broadcast_keys={threshold}; "
            "route through broadcast_or_semijoin instead of broadcasting"
        )
    return ray.put(arr)


def augment_by_key(
    fact,
    on: str,
    dim,
    key_col: str,
    *,
    how: str = "inner",
    fill: "dict | None" = None,
    max_broadcast_keys: "int | None" = None,
    num_partitions: "int | None" = None,
    dense_lut_cap: int = 1 << 27,
):
    """Append a small DIMENSION's value columns to a FACT dataset by
    key — the size-guarded form of the dense-LUT dimension broadcast
    (VERDICT r4 item 3: the same B5 planner rule key SETS already get,
    extended to key→value maps).

    ``dim`` is a Dataset with one row per key (``[key_col, *values]``,
    already pruned/filtered — its empty blocks must carry a schema,
    i.e. come from a scan/map, not a bare groupby). Planner rule:

    - dim row count — a DISTRIBUTED ``count()``; the dimension never
      lands on the driver before the decision — at or under
      ``max_broadcast_keys``: the (key, values) table is pulled once
      (bounded by the threshold), broadcast via ``ray.put``, and
      gathered per fact batch: an O(1) dense numpy position LUT when
      the keys are non-negative ints dense enough
      (span <= max(4·n, 1M), capped at ``dense_lut_cap`` entries),
      else one vectorized ``pc.index_in`` probe. Zero fact movement.
    - above the threshold: hash-partitioned ``Dataset.join``
      (inner / left_outer); the dimension stays in the object store
      and the cost is one exchange of the fact — B5's semi-join trade.

    ``how="inner"`` drops non-matching fact rows; ``how="left"`` keeps
    them with NULL values, then applies ``fill`` (col → scalar) on
    both routes. NULL fact keys never match (SQL join semantics).
    Dim value-column names must not collide with fact columns; when
    ``key_col != on`` the key column is renamed to ``on`` and not
    duplicated in the output."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if how not in ("inner", "left"):
        raise ValueError(f"augment_by_key: how must be inner|left, got {how!r}")
    threshold = int(
        DEFAULT_MAX_BROADCAST_KEYS if max_broadcast_keys is None else max_broadcast_keys
    )
    fill = dict(fill or {})
    m = dim.materialize()
    n = m.count()
    if n == 0:
        # empty dimension: the result is known without a schema for
        # inner; left needs the value types to append typed columns
        if how == "inner":
            return fact.limit(0)
        schema = m.schema()
        if schema is None:
            # Ray drops the Dataset-level schema on all-empty outputs,
            # but map/scan-produced 0-row BLOCKS still carry one —
            # recover it from any columned block (they're empty: free)
            import pyarrow as _pa

            schema = next(
                (
                    b.schema
                    for b in ray.get(m.to_arrow_refs())
                    if b.num_columns
                ),
                None,
            )
        if schema is None:
            raise ValueError(
                "augment_by_key: empty dimension lost its schema (its empty "
                "blocks are schema-less, e.g. from a bare groupby) — "
                "short-circuit the empty case at the call site"
            )
        base = getattr(schema, "base_schema", schema)
        val_names = [c for c in base.names if c != key_col]

        def add_defaults(t: "pa.Table") -> "pa.Table":
            for name in val_names:
                typ = base.field(name).type
                fv = fill.get(name)
                col = (
                    pa.nulls(len(t), typ)
                    if fv is None
                    else pa.array([fv] * len(t), type=typ)
                )
                t = t.append_column(name, col)
            return t

        return fact.map_batches(
            add_defaults, batch_format="pyarrow", zero_copy_batch=True
        )

    schema = m.schema()  # nonempty materialized dataset: always known
    base = getattr(schema, "base_schema", schema)  # ray Schema wraps arrow's
    val_names = [c for c in base.names if c != key_col]

    if n <= threshold:
        vt = collect_arrow(m)
        # a NULL dimension key never matches (as on the join route)
        vt = vt.filter(pc.is_valid(vt[key_col]))
        keys_arr = vt[key_col].combine_chunks()
        vals_tbl = vt.select(val_names)
        pos_lut = None
        if pa.types.is_integer(keys_arr.type):
            kn = keys_arr.to_numpy(zero_copy_only=False).astype(np.int64)
            if kn.size and kn.min() >= 0:
                span = int(kn.max()) + 1
                if span <= min(max(4 * kn.size, 1 << 20), dense_lut_cap):
                    pos_lut = np.full(span, -1, dtype=np.int64)
                    pos_lut[kn] = np.arange(kn.size, dtype=np.int64)
        keys_ref = ray.put(keys_arr)
        vals_ref = ray.put(vals_tbl)
        lut_ref = ray.put(pos_lut) if pos_lut is not None else None

        def gather(t: "pa.Table") -> "pa.Table":
            vals = ray.get(vals_ref)
            if len(t) == 0:
                for name in val_names:
                    t = t.append_column(
                        name, pa.nulls(0, vals.schema.field(name).type)
                    )
                return t
            if lut_ref is not None:
                lut = ray.get(lut_ref)
                k = pc.fill_null(pc.cast(t[on], pa.int64()), -1).to_numpy(
                    zero_copy_only=False
                )
                inb = (k >= 0) & (k < len(lut))
                idx = np.full(len(k), -1, dtype=np.int64)
                idx[inb] = lut[k[inb]]
            else:
                idx = (
                    pc.fill_null(
                        pc.index_in(t[on], value_set=ray.get(keys_ref)), -1
                    )
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
            if how == "inner":
                keep = idx >= 0
                if not keep.all():
                    t = t.filter(pa.array(keep))
                    idx = idx[keep]
                taken = vals.take(pa.array(idx, type=pa.int64()))
            else:
                taken = vals.take(
                    pa.array(np.where(idx >= 0, idx, 0), type=pa.int64(), mask=idx < 0)
                )
            for name in val_names:
                col = taken[name]
                fv = fill.get(name)
                if how == "left" and fv is not None:
                    col = pc.fill_null(col, fv)
                t = t.append_column(name, col)
            return t

        return fact.map_batches(gather, batch_format="pyarrow", zero_copy_batch=True)

    # join route: the dimension never lands on the driver
    dimj = nonempty_blocks(m)
    if key_col != on:
        dimj = dimj.map_batches(
            lambda t: t.rename_columns(
                [on if c == key_col else c for c in t.column_names]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
    joined = fact.join(
        dimj,
        join_type="inner" if how == "inner" else "left_outer",
        num_partitions=join_partitions(num_partitions),
        on=(on,),
        aggregator_ray_remote_args=join_remote_args(),
    )
    if how == "left" and fill:

        def post(t: "pa.Table") -> "pa.Table":
            for name, fv in fill.items():
                i = t.schema.get_field_index(name)
                t = t.set_column(i, name, pc.fill_null(t[name], fv))
            return t

        joined = joined.map_batches(post, batch_format="pyarrow")
    return joined


def bucketed_group_agg(
    ds,
    keys: "str | list[str]",
    aggs: "list[tuple[str, str]]",
    num_buckets: int = 256,
):
    """EXACT grouped aggregation over a high-cardinality key, shaped as
    hash-bucket shuffle + vectorized ``pa.Table.group_by`` combine.

    Ray 2.49's ``groupby(key).aggregate(...)`` range-partitions on the
    RAW key (sample + sort) and merges per named aggregate in Python —
    measured ~10x slower than this shape at high key cardinality
    (2.4M distinct string keys, 8 cpus: 77 s vs 8 s; see
    ``jaccard_pairs_ds`` stage 1). Here the exchange is the same bytes
    but keyed by a small int32 hash bucket, and each bucket's combine
    is one Arrow hash-aggregate kernel.

    The caller supplies COMBINABLE partials: every (col, fn) in
    ``aggs`` is re-applied per bucket, so feed pre-aggregated batches
    whose fn is its own combiner (sum of sums, min of mins, max of
    maxes; count partials must arrive as a column combined with
    "sum"). Output columns keep their input names. Grouping is exact —
    a key lives in exactly one bucket; hash quality only balances
    buckets, never correctness. NULL keys hash like values (pandas
    siphash) and group together as in Arrow group_by.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    key_list = [keys] if isinstance(keys, str) else list(keys)
    out_names = key_list + [c for c, _ in aggs]
    mix = np.uint64(0x9E3779B97F4A7C15)

    def stamp(t: "pa.Table") -> "pa.Table":
        h = np.zeros(len(t), dtype=np.uint64)
        for kc in key_list:
            arr = t[kc].to_numpy(zero_copy_only=False)
            with np.errstate(over="ignore"):
                h = h * mix + pd.util.hash_array(arr, categorize=False)
        return t.append_column(
            "__gb", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def combine(g: "pa.Table") -> "pa.Table":
        r = g.group_by(key_list, use_threads=False).aggregate(aggs)
        return r.rename_columns(out_names)

    return (
        ds.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__gb")
        .map_groups(combine, batch_format="pyarrow")
    )
