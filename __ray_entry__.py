"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in vald library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: validate every
    testdata table against its bundled ConstraintSet (vald.specs) plus
    the synthetic code corpus, and return the merged verdict table."""
    import pandas as pd

    from vald import corpus as C
    from vald import pipeline as P
    from vald.sources import read_source
    from vald.specs import ALL_SPECS, SPEC_COLUMNS

    verdicts = []
    parents = {
        "customer": read_source(
            f"{SF_SMOKE}/customer.parquet", columns=["c_custkey"]
        ),
        "orders": read_source(
            f"{SF_SMOKE}/orders.parquet", columns=["o_orderkey"]
        ),
    }
    for table, spec in ALL_SPECS.items():
        ds = read_source(
            f"{SF_SMOKE}/{table}.parquet", columns=SPEC_COLUMNS[table]
        )
        res = P.validate(ds, spec, parents=parents)
        df = res.verdicts_table().to_pandas()
        df.insert(0, "table", table)
        verdicts.append(df)

    # per-group drift null-check on documents (kind: group_drift):
    # the corpus vs its own per-language baseline — no fire expected
    from vald import drift as D

    docs = read_source(
        f"{SF_SMOKE}/documents.parquet", columns=["lang", "n_chars"]
    )
    base = D.build_group_baseline(docs, "lang", ["n_chars"])
    res = P.validate(
        docs,
        {
            "table": "documents_gd",
            "columns": {},
            "checks": [
                {
                    "kind": "group_drift",
                    "group_by": "lang",
                    "columns": ["n_chars"],
                    "baseline_table": base,
                }
            ],
        },
    )
    df = res.verdicts_table().to_pandas()
    df.insert(0, "table", "documents_gd")
    verdicts.append(df)

    # cross-table reconcile fire-check (kind: reconcile): the synthetic
    # o_totalprice is NOT derived from lineitem, so every joined order
    # mismatches — exercises the kind's fire direction live (the
    # consistent-ledger null direction is tests/test_reconcile.py)
    orders = read_source(
        f"{SF_SMOKE}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    res = P.validate(
        orders,
        {
            "table": "orders_rec",
            "row_ref": ["o_orderkey"],
            "partition_by": "o_orderkey",
            "columns": {},
            "checks": [
                {
                    "kind": "reconcile",
                    "key": "o_orderkey",
                    "column": "o_totalprice",
                    "other_table": "lineitem",
                    "other_key": "l_orderkey",
                    "other_sum": "l_extendedprice",
                }
            ],
        },
        parents={
            "lineitem": read_source(
                f"{SF_SMOKE}/lineitem.parquet",
                columns=["l_orderkey", "l_extendedprice"],
            )
        },
    )
    df = res.verdicts_table().to_pandas()
    df.insert(0, "table", "orders_rec")
    verdicts.append(df)

    # distinct-cardinality fire-check (kind: cardinality, r5): at
    # sf0.001 the zh slice holds 19 distinct sources vs 20 for the
    # rest, so min_distinct=20 fires exactly one group violation
    # (the clean direction is tests/test_cardinality.py)
    docs_card = read_source(
        f"{SF_SMOKE}/documents.parquet", columns=["lang", "source"]
    )
    res = P.validate(
        docs_card,
        {
            "table": "documents_card",
            "columns": {},
            "checks": [
                {
                    "kind": "cardinality",
                    "column": "source",
                    "group_by": "lang",
                    "min_distinct": 20,
                }
            ],
        },
    )
    df = res.verdicts_table().to_pandas()
    df.insert(0, "table", "documents_card")
    verdicts.append(df)

    # north-rule corpus (generated input, violations injected)
    n = 5000
    res = P.validate(
        C.corpus_dataset(n, 42, override_num_blocks=4),
        C.CORPUS_SPEC,
        parents={"repos": C.repos_table(n, 42)},
    )
    df = res.verdicts_table().to_pandas()
    df.insert(0, "table", "corpus")
    verdicts.append(df)
    return pd.concat(verdicts, ignore_index=True)


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from vald.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for each oracle-checkable query."""
    from vald.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
