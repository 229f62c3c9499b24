"""Benchmark inputs, made from the seed and cached in the checkout.

Two kinds of input:

- corpora, written by ``vald.corpus.write_corpus`` (corpus Parquet files,
  ``repos.parquet``, ``truth.parquet``) in a Ray session of their own that
  ends before the timed session starts;
- catalog tables, a seeded TPC-H-shaped star schema plus ``events`` and
  ``documents``, written with numpy + pyarrow only. Column names, types and
  value domains follow the repo's reference test tables, so the catalog
  queries and their DuckDB oracle SQL run on them unchanged.

References are computed here, with DuckDB, before any timing starts.
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from session import run_child

CATALOG_TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "orders",
    "lineitem",
    "events",
    "documents",
]

# Extra dataset-level checks of the corpus_multicheck spec, with the DuckDB
# query that recomputes each one's verdict totals (n_checked, n_violations)
# over the corpus files. Follows the kinds' documented semantics: a NULL
# determinant, dependent, group or value leaves the row unchecked.
EXTRA_CHECKS = [
    {
        "kind": "completeness",
        "column": "path",
        "max_null_rate": 0.01,
        "constraint_id": "corpus.path.completeness",
    },
    {
        "kind": "cardinality",
        "column": "lang",
        "group_by": "repo",
        "min_distinct": 1,
        "constraint_id": "corpus.lang.cardinality",
    },
    {
        "kind": "fd",
        "columns": ["repo", "path"],
        "dependent": "lang",
        "constraint_id": "corpus.repo_path.lang.fd",
    },
]
EXTRA_REFERENCE_SQL = {
    "corpus.path.completeness": """
        SELECT count(*) AS n_checked,
               CASE WHEN (count(*) - count(path)) > 0.01 * count(*)
                    THEN count(*) - count(path) ELSE 0 END AS n_violations
        FROM corpus""",
    "corpus.lang.cardinality": """
        SELECT count(*) AS n_checked,
               count(*) FILTER (WHERE n_distinct < 1) AS n_violations
        FROM (SELECT repo, count(DISTINCT lang) AS n_distinct FROM corpus
              WHERE repo IS NOT NULL AND lang IS NOT NULL GROUP BY repo)""",
    "corpus.repo_path.lang.fd": """
        WITH r AS (SELECT repo, path, lang FROM corpus
                   WHERE repo IS NOT NULL AND path IS NOT NULL AND lang IS NOT NULL),
             g AS (SELECT repo, path FROM r GROUP BY repo, path
                   HAVING count(DISTINCT lang) >= 2)
        SELECT (SELECT count(*) FROM r) AS n_checked,
               (SELECT count(*) FROM r JOIN g USING (repo, path)) AS n_violations""",
}


@dataclass
class Corpus:
    dir: str
    n_rows: int
    files: list[str]
    truth: set[tuple[str, str]]  # (constraint_id, row_ref)
    extra_totals: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def repos_path(self) -> str:
        return os.path.join(self.dir, "repos.parquet")


def _corpus_files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "corpus", "*.parquet")))


def _corpus_ok(d: str, n_rows: int, seed: int) -> bool:
    """The written corpus holds n_rows rows and its truth.parquet equals
    the generator's injected ground truth for (n_rows, seed)."""
    from vald import corpus as C

    files = _corpus_files(d)
    truth_path = os.path.join(d, "truth.parquet")
    if not files or not os.path.exists(truth_path):
        return False
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if rows != n_rows:
        return False
    written = pq.read_table(truth_path)
    expected = C.truth_table(n_rows, seed)
    return _pairs(written) == _pairs(expected)


def _pairs(t: pa.Table) -> set[tuple[str, str]]:
    return set(zip(t["constraint_id"].to_pylist(), t["row_ref"].to_pylist()))


def write_corpus_in_own_session(out_dir: str, n_rows: int, seed: int, temp_root: str) -> None:
    """``vald.corpus.write_corpus`` in a child process with a Ray session of
    its own, so the timed session that follows starts fresh."""
    args = [sys.executable, os.path.abspath(__file__), out_dir, str(n_rows), str(seed), temp_root]
    rc = run_child(args, timeout_s=120, stdout=subprocess.DEVNULL)
    if rc != 0:
        raise RuntimeError(f"corpus generation exited with {rc}")


def prepare_corpus(cache: str, n_rows: int, seed: int) -> Corpus:
    """Corpus for (n_rows, seed), generated on a cache miss."""
    d = os.path.join(cache, f"corpus-n{n_rows}-s{seed}")
    if not _corpus_ok(d, n_rows, seed):
        shutil.rmtree(d, ignore_errors=True)
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        write_corpus_in_own_session(tmp, n_rows, seed, os.path.join(cache, "ray"))
        os.replace(tmp, d)
        if not _corpus_ok(d, n_rows, seed):
            raise RuntimeError(f"generated corpus at {d} fails its row/truth check")
    truth = _pairs(pq.read_table(os.path.join(d, "truth.parquet")))
    return Corpus(d, n_rows, _corpus_files(d), truth)


def add_extra_references(corpus: Corpus) -> None:
    """DuckDB verdict totals of EXTRA_CHECKS over the corpus files."""
    import duckdb

    con = duckdb.connect()
    try:
        files = ", ".join(f"'{f}'" for f in corpus.files)
        con.execute(f"CREATE VIEW corpus AS SELECT * FROM read_parquet([{files}])")
        for cid, sql in EXTRA_REFERENCE_SQL.items():
            n_checked, n_viol = con.execute(sql).fetchone()
            corpus.extra_totals[cid] = (int(n_checked), int(n_viol))
    finally:
        con.close()


# --- catalog tables ---------------------------------------------------------

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_DOC_LANGS = ["en", "de", "es", "fr", "zh"]
_DOC_LANG_P = [0.44, 0.14, 0.14, 0.13, 0.15]
_DOC_WORDS = np.array(
    "a agg batch big column data fast filter group hash key line merge "
    "order part query row scan slow small sort spark stream table value "
    "vector window".split()
)


def _days(rng, n: int, start: str, n_days: int) -> pa.Array:
    base = np.datetime64(start, "us")
    d = rng.integers(0, n_days, n).astype("timedelta64[D]").astype("timedelta64[us]")
    return pa.array(base + d, type=pa.timestamp("us"))


def _money(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def catalog_tables(sf: float, seed: int) -> dict[str, pa.Table]:
    """Seeded catalog tables at TPC-H row counts for scale factor ``sf``."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, 7])
    n_cust, n_supp, n_part = int(150_000 * sf), int(10_000 * sf), int(200_000 * sf)
    n_ord, n_line = int(1_500_000 * sf), int(6_000_000 * sf)
    n_events, n_users, n_docs = int(1_000_000 * sf), int(15_000 * sf), int(50_000 * sf)

    def names(prefix: str, n: int) -> pa.Array:
        return pa.array([f"{prefix}#{i:09d}" for i in range(n)])

    t = {}
    t["region"] = pa.table(
        {"r_regionkey": pa.array(range(5), pa.int32()), "r_name": _REGIONS}
    )
    t["nation"] = pa.table(
        {
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
        }
    )
    t["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": names("Customer", n_cust),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
            "c_acctbal": _money(rng, n_cust, -999.99, 9999.99),
            "c_mktsegment": pa.array(np.array(_SEGMENTS)[rng.integers(0, 5, n_cust)]),
        }
    )
    t["supplier"] = pa.table(
        {
            "s_suppkey": pa.array(np.arange(n_supp, dtype=np.int64)),
            "s_name": names("Supplier", n_supp),
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp).astype(np.int32)),
            "s_acctbal": _money(rng, n_supp, -999.99, 9999.99),
        }
    )
    t["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord).astype(np.int64)),
            "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)]),
            "o_totalprice": _money(rng, n_ord, 1000.0, 500000.0),
            "o_orderdate": _days(rng, n_ord, "1995-01-01", 2405),
            "o_orderpriority": pa.array(np.array(_PRIORITIES)[rng.integers(0, 5, n_ord)]),
        }
    )
    t["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_line).astype(np.int64)),
            "l_partkey": pa.array(rng.integers(0, n_part, n_line).astype(np.int64)),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_line).astype(np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 8, n_line).astype(np.int32)),
            "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
            "l_extendedprice": _money(rng, n_line, 900.0, 105000.0),
            "l_discount": rng.integers(0, 11, n_line) / 100.0,
            "l_tax": rng.integers(0, 9, n_line) / 100.0,
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_line)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_line)]),
            "l_shipdate": _days(rng, n_line, "1995-01-02", 2499),
        }
    )
    span_us = 30 * 86_400_000_000
    ts = np.sort(rng.integers(0, span_us, n_events))
    t["events"] = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(np.datetime64("2024-01-01", "us") + ts.astype("timedelta64[us]")),
            "user_id": pa.array(rng.integers(0, n_users, n_events).astype(np.int64)),
            "event_type": pa.array(np.array(_EVENT_TYPES)[rng.integers(0, 5, n_events)]),
            "value": _money(rng, n_events, 0.01, 490.0),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]),
        }
    )
    lens = rng.integers(8, 90, n_docs)
    texts = [" ".join(_DOC_WORDS[rng.integers(0, len(_DOC_WORDS), k)]) for k in lens]
    t["documents"] = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array(np.array(_DOC_LANGS)[rng.choice(5, n_docs, p=_DOC_LANG_P)]),
            "source": pa.array([f"src{i}" for i in rng.integers(0, 20, n_docs)]),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    return t


@dataclass
class Catalog:
    dir: str
    table_rows: dict[str, int]
    oracle: dict[str, tuple[int, str, str]]  # name -> (rows, schema sig, value hash)


def prepare_catalog(cache: str, sf: float, seed: int, names: list[str], canon) -> Catalog:
    """Catalog tables for (sf, seed) plus each query's oracle result,
    as (row count, schema signature, value hash) from ``canon``."""
    import duckdb

    from vald.queries.registry import ORACLE_SQL

    d = os.path.join(cache, f"catalog-sf{sf}-s{seed}")
    if not all(os.path.exists(os.path.join(d, f"{n}.parquet")) for n in CATALOG_TABLES):
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for name, table in catalog_tables(sf, seed).items():
            pq.write_table(table, os.path.join(tmp, f"{name}.parquet"))
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
    rows = {
        n: pq.ParquetFile(os.path.join(d, f"{n}.parquet")).metadata.num_rows
        for n in CATALOG_TABLES
    }
    con = duckdb.connect()
    try:
        for n in CATALOG_TABLES:
            path = os.path.join(d, f"{n}.parquet")
            con.execute(f"CREATE VIEW {n} AS SELECT * FROM read_parquet('{path}')")
        oracle = {}
        for q in names:
            ref = con.execute(ORACLE_SQL[q]).fetchdf()
            oracle[q] = (len(ref), *canon(ref))
    finally:
        con.close()
    return Catalog(d, rows, oracle)


def tables_read(sql: str) -> list[str]:
    """Catalog tables an oracle query reads (word match on the SQL)."""
    words = set(re.findall(r"[a-z_]+", sql.lower()))
    return [t for t in CATALOG_TABLES if t in words]


if __name__ == "__main__":  # the corpus generation child, see write_corpus_in_own_session
    from session import exit_on_sigterm, ray_session
    from vald import corpus as _corpus

    exit_on_sigterm()
    _dir, _n, _seed, _temp = sys.argv[1:5]
    with ray_session(_temp):
        _corpus.write_corpus(_dir, int(_n), int(_seed))
