"""B1 breadth: JSONL / CSV sources feeding the same validate() pipeline,
and raw per-line JSON documents through the dynamic jsonSchema path."""

import json
import os

import pyarrow as pa
import pytest

import ray.data

from vald.pipeline import validate
from vald.sources import jsonl_documents, read_source

SPEC = {
    "table": "t",
    "row_ref": ["id"],
    "columns": {
        "id": {"required": True},
        "name": {"required": True, "minLength": 2},
        "score": {"minimum": 0, "maximum": 100},
    },
}

ROWS = [
    {"id": 1, "name": "alpha", "score": 50},
    {"id": 2, "name": "x", "score": 50},  # name too short
    {"id": 3, "name": "gamma", "score": 150},  # score too high
    {"id": 4, "name": "delta", "score": 0},
]


def _expect(res):
    verd = res.verdicts_table().to_pandas().set_index("constraint_id")
    assert int(verd.loc["t.name.minLength", "n_violations"]) == 1
    assert int(verd.loc["t.score.maximum", "n_violations"]) == 1
    assert int(verd.loc["t.id.required", "n_violations"]) == 0
    viols = res.violations_table().to_pandas()
    assert set(viols["row_ref"]) == {"2", "3"}


def test_jsonl_source(ray_session, tmp_path):
    p = tmp_path / "rows.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in ROWS) + "\n")
    ds = read_source(str(p), format="jsonl")
    _expect(validate(ds, SPEC))


def test_csv_source(ray_session, tmp_path):
    p = tmp_path / "rows.csv"
    p.write_text(
        "id,name,score\n" + "\n".join(f"{r['id']},{r['name']},{r['score']}" for r in ROWS)
    )
    ds = read_source(str(p), format="csv")
    _expect(validate(ds, SPEC))


def test_jsonl_source_column_pruning(ray_session, tmp_path):
    p = tmp_path / "rows.jsonl"
    p.write_text("\n".join(json.dumps(dict(r, extra="x" * 100)) for r in ROWS))
    ds = read_source(str(p), format="jsonl", columns=["id", "name"])
    assert set(ds.schema().names) == {"id", "name"}


def test_jsonl_documents_dynamic_validation(ray_session, tmp_path):
    """Per-line raw JSON through the dynamic draft-03 path — the
    reference's validate(doc) shape; malformed lines fail validation
    instead of crashing the read."""
    lines = [
        '{"k": 10}',
        '{"k": 99}',
        '{"k": "not a number"}',
        "this is not json",
    ]
    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join(lines))
    ds = jsonl_documents(str(p))
    spec = {
        "table": "docs",
        "columns": {
            "doc": {
                "jsonSchema": {
                    "type": "object",
                    "properties": {"k": {"type": "integer", "maximum": 50}},
                }
            }
        },
    }
    res = validate(ds, spec)
    verd = res.verdicts_table().to_pandas().set_index("constraint_id")
    assert int(verd.loc["docs.doc.jsonSchema", "n_checked"]) == 4
    assert int(verd.loc["docs.doc.jsonSchema", "n_violations"]) == 3


def test_read_source_rejects_unknown_format():
    import pytest

    from vald.sources import read_source

    with pytest.raises(ValueError, match="unknown source format"):
        read_source("/tmp/x", format="xml")


def test_join_partitions_clamps_to_cluster(ray_session):
    """Ray 2.49 hash-join deadlocks when num_partitions >> CPUs
    (verified in-sandbox); the clamp keeps requests inside the budget."""
    import ray as _ray

    from vald.runtime import join_partitions

    cpus = int(_ray.cluster_resources().get("CPU"))
    assert join_partitions(1000) == cpus
    assert join_partitions(2) == 2
    assert join_partitions(None, default=4) == min(4, cpus)


# ---------------------------------------------------------------------------
# B1 predicate pushdown (VERDICT r2 item 3): build_filter grammar,
# parquet scan-level filter, jsonl post-decode parity, spec row_filter
# ---------------------------------------------------------------------------


def test_build_filter_grammar(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from vald.sources import build_filter

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "score": pa.array([10.0, 20.0, None, 40.0, 50.0]),
            "tag": pa.array(["a", "b", "a", "c", None]),
        }
    )
    pq.write_table(t, str(tmp_path / "t.parquet"))
    cases = [
        ({"col": "score", "op": ">", "value": 15.0}, {2, 4, 5}),
        ({"col": "tag", "op": "in", "value": ["a", "c"]}, {1, 3, 4}),
        ({"col": "score", "op": "is_null"}, {3}),
        (
            {
                "and": [
                    {"col": "score", "op": ">=", "value": 20.0},
                    {"col": "tag", "op": "!=", "value": "c"},
                ]
            },
            {2},
        ),
        (
            {
                "or": [
                    {"col": "id", "op": "==", "value": 1},
                    {"not": {"col": "score", "op": "<", "value": 45.0}},
                ]
            },
            {1, 5},
        ),
    ]
    for spec, expect in cases:
        ds = read_source(str(tmp_path / "t.parquet"), filter=spec)
        assert {r["id"] for r in ds.take_all()} == expect, spec
    # passthrough for a ready-made expression
    import pyarrow.dataset as pads

    assert str(build_filter(pads.field("id") > 3)) == str(pads.field("id") > 3)


def test_filter_parity_parquet_vs_jsonl(ray_session, tmp_path):
    import pyarrow.parquet as pq

    rows = [{"id": i, "score": i * 10} for i in range(10)]
    pq.write_table(
        pa.table(
            {
                "id": pa.array([r["id"] for r in rows], type=pa.int64()),
                "score": pa.array([r["score"] for r in rows], type=pa.int64()),
            }
        ),
        str(tmp_path / "r.parquet"),
    )
    (tmp_path / "r.jsonl").write_text("\n".join(json.dumps(r) for r in rows))
    spec = {"col": "score", "op": ">=", "value": 50}
    got_pq = sorted(
        r["id"] for r in read_source(str(tmp_path / "r.parquet"), filter=spec).take_all()
    )
    got_jl = sorted(
        r["id"] for r in read_source(str(tmp_path / "r.jsonl"), format="jsonl", filter=spec).take_all()
    )
    assert got_pq == got_jl == [5, 6, 7, 8, 9]


def test_spec_row_filter_scopes_validation(tmp_path):
    # subprocess: the CLI owns (and shuts down) its own Ray session
    import subprocess
    import sys

    import pyarrow.parquet as pq

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "name": pa.array(["alpha", "x", "gamma", "y"]),
            "score": pa.array([50, 50, 150, 150], type=pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "rows.parquet"))
    spec = dict(SPEC, row_filter={"col": "score", "op": "<=", "value": 100})
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    r = subprocess.run(
        [
            sys.executable, "-m", "vald", "--num-cpus", "2", "run",
            "--input", str(tmp_path / "rows.parquet"),
            "--spec", str(tmp_path / "spec.json"),
            "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    viols = pa.parquet.read_table(str(out / "violations.parquet")).to_pandas()
    # only row 2 (name "x") is in scope; rows 3/4 are filtered out at
    # the scan, so their score/minLength violations never materialize
    assert set(viols["row_ref"]) == {"2"}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_filter_and_columns_over_planned_blocks(ray_session, tmp_path, monkeypatch, fmt):
    """jsonl / csv over several files, read in fewer blocks than files
    (``read_source`` plans one block per ``target_min_block_size`` of
    file bytes): ``filter=`` and ``columns=`` keep exactly the rows and
    columns they name."""
    from ray.data import DataContext

    rows = [{"id": i, "name": f"n{i}", "score": (i * 37) % 100} for i in range(60)]
    files = []
    for f in range(6):
        part = rows[f * 10 : (f + 1) * 10]
        p = tmp_path / f"part-{f}.{fmt}"
        if fmt == "jsonl":
            p.write_text("\n".join(json.dumps(r) for r in part) + "\n")
        else:
            p.write_text(
                "id,name,score\n"
                + "\n".join(f"{r['id']},{r['name']},{r['score']}" for r in part)
            )
        files.append(str(p))
    total = sum(os.path.getsize(f) for f in files)
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", total // 3)
    ds = read_source(
        files, format=fmt, columns=["id", "score"],
        filter={"col": "score", "op": ">=", "value": 50},
    )
    got = sorted((r["id"], r["score"]) for r in ds.take_all())
    assert got == [(r["id"], r["score"]) for r in rows if r["score"] >= 50]
    assert ds.schema().names == ["id", "score"]
    assert "SplitBlocks" not in ds.stats()


# ---------------------------------------------------------------------------
# the Parquet read planned from the file footers (sources.ParquetFiles)
# ---------------------------------------------------------------------------


def _rows(ds) -> list:
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def _scores(tmp_path, n_files: int, row_groups: int, rows: int = 40) -> list[str]:
    """``n_files`` files of ``rows`` rows in ``row_groups`` row groups
    each, ``id`` ascending so that row-group statistics can prune."""
    import pyarrow.parquet as pq

    files = []
    for f in range(n_files):
        ids = list(range(f * rows, (f + 1) * rows))
        t = pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "name": [f"n{i}" for i in ids],
                "score": pa.array([(i * 37) % 100 for i in ids], type=pa.int64()),
            }
        )
        p = str(tmp_path / f"part-{f}.parquet")
        pq.write_table(t, p, row_group_size=-(-rows // row_groups))
        files.append(p)
    return files


def test_parquet_count_and_schema_read_no_data(ray_session, tmp_path):
    """``count()`` and ``schema()`` come from the footers: they still
    answer after the files are gone, planned by file (5 files) and by
    row group (one file); an empty directory counts 0 rows."""
    many = _scores(tmp_path, 5, 2)
    (tmp_path / "one").mkdir()
    one = _scores(tmp_path / "one", 1, 8)
    plans = [
        (read_source(many), 200, ["id", "name", "score"]),
        (read_source(one, columns=["score", "id"]), 40, ["score", "id"]),
    ]
    for f in many + one:
        os.remove(f)
    for ds, n, names in plans:
        assert ds.count() == n
        assert ds.schema().names == names
    (tmp_path / "empty").mkdir()
    assert read_source(str(tmp_path / "empty")).count() == 0


@pytest.mark.parametrize("n_files", [1, 6])
def test_parquet_columns_and_filter_match_read_parquet(ray_session, tmp_path, n_files):
    """``columns=`` and ``filter=`` over files of several row groups,
    read by row group (one file) and by file (six): the rows and schema
    of ``ray.data.read_parquet`` with the same arguments."""
    from vald.sources import build_filter

    files = _scores(tmp_path, n_files, 4)
    spec = {
        "and": [
            {"col": "score", "op": ">=", "value": 50},
            {"col": "id", "op": "<", "value": 150},
        ]
    }
    ds = read_source(files, columns=["score", "id"], filter=spec)
    ref = ray.data.read_parquet(files, columns=["score", "id"], filter=build_filter(spec))
    assert _rows(ds) == _rows(ref) != []
    assert ds.schema().base_schema.equals(ref.schema().base_schema)


def _hive(tmp_path) -> str:
    """``lang=py/`` and ``lang=rs/``, two files of 5 rows in each."""
    import pyarrow.parquet as pq

    for lang in ("py", "rs"):
        d = tmp_path / f"lang={lang}"
        d.mkdir()
        for part in range(2):
            ids = [part * 10 + i for i in range(5)]
            pq.write_table(pa.table({"id": ids, "n": [len(lang)] * 5}), str(d / f"p{part}.parquet"))
    return str(tmp_path)


@pytest.mark.parametrize("columns", [None, ["id", "lang"]])
def test_parquet_hive_partitions_match_read_parquet(ray_session, tmp_path, columns):
    """A hive-partitioned directory (``lang=py/``, ``lang=rs/``): the
    partition value is a string column, with and without ``columns=``,
    as ``ray.data.read_parquet`` gives it."""
    ds = read_source(_hive(tmp_path), columns=columns)
    ref = ray.data.read_parquet(str(tmp_path), columns=columns)
    assert _rows(ds) == _rows(ref)
    assert {r["lang"] for r in ds.take_all()} == {"py", "rs"}
    assert ds.schema().base_schema.equals(ref.schema().base_schema)


def test_parquet_missing_path_raises_like_read_parquet(ray_session, tmp_path):
    missing = str(tmp_path / "nope.parquet")
    with pytest.raises(Exception) as ref:
        ray.data.read_parquet(missing)
    with pytest.raises(ref.type):
        read_source(missing)
    with pytest.raises(ref.type):
        read_source([missing])


def test_parquet_files_of_different_schemas(ray_session, tmp_path):
    """As with ``ray.data.read_parquet``: ``schema()`` is the first
    file's, and each file is read with its own schema, so its rows keep
    the columns it has."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), str(tmp_path / "p0.parquet"))
    pq.write_table(pa.table({"a": [3], "c": [1.5]}), str(tmp_path / "p1.parquet"))
    ds = read_source(str(tmp_path))
    ref = ray.data.read_parquet(str(tmp_path))
    assert ds.schema().names == ["a", "b"]
    assert ds.schema().base_schema.equals(ref.schema().base_schema)
    assert _rows(ds) == _rows(ref) == [
        (("a", 1), ("b", "x")), (("a", 2), ("b", "y")), (("a", 3), ("c", 1.5))
    ]


def test_parquet_hive_partitions_with_filter(ray_session, tmp_path):
    """``filter=`` over a hive-partitioned directory: on a data column,
    the rows of ``ray.data.read_parquet`` with the same filter; on the
    partition column (which ``read_parquet`` rejects, its scan not
    knowing the column), the rows of the partitions it selects."""
    from vald.sources import build_filter

    root = _hive(tmp_path)
    on_data = {"col": "id", "op": ">=", "value": 3}
    ds = read_source(root, columns=["id", "lang"], filter=on_data)
    ref = ray.data.read_parquet(root, columns=["id", "lang"], filter=build_filter(on_data))
    assert _rows(ds) == _rows(ref) != []
    on_part = {"and": [{"col": "lang", "op": "==", "value": "rs"}, on_data]}
    everything = _rows(ray.data.read_parquet(root))
    want = [r for r in everything if dict(r)["lang"] == "rs" and dict(r)["id"] >= 3]
    assert _rows(read_source(root, filter=on_part)) == want != []
    assert _rows(read_source(root, columns=["id"], filter=on_part)) == [
        (("id", dict(r)["id"]),) for r in want
    ]


def test_parquet_filter_on_a_column_one_file_lacks(ray_session, tmp_path):
    """A filter on a column that one of the files has no column for
    fails as a ``ray.data.read_parquet`` read does, with Arrow's error
    naming the column."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), str(tmp_path / "p0.parquet"))
    pq.write_table(pa.table({"a": [3], "c": [1.5]}), str(tmp_path / "p1.parquet"))
    spec = {"col": "c", "op": ">", "value": 1.0}
    for read in (
        lambda: read_source(str(tmp_path), filter=spec).take_all(),
        lambda: ray.data.read_parquet(str(tmp_path), filter=pa.dataset.field("c") > 1.0).take_all(),
    ):
        with pytest.raises(pa.ArrowInvalid, match=r"No match for FieldRef.Name\(c\)"):
            read()


def test_parquet_batches_follow_decoded_size(tmp_path):
    """A dictionary-encoded column decodes to ~37 times its footer size.
    The read task's first scan, sized from the footer, decodes batches
    far above the target and yields them in slices of about the target;
    every later scan is sized from the bytes per row it measured. No
    table the task yields is above the target."""
    import numpy as np
    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    from vald import sources

    n, groups, target = 200_000, 8, 64 * 1024
    langs = np.array(["python", "rust", "go", "javascript"])
    p = str(tmp_path / "dict.parquet")
    pq.write_table(pa.table({"lang": langs[np.arange(n) % 4]}), p, row_group_size=n // groups)
    md = pq.read_metadata(p)
    assert "RLE_DICTIONARY" in md.row_group(0).column(0).encodings
    pieces = [
        sources._Piece(
            pafs.LocalFileSystem(),
            p,
            os.path.getsize(p),
            [g],
            {},
            md.row_group(g).num_rows,
            md.row_group(g).total_byte_size,
        )
        for g in range(groups)
    ]
    sizes = [t.nbytes for t in sources._read_pieces(pieces, None, None, target)]
    assert sum(sizes) > 30 * md.row_group(0).total_byte_size * groups
    assert max(sizes) <= 1.05 * target
    assert sorted(sizes)[len(sizes) // 2] >= 0.9 * target


def test_footers_of_remote_files_are_read_concurrently(tmp_path):
    """On a filesystem other than the local disk each footer read is a
    round trip, so ``_footers`` overlaps them; it gives the footers a
    serial read gives, in file order."""
    import threading
    import time

    import pyarrow.fs as pafs
    import pyarrow.parquet as pq
    from fsspec.implementations.local import LocalFileSystem

    from vald import sources

    lock, open_now, most = threading.Lock(), [0], [0]

    class Slow(LocalFileSystem):
        def _open(self, *args, **kwargs):
            with lock:
                open_now[0] += 1
                most[0] = max(most[0], open_now[0])
            time.sleep(0.02)
            with lock:
                open_now[0] -= 1
            return super()._open(*args, **kwargs)

    fs = pafs.PyFileSystem(pafs.FSSpecHandler(Slow()))
    files = []
    for i in range(8):
        p = str(tmp_path / f"p{i}.parquet")
        pq.write_table(pa.table({"a": list(range(i + 1))}), p)
        files.append((fs, p, os.path.getsize(p)))
    got = sources._footers(files)
    assert most[0] > 1
    assert [md.num_rows for md in got] == list(range(1, 9))
