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
