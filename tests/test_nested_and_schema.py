"""A10 nested paths + element constraints, A11 schema congruence,
§5.2.6c permutation invariance."""

import numpy as np
import pyarrow as pa

import ray.data

from vald import corpus as C
from vald import pipeline as P
from vald.ir import compile_table_spec


def test_struct_dotted_path(ray_session):
    t = pa.table(
        {
            "id": [1, 2, 3],
            "meta": pa.array(
                [
                    {"author": {"name": "ann", "age": 30}},
                    {"author": {"name": "x", "age": -1}},
                    {"author": {"name": None, "age": 12}},
                ]
            ),
        }
    )
    spec = {
        "table": "docs",
        "row_ref": ["id"],
        "columns": {
            "meta.author.name": {"required": True, "minLength": 2},
            "meta.author.age": {"minimum": 0},
        },
    }
    res = P.validate(ray.data.from_arrow(t), spec)
    v = res.violations_table().to_pandas()
    got = set(zip(v.constraint_id, v.row_ref))
    assert ("docs.meta.author.name.minLength", "2") in got
    assert ("docs.meta.author.age.minimum", "2") in got
    assert ("docs.meta.author.name.required", "3") in got
    assert len(v[v.row_ref == "1"]) == 0


def test_element_constraints(ray_session):
    t = pa.table(
        {
            "id": [1, 2, 3, 4],
            "tags": pa.array(
                [["ok", "fine"], ["ok", "x"], [], None],
                type=pa.list_(pa.string()),
            ),
            "note": pa.array([None] * 4, type=pa.string()),
        }
    )
    spec = {
        "table": "docs",
        "row_ref": ["id"],
        "columns": {
            "tags": {"elements": {"minLength": 2, "pattern": "^[a-z]+$"}},
            "note": {"pattern": "^[a-z]+$"},
        },
    }
    res = P.validate(ray.data.from_arrow(t), spec)
    v = res.violations_table().to_pandas()
    assert set(v.row_ref) == {"2"}  # only the row with a bad element
    verd = res.verdicts_table().to_pandas()
    row = verd[verd.constraint_id == "docs.tags.elements"]
    assert row.n_checked.sum() == 3  # null list not checked
    assert row.n_violations.sum() == 1
    # an all-NULL column checks nothing but still gets its verdict row
    row = verd[verd.constraint_id == "docs.note.pattern"]
    assert (len(row), row.n_checked.sum(), row.n_violations.sum()) == (1, 0, 0)


def test_schema_congruence(ray_session):
    t = pa.table({"a": [1], "b": ["x"], "extra": [1.5]})
    spec = {
        "table": "t",
        "columns": {},
        "declared_schema": {"a": "integer", "b": "integer", "missing": "string"},
        "closed_world": True,
    }
    res = P.validate(ray.data.from_arrow(t), spec)
    v = res.violations_table().to_pandas()
    details = dict(zip(v.row_ref, v.detail))
    assert details["b"] == "schema.type_mismatch"
    assert details["missing"] == "schema.missing_column"
    assert details["extra"] == "schema.undeclared_column"
    assert "a" not in details
    # number accepts integer
    spec2 = {"table": "t", "columns": {}, "declared_schema": {"a": "number"}}
    assert P.validate(ray.data.from_arrow(t), spec2).passed()
    # an empty declaration checks nothing but still yields one verdict row
    spec3 = {"table": "t", "columns": {}, "declared_schema": {}}
    verd = P.validate(ray.data.from_arrow(t), spec3).verdicts_table().to_pandas()
    assert verd[["constraint_id", "n_checked", "n_violations"]].values.tolist() == [
        ["t.__schema__.congruence", 0, 0]
    ]


def test_permutation_invariance(ray_session):
    """§5.2.6c: shuffled input ⇒ identical sorted violations + verdict sums."""
    n = 3000
    base = C.gen_batch(np.arange(n, dtype=np.uint64), n, 42)
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    shuffled = base.take(pa.array(perm, type=pa.int64()))
    outs = []
    for t in (base, shuffled):
        ds = ray.data.from_arrow(t).repartition(5)
        res = P.validate(ds, C.CORPUS_SPEC, parents={"repos": C.repos_table(n, 42)})
        vt = res.violations_table()
        verd = (
            res.verdicts_table()
            .to_pandas()
            .groupby("constraint_id")[["n_checked", "n_violations"]]
            .sum()
        )
        outs.append(
            (
                list(zip(vt["constraint_id"].to_pylist(), vt["row_ref"].to_pylist())),
                verd.to_dict(),
            )
        )
    assert outs[0] == outs[1]
