"""Constraint inference (vald/infer.py): rule unit tests, partition
invariance, and the metamorphic self-consistency guarantee — a dataset
validated against its OWN inferred spec is always clean."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vald import pipeline as P
from vald.infer import infer_report, infer_table_spec
from vald.ir import compile_table_spec

SF = "/root/testdata/sf0.001"


def _mixed_table() -> pa.Table:
    return pa.table(
        {
            "ik": pa.array([3, 1, 7, 5], type=pa.int64()),
            "fv": pa.array([1.5, float("nan"), 2.5, None], type=pa.float64()),
            "st": pa.array(["aa", "b", None, "ccc"], type=pa.string()),
            "en": pa.array(["x", "y", "x", "y"], type=pa.string()),
        }
    )


class TestInferRules:
    def test_report_and_spec_rules(self, ray_session):
        import ray.data

        ds = ray.data.from_arrow(_mixed_table()).repartition(2)
        spec = infer_table_spec(ds, "t", max_enum=16)
        cols = spec["columns"]
        # integer: closed observed bounds, required (no nulls)
        assert cols["ik"] == {
            "type": "integer",
            "required": True,
            "minimum": 1.0,
            "maximum": 7.0,
        }
        # float with NaN + null: NOT required (kernel NaN policy),
        # bounds exclude the NaN
        assert "required" not in cols["fv"]
        assert cols["fv"]["minimum"] == 1.5 and cols["fv"]["maximum"] == 2.5
        # string with a null: not required; code-point length bounds;
        # 3 distinct values <= cap -> enum
        assert "required" not in cols["st"]
        assert cols["st"]["minLength"] == 1 and cols["st"]["maxLength"] == 3
        assert cols["st"]["enum"] == ["aa", "b", "ccc"]
        # clean low-cardinality string: required + enum
        assert cols["en"]["required"] is True
        assert cols["en"]["enum"] == ["x", "y"]

    def test_enum_cap_tombstone(self, ray_session):
        import ray.data

        t = pa.table({"s": pa.array([f"v{i:04d}" for i in range(200)])})
        ds = ray.data.from_arrow(t).repartition(3)
        rep = infer_report(ds, ["s"], max_enum=16)
        # overflowed: NULL enum (tombstone), never a truncated sample
        assert rep["enum_vals"][0].as_py() is None
        spec = infer_table_spec(ds, "t", max_enum=16)
        assert "enum" not in spec["columns"]["s"]

    def test_partition_invariance(self, ray_session):
        import ray.data

        t = _mixed_table()
        s1 = infer_table_spec(ray.data.from_arrow(t).repartition(1), "t")
        s4 = infer_table_spec(ray.data.from_arrow(t).repartition(4), "t")
        assert s1 == s4


class TestSelfConsistency:
    """validate(ds, infer(ds)) == clean, on real testdata tables."""

    @pytest.mark.parametrize("table", ["orders", "documents"])
    def test_inferred_spec_is_clean(self, ray_session, table):
        import ray.data

        ds = ray.data.read_parquet(f"{SF}/{table}.parquet")
        spec_dict = infer_table_spec(ds, table)
        res = P.validate(
            ray.data.read_parquet(f"{SF}/{table}.parquet"),
            compile_table_spec(spec_dict),
        )
        v = res.verdicts_table()
        assert int(pc.sum(v["n_violations"]).as_py() or 0) == 0
        assert len(v) > 0

    def test_inferred_spec_fires_on_drifted_data(self, ray_session):
        """The inferred contract is not vacuous: out-of-profile rows
        violate it."""
        import ray.data

        base = pa.table(
            {
                "qty": pa.array([1.0, 2.0, 3.0], type=pa.float64()),
                "status": pa.array(["A", "B", "A"], type=pa.string()),
            }
        )
        spec = compile_table_spec(
            infer_table_spec(ray.data.from_arrow(base), "t")
        )
        drifted = pa.table(
            {
                "qty": pa.array([2.0, 99.0], type=pa.float64()),  # > max
                "status": pa.array(["A", "Z"], type=pa.string()),  # not in enum
            }
        )
        res = P.validate(ray.data.from_arrow(drifted), spec)
        v = res.verdicts_table()
        bad = {
            r["constraint_id"]
            for r in v.to_pylist()
            if r["n_violations"] > 0
        }
        assert any("qty.maximum" in c for c in bad)
        assert any("status.enum" in c for c in bad)


class TestDiffSpecs:
    def test_diff_rules(self):
        from vald.infer import diff_specs

        old = {
            "table": "t",
            "columns": {
                "gone": {"type": "string"},
                "a": {"type": "integer", "required": True, "minimum": 0.0, "maximum": 10.0},
                "s": {"type": "string", "enum": ["x", "y"], "minLength": 1, "maxLength": 3},
            },
        }
        new = {
            "table": "t",
            "columns": {
                "fresh": {"type": "number"},
                "a": {"type": "integer", "minimum": -5.0, "maximum": 10.0},
                "s": {"type": "string", "enum": ["x", "z"], "minLength": 1, "maxLength": 8},
            },
        }
        d = diff_specs(old, new).to_pydict()
        changes = set(zip(d["column"], d["change"]))
        assert ("gone", "removed_column") in changes
        assert ("fresh", "added_column") in changes
        assert ("a", "required_dropped") in changes
        assert ("a", "bounds_widened") in changes
        assert ("s", "bounds_widened") in changes
        assert ("s", "enum_values_added") in changes
        assert ("s", "enum_values_removed") in changes

    def test_identical_specs_empty(self):
        from vald.infer import diff_specs

        s = {"table": "t", "columns": {"a": {"type": "integer", "required": True}}}
        assert len(diff_specs(s, s)) == 0

    def test_narrowed_and_enum_dropped(self):
        from vald.infer import diff_specs

        old = {"columns": {"a": {"type": "number", "minimum": 0.0, "maximum": 100.0},
                           "s": {"type": "string", "enum": ["x"]}}}
        new = {"columns": {"a": {"type": "number", "minimum": 5.0, "maximum": 50.0},
                           "s": {"type": "string"}}}
        d = diff_specs(old, new).to_pydict()
        changes = set(zip(d["column"], d["change"]))
        assert ("a", "bounds_narrowed") in changes
        assert ("s", "enum_dropped") in changes

    def test_infer_then_diff_e2e(self, ray_session):
        """Inferred contract drift between the full documents table and
        its short-docs slice: the length envelope must narrow."""
        import ray.data

        from vald.infer import diff_specs, infer_table_spec

        full = ray.data.read_parquet(f"{SF}/documents.parquet")
        short = full.filter(expr="n_chars < 500")
        d = diff_specs(
            infer_table_spec(full, "documents"),
            infer_table_spec(short, "documents"),
        ).to_pydict()
        by_col = dict(zip(d["column"], d["change"]))
        assert by_col.get("n_chars") == "bounds_narrowed"


class TestInferredCompleteness:
    def test_nullable_column_gets_completeness_check(self, ray_session):
        import ray.data

        t = pa.table(
            {
                "v": pa.array([1.0, None, 3.0, float("nan"), 5.0] * 20),
                "ok": pa.array(list(range(100)), type=pa.int64()),
            }
        )
        spec = infer_table_spec(ray.data.from_arrow(t).repartition(3), "t")
        checks = spec.get("checks", [])
        assert checks == [
            {"kind": "completeness", "column": "v", "max_null_rate": 0.4}
        ]
        assert spec["columns"]["ok"]["required"] is True
        # self-consistency: the data sits AT the threshold -> clean
        res = P.validate(
            ray.data.from_arrow(t), compile_table_spec(spec)
        )
        vt = res.verdicts_table()
        assert int(pc.sum(vt["n_violations"]).as_py() or 0) == 0
        # regression fires: higher null rate on "future" data
        worse = pa.table(
            {
                "v": pa.array([None, None, 3.0, None, 5.0] * 20),
                "ok": pa.array(list(range(100)), type=pa.int64()),
            }
        )
        res2 = P.validate(
            ray.data.from_arrow(worse), compile_table_spec(spec)
        )
        vt2 = res2.verdicts_table()
        comp = vt2.filter(pc.equal(vt2["constraint_id"], "t.v.completeness"))
        assert int(pc.sum(comp["n_violations"]).as_py()) == 60
