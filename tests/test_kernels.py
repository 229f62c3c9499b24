"""Unit tests for vectorized kernels (SURVEY.md §5.2.2): nulls, empty
strings, unicode, empty lists, NaN policy."""

import numpy as np
import pyarrow as pa

from vald import kernels as K


def arr(vals, typ=None):
    return pa.chunked_array([pa.array(vals, type=typ)])


def test_required():
    col = arr(["a", None, "b"])
    assert K.k_required(col, {}).tolist() == [True, False, True]
    # NaN counts as null for required
    col = arr([1.0, float("nan"), None])
    assert K.k_required(col, {}).tolist() == [True, False, False]


def test_enum_null_passes():
    col = arr(["A", "X", None])
    assert K.k_enum(col, {"values": ["A", "N", "R"]}).tolist() == [True, False, True]


def test_pattern_re2_and_fallback():
    col = arr(["Customer#001", "nope", None])
    p = {"pattern": "^Customer#[0-9]+$"}
    assert K.k_pattern(col, p).tolist() == [True, False, True]
    # lookahead forces the Python fallback
    p2 = {"pattern": "^(?=.*[0-9])[a-z0-9]+$"}
    col2 = arr(["abc1", "abc", None])
    assert K.k_pattern(col2, p2).tolist() == [True, False, True]


def test_bounds_and_nan():
    col = arr([0.05, -0.1, 0.2, None, float("nan")])
    ok_min = K.k_minimum(col, {"value": 0.0})
    ok_max = K.k_maximum(col, {"value": 0.1})
    assert ok_min.tolist() == [True, False, True, True, False]  # NaN fails
    assert ok_max.tolist() == [True, True, False, True, False]
    assert K.k_minimum(arr([3]), {"value": 3, "exclusive": True}).tolist() == [False]


def test_lengths_unicode():
    col = arr(["héllo", "", None, "ab"])
    assert K.k_min_length(col, {"value": 2}).tolist() == [True, False, True, True]
    assert K.k_max_length(col, {"value": 4}).tolist() == [False, True, True, True]


def test_list_bounds_and_unique_items():
    col = arr([[1, 2], [], None, [1, 1]], typ=pa.list_(pa.int64()))
    assert K.k_min_items(col, {"value": 1}).tolist() == [True, False, True, True]
    assert K.k_max_items(col, {"value": 1}).tolist() == [False, True, True, False]
    assert K.k_unique_items(col, {}).tolist() == [True, True, True, False]


def test_divisible_by():
    col = arr([9, 10, None])
    assert K.k_divisible_by(col, {"value": 3}).tolist() == [True, False, True]
    colf = arr([0.75, 0.8], typ=pa.float64())
    assert K.k_divisible_by(colf, {"value": 0.25}).tolist() == [True, False]


def test_type_kernel():
    assert K.k_type(arr(["x"]), {"types": "string"}).tolist() == [True]
    assert K.k_type(arr([1]), {"types": "integer"}).tolist() == [True]
    assert K.k_type(arr([1.0, 1.5, None]), {"types": "integer"}).tolist() == [
        True,
        False,
        True,
    ]
    assert K.k_type(arr([1]), {"types": ["string", "number"]}).tolist() == [True]
    assert K.k_type(arr([[1]], typ=pa.list_(pa.int64())), {"types": "array"}).tolist() == [True]


def test_format_kernel():
    col = arr(["a@b.co", "nope", None])
    assert K.k_format(col, {"format": "email"}).tolist() == [True, False, True]
    assert K.k_format(col, {"format": "no-such-format"}).tolist() == [True, True, True]


def test_json_schema_kernel():
    col = arr(['{"k": 5}', '{"k": -2}', "not json", None])
    schema = {"type": "object", "properties": {"k": {"type": "integer", "minimum": 0}}}
    assert K.k_json_schema(col, {"schema": schema}).tolist() == [True, False, False, True]


def test_eval_compare_cross_field():
    t = pa.table({"text": ["abc", "defg", None], "n": [3, 3, 5]})
    ok = K.eval_compare(t, {"fn": "length", "column": "text"}, {"column": "n"}, "==")
    assert ok.tolist() == [True, False, True]  # null operand passes


def test_stable_hash64_of_strings_equals_the_pylist_path():
    """``stable_hash64`` converts string and binary columns with
    ``to_numpy``; the hashes equal those of the ``to_pylist`` objects
    it used before, NULL and NUL-containing values included, so
    partition ids and violation rows do not move."""
    import pandas as pd

    from vald.hashing import partition_ids, stable_hash64

    vals = ["a", "", None, "a\x00b", "a\x00c", "héllo", "x\x1fy", "a"]

    def old(values):
        objs = np.asarray(values.to_pylist(), dtype=object)
        return pd.util.hash_array(objs, categorize=False)

    for typ in (pa.string(), pa.large_string(), pa.binary(), pa.large_binary()):
        a = pa.array(
            [v.encode() if v is not None and "binary" in str(typ) else v for v in vals],
            type=typ,
        )
        for col in (a, a.slice(2, 4), pa.chunked_array([a.slice(0, 3), a.slice(3)])):
            got = stable_hash64(col)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, old(col))
            np.testing.assert_array_equal(
                partition_ids(col, 7), (old(col) % np.uint64(7)).astype(np.int32)
            )
    # other types keep to_pylist: an int column with a NULL stays ints
    ints = pa.array([1, None, 3], pa.int64())
    np.testing.assert_array_equal(stable_hash64(ints), old(ints))
