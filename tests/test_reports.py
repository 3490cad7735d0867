"""Canonical serialization: byte stability, 17-digit reals, schema shape."""

import json
import math

import numpy as np
import pytest

from sure_boundary.boundary import QuasiClass
from sure_boundary.reports import canonical_csv, canonical_json, format_real


def test_keys_sorted_and_stable():
    obj = {"zeta": 1, "alpha": 2.5, "mid": [1, 2, {"b": 1, "a": 2}]}
    text = canonical_json(obj)
    assert text == canonical_json(obj)
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert text.endswith("\n") and "\r" not in text


def test_reals_round_trip_at_17_digits():
    values = [0.1, 1.0 / 3.0, 0.375, 2.218563689383883e-10, -1.15, 1e308]
    for v in values:
        assert float(format_real(v)) == v


def test_integers_stay_integers():
    assert canonical_json({"n": 6}) == '{"n":6}\n'


def test_infinity_serialized_as_string():
    assert canonical_json({"lim": math.inf}) == '{"lim":"inf"}\n'
    assert canonical_json({"lim": -math.inf}) == '{"lim":"-inf"}\n'


def test_nan_rejected():
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})


def test_negative_zero_normalized():
    assert format_real(-0.0) == "0"


def test_json_parses_back():
    obj = {"a": [1.5, None, True], "b": "text with \"quotes\""}
    parsed = json.loads(canonical_json(obj))
    assert parsed == obj


def test_dataclass_conversion():
    verdict = QuasiClass.admissible(0.95, 2.0)
    data = json.loads(canonical_json(verdict))
    assert data == {
        "variant": "QuasiAdmissible",
        "b_witness": 0.95,
        "w_star": 2.0,
        "reason": None,
    }


def test_numpy_scalars_and_arrays():
    obj = {
        "f": np.float64(0.1),
        "i": np.int64(-7),
        "b": np.bool_(True),
        "nb": np.bool_(False),
        "a": np.array([[1.5, -0.0], [2.0, np.inf]]),
    }
    assert canonical_json(obj) == (
        '{"a":[[1.5,0],[2,"inf"]],"b":true,"f":0.10000000000000001,"i":-7,"nb":false}\n'
    )
    assert canonical_json(np.arange(3)) == "[0,1,2]\n"


def test_tuple_of_dataclasses():
    obj = {"verdicts": (QuasiClass.admissible(0.95, 2.0), QuasiClass.indeterminate("r"))}
    assert canonical_json(obj) == (
        '{"verdicts":['
        '{"b_witness":0.94999999999999996,"reason":null,'
        '"variant":"QuasiAdmissible","w_star":2},'
        '{"b_witness":null,"reason":"r","variant":"Indeterminate","w_star":null}]}\n'
    )


def test_int_keys_sort_as_text_and_nested_negative_zero_normalized():
    obj = {10: {"x": -0.0}, 2: [-0.0, (1, -0.0)]}
    assert canonical_json(obj) == '{"10":{"x":0},"2":[0,[1,0]]}\n'


@pytest.mark.parametrize("value", [object(), {1, 2}], ids=["object", "set"])
def test_unsupported_object_rejected(value):
    with pytest.raises(TypeError, match="not canonically serializable"):
        canonical_json({"x": value})


def test_csv_layout():
    text = canonical_csv(("a", "b"), [(1.5, "x"), (2.0, 'has,"comma')])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1.5,x"
    assert lines[2] == '2,"has,""comma"'
    assert text.endswith("\n")


def test_csv_scalars():
    row = (True, False, 3, -math.inf, -0.0, None, "two\nlines")
    text = canonical_csv(tuple("abcdefg"), [row])
    assert text == 'a,b,c,d,e,f,g\ntrue,false,3,-inf,0,None,"two\nlines"\n'


def test_csv_row_length_checked():
    with pytest.raises(ValueError):
        canonical_csv(("a", "b"), [(1,)])
