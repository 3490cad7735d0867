"""Canonical serialization: byte stability, 17-digit reals, schema shape."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sure_boundary import reports
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


# finite doubles, with the values whose 17-digit text is easiest to get wrong
REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e17, -1e16, -1e17, 1.7976931348623157e308]),
)
ROWS = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.one_of(st.lists(REALS, min_size=k, max_size=k),
                                 st.tuples(*[REALS] * k)))
)
RUNS = st.one_of(st.lists(REALS), st.lists(REALS).map(tuple), ROWS)


def per_value_json(obj) -> str:
    """canonical_json(obj) with every list written one value at a time."""
    with mock.patch.object(reports, "_real_run", return_value=None):
        return canonical_json(obj)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(RUNS)
def test_float_run_has_the_per_value_bytes(run):
    assert reports._real_run(run) is not None
    assert canonical_json({"run": run}) == per_value_json({"run": run})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(REALS, min_size=1), st.data())
def test_numpy_float_items_have_the_per_value_bytes(values, data):
    mixed = [np.float64(x) if data.draw(st.booleans()) else x for x in values]
    assert canonical_json(mixed) == per_value_json(mixed)
    assert canonical_json([mixed, mixed]) == per_value_json([mixed, mixed])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(REALS, min_size=1), st.data())
def test_nan_in_a_run_still_raises(values, data):
    at = data.draw(st.integers(0, len(values) - 1))
    flat = values[:at] + [math.nan] + values[at + 1:]
    for obj in (flat, list(zip(values, flat))):
        with pytest.raises(ValueError, match="NaN"):
            canonical_json(obj)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(REALS, min_size=1), st.sampled_from([math.inf, -math.inf, True, False, 3, 0]),
       st.data())
def test_run_with_a_non_real_falls_back(values, odd, data):
    at = data.draw(st.integers(0, len(values) - 1))
    flat = values[:at] + [odd] + values[at + 1:]
    for obj in (flat, list(zip(values, flat))):
        assert reports._real_run(obj) is None
        assert canonical_json(obj) == per_value_json(obj)
