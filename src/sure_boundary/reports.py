"""Bit-stable report serialization (canonical JSON and CSV).

Identical inputs must yield byte-identical files: keys are sorted, reals are
printed with 17 significant digits (round-trip exact for doubles), lines end
with LF, and the file ends with a single LF.  Infinities serialize as the
strings "inf"/"-inf" (JSON has no literal for them); NaN is rejected because
no report field is allowed to be NaN.

A list or tuple of finite Python floats, or of equal-length tuples or lists
of them (a certificate's 801 ``[w, Delta]`` pairs), is written with one
``%`` format built for it; every other value takes the per-value walk.  Both
print a real as ``_REAL % (x + 0.0)``, so the bytes are the same either way.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping, Sequence

__all__ = [
    "format_real",
    "canonical_json",
    "canonical_csv",
    "write_text",
]


# 17 significant digits, applied to x + 0.0, which turns -0.0 into 0
_REAL = "%.17g"


def format_real(x: float) -> str:
    """Decimal form with 17 significant digits; normalizes -0.0 to 0."""
    if math.isnan(x):
        raise ValueError("NaN is not serializable in reports")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return _REAL % (x + 0.0)


def _token(x: bool | int | float) -> str:
    """A bool, int or float as JSON and CSV both print it."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format_real(x) if isinstance(x, float) else str(x)


def _real_run(obj: list | tuple) -> str | None:
    """The JSON text of obj in one format call when its items are all finite
    Python floats, or all equal-length tuples or lists of them; else None."""
    if obj and set(map(type, obj)) <= {tuple, list}:
        widths = set(map(len, obj))
        if len(widths) != 1:
            return None
        row = "[" + ",".join([_REAL] * widths.pop()) + "]"
        values = [x for item in obj for x in item]
    else:
        row, values = _REAL, obj
    if not (set(map(type, values)) <= {float} and all(map(math.isfinite, values))):
        return None
    return ("[" + ",".join([row] * len(obj)) + "]") % tuple([x + 0.0 for x in values])


def _emit(obj: Any, out: list[str]) -> None:
    """Append the canonical JSON text of obj to out, in one walk of the tree.

    Dataclasses become their fields, numpy arrays and scalars their
    ``tolist()``, and mapping keys ``str(k)``, sorted.
    """
    if isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, int, float)):
        text = _token(obj)
        out.append(f'"{text}"' if text.endswith("inf") else text)
    elif isinstance(obj, (list, tuple)):
        run = _real_run(obj)
        if run is not None:
            out.append(run)
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, Mapping):
        items = {str(k): v for k, v in obj.items()}
        out.append("{")
        for i, key in enumerate(sorted(items)):
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(items[key], out)
        out.append("}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    elif hasattr(obj, "tolist"):  # ndarray / numpy scalars
        _emit(obj.tolist(), out)
    else:
        raise TypeError(f"not canonically serializable: {type(obj)!r}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, (bool, int, float)):
        return _token(value)
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def canonical_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("CSV row length does not match header")
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    """Write with LF endings regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
