"""Problem-file and result-document serialization.

The problem file is a JSON document:

    {
      "c": [...], "b": [...],
      "A": {"m": 2, "n": 3, "rows": [...], "cols": [...], "vals": [...]},
      "cones": [{"type": "lp", "dim": 2},
                {"type": "gpow", "dim": 3, "lambda": [0.25, 0.75]}],
      "x0": [...]
    }

Matrix indices are zero-based coordinate triplets. "x0" is optional; every
other field is required, and unknown fields anywhere are rejected so typos
fail loudly instead of being ignored. Sizes and indices ("m", "n", "rows",
"cols", "dim") must be integers; an integral float such as 2.0 is read as
one, and anything else is rejected rather than truncated. Every array is a
JSON list of numbers; a string, a boolean or a bare number in its place is
rejected, not converted. Floats round-trip exactly (Python's JSON writer
emits shortest full-precision reprs).
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np

from .cones import ConeSpec, ConeSpecError
from .linalg import SparseMatrix, as_int
from .solver import SolverResult

__all__ = [
    "ProblemFileError",
    "load_problem",
    "save_problem",
    "result_document",
    "write_result",
]


class ProblemFileError(ValueError):
    """The problem file is malformed."""


_TOP_FIELDS = {"c", "b", "A", "cones", "x0"}
_REQUIRED = {"c", "b", "A", "cones"}
_A_FIELDS = {"m", "n", "rows", "cols", "vals"}
_CONE_FIELDS = {"type", "dim", "lambda"}


def _check_fields(obj, allowed, required, where) -> None:
    """Reject a non-object, fields outside ``allowed`` and absent ``required``."""
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemFileError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ProblemFileError(f"missing field(s) in {where}: {sorted(missing)}")


def _numbers(obj, label, integral=False) -> np.ndarray:
    """A JSON list of numbers as a flat array, int64 when ``integral``, else float64.

    Items must be JSON numbers: a bare number, a nested list, a bool or a
    string raises ProblemFileError with ``label`` in its message, as do a
    non-finite value and, when ``integral``, a fraction (2.0 reads as 2) or
    an integer outside the int64 range.
    """
    if not isinstance(obj, list) or list in (types := set(map(type, obj))):
        raise ProblemFileError(f"{label} must be a flat array of numbers")
    try:
        if integral and types <= {int}:  # the common case; fromiter beats asarray
            return np.fromiter(obj, np.int64, len(obj))
        if types <= {int, float}:
            arr = np.fromiter(obj, np.float64, len(obj))
            if not np.isfinite(arr).all():
                raise ProblemFileError(f"{label} contains non-finite values")
            if not integral:
                return arr
            if (arr == np.trunc(arr)).all():
                if np.abs(arr).max() >= 2.0**63:  # the cast would not be exact
                    raise OverflowError
                return arr.astype(np.int64)
    except OverflowError:
        if integral:
            raise ProblemFileError(f"{label} holds an integer outside int64") from None
    if integral:
        raise ProblemFileError(f"{label} must hold integers")
    others = ", ".join(sorted(t.__name__ for t in types - {int, float}))
    detail = f"items of type {others}" if others else "a value overflows a float"
    raise ProblemFileError(f"{label} is not a real array: {detail}")


def _parse_matrix(block, m, n) -> SparseMatrix:
    rows = _numbers(block["rows"], "field 'rows'", integral=True)
    cols = _numbers(block["cols"], "field 'cols'", integral=True)
    vals = _numbers(block["vals"], "field 'vals'")
    try:
        return SparseMatrix(m, n, rows, cols, vals)
    except ValueError as exc:
        raise ProblemFileError(f"bad matrix block: {exc}") from None


def _parse_cones(entries) -> list[ConeSpec]:
    if not isinstance(entries, list) or not entries:
        raise ProblemFileError('"cones" must be a nonempty array')
    specs = []
    for i, entry in enumerate(entries):
        _check_fields(entry, _CONE_FIELDS, {"type"}, f"cone {i}")
        lam = entry.get("lambda")
        if lam is not None:
            lam = _numbers(lam, f"cone {i}: power-cone weights field 'lambda'")
        try:
            specs.append(ConeSpec(type=entry["type"], dim=entry.get("dim"), lam=lam))
        except ConeSpecError as exc:
            raise ProblemFileError(f"cone {i}: {exc}") from None
    return specs


def load_problem(path):
    """Read a problem file; returns (c, A, b, cones, x0-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"not valid JSON: {exc}") from None
    return _parse_problem(data)


def _parse_problem(data):
    """Check a decoded problem document; returns (c, A, b, cones, x0-or-None)."""
    _check_fields(data, _TOP_FIELDS, _REQUIRED, "top level")
    _check_fields(data["A"], _A_FIELDS, _A_FIELDS, '"A"')
    m = as_int(data["A"]["m"], "field 'm'", ProblemFileError)
    n = as_int(data["A"]["n"], "field 'n'", ProblemFileError)
    c = _numbers(data["c"], "field 'c'")
    b = _numbers(data["b"], "field 'b'")
    # sizes are checked against the vectors before the matrix allocates for them
    if c.shape != (n,):
        raise ProblemFileError(f"c has {c.size} entries, A has {n} columns")
    if b.shape != (m,):
        raise ProblemFileError(f"b has {b.size} entries, A has {m} rows")
    A = _parse_matrix(data["A"], m, n)
    cones = _parse_cones(data["cones"])
    total = sum(spec.dim for spec in cones)
    if total != n:
        raise ProblemFileError(f"cone dims sum to {total}, expected n = {n}")
    x0 = None
    if data.get("x0") is not None:
        x0 = _numbers(data["x0"], "field 'x0'")
        if x0.shape != (n,):
            raise ProblemFileError(f"x0 has {x0.size} entries, expected {n}")
    return c, A, b, cones, x0


def save_problem(path, c, A, b, cones, x0=None):
    """Write a problem file that load_problem reads back to the same values.

    The document first passes load_problem's checks, so data that
    load_problem would reject raises ProblemFileError and nothing is written.
    """
    A = SparseMatrix.coerce(A)
    coo = A.csc.tocoo()
    doc = {
        "c": np.asarray(c, dtype=np.float64).tolist(),
        "b": np.asarray(b, dtype=np.float64).tolist(),
        "A": {
            "m": A.shape[0],
            "n": A.shape[1],
            "rows": coo.row.tolist(),
            "cols": coo.col.tolist(),
            "vals": coo.data.tolist(),
        },
        "cones": [_cone_entry(spec) for spec in cones],
    }
    if x0 is not None:
        doc["x0"] = np.asarray(x0, dtype=np.float64).tolist()
    _parse_problem(doc)
    _write_json(doc, path)


def _cone_entry(spec) -> dict:
    spec = ConeSpec.coerce(spec)
    entry = {"type": spec.type, "dim": spec.dim}
    if spec.lam is not None:
        entry["lambda"] = list(spec.lam)
    return entry


def result_document(result: SolverResult) -> dict:
    """Serializable view of a result; the solve time is its only varying field.

    Each field of the result, and of each iteration record in its history, is
    under its camelCase name in field order; a non-finite number is null.
    """
    return _value(result)


def _value(v):
    """v as JSON; a dataclass becomes {camelCase field name: value}, in order."""
    if is_dataclass(v):
        doc = {}
        for f in fields(v):
            head, *rest = f.name.split("_")
            doc[head + "".join(map(str.capitalize, rest))] = _value(getattr(v, f.name))
        return doc
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, dict):
        return {k: _value(w) for k, w in v.items()}
    if isinstance(v, (list, np.ndarray)):
        return [_value(w) for w in v]
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v if isinstance(v, str) else _number(v)


def _number(v):
    """v as a float, or None when it is not finite."""
    v = float(v)
    return v if math.isfinite(v) else None


def write_result(result: SolverResult, dest) -> None:
    """Write the result document as JSON to a path or open text file."""
    _write_json(result_document(result), dest)


def _write_json(doc, dest) -> None:
    """Write doc as indented JSON and a newline to a path or open text file."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            _write_json(doc, fh)
        return
    json.dump(doc, dest, indent=2, allow_nan=False)
    dest.write("\n")
