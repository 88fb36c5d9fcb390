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
one, and anything else is rejected rather than truncated. Floats round-trip
exactly (Python's JSON writer emits shortest full-precision reprs).
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


def _real_array(obj, name) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"field {name!r} is not a real array: {exc}") from None
    if arr.ndim != 1:
        raise ProblemFileError(f"field {name!r} must be a flat array")
    if not np.isfinite(arr).all():
        raise ProblemFileError(f"field {name!r} contains non-finite values")
    return arr


def _index_array(obj, name) -> np.ndarray:
    """Integers (integral floats allowed) as int64; bools are not integers."""
    items = obj if isinstance(obj, list) else [obj]
    types = set(map(type, items))
    if types <= {int}:  # the common case; fromiter converts faster than asarray
        return np.fromiter(items, dtype=np.int64, count=len(items))
    if types <= {int, float}:
        arr = np.asarray(items, dtype=np.float64)
        if np.isfinite(arr).all() and (arr == np.trunc(arr)).all():
            return arr.astype(np.int64)
    raise ProblemFileError(f"field {name!r} must hold integers")


def _parse_matrix(block, m, n) -> SparseMatrix:
    try:
        return SparseMatrix(
            m,
            n,
            _index_array(block["rows"], "rows"),
            _index_array(block["cols"], "cols"),
            np.asarray(block["vals"], dtype=np.float64),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"bad matrix block: {exc}") from None


def _parse_cones(entries) -> list[ConeSpec]:
    if not isinstance(entries, list) or not entries:
        raise ProblemFileError('"cones" must be a nonempty array')
    specs = []
    for i, entry in enumerate(entries):
        _check_fields(entry, _CONE_FIELDS, {"type"}, f"cone {i}")
        try:
            specs.append(
                ConeSpec(
                    type=entry["type"],
                    dim=entry.get("dim"),
                    lam=entry.get("lambda"),
                )
            )
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
    c = _real_array(data["c"], "c")
    b = _real_array(data["b"], "b")
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
        x0 = _real_array(data["x0"], "x0")
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
        "c": list(np.asarray(c, dtype=np.float64)),
        "b": list(np.asarray(b, dtype=np.float64)),
        "A": {
            "m": A.shape[0],
            "n": A.shape[1],
            "rows": [int(i) for i in coo.row],
            "cols": [int(j) for j in coo.col],
            "vals": list(coo.data),
        },
        "cones": [_cone_entry(spec) for spec in cones],
    }
    if x0 is not None:
        doc["x0"] = list(np.asarray(x0, dtype=np.float64))
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
