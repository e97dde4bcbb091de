"""Deterministic JSON encoding for matrices and reports.

Complex matrices travel as {"n": int, "matrix": [[[re, im], ...], ...]}
row-major.  Writers emit floats at 17 significant digits (enough to
round-trip binary64 exactly) with sorted keys and fixed separators, so
identical data always serializes to identical bytes.  The matrix reader
refuses NaN and infinite entries with `hermitian.NonFiniteError`.
"""

from __future__ import annotations

import json

import numpy as np

from .hermitian import NonFiniteError


def _fmt_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not representable in reports")
    if x in (float("inf"), float("-inf")):
        raise ValueError("infinity is not representable in reports")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{_encode(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return "[" + _fmt_float(obj.real) + "," + _fmt_float(obj.imag) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return _encode(obj) + "\n"


def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return {
        "n": A.shape[0] - 1,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def matrix_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError("matrix JSON must be an object with a 'matrix' field")
    rows = doc["matrix"]
    try:
        A = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix JSON is not square")
    if "n" in doc and int(doc["n"]) != A.shape[0] - 1:
        raise ValueError("matrix JSON 'n' does not match matrix size")
    if not np.isfinite(A).all():
        raise NonFiniteError("matrix has non-finite entries")
    return A

