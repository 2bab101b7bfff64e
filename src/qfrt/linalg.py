"""Dense complex matrices and the small operation set everything else builds on.

Matrices are numpy ``complex128`` arrays in row-major layout; state vectors
are 1-D arrays of length ``2**num_qubits``. Qubit ``j`` of a register carries
bit value ``2**j`` of the basis index, so kets print most-significant qubit
first: ``|u>`` = ``|u_{n-1} ... u_0>``.

Equality checks use the max entrywise modulus (:func:`max_norm_diff`) with a
default tolerance of 1e-10. Dense operators are capped at a total-qubit
budget (default 14, overridable through the ``QFRT_MAX_QUBITS`` environment
variable); exceeding it raises instead of silently truncating.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError, QubitBudgetError

#: Default tolerance for equality and unitarity checks.
DEFAULT_TOL = 1e-10

#: Environment variable overriding the total-qubit budget.
BUDGET_ENV_VAR = "QFRT_MAX_QUBITS"

_DEFAULT_MAX_QUBITS = 14


def max_qubits() -> int:
    """Largest register size dense operators may be built for.

    Raises :class:`QubitBudgetError` when ``QFRT_MAX_QUBITS`` is set to
    anything but an integer >= 1.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return _DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError:
        value = 0  # not an integer: rejected below with the same message
    if value < 1:
        raise QubitBudgetError(f"{BUDGET_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return value


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def max_norm_diff(a, b) -> float:
    """Max entrywise modulus of (a - b)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return max_norm_diff(m.conj().T @ m, identity(m.shape[0])) <= tol


def matrix_power(m, k: int) -> np.ndarray:
    """m**k by repeated squaring; negative k only for unitary m (via adjoint)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix_power needs a square matrix, got {m.shape}")
    k = int(k)
    if k < 0:
        if not is_unitary(m):
            raise ValueError("negative powers are defined only for unitary matrices")
        m, k = adjoint(m), -k
    result = identity(m.shape[0])
    square = m
    while k:
        if k & 1:
            result = result @ square
        k >>= 1
        if k:
            square = square @ square
    return result


def format_matrix(m) -> str:
    """Matrix text format: a ``rows cols`` header line, then one line per row
    of space-separated ``re,im`` entries with 17 significant digits."""
    m = as_matrix(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`format_matrix`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DimensionError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise DimensionError(f"bad header line: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise DimensionError(f"expected {rows} rows, got {len(lines) - 1}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, ln in enumerate(lines[1:]):
        entries = ln.split()
        if len(entries) != cols:
            raise DimensionError(f"row {i}: expected {cols} entries, got {len(entries)}")
        for j, tok in enumerate(entries):
            re, im = tok.split(",")
            out[i, j] = complex(float(re), float(im))
    return out
