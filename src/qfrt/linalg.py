"""Dense matrices and the small operation set everything else builds on.

Matrices are numpy arrays in row-major layout: ``float64`` for real input
(the Hartley and cosine-sine kernels, and payloads built from them) and
``complex128`` otherwise, so that products of real operators run as real
BLAS. State vectors are complex 1-D arrays of length ``2**num_qubits``;
:func:`apply` is where a real operator meets them. Qubit ``j`` of a register
carries bit value ``2**j`` of the basis index, so kets print most-significant
qubit first: ``|u>`` = ``|u_{n-1} ... u_0>``.

Equality checks use the max entrywise modulus (:func:`max_norm_diff`) with a
default tolerance of 1e-10. Dense operators are capped at a total-qubit
budget (default 14, overridable through the ``QFRT_MAX_QUBITS`` environment
variable); exceeding it raises instead of silently truncating.
"""
from __future__ import annotations

import math
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


def check_qubit_budget(num_qubits: int) -> None:
    """Raise :class:`QubitBudgetError` if ``num_qubits`` is over the budget."""
    budget = max_qubits()
    if num_qubits > budget:
        raise QubitBudgetError(f"{num_qubits} qubits exceed the {budget}-qubit budget")


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty 2-D array with finite entries: ``float64`` for
    bool, integer and floating input, ``complex128`` for anything else."""
    a = np.asarray(m)
    a = np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def identity(dim: int, dtype=complex) -> np.ndarray:
    return np.eye(dim, dtype=dtype)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def max_norm_diff(a, b) -> float:
    """Max entrywise modulus of (a - b)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def unitarity_dev(m) -> float:
    """max|m^dagger m - I|, formed in place (no identity or difference); +inf
    for a non-square m. On a real m, ``conj()`` returns m itself, so the
    product is m^T m on one buffer."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return math.inf
    gram = m.conj().T @ m
    gram.flat[:: m.shape[0] + 1] -= 1
    return float(np.max(np.abs(gram)))


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """:func:`unitarity_dev` <= tol."""
    return unitarity_dev(m) <= tol


def apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g @ x for a complex (rows, cols) block x, without casting g.

    A real g acts on the real and imaginary parts as real products: two
    matvecs for one column, else one product on the float64 view of x. Letting
    numpy mix the dtypes would copy the whole of g to complex on every call.
    """
    x = np.asarray(x, dtype=complex)
    if np.iscomplexobj(g):
        return g @ x
    if x.shape[1] == 1:
        out = np.empty(x.shape, dtype=complex)
        out.real = g @ x.real
        out.imag = g @ x.imag
        return out
    return (g @ np.ascontiguousarray(x).view(np.float64)).view(complex)


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
    result = identity(m.shape[0], m.dtype)
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
