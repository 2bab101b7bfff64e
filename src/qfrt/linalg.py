"""Dense matrices and the small operation set everything else builds on.

Matrices are numpy arrays in row-major layout: ``float64`` for real input
(the Hartley and cosine-sine kernels, and payloads built from them) and
``complex128`` otherwise, so that products of real operators run as real
BLAS. State vectors are complex 1-D arrays of length ``2**num_qubits``;
:func:`apply` is where a real operator meets them. Qubit ``j`` of a register
carries bit value ``2**j`` of the basis index, so kets print most-significant
qubit first: ``|u>`` = ``|u_{n-1} ... u_0>``.

Checks compare the max entrywise modulus with a default tolerance of 1e-10,
:data:`GATE_TOL`. Nothing in the package calls :func:`max_norm_diff`; it
stays only because the benchmark's tracer, ``bench/tracer.py``, names it.
Dense operators are capped at a total-qubit budget (default 14, overridable
through the ``QFRT_MAX_QUBITS`` environment variable); exceeding it raises
instead of silently truncating.
"""
from __future__ import annotations

import itertools
import math
import numbers
import os
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .errors import DimensionError, QfrtError, QubitBudgetError

#: Unitarity tolerance for a transform's kernel and gate payloads, and the
#: default of :func:`is_unitary` and of the CLI's ``verify`` rows.
GATE_TOL = 1e-10

#: Environment variable overriding the total-qubit budget.
BUDGET_ENV_VAR = "QFRT_MAX_QUBITS"

_DEFAULT_MAX_QUBITS = 14
_GRAM_ROWS = 64  # rows of m^dagger m per product in unitarity_dev


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


def check_qubit_budget(what: str, num_qubits: int) -> None:
    """Raise :class:`QubitBudgetError` if ``num_qubits`` is over the budget, by
    the one message, ``{what}: {num_qubits} qubits exceed the {budget}-qubit budget``."""
    budget = max_qubits()
    if num_qubits > budget:
        raise QubitBudgetError(f"{what}: {num_qubits} qubits exceed the {budget}-qubit budget")


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """value as an int: the one integer rule for sizes, wires, indices and
    exponents. An integer is one, a numpy one included, but a bool is not;
    a :class:`DimensionError` names ``name`` and value's repr unless value is
    one with low <= value <= high (a bound that is None does not apply)."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (low is None or low <= value) and (high is None or value <= high)):
        return int(value)
    bound = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise DimensionError(f"{name} must be an integer{bound}, got {value!r}")


def check_instance(name: str, value, kind: type):
    """value if it is a ``kind``, the one rule for an argument's class; else a
    :class:`DimensionError`, ``{name} must be a {kind}, got {value's type}``."""
    if isinstance(value, kind):
        return value
    raise DimensionError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def reduce_alpha(alpha, period: int) -> float:
    """alpha mod period, exactly, with ``math.fmod``'s sign rule (-0.0 too): a rational
    as it is, any other real as a float; rejects a bool or an alpha not a finite real."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    if not isinstance(alpha, numbers.Rational) and not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    # A rational's parts as ints: numpy integer arithmetic would wrap.
    exact = (Fraction(int(alpha.numerator), int(alpha.denominator))
             if isinstance(alpha, numbers.Rational) else Fraction(float(alpha)))
    reduced = float(abs(exact) % period)
    return -reduced if exact < 0 or (exact == 0 and math.copysign(1, alpha) < 0) else reduced


def check_numbers(what: str, value) -> np.ndarray:
    """np.asarray(value) if its dtype is bool, integer, float or complex, the one
    numeric-array rule; else a :class:`QfrtError`, ``{what}, got dtype {dtype}``."""
    a = np.asarray(value)
    if a.dtype.kind not in "biufc":
        raise QfrtError(f"{what}, got dtype {a.dtype}")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty 2-D array with finite entries: ``float64`` for bool,
    integer and floating input, ``complex128`` for complex; others fail check_numbers."""
    a = check_numbers("matrix entries must be numbers", m)
    a = np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def sealed(a: np.ndarray) -> np.ndarray:
    """A view of a, set read-only: numpy refuses to make such a view
    writable, so only a's maker, who drops a, could write it."""
    a.setflags(write=False)
    return a.view()


def frozen(a: np.ndarray) -> np.ndarray:
    """A sealed copy of a in a read-only buffer of its own: nothing a caller
    keeps can change it, nor make it or its ``.base`` writable."""
    return sealed(np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape))


def max_norm_diff(a, b) -> float:
    """Max entrywise modulus of (a - b)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def unitarity_dev(m) -> float:
    """max|m^dagger m - I|; +inf for a non-square m. The product is Hermitian,
    so only its upper triangle is formed, in row blocks m[:, i:i+w]^dagger
    m[:, i:] of w = _GRAM_ROWS rows, each with 1 taken off its leading
    diagonal in place: no N x N Gram, identity or conjugated copy of m."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return math.inf
    dev = 0.0
    for i in range(0, len(m), _GRAM_ROWS):
        block = m[:, i:i + _GRAM_ROWS].conj().T @ m[:, i:]
        block.flat[:: block.shape[1] + 1] -= 1
        dev = max(dev, np.max(np.abs(block)))
    return float(dev)


def is_unitary(m, tol: float = GATE_TOL) -> bool:
    """:func:`unitarity_dev` <= tol."""
    return unitarity_dev(m) <= tol


def apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g @ x for a complex (rows, cols) block x, without casting g.

    A real g acts on the real and imaginary parts as one product on the
    float64 view of x: letting numpy mix dtypes would copy g to complex.
    """
    x = np.asarray(x, dtype=complex)
    if np.iscomplexobj(g):
        return g @ x
    return (g @ np.ascontiguousarray(x).view(np.float64)).view(complex)


def matrix_power(m, k: int) -> np.ndarray:
    """m**k by repeated squaring; negative k only for unitary m (via m^dagger)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix_power needs a square matrix, got {m.shape}")
    k = check_int("k", k)
    if k < 0:
        if not is_unitary(m):
            raise ValueError("negative powers are defined only for unitary matrices")
        m, k = m.conj().T, -k
    result = np.eye(m.shape[0], dtype=m.dtype)
    square = m
    while k:
        if k & 1:
            result = result @ square
        k >>= 1
        if k:
            square = square @ square
    return result


def format_matrix(m) -> Iterator[str]:
    """Matrix text format, as lines without newlines, made one at a time: a
    ``rows cols`` header, then one line per row of space-separated ``re,im``
    entries with 17 significant digits. ``m`` is checked on the call."""
    m = as_matrix(m)
    template = " ".join(["%.17g,%.17g"] * m.shape[1])  # one % per row: twice as fast as per entry
    rows = (template % tuple(np.ascontiguousarray(r, complex).view(float).tolist()) for r in m)
    return itertools.chain([f"{m.shape[0]} {m.shape[1]}"], rows)
