"""Fractional powers of dyadic-order unitaries.

For U with U**N = I (N = 2**n) the fractional operator is the weighted sum
of integer powers

    FrU(alpha) = sum_k c_k(alpha) U**k,
    c_k(alpha) = (1/N) sum_m w**(m (alpha - k)),   w = exp(-2 pi i / N),

which interpolates the integer powers, is additive in alpha, and is
N-periodic. :func:`fractional_oracle` evaluates it densely, by the
transform's own :meth:`BaseTransform.power_sum`: for a built-in, one gather
of its Shih-weighted roots table, with no kernel and no power built.
:func:`fractional_apply` applies it to a block of columns matrix-free, by
:meth:`BaseTransform.apply_sum`: for a built-in, one FFT per block. The same
kernel applies FrU(alpha)^dagger in :func:`unitarity_bound`, which bounds
max|m^dagger m - I| of an oracle with no Gram product.
:func:`build_qfru_circuit` realizes the same operator coherently with an
n-qubit ancilla register that is returned to |0...0> at the end, and
:func:`build_qfrin_circuit` is its n = 1 case, for involutions. All five
read a :class:`FractionalSpec`, which calls :meth:`BaseTransform.check` when
made: the one proof, once per transform, that U and its powers are unitary
and U**N = I, from a built-in's roots table in O(N), with no matrix product
and no kernel; for a hand-built kernel by one product U^dagger U and one
O(N**2) comparison of U**(N-1) with U^dagger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .base_transforms import BaseTransform
from .circuits import Circuit, GateOp, multiplexed_powers, phase_block, qft_circuit
from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class ShihCoefficients:
    """The N interpolation weights c_k for one (order, alpha) pair, frozen."""

    weights: np.ndarray


def shih_coefficients(order: int, alpha: float) -> ShihCoefficients:
    """Weights over U**0 .. U**(order-1), a power of two <= 2**max_qubits():
    the inverse DFT of w**(m alpha), m < order, with m floor(alpha) reduced
    mod order exactly, so an integer alpha gives the indicator of alpha mod
    order to rounding; always sum c_k = 1 and sum |c_k|**2 = 1."""
    order = linalg.check_int("order", order, 2, 1 << linalg.max_qubits())
    if order & (order - 1):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    reduced = linalg.reduce_alpha(alpha, order)
    whole, m = math.floor(reduced), np.arange(order)
    turns = (np.fmod(m * whole, order) + m * (reduced - whole)) / order
    return ShihCoefficients(linalg.frozen(np.fft.ifft(np.exp(-2j * np.pi * turns))))


@dataclass(frozen=True)
class FractionalSpec:
    """One fractional-transform instance: a base operator plus exponent alpha.
    Making one sets its weights, ``coefficients`` (not a field), by one call
    of :func:`shih_coefficients`, then proves the base by
    :meth:`BaseTransform.check`, raising :class:`NotDyadicOrderError` unless it passes."""

    base: BaseTransform
    alpha: float

    def __post_init__(self):
        linalg.check_instance("base", self.base, BaseTransform)
        linalg.check_qubit_budget(
            f"{self.base.id!r}: {self.num_ancillas} ancilla + {self.data_qubits} data qubits",
            self.num_ancillas + self.data_qubits)
        object.__setattr__(self, "coefficients", shih_coefficients(self.order, self.alpha))
        self.base.check()

    @property
    def num_ancillas(self) -> int:
        return self.base.order_exponent

    @property
    def data_qubits(self) -> int:
        return self.base.data_qubits

    @property
    def order(self) -> int:
        return self.base.order


def fractional_oracle(spec: FractionalSpec) -> np.ndarray:
    """Dense FrU(alpha) on the data register: sum_k c_k(alpha) U**k, by
    :meth:`BaseTransform.power_sum`."""
    return spec.base.power_sum(spec.coefficients.weights)


def fractional_apply(spec: FractionalSpec, x: np.ndarray) -> np.ndarray:
    """FrU(alpha) x along axis 0 of an (N, cols) block x, matrix-free, by
    :meth:`BaseTransform.apply_sum` of the Shih weights."""
    return spec.base.apply_sum(spec.coefficients.weights, x)


#: Data amplitudes (256 KiB) of one block of ``max(1, _COLUMN_BLOCK // 2**q)``
#: columns in :func:`unitarity_bound` and the additivity and equivalence suites.
_COLUMN_BLOCK = 1 << 14


def column_blocks(n: int) -> list[slice]:
    """The column slices of an (n, n) matrix, n >= 1, in blocks of ``max(1,
    _COLUMN_BLOCK // n)`` columns, the last one short if n needs it."""
    n = linalg.check_int("n", n, 1)
    width = max(1, _COLUMN_BLOCK // n)
    return [slice(start, min(start + width, n)) for start in range(0, n, width)]


def unitarity_bound(spec: FractionalSpec, m) -> float:
    """An upper bound on max|m^dagger m - I| for m, a claimed FrU(alpha),
    with no Gram product: O(N**2 log N) for a built-in.

    A = FrU(alpha)^dagger = sum_k conj(c_k) U**-k is applied to column blocks
    of m of at most ``_COLUMN_BLOCK`` amplitudes by
    :meth:`BaseTransform.apply_sum`, giving G = A m - I a block at a time.
    For U unitary with U**order = I, as :meth:`BaseTransform.check` proves
    within its tolerances, A A^dagger = I + E, E = sum_j (r_j - delta_j0)
    U**j with r_j = sum_k conj(c_k) c_(k+j), ifft(|fft(c)|**2), so ||E||_2
    <= eps = sum_j |r_j - delta_j0|, and m^dagger m - I = G + G^dagger +
    G^dagger G + (I+G)^dagger D (I+G) with D = (A A^dagger)**-1 - I,
    ||D||_2 <= eps / (1 - eps). Hence the bound 2 max|G| + s**2 + (1 +
    s)**2 eps / (1 - eps), s the largest column norm of G; +inf if eps >= 1.
    Up to rounding, N e (1 + s)**2 with e the float64 epsilon (a fuzz found
    1.3e-15 at hartley q=5, 1.7e-15 at cst1 n=7), it is never below the
    dense value; it also fails an m that is unitary but not FrU(alpha).
    """
    t = spec.base
    m = linalg.as_matrix(m)
    dim = 1 << t.data_qubits
    if m.shape != (dim, dim):
        raise DimensionError(f"{t.id!r}: unitarity_bound needs a ({dim}, {dim}) matrix, "
                             f"got shape {m.shape}")
    c = spec.coefficients.weights
    auto = np.fft.ifft(np.abs(np.fft.fft(c)) ** 2)  # r_j
    auto[0] -= 1
    eps = float(np.sum(np.abs(auto)))
    if eps >= 1:
        return math.inf
    adjoint = c.conj()[-np.arange(t.order) % t.order]
    g_sq = s_sq = 0.0  # the largest |G_ij|**2 and column norm**2 so far
    for block in column_blocks(dim):
        # A contiguous copy of the block: the gather and the FFT run faster on it.
        g = t.apply_sum(adjoint, np.ascontiguousarray(m[:, block]))
        cols = np.arange(g.shape[1])
        g[block.start + cols, cols] -= 1
        sq = g.real**2
        sq += g.imag**2
        g_sq = max(g_sq, float(sq.max()))
        s_sq = max(s_sq, float(sq.sum(axis=0).max()))
    s = math.sqrt(s_sq)
    return 2 * math.sqrt(g_sq) + s_sq + (1 + s) ** 2 * eps / (1 - eps)


def _shifted(ops, offset: int):
    """Re-home named-gate ops to qubits offset..: used to place
    ancilla-register circuits above the data register."""
    return [replace(op, targets=[t + offset for t in op.targets],
                    controls=[c + offset for c in op.controls]) for op in ops]


def build_qfru_circuit(spec: FractionalSpec) -> Circuit:
    """The general fractionalization circuit on n ancillas + q data qubits.

    Stages, in execution order: Hadamard layer on the ancillas, multiplexed
    powers of U, inverse ancilla Fourier transform, diagonal phase block,
    ancilla Fourier transform, multiplexed powers of U**-1 = U**(order-1),
    closing Hadamard layer. Every payload is a ``power`` op (t, k), proven by
    the one :meth:`BaseTransform.check`; none reads a matrix, so a built-in's
    kernel stays unbuilt. Acting on |0...0>|u> the result is |0...0>
    FrU(alpha)|u>; the stage boundaries are marked psi0..psi7 for tracing.
    """
    n, q, t = spec.num_ancillas, spec.data_qubits, spec.base
    hadamards = [GateOp("h", targets=(q + a,)) for a in range(n)]
    stages = (
        hadamards,
        multiplexed_powers(t).ops,
        _shifted(qft_circuit(n, inverse=True).ops, q),
        _shifted(phase_block(n, spec.alpha).ops, q),
        _shifted(qft_circuit(n).ops, q),
        multiplexed_powers(t, inverse=True).ops,
        hadamards,
    )
    ops: list[GateOp] = []
    marks = [("psi0", 0)]
    for i, stage in enumerate(stages, 1):
        ops += stage
        marks.append((f"psi{i}", len(ops)))
    return Circuit(n + q, tuple(ops), tuple(marks))


def build_qfrin_circuit(base: BaseTransform, alpha: float) -> Circuit:
    """:func:`build_qfru_circuit` at n = 1, for an involution (U**2 = I): H, CU,
    H, P(-pi alpha), H, CU, H on the ancilla, U**-1 = U in both CU ops.
    Acting on |0>|u> it yields
    |0> [ (1 + e^{-i pi alpha})/2 I + (1 - e^{-i pi alpha})/2 U ] |u>.
    """
    spec = FractionalSpec(base, alpha)
    if spec.num_ancillas != 1:
        raise ValueError(f"{base.id!r} is not an involution (order exponent {spec.num_ancillas})")
    return build_qfru_circuit(spec)


def extract_data_block(full, num_ancillas: int, data_qubits: int):
    """Sub-matrix mapping ancilla-|0...0> inputs to ancilla-|0...0> outputs.

    ``full`` is either the circuit's whole (dim, dim) unitary, dim =
    2**(num_ancillas + data_qubits), or the images of w of its
    ancilla-|0...0> input columns, a (dim, w) block with 1 <= w <=
    2**data_qubits: ``circuit_unitary(c, columns=w)``, or ``simulator.run``
    of a block of such basis columns. Returns ``(block, leakage)``: block is
    the data rows of those inputs, (2**data_qubits, w) (the square data block
    for the whole unitary), a view of ``full``, and leakage the worst
    amplitude norm any of them places outside it, 0 for a correct circuit;
    unscanned, a NaN in ``full`` reaches the block or the leakage.
    """
    full = linalg.check_numbers("extract_data_block needs a numeric matrix or block", full)
    num_ancillas = linalg.check_int("num_ancillas", num_ancillas, 0)
    data_qubits = linalg.check_int("data_qubits", data_qubits, 0)
    dim = 1 << (num_ancillas + data_qubits)
    block_dim = 1 << data_qubits
    rows, width = full.shape if full.ndim == 2 else (None, None)
    if rows != dim or not (0 < width <= block_dim or width == dim):
        raise DimensionError(
            f"expected a {dim}x{dim} matrix or its {dim}x{block_dim} column slice, or "
            f"its first w < {block_dim} columns, for {num_ancillas}+{data_qubits} qubits, "
            f"got {full.shape}"
        )
    width = min(width, block_dim)
    leakage = float(np.max(np.linalg.norm(full[block_dim:, :width], axis=0)))
    return full[:block_dim, :width], leakage
