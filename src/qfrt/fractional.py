"""Fractional powers of dyadic-order unitaries.

For U with U**N = I (N = 2**n) the fractional operator is the weighted sum
of integer powers

    FrU(alpha) = sum_k c_k(alpha) U**k,
    c_k(alpha) = (1/N) sum_m w**(m (alpha - k)),   w = exp(-2 pi i / N),

which interpolates the integer powers, is additive in alpha, and is
N-periodic. :func:`fractional_oracle` evaluates it densely;
:func:`build_qfru_circuit` realizes the same operator coherently with an
n-qubit ancilla register that is returned to |0...0> at the end, and
:func:`build_qfrin_circuit` is its n = 1 case, for involutions. Both check
U**N = I the same way (:func:`_check_order`). A built-in transform is
certified from its roots table in O(N): the deviation delta of its stored
entries from their closed form (:attr:`BaseTransform.table_dev`, paid once
per transform) bounds both its unitarity deviation and |U**N - I|, with no
matrix product and no kernel. A hand-built kernel is proven by one memoised
dense product U^dagger U (:attr:`BaseTransform.unitarity_dev`) plus one
O(N**2) comparison of U**(N-1) with U^dagger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .base_transforms import ORDER_TOL, BaseTransform
from .circuits import GATE_TOL, Circuit, GateOp, multiplexed_powers, phase_block, qft_circuit
from .errors import DimensionError, NotDyadicOrderError


def _reduce_alpha(alpha: float, order: int) -> float:
    """alpha mod order, exactly (``math.fmod``), so that the phases keep full
    precision at large |alpha|; rejects a non-finite alpha."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    return math.fmod(alpha, order)


@dataclass(frozen=True, eq=False)
class ShihCoefficients:
    """The N interpolation weights c_k for one (order, alpha) pair."""

    order: int
    alpha: float
    weights: np.ndarray


def shih_coefficients(order: int, alpha: float) -> ShihCoefficients:
    """Interpolation weights over U**0 .. U**(order-1).

    At integer alpha = m the weights collapse to the indicator of m mod
    order; they always satisfy sum c_k = 1 and sum |c_k|**2 = 1.
    """
    if order < 2 or order & (order - 1):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    reduced = _reduce_alpha(alpha, order)
    m = np.arange(order)
    k = np.arange(order)
    terms = np.exp(-2j * np.pi * np.outer(reduced - k, m) / order)
    return ShihCoefficients(order, float(alpha), terms.mean(axis=1))


@dataclass(frozen=True)
class FractionalSpec:
    """One fractional-transform instance: a base operator plus exponent alpha."""

    base: BaseTransform
    alpha: float

    def __post_init__(self):
        _reduce_alpha(self.alpha, self.order)  # rejects a non-finite alpha
        linalg.check_qubit_budget(self.num_ancillas + self.data_qubits)

    @property
    def num_ancillas(self) -> int:
        return self.base.order_exponent

    @property
    def data_qubits(self) -> int:
        return self.base.data_qubits

    @property
    def order(self) -> int:
        return self.base.order

    @cached_property
    def coefficients(self) -> ShihCoefficients:
        """The interpolation weights, :func:`shih_coefficients`, made once."""
        return shih_coefficients(self.order, self.alpha)

    @property
    def theta0(self) -> float:
        """Phase-block unit angle: -2 pi / order."""
        return -2.0 * math.pi / self.order


def _order_error(base: BaseTransform) -> NotDyadicOrderError:
    return NotDyadicOrderError(
        f"base {base.id!r} does not satisfy U**{base.order} = I within {ORDER_TOL}"
    )


def fractional_oracle(spec: FractionalSpec) -> np.ndarray:
    """Dense FrU(alpha) on the data register: sum_k c_k(alpha) U**k.

    Raises :class:`NotDyadicOrderError` unless U is unitary within GATE_TOL,
    by the memoised :attr:`BaseTransform.unitarity_dev` (for a built-in, the
    O(N) table certificate; otherwise the first call on a transform pays one
    product), and U**order = I within ORDER_TOL, by :func:`_check_order`.
    When the powers are I, U and, with ``square_perm`` p, I[p] and U[p]
    (every involution, and every order-4 transform with p), the sum is
    c_1 U (+ c_3 U[p]) with the permutation matrices added as one scatter
    each, and no matrix product is made; otherwise it runs over one
    :meth:`BaseTransform.powers` table.
    """
    t, order = spec.base, spec.order
    weights = spec.coefficients.weights
    if not t.unitarity_dev <= GATE_TOL:
        raise NotDyadicOrderError(f"base {t.id!r} is not unitary within {GATE_TOL}")
    if order > 2 and t.square_perm is None:
        powers = t.powers()
        _check_order(t, powers[-1])
        out = np.zeros(t.dense.shape, dtype=complex)
        for weight, power in zip(weights, powers):
            out += weight * power
        return out
    _check_order(t)
    out = weights[1] * t.dense
    out.flat[:: len(out) + 1] += weights[0]  # I
    if order == 4:
        out += weights[3] * t.power(3)
        out[np.arange(len(out)), t.square_perm] += weights[2]  # I[p]
    return out


def _shifted(ops, offset: int):
    """Re-home named-gate ops to qubits offset..: used to place
    ancilla-register circuits above the data register."""
    return [
        GateOp(
            op.name,
            targets=tuple(t + offset for t in op.targets),
            controls=tuple(c + offset for c in op.controls),
            params=op.params,
        )
        for op in ops
    ]


def _check_order(t: BaseTransform, last: np.ndarray | None = None) -> None:
    """U**order = I within ORDER_TOL, else :class:`NotDyadicOrderError`.

    A built-in transform with its certificate delta = :attr:`BaseTransform.table_dev`
    needs no matrix: its kernel is U = E + D with E exact, unitary and
    E**order = I, and |D|_max <= delta, so ||D||_2 <= N delta and
    ||U||_2 <= 1 + N delta. Then U**order - I = sum_i U**i D E**(order-1-i)
    gives |U**order - I|_max <= ||U**order - I||_2
    <= order N delta (1 + N delta)**(order - 1), which must be <= ORDER_TOL.

    Any other transform is checked by |last U - I|_max <= ORDER_TOL in
    O(N**2), with ``last`` = U**(order-1) (by default :meth:`BaseTransform.power`),
    so U**order = I; with ``last`` = U[p] it is |p U U - I|_max, so
    U**2 = I[p]. Premise: the unitarity proof g = |U^dagger U - I|_max <=
    GATE_TOL = G, which each caller holds for U. The oracle checks the
    memoised :attr:`BaseTransform.unitarity_dev` first; the circuit builder's
    payload ops check that same proof for a built-in transform, and their
    matrices for a hand-built one. Columns of U then have norm <= sqrt(1 + g)
    <= 1 + G/2. With D = last - U^dagger, last U - I = D U + (U^dagger U - I),
    and Cauchy-Schwarz on the rows of D gives |D U|_max <= sqrt(N) |D|_max
    (1 + G/2). So |D|_max <= bound = (ORDER_TOL - 2G) / sqrt(N) gives
    |last U - I|_max <= (ORDER_TOL - 2G)(1 + G/2) + G <= ORDER_TOL, as
    ORDER_TOL < 2.
    """
    delta = t.table_dev
    if delta is not None:
        spread = (1 << t.data_qubits) * delta
        if not t.order * spread * (1 + spread) ** (t.order - 1) <= ORDER_TOL:
            raise _order_error(t)
        return
    if last is None:
        last = t.power(t.order - 1)
    u = t.dense
    bound = (ORDER_TOL - 2 * GATE_TOL) / math.sqrt(len(u))
    # In row blocks, so that the transposed reads of U stay in cache.
    dev = np.max([np.max(np.abs(last[i:i + 32] - u[:, i:i + 32].conj().T))
                  for i in range(0, len(u), 32)])
    if not dev <= bound:  # a NaN fails too
        raise _order_error(t)


def build_qfru_circuit(spec: FractionalSpec) -> Circuit:
    """The general fractionalization circuit on n ancillas + q data qubits.

    Stages, in execution order: Hadamard layer on the ancillas, multiplexed
    powers of U, inverse ancilla Fourier transform, diagonal phase block,
    ancilla Fourier transform, multiplexed powers of U**-1 = U**(order-1),
    closing Hadamard layer; both multiplexed stages read one power table: for
    a built-in transform, (t, k) references to its kernel, which stays
    unbuilt, proven by its one table certificate (see
    :func:`multiplexed_powers`), else the dense :meth:`BaseTransform.powers`.
    Acting on |0...0>|u> the result is |0...0> FrU(alpha)|u>; the stage
    boundaries are marked psi0..psi7 for tracing. Raises
    :class:`NotDyadicOrderError` unless U**order = I within ORDER_TOL.
    """
    n, q, t, order = spec.num_ancillas, spec.data_qubits, spec.base, spec.order
    builtin = t.apply is not None
    # A built-in transform's payloads are (t, k) references to its one
    # certified kernel; a hand-built one gets its dense table, every payload checked.
    powers = [(t, k) for k in range(order)] if builtin else t.powers()
    _check_order(t, None if builtin else powers[-1])
    forward = multiplexed_powers(powers).ops
    # The inverse stage applies U**(order - m) on selector value m; its top bit's
    # op, U**(order/2), is the forward stage's, so only lower bits get new ops.
    lower = multiplexed_powers(tuple(powers[-m] for m in range(order // 2))).ops
    alpha = _reduce_alpha(spec.alpha, order)
    hadamards = [GateOp("h", targets=(q + a,)) for a in range(n)]
    stages = (
        hadamards,
        forward,
        _shifted(qft_circuit(n, inverse=True).ops, q),
        _shifted(phase_block(n, alpha, spec.theta0).ops, q),
        _shifted(qft_circuit(n).ops, q),
        lower + forward[-1:],
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
    H, P(-pi alpha), H, CU, H on the ancilla, one CU op serving as its own
    inverse. Acting on |0>|u> it yields
    |0> [ (1 + e^{-i pi alpha})/2 I + (1 - e^{-i pi alpha})/2 U ] |u>.
    """
    if base.order_exponent != 1:
        raise ValueError(
            f"{base.id!r} is not an involution (order exponent {base.order_exponent})"
        )
    return build_qfru_circuit(FractionalSpec(base, alpha))


def extract_data_block(full, num_ancillas: int, data_qubits: int):
    """Sub-matrix mapping ancilla-|0...0> inputs to ancilla-|0...0> outputs.

    ``full`` is either the circuit's whole (dim, dim) unitary, dim =
    2**(num_ancillas + data_qubits), or just its (dim, 2**data_qubits) column
    slice, the ancilla-|0...0> input columns that
    ``circuit_unitary(c, columns=2**data_qubits)`` builds; both give the same
    result. Returns ``(block, leakage)`` where leakage is the worst amplitude
    norm any ancilla-|0...0> input column places outside that block; a correct
    fractionalization circuit has leakage 0.
    """
    full = linalg.as_matrix(full)
    dim = 1 << (num_ancillas + data_qubits)
    block_dim = 1 << data_qubits
    if full.shape not in ((dim, dim), (dim, block_dim)):
        raise DimensionError(
            f"expected a {dim}x{dim} matrix or its {dim}x{block_dim} column slice "
            f"for {num_ancillas}+{data_qubits} qubits, got {full.shape}"
        )
    block = full[:block_dim, :block_dim].copy()
    if dim == block_dim:
        return block, 0.0
    leakage = float(np.max(np.linalg.norm(full[block_dim:, :block_dim], axis=0)))
    return block, leakage
