"""Fractional powers of dyadic-order unitaries.

For U with U**N = I (N = 2**n) the fractional operator is the weighted sum
of integer powers

    FrU(alpha) = sum_k c_k(alpha) U**k,
    c_k(alpha) = (1/N) sum_m w**(m (alpha - k)),   w = exp(-2 pi i / N),

which interpolates the integer powers, is additive in alpha, and is
N-periodic. :func:`fractional_oracle` evaluates it densely;
:func:`build_qfru_circuit` realizes the same operator coherently with an
n-qubit ancilla register that is returned to |0...0> at the end, and
:func:`build_qfrin_circuit` is the specialized single-ancilla path for
involutions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .base_transforms import BaseTransform
from .circuits import Circuit, GateOp, multiplexed_powers, phase_block, qft_circuit
from .errors import DimensionError, QubitBudgetError


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
        total = self.num_ancillas + self.data_qubits
        if total > linalg.max_qubits():
            raise QubitBudgetError(
                f"{total} qubits exceed the {linalg.max_qubits()}-qubit budget"
            )

    @property
    def num_ancillas(self) -> int:
        return self.base.order_exponent

    @property
    def data_qubits(self) -> int:
        return self.base.data_qubits

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def theta0(self) -> float:
        """Phase-block unit angle: -2 pi / order."""
        return -2.0 * math.pi / self.order


def fractional_oracle(spec: FractionalSpec) -> np.ndarray:
    """Dense FrU(alpha) on the data register: sum_k c_k(alpha) U**k over
    :meth:`BaseTransform.powers`, which raises if U**order != I."""
    weights = shih_coefficients(spec.order, spec.alpha).weights
    powers = spec.base.powers()
    out = np.zeros(powers[0].shape, dtype=complex)
    for weight, power in zip(weights, powers):
        out += weight * power
    return out


def _shifted(ops, offset: int):
    """Re-home ops to qubits offset..: used to place ancilla-register
    circuits above the data register."""
    return [
        GateOp(
            op.name,
            targets=tuple(t + offset for t in op.targets),
            controls=tuple(c + offset for c in op.controls),
            params=op.params,
            matrix=op.matrix,
        )
        for op in ops
    ]


def build_qfru_circuit(spec: FractionalSpec) -> Circuit:
    """The general fractionalization circuit on n ancillas + q data qubits.

    Stages, in execution order: Hadamard layer on the ancillas, multiplexed
    powers of U, inverse ancilla Fourier transform, diagonal phase block,
    ancilla Fourier transform, multiplexed powers of U**-1 = U**(order-1),
    closing Hadamard layer; both multiplexed stages read one power table.
    Acting on |0...0>|u> the result is |0...0> FrU(alpha)|u>; the stage
    boundaries are marked psi0..psi7 for tracing.
    """
    n, q = spec.num_ancillas, spec.data_qubits
    powers = spec.base.powers()
    alpha = _reduce_alpha(spec.alpha, spec.order)
    ops: list[GateOp] = []
    marks = [("psi0", 0)]

    def mark(label: str):
        marks.append((label, len(ops)))

    ops += [GateOp("h", targets=(q + a,)) for a in range(n)]
    mark("psi1")
    ops += multiplexed_powers(powers).ops
    mark("psi2")
    ops += _shifted(qft_circuit(n, inverse=True).ops, q)
    mark("psi3")
    ops += _shifted(phase_block(n, alpha, spec.theta0).ops, q)
    mark("psi4")
    ops += _shifted(qft_circuit(n).ops, q)
    mark("psi5")
    ops += multiplexed_powers(tuple(powers[-m] for m in range(spec.order))).ops
    mark("psi6")
    ops += [GateOp("h", targets=(q + a,)) for a in range(n)]
    mark("psi7")
    return Circuit(n + q, tuple(ops), tuple(marks))


def build_qfrin_circuit(base: BaseTransform, alpha: float) -> Circuit:
    """Single-ancilla fast path for involutions (U**2 = I).

    The one-qubit Fourier transforms degenerate to Hadamards and the same
    controlled-U serves as its own inverse, so the circuit is H, CU, H,
    P(-pi alpha), H, CU, H on the ancilla. Acting on |0>|u> it yields
    |0> [ (1 + e^{-i pi alpha})/2 I + (1 - e^{-i pi alpha})/2 U ] |u>.
    """
    if base.order_exponent != 1:
        raise ValueError(
            f"{base.id!r} is not an involution (order exponent {base.order_exponent})"
        )
    alpha = _reduce_alpha(alpha, 2)
    q = base.data_qubits
    if q + 1 > linalg.max_qubits():
        raise QubitBudgetError(
            f"{q + 1} qubits exceed the {linalg.max_qubits()}-qubit budget"
        )
    cu = GateOp("unitary", targets=tuple(range(q)), controls=(q,), matrix=base.dense)
    hadamard = GateOp("h", targets=(q,))
    ops = (
        hadamard,
        cu,
        hadamard,
        GateOp("p", targets=(q,), params=(-math.pi * alpha,)),
        hadamard,
        cu,
        hadamard,
    )
    marks = tuple((f"psi{i}", i) for i in range(8))
    return Circuit(q + 1, ops, marks)


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
