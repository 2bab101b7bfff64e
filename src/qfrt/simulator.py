"""Statevector execution of circuits.

Gates update amplitudes through strided views of the state tensor rather
than by building full operator matrices; :func:`qfrt.circuits.circuit_unitary`
is the independent (and much slower) reference path the tests compare
against. Probabilities are computed exactly from amplitudes; there is no
shot sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import Circuit, GateOp

#: Amplitudes below this modulus are dropped from state dumps.
DUMP_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """A labeled intermediate state captured at a marked op boundary."""

    label: str
    state: np.ndarray
    step_index: int


def basis_state(num_qubits: int, index: int = 0) -> np.ndarray:
    """|index> on num_qubits qubits."""
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _num_qubits(state: np.ndarray) -> int:
    n = state.size.bit_length() - 1
    if state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def _apply_inplace(psi: np.ndarray, op: GateOp) -> None:
    """Update the state tensor (shape [2]*n, axis a = qubit n-1-a) in place."""
    n = psi.ndim
    sel = [slice(None)] * n
    for c in op.controls:
        sel[n - 1 - c] = 1
    sel = tuple(sel)
    sub = psi[sel]
    kept = [a for a in range(n) if not isinstance(sel[a], int)]
    # Gate axis p carries the gate's bit t-1-p, living on qubit targets[t-1-p].
    t = len(op.targets)
    pos = [kept.index(n - 1 - q) for q in reversed(op.targets)]
    moved = np.moveaxis(sub, pos, range(t))
    shape = moved.shape
    updated = linalg.apply(op.base_matrix(), moved.reshape(1 << t, -1))
    psi[sel] = np.moveaxis(updated.reshape(shape), range(t), pos)


def apply_gate(state: np.ndarray, op: GateOp, num_qubits: int | None = None) -> np.ndarray:
    """Apply one gate and return the updated state (a new array)."""
    state = np.asarray(state, dtype=complex).ravel()
    n = _num_qubits(state) if num_qubits is None else num_qubits
    if state.size != 1 << n:
        raise ValueError(f"state length {state.size} does not match {n} qubits")
    if op.span > n:
        raise ValueError(f"op {op.name!r} touches qubit {op.span - 1}, state has {n}")
    psi = state.reshape([2] * n).copy()
    _apply_inplace(psi, op)
    return psi.reshape(-1)


def run(circuit: Circuit, state: np.ndarray, trace=None):
    """Execute a circuit on a state; returns (final_state, trace_records).

    ``trace`` selects which marked boundaries to record: None for none,
    True for all of the circuit's marks, or an iterable of labels.
    """
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 1 << circuit.num_qubits:
        raise ValueError(
            f"state length {state.size} does not match {circuit.num_qubits} qubits"
        )
    if trace is None:
        wanted = frozenset()
    elif trace is True:
        wanted = frozenset(label for label, _ in circuit.marks)
    else:
        wanted = frozenset(trace)
    boundaries: dict[int, list[str]] = {}
    for label, idx in circuit.marks:
        if label in wanted:
            boundaries.setdefault(idx, []).append(label)

    records: list[TraceRecord] = []
    psi = state.reshape([2] * circuit.num_qubits).copy()

    def snapshot(idx: int):
        for label in boundaries.get(idx, ()):
            records.append(TraceRecord(label, psi.reshape(-1).copy(), idx))

    snapshot(0)
    for i, op in enumerate(circuit.ops):
        _apply_inplace(psi, op)
        snapshot(i + 1)
    return psi.reshape(-1), records


def ancilla_restoration_probability(state: np.ndarray, num_ancillas: int) -> float:
    """Total probability of the ancillas (the top num_ancillas qubits)
    reading all zeros."""
    state = np.asarray(state).ravel()
    n = _num_qubits(state)
    if not 0 <= num_ancillas <= n:
        raise ValueError(f"{num_ancillas} ancillas out of range for {n} qubits")
    block = state.size >> num_ancillas
    return float(np.sum(np.abs(state[:block]) ** 2))


def format_state(state: np.ndarray, full: bool = False, eps: float = DUMP_EPS) -> str:
    """State dump: one line per basis index as an MSB-first bit string plus
    ``re,im``; amplitudes with modulus <= eps are skipped unless full."""
    state = np.asarray(state, dtype=complex).ravel()
    n = _num_qubits(state)
    lines = [
        f"{i:0{n}b} {a.real:.17g},{a.imag:.17g}"
        for i, a in enumerate(state)
        if full or abs(a) > eps
    ]
    return "\n".join(lines) + "\n"
