"""Statevector execution of circuits.

:func:`run` executes the circuit's plan (:meth:`qfrt.circuits.Circuit.plan`)
for all marks or none: the steps of :func:`qfrt.circuits._op_step`, the
kernel :func:`qfrt.circuits.circuit_unitary` runs on identity columns, built
once per circuit and trace setting and applied in place through strided
views of the state tensor. It takes one state or a (2**n, cols) block of
states, which the steps carry along the register's last axis, so a block of
basis columns gives those columns of the circuit's unitary by the fast path;
``verify --suite equivalence`` runs its blocks so. The input is checked finite
on the float64 view of its C-ordered copy. Between two traced marks, each run
of small gates on at most :data:`qfrt.circuits.FUSE_WIRES` wires is one fused
dense step; a ``power`` payload is never fused, and goes to its transform's
``apply`` (``numpy.fft``, O(N log N) per column, for a built-in; its power's
matrix for a hand-built kernel), so ``circuit_unitary`` stays the independent
op-by-op dense reference. A traced run copies the state at each mark into a
row of one array it allocates up front. Probabilities are computed exactly
from amplitudes; there is no shot sampling.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import Circuit

#: Amplitudes below this modulus are dropped from state dumps.
DUMP_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """A labeled intermediate state captured at a marked op boundary."""

    label: str
    state: np.ndarray
    step_index: int


def basis_state(num_qubits: int, index: int = 0) -> np.ndarray:
    """|index> on num_qubits qubits, at most :func:`qfrt.linalg.max_qubits`."""
    num_qubits = linalg.check_int("num_qubits", num_qubits, 0)
    linalg.check_qubit_budget("basis_state", num_qubits)
    index = linalg.check_int("index", index, 0, (1 << num_qubits) - 1)
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _num_qubits(state: np.ndarray) -> int:
    """The qubit count of a 1-D state; a block or a scalar is a ValueError."""
    if state.ndim != 1:
        raise ValueError(f"state must be a 1-D array, got shape {state.shape}")
    if state.size < 1 or state.size & (state.size - 1):
        raise ValueError(f"state length {state.size} is not a power of two")
    return state.size.bit_length() - 1


def run(circuit: Circuit, state: np.ndarray, trace=None):
    """Execute a circuit on a state; returns (final_state, trace_records).

    ``state`` is a 1-D array of 2**num_qubits finite amplitudes, or a
    (2**num_qubits, cols) block of cols >= 1 such columns, each run as its
    own state; it is copied, not changed, and the final state and every
    record's state have its shape. ``trace`` is None, False or True, numpy
    bools too (anything else, a set of labels included, is a ValueError): a
    traced run records the state at every mark, in boundary order, and a
    caller that wants some picks them from the records. The run executes
    the circuit's plan for that setting (:meth:`Circuit.plan`). The records'
    states are the rows of one array allocated per run, so each is its own
    copy of the state at its mark.
    """
    dim = 1 << linalg.check_instance("circuit", circuit, Circuit).num_qubits
    state = linalg.check_numbers("run needs a numeric state", state).astype(complex, copy=False)
    if state.ndim not in (1, 2) or state.shape[0] != dim or state.size == 0:
        raise ValueError(f"state must be a ({dim},) state or a ({dim}, cols) block with "
                         f"cols >= 1 for {circuit.num_qubits} qubits, got shape {state.shape}")
    psi = state.reshape([2] * circuit.num_qubits + [-1]).copy()
    if not np.isfinite(psi.view(np.float64)).all():
        raise ValueError("state has a NaN or Inf amplitude")
    if trace is not None and not isinstance(trace, (bool, np.bool_)):
        raise ValueError(f"trace takes None, False or True, not {trace!r}")
    marks = circuit.marks if trace else ()
    boundaries: dict[int, list[str]] = {}
    for label, idx in marks:
        boundaries.setdefault(idx, []).append(label)

    snapshots = np.empty((len(marks),) + state.shape, dtype=complex)
    records: list[TraceRecord] = []
    flat = psi.reshape(state.shape)

    def snapshot(idx: int):
        for label in boundaries.get(idx, ()):
            row = snapshots[len(records)]
            row[...] = flat
            records.append(TraceRecord(label, row, idx))

    snapshot(0)
    for step in circuit.plan(bool(trace)):
        step.apply(psi)
        snapshot(step.stop)
    return flat, records


def ancilla_restoration_probability(state: np.ndarray, num_ancillas: int) -> float:
    """Total probability of the ancillas (the top num_ancillas qubits)
    reading all zeros."""
    state = linalg.check_numbers("ancilla_restoration_probability needs a numeric state", state)
    num_ancillas = linalg.check_int("num_ancillas", num_ancillas, 0, _num_qubits(state))
    block = state.size >> num_ancillas
    return float(np.sum(np.abs(state[:block]) ** 2))


def format_state(state: np.ndarray, full: bool = False) -> Iterator[str]:
    """State dump, as lines without newlines, made one at a time: one line per
    basis index as an MSB-first bit string plus ``re,im``; amplitudes with
    modulus <= DUMP_EPS are skipped unless full, so a state with none above
    it has no lines. ``state`` is checked on the call."""
    state = np.asarray(linalg.check_numbers("format_state needs a numeric state", state), complex)
    n = _num_qubits(state)
    return (f"{i:0{n}b} {a.real:.17g},{a.imag:.17g}"
            for i, a in enumerate(state) if full or abs(a) > DUMP_EPS)
