"""Statevector execution of circuits.

:func:`run` executes the circuit's plan (:meth:`qfrt.circuits.Circuit.plan`)
for the marks it traces: the steps of :func:`qfrt.circuits._op_step`, the
kernel :func:`qfrt.circuits.circuit_unitary` runs on identity columns, built
once per circuit and set of traced boundaries and applied in place through
strided views of the state tensor. It takes one state or a (2**n, cols)
block of states, which the steps carry along the register's last axis, so
a block of basis columns gives those columns of the circuit's unitary by
the fast path; ``verify --suite equivalence`` runs its blocks so. Between
two traced boundaries, each run of small gates on at most
:data:`qfrt.circuits.FUSE_WIRES` wires is one fused dense step; a ``power``
payload is never fused, and goes to its transform's ``apply``
(``numpy.fft``, O(N log N) per column, for a built-in; its power's matrix
for a hand-built kernel), so ``circuit_unitary`` stays the independent
op-by-op dense reference. A traced run copies the state at each wanted mark
into a row of one array it allocates up front. Probabilities are computed
exactly from amplitudes; there is no shot sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import Circuit
from .errors import QubitBudgetError

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
    if num_qubits > (budget := linalg.max_qubits()):
        raise QubitBudgetError(f"num_qubits {num_qubits} exceeds the {budget}-qubit budget")
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
    record's state have its shape. ``trace`` selects which marked boundaries
    to record: None or False for none, True for all of the circuit's marks,
    or an iterable of the circuit's mark labels (a string, anything else
    that is not iterable, or an unknown label is a ValueError). The run
    executes the circuit's plan for the wanted boundaries
    (:meth:`Circuit.plan`). The records' states are the rows of one array
    allocated per run, so each is its own copy of the state at its mark.
    """
    state = np.asarray(state, dtype=complex)
    dim = 1 << circuit.num_qubits
    if state.ndim not in (1, 2) or state.shape[0] != dim or state.size == 0:
        raise ValueError(f"state must be a ({dim},) state or a ({dim}, cols) block with "
                         f"cols >= 1 for {circuit.num_qubits} qubits, got shape {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError("state has a NaN or Inf amplitude")
    labels = frozenset(label for label, _ in circuit.marks)
    wanted = _wanted_labels(trace, labels)
    boundaries: dict[int, list[str]] = {}
    for label, idx in circuit.marks:
        if label in wanted:
            boundaries.setdefault(idx, []).append(label)

    snapshots = np.empty((sum(map(len, boundaries.values())),) + state.shape, dtype=complex)
    records: list[TraceRecord] = []
    psi = state.reshape([2] * circuit.num_qubits + [-1]).copy()
    flat = psi.reshape(state.shape)

    def snapshot(idx: int):
        for label in boundaries.get(idx, ()):
            row = snapshots[len(records)]
            row[...] = flat
            records.append(TraceRecord(label, row, idx))

    snapshot(0)
    for step in circuit.plan(tuple(sorted(boundaries))):
        step.apply(psi)
        snapshot(step.stop)
    return flat, records


def _wanted_labels(trace, labels: frozenset[str]) -> frozenset[str]:
    """The mark labels ``trace`` selects from ``labels``, per :func:`run`."""
    if trace is None or isinstance(trace, (bool, np.bool_)):
        return labels if trace else frozenset()
    try:
        wanted = None if isinstance(trace, str) else frozenset(trace)
    except TypeError:  # not iterable, or an unhashable label
        wanted = None
    unknown = [trace] if wanted is None else sorted(wanted - labels, key=repr)
    if unknown:
        raise ValueError(
            f"trace takes True or an iterable of the circuit's mark labels, not {unknown[0]!r}"
        )
    return wanted


def ancilla_restoration_probability(state: np.ndarray, num_ancillas: int) -> float:
    """Total probability of the ancillas (the top num_ancillas qubits)
    reading all zeros."""
    state = np.asarray(state)
    num_ancillas = linalg.check_int("num_ancillas", num_ancillas, 0, _num_qubits(state))
    block = state.size >> num_ancillas
    return float(np.sum(np.abs(state[:block]) ** 2))


def format_state(state: np.ndarray, full: bool = False) -> str:
    """State dump: one line per basis index as an MSB-first bit string plus
    ``re,im``; amplitudes with modulus <= DUMP_EPS are skipped unless full."""
    state = np.asarray(state, dtype=complex)
    n = _num_qubits(state)
    lines = [
        f"{i:0{n}b} {a.real:.17g},{a.imag:.17g}"
        for i, a in enumerate(state)
        if full or abs(a) > DUMP_EPS
    ]
    return "\n".join(lines) + "\n"
