"""Circuit IR, the gate library, and the reference circuit constructions.

Qubit numbering follows the index convention of :mod:`qfrt.linalg`: qubit
``j`` carries bit value ``2**j``, so the most significant qubit is the
highest index (the top wire of a diagram). A multi-qubit gate's ``targets``
are ordered the same way: ``targets[i]`` holds the gate matrix's bit of
place value ``2**i``. Controls fire on |1>.

:func:`circuit_unitary` extracts the full dense unitary of a circuit by
embedding each gate at its wire positions and multiplying; it is the slow
reference path the statevector simulator is validated against. Its
``columns`` argument builds only the leading columns, the images of the first
basis states, for a caller that reads nothing else: an ancilla circuit acting
on ancilla |0...0> inputs needs just the first ``2**data_qubits`` of them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg

#: Unitarity tolerance for gate payloads.
GATE_TOL = 1e-10

_SQ2 = 1.0 / math.sqrt(2.0)


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


X = _const([[0, 1], [1, 0]])
Y = _const([[0, -1j], [1j, 0]])
Z = _const([[1, 0], [0, -1]])
H = _const([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
S = _const([[1, 0], [0, 1j]])
#: Hadamard conjugate of S: equals H @ S @ H.
R = _const([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
#: Cosine-sine mixing gate: equals H @ S.
B = _const([[_SQ2, _SQ2 * 1j], [_SQ2, -_SQ2 * 1j]])
#: Adjoint of B: equals phase(-pi/2) @ H.
BDAG = _const([[_SQ2, _SQ2], [-_SQ2 * 1j, _SQ2 * 1j]])
SWAP = _const([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

_FIXED_GATES = {
    "x": X, "y": Y, "z": Z, "h": H, "s": S, "r": R, "b": B, "bdag": BDAG,
    "swap": SWAP,
}

#: Number of target wires each named gate needs.
GATE_ARITY = {name: m.shape[0].bit_length() - 1 for name, m in _FIXED_GATES.items()}
GATE_ARITY["p"] = 1


def phase(phi: float) -> np.ndarray:
    """The phase gate diag(1, exp(i * phi))."""
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)


def standard_gate(name: str, param: float | None = None) -> np.ndarray:
    """Look up a gate from the fixed library; ``p`` needs its angle.

    Valid names: x, y, z, h, s, p, r, b, bdag (case-insensitive).
    """
    key = name.lower()
    if key == "p":
        if param is None:
            raise ValueError("phase gate 'p' needs an angle parameter")
        return phase(param)
    if key not in _FIXED_GATES or key == "swap":
        valid = "x, y, z, h, s, p, r, b, bdag"
        raise KeyError(f"unknown gate {name!r}; valid names: {valid}")
    if param is not None:
        raise ValueError(f"gate {name!r} takes no parameter")
    return _FIXED_GATES[key].copy()


def qct4_gate(name: str, j: int | None = None, n: int = 1) -> np.ndarray:
    """Single-qubit gates of the Type-IV cosine-sine circuit, N = 2**n.

    ``l``: diag(1, exp(i pi 2**(j-1) / N)) for level 1 <= j <= n.
    ``k``: X-conjugate of ``l`` (phase moved to the |0> entry).
    ``c``: diag(1, exp(i pi / 2N)).
    ``m``: the global-phase factor exp(-i pi / 4N) times the identity.
    """
    key = name.lower()
    big_n = 1 << n
    if key in ("l", "k"):
        if j is None or not 1 <= j <= n:
            raise ValueError(f"level j={j} out of range 1..{n}")
        l_j = phase(math.pi * 2 ** (j - 1) / big_n)
        return l_j if key == "l" else X @ l_j @ X
    if key == "c":
        return phase(math.pi / (2 * big_n))
    if key == "m":
        return np.exp(-1j * math.pi / (4 * big_n)) * linalg.identity(2)
    raise KeyError(f"unknown gate {name!r}; valid names: l, k, c, m")


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate application on a register.

    ``name`` picks a fixed gate from the library, the parameterized phase
    gate ``"p"`` (angle in ``params[0]``), or a literal dense payload under
    the name ``"unitary"`` (carried in ``matrix``, kept real when it is
    real). ``targets[i]`` is the qubit holding the gate's bit of place value
    ``2**i``.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        wires = self.targets + self.controls
        if not self.targets:
            raise ValueError("gate needs at least one target")
        if min(wires) < 0:
            raise ValueError(f"negative qubit index in {wires}")
        if len(set(wires)) != len(wires):
            raise ValueError(f"targets {self.targets} and controls {self.controls} overlap")
        if self.name == "unitary":
            if self.matrix is None:
                raise ValueError("'unitary' op needs a matrix payload")
            m = linalg.as_matrix(self.matrix)
            if m.shape != (1 << len(self.targets),) * 2:
                raise ValueError(
                    f"payload shape {m.shape} does not fit {len(self.targets)} targets"
                )
            if not linalg.is_unitary(m, GATE_TOL):
                raise ValueError("matrix payload is not unitary within 1e-10")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            if self.name not in GATE_ARITY:
                raise ValueError(f"unknown gate name {self.name!r}")
            if self.matrix is not None:
                raise ValueError(f"named gate {self.name!r} cannot carry a payload")
            if len(self.targets) != GATE_ARITY[self.name]:
                raise ValueError(
                    f"gate {self.name!r} needs {GATE_ARITY[self.name]} targets, "
                    f"got {len(self.targets)}"
                )
            if self.name == "p":
                if len(self.params) != 1:
                    raise ValueError("phase gate 'p' needs exactly one angle")
            elif self.params:
                raise ValueError(f"gate {self.name!r} takes no parameters")

    def base_matrix(self) -> np.ndarray:
        """The gate's matrix on its targets, controls not included."""
        if self.name == "unitary":
            return self.matrix
        if self.name == "p":
            return phase(self.params[0])
        return _FIXED_GATES[self.name]

    @property
    def span(self) -> int:
        return max(self.targets + self.controls) + 1


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gate applications on a sized qubit register.

    ``marks`` are labeled op boundaries for state tracing: ``(label, i)``
    names the state reached after the first ``i`` ops.
    """

    num_qubits: int
    ops: tuple[GateOp, ...] = ()
    marks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "marks", tuple(self.marks))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in self.ops:
            if op.span > self.num_qubits:
                raise ValueError(
                    f"op {op.name!r} touches qubit {op.span - 1}, register has "
                    f"{self.num_qubits}"
                )
        for label, idx in self.marks:
            if not 0 <= idx <= len(self.ops):
                raise ValueError(f"mark {label!r} at invalid boundary {idx}")


def controlled(gate, num_controls: int = 1) -> np.ndarray:
    """Dense controlled gate: block-diag(I, ..., I, gate), with the gate in
    the all-controls-|1> block."""
    g = linalg.as_matrix(gate)
    if g.shape[0] != g.shape[1] or not linalg.is_unitary(g, GATE_TOL):
        raise ValueError("controlled() needs a unitary gate matrix")
    if num_controls < 0:
        raise ValueError("num_controls must be >= 0")
    dim = g.shape[0] << num_controls
    out = linalg.identity(dim)
    out[dim - g.shape[0]:, dim - g.shape[0]:] = g
    return out


def multiplexed_powers(powers) -> Circuit:
    """Circuit for the multiplexed powers diag(u**0, u**1, ..., u**(2**n - 1)).

    ``powers`` is the power table (u**0, ..., u**(2**n - 1)); only its entries
    u**(2**j) become gates. The data register sits on qubits 0..q-1 and the n
    selector qubits above it; selector bit j (qubit q+j) controls u**(2**j),
    so selector value m applies u**m whatever the order of u.
    """
    size = len(powers)
    if size < 1 or size & (size - 1):
        raise ValueError(f"power table has {size} entries, not a power of two")
    n = size.bit_length() - 1
    shape = linalg.as_matrix(powers[0]).shape
    q = shape[0].bit_length() - 1
    if shape != (1 << q, 1 << q):
        raise ValueError(f"operator size {shape} is not a power-of-two square")
    data = tuple(range(q))
    ops = tuple(
        GateOp("unitary", targets=data, controls=(q + j,), matrix=powers[1 << j])
        for j in range(n)
    )
    return Circuit(n + q, ops)


def phase_block(n: int, alpha: float, theta0: float) -> Circuit:
    """Diagonal modulation diag(1, w**alpha, ..., w**((2**n - 1) alpha)) with
    w = exp(i theta0): qubit j gets a phase gate of angle 2**j * alpha * theta0."""
    if n < 1:
        raise ValueError("phase_block needs at least one qubit")
    ops = tuple(
        GateOp("p", targets=(j,), params=(2**j * alpha * theta0,)) for j in range(n)
    )
    return Circuit(n, ops)


def qft_circuit(n: int, inverse: bool = False) -> Circuit:
    """Fourier-transform circuit with forward kernel w = exp(-i 2 pi / 2**n):
    entry (j, k) of the unitary is w**(j k) / sqrt(2**n).

    The inverse flag conjugates the kernel. Built from Hadamards and
    controlled phases, with a final qubit-reversal swap layer.
    """
    if n < 1:
        raise ValueError("qft_circuit needs at least one qubit")
    sign = 1.0 if inverse else -1.0
    ops = []
    for t in range(n - 1, -1, -1):
        ops.append(GateOp("h", targets=(t,)))
        for c in range(t - 1, -1, -1):
            angle = sign * 2.0 * math.pi / 2 ** (t - c + 1)
            ops.append(GateOp("p", targets=(t,), controls=(c,), params=(angle,)))
    for k in range(n // 2):
        ops.append(GateOp("swap", targets=(k, n - 1 - k)))
    return Circuit(n, tuple(ops))


def increment_circuit(n: int) -> Circuit:
    """Cyclic shift |x> -> |x+1 mod 2**n>: a cascade of X gates, each
    controlled on every lower-significance qubit."""
    if n < 1:
        raise ValueError("increment_circuit needs at least one qubit")
    ops = tuple(
        GateOp("x", targets=(t,), controls=tuple(range(t))) for t in range(n - 1, -1, -1)
    )
    return Circuit(n, ops)


def _op_row_groups(op: GateOp, n: int) -> np.ndarray:
    """Basis indices the op acts on, grouped by target bit pattern.

    Returns shape (2**t, 2**(n - t - c)): row p lists, in a fixed order of
    the remaining bits, every index whose controls are all 1 and whose
    target bits spell pattern p.
    """
    touched = set(op.targets) | set(op.controls)
    free = [w for w in range(n) if w not in touched]
    fvals = np.arange(1 << len(free), dtype=np.int64)
    base = np.zeros(fvals.shape, dtype=np.int64)
    for p, w in enumerate(free):
        base |= ((fvals >> p) & 1) << w
    for c in op.controls:
        base += np.int64(1) << c
    t = len(op.targets)
    offsets = np.zeros(1 << t, dtype=np.int64)
    for pat in range(1 << t):
        o = 0
        for i, w in enumerate(op.targets):
            o |= ((pat >> i) & 1) << w
        offsets[pat] = o
    return offsets[:, None] + base[None, :]


def circuit_unitary(c: Circuit, columns: int | None = None) -> np.ndarray:
    """Dense unitary of the whole circuit (the slow reference path).

    With ``columns=k`` (1 <= k <= 2**num_qubits) only the first k columns are
    built, starting from the first k columns of the identity: the result
    equals ``circuit_unitary(c)[:, :k]`` at about k / 2**num_qubits of the
    cost.
    """
    linalg.check_qubit_budget(c.num_qubits)
    dim = 1 << c.num_qubits
    if columns is None:
        columns = dim
    elif (
        isinstance(columns, bool)
        or not isinstance(columns, numbers.Integral)
        or not 1 <= columns <= dim
    ):
        raise ValueError(f"columns must be an integer in 1..{dim}, got {columns!r}")
    acc = np.eye(dim, columns, dtype=complex)
    for op in c.ops:
        rows = _op_row_groups(op, c.num_qubits)
        # Left-multiply the embedded op: rows outside the control block are
        # untouched; rows inside mix according to the gate matrix.
        # One expression, so no name keeps a gathered block or a result alive
        # into the next op.
        acc[rows] = linalg.apply(
            op.base_matrix(), acc[rows].reshape(len(rows), -1)
        ).reshape(rows.shape + acc.shape[1:])
    return acc
