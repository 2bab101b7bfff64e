"""Circuit IR, the gate library, and the reference circuit constructions.

Qubit numbering follows the index convention of :mod:`qfrt.linalg`: qubit
``j`` carries bit value ``2**j``, so the most significant qubit is the
highest index (the top wire of a diagram). A multi-qubit gate's ``targets``
are ordered the same way: ``targets[i]`` holds the gate matrix's bit of
place value ``2**i``. Controls fire on |1>.

:func:`_op_step` is the one gate-application kernel: it builds an op's
in-place update of a register held as a qubit tensor, through strided
views, with no axis shuffling copy: a one-qubit gate updates its target's
two halves in place, and any other op maps a targets-first transpose of
the register.
:func:`circuit_unitary` runs it op by op, sending every payload, ``power``
ops included, through :meth:`GateOp.base_matrix`: it is the slow dense
reference the simulator is validated against. Its ``columns`` argument
builds only the images of the first basis states: an ancilla circuit on
ancilla |0...0> inputs needs just the first ``2**data_qubits``.

The simulator runs a circuit's :meth:`Circuit.plan` instead, on one state
or a block of columns: the same kernel's steps with their index work done
once per circuit and trace setting, each maximal run of small gates between
two traced marks fused into one dense payload of at most :data:`FUSE_WIRES`
wires, and each ``power`` op sent to its transform's
:meth:`BaseTransform.apply`: a builder's FFT, a hand-built kernel's power.
``verify --suite equivalence`` checks the circuit by that path, against the
oracle; ``circuit_unitary`` stays the reference for the tests, ``dump
--circuit-unitary`` and export checks.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import linalg
from .base_transforms import GATE_TOL, BaseTransform
from .errors import DimensionError

_SQ2 = 1.0 / math.sqrt(2.0)


def _const(rows) -> np.ndarray:
    return linalg.sealed(np.array(rows, dtype=complex))


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


def qct4_gate(name: str, j: int | None = None, n: int = 1) -> np.ndarray:
    """Single-qubit gates of the Type-IV cosine-sine circuit, N = 2**n.

    ``l``: diag(1, exp(i pi 2**(j-1) / N)) for level 1 <= j <= n.
    ``k``: X-conjugate of ``l`` (phase moved to the |0> entry).
    ``c``: diag(1, exp(i pi / 2N)).
    ``m``: the global-phase factor exp(-i pi / 4N) times the identity.
    """
    key = linalg.check_instance("name", name, str).lower()
    n = linalg.check_int("n", n, 1)
    big_n = 1 << n
    if key in ("l", "k"):
        j = linalg.check_int("j", j, 1, n)
        l_j = phase(math.pi * 2 ** (j - 1) / big_n)
        return l_j if key == "l" else X @ l_j @ X
    if key == "c":
        return phase(math.pi / (2 * big_n))
    if key == "m":
        return np.exp(-1j * math.pi / (4 * big_n)) * np.eye(2)
    raise KeyError(f"unknown gate {name!r}; valid names: l, k, c, m")


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate application on a register.

    ``name`` picks a fixed gate from the library, the parameterized phase
    gate ``"p"`` (angle in ``params[0]``), or a dense payload under the name
    ``"unitary"``; only ``"p"`` takes ``params``, and any other op, a payload
    op too, refuses them. A ``"unitary"`` op takes one of two payload forms:

    * ``matrix``: a literal matrix, checked unitary within ``GATE_TOL`` and
      kept as a sealed copy (:func:`linalg.frozen`), real when it is real;
    * ``power=(t, k)``: U**k of any :class:`BaseTransform` t, 1 <= k <
      t.order, on ``t.data_qubits`` targets, proven by t's one memoised
      :meth:`BaseTransform.check`. ``matrix`` is then None: the simulator
      applies the op through ``t.apply``, ``circuit_unitary`` and export
      through :meth:`base_matrix`, which reads ``t.power(k)``.

    ``targets[i]`` is the qubit holding the gate's bit of place value ``2**i``.
    Targets and controls must be distinct integers >= 0 (a bool is not one).
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None
    power: tuple[BaseTransform, int] | None = None

    def __post_init__(self):
        for name in ("targets", "controls"):
            wires = linalg.check_instance(name, getattr(self, name), Sequence)
            object.__setattr__(self, name, tuple(
                linalg.check_int(f"{name}[{i}]", w, 0) for i, w in enumerate(wires)))
        for i, p in enumerate(linalg.check_instance("params", self.params, Sequence)):
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"params[{i}] must be a real number, got {p!r}")
            try:
                float(p)
            except OverflowError:
                raise ValueError(f"params[{i}] must fit a float, got {p!r}") from None
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        wires = self.targets + self.controls
        if not self.targets:
            raise ValueError("gate needs at least one target")
        if len(set(wires)) != len(wires):
            raise ValueError(f"targets {self.targets} and controls {self.controls} overlap")
        if self.name == "unitary" and self.power is not None:
            self._check_power()
        elif self.name == "unitary":
            if self.matrix is None:
                raise ValueError("'unitary' op needs a matrix payload")
            m = linalg.as_matrix(self.matrix)
            if m.shape != (1 << len(self.targets),) * 2:
                raise ValueError(
                    f"payload shape {m.shape} does not fit {len(self.targets)} targets"
                )
            if not linalg.is_unitary(m, GATE_TOL):
                raise ValueError(f"matrix payload is not unitary within {GATE_TOL}")
            object.__setattr__(self, "matrix", linalg.frozen(m))
        else:
            if self.name not in GATE_ARITY:
                raise ValueError(f"unknown gate name {self.name!r}")
            if self.power is not None or self.matrix is not None:
                raise ValueError(f"named gate {self.name!r} cannot carry a payload")
            if len(self.targets) != GATE_ARITY[self.name]:
                raise ValueError(
                    f"gate {self.name!r} needs {GATE_ARITY[self.name]} targets, "
                    f"got {len(self.targets)}"
                )
            if self.name == "p" and (len(self.params) != 1 or not math.isfinite(self.params[0])):
                raise ValueError(f"phase gate 'p' needs one finite angle, got {self.params}")
        if self.params and self.name != "p":
            raise ValueError(f"gate {self.name!r} takes no parameters")

    def _check_power(self) -> None:
        if self.matrix is not None:
            raise ValueError("a 'power' op takes no matrix payload")
        if not isinstance(self.power, Sequence) or len(self.power) != 2:
            raise ValueError(f"a power payload is a (transform, k) pair, got {self.power!r}")
        t, k = self.power
        linalg.check_instance("a power payload's transform", t, BaseTransform)
        k = linalg.check_int(f"power of {t.id!r}", k, 1, t.order - 1)
        if len(self.targets) != t.data_qubits:
            raise ValueError(
                f"power of {t.id!r} needs {t.data_qubits} targets, got {len(self.targets)}"
            )
        t.check()
        object.__setattr__(self, "power", (t, k))

    def base_matrix(self) -> np.ndarray:
        """The gate's matrix on its targets, controls not included: a
        ``power`` op's is ``t.power(k)``, read from t."""
        if self.power is not None:
            t, k = self.power
            return t.power(k)
        if self.name == "unitary":
            return self.matrix
        if self.name == "p":
            return linalg.sealed(phase(self.params[0]))
        return _FIXED_GATES[self.name]

    @property
    def span(self) -> int:
        return max(self.targets + self.controls) + 1


#: Most wires (targets and controls) a group of fused gates may touch: a
#: fused step's payload is at most 8x8.
FUSE_WIRES = 3


@dataclass(frozen=True, eq=False)
class Step:
    """One in-place update of a register in a circuit's plan: the circuit's
    ops[start:stop] as one op, the op itself or the fused ``"unitary"`` op
    of a group, with its index work done. ``apply(reg)`` runs it on a
    [2]*n + [columns] register tensor (see :func:`_op_step`)."""

    op: GateOp
    start: int
    stop: int
    apply: Callable[[np.ndarray], None] = field(repr=False)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gate applications on a sized qubit register.

    ``marks`` are labeled op boundaries for state tracing: ``(label, i)``
    names the state reached after the first ``i`` ops, 0 <= i <= len(ops).
    """

    num_qubits: int
    ops: tuple[GateOp, ...] = ()
    marks: tuple[tuple[str, int], ...] = ()
    # The untraced and the traced plan, keyed False and True, each built on first use.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(linalg.check_instance("ops", self.ops, Sequence)))
        object.__setattr__(self, "num_qubits", linalg.check_int("num_qubits", self.num_qubits, 1))
        for i, op in enumerate(self.ops):
            if linalg.check_instance(f"op {i}", op, GateOp).span > self.num_qubits:
                raise ValueError(
                    f"op {op.name!r} touches qubit {op.span - 1}, register has "
                    f"{self.num_qubits}"
                )
        for i, mark in enumerate(linalg.check_instance("marks", self.marks, Sequence)):
            if not isinstance(mark, Sequence) or len(mark) != 2:
                raise DimensionError(f"marks[{i}] must be a (label, index) pair, got {mark!r}")
        object.__setattr__(self, "marks", tuple(
            (label, linalg.check_int(f"mark {label!r}", idx, 0, len(self.ops)))
            for label, idx in self.marks))

    def plan(self, traced=None) -> tuple[Step, ...]:
        """The steps :func:`qfrt.simulator.run` executes, stopping at every
        mark's boundary if ``traced``, else at none; each built once.
        ``traced`` is None, False or True, numpy bools too: anything else is
        a ValueError, the one rule for :func:`qfrt.simulator.run`'s ``trace``.

        Each maximal run of consecutive ops that are not ``power`` ops and
        touch at most :data:`FUSE_WIRES` wires between them, and that no
        boundary splits, is one step with a fused ``"unitary"`` payload
        (:func:`_fused`); any other op is its own step. ``power`` payloads
        go to their transform's :meth:`BaseTransform.apply`.
        """
        if traced is not None and not isinstance(traced, (bool, np.bool_)):
            raise ValueError(f"trace takes None, False or True, not {traced!r}")
        traced = bool(traced)
        plan = self._plans.get(traced)
        if plan is None:
            plan = self._plans[traced] = _build_plan(self, traced)
        return plan


def _build_plan(c: Circuit, traced: bool) -> tuple[Step, ...]:
    cuts = {i for _, i in c.marks} if traced else set()
    groups: list[list[int]] = []  # [start, stop) op ranges
    wires: set[int] = set()
    fusable = False  # whether the last group may take the next op
    for i, op in enumerate(c.ops):
        op_wires = set(op.targets + op.controls)
        small = op.power is None and len(op_wires) <= FUSE_WIRES
        if small and fusable and i not in cuts and len(wires | op_wires) <= FUSE_WIRES:
            groups[-1][1] = i + 1
            wires |= op_wires
        else:
            groups.append([i, i + 1])
            wires = op_wires
        fusable = small
    steps = []
    for start, stop in groups:
        op = c.ops[start] if stop - start == 1 else _fused(c.ops[start:stop])
        steps.append(Step(op, start, stop, _op_step(op, c.num_qubits, matrix_free=True)))
    return tuple(steps)


def _fused(ops) -> GateOp:
    """One ``"unitary"`` op for ops in turn, on the wires they touch in
    ascending order: its matrix, :func:`circuit_unitary` of the ops re-homed
    to those wires (so under the budget), is checked unitary and sealed."""
    wires = sorted({w for op in ops for w in op.targets + op.controls})
    local = {w: i for i, w in enumerate(wires)}
    group = Circuit(len(wires), [replace(op, targets=[local[w] for w in op.targets],
                                         controls=[local[w] for w in op.controls]) for op in ops])
    return GateOp("unitary", targets=wires, matrix=circuit_unitary(group))


def multiplexed_powers(t: BaseTransform, inverse: bool = False) -> Circuit:
    """Circuit for the multiplexed powers diag(u**0, u**s, ..., u**(s (2**n - 1)))
    of a :class:`BaseTransform` t of order 2**n, with s = -1 if ``inverse``
    else 1.

    The data register sits on qubits 0..q-1 and the n selector qubits above
    it; selector bit j (qubit q+j) controls the ``power`` payload op (t,
    s 2**j mod 2**n) (see :class:`GateOp`), so selector value m applies
    u**(s m). Every payload op of the fractionalization circuits is made here.
    """
    linalg.check_instance("t", t, BaseTransform)
    n, q, sign = t.order_exponent, t.data_qubits, -1 if inverse else 1
    data = tuple(range(q))
    ops = [
        GateOp("unitary", targets=data, controls=(q + j,), power=(t, sign * (1 << j) % t.order))
        for j in range(n)
    ]
    return Circuit(n + q, ops)


def phase_block(n: int, alpha: float) -> Circuit:
    """Diagonal modulation diag(1, w**alpha, ..., w**((2**n - 1) alpha)) with
    w = exp(i theta0), theta0 = -2 pi / 2**n: qubit j gets a phase gate of
    angle 2**j * alpha * theta0, alpha reduced mod 2**n first, exactly."""
    n = linalg.check_int("n", n, 1)
    alpha = linalg.reduce_alpha(alpha, 1 << n)
    theta0 = -2.0 * math.pi / (1 << n)
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
    n = linalg.check_int("n", n, 1)
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
    n = linalg.check_int("n", n, 1)
    ops = tuple(
        GateOp("x", targets=(t,), controls=tuple(range(t))) for t in range(n - 1, -1, -1)
    )
    return Circuit(n, ops)


def _op_step(op: GateOp, n: int, matrix_free: bool) -> Callable[[np.ndarray], None]:
    """The in-place update op makes of an n-qubit register held as a [2]*n +
    [columns] tensor, with its index work done: the one gate-application
    kernel, which :func:`circuit_unitary` runs op by op and a :class:`Step`
    of a plan holds ready made. Axis a < n is qubit n-1-a (a C-order
    reshape of 2**n rows); the last axis is carried along (1 for a single
    state). Controls pick the |1> slice of their axes, and the op then takes
    one of three paths, each writing through views of the register:

    * a one-qubit gate that is not a ``power`` op updates the target's |0>
      and |1> halves of that slice in place (:func:`_mix_halves`);
    * with ``matrix_free``, a ``power`` op's target axes are brought to the
      front by one transpose and its transform's
      :meth:`BaseTransform.apply` maps them;
    * any other op, a ``power`` op included, multiplies the same
      targets-first block by :meth:`GateOp.base_matrix`.

    The block is a view, not a copy, when the target axes already lead and
    are contiguous (a payload on the data qubits under a single ancilla).
    """
    sel = [slice(None)] * (n + 1)
    for c in op.controls:
        sel[n - 1 - c] = 1
    if len(op.targets) == 1 and op.power is None:
        axis = n - 1 - op.targets[0]
        sel[axis] = 0
        half0 = tuple(sel)
        sel[axis] = 1
        half1 = tuple(sel)
        g = op.base_matrix()
        return lambda reg: _mix_halves(g, reg[half0], reg[half1])
    kept = [a for a in range(n + 1) if isinstance(sel[a], slice)]
    # Gate axis p carries the gate's bit t-1-p, living on qubit targets[t-1-p].
    pos = [kept.index(n - 1 - q) for q in reversed(op.targets)]
    order = tuple(pos + [a for a in range(len(kept)) if a not in pos])
    rows, sel = 1 << len(pos), tuple(sel)
    if matrix_free and op.power is not None:
        payload = partial(op.power[0].apply, k=op.power[1])
    else:
        payload = partial(linalg.apply, op.base_matrix())

    def step(reg: np.ndarray) -> None:
        moved = reg[sel].transpose(order)
        moved[...] = payload(moved.reshape(rows, -1)).reshape(moved.shape)

    return step


#: Halves larger than this many amplitudes are mixed piece by piece along
#: their first axis, so that each piece's temporaries stay in cache.
_PIECE = 1 << 14


def _mix_halves(g: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> None:
    """(a0, a1) <- (g00 a0 + g01 a1, g10 a0 + g11 a1) in place: a diagonal g scales
    a half whose entry is not 1, r [[1, 1], [1, -1]] (r real) takes two passes."""
    if a0.size > _PIECE and a0.ndim > 1:
        for b0, b1 in zip(a0, a1):
            _mix_halves(g, b0, b1)
        return
    r = g[0, 0].real
    if g[0, 1] == 0 and g[1, 0] == 0:
        if g[0, 0] != 1:
            a0 *= g[0, 0]
        if g[1, 1] != 1:
            a1 *= g[1, 1]
    elif g[0, 0] == g[0, 1] == g[1, 0] == -g[1, 1] == r:
        diff = a0 - a1
        a0 += a1
        a0 *= r
        np.multiply(diff, r, out=a1)
    else:
        new0 = a0 * g[0, 0]
        new0 += a1 * g[0, 1]
        a1 *= g[1, 1]
        a1 += a0 * g[1, 0]
        a0[...] = new0


def circuit_unitary(c: Circuit, columns: int | None = None) -> np.ndarray:
    """Dense unitary of the whole circuit (the slow reference path): every
    op, a ``power`` op included, multiplies the identity columns by its
    matrix through :func:`_op_step`.

    With ``columns=k`` (1 <= k <= 2**num_qubits) only the first k columns are
    built, starting from the first k columns of the identity: the result
    equals ``circuit_unitary(c)[:, :k]`` at about k / 2**num_qubits of the
    cost.
    """
    linalg.check_qubit_budget("circuit_unitary", linalg.check_instance("c", c, Circuit).num_qubits)
    dim = 1 << c.num_qubits
    columns = dim if columns is None else linalg.check_int("columns", columns, 1, dim)
    acc = np.eye(dim, columns, dtype=complex)
    reg = acc.reshape([2] * c.num_qubits + [columns])
    for op in c.ops:
        _op_step(op, c.num_qubits, matrix_free=False)(reg)
    return acc
