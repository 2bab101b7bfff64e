import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    count_calls,
    dft_matrix,
    embedded_op_matrix,
    random_circuit,
    random_state,
)
from qfrt import circuits, linalg
from qfrt.base_transforms import BaseTransform, fourier_transform, hartley_transform
from qfrt.circuits import FUSE_WIRES, Circuit, GateOp, _op_step, circuit_unitary
from qfrt.errors import QubitBudgetError
from qfrt.fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    fractional_oracle,
)
from qfrt.simulator import (
    DUMP_EPS,
    ancilla_restoration_probability,
    basis_state,
    format_state,
    run,
)

_S2 = 2.0 ** -0.5


def apply_one(state, op):
    """The state after a one-op circuit; run() works on a copy."""
    n = state.size.bit_length() - 1
    return run(Circuit(n, (op,)), state)[0]


class TestApplyGate:
    def test_hadamard_on_zero(self):
        got = apply_one(basis_state(1), GateOp("h", targets=(0,)))
        assert np.max(np.abs(got - np.array([_S2, _S2]))) <= 1e-15

    def test_cnot_control_high_qubit(self):
        got = apply_one(basis_state(2, 2), GateOp("x", targets=(0,), controls=(1,)))
        assert np.array_equal(got, basis_state(2, 3))

    def test_cnot_control_unset(self):
        got = apply_one(basis_state(2, 1), GateOp("x", targets=(0,), controls=(1,)))
        assert np.array_equal(got, basis_state(2, 1))

    def test_phase_on_one(self):
        got = apply_one(basis_state(1, 1), GateOp("p", targets=(0,), params=(0.7,)))
        assert abs(got[1] - np.exp(0.7j)) <= 1e-15

    def test_input_not_mutated(self):
        state = basis_state(1)
        apply_one(state, GateOp("x", targets=(0,)))
        assert np.array_equal(state, basis_state(1))


class TestRun:
    def test_empty_circuit(self):
        rng = np.random.default_rng(2)
        state = random_state(3, rng)
        final, records = run(Circuit(3), state)
        assert np.array_equal(final, state)
        assert records == []

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            run(Circuit(2), basis_state(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_state_rejected(self, bad):
        state = np.full(8, 8 ** -0.5, dtype=complex)
        state[5] = bad
        with pytest.raises(ValueError, match="state"):
            run(Circuit(3, (GateOp("h", targets=(0,)),)), state)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0, np.nan), complex(0, np.inf)])
    @pytest.mark.parametrize("layout", ["strided_state", "strided_block", "fortran_block"])
    def test_non_finite_amplitude_rejected_in_any_layout(self, layout, bad):
        # run checks the float64 view of its own C-ordered copy of the input.
        block = np.full((8, 4), 8 ** -0.5, dtype=complex)
        block[5, 2] = bad
        state = {"strided_state": block[:, 2], "strided_block": block[:, ::2],
                 "fortran_block": np.asfortranarray(block)}[layout]
        assert not state.flags.c_contiguous
        with pytest.raises(ValueError, match="^state has a NaN or Inf amplitude$"):
            run(Circuit(3, (GateOp("h", targets=(0,)),)), state)

    @pytest.mark.parametrize("trace", ["psi1", ["psi2"], {"psi2"}, 1, 2.5],
                             ids=["string", "list", "set", "int", "float"])
    def test_trace_labels_must_be_marks(self, trace):
        # A caller that wants some marks traces all and picks from the records.
        c = build_qfru_circuit(FractionalSpec(fourier_transform(1), 0.5))
        with pytest.raises(ValueError, match=f"not {re.escape(repr(trace))}$"):
            run(c, basis_state(c.num_qubits), trace=trace)

    @pytest.mark.parametrize("trace,count", [(np.True_, 8), (np.False_, 0)],
                             ids=["true", "false"])
    def test_numpy_bool_trace(self, trace, count):
        c = build_qfru_circuit(FractionalSpec(fourier_transform(1), 0.5))
        _, records = run(c, basis_state(c.num_qubits), trace=trace)
        assert len(records) == count

    def test_state_must_be_one_dimensional(self):
        state = random_state(4, np.random.default_rng(3)).reshape(4, 4)
        with pytest.raises(ValueError, match=r"shape \(4, 4\)"):
            run(Circuit(4, (GateOp("h", targets=(0,)),)), state)

    @pytest.mark.parametrize("shape", [(4, 2), (8, 0), (8, 1, 1), ()])
    def test_a_state_or_block_needs_one_row_per_basis_state(self, shape):
        # A wrong row count, a block of no columns, a 3-D array or a scalar.
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}$"):
            run(Circuit(3, (GateOp("h", targets=(0,)),)), np.ones(shape, dtype=complex))

    def test_a_block_runs_each_column_and_keeps_its_shape(self):
        rng = np.random.default_rng(12)
        c = build_qfru_circuit(FractionalSpec(fourier_transform(2), 0.37))
        block = np.stack([random_state(c.num_qubits, rng) for _ in range(3)], axis=1)
        before = block.copy()
        final, records = run(c, block, trace=True)
        assert final.shape == block.shape and np.array_equal(block, before)
        assert [r.state.shape for r in records] == [block.shape] * len(c.marks)
        for j in range(block.shape[1]):
            column, column_records = run(c, block[:, j], trace=True)
            assert np.max(np.abs(final[:, j] - column)) <= 1e-13
            for r, cr in zip(records, column_records):
                assert r.label == cr.label and np.max(np.abs(r.state[:, j] - cr.state)) <= 1e-13

    def test_norm_preserved_through_long_random_circuit(self):
        rng = np.random.default_rng(8)
        ops = random_circuit(8, 1000, rng).ops
        marks = tuple((f"op{i}", i) for i in range(1, len(ops) + 1))
        _, records = run(Circuit(8, ops, marks), random_state(8, rng), trace=True)
        assert len(records) == len(ops)
        for r in records:
            assert abs(np.linalg.norm(r.state) - 1.0) <= 1e-12


class TestQfruTrace:
    """Intermediate states of the fractional-Fourier circuit on |00>|u>."""

    @pytest.fixture()
    def traced(self):
        rng = np.random.default_rng(55)
        q, alpha = 2, 0.8
        spec = FractionalSpec(fourier_transform(q), alpha)
        circuit = build_qfru_circuit(spec)
        u = random_state(q, rng)
        state = np.zeros(1 << circuit.num_qubits, dtype=complex)
        state[: u.size] = u
        final, records = run(circuit, state, trace=True)
        return spec, u, final, {r.label: r.state for r in records}

    def test_uniform_ancilla_superposition_after_first_layer(self, traced):
        spec, u, _, states = traced
        expected = np.kron(np.full(4, 0.5), u)
        assert np.max(np.abs(states["psi1"] - expected)) <= 1e-12

    def test_multiplexed_powers_branch_the_data(self, traced):
        spec, u, _, states = traced
        f = spec.base.dense
        parts = [0.5 * np.linalg.matrix_power(f, k) @ u for k in range(4)]
        assert np.max(np.abs(states["psi2"] - np.concatenate(parts))) <= 1e-10

    def test_ancilla_components_equal_before_final_layer(self, traced):
        _, u, _, states = traced
        branches = states["psi6"].reshape(4, u.size)
        for k in range(1, 4):
            assert np.max(np.abs(branches[k] - branches[0])) <= 1e-10

    def test_final_state_restores_ancillas(self, traced):
        spec, u, final, _ = traced
        assert abs(ancilla_restoration_probability(final, 2) - 1.0) <= 1e-10
        expected = fractional_oracle(spec) @ u
        assert np.max(np.abs(final[: u.size] - expected)) <= 1e-10

    def test_all_marks_recorded(self, traced):
        _, _, _, states = traced
        assert set(states) == {f"psi{i}" for i in range(8)}


@pytest.mark.parametrize("transform", [fourier_transform(3), hartley_transform(3)],
                         ids=lambda t: t.id)
class TestTraceBuffer:
    """Trace records are copies of the state at their marks, in one buffer."""

    @pytest.fixture()
    def traced(self, transform):
        circuit = build_qfru_circuit(FractionalSpec(transform, 0.63))
        state = random_state(circuit.num_qubits, np.random.default_rng(17))
        final, records = run(circuit, state, trace=True)
        return circuit, state, final, records

    def test_records_are_prefix_states(self, traced):
        circuit, state, _, records = traced
        assert [r.label for r in records] == [label for label, _ in circuit.marks]
        for r in records:
            prefix = Circuit(circuit.num_qubits, circuit.ops[: r.step_index])
            assert np.max(np.abs(r.state - run(prefix, state)[0])) <= 1e-15

    def test_records_are_independent(self, traced):
        _, _, final, records = traced
        kept = [r.state.copy() for r in records]
        final_kept = final.copy()
        records[3].state[:] = 7.0
        for i, r in enumerate(records):
            if i != 3:
                assert np.array_equal(r.state, kept[i])
        assert np.array_equal(final, final_kept)


def test_kernel_moves_no_axes(monkeypatch):
    # the kernel transposes views; it never calls np.moveaxis
    def refuse(*args, **kwargs):
        raise AssertionError("np.moveaxis called")

    spec = FractionalSpec(fourier_transform(3), 0.37)
    circuit = build_qfru_circuit(spec)
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[:8] = random_state(3, np.random.default_rng(4))
    monkeypatch.setattr(np, "moveaxis", refuse)
    final, _ = run(circuit, state)
    cols = circuit_unitary(circuit, columns=8)
    monkeypatch.undo()
    oracle = fractional_oracle(spec)
    assert np.max(np.abs(final[:8] - oracle @ state[:8])) <= 1e-10
    assert np.max(np.abs(cols[:8] - oracle)) <= 1e-10
    assert np.max(np.abs(final - cols @ state[:8])) <= 1e-14


def test_wide_register_run_restores_ancillas():
    # 6 data qubits + 2 ancillas: exercises the strided path on 256 amplitudes
    rng = np.random.default_rng(60)
    spec = FractionalSpec(fourier_transform(6), 1.3)
    circuit = build_qfru_circuit(spec)
    data = random_state(6, rng)
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[: data.size] = data
    final, _ = run(circuit, state)
    assert abs(ancilla_restoration_probability(final, 2) - 1.0) <= 1e-10
    assert np.max(np.abs(final[: data.size] - fractional_oracle(spec) @ data)) <= 1e-10


class TestCrossValidation:
    def test_columns_match_circuit_unitary(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            c = random_circuit(n, int(rng.integers(5, 40)), rng)
            u = circuit_unitary(c)
            col = int(rng.integers(0, 1 << n))
            final, _ = run(c, basis_state(n, col))
            assert np.max(np.abs(final - u[:, col])) <= 1e-12

    def test_unitarity_of_random_circuits(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            c = random_circuit(4, 30, rng)
            assert linalg.is_unitary(circuit_unitary(c), tol=1e-10)


def _marked_circuit(rng):
    """A random circuit on 3-5 wires with power ops mixed in, of a built-in
    (FFT ``apply``) and of a hand-built kernel (dense payload), and five
    marks at random boundaries, two of them sharing one."""
    n = int(rng.integers(3, 6))
    ops = list(random_circuit(n, int(rng.integers(6, 17)), rng).ops)
    powers = (fourier_transform(2), BaseTransform("hand", 2, 2, dft_matrix(4)))
    for _ in range(int(rng.integers(1, 4))):
        wires = [int(w) for w in rng.permutation(n)]
        op = GateOp("unitary", targets=tuple(wires[:2]), controls=tuple(wires[2:3]),
                    power=(powers[int(rng.integers(0, 2))], int(rng.integers(1, 4))))
        ops.insert(int(rng.integers(0, len(ops) + 1)), op)
    at = [int(i) for i in rng.integers(0, len(ops) + 1, size=4)]
    marks = [(f"m{i}", idx) for i, idx in enumerate(at + at[:1])]
    return Circuit(n, tuple(ops), tuple(marks))


def _wires(ops):
    return {w for op in ops for w in op.targets + op.controls}


class TestPlan:
    """``run`` executes a plan of fused steps; each record is still the
    state at its mark, as the op-by-op kernel and the dense reference give."""

    @pytest.mark.parametrize("seed", range(10))
    def test_plan_matches_op_by_op_and_reference(self, seed):
        rng = np.random.default_rng(4200 + seed)
        circuit = _marked_circuit(rng)
        n = circuit.num_qubits
        state = random_state(n, rng)
        prefix_u = [np.eye(1 << n, dtype=complex)]
        op_by_op = [state]
        reg = state.reshape([2] * n + [1]).copy()
        for op in circuit.ops:
            prefix_u.append(embedded_op_matrix(op, n) @ prefix_u[-1])
            _op_step(op, n, matrix_free=True)(reg)
            op_by_op.append(reg.ravel().copy())
        for trace in (None, False, True):
            final, records = run(circuit, state, trace=trace)
            assert [(r.label, r.step_index) for r in records] == sorted(
                circuit.marks if trace else (), key=lambda m: m[1])
            for label, state_at, idx in [(r.label, r.state, r.step_index) for r in records] + [
                    ("final", final, len(circuit.ops))]:
                assert np.max(np.abs(state_at - prefix_u[idx] @ state)) <= 1e-14, label
                assert np.max(np.abs(state_at - op_by_op[idx])) <= 1e-14, label

    @pytest.mark.parametrize("seed", range(10))
    def test_fused_steps_hold_no_power_op_and_split_at_wanted_marks(self, seed):
        rng = np.random.default_rng(4300 + seed)
        circuit = _marked_circuit(rng)
        ops = circuit.ops
        small = [op.power is None and len(_wires([op])) <= FUSE_WIRES for op in ops]
        for traced in (False, True):
            cuts = {i for _, i in circuit.marks} if traced else set()
            plan = circuit.plan(traced)
            assert [s.start for s in plan] == [0] + [s.stop for s in plan[:-1]]
            assert plan[-1].stop == len(ops)
            for s in plan:
                group = ops[s.start:s.stop]
                if len(group) == 1:
                    assert s.op is group[0]
                    continue
                assert all(small[s.start:s.stop])
                assert not any(s.start < b < s.stop for b in cuts)
                assert s.op.name == "unitary" and s.op.power is None
                assert s.op.targets == tuple(sorted(_wires(group)))
                assert len(s.op.targets) <= FUSE_WIRES
                # the payload is circuit_unitary of the group on its sorted wires
                local = {w: i for i, w in enumerate(s.op.targets)}
                rehomed = Circuit(len(local), [
                    replace(op, targets=[local[w] for w in op.targets],
                            controls=[local[w] for w in op.controls]) for op in group])
                assert s.op.matrix.tobytes() == circuit_unitary(rehomed).tobytes()
            # each fused run is maximal: the next step could not have joined it
            for a, b in zip(plan, plan[1:]):
                if all(small[a.start:b.stop]) and b.start not in cuts:
                    assert len(_wires(ops[a.start:b.stop])) > FUSE_WIRES

    def test_plan_built_once_per_selection(self, monkeypatch):
        built = count_calls(monkeypatch, circuits, "_build_plan")
        c = build_qfru_circuit(FractionalSpec(fourier_transform(2), 0.3))
        state = basis_state(c.num_qubits)
        for trace in (True, None, True, np.True_, None, False, np.False_):
            run(c, state, trace=trace)
        assert c.plan(False) is c.plan(False) and c.plan(True) is c.plan(True)
        assert len(built) == 2

    @pytest.mark.parametrize("build,ops,traced,untraced", [
        (lambda: build_qfru_circuit(FractionalSpec(fourier_transform(3), 0.3)), 18, 9, 7),
        (lambda: build_qfrin_circuit(hartley_transform(3), 0.3), 7, 7, 5),
    ], ids=["fourier_qfru", "hartley_qfrin"])
    def test_step_counts(self, build, ops, traced, untraced):
        c = build()
        assert (len(c.ops), len(c.plan(True)), len(c.plan(False))) == (ops, traced, untraced)


class TestRestorationProbability:
    def test_all_ones_state(self):
        assert ancilla_restoration_probability(basis_state(3, 7), 1) == 0.0

    def test_uniform_half(self):
        state = np.full(4, 0.5, dtype=complex)
        assert abs(ancilla_restoration_probability(state, 1) - 0.5) <= 1e-15

    def test_no_ancillas(self):
        assert ancilla_restoration_probability(basis_state(2, 3), 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ancilla_restoration_probability(basis_state(2), 3)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, "1", None])
    def test_non_integer_ancillas_rejected(self, bad):
        with pytest.raises(ValueError, match="num_ancillas"):
            ancilla_restoration_probability(np.ones(8), bad)

    def test_numpy_integer_accepted(self):
        state = np.full(4, 0.5, dtype=complex)
        assert abs(ancilla_restoration_probability(state, np.int64(1)) - 0.5) <= 1e-15


@pytest.mark.parametrize("read", [format_state,
                                  lambda s: ancilla_restoration_probability(s, 0)],
                         ids=["format_state", "ancilla_restoration_probability"])
@pytest.mark.parametrize("size", [0, 3, 6])
def test_a_state_length_must_be_a_power_of_two(read, size):
    with pytest.raises(ValueError, match=f"^state length {size} is not a power of two$"):
        read(np.ones(size, dtype=complex))


@pytest.mark.parametrize("read", [format_state,
                                  lambda s: ancilla_restoration_probability(s, 1)],
                         ids=["format_state", "ancilla_restoration_probability"])
@pytest.mark.parametrize("shape", [(4, 4), (8, 1), ()])
def test_a_block_or_scalar_is_not_a_state(read, shape):
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}$"):
        read(np.ones(shape, dtype=complex))


def test_a_fused_payload_is_under_the_budget(monkeypatch):
    # A fused payload is a dense operator: circuit_unitary of its group checks
    # the budget, so a 3-wire run fails under a 2-qubit one.
    c = Circuit(3, [GateOp("h", (0,)), GateOp("x", (1,), (0,)), GateOp("x", (2,), (1,))])
    state = np.eye(8, 1).ravel()
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "2")
    with pytest.raises(QubitBudgetError,
                       match="^circuit_unitary: 3 qubits exceed the 2-qubit budget$"):
        run(c, state)
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
    assert np.allclose(run(c, state)[0], _S2 * (np.eye(8)[0] + np.eye(8)[7]))


@pytest.mark.parametrize("budget", [None, "3"], ids=["default", "QFRT_MAX_QUBITS"])
def test_basis_state_refuses_a_register_over_the_qubit_budget(monkeypatch, budget):
    # basis_state(64) once died inside numpy: "Maximum allowed dimension exceeded".
    if budget is not None:
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, budget)
    top = linalg.max_qubits()
    assert basis_state(top, 1)[1] == 1
    for num_qubits in (top + 1, 64):
        with pytest.raises(QubitBudgetError, match=f"^basis_state: {num_qubits} qubits exceed "
                                                   f"the {top}-qubit budget$"):
            basis_state(num_qubits)


class TestFormatState:
    def test_bitstrings_are_msb_first(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        assert list(format_state(state)) == ["10 1,0"]

    def test_small_amplitudes_dropped(self):
        state = np.array([1.0, 2.0 ** -60], dtype=complex)
        assert list(format_state(state)) == ["0 1,0"]
        full = list(format_state(state, full=True))
        assert len(full) == 2 and full[0] == "0 1,0"

    def test_no_amplitude_above_the_cutoff_gives_no_lines(self):
        state = np.array([DUMP_EPS, 0.0], dtype=complex)
        assert list(format_state(state)) == []
        assert len(list(format_state(state, full=True))) == 2
