import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dft_matrix,
    random_dyadic_unitary,
    random_state,
    random_unitary,
    reference_circuit_unitary,
)
from qfrt import circuits, linalg
from qfrt.base_transforms import (
    BaseTransform,
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
)
from qfrt.circuits import (
    B,
    BDAG,
    Circuit,
    GateOp,
    H,
    R,
    S,
    X,
    Y,
    Z,
    _op_step,
    circuit_unitary,
    increment_circuit,
    multiplexed_powers,
    phase,
    phase_block,
    qct4_gate,
    qft_circuit,
)
from qfrt.errors import QubitBudgetError
from qfrt.fractional import FractionalSpec, build_qfrin_circuit, build_qfru_circuit
from qfrt.simulator import basis_state, run

# The 4-point Fourier matrix with kernel w = exp(-i 2 pi / 4) = -i.
F2_EXPECTED = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1j, -1, 1j], [1, -1, 1, -1], [1, 1j, -1, -1j]]
)
F2_INV_EXPECTED = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
)

# Controlled-X with the control on the high qubit.
CNOT_EXPECTED = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class TestStandardGates:
    def test_pauli_and_hadamard_values(self):
        assert np.array_equal(X, [[0, 1], [1, 0]])
        assert np.array_equal(Y, [[0, -1j], [1j, 0]])
        assert np.array_equal(Z, [[1, 0], [0, -1]])
        s2 = 1 / math.sqrt(2)
        assert linalg.max_norm_diff(H, [[s2, s2], [s2, -s2]]) == 0.0

    def test_phase_at_half_pi_is_s(self):
        assert linalg.max_norm_diff(phase(math.pi / 2), S) <= 1e-15

    def test_phase_adjoint_negates_the_angle(self):
        assert linalg.max_norm_diff(phase(0.7).conj().T, phase(-0.7)) <= 1e-15

    def test_r_value_and_decomposition(self):
        expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        assert np.array_equal(R, expected)
        assert linalg.max_norm_diff(R, H @ S @ H) <= 1e-12

    def test_b_value_and_decomposition(self):
        s2 = 1 / math.sqrt(2)
        assert linalg.max_norm_diff(B, np.array([[s2, s2 * 1j], [s2, -s2 * 1j]])) == 0.0
        assert linalg.max_norm_diff(B, H @ S) <= 1e-12

    def test_bdag_value_and_decomposition(self):
        assert linalg.max_norm_diff(BDAG, B.conj().T) <= 1e-15
        assert linalg.max_norm_diff(BDAG, phase(-math.pi / 2) @ H) <= 1e-12

    def test_phase_needs_angle(self):
        for params in ((), (0.1, 0.2), (math.nan,), (math.inf,), (-math.inf,)):
            with pytest.raises(ValueError, match="'p' needs one finite angle"):
                GateOp("p", targets=(0,), params=params)

    def test_phase_op_gives_a_sealed_gate(self):
        op = GateOp("p", targets=(0,), controls=(1,), params=(0.7,))
        gate = op.base_matrix()
        assert not gate.flags.writeable and np.array_equal(gate, phase(0.7))
        assert op.matrix is None and "array" not in repr(op)


class TestQct4Gates:
    def test_l_level_one_n_one_is_s(self):
        assert linalg.max_norm_diff(qct4_gate("l", 1, n=1), S) <= 1e-12

    def test_k_moves_phase_to_zero_entry(self):
        for n in (1, 2, 3):
            for j in range(1, n + 1):
                k = qct4_gate("k", j, n=n)
                l = qct4_gate("l", j, n=n)
                assert k[0, 0] == l[1, 1]
                assert k[1, 1] == l[0, 0]
                assert linalg.max_norm_diff(k, X @ l @ X) == 0.0

    def test_m_global_phase_n_one(self):
        expected = cmath.exp(-1j * math.pi / 8) * np.eye(2)
        assert linalg.max_norm_diff(qct4_gate("m", n=1), expected) <= 1e-15

    def test_formula_values(self):
        for n in (1, 2, 3):
            big_n = 1 << n
            for j in range(1, n + 1):
                expected = cmath.exp(1j * math.pi * 2 ** (j - 1) / big_n)
                assert abs(qct4_gate("l", j, n=n)[1, 1] - expected) <= 1e-15
            assert abs(qct4_gate("c", n=n)[1, 1] - cmath.exp(1j * math.pi / (2 * big_n))) <= 1e-15
            assert abs(qct4_gate("m", n=n)[0, 0] - cmath.exp(-1j * math.pi / (4 * big_n))) <= 1e-15

    def test_level_laddering(self):
        # L_j squared climbs one level; the top level squares to Z.
        for n in (2, 3):
            for j in range(1, n):
                got = qct4_gate("l", j, n=n) @ qct4_gate("l", j, n=n)
                assert linalg.max_norm_diff(got, qct4_gate("l", j + 1, n=n)) <= 1e-14
            top = qct4_gate("l", n, n=n)
            assert linalg.max_norm_diff(top @ top, Z) <= 1e-14
            c = qct4_gate("c", n=n)
            assert linalg.max_norm_diff(c @ c, qct4_gate("l", 1, n=n)) <= 1e-14

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            qct4_gate("l", 3, n=2)
        with pytest.raises(KeyError):
            qct4_gate("w", 1, n=1)


class TestControlled:
    """Controls put the gate in the all-controls-|1> block: block-diag(I, ..., I, g)."""

    def test_cnot(self):
        # simulator columns, independent of circuit_unitary (test_cnot_convention)
        c = Circuit(2, (GateOp("x", targets=(0,), controls=(1,)),))
        got = np.column_stack([run(c, basis_state(2, k))[0] for k in range(4)])
        assert np.array_equal(got, CNOT_EXPECTED)

    def test_identity_any_controls(self):
        op = GateOp("unitary", targets=(0,), controls=(1, 2, 3), matrix=np.eye(2))
        assert np.array_equal(circuit_unitary(Circuit(4, (op,))), np.eye(16))

    def test_controlled_hadamard_blocks(self):
        ch = circuit_unitary(Circuit(2, (GateOp("h", targets=(0,), controls=(1,)),)))
        assert np.array_equal(ch[:2, :2], np.eye(2))
        assert np.array_equal(ch[2:, 2:], H)
        assert np.all(ch[:2, 2:] == 0) and np.all(ch[2:, :2] == 0)


class TestGateOpValidation:
    def test_overlapping_wires(self):
        with pytest.raises(ValueError):
            GateOp("x", targets=(0,), controls=(0,))

    def test_non_unitary_payload(self):
        with pytest.raises(ValueError):
            GateOp("unitary", targets=(0,), matrix=np.array([[1.0, 0], [0, 2.0]]))

    def test_payload_size_mismatch(self):
        with pytest.raises(ValueError):
            GateOp("unitary", targets=(0, 1), matrix=np.eye(2))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            GateOp("hh", targets=(0,))

    @pytest.mark.parametrize(
        "make,message",
        [(lambda: GateOp("h", targets=()), "gate needs at least one target"),
         (lambda: GateOp("x", targets=[], controls=(0,)), "gate needs at least one target"),
         (lambda: GateOp("unitary", targets=(0,)), "'unitary' op needs a matrix payload"),
         (lambda: GateOp("h", targets=(0,), params=(0.5,)), "gate 'h' takes no parameters"),
         (lambda: GateOp("swap", targets=(0, 1), params=(0.0, 1.0)),
          "gate 'swap' takes no parameters"),
         (lambda: Circuit(1, (X,)), "op 0 must be a GateOp, got ndarray"),
         (lambda: Circuit(2, (GateOp("h", (0,)), "h")), "op 1 must be a GateOp, got str"),
         (lambda: GateOp("unitary", targets=(0,), power=fourier_transform(1)),
          "a power payload is a (transform, k) pair, got "
          "_TableTransform(id='fourier', data_qubits=1, order_exponent=2)"),
         (lambda: GateOp("p", targets=(0,), params=(1j,)),
          "params[0] must be a real number, got 1j"),
         (lambda: GateOp("p", targets=(0,), params=(None,)),
          "params[0] must be a real number, got None"),
         (lambda: GateOp("p", targets=(0,), params=(10**400,)),
          f"params[0] must fit a float, got {10**400}")],
        ids=["no_targets", "controls_only", "unitary_without_payload", "h_with_angle",
             "swap_with_angles", "array_as_op", "name_as_op", "power_without_pair",
             "complex_angle", "none_angle", "angle_beyond_float_range"],
    )
    def test_malformed_op_names_what_is_wrong(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_circuit_index_bounds(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("h", targets=(1,)),))

    def test_mark_bounds(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("h", targets=(0,)),), marks=(("late", 2),))

    @pytest.mark.parametrize("make,bad", [
        (lambda v: GateOp("h", targets=(v,)), 1.5),
        (lambda v: GateOp("h", targets=(v,)), True),
        (lambda v: GateOp("h", targets=(v,)), "1"),
        (lambda v: GateOp("x", targets=(0,), controls=(v,)), 1.0),
        (lambda v: GateOp("x", targets=(0,), controls=(v,)), np.bool_(True)),
        (lambda v: Circuit(v), 2.5),
        (lambda v: Circuit(v), True),
        (lambda v: Circuit(v), "3"),
        (lambda v: Circuit(1, (GateOp("h", (0,)),) * 2, marks=(("m", v),)), 1.5),
        (lambda v: Circuit(1, (GateOp("h", (0,)),) * 2, marks=(("m", v),)), True),
        (lambda v: Circuit(1, (GateOp("h", (0,)),) * 2, marks=(("m", v),)), 1.0),
    ])
    def test_wire_or_size_that_is_not_an_integer(self, make, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            make(bad)

    def test_numpy_integer_wires_and_size(self):
        op = GateOp("x", targets=(np.int64(1),), controls=(np.int32(0),))
        c = Circuit(np.int64(2), (op,))
        assert (op.targets, op.controls, c.num_qubits) == ((1,), (0,), 2)
        assert all(type(v) is int for v in (*op.targets, *op.controls, c.num_qubits))


def direct_multiplexed(u, n, inverse=False):
    """Independent assembly of diag(I, v, ..., v^(2^n - 1)) block by block,
    v = u or, with ``inverse``, its inverse u^dagger."""
    dim = u.shape[0]
    v = u.conj().T if inverse else u
    out = np.zeros((dim << n, dim << n), dtype=complex)
    power = np.eye(dim, dtype=complex)
    for k in range(1 << n):
        out[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = power
        power = power @ v
    return out


def hand_built(u, order_exponent):
    """A hand-built transform of u, so every payload is a power from its own
    table of products."""
    q = u.shape[0].bit_length() - 1
    return BaseTransform(f"hand{u.shape[0]}", q, order_exponent, u)


class TestMultiplexedPowers:
    def test_fourier_powers(self):
        f = dft_matrix(4)
        got = circuit_unitary(multiplexed_powers(hand_built(f, 2)))
        assert linalg.max_norm_diff(got, direct_multiplexed(f, 2)) <= 1e-10

    def test_hartley_single_selector(self):
        dht = hartley_transform(2).dense
        got = circuit_unitary(multiplexed_powers(hand_built(dht, 1)))
        assert linalg.max_norm_diff(got, direct_multiplexed(dht, 1)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_dyadic_operators(self, n):
        rng = np.random.default_rng(100 + n)
        u = random_dyadic_unitary(2, n, rng)
        c = multiplexed_powers(hand_built(u, n))
        for j, op in enumerate(c.ops):
            expected = np.linalg.matrix_power(u, 1 << j)
            assert linalg.max_norm_diff(op.base_matrix(), expected) <= 1e-10
        got = circuit_unitary(c)
        assert linalg.max_norm_diff(got, direct_multiplexed(u, n)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, None], ids=["order2", "order4", "order8", "fourier"])
    def test_inverse_puts_negative_powers_on_the_selector_bits(self, n):
        if n is None:
            t = fourier_transform(3)
        else:
            t = hand_built(random_dyadic_unitary(2, n, np.random.default_rng(110 + n)), n)
        n, q = t.order_exponent, t.data_qubits
        c = multiplexed_powers(t, inverse=True)
        assert c.num_qubits == n + q
        assert [op.controls for op in c.ops] == [(q + j,) for j in range(n)]
        assert [op.power for op in c.ops] == [(t, -(1 << j) % t.order) for j in range(n)]
        got = circuit_unitary(c)
        assert linalg.max_norm_diff(got, direct_multiplexed(t.dense, n, inverse=True)) <= 1e-10


class TestPhaseBlock:
    def test_two_qubit_factorization(self):
        alpha, theta0 = 0.7, -2 * math.pi / 4
        got = circuit_unitary(phase_block(2, alpha))
        expected = np.kron(phase(2 * alpha * theta0), phase(alpha * theta0))
        assert linalg.max_norm_diff(got, expected) <= 1e-15

    def test_zero_alpha_is_identity(self):
        got = circuit_unitary(phase_block(3, 0.0))
        assert linalg.max_norm_diff(got, np.eye(8)) == 0.0

    def test_single_qubit_pi_is_z(self):
        got = circuit_unitary(phase_block(1, 1.0))
        assert linalg.max_norm_diff(got, Z) <= 1e-15

    def test_a_large_alpha_keeps_its_phase(self):
        # alpha is reduced mod 8 before 2**j alpha theta0 is formed; the
        # product of the unreduced 1e9 + 0.37 was once 9.0e-8 off.
        alpha = 1e9 + 0.37
        reduced = math.fmod(alpha, 8)
        got = circuit_unitary(phase_block(3, alpha))
        assert linalg.max_norm_diff(got, circuit_unitary(phase_block(3, reduced))) <= 1e-15
        k = np.arange(8)
        expected = np.diag(np.exp(-2j * math.pi * k * reduced / 8))
        assert linalg.max_norm_diff(got, expected) <= 1e-13

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(-8, 8, allow_nan=False), n=st.integers(1, 3))
    def test_diagonal_entries(self, alpha, n):
        theta0 = -2 * math.pi / (1 << n)
        got = circuit_unitary(phase_block(n, alpha))
        k = np.arange(1 << n)
        expected = np.diag(np.exp(1j * k * alpha * theta0))
        assert linalg.max_norm_diff(got, expected) <= 1e-12


class TestQftCircuit:
    def test_single_qubit_is_hadamard(self):
        assert linalg.max_norm_diff(circuit_unitary(qft_circuit(1)), H) <= 1e-15

    def test_two_qubit_matrix(self):
        assert linalg.max_norm_diff(circuit_unitary(qft_circuit(2)), F2_EXPECTED) <= 1e-12

    def test_two_qubit_inverse_matrix(self):
        got = circuit_unitary(qft_circuit(2, inverse=True))
        assert linalg.max_norm_diff(got, F2_INV_EXPECTED) <= 1e-12

    def test_inverse_pair(self):
        got = circuit_unitary(qft_circuit(2)) @ circuit_unitary(qft_circuit(2, inverse=True))
        assert linalg.max_norm_diff(got, np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_kernel(self, n):
        # independent oracle: direct kernel evaluation
        big_n = 1 << n
        j = np.arange(big_n)
        oracle = np.exp(-2j * np.pi * np.outer(j, j) / big_n) / np.sqrt(big_n)
        assert linalg.max_norm_diff(circuit_unitary(qft_circuit(n)), oracle) <= 1e-10
        inv = circuit_unitary(qft_circuit(n, inverse=True))
        assert linalg.max_norm_diff(inv, oracle.conj().T) <= 1e-10


class TestIncrementCircuit:
    def test_single_qubit_is_x(self):
        assert np.array_equal(circuit_unitary(increment_circuit(1)), X)

    def test_two_qubit_cycle(self):
        expected = np.array(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(circuit_unitary(increment_circuit(2)), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_permutation(self, n):
        dim = 1 << n
        got = circuit_unitary(increment_circuit(n))
        expected = np.zeros((dim, dim), dtype=complex)
        for x in range(dim):
            expected[(x + 1) % dim, x] = 1.0
        assert np.array_equal(got, expected)

    def test_full_cycle_is_identity(self):
        got = linalg.matrix_power(circuit_unitary(increment_circuit(3)), 8)
        assert np.array_equal(got, np.eye(8))


class TestCircuitUnitary:
    def test_empty_circuit(self):
        assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4))

    def test_wire_embedding_low_qubit(self):
        got = circuit_unitary(Circuit(2, (GateOp("h", targets=(0,)),)))
        assert linalg.max_norm_diff(got, np.kron(np.eye(2), H)) == 0.0

    def test_wire_embedding_high_qubit(self):
        got = circuit_unitary(Circuit(2, (GateOp("h", targets=(1,)),)))
        assert linalg.max_norm_diff(got, np.kron(H, np.eye(2))) == 0.0

    def test_control_on_high_qubit_reproduces_block_matrix(self):
        rng = np.random.default_rng(9)
        g = random_unitary(2, rng)
        got = circuit_unitary(
            Circuit(2, (GateOp("unitary", targets=(0,), controls=(1,), matrix=g),))
        )
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = g
        assert np.array_equal(got, expected)

    def test_cnot_convention(self):
        got = circuit_unitary(Circuit(2, (GateOp("x", targets=(0,), controls=(1,)),)))
        assert np.array_equal(got, CNOT_EXPECTED)

    def test_target_order_matters(self):
        # bit 0 of the payload lives on targets[0]
        d = np.diag([1, 1j, -1, -1j]).astype(complex)
        got = circuit_unitary(Circuit(2, (GateOp("unitary", targets=(1, 0), matrix=d),)))
        assert linalg.max_norm_diff(got, np.diag([1, -1, 1j, -1j])) == 0.0

    def test_budget(self, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
        message = "^circuit_unitary: 4 qubits exceed the 3-qubit budget$"
        with pytest.raises(QubitBudgetError, match=message):
            circuit_unitary(Circuit(4, (GateOp("h", targets=(0,)),)))
        with pytest.raises(QubitBudgetError, match=message):
            circuit_unitary(Circuit(4, (GateOp("h", targets=(0,)),)), columns=1)

    @pytest.mark.parametrize(
        "circuit",
        [
            qft_circuit(3),
            qft_circuit(4, inverse=True),
            increment_circuit(3),
            phase_block(3, 1.3),
            multiplexed_powers(hand_built(hartley_transform(2).dense, 1)),
            multiplexed_powers(hand_built(dft_matrix(2), 2)),
        ],
    )
    def test_builders_produce_unitaries(self, circuit):
        u = circuit_unitary(circuit)
        assert linalg.is_unitary(u, tol=1e-10)


def _multi_control_circuit():
    """Five wires: multi-control named and phase gates, a controlled 2-target
    payload with its targets out of order, and an uncontrolled one."""
    rng = np.random.default_rng(31)
    ops = (
        GateOp("h", targets=(0,)),
        GateOp("h", targets=(2,)),
        GateOp("unitary", targets=(3, 1), controls=(0, 2), matrix=random_unitary(4, rng)),
        GateOp("x", targets=(4,), controls=(0, 1, 3)),
        GateOp("p", targets=(2,), controls=(4, 1), params=(0.7,)),
        GateOp("unitary", targets=(4, 0), matrix=random_unitary(4, rng)),
        GateOp("swap", targets=(1, 4), controls=(3,)),
    )
    return Circuit(5, ops)


# (id, circuit, data qubits): qfru circuits of all four transforms, qfrin
# circuits of the three involutions, and a hand-built circuit.
_COLUMN_CASES = [
    *(
        (f"qfru_{t.id}", build_qfru_circuit(FractionalSpec(t, 0.37)), t.data_qubits)
        for t in (fourier_transform(3), hartley_transform(3), cst1_transform(2),
                  cst4_transform(2))
    ),
    *(
        (f"qfrin_{t.id}", build_qfrin_circuit(t, 1.3), t.data_qubits)
        for t in (hartley_transform(4), cst1_transform(3), cst4_transform(3))
    ),
    ("multi_control", _multi_control_circuit(), 2),
]


class TestCircuitUnitaryColumns:
    @pytest.mark.parametrize(
        "circuit,data_qubits", [case[1:] for case in _COLUMN_CASES],
        ids=[case[0] for case in _COLUMN_CASES],
    )
    def test_matches_leading_columns_of_full_unitary(self, circuit, data_qubits):
        full = circuit_unitary(circuit)
        dim = full.shape[0]
        for k in (1, 1 << data_qubits, dim):
            got = circuit_unitary(circuit, columns=k)
            assert got.shape == (dim, k)
            assert linalg.max_norm_diff(got, full[:, :k]) <= 1e-14

    def test_numpy_integer_accepted(self):
        c = _multi_control_circuit()
        got = circuit_unitary(c, columns=np.int64(3))
        assert linalg.max_norm_diff(got, circuit_unitary(c)[:, :3]) <= 1e-14

    @pytest.mark.parametrize("columns", [0, -1, 33, 2.0, 1.5, True, "4"])
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="columns"):
            circuit_unitary(_multi_control_circuit(), columns=columns)


_EMBEDDING_KINDS = ("x", "y", "z", "h", "s", "r", "b", "bdag", "p", "swap", "matrix1", "matrix2")


def _embedding_circuit(rng):
    """Up to 5 wires; every op takes 0-2 controls, above or below its
    targets, and 1-2 targets in random wire order: each named one-qubit
    gate, p, swap, and 1- and 2-target matrix payloads."""
    n = int(rng.integers(3, 6))
    ops = []
    for _ in range(int(rng.integers(4, 13))):
        wires = [int(w) for w in rng.permutation(n)]
        kind = str(rng.choice(_EMBEDDING_KINDS))
        t = 2 if kind in ("swap", "matrix2") else 1
        targets = tuple(wires[:t])
        controls = tuple(wires[t:t + int(rng.integers(0, 3))])
        if kind == "p":
            ops.append(GateOp("p", targets=targets, controls=controls,
                              params=(float(rng.uniform(-np.pi, np.pi)),)))
        elif kind.startswith("matrix"):
            ops.append(GateOp("unitary", targets=targets, controls=controls,
                              matrix=random_unitary(1 << t, rng)))
        else:
            ops.append(GateOp(kind, targets=targets, controls=controls))
    return Circuit(n, tuple(ops))


def _embedding_kind(op):
    return f"matrix{len(op.targets)}" if op.name == "unitary" else op.name


def test_embedding_circuits_cover_every_gate_kind():
    ops = [op for seed in range(12)
           for op in _embedding_circuit(np.random.default_rng(900 + seed)).ops]
    assert {_embedding_kind(op) for op in ops} == set(_EMBEDDING_KINDS)
    for kind in ("h", "p", "matrix1", "matrix2"):
        wires = [(op.targets, op.controls) for op in ops if _embedding_kind(op) == kind]
        assert any(max(t) < min(c) for t, c in wires if c)  # a control above
        assert any(min(t) > max(c) for t, c in wires if c)  # a control below


@pytest.mark.parametrize("seed", range(12))
def test_circuit_unitary_matches_basis_column_embedding(seed):
    rng = np.random.default_rng(900 + seed)
    circuit = _embedding_circuit(rng)
    expected = reference_circuit_unitary(circuit)
    assert linalg.max_norm_diff(circuit_unitary(circuit), expected) <= 1e-14
    for k in (1, int(rng.integers(2, expected.shape[0]))):
        got = circuit_unitary(circuit, columns=k)
        assert linalg.max_norm_diff(got, expected[:, :k]) <= 1e-14
    # the simulator runs the same kernel on single states
    for col in range(expected.shape[0]):
        final, _ = run(circuit, basis_state(circuit.num_qubits, col))
        assert np.max(np.abs(final - expected[:, col])) <= 1e-14
    state = random_state(circuit.num_qubits, rng)
    final, _ = run(circuit, state)
    assert np.max(np.abs(final - expected @ state)) <= 1e-14


@pytest.mark.parametrize("width", [5, circuits._PIECE], ids=["below_piece", "above_piece"])
@pytest.mark.parametrize("g", [H, -H, 2 * H, 1j * H], ids=["h", "minus_h", "two_h", "i_h"])
def test_hadamard_mixing_matches_the_general_formula(g, width):
    # Strided halves of a (3, 2, width) register, as a one-qubit step gets
    # them; above _PIECE amplitudes they are mixed a row at a time. i H is
    # no real multiple of [[1, 1], [1, -1]], so it takes the general path.
    rng = np.random.default_rng(width)
    reg = rng.uniform(-0.5, 0.5, (3, 2, width)) + 1j * rng.uniform(-0.5, 0.5, (3, 2, width))
    a0, a1 = reg[:, 0], reg[:, 1]
    expected = (g[0, 0] * a0 + g[0, 1] * a1, g[1, 0] * a0 + g[1, 1] * a1)
    circuits._mix_halves(g, a0, a1)
    assert np.max(np.abs(a0 - expected[0])) <= 1e-15
    assert np.max(np.abs(a1 - expected[1])) <= 1e-15


def test_kernel_allocates_at_most_one_accumulator_per_op():
    # fourier q=8 qfru on its 256 data columns: a 4 MB accumulator. A payload
    # op may hold its block and the product, never a copy of the whole
    # accumulator on top; a one-qubit gate holds at most a new half and one
    # product, and a diagonal one nothing. The 1% is for array headers and
    # index lists.
    circuit = build_qfru_circuit(FractionalSpec(fourier_transform(8), 0.37))
    # Each step, with the payload it reads, is built outside the measurement.
    steps = [_op_step(op, circuit.num_qubits, matrix_free=False) for op in circuit.ops]
    acc = np.eye(1 << circuit.num_qubits, 256, dtype=complex)
    reg = acc.reshape([2] * circuit.num_qubits + [256])
    slack = acc.nbytes // 100
    tracemalloc.start()
    try:
        for op, step in zip(circuit.ops, steps):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step(reg)
            peak = tracemalloc.get_traced_memory()[1] - start
            diagonal = op.name in ("z", "s", "p")
            assert peak <= (slack if diagonal else acc.nbytes + slack), (op, peak)
    finally:
        tracemalloc.stop()
    cols = circuit_unitary(circuit, columns=256)
    assert linalg.max_norm_diff(acc, cols) <= 1e-14
