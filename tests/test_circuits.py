import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dyadic_unitary, random_unitary
from qfrt import linalg
from qfrt.base_transforms import (
    cst1_transform,
    cst4_transform,
    dft_matrix,
    fourier_transform,
    hartley_matrix,
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
    circuit_unitary,
    controlled,
    increment_circuit,
    multiplexed_powers,
    phase,
    phase_block,
    qct4_gate,
    qft_circuit,
    standard_gate,
)
from qfrt.errors import QubitBudgetError
from qfrt.fractional import FractionalSpec, build_qfrin_circuit, build_qfru_circuit

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
        assert np.array_equal(standard_gate("x"), [[0, 1], [1, 0]])
        assert np.array_equal(standard_gate("y"), [[0, -1j], [1j, 0]])
        assert np.array_equal(standard_gate("z"), [[1, 0], [0, -1]])
        s2 = 1 / math.sqrt(2)
        assert linalg.max_norm_diff(standard_gate("h"), [[s2, s2], [s2, -s2]]) == 0.0

    def test_phase_at_half_pi_is_s(self):
        assert linalg.max_norm_diff(standard_gate("p", math.pi / 2), S) <= 1e-15

    def test_r_value_and_decomposition(self):
        expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        assert np.array_equal(R, expected)
        assert linalg.max_norm_diff(R, H @ S @ H) <= 1e-12

    def test_b_value_and_decomposition(self):
        s2 = 1 / math.sqrt(2)
        assert linalg.max_norm_diff(B, np.array([[s2, s2 * 1j], [s2, -s2 * 1j]])) == 0.0
        assert linalg.max_norm_diff(B, H @ S) <= 1e-12

    def test_bdag_value_and_decomposition(self):
        assert linalg.max_norm_diff(BDAG, linalg.adjoint(B)) <= 1e-15
        assert linalg.max_norm_diff(BDAG, phase(-math.pi / 2) @ H) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            standard_gate("q")
        with pytest.raises(KeyError):
            standard_gate("swap")  # not part of the named lookup set

    def test_phase_needs_angle(self):
        with pytest.raises(ValueError):
            standard_gate("p")


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
    def test_cnot(self):
        assert np.array_equal(controlled(X, 1), CNOT_EXPECTED)

    def test_identity_any_controls(self):
        assert np.array_equal(controlled(np.eye(2), 3), np.eye(16))

    def test_controlled_hadamard_blocks(self):
        ch = controlled(H, 1)
        assert np.array_equal(ch[:2, :2], np.eye(2))
        assert np.array_equal(ch[2:, 2:], H)
        assert np.all(ch[:2, 2:] == 0) and np.all(ch[2:, :2] == 0)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            controlled(np.array([[1.0, 0], [0, 2.0]]), 1)


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

    def test_circuit_index_bounds(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("h", targets=(1,)),))

    def test_mark_bounds(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("h", targets=(0,)),), marks=(("late", 2),))


def direct_multiplexed(u, n):
    """Independent assembly of diag(I, u, ..., u^(2^n - 1)) block by block."""
    dim = u.shape[0]
    out = np.zeros((dim << n, dim << n), dtype=complex)
    power = np.eye(dim, dtype=complex)
    for k in range(1 << n):
        out[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = power
        power = power @ u
    return out


def power_table(u, n):
    """(u**0, ..., u**(2**n - 1)) from numpy's matrix_power, independent of qfrt."""
    return tuple(np.linalg.matrix_power(u, k) for k in range(1 << n))


class TestMultiplexedPowers:
    def test_fourier_powers(self):
        f = dft_matrix(4)
        got = circuit_unitary(multiplexed_powers(power_table(f, 2)))
        assert linalg.max_norm_diff(got, direct_multiplexed(f, 2)) <= 1e-10

    def test_hartley_single_selector(self):
        dht = hartley_matrix(4)
        got = circuit_unitary(multiplexed_powers(power_table(dht, 1)))
        assert linalg.max_norm_diff(got, direct_multiplexed(dht, 1)) <= 1e-10

    def test_zero_selectors_is_empty(self):
        c = multiplexed_powers(power_table(dft_matrix(4), 0))
        assert c.ops == ()
        assert c.num_qubits == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_dyadic_operators(self, n):
        rng = np.random.default_rng(100 + n)
        u = random_dyadic_unitary(2, n, rng)
        got = circuit_unitary(multiplexed_powers(power_table(u, n)))
        assert linalg.max_norm_diff(got, direct_multiplexed(u, n)) <= 1e-10

    def test_table_length_must_be_power_of_two(self):
        for bad in ((), power_table(dft_matrix(2), 2)[:3]):
            with pytest.raises(ValueError, match="power of two"):
                multiplexed_powers(bad)


class TestPhaseBlock:
    def test_two_qubit_factorization(self):
        alpha, theta0 = 0.7, -2 * math.pi / 4
        got = circuit_unitary(phase_block(2, alpha, theta0))
        expected = np.kron(phase(2 * alpha * theta0), phase(alpha * theta0))
        assert linalg.max_norm_diff(got, expected) <= 1e-15

    def test_zero_alpha_is_identity(self):
        got = circuit_unitary(phase_block(3, 0.0, -1.0))
        assert linalg.max_norm_diff(got, np.eye(8)) == 0.0

    def test_single_qubit_pi_is_z(self):
        got = circuit_unitary(phase_block(1, 1.0, -math.pi))
        assert linalg.max_norm_diff(got, Z) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(-8, 8, allow_nan=False), n=st.integers(1, 3))
    def test_diagonal_entries(self, alpha, n):
        theta0 = -2 * math.pi / (1 << n)
        got = circuit_unitary(phase_block(n, alpha, theta0))
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
        assert np.array_equal(got, controlled(g, 1))

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
        with pytest.raises(QubitBudgetError):
            circuit_unitary(Circuit(4, (GateOp("h", targets=(0,)),)))
        with pytest.raises(QubitBudgetError):
            circuit_unitary(Circuit(4, (GateOp("h", targets=(0,)),)), columns=1)

    @pytest.mark.parametrize(
        "circuit",
        [
            qft_circuit(3),
            qft_circuit(4, inverse=True),
            increment_circuit(3),
            phase_block(3, 1.3, -2 * math.pi / 8),
            multiplexed_powers(power_table(hartley_matrix(4), 1)),
            multiplexed_powers(power_table(dft_matrix(2), 2)),
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
