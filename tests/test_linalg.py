import numpy as np
import pytest

from helpers import random_unitary
from qfrt import linalg
from qfrt.base_transforms import dft_matrix, hartley_matrix
from qfrt.circuits import B, BDAG, H, S, phase
from qfrt.errors import DimensionError, QfrtError, QubitBudgetError

I2 = np.eye(2, dtype=complex)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(linalg.adjoint(I2), I2)

    def test_phase_conjugation(self):
        assert linalg.max_norm_diff(linalg.adjoint(phase(0.7)), phase(-0.7)) <= 1e-15

    def test_b_gate(self):
        assert linalg.max_norm_diff(linalg.adjoint(B), BDAG) <= 1e-15

    def test_involution_exact(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)


class TestMaxNormDiff:
    def test_zero(self):
        assert linalg.max_norm_diff(I2, I2) == 0.0

    def test_hh_vs_identity(self):
        assert linalg.max_norm_diff(H @ H, I2) <= 1e-15

    def test_dft_is_symmetric(self):
        f2 = dft_matrix(4)
        assert linalg.max_norm_diff(f2, f2.T) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.max_norm_diff(I2, np.eye(4))


class TestMatrixPower:
    def test_zeroth_power(self):
        rng = np.random.default_rng(0)
        u = random_unitary(4, rng)
        assert np.array_equal(linalg.matrix_power(u, 0), np.eye(4))

    def test_dft_has_order_four(self):
        f = dft_matrix(8)
        assert linalg.max_norm_diff(linalg.matrix_power(f, 4), np.eye(8)) <= 1e-10

    def test_hartley_is_involution(self):
        dht = hartley_matrix(8)
        assert linalg.max_norm_diff(linalg.matrix_power(dht, 2), np.eye(8)) <= 1e-10

    def test_negative_power_of_unitary(self):
        assert linalg.max_norm_diff(linalg.matrix_power(S, -1), phase(-np.pi / 2)) <= 1e-15

    def test_negative_power_of_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_power(np.array([[2.0, 0], [0, 1.0]]), -1)

    def test_exponent_additivity(self):
        rng = np.random.default_rng(5)
        u = random_unitary(4, rng)
        for j, k in [(0, 3), (2, 5), (4, 4), (1, 8), (8, 8)]:
            combined = linalg.matrix_power(u, j + k)
            split = linalg.matrix_power(u, j) @ linalg.matrix_power(u, k)
            assert linalg.max_norm_diff(combined, split) <= 1e-10


def test_non_finite_entries_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.as_matrix(bad)


class TestMaxQubits:
    @pytest.mark.parametrize("raw", ["-3", "0", "abc", "", "2.5"])
    def test_bad_value_names_variable_and_value(self, raw, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, raw)
        with pytest.raises(QubitBudgetError) as info:
            linalg.max_qubits()
        assert isinstance(info.value, QfrtError)
        assert str(info.value) == f"QFRT_MAX_QUBITS must be an integer >= 1, got {raw!r}"


class TestMatrixText:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(linalg.parse_matrix(linalg.format_matrix(m)), m)

    def test_header_and_entry_layout(self):
        text = linalg.format_matrix(np.array([[1.0, 0.5j]]))
        assert text == "1 2\n1,0 0,0.5\n"

    def test_bad_row_count(self):
        with pytest.raises(DimensionError):
            linalg.parse_matrix("2 2\n1,0 0,0\n")
