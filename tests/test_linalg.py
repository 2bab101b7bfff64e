import re
import tracemalloc

import numpy as np
import pytest

from helpers import dft_matrix, parse_matrix, random_unitary
from qfrt import linalg
from qfrt.base_transforms import hartley_transform
from qfrt.circuits import BDAG, B, H, S, phase
from qfrt.errors import DimensionError, QfrtError, QubitBudgetError

I2 = np.eye(2, dtype=complex)


class TestAdjoint:
    def test_b_gate(self):
        # A negative power of a unitary is taken through its adjoint.
        assert linalg.max_norm_diff(linalg.matrix_power(B, -1), BDAG) <= 1e-15


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
        dht = hartley_transform(3).dense
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


@pytest.mark.parametrize("m,shape", [(np.ones(3), "(3,)"), (np.ones((2, 0)), "(2, 0)"),
                                     (np.ones((1, 2, 2)), "(1, 2, 2)"), (1.0, "()")])
def test_as_matrix_takes_only_a_non_empty_2d_array(m, shape):
    with pytest.raises(DimensionError,
                       match=rf"^expected a non-empty 2-D matrix, got shape {re.escape(shape)}$"):
        linalg.as_matrix(m)


def test_matrix_power_needs_a_square_matrix():
    with pytest.raises(DimensionError, match=r"^matrix_power needs a square matrix, got \(2, 3\)$"):
        linalg.matrix_power(np.ones((2, 3)), 2)


class TestMaxQubits:
    @pytest.mark.parametrize("raw", ["-3", "0", "abc", "", "2.5"])
    def test_bad_value_names_variable_and_value(self, raw, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, raw)
        with pytest.raises(QubitBudgetError) as info:
            linalg.max_qubits()
        assert isinstance(info.value, QfrtError)
        assert str(info.value) == f"QFRT_MAX_QUBITS must be an integer >= 1, got {raw!r}"


class TestCheckQubitBudget:
    def test_at_and_over_budget(self, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
        linalg.check_qubit_budget(3)
        with pytest.raises(QubitBudgetError, match="^4 qubits exceed the 3-qubit budget$"):
            linalg.check_qubit_budget(4)


class TestIsUnitary:
    @pytest.mark.parametrize("scale", [1 + 5e-11, 1 - 5e-11, 1 + 2e-10, 1 - 2e-10])
    def test_same_deviation_as_gram_minus_identity(self, scale):
        # The deviation formed in place equals max|m^dagger m - I| computed
        # with an identity and a difference matrix, bit for bit: the test
        # passes at exactly that tolerance and fails one ulp below it.
        m = scale * random_unitary(16, np.random.default_rng(17))
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(16))))
        assert linalg.is_unitary(m, dev)
        assert not linalg.is_unitary(m, np.nextafter(dev, 0.0))
        assert linalg.is_unitary(m, 1e-10) == (dev <= 1e-10)

    def test_non_square(self):
        assert not linalg.is_unitary(np.ones((2, 4)))


def _test_matrix(kind, n, rng):
    if kind == "unitary":
        return random_unitary(n, rng)
    if kind == "orthogonal":
        return np.linalg.qr(rng.standard_normal((n, n)))[0]
    if kind == "real":
        return rng.standard_normal((n, n)) / np.sqrt(n)
    if kind == "complex":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    if kind == "int":
        return rng.integers(-3, 4, size=(n, n))
    return rng.integers(0, 2, size=(n, n)).astype(bool)


class TestUnitarityDev:
    # Sizes around the 64-row block of the upper-triangle product, and
    # both sides of one and of several blocks.
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 100, 257, 513])
    @pytest.mark.parametrize("kind", ["unitary", "orthogonal", "real", "complex", "int", "bool"])
    def test_matches_full_gram_minus_identity(self, kind, n):
        m = _test_matrix(kind, n, np.random.default_rng(n))
        a = np.asarray(m, dtype=complex if kind in ("unitary", "complex") else float)
        full = float(np.max(np.abs(a.conj().T @ a - np.eye(n))))
        dev = linalg.unitarity_dev(m)
        if kind in ("unitary", "orthogonal"):
            assert abs(dev - full) <= 1e-15
        else:
            assert abs(dev - full) <= 1e-12 * full

    def test_peak_memory_below_one_square_matrix(self):
        n = 512
        m = random_unitary(n, np.random.default_rng(3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dev = linalg.unitarity_dev(m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert dev <= 1e-12
        assert peak < m.nbytes  # one N x N complex array: 4 MiB


class TestMatrixText:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(parse_matrix(linalg.format_matrix(m)), m)

    def test_header_and_entry_layout(self):
        text = linalg.format_matrix(np.array([[1.0, 0.5j]]))
        assert text == "1 2\n1,0 0,0.5\n"

    def test_bad_row_count(self):
        with pytest.raises(DimensionError):
            parse_matrix("2 2\n1,0 0,0\n")

    @pytest.mark.parametrize(
        "text,message",
        [("", "empty matrix text"), ("  \n\n", "empty matrix text"),
         ("2\n1,0\n1,0\n", "bad header line: '2'"),
         ("1 1 1\n1,0\n", "bad header line: '1 1 1'"),
         ("1 2\n1,0\n", "row 0: expected 2 entries, got 1"),
         ("2 1\n1,0\n1,0 0,0\n", "row 1: expected 1 entries, got 2")],
        ids=["empty", "blank", "one_field_header", "three_field_header", "short_row",
             "long_row"],
    )
    def test_malformed_text_names_what_is_wrong(self, text, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            parse_matrix(text)
