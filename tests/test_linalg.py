import math
import re
import struct
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


#: Periods: every order a transform of the default budget can have, 2 to 2**14.
PERIODS = st.integers(1, 14).map(lambda e: 1 << e)
#: Floats with their edges: signed zeros, subnormals and the largest finite values.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
                               sys.float_info.max, -sys.float_info.max])


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestReduceAlpha:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(alpha=st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(width=32, allow_nan=False,
                                     allow_infinity=False).map(np.float32)),
           period=PERIODS)
    def test_a_float_is_reduced_as_fmod_reduces_it(self, alpha, period):
        assert _bits(linalg.reduce_alpha(alpha, period)) == _bits(math.fmod(alpha, period))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(alpha=st.one_of(
        st.integers(), st.integers(-10**400, 10**400),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.fractions(),
        st.sampled_from([np.int64(-2**63), np.int64(2**63 - 1), np.uint64(2**64 - 1)]),
        st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**40))),
        period=PERIODS)
    def test_a_rational_is_reduced_exactly(self, alpha, period):
        # fmod's sign rule on the exact residue, so a negative multiple gives -0.0.
        exact = Fraction(int(alpha)) if isinstance(alpha, np.integer) else Fraction(alpha)
        residue = float(abs(exact) % period)
        want = -residue if exact < 0 else residue
        assert _bits(linalg.reduce_alpha(alpha, period)) == _bits(want)

    @pytest.mark.parametrize("alpha,message", [
        (True, "alpha must be a real number, got True"),
        ("0.5", "alpha must be a real number, got '0.5'"),
        (1j, "alpha must be a real number, got 1j"),
        (math.inf, "alpha must be finite, got inf"),
        (np.float64(-np.inf), "alpha must be finite, got np.float64(-inf)"),
        (math.nan, "alpha must be finite, got nan"),
    ], ids=["bool", "text", "complex", "inf", "numpy_minus_inf", "nan"])
    def test_refuses_an_alpha_that_is_no_finite_real(self, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg.reduce_alpha(alpha, 4)


class TestCheckQubitBudget:
    def test_at_and_over_budget(self, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
        linalg.check_qubit_budget("a register", 3)
        with pytest.raises(QubitBudgetError,
                           match="^a register: 4 qubits exceed the 3-qubit budget$"):
            linalg.check_qubit_budget("a register", 4)


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
        assert np.array_equal(parse_matrix("\n".join(linalg.format_matrix(m))), m)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
           dtype=st.sampled_from([np.float64, np.float32, np.complex128, np.int64, np.bool_]),
           strided=st.booleans())
    def test_each_row_is_its_entries_formatted_one_by_one(self, data, shape, dtype, strided):
        # format_matrix fills one "%.17g,%.17g" template per row; each row must
        # read as the per-entry f-string join, on signed zeros, subnormals and
        # +-max too, and on a strided view.
        floats = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
        elements = {np.float64: floats,
                    np.float32: st.floats(width=32, allow_nan=False, allow_infinity=False),
                    np.complex128: st.builds(complex, floats, floats),
                    np.int64: st.integers(-2**63, 2**63 - 1), np.bool_: st.booleans()}[dtype]
        wide = (shape[0], 2 * shape[1]) if strided else shape
        m = data.draw(hnp.arrays(dtype, wide, elements=elements))
        m = m[:, ::2] if strided else m
        want = [" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row)
                for row in linalg.as_matrix(m)]
        assert list(linalg.format_matrix(m)) == [f"{shape[0]} {shape[1]}"] + want

    def test_header_and_entry_layout(self):
        lines = linalg.format_matrix(np.array([[1.0, 0.5j]]))
        assert list(lines) == ["1 2", "1,0 0,0.5"]

    @pytest.mark.parametrize("bad,error", [([[1.0, np.nan]], ValueError),
                                           (np.zeros((0, 3)), DimensionError)],
                             ids=["nan", "empty"])
    def test_bad_matrix_raises_on_the_call(self, bad, error):
        # The check runs before any line is made, so `dump` opens no file.
        with pytest.raises(error):
            linalg.format_matrix(bad)

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
