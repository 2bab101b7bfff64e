import tracemalloc

import numpy as np
import pytest

from helpers import closed_form, dft_matrix, random_dyadic_unitary, random_state
from qfrt import base_transforms, linalg
from qfrt.base_transforms import (
    TRANSFORM_IDS,
    BaseTransform,
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
    make_transform,
    order_and_residue,
    verify_order,
)
from qfrt.circuits import H, circuit_unitary, phase, qft_circuit
from qfrt.errors import DimensionError, NotDyadicOrderError, QfrtError, QubitBudgetError
from qfrt.fractional import FractionalSpec, build_qfru_circuit, fractional_oracle

F2_EXPECTED = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1j, -1, 1j], [1, -1, 1, -1], [1, 1j, -1, -1j]]
)

DHT4_EXPECTED = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
)

_S2 = 2.0 ** -0.5

# 3-point DCT-I block, 1-point DST-I block.
CST1_N1_EXPECTED = np.array(
    [
        [0.5, _S2, 0.5, 0],
        [_S2, 0.0, -_S2, 0],
        [0.5, -_S2, 0.5, 0],
        [0.0, 0.0, 0.0, 1],
    ],
    dtype=complex,
)

_C1, _C3 = np.cos(np.pi / 8), np.cos(3 * np.pi / 8)
_S1, _S3 = np.sin(np.pi / 8), np.sin(3 * np.pi / 8)
CST4_N1_EXPECTED = np.array(
    [
        [_C1, _C3, 0, 0],
        [_C3, -_C1, 0, 0],
        [0, 0, _S1, _S3],
        [0, 0, _S3, -_S1],
    ],
    dtype=complex,
)


class TestFourier:
    def test_single_qubit_is_hadamard(self):
        t = fourier_transform(1)
        assert linalg.max_norm_diff(t.dense, H) <= 1e-15
        assert linalg.max_norm_diff(linalg.matrix_power(t.dense, 4), np.eye(2)) <= 1e-12

    def test_two_qubit_matrix(self):
        assert linalg.max_norm_diff(fourier_transform(2).dense, F2_EXPECTED) <= 1e-12

    def test_order_four(self):
        t = fourier_transform(3)
        assert t.order_exponent == 2 and t.order == 4
        assert linalg.max_norm_diff(linalg.matrix_power(t.dense, 4), np.eye(8)) <= 1e-10

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_circuit_matches_dense(self, q):
        got = circuit_unitary(qft_circuit(q))
        assert linalg.max_norm_diff(got, fourier_transform(q).dense) <= 1e-8

    @pytest.mark.parametrize("n_points", [1 << q for q in range(1, 11)])
    def test_entries_from_exponent_mod_n(self, n_points):
        got = fourier_transform(n_points.bit_length() - 1).dense
        assert np.array_equal(got, dft_matrix(n_points))  # the closed form, bit for bit

    @pytest.mark.parametrize("q", [9, 10])
    def test_square_is_parity_permutation(self, q):
        n_points = 1 << q
        f = dft_matrix(n_points)
        parity = np.eye(n_points)[-np.arange(n_points) % n_points]
        assert linalg.max_norm_diff(f @ f, parity) <= 1e-15


class TestHartley:
    def test_single_qubit_is_hadamard(self):
        assert linalg.max_norm_diff(hartley_transform(1).dense, H) <= 1e-15

    def test_two_qubit_matrix(self):
        assert linalg.max_norm_diff(hartley_transform(2).dense, DHT4_EXPECTED) <= 1e-14

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_involution(self, q):
        d = hartley_transform(q).dense
        assert linalg.max_norm_diff(d @ d, np.eye(1 << q)) <= 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_cas_equals_re_minus_im_of_dft(self, q):
        f = dft_matrix(1 << q)
        assert linalg.max_norm_diff(hartley_transform(q).dense, f.real - f.imag) <= 1e-12


class TestCst1:
    def test_smallest_block(self):
        t = cst1_transform(1)
        assert t.data_qubits == 2
        assert linalg.max_norm_diff(t.dense, CST1_N1_EXPECTED) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution(self, n):
        d = cst1_transform(n).dense
        assert linalg.max_norm_diff(d @ d, np.eye(d.shape[0])) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cross_block_entries_exactly_zero(self, n):
        d = cst1_transform(n).dense
        cut = (1 << n) + 1
        assert np.all(d[:cut, cut:] == 0)
        assert np.all(d[cut:, :cut] == 0)


class TestCst4:
    def test_smallest_block(self):
        t = cst4_transform(1)
        assert t.data_qubits == 2
        assert linalg.max_norm_diff(t.dense, CST4_N1_EXPECTED) <= 1e-14
        # involutory because cos^2(pi/8) + cos^2(3 pi/8) = 1
        assert linalg.max_norm_diff(t.dense @ t.dense, np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution(self, n):
        d = cst4_transform(n).dense
        assert linalg.max_norm_diff(d @ d, np.eye(d.shape[0])) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_selector_qubit(self, n):
        rng = np.random.default_rng(20 + n)
        t = cst4_transform(n)
        big_n = 1 << n
        blocks = closed_form("cst4", n)
        u = random_state(n, rng)
        cos_in = np.concatenate([u, np.zeros(big_n)])
        cos_out = t.dense @ cos_in
        assert np.max(np.abs(cos_out[big_n:])) == 0.0
        assert np.max(np.abs(cos_out[:big_n] - blocks[:big_n, :big_n] @ u)) <= 1e-10
        sin_in = np.concatenate([np.zeros(big_n), u])
        sin_out = t.dense @ sin_in
        assert np.max(np.abs(sin_out[:big_n])) == 0.0
        assert np.max(np.abs(sin_out[big_n:] - blocks[big_n:, big_n:] @ u)) <= 1e-10


@pytest.mark.parametrize("size", range(1, 10))
@pytest.mark.parametrize("transform_id", TRANSFORM_IDS)
def test_kernel_matches_closed_form(transform_id, size):
    got = make_transform(transform_id, size).dense
    assert linalg.max_norm_diff(got, closed_form(transform_id, size)) <= 1e-12


@pytest.mark.parametrize(
    "transform",
    [hartley_transform(2), hartley_transform(3), cst1_transform(2), cst4_transform(2)],
    ids=["hartley2", "hartley3", "cst1_2", "cst4_2"],
)
def test_involutions_are_real_symmetric(transform):
    d = transform.dense
    assert np.max(np.abs(d.imag)) <= 1e-12
    assert linalg.max_norm_diff(d, d.T) <= 1e-12


@pytest.mark.parametrize("transform_id,size", [("hartley", 11), ("cst1", 10), ("cst4", 10)])
def test_real_kernels_square_to_identity_within_1e_14(transform_id, size):
    # entries read off a table of roots by the exactly reduced exponent
    d = make_transform(transform_id, size).dense
    square = d @ d
    square.flat[:: len(d) + 1] -= 1.0
    assert np.max(np.abs(square)) <= 1e-14


class TestVerifyOrder:
    def test_hartley(self):
        assert verify_order(hartley_transform(3)) == 1

    def test_fourier(self):
        assert verify_order(fourier_transform(3)) == 2
        assert verify_order(fourier_transform(2)) == 2

    def test_two_point_fourier_is_involution(self):
        # the 2-point kernel is the Hadamard, so the minimal exponent drops to 1
        assert verify_order(fourier_transform(1)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cosine_sine_blocks(self, n):
        assert verify_order(cst1_transform(n)) == 1
        assert verify_order(cst4_transform(n)) == 1

    def test_identity(self):
        # Declared an involution, the smallest exponent allowed; I has order 1.
        t = BaseTransform("id", 1, 1, np.eye(2, dtype=complex))
        assert verify_order(t) == 0

    def test_non_dyadic_operator(self):
        t = BaseTransform("odd", 1, 1, phase(0.3))
        with pytest.raises(NotDyadicOrderError):
            verify_order(t)

    @pytest.mark.parametrize("e", [5, 6, 7])
    def test_exponent_cap(self, e):
        # diag(1, exp(2 pi i / 2**e)) has order exactly 2**e; 6 is the cap.
        t = BaseTransform("rot", 1, 1, phase(2 * np.pi / (1 << e)))
        if e <= 6:
            assert verify_order(t) == e
        else:
            with pytest.raises(NotDyadicOrderError,
                               match=r"^rot: no exponent e <= 6 with U\*\*\(2\*\*e\) = I$"):
                verify_order(t)

    @pytest.mark.parametrize("transform_id,size",
                             [("fourier", 8), ("hartley", 8), ("cst1", 7), ("cst4", 7)])
    def test_squarings_hold_at_most_two_and_a_half_kernels(self, transform_id, size):
        # At most two kernel-sized arrays past the kernel: a power and its
        # modulus, or a power and its square; no identity, no difference.
        t = make_transform(transform_id, size)
        kernel = t.dense.nbytes  # built before the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            exponent, residue = order_and_residue(t)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert exponent == t.order_exponent and residue <= 1e-12
        assert peak <= 2.5 * kernel

    def test_eigenvalue_residue_off_the_roots(self):
        # |U - I|_max = 0.9e-8 is within ORDER_TOL, so e = 0, but the
        # eigenvalue 1 + 256 * 0.9e-8 is 2.3e-6 off 1, past EIGEN_RESIDUE_TOL.
        t = BaseTransform("skew", 8, 1, np.eye(256) + 0.9e-8 * np.ones((256, 256)))
        with pytest.raises(NotDyadicOrderError) as info:
            verify_order(t)
        assert str(info.value) == "skew: eigenvalue residue 2.304e-06 off the 2**0-th roots"


class TestPowers:
    @pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_numpy_matrix_power(self, transform_id, size):
        t = make_transform(transform_id, size)
        for k in range(t.order):
            expected = np.linalg.matrix_power(t.dense, k)
            assert linalg.max_norm_diff(t.power(k), expected) <= 1e-12

    def test_order_eight_operator(self):
        from helpers import random_dyadic_unitary

        u = random_dyadic_unitary(4, 3, np.random.default_rng(404))
        t = BaseTransform("custom", 2, 3, u)
        assert t.order == 8
        for k in range(t.order):
            assert linalg.max_norm_diff(t.power(k), np.linalg.matrix_power(u, k)) <= 1e-12

    @pytest.mark.parametrize("q", range(1, 9))
    def test_fourier_table_is_permuted(self, q):
        t = fourier_transform(q)
        eye, f, f2, f3 = [t.power(k) for k in range(t.order)]
        perm = -np.arange(1 << q) % (1 << q)
        assert np.array_equal(t._perm, perm)
        assert np.array_equal(f2, eye[perm]) and np.array_equal(f3, f[perm])
        assert linalg.max_norm_diff(f2, np.linalg.matrix_power(f, 2)) <= 1e-12
        assert linalg.max_norm_diff(f3, np.linalg.matrix_power(f, 3)) <= 1e-12

    def test_order_four_operator_without_permutation_gets_products(self):
        u = random_dyadic_unitary(8, 2, np.random.default_rng(405))
        t = BaseTransform("custom", 3, 2, u)
        assert type(t) is BaseTransform
        table = [t.power(k) for k in range(t.order)]
        assert np.array_equal(table[2], u @ u)
        assert np.array_equal(table[3], u @ u @ u)

    @pytest.mark.parametrize("kernel", ["random", "fourier_identity_perm"])
    def test_permutation_of_another_kernel_rejected(self, kernel):
        # A builder's powers (I, U, I[p], U[p]) are only as good as p;
        # without a certificate, check() reads p U U = I and must catch a
        # builder-style transform whose square is not I[p]. Here p comes
        # with the wrong table.
        fourier = fourier_transform(3)
        if kernel == "random":
            u = random_dyadic_unitary(8, 2, np.random.default_rng(406))
            layout, values, perm = (lambda: np.arange(64).reshape(8, 8),
                                    lambda dtype: u.ravel(), fourier._perm)
        else:
            layout, values, perm = fourier._layout, fourier._values, np.arange(8)
        impostor = base_transforms._TableTransform("impostor", 3, 2, _layout=layout,
                                                   _values=values, _fft=fourier._fft,
                                                   _perm=perm)
        vars(impostor)["table_dev"] = None
        with pytest.raises(NotDyadicOrderError, match="'impostor' does not satisfy U"):
            FractionalSpec(impostor, 0.5)
        with pytest.raises(NotDyadicOrderError, match="'impostor'"):
            impostor.check()

    def test_hand_built_proof_measures_the_products(self):
        # U is unitary within 1e-10, U**2 is not.
        leaky = BaseTransform("s", 2, 2, (1 + 4e-11) * dft_matrix(4))
        with pytest.raises(NotDyadicOrderError, match=r"'s' has U\*\*2 not unitary"):
            leaky.check()

    @pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
    def test_builtin_powers_build_no_kernel(self, transform_id):
        t = make_transform(transform_id, 6 if transform_id in ("fourier", "hartley") else 5)
        eye = t.power(0)
        assert "dense" not in vars(t)
        assert np.array_equal(eye, np.eye(len(eye)))
        if t.order == 4:
            f2 = t.power(2)
            assert "dense" not in vars(t)
            assert np.array_equal(f2, eye[-np.arange(64) % 64])
        assert eye.dtype == t.dense.dtype

    def test_square_perm_is_not_a_constructor_argument(self):
        dense = fourier_transform(2).dense
        with pytest.raises(TypeError, match="square_perm"):
            BaseTransform("bad", 2, 2, dense, square_perm=np.array([0, 3, 2, 1]))
        assert type(BaseTransform("mine", 2, 2, dense)) is BaseTransform

    def test_wrong_order_names_the_transform(self):
        # The table itself is unchecked; its two callers raise the named error.
        liar = BaseTransform("odd", 1, 1, phase(0.3))
        table = [liar.power(k) for k in range(liar.order)]
        assert len(table) == 2
        assert np.array_equal(table[1], phase(0.3))
        with pytest.raises(NotDyadicOrderError, match="'odd'"):
            fractional_oracle(FractionalSpec(liar, 0.5))
        with pytest.raises(NotDyadicOrderError, match="'odd'"):
            build_qfru_circuit(FractionalSpec(liar, 0.5))


BUILDERS = [fourier_transform, hartley_transform, cst1_transform, cst4_transform]


class TestTwoClasses:
    """A hand-built kernel is a BaseTransform; a builder's table transform is
    its subclass, and neither takes the other's arguments."""

    @staticmethod
    def table_fields(t):
        return {name: getattr(t, name) for name in ("_layout", "_values", "_fft", "_perm")}

    @pytest.mark.parametrize("name", ["_layout", "_values", "_fft", "_perm"])
    def test_hand_built_kernel_takes_no_table_field(self, name):
        # Once accepted, a kernel passed with the table fields was dropped
        # unchecked in favour of the table.
        fourier = fourier_transform(2)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            BaseTransform("x", 2, 2, np.zeros((3, 3)), **{name: getattr(fourier, name)})

    @pytest.mark.parametrize("missing", ["_values", "_fft"])
    def test_table_transform_without_its_table_fails_when_made(self, missing):
        # Once made, it failed only at check() by calling the missing None.
        fields = self.table_fields(fourier_transform(2))
        del fields[missing]
        with pytest.raises(TypeError, match=f"missing 1 required keyword-only argument: "
                                            f"'{missing}'"):
            base_transforms._TableTransform("z", 2, 2, **fields)

    def test_table_transform_takes_no_kernel(self):
        fields = self.table_fields(fourier_transform(2))
        with pytest.raises(TypeError, match="positional argument"):
            base_transforms._TableTransform("z", 2, 2, dft_matrix(4), **fields)
        with pytest.raises(TypeError, match="unexpected keyword argument 'kernel'"):
            base_transforms._TableTransform("z", 2, 2, kernel=dft_matrix(4), **fields)

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_builders_return_the_table_transform(self, builder):
        t = builder(2)
        assert type(t) is base_transforms._TableTransform
        assert isinstance(t, BaseTransform)


@pytest.mark.parametrize(
    "data_qubits,order_exponent,dense,error,message",
    [
        (2, 1, np.diag([np.nan, 1, 1, 1]).astype(complex), QfrtError, "kernel entries must be"),
        (2, 1, np.diag([1.0, np.inf, 1.0, 1.0]), QfrtError, "kernel entries must be finite"),
        (1, 1, [["a", "b"], ["c", "d"]], QfrtError, "kernel entries must be finite numbers"),
        (2, 1, np.eye(3), DimensionError, r"kernel of shape \(3, 3\) on 2 data qubits, "
                                          r"expected \(4, 4\)"),
        (2, 1, np.eye(8), DimensionError, r"kernel of shape \(8, 8\) on 2 data qubits"),
        (1, 1, np.ones(2), DimensionError, r"kernel of shape \(2,\) on 1 data qubits"),
        (1, 1, None, DimensionError, r"kernel of shape \(\) on 1 data qubits"),
        (0, 1, np.eye(1), DimensionError, "data_qubits must be an integer >= 1, got 0$"),
        (True, 1, np.eye(2), DimensionError, "data_qubits must be an integer >= 1, got True$"),
        (1.0, 1, np.eye(2), DimensionError, r"data_qubits must be an integer >= 1, got 1\.0$"),
        (1, 0, np.eye(2), DimensionError, "order_exponent must be an integer >= 1, got 0$"),
        (1, -1, np.eye(2), DimensionError, "order_exponent must be an integer >= 1, got -1$"),
        (1, True, np.eye(2), DimensionError,
         "order_exponent must be an integer >= 1, got True$"),
        # Once a products table of 2**30 - 2 entries, built by check().
        (1, 30, np.eye(2), QubitBudgetError,
         r"30 ancilla \+ 1 data qubits: 31 qubits exceed the 14-qubit budget$"),
    ],
    ids=["nan", "real_inf", "text", "eye3", "eye8", "vector", "none", "no_data_qubits",
         "bool_data_qubits", "float_data_qubits", "order_one", "negative_order_exponent",
         "bool_order_exponent", "order_over_budget"],
)
def test_rejects_a_kernel_that_is_no_finite_register_square(
        data_qubits, order_exponent, dense, error, message, monkeypatch):
    monkeypatch.delenv(linalg.BUDGET_ENV_VAR, raising=False)
    with pytest.raises(error, match=f"^'bad': {message}"):
        BaseTransform("bad", data_qubits, order_exponent, dense)


def test_accepts_numpy_integer_sizes():
    t = BaseTransform("mine", np.int64(1), np.int32(1), np.eye(2))
    assert (type(t.data_qubits), type(t.order_exponent)) == (int, int)


@pytest.mark.parametrize(
    "transform_id,size,qubits",
    [("fourier", 4, 4), ("hartley", 4, 4), ("cst1", 3, 4), ("cst4", 3, 4)],
)
def test_builders_check_the_qubit_budget(transform_id, size, qubits, monkeypatch):
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, str(qubits - 1))
    flag = "q" if transform_id in ("fourier", "hartley") else "n"
    with pytest.raises(QubitBudgetError, match=f"^{transform_id} {flag}={size}: {qubits} qubits "
                                               f"exceed the {qubits - 1}-qubit budget$"):
        make_transform(transform_id, size)
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, str(qubits))
    assert make_transform(transform_id, size).data_qubits == qubits


class TestMakeTransform:
    def test_dispatch(self):
        assert make_transform("fourier", 2).id == "fourier"
        assert make_transform("hartley", 2).id == "hartley"
        assert make_transform("cst1", 2).data_qubits == 3
        assert make_transform("cst4", 1).data_qubits == 2

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="hartley"):
            make_transform("dct2", 2)
