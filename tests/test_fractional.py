import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state
from qfrt import linalg
from qfrt.base_transforms import (
    BaseTransform,
    cst1_transform,
    cst4_transform,
    dft_matrix,
    fourier_transform,
    hartley_transform,
    make_transform,
)
from qfrt.circuits import GATE_TOL, H, circuit_unitary, phase
from qfrt.errors import DimensionError, NotDyadicOrderError, QubitBudgetError
from qfrt.fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
    shih_coefficients,
)

DESK_TRANSFORMS = [
    fourier_transform(1),
    fourier_transform(2),
    hartley_transform(1),
    hartley_transform(2),
    hartley_transform(3),
    cst1_transform(1),
    cst1_transform(2),
    cst4_transform(1),
    cst4_transform(2),
]
DESK_IDS = [f"{t.id}_q{t.data_qubits}" for t in DESK_TRANSFORMS]


def brute_force_weight(order, alpha, k):
    """Direct evaluation of the defining sum, term by term."""
    acc = 0j
    for m in range(order):
        acc += cmath.exp(-2j * cmath.pi * m * (alpha - k) / order)
    return acc / order


class TestShihCoefficients:
    def test_alpha_zero_selects_identity(self):
        c = shih_coefficients(4, 0.0).weights
        assert linalg.max_norm_diff(c[None, :], np.array([[1, 0, 0, 0]])) <= 1e-15

    def test_integer_alpha_selects_single_power(self):
        c = shih_coefficients(4, 2.0).weights
        assert linalg.max_norm_diff(c[None, :], np.array([[0, 0, 1, 0]])) <= 1e-14

    def test_half_power_of_involution(self):
        # brute-forced two-term sum: [(1 - i)/2, (1 + i)/2]
        expected = np.array([brute_force_weight(2, 0.5, k) for k in range(2)])
        assert linalg.max_norm_diff(expected[None, :],
                                    np.array([[0.5 - 0.5j, 0.5 + 0.5j]])) <= 1e-15
        got = shih_coefficients(2, 0.5).weights
        assert linalg.max_norm_diff(got[None, :], expected[None, :]) <= 1e-14

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for order in (2, 4, 8):
            for alpha in rng.uniform(-order, 2 * order, size=4):
                expected = [brute_force_weight(order, alpha, k) for k in range(order)]
                got = shih_coefficients(order, alpha).weights
                assert np.max(np.abs(got - expected)) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.sampled_from([2, 4, 8, 16]),
        alpha=st.floats(-20, 20, allow_nan=False),
    )
    def test_sum_identities(self, order, alpha):
        c = shih_coefficients(order, alpha).weights
        assert abs(c.sum() - 1.0) <= 1e-12
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12

    def test_integer_alpha_is_kronecker_delta(self):
        for order in (2, 4, 8):
            for m in range(-order, 2 * order):
                c = shih_coefficients(order, float(m)).weights
                expected = np.zeros(order)
                expected[m % order] = 1.0
                assert np.max(np.abs(c - expected)) <= 1e-12

    def test_order_must_be_dyadic(self):
        for bad in (0, 1, 3, 6, 12):
            with pytest.raises(ValueError):
                shih_coefficients(bad, 0.5)


def test_oracle_rejects_operator_of_wrong_order():
    liar = BaseTransform("odd", 1, 1, phase(0.3))
    with pytest.raises(NotDyadicOrderError, match="'odd'"):
        fractional_oracle(FractionalSpec(liar, 0.5))


def test_qfru_circuit_rejects_operator_of_wrong_order():
    liar = BaseTransform("odd", 1, 1, phase(0.3))
    with pytest.raises(NotDyadicOrderError, match="'odd'"):
        build_qfru_circuit(FractionalSpec(liar, 0.5))


@pytest.mark.parametrize(
    "dense",
    [
        fourier_transform(2).dense,
        np.diag([np.nan, 1, 1, 1]).astype(complex),
        np.diag([np.nan, 1.0, 1.0, 1.0]),
        np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
    ],
    ids=["fourier", "nan", "real_nan", "real_rotation"],
)
def test_builders_reject_order_two_base_that_is_no_involution(dense):
    # Declared order 2 but no involution: F and a real rotation are unitary
    # with U**2 != I, and a NaN entry fails the order comparison too, for a
    # complex and for a real (float64) kernel alike. None may build a circuit.
    bad = BaseTransform("bad", len(dense).bit_length() - 1, 1, dense)
    with pytest.raises(NotDyadicOrderError, match="'bad'"):
        build_qfru_circuit(FractionalSpec(bad, 0.5))
    with pytest.raises(NotDyadicOrderError, match="'bad'"):
        build_qfrin_circuit(bad, 0.5)


def test_hermitian_non_unitary_base_rejected():
    # 2 I equals its adjoint, so it passes the builder's U**(order-1) = U^dagger
    # comparison; the builder still rejects it, through the payload check on U,
    # for a complex and for a real (float64) kernel alike.
    for dtype in (complex, float):
        double = BaseTransform("double", 1, 1, 2 * np.eye(2, dtype=dtype))
        with pytest.raises(NotDyadicOrderError, match="'double'"):
            fractional_oracle(FractionalSpec(double, 0.5))
        with pytest.raises(ValueError, match="not unitary"):
            build_qfru_circuit(FractionalSpec(double, 0.5))
        with pytest.raises(ValueError, match="not unitary"):
            build_qfrin_circuit(double, 0.5)


@pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
def test_one_unitary_payload_per_controlled_power(transform_id):
    # size is the data-qubit count for fourier/hartley, n = qubits - 1 for cst
    sizes = range(1, 7) if transform_id in ("fourier", "hartley") else range(1, 6)
    for size in sizes:
        base = make_transform(transform_id, size)
        circuit = build_qfru_circuit(FractionalSpec(base, 0.7))
        payload_ops = [op for op in circuit.ops if op.name == "unitary"]
        n = base.order_exponent
        # n forward ops and n inverse ops, the top bit's op shared by both
        assert len(payload_ops) == 2 * n
        assert len({id(op) for op in payload_ops}) == 2 * n - 1
        assert all(linalg.is_unitary(op.matrix, GATE_TOL) for op in payload_ops)


@pytest.mark.parametrize("shift", [4e6, 4e12, 4e15, -4e12])
def test_periodic_at_large_alpha(shift):
    # shift is a multiple of every order used here, so alpha = shift + 0.5
    # names the same operator as alpha = 0.5
    fourier = fourier_transform(2)
    near, far = FractionalSpec(fourier, 0.5), FractionalSpec(fourier, shift + 0.5)
    assert linalg.max_norm_diff(fractional_oracle(far), fractional_oracle(near)) <= 1e-12
    blocks = [
        extract_data_block(circuit_unitary(build_qfru_circuit(spec)), 2, 2)[0]
        for spec in (near, far)
    ]
    assert linalg.max_norm_diff(*blocks) <= 1e-10
    hartley = hartley_transform(2)
    blocks = [
        extract_data_block(circuit_unitary(build_qfrin_circuit(hartley, a)), 1, 2)[0]
        for a in (0.5, shift + 0.5)
    ]
    assert linalg.max_norm_diff(*blocks) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6),
    alpha=st.one_of(
        st.floats(-8, 8, allow_nan=False),
        st.floats(1e6, 1e15, allow_nan=False),
        st.floats(-1e15, -1e6, allow_nan=False),
    ),
)
def test_fourier_permuted_table_matches_product_table(q, alpha):
    # fourier_transform(q) builds F**2 and F**3 by row permutation; the same
    # kernel without square_perm takes the repeated-product path.
    structured = FractionalSpec(fourier_transform(q), alpha)
    products = FractionalSpec(BaseTransform("fourier", q, 2, dft_matrix(1 << q)), alpha)
    assert products.base.square_perm is None
    oracles = [fractional_oracle(spec) for spec in (structured, products)]
    assert linalg.max_norm_diff(*oracles) <= 1e-12
    blocks = [
        extract_data_block(
            circuit_unitary(build_qfru_circuit(spec), columns=1 << q), 2, q
        )[0]
        for spec in (structured, products)
    ]
    assert linalg.max_norm_diff(*blocks) <= 1e-12


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_rejected(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha"):
            FractionalSpec(fourier_transform(1), alpha)
        with pytest.raises(ValueError, match="alpha"):
            shih_coefficients(4, alpha)
        with pytest.raises(ValueError, match="alpha"):
            build_qfrin_circuit(hartley_transform(1), alpha)


class TestFractionalOracle:
    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_alpha_zero_is_identity(self, transform):
        m = fractional_oracle(FractionalSpec(transform, 0.0))
        assert linalg.max_norm_diff(m, np.eye(m.shape[0])) <= 1e-13

    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_alpha_one_recovers_base(self, transform):
        m = fractional_oracle(FractionalSpec(transform, 1.0))
        assert linalg.max_norm_diff(m, transform.dense) <= 1e-12

    def test_half_power_squares_to_hartley(self):
        t = hartley_transform(2)
        m = fractional_oracle(FractionalSpec(t, 0.5))
        assert linalg.max_norm_diff(m @ m, t.dense) <= 1e-10

    def test_half_power_squares_to_fourier(self):
        t = fourier_transform(2)
        m = fractional_oracle(FractionalSpec(t, 0.5))
        assert linalg.max_norm_diff(m @ m, t.dense) <= 1e-10

    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_additivity(self, transform):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a, b = rng.uniform(0.0, transform.order, size=2)
            lhs = fractional_oracle(FractionalSpec(transform, a)) @ fractional_oracle(
                FractionalSpec(transform, b)
            )
            rhs = fractional_oracle(FractionalSpec(transform, a + b))
            assert linalg.max_norm_diff(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_periodicity(self, transform):
        rng = np.random.default_rng(32)
        for alpha in rng.uniform(0.0, transform.order, size=5):
            lhs = fractional_oracle(FractionalSpec(transform, alpha))
            rhs = fractional_oracle(FractionalSpec(transform, alpha + transform.order))
            assert linalg.max_norm_diff(lhs, rhs) <= 1e-12

    @pytest.mark.parametrize(
        "transform",
        [fourier_transform(1), hartley_transform(2), cst1_transform(1), cst4_transform(1)],
        ids=["fourier1", "hartley2", "cst1_1", "cst4_1"],
    )
    def test_unitarity_on_alpha_grid(self, transform):
        for alpha in np.arange(0.0, transform.order, 0.1):
            m = fractional_oracle(FractionalSpec(transform, alpha))
            assert linalg.is_unitary(m, tol=1e-10)

    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_integer_power_recovery(self, transform):
        for m in range(transform.order):
            got = fractional_oracle(FractionalSpec(transform, float(m)))
            expected = linalg.matrix_power(transform.dense, m)
            assert linalg.max_norm_diff(got, expected) <= 1e-12

    def test_cst4_selector_survives_fractionalization(self):
        # both I and U are block-diagonal, so any mix of them is too
        t = cst4_transform(2)
        cut = 1 << 2
        for alpha in (0.3, 0.5, 1.7):
            m = fractional_oracle(FractionalSpec(t, alpha))
            assert np.max(np.abs(m[:cut, cut:])) <= 1e-15
            assert np.max(np.abs(m[cut:, :cut])) <= 1e-15


class TestQfruCircuit:
    @pytest.mark.parametrize("transform", DESK_TRANSFORMS, ids=DESK_IDS)
    def test_matches_oracle(self, transform):
        for alpha in (0.25, 0.5, 1.7):
            spec = FractionalSpec(transform, alpha)
            full = circuit_unitary(build_qfru_circuit(spec))
            block, leakage = extract_data_block(
                full, spec.num_ancillas, spec.data_qubits
            )
            assert linalg.max_norm_diff(block, fractional_oracle(spec)) <= 1e-10
            assert leakage <= 1e-10

    def test_alpha_zero_gives_identity_circuit(self):
        spec = FractionalSpec(fourier_transform(2), 0.0)
        full = circuit_unitary(build_qfru_circuit(spec))
        assert linalg.max_norm_diff(full, np.eye(16)) <= 1e-10

    def test_alpha_one_block_is_fourier(self):
        spec = FractionalSpec(fourier_transform(2), 1.0)
        full = circuit_unitary(build_qfru_circuit(spec))
        block, leakage = extract_data_block(full, 2, 2)
        assert linalg.max_norm_diff(block, spec.base.dense) <= 1e-10
        assert leakage <= 1e-10

    def test_hartley_uses_single_ancilla(self):
        c = build_qfru_circuit(FractionalSpec(hartley_transform(2), 0.5))
        assert c.num_qubits == 3

    def test_stage_marks(self):
        c = build_qfru_circuit(FractionalSpec(hartley_transform(1), 0.5))
        assert [label for label, _ in c.marks] == [f"psi{i}" for i in range(8)]

    def test_budget(self, monkeypatch):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "4")
        with pytest.raises(QubitBudgetError):
            FractionalSpec(hartley_transform(4), 0.5)

    def test_theta0(self):
        assert FractionalSpec(hartley_transform(1), 0.5).theta0 == -math.pi
        assert FractionalSpec(fourier_transform(1), 0.5).theta0 == -math.pi / 2


class TestQfrinCircuit:
    def test_alpha_one_applies_base(self):
        t = hartley_transform(2)
        full = circuit_unitary(build_qfrin_circuit(t, 1.0))
        block, leakage = extract_data_block(full, 1, 2)
        assert linalg.max_norm_diff(block, t.dense) <= 1e-10
        assert leakage <= 1e-10

    def test_half_power_closed_form(self):
        t = hartley_transform(1)
        full = circuit_unitary(build_qfrin_circuit(t, 0.5))
        block, _ = extract_data_block(full, 1, 1)
        expected = (0.5 - 0.5j) * np.eye(2) + (0.5 + 0.5j) * H
        assert linalg.max_norm_diff(block, expected) <= 1e-12

    @pytest.mark.parametrize(
        "transform",
        [hartley_transform(2), cst1_transform(1), cst4_transform(2)],
        ids=["hartley2", "cst1_1", "cst4_2"],
    )
    def test_closed_form_on_alpha_grid(self, transform):
        dim = transform.dense.shape[0]
        for alpha in np.linspace(0.0, 2.0, 9):
            full = circuit_unitary(build_qfrin_circuit(transform, alpha))
            block, leakage = extract_data_block(full, 1, transform.data_qubits)
            w = cmath.exp(-1j * math.pi * alpha)
            expected = (1 + w) / 2 * np.eye(dim) + (1 - w) / 2 * transform.dense
            assert linalg.max_norm_diff(block, expected) <= 1e-10
            assert leakage <= 1e-10

    def test_two_half_powers_compose_to_base(self):
        t = cst4_transform(1)
        full = circuit_unitary(build_qfrin_circuit(t, 0.5))
        block, _ = extract_data_block(full, 1, t.data_qubits)
        assert linalg.max_norm_diff(block @ block, t.dense) <= 1e-10

    @pytest.mark.parametrize(
        "transform",
        [hartley_transform(1), hartley_transform(2), cst1_transform(1), cst4_transform(1)],
        ids=["hartley1", "hartley2", "cst1_1", "cst4_1"],
    )
    def test_agrees_with_general_construction(self, transform):
        for alpha in (0.0, 0.3, 0.5, 1.0, 1.9):
            via_qfrin = circuit_unitary(build_qfrin_circuit(transform, alpha))
            via_qfru = circuit_unitary(build_qfru_circuit(FractionalSpec(transform, alpha)))
            assert linalg.max_norm_diff(via_qfrin, via_qfru) <= 1e-12

    def test_is_the_seven_op_involution_circuit(self):
        t = hartley_transform(2)
        c = build_qfrin_circuit(t, 0.3)
        assert [op.name for op in c.ops] == ["h", "unitary", "h", "p", "h", "unitary", "h"]
        assert c.ops[1] is c.ops[5]
        assert (c.ops[1].targets, c.ops[1].controls) == ((0, 1), (2,))
        assert np.array_equal(c.ops[1].matrix, t.dense)
        assert all(op.targets == (2,) for i, op in enumerate(c.ops) if i not in (1, 5))
        assert c.ops[3].params == (-math.pi * 0.3,)
        assert c.marks == tuple((f"psi{i}", i) for i in range(8))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            build_qfrin_circuit(fourier_transform(2), 0.5)


class TestExtractDataBlock:
    def test_identity(self):
        block, leakage = extract_data_block(np.eye(8), 1, 2)
        assert np.array_equal(block, np.eye(4))
        assert leakage == 0.0

    def test_ancilla_flip_leaks_everything(self):
        x_on_ancilla = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        block, leakage = extract_data_block(x_on_ancilla, 1, 1)
        assert np.all(block == 0)
        assert leakage == 1.0

    def test_zero_ancillas(self):
        m = np.diag([1, 1j]).astype(complex)
        block, leakage = extract_data_block(m, 0, 1)
        assert np.array_equal(block, m)
        assert leakage == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            extract_data_block(np.eye(4), 2, 2)

    @pytest.mark.parametrize("shape", [(16, 5), (16, 3), (4, 16), (16, 1)])
    def test_shape_neither_square_nor_data_columns(self, shape):
        with pytest.raises(DimensionError, match=r"16x16 matrix or its 16x4 column slice"):
            extract_data_block(np.ones(shape), 2, 2)

    @pytest.mark.parametrize(
        "full,num_ancillas,data_qubits",
        [
            (circuit_unitary(build_qfru_circuit(FractionalSpec(fourier_transform(2), 0.7))),
             2, 2),
            (circuit_unitary(build_qfrin_circuit(cst4_transform(2), 1.3)), 1, 3),
            (np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)), 1, 1),
        ],
        ids=["qfru_fourier2", "qfrin_cst4_2", "ancilla_flip"],
    )
    def test_column_slice_gives_same_result(self, full, num_ancillas, data_qubits):
        block, leakage = extract_data_block(full, num_ancillas, data_qubits)
        sliced = full[:, : 1 << data_qubits]
        block_s, leakage_s = extract_data_block(sliced, num_ancillas, data_qubits)
        assert np.array_equal(block_s, block)
        assert leakage_s == leakage


def test_generic_dyadic_operator_with_three_ancillas():
    # the construction is not tied to the named transforms: any operator
    # with U**8 = I fractionalizes with a 3-qubit selector register
    from helpers import random_dyadic_unitary
    from qfrt.base_transforms import BaseTransform

    rng = np.random.default_rng(404)
    u = random_dyadic_unitary(4, 3, rng)
    base = BaseTransform("custom", 2, 3, u)
    for alpha in (0.4, 2.9):
        spec = FractionalSpec(base, alpha)
        full = circuit_unitary(build_qfru_circuit(spec))
        block, leakage = extract_data_block(full, 3, 2)
        assert linalg.max_norm_diff(block, fractional_oracle(spec)) <= 1e-10
        assert leakage <= 1e-10
        assert linalg.is_unitary(block, tol=1e-10)


def test_restoration_for_random_inputs():
    rng = np.random.default_rng(77)
    from qfrt import simulator

    for transform in (fourier_transform(2), cst4_transform(2)):
        spec = FractionalSpec(transform, 1.3)
        circuit = build_qfru_circuit(spec)
        data = random_state(spec.data_qubits, rng)
        state = np.zeros(1 << circuit.num_qubits, dtype=complex)
        state[: data.size] = data
        final, _ = simulator.run(circuit, state)
        prob = simulator.ancilla_restoration_probability(final, spec.num_ancillas)
        assert abs(prob - 1.0) <= 1e-10
        expected = fractional_oracle(spec) @ data
        assert np.max(np.abs(final[: data.size] - expected)) <= 1e-10
