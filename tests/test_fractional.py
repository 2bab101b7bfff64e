import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import count_cached, count_calls, dft_matrix, random_dyadic_unitary, random_state
from qfrt import base_transforms, cli, fractional, linalg
from qfrt.base_transforms import (
    TRANSFORM_IDS,
    BaseTransform,
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
    make_transform,
    verify_order,
)
from qfrt.circuits import GATE_TOL, GateOp, H, circuit_unitary, multiplexed_powers, phase
from qfrt.errors import DimensionError, NotDyadicOrderError, QfrtError, QubitBudgetError
from qfrt.fractional import (
    FractionalSpec,
    ShihCoefficients,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_apply,
    fractional_oracle,
    shih_coefficients,
    unitarity_bound,
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
    # with U**2 != I. None may build a circuit. A NaN entry, for a complex
    # and for a real (float64) kernel alike, is rejected before that, when
    # the transform is made.
    if not np.all(np.isfinite(dense)):
        with pytest.raises(QfrtError, match="'bad': kernel entries must be finite"):
            BaseTransform("bad", 2, 1, dense)
        return
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


def test_oracle_rejects_non_unitary_base_of_exact_order():
    # S diag(1, -1) S**-1 with S = [[1, 1], [0, 1]] squares to I exactly, but
    # it is not unitary, so its Shih sum is no fractional power.
    s = np.array([[1.0, 1.0], [0.0, 1.0]])
    skew = BaseTransform("skew", 1, 1, s @ np.diag([1.0, -1.0]) @ np.linalg.inv(s))
    assert np.array_equal(skew.dense @ skew.dense, np.eye(2))
    with pytest.raises(NotDyadicOrderError, match="'skew'"):
        fractional_oracle(FractionalSpec(skew, 0.5))


def _product_table_oracle(base, alpha):
    """The defining sum over an explicit table of repeated products."""
    weights = shih_coefficients(base.order, alpha).weights
    power = np.eye(len(base.dense), dtype=complex)
    out = np.zeros_like(power)
    for weight in weights:
        out += weight * power
        power = power @ base.dense
    return out


def _hand_built(transform_id, order_exponent, q):
    if transform_id == "fourier":  # the DFT kernel without Fourier's permutation
        return BaseTransform("fourier", q, 2, dft_matrix(1 << q))
    u = random_dyadic_unitary(1 << q, order_exponent, np.random.default_rng(q))
    return BaseTransform(transform_id, q, order_exponent, u)


DIFFERENTIAL_BASES = {
    **{f"{t}{s}": (make_transform, t, s)
       for t, sizes in (("fourier", (1, 4, 8)), ("hartley", (1, 5, 8)),
                        ("cst1", (1, 4, 7)), ("cst4", (1, 4, 7)))
       for s in sizes},
    **{f"hand_fourier{q}": (_hand_built, "fourier", 2, q) for q in (1, 4, 8)},
    **{f"order8_q{q}": (_hand_built, "order8", 3, q) for q in (1, 3, 5)},
    **{f"order16_q{q}": (_hand_built, "order16", 4, q) for q in (1, 3, 5)},
}


@pytest.mark.parametrize("case", DIFFERENTIAL_BASES.values(), ids=DIFFERENTIAL_BASES.keys())
def test_oracle_matches_product_table_sum(case):
    base = case[0](*case[1:])
    for alpha in (0.0, 0.37, 1.0, 2.5, 3.9, -1.3, 7.25, 1e6 + 0.3, -4.4e9, 3.3e15):
        got = fractional_oracle(FractionalSpec(base, alpha))
        assert linalg.max_norm_diff(got, _product_table_oracle(base, alpha)) <= 1e-12


def test_additivity_suite_proves_the_kernel_once(monkeypatch, capsys):
    # 75 oracle calls on one transform prove it once. A built-in: one table
    # certificate, no dense product, no comparison and no product table. A
    # hand-built order-8 kernel: one dense unitarity product, one O(N**2)
    # order comparison and one product table.
    hand_built = BaseTransform("order8", 3, 3,
                               random_dyadic_unitary(8, 3, np.random.default_rng(8)))
    for make, counts in ((cli.make_transform, (0, 1, 0, 0)),
                         (lambda *a: hand_built, (1, 0, 1, 1))):
        transforms = []
        with monkeypatch.context() as m:
            m.setattr(cli, "make_transform",
                      lambda *a: transforms.append(make(*a)) or transforms[-1])
            proved = count_calls(m, linalg, "unitarity_dev")
            certified = count_calls(m, base_transforms, "_entry_dev")
            compared = count_calls(m, base_transforms, "_adjoint_dev")
            tables = count_cached(m, BaseTransform, "_products")
            assert cli.main(["verify", "--suite", "additivity", "--transform", "fourier",
                             "--qubits", "3"]) == 0
        assert len(transforms) == 1
        t = transforms[0]
        assert (len(proved), len(certified), len(compared), len(tables)) == counts
        assert all(args == (t._values,) for args in certified)
        assert all(args[0] is t.dense for args in proved)
        assert tables == [t] * len(tables)


def _no_fft(x):
    raise AssertionError("apply called")


def _uncertified_builtin(transform_id, kernel):
    """A one-qubit builder's transform, layout, table and ``apply``, whose
    table has no certificate, as where np.longdouble is no wider than float64."""
    t = BaseTransform(transform_id, 1, 1, _layout=lambda: np.arange(4).reshape(2, 2),
                      _values=lambda dtype: kernel.ravel(), _fft=_no_fft)
    vars(t)["table_dev"] = None
    return t


def _failing_transform(fault):
    """A transform every entry point accepts up to its check(), which it
    fails: by the dense proof and the O(N**2) comparison (no certificate), by
    a power that is not unitary although U is, or by a built-in's
    certificate, set too large."""
    if fault == "power_not_unitary":
        # g = 8e-11 passes, but |U**2^dagger U**2 - I| = 1.6e-10 does not.
        return BaseTransform("s", 2, 2, (1 + 4e-11) * dft_matrix(4))
    if fault == "wrong_order":
        return _uncertified_builtin("odd", phase(0.3))
    if fault == "not_unitary":
        return _uncertified_builtin("double", 2 * np.eye(2))
    # 2 sqrt(N) delta <= GATE_TOL, but 4 N delta > ORDER_TOL at N = 4096
    t = make_transform("fourier" if fault == "certificate_order" else "hartley", 12)
    vars(t)["table_dev"] = 7e-13 if fault == "certificate_order" else 1e-6
    return t


ENTRY_POINTS = {
    # Making the spec proves its base, before oracle, apply, bound or builder runs.
    "spec": lambda t: FractionalSpec(t, 0.5),
    "oracle": lambda t: fractional_oracle(FractionalSpec(t, 0.5)),
    "apply": lambda t: fractional_apply(FractionalSpec(t, 0.5),
                                        np.eye(1 << t.data_qubits, 1)),
    # The spec's check() comes before the shape check, so any m reaches it.
    "bound": lambda t: unitarity_bound(FractionalSpec(t, 0.5), np.eye(2)),
    "builder": lambda t: build_qfru_circuit(FractionalSpec(t, 0.5)),
    "power_op": lambda t: GateOp("unitary", targets=tuple(range(t.data_qubits)),
                                 power=(t, 1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("fault,message", [
    ("wrong_order", r"'odd' does not satisfy U\*\*2 = I"),
    ("not_unitary", "'double' is not unitary"),
    ("power_not_unitary", r"'s' has U\*\*2 not unitary within 1e-10"),
    ("certificate_order", r"'fourier' does not satisfy U\*\*4 = I"),
    ("certificate_unitarity", "'hartley' is not unitary"),
])
def test_every_entry_point_rejects_a_failing_transform(fault, message, entry):
    t = _failing_transform(fault)
    with pytest.raises(NotDyadicOrderError, match=message):
        ENTRY_POINTS[entry](t)
    if fault.startswith("certificate"):
        assert vars(t)["dense"] is None  # rejected from the certificate alone


@pytest.mark.parametrize("entry", [lambda t: build_qfrin_circuit(t, 0.3), verify_order,
                                   multiplexed_powers],
                         ids=["build_qfrin_circuit", "verify_order", "multiplexed_powers"])
def test_entry_point_names_an_argument_that_is_no_transform(entry):
    with pytest.raises(ValueError, match="must be a BaseTransform, got ndarray"):
        entry(np.eye(4))


@pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
def test_one_unitary_payload_per_controlled_power(transform_id):
    # size is the data-qubit count for fourier/hartley, n = qubits - 1 for cst
    sizes = range(1, 7) if transform_id in ("fourier", "hartley") else range(1, 6)
    for size in sizes:
        base = make_transform(transform_id, size)
        circuit = build_qfru_circuit(FractionalSpec(base, 0.7))
        payload_ops = [op for op in circuit.ops if op.name == "unitary"]
        n, order = base.order_exponent, base.order
        # n forward ops U**(2**j) and n inverse ops U**(-2**j mod order); the
        # top bit's exponent, order/2, is the same in both
        exponents = [op.power[1] for op in payload_ops]
        assert exponents == [1 << j for j in range(n)] + [-(1 << j) % order for j in range(n)]
        assert len(set(exponents)) == 2 * n - 1
        assert all(op.power[0] is base for op in payload_ops)
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
    # kernel without its permutation takes the repeated-product path.
    structured = FractionalSpec(fourier_transform(q), alpha)
    products = FractionalSpec(BaseTransform("fourier", q, 2, dft_matrix(1 << q)), alpha)
    assert products.base._perm is None
    oracles = [fractional_oracle(spec) for spec in (structured, products)]
    assert linalg.max_norm_diff(*oracles) <= 1e-12
    blocks = [
        extract_data_block(
            circuit_unitary(build_qfru_circuit(spec), columns=1 << q), 2, q
        )[0]
        for spec in (structured, products)
    ]
    assert linalg.max_norm_diff(*blocks) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    transform_id=st.sampled_from(TRANSFORM_IDS),
    size=st.integers(1, 7),
    k=st.integers(1, 2),
    beta=st.one_of(
        st.floats(-32, 32, allow_nan=False),
        st.floats(1e6, 1e15, allow_nan=False),
        st.floats(-1e15, -1e6, allow_nan=False),
    ),
)
def test_half_power_ladder(transform_id, size, k, beta):
    # V = FrU(1/2**k) has order 2**k order(U), and FrV(beta) = FrU(beta / 2**k):
    # the general dyadic path on a structured, hand-built kernel of order up
    # to 16, proven by one measured U^dagger U and its power-table checks.
    u = make_transform(transform_id, size)
    assume(u.data_qubits + u.order_exponent + k <= 10)
    q = u.data_qubits
    root = fractional_oracle(FractionalSpec(u, 1.0 / (1 << k)))
    v = BaseTransform(f"{transform_id}^(1/{1 << k})", q, u.order_exponent + k, root)
    expected = fractional_oracle(FractionalSpec(u, beta / (1 << k)))
    spec = FractionalSpec(v, beta)
    assert linalg.max_norm_diff(fractional_oracle(spec), expected) <= 1e-10
    assert v.table_dev is None and v.unitarity_dev == linalg.unitarity_dev(root)
    full = circuit_unitary(build_qfru_circuit(spec), columns=1 << q)
    block, leakage = extract_data_block(full, spec.num_ancillas, q)
    assert linalg.max_norm_diff(block, expected) <= 1e-10
    assert leakage <= 1e-10


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
        # The phase block (psi3..psi4) on ancilla j has angle 2**j alpha
        # theta0, theta0 = -2 pi / order: -pi for n = 1, -pi / 2 for n = 2.
        for t, theta0 in ((hartley_transform(1), -math.pi), (fourier_transform(1), -math.pi / 2)):
            c = build_qfru_circuit(FractionalSpec(t, 0.5))
            marks = dict(c.marks)
            block = c.ops[marks["psi3"]:marks["psi4"]]
            n = t.order_exponent
            assert [(op.name, op.targets) for op in block] == [("p", (1 + j,)) for j in range(n)]
            assert [op.params for op in block] == [(2**j * 0.5 * theta0,) for j in range(n)]


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
        assert c.ops[1].power == c.ops[5].power == (t, 1)
        assert (c.ops[1].targets, c.ops[1].controls) == ((0, 1), (2,))
        assert np.array_equal(c.ops[1].matrix, t.dense)
        assert all(op.targets == (2,) for i, op in enumerate(c.ops) if i not in (1, 5))
        assert c.ops[3].params == (-math.pi * 0.3,)
        assert c.marks == tuple((f"psi{i}", i) for i in range(8))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="'fourier' is not an involution"):
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

    @pytest.mark.parametrize("shape", [(16, 5), (16, 15), (4, 16), (8, 1)])
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
        # Any leading w columns give the block's first w columns and their
        # own worst leakage.
        for w in range(1, 1 << data_qubits):
            block_w, leakage_w = extract_data_block(full[:, :w], num_ancillas, data_qubits)
            assert np.array_equal(block_w, block[:, :w])
            assert leakage_w == max(np.linalg.norm(full[block.shape[0]:, :w], axis=0))


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


#: Every transform at up to 8 data qubits (cst sizes are n, on n + 1 qubits).
SMALL = [("fourier", q) for q in (1, 2, 3, 5, 8)] + [
    ("hartley", q) for q in (1, 2, 4, 8)] + [
    (t, n) for t in ("cst1", "cst4") for n in (1, 2, 4, 7)]

#: Exponents for the matrix-free checks, several past 1e6 in magnitude.
ALPHAS = (-4.6, -1.0, 0.0, 0.37, 1.5, 2.0, 3.3, 7.9, 1e6 + 0.37, -3e7 - 0.5, 4e12 + 0.5)


@pytest.mark.parametrize("transform_id,size", SMALL)
def test_fractional_apply_matches_the_dense_product(transform_id, size):
    t = make_transform(transform_id, size)
    rng = np.random.default_rng(size)
    for _ in range(4):
        a, b = rng.uniform(-t.order, 2 * t.order, size=2)
        x = fractional_oracle(FractionalSpec(t, b))
        want = fractional_oracle(FractionalSpec(t, a)) @ x
        assert linalg.max_norm_diff(fractional_apply(FractionalSpec(t, a), x), want) <= 1e-13


@pytest.mark.parametrize("transform_id,size", SMALL)
def test_unitarity_bound_matches_the_dense_value(transform_id, size):
    t = make_transform(transform_id, size)
    for alpha in ALPHAS:
        spec = FractionalSpec(t, alpha)
        m = fractional_oracle(spec)
        assert abs(unitarity_bound(spec, m) - linalg.unitarity_dev(m)) <= 1e-13


@pytest.mark.parametrize("order_exponent,q", [(1, 2), (2, 3), (3, 2)])
def test_unitarity_bound_of_a_hand_built_kernel(order_exponent, q):
    rng = np.random.default_rng(order_exponent)
    t = BaseTransform("mine", q, order_exponent,
                      random_dyadic_unitary(1 << q, order_exponent, rng))
    for alpha in ALPHAS:
        spec = FractionalSpec(t, alpha)
        m = fractional_oracle(spec)
        assert abs(unitarity_bound(spec, m) - linalg.unitarity_dev(m)) <= 1e-13


@pytest.mark.parametrize("transform_id,size", SMALL)
def test_unitarity_bound_is_as_strict_as_the_dense_value(transform_id, size):
    # One oracle row scaled by 1 + 1e-6: the bound reads the dense value,
    # not half of it (2 max|G| is the leading term), and both fail 1e-10.
    t = make_transform(transform_id, size)
    for alpha in (0.37, 1.5, -2.9, 1e6 + 0.37):
        spec = FractionalSpec(t, alpha)
        m = fractional_oracle(spec)
        m[len(m) // 3] *= 1 + 1e-6
        dense, bound = linalg.unitarity_dev(m), unitarity_bound(spec, m)
        assert dense > 1e-10 and 0.9 * dense <= bound <= 1.1 * dense


@pytest.mark.parametrize("transform_id,size", SMALL)
def test_unitarity_bound_fails_a_unitary_but_wrong_oracle(transform_id, size):
    # U**round(alpha) is unitary, so the dense value passes it.
    t = make_transform(transform_id, size)
    for alpha in (0.37, 1.3, 2.6):
        spec = FractionalSpec(t, alpha)
        m = t.power(round(alpha) % t.order)
        assert linalg.unitarity_dev(m) <= 1e-10 and unitarity_bound(spec, m) > 1e-3


def test_unitarity_bound_reads_every_column_block(monkeypatch):
    # Blocks of 3 columns, the last one short; a fault in the last column.
    monkeypatch.setattr(fractional, "_COLUMN_BLOCK", 3 << 4)
    spec = FractionalSpec(make_transform("hartley", 4), 0.37)
    m = fractional_oracle(spec)
    assert unitarity_bound(spec, m) <= 1e-13
    m[5, 15] += 1e-7
    assert unitarity_bound(spec, m) > 1e-7


def test_unitarity_bound_certifies_nothing_for_weights_far_from_unitary():
    # With eps >= 1 the adjoint need not be invertible, so no bound holds.
    spec = FractionalSpec(make_transform("hartley", 1), 0.37)
    vars(spec)["coefficients"] = ShihCoefficients(2, 0.37, np.ones(2))
    assert unitarity_bound(spec, np.eye(2)) == math.inf


def test_unitarity_bound_rejects_a_wrong_shape():
    spec = FractionalSpec(make_transform("cst4", 2), 0.37)
    with pytest.raises(DimensionError, match=r"^'cst4': unitarity_bound needs a \(8, 8\) matrix"):
        unitarity_bound(spec, np.eye(8, 4))
