"""A built-in transform is certified from its roots table in O(N), and its
dense kernel is built only when something reads it."""
from functools import partial

import numpy as np
import pytest

from helpers import count_calls, random_dyadic_unitary
from qfrt import base_transforms, linalg, simulator
from qfrt.base_transforms import BaseTransform, hartley_transform, make_transform
from qfrt.circuits import GateOp, circuit_unitary
from qfrt.errors import NotDyadicOrderError
from qfrt.fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
    shih_coefficients,
)

LD = np.longdouble
EPS_LD = np.finfo(LD).eps
PI_LD = 4 * np.arctan(LD(1))

#: Every built-in at every size up to 10 qubits: (id, size).
SIZES = [(t, q) for t in ("fourier", "hartley") for q in range(1, 11)] + [
    (t, n) for t in ("cst1", "cst4") for n in range(1, 10)]

#: Sizes whose kernel never indexes the table entry that deviates most, so
#: the certificate, taken over every table entry, is strictly above the
#: kernel's own deviation.
UNREACHED = {("cst1", 1), ("cst4", 1), ("cst4", 2)}


def exact_kernel(transform_id: str, size: int) -> np.ndarray:
    """The kernel's closed form in longdouble, entry by entry, from the
    exactly reduced exponent (not from the builders' tables)."""
    big_n = 1 << size
    if transform_id in ("fourier", "hartley"):
        j = np.arange(big_n)
        angle = 2 * PI_LD * (np.outer(j, j) % big_n) / big_n
        if transform_id == "fourier":
            return (np.cos(angle) - 1j * np.sin(angle)) / np.sqrt(LD(big_n))
        return (np.cos(angle) + np.sin(angle)) / np.sqrt(LD(big_n))
    scale = np.sqrt(2 / LD(big_n))
    out = np.zeros((2 * big_n, 2 * big_n), LD)
    if transform_id == "cst1":
        j = np.arange(big_n + 1)
        beta = np.ones(big_n + 1, LD)
        beta[[0, -1]] = 1 / np.sqrt(LD(2))
        out[:big_n + 1, :big_n + 1] = scale * np.outer(beta, beta) * np.cos(
            PI_LD * (np.outer(j, j) % (2 * big_n)) / big_n)
        j = np.arange(1, big_n)
        out[big_n + 1:, big_n + 1:] = scale * np.sin(
            PI_LD * (np.outer(j, j) % (2 * big_n)) / big_n)
    else:
        j = 2 * np.arange(big_n) + 1
        angle = PI_LD * (np.outer(j, j) % (8 * big_n)) / (4 * big_n)
        out[:big_n, :big_n] = scale * np.cos(angle)
        out[big_n:, big_n:] = scale * np.sin(angle)
    return out


def order_dev(u: np.ndarray, order: int) -> float:
    """|u**order - I|_max by repeated squaring."""
    power = u
    while order > 1:
        power, order = power @ power, order // 2
    return linalg.max_norm_diff(power, np.eye(len(u)))


@pytest.mark.parametrize("transform_id,size", SIZES)
def test_certificate_bounds_the_measured_deviations(transform_id, size):
    t = make_transform(transform_id, size)
    delta, dim = t.table_dev, 1 << t.data_qubits
    assert t.unitarity_dev == 2 * np.sqrt(dim) * delta + dim * delta**2
    assert linalg.unitarity_dev(t.dense) <= t.unitarity_dev <= 3e-15
    spread = dim * delta
    assert order_dev(t.dense, t.order) <= t.order * spread * (1 + spread) ** (t.order - 1)


@pytest.mark.parametrize("transform_id,size", SIZES)
def test_table_dev_is_the_kernels_deviation(transform_id, size):
    # The certificate is the measured table deviation plus its fixed margin;
    # against the whole kernel's deviation from its closed form it agrees to
    # within the two longdouble references' own rounding.
    t = make_transform(transform_id, size)
    # Every stored entry but the direct sums' structural zeros is a value
    # the certificate measures.
    assert np.all(np.isin(t.dense[t.dense != 0], t._values(np.float64)))
    exact = exact_kernel(transform_id, size)
    full = float(np.max(np.abs(t.dense - exact)))
    largest = float(np.max(np.abs(exact)))
    margin = base_transforms._REFERENCE_ULPS * EPS_LD * largest
    assert full <= t.table_dev
    if (transform_id, size) not in UNREACHED:
        assert abs(t.table_dev - margin - full) <= 8 * EPS_LD * largest


def double_longdouble(monkeypatch):
    """Make np.finfo report longdouble as float64, as on a host without an
    extended type."""
    finfo = np.finfo
    monkeypatch.setattr(
        np, "finfo", lambda dtype: finfo(np.float64) if dtype is LD else finfo(dtype))


@pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
def test_longdouble_fallback_takes_the_dense_proof(transform_id, monkeypatch):
    double_longdouble(monkeypatch)
    products = count_calls(monkeypatch, linalg, "unitarity_dev")
    certificates = count_calls(monkeypatch, base_transforms, "_entry_dev")
    t = make_transform(transform_id, 3)
    spec = FractionalSpec(t, 0.3)
    cols = circuit_unitary(build_qfru_circuit(spec), columns=1 << t.data_qubits)
    block, _ = extract_data_block(cols, spec.num_ancillas, spec.data_qubits)
    assert np.max(np.abs(block - fractional_oracle(spec))) <= 1e-10
    assert t.table_dev is None
    assert len(certificates) == 0
    assert [args[0] is t.dense for args in products] == [True]


def test_fallback_dense_proof_rejects_a_bad_kernel(monkeypatch):
    # Without the certificate there is no exact reference for the table, so
    # the kernel gathered from it is proven instead, and 1.001 H is caught.
    double_longdouble(monkeypatch)
    t = make_transform("hartley", 3)
    object.__setattr__(t, "_values", lambda dtype: 1.001 * base_transforms._hartley_table(8, dtype))
    with pytest.raises(NotDyadicOrderError, match="'hartley' is not unitary"):
        fractional_oracle(FractionalSpec(t, 0.3))
    with pytest.raises(ValueError, match="not unitary"):
        build_qfrin_circuit(t, 0.3)


def _dense_oracle(t, weights):
    """sum_k c_k U**k from the kernel and its powers, in the order the
    oracle adds them when it reads ``dense``."""
    out = weights[1] * t.dense
    out.flat[:: len(out) + 1] += weights[0]
    for k in range(t.order - 1, 1, -1):
        out += weights[k] * t.power(k)
    return out


#: Every built-in on 1 to 8 data qubits.
GATHERED = [(t, q) for t in ("fourier", "hartley") for q in range(1, 9)] + [
    (t, n) for t in ("cst1", "cst4") for n in range(1, 8)]


@pytest.mark.parametrize("transform_id,size", GATHERED)
def test_certified_oracle_is_a_gather_of_the_table(transform_id, size):
    # A certified built-in's FrU(alpha) is gathered from its roots table:
    # its kernel is never built. For an involution the sum is c_1 U + c_0 I
    # with the same roundings as from the kernel; the DFT's four terms are
    # added in another order.
    t = make_transform(transform_id, size)
    oracles = []
    for alpha in (0.37, 1.3, -2.9, 3.0, 1e9 + 0.37):
        spec = FractionalSpec(t, alpha)
        oracles.append((spec.coefficients.weights, fractional_oracle(spec)))
    assert vars(t)["dense"] is None
    for weights, got in oracles:
        expected = _dense_oracle(t, weights)
        if t._perm is None:
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.max(np.abs(got - expected)) <= 1e-15


def _unread(*args):
    raise AssertionError("table read")


@pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
@pytest.mark.parametrize("certified", [False, True])
def test_oracle_reads_the_kernel_only_without_a_certificate(transform_id, certified):
    # A builder's transform gathers its oracle from its table and layout,
    # even once its kernel is built. Only a hand-built kernel, which has
    # neither a table nor a certificate, is summed from the kernel and its
    # powers: here the builder's own kernel, handed in.
    t = make_transform(transform_id, 3)
    if not certified:
        t = BaseTransform(t.id, t.data_qubits, t.order_exponent, t.dense)
    t.check()
    assert t.dense is not None
    spec = FractionalSpec(t, 0.3)
    if certified:
        object.__setattr__(t, "_values", _unread)
        object.__setattr__(t, "_layout", _unread)
        with pytest.raises(AssertionError, match="table read"):
            fractional_oracle(spec)
    else:
        assert t.table_dev is None
        assert fractional_oracle(spec).tobytes() == _dense_oracle(
            t, spec.coefficients.weights).tobytes()


@pytest.mark.parametrize("transform_id,size", [
    (t, s) for t in ("fourier", "hartley", "cst1", "cst4") for s in (1, 3, 6)])
def test_builtin_oracle_does_not_depend_on_the_certificate(transform_id, size, monkeypatch):
    # Without a certificate the proof reads the kernel, which is the table
    # gathered through the layout, so the oracle gathers from the table all
    # the same: the same bytes whether or not np.longdouble can certify it.
    alphas = (0.37, 1.3, -2.9, 3.0, 1e9 + 0.37)

    def oracles(t):
        return [fractional_oracle(FractionalSpec(t, a)).tobytes() for a in alphas]

    certified = oracles(make_transform(transform_id, size))
    double_longdouble(monkeypatch)
    t = make_transform(transform_id, size)
    assert oracles(t) == certified and t.table_dev is None
    object.__setattr__(t, "_values", _unread)
    with pytest.raises(AssertionError, match="table read"):
        fractional_oracle(FractionalSpec(t, 0.3))


def _hand_built(order_exponent, q):
    u = random_dyadic_unitary(1 << q, order_exponent, np.random.default_rng(q))
    return BaseTransform(f"order{1 << order_exponent}", q, order_exponent, u)


#: The builders on up to 6 qubits, with and without a certificate, and
#: hand-built kernels of order 4 and 8, which have none: id -> (make, certified).
POWER_SUMS = {
    **{f"{t}{s}-{'certified' if c else 'uncertified'}": (partial(make_transform, t, s), c)
       for t, sizes in (("fourier", range(1, 7)), ("hartley", range(1, 7)),
                        ("cst1", range(1, 6)), ("cst4", range(1, 6)))
       for s in sizes for c in (True, False)},
    **{f"order{1 << e}_q{q}": (partial(_hand_built, e, q), False)
       for e in (2, 3) for q in (1, 3, 5)},
}


@pytest.mark.parametrize("make,certified", POWER_SUMS.values(), ids=POWER_SUMS.keys())
def test_power_sum_matches_the_matrix_powers(make, certified, monkeypatch):
    if not certified:
        double_longdouble(monkeypatch)
    t = make()
    t.check()
    assert (t.table_dev is not None) == certified
    powers = [np.linalg.matrix_power(t.dense, k) for k in range(t.order)]
    for alpha in (0.0, 0.37, 1.0, 2.5, -1.3, 7.25, 1e6 + 0.3, -4.4e9, 3.3e15):
        weights = shih_coefficients(t.order, alpha).weights
        expected = sum(w * power for w, power in zip(weights, powers))
        assert np.max(np.abs(t.power_sum(weights) - expected)) <= 1e-12


KERNEL_FUNCTIONS = ("_exponents", "_mod_layout", "_type4_layout", "_block_layout",
                    "_cst1_layout", "_cst4_layout")


@pytest.mark.parametrize("transform_id,size", [
    ("fourier", 1), ("fourier", 3), ("hartley", 3), ("cst1", 2), ("cst4", 2)])
def test_builds_and_runs_never_build_the_kernel(transform_id, size, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("dense kernel built")

    for name in KERNEL_FUNCTIONS:
        monkeypatch.setattr(base_transforms, name, unbuilt)
    t = make_transform(transform_id, size)
    alpha = 0.37
    circuits = [build_qfru_circuit(FractionalSpec(t, alpha))]
    if t.order == 2:
        circuits.append(build_qfrin_circuit(t, alpha))
    rng = np.random.default_rng(size)
    data = 1 << t.data_qubits
    x = rng.standard_normal(data) + 1j * rng.standard_normal(data)
    x /= np.linalg.norm(x)
    finals = []
    for circuit in circuits:
        state = np.zeros(1 << circuit.num_qubits, dtype=complex)
        state[:data] = x
        finals.append(simulator.run(circuit, state, trace=True)[0])
    assert vars(t)["dense"] is None  # never built

    monkeypatch.undo()
    oracle = fractional_oracle(FractionalSpec(t, alpha))
    for circuit, final in zip(circuits, finals):
        ancillas = circuit.num_qubits - t.data_qubits
        cols = circuit_unitary(circuit, columns=data)
        block, leakage = extract_data_block(cols, ancillas, t.data_qubits)
        assert np.max(np.abs(block - oracle)) <= 1e-10 and leakage <= 1e-10
        assert np.max(np.abs(final[:data] - oracle @ x)) <= 1e-10


def test_power_op_matrix_is_built_once_and_read_only():
    t = make_transform("fourier", 2)
    c = build_qfru_circuit(FractionalSpec(t, 0.3))
    ops = [op for op in c.ops if op.power is not None]
    assert vars(t)["dense"] is None  # never built
    for op in ops:
        first = op.matrix
        assert op.matrix is first and not first.flags.writeable
        assert np.array_equal(first, t.power(op.power[1]))
    assert ops[0].matrix is t.dense


def test_hand_built_kernel_is_not_certified():
    t = BaseTransform("mine", 2, 1, hartley_transform(2).dense)
    assert t.table_dev is None
    assert t.unitarity_dev == linalg.unitarity_dev(t.dense)


@pytest.mark.parametrize("transform_id,size", [("fourier", 12), ("hartley", 3)])
def test_repr_reads_only_what_is_built(transform_id, size):
    t = make_transform(transform_id, size)
    op = GateOp("unitary", targets=tuple(range(t.data_qubits)), power=(t, 1))
    assert "dense=None" in repr(t) and "matrix=None" in repr(op)
    assert vars(t)["dense"] is None and vars(op)["matrix"] is None
    if size <= 3:  # once built, the repr shows it
        assert op.matrix is t.dense
        assert "dense=array" in repr(t) and "matrix=array" in repr(op)
    # A hand-built kernel is stored when made, so its repr shows it.
    hand = BaseTransform("mine", 1, 1, hartley_transform(1).dense)
    op = GateOp("unitary", targets=(0,), power=(hand, 1))
    assert "dense=array" in repr(hand) and repr(hand) in repr(op)
