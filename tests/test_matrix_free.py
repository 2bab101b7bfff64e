"""Every transform's controlled powers are ``power`` payloads on one sealed,
once-proven kernel; the simulator applies each through its transform's
``apply``, numpy.fft for a built-in and the power's matrix for a hand-built
kernel; ``circuit_unitary`` stays the dense reference."""
import numpy as np
import pytest

from qfrt import base_transforms, circuits, linalg, simulator
from qfrt.base_transforms import BaseTransform, make_transform
from qfrt.circuits import Circuit, GateOp, circuit_unitary
from qfrt.errors import DimensionError
from qfrt.fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
)

from helpers import count_cached, count_calls, dft_matrix, random_dyadic_unitary

#: (transform id, size) up to 10 data qubits; cst sizes are n, on n + 1 qubits.
KERNELS = [("fourier", q) for q in (1, 2, 3, 5, 8, 10)] + [
    ("hartley", q) for q in (1, 2, 3, 6, 10)] + [
    (t, n) for t in ("cst1", "cst4") for n in (1, 2, 3, 5, 9)]


@pytest.mark.parametrize("transform_id,size", KERNELS)
def test_apply_matches_dense_power(transform_id, size):
    t = make_transform(transform_id, size)
    rng = np.random.default_rng(size)
    dim = t.dense.shape[0]
    for cols in (1, 2, 3, 64):
        x = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        x /= np.linalg.norm(x, axis=0)
        for k in range(1, t.order):
            got = t.apply(x, k)
            assert got.shape == x.shape and got.dtype == complex
            assert np.max(np.abs(got - t.power(k) @ x)) <= 1e-12


@pytest.mark.parametrize("transform_id,size", [
    ("fourier", 1), ("hartley", 1), ("cst1", 1), ("cst4", 1), ("cst1", 4), ("cst4", 4)])
def test_apply_to_a_block_is_apply_to_each_column(transform_id, size):
    # At n = 1, cst4's half-length FFT has length 1 and cst1's extension 4
    # points; a built-in's apply takes its FFT at every size, with no kernel.
    t = make_transform(transform_id, size)
    rng = np.random.default_rng(size)
    dim = 1 << t.data_qubits
    x = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    for k in range(1, t.order):
        got = t.apply(x, k)
        for j in range(x.shape[1]):
            assert np.max(np.abs(got[:, j:j + 1] - t.apply(x[:, j:j + 1], k))) <= 1e-12
    assert vars(t)["dense"] is None


def test_apply_reads_a_strided_block_without_writing_it():
    t = make_transform("cst4", 3)
    rng = np.random.default_rng(1)
    wide = rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6))
    before = wide.copy()
    x = wide[:, ::3]
    assert np.max(np.abs(t.apply(x, 1) - t.dense @ x)) <= 1e-12
    assert np.array_equal(wide, before)


#: (transform id, size) up to 8 data qubits, for apply_sum.
SUM_KERNELS = [("fourier", q) for q in (1, 2, 3, 5, 8)] + [
    ("hartley", q) for q in (1, 2, 3, 8)] + [
    (t, n) for t in ("cst1", "cst4") for n in (1, 2, 3, 7)]


def _block(rng, dim, cols):
    x = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    return x / np.linalg.norm(x, axis=0)


def _weights(rng, order):
    return rng.standard_normal(order) + 1j * rng.standard_normal(order)


@pytest.mark.parametrize("transform_id,size", SUM_KERNELS)
def test_apply_sum_matches_power_sum(transform_id, size):
    t = make_transform(transform_id, size)
    rng = np.random.default_rng(size)
    dim = 1 << t.data_qubits
    for cols in (1, 3, 64):
        x = _block(rng, dim, cols)
        for w in (_weights(rng, t.order), np.eye(t.order)[t.order - 1], np.ones(t.order)):
            got = t.apply_sum(w, x)
            assert got.shape == x.shape and got.dtype == complex
            assert np.max(np.abs(got - t.power_sum(w) @ x)) <= 1e-13


def test_apply_sum_reads_a_strided_block_without_writing_it():
    rng = np.random.default_rng(2)
    for t in (make_transform("fourier", 4), make_transform("cst1", 3)):
        wide = _block(rng, 16, 6)
        before = wide.copy()
        x = wide[:, ::3]
        w = _weights(rng, t.order)
        assert np.max(np.abs(t.apply_sum(w, x) - t.power_sum(w) @ x)) <= 1e-13
        assert np.array_equal(wide, before)


@pytest.mark.parametrize("order_exponent,q", [(1, 3), (2, 2), (3, 3)])
def test_apply_sum_of_a_hand_built_kernel(order_exponent, q):
    # Orders 2, 4 and 8 with no _perm and no FFT: the sum of w_k apply(x, k).
    rng = np.random.default_rng(order_exponent)
    t = BaseTransform("mine", q, order_exponent,
                      random_dyadic_unitary(1 << q, order_exponent, rng))
    for cols in (1, 5):
        x = _block(rng, 1 << q, cols)
        w = _weights(rng, t.order)
        assert np.max(np.abs(t.apply_sum(w, x) - t.power_sum(w) @ x)) <= 1e-13


@pytest.mark.parametrize("weights", [np.ones(3), np.ones(8), np.ones((4, 1)), 1.0])
def test_apply_sum_rejects_a_wrong_weight_shape(weights):
    t = make_transform("fourier", 2)
    with pytest.raises(DimensionError, match=r"^'fourier': apply_sum needs 4 weights, got shape"):
        t.apply_sum(weights, np.eye(4, 1))


def test_apply_sum_rejects_a_wrong_block_shape():
    t = make_transform("hartley", 2)
    with pytest.raises(DimensionError, match=r"^'hartley': apply_sum needs a \(4, cols\) block"):
        t.apply_sum(np.ones(2), np.ones(4))


#: Circuits of at most 10 qubits in all: (transform id, size, exponents).
CIRCUITS = [
    ("fourier", 2, (-2.9, 0.0, 0.37, 1.0, 2.5, 3.7, 4e12 + 0.5)),
    ("fourier", 8, (0.37, 2.5)),
    ("hartley", 3, (-0.9, 0.0, 0.37, 1.0, 1.5, 4e12 + 0.5)),
    ("hartley", 9, (0.37, 1.5)),
    ("cst1", 2, (-0.9, 0.0, 0.37, 1.0, 1.5)),
    ("cst1", 8, (0.37, 1.5)),
    ("cst4", 2, (-0.9, 0.0, 0.37, 1.0, 1.5)),
    ("cst4", 8, (0.37, 1.5)),
]


@pytest.mark.parametrize("transform_id,size,alphas", CIRCUITS)
def test_run_matches_circuit_unitary(transform_id, size, alphas):
    t = make_transform(transform_id, size)
    rng = np.random.default_rng(size)
    data = 1 << t.data_qubits
    x = rng.standard_normal((data, 3)) + 1j * rng.standard_normal((data, 3))
    x /= np.linalg.norm(x, axis=0)
    for alpha in alphas:
        circuit = build_qfru_circuit(FractionalSpec(t, alpha))
        assert any(op.power is not None for op in circuit.ops)
        expected = circuit_unitary(circuit, columns=data) @ x
        for i in range(x.shape[1]):
            state = np.zeros(1 << circuit.num_qubits, dtype=complex)
            state[:data] = x[:, i]
            final, _ = simulator.run(circuit, state)
            assert np.max(np.abs(final - expected[:, i])) <= 1e-10


#: One circuit per transform at up to 8 data qubits: (transform id, size).
BLOCKS = [("fourier", 2), ("fourier", 8), ("hartley", 3), ("hartley", 8),
          ("cst1", 2), ("cst1", 7), ("cst4", 2), ("cst4", 7)]


@pytest.mark.parametrize("transform_id,size", BLOCKS)
def test_run_on_a_block_matches_circuit_unitary(transform_id, size):
    spec = FractionalSpec(make_transform(transform_id, size), 0.37)
    circuit = build_qfru_circuit(spec)
    data = 1 << spec.data_qubits
    basis = np.eye(1 << circuit.num_qubits, data, dtype=complex)
    final, _ = simulator.run(circuit, basis)
    assert final.shape == basis.shape
    assert np.max(np.abs(final - circuit_unitary(circuit, columns=data))) <= 1e-13
    for j in range(data):
        column, _ = simulator.run(circuit, basis[:, j])
        assert np.max(np.abs(final[:, j] - column)) <= 1e-13


#: Hand-built kernels, applied through their powers' matrices: (kernel,
#: order exponent, data qubits).
HAND_BUILT = [("random", 2, 1), ("random", 2, 4), ("random", 3, 2), ("random", 3, 3),
              ("random", 4, 1), ("random", 4, 2), ("dft", 2, 1), ("dft", 2, 3)]


def _hand_built(kernel, order_exponent, q, rng):
    u = dft_matrix(1 << q) if kernel == "dft" else random_dyadic_unitary(
        1 << q, order_exponent, rng)
    return BaseTransform("mine", q, order_exponent, u)


@pytest.mark.parametrize("kernel,order_exponent,q", HAND_BUILT)
def test_hand_built_power_payloads_match_the_oracle(kernel, order_exponent, q):
    rng = np.random.default_rng(10 * order_exponent + q)
    t = _hand_built(kernel, order_exponent, q, rng)
    data = 1 << q
    for alpha in (0.37, 1.0, -2.9, 4e12 + 0.5):
        spec = FractionalSpec(t, alpha)
        circuit = build_qfru_circuit(spec)
        payloads = [op for op in circuit.ops if op.name == "unitary"]
        assert payloads and all(op.power is not None and op.power[0] is t for op in payloads)
        oracle = fractional_oracle(spec)
        cols = circuit_unitary(circuit, columns=data)
        block, leakage = extract_data_block(cols, spec.num_ancillas, q)
        assert linalg.max_norm_diff(block, oracle) <= 1e-10 and leakage <= 1e-10
        x = simulator.basis_state(circuit.num_qubits)
        x[:data] = rng.standard_normal(data) + 1j * rng.standard_normal(data)
        x /= np.linalg.norm(x)
        final, _ = simulator.run(circuit, x)
        assert np.max(np.abs(final[:data] - oracle @ x[:data])) <= 1e-10
        assert np.linalg.norm(final[data:]) <= 1e-10


@pytest.mark.parametrize("kernel,order_exponent,q", HAND_BUILT)
def test_hand_built_apply_is_its_matrix_bit_for_bit(kernel, order_exponent, q):
    # A hand-built transform applies U**k as the matrix of power(k mod
    # order), so the simulator's matrix-free step of a power op is the
    # dense reference's step, bit for bit.
    rng = np.random.default_rng(q)
    t = _hand_built(kernel, order_exponent, q, rng)
    x = rng.standard_normal((1 << q, 3)) + 1j * rng.standard_normal((1 << q, 3))
    for k in range(-t.order, 2 * t.order):
        assert t.apply(x, k).tobytes() == linalg.apply(t.power(k % t.order), x).tobytes()
    circuit = build_qfru_circuit(FractionalSpec(t, 0.37))
    shape = [2] * circuit.num_qubits + [2]
    for op in circuit.ops:
        if op.power is not None:
            reg = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            by_apply, by_matrix = reg.copy(), reg.copy()
            circuits._op_step(op, circuit.num_qubits, matrix_free=True)(by_apply)
            circuits._op_step(op, circuit.num_qubits, matrix_free=False)(by_matrix)
            assert by_apply.tobytes() == by_matrix.tobytes()


class TestReadOnlyKernel:
    @pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
    def test_builtin_kernel_cannot_be_written(self, transform_id):
        t = make_transform(transform_id, 2)
        with pytest.raises(ValueError, match="read-only"):
            t.dense[0, 0] = 0.0
        for k in range(t.order):
            assert not t.power(k).flags.writeable

    def test_no_kept_array_can_be_made_writable(self):
        rng = np.random.default_rng(6)
        hand_built = BaseTransform("mine", 2, 3, random_dyadic_unitary(4, 3, rng))
        literal = GateOp("unitary", targets=(0,), matrix=circuits.H.copy())
        kept = [circuits.X, literal.matrix]
        for t in (make_transform("fourier", 2), make_transform("hartley", 2), hand_built):
            kept += [t.dense] + [t.power(k) for k in range(t.order)]
        for a in kept:
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.setflags(write=True)

    def test_caller_cannot_change_a_proven_kernel(self):
        u = dft_matrix(4)
        u.setflags(write=False)
        t = BaseTransform("x", 2, 2, u)
        t.check()
        u.setflags(write=True)
        u[0, 0] = 5
        assert t.dense is not u and t.dense[0, 0] == dft_matrix(4)[0, 0]

    def test_writable_array_is_copied(self):
        u = dft_matrix(4)
        t = BaseTransform("mine", 2, 2, u)
        assert t.dense is not u and np.array_equal(t.dense, u)
        u[0, 0] = 7.0
        assert t.dense[0, 0] != 7.0
        with pytest.raises(ValueError, match="read-only"):
            t.dense[0, 0] = 7.0

    def test_read_only_view_of_a_writable_array_is_copied(self):
        u = dft_matrix(4)
        view = u[:]
        view.setflags(write=False)
        t = BaseTransform("mine", 2, 2, view)
        u[0, 0] = 7.0
        assert t.dense[0, 0] != 7.0

    def test_power_payloads_share_the_kernel(self):
        t = make_transform("hartley", 3)
        c = build_qfrin_circuit(t, 0.3)
        assert c.ops[1].matrix is t.dense
        assert c.ops[1].power == (t, 1)


class TestOneProof:
    @pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
    def test_builtin_is_proven_once_and_never_per_payload(self, transform_id, monkeypatch):
        products = count_calls(monkeypatch, linalg, "unitarity_dev")
        checks = count_calls(monkeypatch, linalg, "is_unitary")
        certificates = count_calls(monkeypatch, base_transforms, "_entry_dev")
        t = make_transform(transform_id, 3)
        for alpha in (0.3, 1.7):
            build_qfru_circuit(FractionalSpec(t, alpha))
        assert (len(products), len(certificates), len(checks)) == (0, 1, 0)

    def test_builtin_builds_no_power_table(self, monkeypatch):
        tables = count_cached(monkeypatch, BaseTransform, "_products")
        for transform_id in ("fourier", "hartley", "cst1", "cst4"):
            c = build_qfru_circuit(FractionalSpec(make_transform(transform_id, 2), 0.3))
            for op in c.ops:
                op.base_matrix()
        assert tables == []

    def test_hand_built_kernel_is_proven_once(self, monkeypatch):
        checks = count_calls(monkeypatch, linalg, "is_unitary")
        products = count_calls(monkeypatch, linalg, "unitarity_dev")
        u = random_dyadic_unitary(4, 3, np.random.default_rng(3))
        t = BaseTransform("custom", 2, 3, u)
        for alpha in (0.3, 1.7):
            c = build_qfru_circuit(FractionalSpec(t, alpha))
            assert [op.power for op in c.ops if op.name == "unitary"] == [
                (t, 1), (t, 2), (t, 4), (t, 7), (t, 6), (t, 4)]
        # One unitarity proof of U; the power bound covers U**2 .. U**7.
        assert (len(checks), len(products)) == (0, 1)

    def test_hand_built_fourier_gets_no_matrix_free_path(self, monkeypatch):
        t = BaseTransform("fourier", 2, 2, dft_matrix(4))
        x = np.eye(4, 2, dtype=complex)
        monkeypatch.setattr(np, "fft", None)  # its apply is its matrix, not an FFT
        assert np.array_equal(t.apply(x, 1), t.dense @ x)
        monkeypatch.undo()
        c = build_qfru_circuit(FractionalSpec(t, 0.3))
        # Each payload names the transform, and its matrix is the transform's
        # own sealed power, not a copy.
        payloads = [op for op in c.ops if op.name == "unitary"]
        assert all(op.power[0] is t and op.matrix is t.power(op.power[1]) for op in payloads)
        # A literal matrix is copied.
        u = dft_matrix(4)
        assert GateOp("unitary", targets=(0, 1), matrix=u).matrix is not u


class TestPowerOp:
    def test_accepts_each_power_of_a_builtin(self):
        t = make_transform("fourier", 2)
        for k in (1, 2, 3, np.int64(3)):
            op = GateOp("unitary", targets=(0, 1), controls=(2,), power=(t, k))
            assert op.power == (t, int(k)) and op.matrix is not None
            assert np.array_equal(op.matrix, t.power(int(k)))

    def test_accepts_a_hand_built_transform(self):
        t = BaseTransform("fourier", 2, 2, dft_matrix(4))
        for k in (1, 2, 3):
            op = GateOp("unitary", targets=(0, 1), power=(t, k))
            assert op.power == (t, k) and op.matrix is t.power(k)

    def test_rejects_a_power_of_something_else(self):
        with pytest.raises(ValueError, match="needs a BaseTransform, got ndarray"):
            GateOp("unitary", targets=(0, 1), power=(dft_matrix(4), 1))

    @pytest.mark.parametrize("k", [0, 4, -1, 1.0, True])
    def test_rejects_a_power_outside_one_to_order_minus_one(self, k):
        t = make_transform("fourier", 2)
        with pytest.raises(ValueError, match=r"integer in 1\.\.3"):
            GateOp("unitary", targets=(0, 1), power=(t, k))

    def test_rejects_an_even_power_of_an_involution(self):
        with pytest.raises(ValueError, match=r"integer in 1\.\.1"):
            GateOp("unitary", targets=(0, 1), power=(make_transform("hartley", 2), 2))

    @pytest.mark.parametrize("targets", [(0,), (0, 1, 2)])
    def test_rejects_a_wrong_target_count(self, targets):
        with pytest.raises(ValueError, match="needs 2 targets"):
            GateOp("unitary", targets=targets, power=(make_transform("hartley", 2), 1))

    def test_rejects_a_matrix_next_to_the_power(self):
        t = make_transform("hartley", 1)
        with pytest.raises(ValueError, match="no matrix"):
            GateOp("unitary", targets=(0,), matrix=t.dense, power=(t, 1))

    def test_named_gate_carries_no_power(self):
        with pytest.raises(ValueError, match="cannot carry a payload"):
            GateOp("h", targets=(0,), power=(make_transform("hartley", 1), 1))

    def test_power_op_runs_like_its_matrix(self):
        t = make_transform("cst1", 2)
        rng = np.random.default_rng(5)
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        by_power = Circuit(4, (GateOp("unitary", targets=(1, 2, 3), controls=(0,),
                                      power=(t, 1)),))
        by_matrix = Circuit(4, (GateOp("unitary", targets=(1, 2, 3), controls=(0,),
                                       matrix=t.dense),))
        got, _ = simulator.run(by_power, state)
        want, _ = simulator.run(by_matrix, state)
        assert np.max(np.abs(got - want)) <= 1e-12


def _no_fft(x, k):
    raise AssertionError("the dense reference called a transform's apply")


@pytest.mark.parametrize("transform_id,size", [
    ("fourier", 2), ("fourier", 4), ("hartley", 4), ("cst1", 3), ("cst4", 3)])
def test_circuit_unitary_never_takes_the_fft_path(transform_id, size):
    t = make_transform(transform_id, size)
    object.__setattr__(t, "apply", _no_fft)
    spec = FractionalSpec(t, 0.37)
    circuit = build_qfru_circuit(spec)
    with pytest.raises(AssertionError, match="apply"):
        simulator.run(circuit, simulator.basis_state(circuit.num_qubits))
    cols = circuit_unitary(circuit, columns=1 << t.data_qubits)
    block, leakage = extract_data_block(cols, spec.num_ancillas, t.data_qubits)
    assert max(linalg.max_norm_diff(block, fractional_oracle(spec)), leakage) <= 1e-10
