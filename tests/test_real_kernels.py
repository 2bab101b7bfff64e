"""The real path: the Hartley and cosine-sine kernels stay float64 from
construction through every check and payload, and meet complex states only
in ``linalg.apply``. Each real result is pinned against the same computation
with the real arrays cast to complex."""
import numpy as np
import pytest

from helpers import random_state, random_unitary
from qfrt import linalg, qasm, simulator
from qfrt.base_transforms import make_transform
from qfrt.circuits import Circuit, GateOp, circuit_unitary
from qfrt.fractional import FractionalSpec, build_qfru_circuit


def _block(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestApply:
    @pytest.mark.parametrize("targets", [1, 2, 3])
    @pytest.mark.parametrize("cols", [1, 2, 64])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_complex_product(self, kind, targets, cols):
        rng = np.random.default_rng(100 * targets + cols)
        u = random_unitary(1 << targets, rng)
        g = u.real.copy() if kind == "real" else u
        x = _block(rng, 1 << targets, cols)
        out = linalg.apply(g, x)
        assert out.dtype == complex and out.shape == x.shape
        assert np.max(np.abs(out - g.astype(complex) @ x)) <= 1e-14

    @pytest.mark.parametrize("cols", [1, 3])
    def test_non_contiguous_block(self, cols):
        # The simulator hands in strided views of its state tensor.
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4))
        x = _block(rng, 8, 2 * cols)[::2, ::2]
        assert not x.flags.c_contiguous
        out = linalg.apply(g, x)
        assert np.max(np.abs(out - g.astype(complex) @ x)) <= 1e-14

    def test_does_not_modify_inputs(self):
        rng = np.random.default_rng(4)
        g, x = rng.standard_normal((4, 4)), _block(rng, 4, 3)
        g0, x0 = g.copy(), x.copy()
        linalg.apply(g, x)
        assert np.array_equal(g, g0) and np.array_equal(x, x0)


def _complexified(c: Circuit) -> Circuit:
    """The same circuit with every payload, a power op's too, a literal
    complex128 matrix."""
    ops = tuple(
        op if op.name != "unitary" else GateOp(
            op.name, op.targets, op.controls, op.params, op.base_matrix().astype(complex)
        )
        for op in c.ops
    )
    return Circuit(c.num_qubits, ops, c.marks)


REAL_CASES = [("hartley", 1), ("hartley", 3), ("hartley", 7),
              ("cst1", 1), ("cst1", 3), ("cst1", 6),
              ("cst4", 1), ("cst4", 3), ("cst4", 6)]


@pytest.mark.parametrize("transform_id,size", REAL_CASES)
@pytest.mark.parametrize("alpha", [0.37, 1.5])
def test_real_payload_circuit_matches_complex_payload_circuit(transform_id, size, alpha):
    spec = FractionalSpec(make_transform(transform_id, size), alpha)
    circuit = build_qfru_circuit(spec)
    payloads = [op.base_matrix() for op in circuit.ops if op.name == "unitary"]
    assert payloads and all(m.dtype == np.float64 for m in payloads)
    reference = _complexified(circuit)
    cols = 1 << spec.data_qubits
    dev = np.max(np.abs(circuit_unitary(circuit, columns=cols)
                        - circuit_unitary(reference, columns=cols)))
    assert dev <= 1e-13
    state = random_state(circuit.num_qubits, np.random.default_rng(size))
    final, _ = simulator.run(circuit, state)
    expected, _ = simulator.run(reference, state)
    assert np.max(np.abs(final - expected)) <= 1e-13


class TestDtypes:
    @pytest.mark.parametrize("transform_id,dtype", [
        ("fourier", np.complex128), ("hartley", np.float64),
        ("cst1", np.float64), ("cst4", np.float64),
    ])
    def test_kernel_and_power_table(self, transform_id, dtype):
        t = make_transform(transform_id, 2)
        assert t.dense.dtype == dtype
        assert all(t.power(k).dtype == dtype for k in range(t.order))

    @pytest.mark.parametrize("m", [np.eye(2, dtype=int), np.eye(2, dtype=bool),
                                   np.eye(2, dtype=np.float32), [[1, 0], [0, 1]]])
    def test_as_matrix_keeps_real_input_real(self, m):
        assert linalg.as_matrix(m).dtype == np.float64

    def test_as_matrix_complex_input(self):
        assert linalg.as_matrix([[1j, 0], [0, 1]]).dtype == np.complex128

    def test_payloads(self):
        op = GateOp("unitary", targets=(0,), matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert op.matrix.dtype == np.float64
        text = qasm.export_circuit(Circuit(1, (op,)))
        assert "unitary { 0,0 1,0 1,0 0,0 } q[0];" in text
        (imported,) = qasm.import_circuit(text).ops
        assert imported.matrix.dtype == np.complex128


class TestUnitarityDev:
    def test_real_and_complex_agree(self):
        h = make_transform("hartley", 5).dense
        # The same formula on a real and on a complex buffer: syrk and the
        # complex product may round differently, but only in the last bits.
        dev = linalg.unitarity_dev(h)
        assert abs(dev - linalg.unitarity_dev(h.astype(complex))) <= 1e-15
        assert dev <= 1e-13

    def test_non_square_is_inf(self):
        assert linalg.unitarity_dev(np.ones((2, 4))) == np.inf
