"""Shared helpers for the test suite."""
import numpy as np

from qfrt.circuits import Circuit, GateOp
from qfrt.errors import DimensionError


def random_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_dyadic_unitary(dim, n, rng):
    """Random unitary whose eigenvalues are 2**n-th roots of unity."""
    v = random_unitary(dim, rng)
    phases = np.exp(2j * np.pi * rng.integers(0, 1 << n, size=dim) / (1 << n))
    return v @ np.diag(phases) @ v.conj().T


def dft_matrix(n_points):
    """The n_points-point DFT, w**((j k) mod N) / sqrt(N) with w = exp(-2 pi
    i / N), its exponent reduced in integers: for a power-of-two N, bit for
    bit ``fourier_transform(log2 N).dense``."""
    j = np.arange(n_points)
    return np.exp(-2j * np.pi * (np.outer(j, j) % n_points) / n_points) / np.sqrt(n_points)


def _direct_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2)
    out[: len(a), : len(a)] = a
    out[len(a):, len(a):] = b
    return out


def _type4(trig, big_n):
    """Orthonormal DCT-IV or DST-IV: sqrt(2/N) trig(pi (j+1/2)(k+1/2) / N)."""
    j = np.arange(big_n) + 0.5
    return np.sqrt(2 / big_n) * trig(np.pi * np.outer(j, j) / big_n)


def closed_form(transform_id, size):
    """The kernel of ``make_transform(transform_id, size)`` from its closed
    form, each entry a trigonometric function of its own angle: a reference
    independent of the builders' roots tables and exactly reduced exponents."""
    big_n = 1 << size
    if transform_id in ("fourier", "hartley"):
        angle = 2 * np.pi * np.outer(np.arange(big_n), np.arange(big_n)) / big_n
        if transform_id == "fourier":
            return np.exp(-1j * angle) / np.sqrt(big_n)
        return (np.cos(angle) + np.sin(angle)) / np.sqrt(big_n)
    if transform_id == "cst4":
        return _direct_sum(_type4(np.cos, big_n), _type4(np.sin, big_n))
    # cst1: DCT-I(N+1), its rows and columns 0 and N scaled by 1/sqrt(2),
    # (+) DST-I(N-1)
    j, m = np.arange(big_n + 1), np.arange(1, big_n)
    beta = np.where((j == 0) | (j == big_n), np.sqrt(0.5), 1.0)
    dct1 = np.outer(beta, beta) * np.cos(np.pi * np.outer(j, j) / big_n)
    dst1 = np.sin(np.pi * np.outer(m, m) / big_n)
    return np.sqrt(2 / big_n) * _direct_sum(dct1, dst1)


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return v / np.linalg.norm(v)


_NAMED_1Q = ("x", "y", "z", "h", "s", "r", "b", "bdag")


def random_circuit(num_qubits, num_gates, rng):
    """Mixed random circuit: named gates, controlled phases, swaps, and
    dense 1-2 qubit payloads with up to two controls."""
    ops = []
    for _ in range(num_gates):
        wires = [int(w) for w in rng.permutation(num_qubits)]
        kind = rng.integers(0, 4)
        if kind == 0:
            ops.append(GateOp(str(rng.choice(_NAMED_1Q)), targets=(wires[0],)))
        elif kind == 1:
            nc = int(rng.integers(0, min(2, num_qubits - 1) + 1))
            ops.append(
                GateOp("p", targets=(wires[0],), controls=tuple(wires[1:1 + nc]),
                       params=(float(rng.uniform(-np.pi, np.pi)),))
            )
        elif kind == 2 and num_qubits >= 2:
            ops.append(GateOp("swap", targets=(wires[0], wires[1])))
        else:
            t = int(rng.integers(1, min(2, num_qubits) + 1))
            nc = int(rng.integers(0, min(2, num_qubits - t) + 1))
            ops.append(
                GateOp("unitary", targets=tuple(wires[:t]),
                       controls=tuple(wires[t:t + nc]),
                       matrix=random_unitary(1 << t, rng))
            )
    return Circuit(num_qubits, tuple(ops))


def embedded_op_matrix(op, num_qubits):
    """The op's full 2**n x 2**n matrix, built one basis column at a time:
    a column whose controls are not all 1 is left as the identity's; any other
    column j is the gate matrix's column for the target bits of j, spread
    over the target wires with j's other bits kept. Qubit w carries bit
    2**w and ``targets[i]`` the gate's bit 2**i."""
    gate = op.base_matrix()
    dim = 1 << num_qubits
    target_mask = sum(1 << w for w in op.targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if not all((col >> c) & 1 for c in op.controls):
            full[col, col] = 1.0
            continue
        pattern = sum(((col >> w) & 1) << i for i, w in enumerate(op.targets))
        for p in range(gate.shape[0]):
            row = (col & ~target_mask) | sum(((p >> i) & 1) << w for i, w in enumerate(op.targets))
            full[row, col] = gate[p, pattern]
    return full


def reference_circuit_unitary(circuit):
    """Product of the embedded op matrices, last op leftmost."""
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for op in circuit.ops:
        u = embedded_op_matrix(op, circuit.num_qubits) @ u
    return u


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call's positional arguments in
    the returned list, then call through."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_cached(monkeypatch, cls, name):
    """Patch the function behind the cached property ``cls.name`` to record
    the object of each evaluation in the returned list, then call through."""
    prop = vars(cls)[name]
    calls = []
    original = prop.func

    def counted(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(prop, "func", counted)
    return calls


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`qfrt.linalg.format_matrix`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DimensionError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise DimensionError(f"bad header line: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise DimensionError(f"expected {rows} rows, got {len(lines) - 1}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, ln in enumerate(lines[1:]):
        entries = ln.split()
        if len(entries) != cols:
            raise DimensionError(f"row {i}: expected {cols} entries, got {len(entries)}")
        for j, tok in enumerate(entries):
            re, im = tok.split(",")
            out[i, j] = complex(float(re), float(im))
    return out
