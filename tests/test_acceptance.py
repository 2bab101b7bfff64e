"""Acceptance suite: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import cmath
import math
import time

import numpy as np
import pytest

from helpers import random_circuit
from qfrt import linalg, simulator
from qfrt.base_transforms import (
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
    verify_order,
)
from qfrt.circuits import B, BDAG, H, R, S, X, circuit_unitary, phase, qct4_gate, qft_circuit
from qfrt.fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
    shih_coefficients,
)
from qfrt.qasm import export_circuit, import_circuit

REPRESENTATIVES = [
    fourier_transform(2),
    hartley_transform(2),
    cst1_transform(2),
    cst4_transform(2),
]


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_qfrft_reproduction():
    start = time.perf_counter()
    worst_dev = worst_leak = 0.0
    for q in (1, 2, 3):
        transform = fourier_transform(q)
        for alpha in (0.0, 0.25, 0.5, 1.0, 1.7, 3.0):
            spec = FractionalSpec(transform, alpha)
            assert spec.num_ancillas == 2
            full = circuit_unitary(build_qfru_circuit(spec))
            block, leak = extract_data_block(full, 2, q)
            dev = linalg.max_norm_diff(block, fractional_oracle(spec))
            worst_dev, worst_leak = max(worst_dev, dev), max(worst_leak, leak)
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-10 and worst_leak <= 1e-10 and elapsed < 10.0
    report(1, "qfrft-reproduction", ok,
           f"max_dev={worst_dev:.2e} leak={worst_leak:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_involution_instantiations():
    cases = (
        [hartley_transform(q) for q in (1, 2, 3, 4)]
        + [cst1_transform(n) for n in (1, 2, 3)]
        + [cst4_transform(n) for n in (1, 2, 3)]
    )
    alphas = np.linspace(0.0, 2.0, 20, endpoint=False)
    worst = 0.0
    for transform in cases:
        dim = transform.dense.shape[0]
        for alpha in alphas:
            full = circuit_unitary(build_qfrin_circuit(transform, alpha))
            block, leak = extract_data_block(full, 1, transform.data_qubits)
            w = cmath.exp(-1j * math.pi * alpha)
            closed = (1 + w) / 2 * np.eye(dim) + (1 - w) / 2 * transform.dense
            worst = max(worst, linalg.max_norm_diff(block, closed), leak)
    report(2, "involution-closed-form", worst <= 1e-10, f"max_dev={worst:.2e}")


def test_criterion_3_additivity_and_periodicity():
    rng = np.random.default_rng(1234)
    worst_add = worst_per = 0.0
    for transform in REPRESENTATIVES:
        order = transform.order
        for _ in range(25):
            a, b = rng.uniform(0.0, order, size=2)
            lhs = fractional_oracle(FractionalSpec(transform, a)) @ fractional_oracle(
                FractionalSpec(transform, b)
            )
            rhs = fractional_oracle(FractionalSpec(transform, a + b))
            worst_add = max(worst_add, linalg.max_norm_diff(lhs, rhs))
            shifted = fractional_oracle(FractionalSpec(transform, a + order))
            base = fractional_oracle(FractionalSpec(transform, a))
            worst_per = max(worst_per, linalg.max_norm_diff(shifted, base))
    ok = worst_add <= 1e-10 and worst_per <= 1e-10
    report(3, "additivity-periodicity", ok,
           f"max_additivity_dev={worst_add:.2e} max_periodicity_dev={worst_per:.2e}")


def test_criterion_4_integer_power_recovery():
    worst = 0.0
    for transform in REPRESENTATIVES:
        for m in range(transform.order):
            got = fractional_oracle(FractionalSpec(transform, float(m)))
            expected = linalg.matrix_power(transform.dense, m)
            worst = max(worst, linalg.max_norm_diff(got, expected))
    report(4, "integer-power-recovery", worst <= 1e-12, f"max_dev={worst:.2e}")


def test_criterion_5_base_transform_orders():
    ok = True
    found = {}
    for q in (2, 3, 4):
        found[f"fourier{q}"] = verify_order(fourier_transform(q))
        ok &= found[f"fourier{q}"] == 2
    for q in (1, 2, 3, 4):
        found[f"hartley{q}"] = verify_order(hartley_transform(q))
        ok &= found[f"hartley{q}"] == 1
    for n in (1, 2, 3):
        found[f"cst1_{n}"] = verify_order(cst1_transform(n))
        found[f"cst4_{n}"] = verify_order(cst4_transform(n))
        ok &= found[f"cst1_{n}"] == 1 and found[f"cst4_{n}"] == 1
    report(5, "base-transform-orders", ok, f"exponents={found}")


def test_criterion_6_gate_matrix_spot_checks():
    w = -1j  # exp(-i 2 pi / 4)
    f2 = 0.5 * np.array(
        [[1, 1, 1, 1], [1, w, w**2, w**3], [1, w**2, 1, w**2], [1, w**3, w**2, w]]
    )
    f2_inv = f2.conj()
    devs = [
        linalg.max_norm_diff(fourier_transform(2).dense, f2),
        linalg.max_norm_diff(circuit_unitary(qft_circuit(2)), f2),
        linalg.max_norm_diff(circuit_unitary(qft_circuit(2, inverse=True)), f2_inv),
        linalg.max_norm_diff(R, H @ S @ H),
        linalg.max_norm_diff(B, H @ S),
        linalg.max_norm_diff(BDAG, phase(-math.pi / 2) @ H),
    ]
    for n in (1, 2, 3):
        big_n = 1 << n
        for j in range(1, n + 1):
            l_expected = np.diag([1.0, cmath.exp(1j * math.pi * 2 ** (j - 1) / big_n)])
            devs.append(linalg.max_norm_diff(qct4_gate("l", j, n=n), l_expected))
            devs.append(linalg.max_norm_diff(qct4_gate("k", j, n=n), X @ l_expected @ X))
        devs.append(
            linalg.max_norm_diff(
                qct4_gate("c", n=n), np.diag([1.0, cmath.exp(1j * math.pi / (2 * big_n))])
            )
        )
        devs.append(
            linalg.max_norm_diff(
                qct4_gate("m", n=n), cmath.exp(-1j * math.pi / (4 * big_n)) * np.eye(2)
            )
        )
    worst = max(devs)
    report(6, "gate-matrix-spot-checks", worst <= 1e-12, f"max_dev={worst:.2e}")


def test_criterion_7_coefficient_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for order in (2, 4, 8, 16):
        for alpha in rng.uniform(-order, 2.0 * order, size=100):
            c = shih_coefficients(order, alpha).weights
            worst = max(worst, abs(c.sum() - 1.0), abs(np.sum(np.abs(c) ** 2) - 1.0))
    report(7, "coefficient-identities", worst <= 1e-12, f"max_dev={worst:.2e}")


def test_criterion_8_simulator_cross_validation():
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = random_circuit(n, int(rng.integers(10, 201)), rng)
        u = circuit_unitary(c)
        col = int(rng.integers(0, 1 << n))
        final, _ = simulator.run(c, simulator.basis_state(n, col))
        worst = max(worst, float(np.max(np.abs(final - u[:, col]))))
    report(8, "simulator-cross-validation", worst <= 1e-12, f"max_dev={worst:.2e}")


def test_criterion_9_export_round_trip():
    worst = 0.0
    for q in (1, 2):
        transform = hartley_transform(q)
        for alpha in (0.5, 1.3):
            circuit = build_qfrin_circuit(transform, alpha)
            rebuilt = import_circuit(export_circuit(circuit))
            oracle = fractional_oracle(FractionalSpec(transform, alpha))
            for col in range(1 << q):
                final, _ = simulator.run(rebuilt, simulator.basis_state(q + 1, col))
                dev = float(np.max(np.abs(final[: 1 << q] - oracle[:, col])))
                tail = float(np.linalg.norm(final[1 << q:]))
                worst = max(worst, dev, tail)
    report(9, "export-round-trip", worst <= 1e-10, f"max_dev={worst:.2e}")
