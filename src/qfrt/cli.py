"""Command-line surface: dump matrices and states, run verification suites,
sweep the fractional exponent, and export circuits.

Examples::

    qfrt dump --transform fourier --qubits 2
    qfrt dump --transform hartley --qubits 2 --alpha 0.5 --out frht.txt
    qfrt verify --suite equivalence --transform hartley --qubits 3 --alpha 0.5
    qfrt verify --suite additivity --transform fourier --qubits 2 --seed 7
    qfrt sweep --transform fourier --qubits 1 --alpha-range 0,4,0.1 --out sweep.csv
    qfrt export --transform hartley --qubits 2 --alpha 0.5 --out frht.qasm

Verification reports are CSV with a ``# key=value`` header line recording
the seed and tolerance; the process exits 0 only if every row passes. The
qubit budget can be raised or lowered with the ``QFRT_MAX_QUBITS``
environment variable.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg, qasm, simulator
from .base_transforms import (
    ORDER_TOL,
    BaseTransform,
    TRANSFORM_IDS,
    _order_and_residue,
    make_transform,
)
from .circuits import circuit_unitary
from .errors import QfrtError
from .fractional import (
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
    shih_coefficients,
)

SUITES = ("additivity", "unitarity", "equivalence", "restoration", "order",
          "coefficients")

_SUITE_DEFAULT_TOL = {"order": 1e-6}

#: Most rows an ``--alpha-range`` may expand to; each row is at least one
#: dense oracle, so a larger range is a typo, not a workload.
MAX_ALPHA_ROWS = 100_000


@dataclass(frozen=True)
class ReportRow:
    case_id: str
    alpha: float | None
    beta: float | None
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_alpha_range(raw: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"bad --alpha-range {raw!r}; expected START,STOP,STEP")
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"--alpha-range {raw!r}: START, STOP and STEP must be finite")
    if step <= 0:
        raise ValueError("--alpha-range step must be > 0")
    rows = np.ceil((stop - start) / step - 1e-12)
    if rows > MAX_ALPHA_ROWS:
        raise ValueError(
            f"--alpha-range {raw!r} gives {rows:.3g} rows, more than {MAX_ALPHA_ROWS}"
        )
    return start + step * np.arange(max(0, int(rows)))


def _resolve_transform(args) -> BaseTransform:
    size = args.qubits if args.transform in ("fourier", "hartley") else args.n
    flag = "--qubits" if args.transform in ("fourier", "hartley") else "--n"
    if size is None:
        raise ValueError(f"transform {args.transform!r} needs {flag}")
    return make_transform(args.transform, size)


def _alpha_list(args, default: np.ndarray) -> np.ndarray:
    if args.alpha is not None:
        return np.array([args.alpha])
    if args.alpha_range is not None:
        return _parse_alpha_range(args.alpha_range)
    return default


def _build_circuit(transform: BaseTransform, alpha: float, kind: str):
    # One circuit for every kind: qfrin is the qfru circuit behind an
    # involution check, and auto applies that check to every involution.
    if kind == "qfrin" or (kind == "auto" and transform.order_exponent == 1):
        return build_qfrin_circuit(transform, alpha)
    return build_qfru_circuit(FractionalSpec(transform, alpha))


# ---------------------------------------------------------------- commands


def cmd_dump(args) -> int:
    transform = _resolve_transform(args)
    if args.cst4_selector is not None:
        if transform.id != "cst4":
            raise ValueError("--cst4-selector only applies to --transform cst4")
        half = transform.dense.shape[0] // 2  # DCT-IV (+) DST-IV: slice a block
        block = slice(None, half) if args.cst4_selector == "cos" else slice(half, None)
        _write(args.out, linalg.format_matrix(transform.dense[block, block]))
        return 0
    if args.alpha is None:
        _write(args.out, linalg.format_matrix(transform.dense))
        return 0
    spec = FractionalSpec(transform, args.alpha)
    if args.format == "state-text":
        circuit = build_qfru_circuit(spec)
        final, _ = simulator.run(circuit, simulator.basis_state(circuit.num_qubits))
        _write(args.out, simulator.format_state(final, full=args.full))
        return 0
    if args.format == "circuit-text":
        _write(args.out, qasm.export_circuit(_build_circuit(transform, args.alpha, "auto")))
        return 0
    if args.circuit_unitary:
        payload = circuit_unitary(build_qfru_circuit(spec))
    else:
        payload = fractional_oracle(spec)
    _write(args.out, linalg.format_matrix(payload))
    return 0


def _suite_rows(args, transform: BaseTransform, rng) -> list[ReportRow]:
    suite = args.suite
    tol = args.tol if args.tol is not None else _SUITE_DEFAULT_TOL.get(suite, 1e-10)
    order = transform.order
    rows = []

    def oracle(alpha):
        return fractional_oracle(FractionalSpec(transform, alpha))

    if suite == "additivity":
        for i in range(25):
            a, b = rng.uniform(0.0, order, size=2)
            dev = linalg.max_norm_diff(oracle(a) @ oracle(b), oracle(a + b))
            rows.append(ReportRow(f"pair{i:02d}", a, b, dev, tol))
    elif suite == "unitarity":
        for alpha in _alpha_list(args, np.arange(0.0, order, 0.1)):
            dev = linalg.unitarity_dev(oracle(alpha))
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, dev, tol))
    elif suite == "equivalence":
        for alpha in _alpha_list(args, np.arange(0.0, order, 0.5)):
            spec = FractionalSpec(transform, alpha)
            # The data block and the leakage read only the ancilla-|0...0> inputs.
            cols = circuit_unitary(build_qfru_circuit(spec), columns=1 << spec.data_qubits)
            block, leakage = extract_data_block(cols, spec.num_ancillas, spec.data_qubits)
            dev = max(linalg.max_norm_diff(block, oracle(alpha)), leakage)
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, dev, tol))
    elif suite == "restoration":
        for alpha in _alpha_list(args, np.arange(0.0, order, 0.5)):
            spec = FractionalSpec(transform, alpha)
            circuit = build_qfru_circuit(spec)
            data = rng.standard_normal(1 << spec.data_qubits) + 1j * rng.standard_normal(
                1 << spec.data_qubits
            )
            data /= np.linalg.norm(data)
            state = np.zeros(1 << circuit.num_qubits, dtype=complex)
            state[: data.size] = data
            final, _ = simulator.run(circuit, state)
            prob = simulator.ancilla_restoration_probability(final, spec.num_ancillas)
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, abs(1.0 - prob), tol))
    elif suite == "order":
        exponent, residue, declared = _order_and_residue(transform)
        dev = residue if declared <= ORDER_TOL else max(residue, declared)
        rows.append(ReportRow(f"exponent{exponent}", None, None, dev, tol))
    elif suite == "coefficients":
        for alpha in _alpha_list(args, np.linspace(0.0, order, 100, endpoint=False)):
            c = shih_coefficients(order, alpha).weights
            dev = max(abs(c.sum() - 1.0), abs(np.sum(np.abs(c) ** 2) - 1.0))
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, float(dev), tol))
    else:
        raise ValueError(f"unknown suite {suite!r}; valid: {', '.join(SUITES)}")
    return rows


def cmd_verify(args) -> int:
    transform = _resolve_transform(args)
    rng = np.random.default_rng(args.seed)
    rows = _suite_rows(args, transform, rng)
    tol = rows[0].tolerance if rows else 0.0
    lines = [
        f"# suite={args.suite} transform={transform.id} data_qubits="
        f"{transform.data_qubits} seed={args.seed} tolerance={tol:.17g}",
        "suite,case_id,alpha,beta,deviation,tolerance,pass",
    ]
    for r in rows:
        lines.append(
            ",".join(
                [
                    args.suite,
                    r.case_id,
                    _fmt(r.alpha),
                    _fmt(r.beta),
                    f"{r.deviation:.17g}",
                    f"{r.tolerance:.17g}",
                    "true" if r.passed else "false",
                ]
            )
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in rows) else 1


def cmd_sweep(args) -> int:
    transform = _resolve_transform(args)
    if args.alpha_range is None:
        raise ValueError("sweep needs --alpha-range START,STOP,STEP")
    alphas = _parse_alpha_range(args.alpha_range)
    order = transform.order
    lines = [
        f"# transform={transform.id} data_qubits={transform.data_qubits} order={order}",
        "alpha,coeff_sq_sum,unitarity_dev,nearest_power_dist",
    ]
    for alpha in alphas:
        m = fractional_oracle(FractionalSpec(transform, alpha))
        coeff_sq = float(
            np.sum(np.abs(shih_coefficients(order, alpha).weights) ** 2)
        )
        unit_dev = linalg.unitarity_dev(m)
        nearest = transform.powers()[int(round(alpha)) % order]
        dist = linalg.max_norm_diff(m, nearest)
        lines.append(f"{alpha:.17g},{coeff_sq:.17g},{unit_dev:.17g},{dist:.17g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    transform = _resolve_transform(args)
    if args.alpha is None:
        raise ValueError("export needs --alpha")
    circuit = _build_circuit(transform, args.alpha, args.kind)
    _write(args.out, qasm.export_circuit(circuit))
    return 0


# ------------------------------------------------------------------ parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfrt",
        description="Fractional powers of dyadic-order quantum transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--transform", required=True, choices=TRANSFORM_IDS)
        p.add_argument("--qubits", type=int, help="data qubits (fourier/hartley)")
        p.add_argument("--n", type=int, help="block exponent n (cst1/cst4)")
        p.add_argument("--alpha", type=float, help="fractional exponent")
        p.add_argument("--alpha-range", help="START,STOP,STEP (STOP exclusive)")
        p.add_argument("--out", help="output path (default: stdout)")

    p_dump = sub.add_parser("dump", help="write a dense matrix or a final state")
    add_common(p_dump)
    p_dump.add_argument(
        "--format", choices=("matrix-text", "state-text", "circuit-text"),
        default="matrix-text",
    )
    p_dump.add_argument(
        "--circuit-unitary", action="store_true",
        help="dump the full ancilla-circuit unitary instead of the oracle",
    )
    p_dump.add_argument(
        "--cst4-selector", choices=("cos", "sin"),
        help="dump only the cosine or sine sub-block of cst4",
    )
    p_dump.add_argument("--full", action="store_true",
                        help="keep zero amplitudes in state dumps")
    p_dump.set_defaults(func=cmd_dump)

    p_verify = sub.add_parser("verify", help="run a verification suite, emit CSV")
    add_common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--tol", type=float, help="pass tolerance (default 1e-10; "
                          "order suite 1e-6)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate the interpolation curve")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_export = sub.add_parser("export", help="write the circuit in text form")
    add_common(p_export)
    p_export.add_argument("--kind", choices=("auto", "qfru", "qfrin"), default="auto")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol <= 1e-2:
        print("error: --tol must be in (0, 1e-2]", file=sys.stderr)
        return 2
    try:
        linalg.max_qubits()  # a malformed QFRT_MAX_QUBITS fails here, on every command
        return args.func(args)
    except (QfrtError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
