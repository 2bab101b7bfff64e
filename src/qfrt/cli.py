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
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fractional, linalg, qasm, simulator
from .base_transforms import (
    EIGEN_RESIDUE_TOL,
    GATE_TOL,
    ORDER_TOL,
    BaseTransform,
    TRANSFORM_IDS,
    _order_and_residue,
    make_transform,
)
from .circuits import circuit_unitary
from .errors import QfrtError
from .fractional import (
    _COLUMN_BLOCK,
    FractionalSpec,
    build_qfrin_circuit,
    build_qfru_circuit,
    fractional_apply,
    fractional_oracle,
    shih_coefficients,
    unitarity_bound,
)

SUITES = ("additivity", "unitarity", "equivalence", "restoration", "order",
          "coefficients")

_SUITE_DEFAULT_TOL = {"order": EIGEN_RESIDUE_TOL}

#: Most rows an ``--alpha-range`` may expand to; each row is at least one
#: dense oracle, so a larger range is a typo, not a workload.
MAX_ALPHA_ROWS = 100_000

#: Not called here; ``bench/tracer.py`` traces it by the name ``cli.extract_data_block``.
extract_data_block = fractional.extract_data_block


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


def _parse_alpha_range(raw: str, command: str) -> np.ndarray:
    """The alphas of START,STOP,STEP, STOP exclusive; ``command`` names the
    rows in the error an empty range raises."""
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
    if rows < 1:
        raise ValueError(f"--alpha-range {raw!r} gives no rows to {command}")
    return start + step * np.arange(int(rows))


def _resolve_transform(args) -> BaseTransform:
    flag, other = ("qubits", "n") if args.transform in ("fourier", "hartley") else ("n", "qubits")
    size = getattr(args, flag)
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} does not apply to --transform {args.transform}")
    if size is None:
        raise ValueError(f"transform {args.transform!r} needs --{flag}")
    if size < 1:
        raise ValueError(f"--{flag} must be >= 1, got {size}")
    return make_transform(args.transform, size)


def _alpha_list(args, default: np.ndarray) -> np.ndarray:
    if args.alpha is not None:
        return np.array([args.alpha])
    if args.alpha_range is None:
        return default
    return _parse_alpha_range(args.alpha_range, "verify")


def _equivalence_dev(spec: FractionalSpec) -> float:
    """The largest deviation max|final[:2**q] - oracle columns| or leakage
    (column norm of final[2**q:]) of ``simulator.run`` on the 2**q
    ancilla-|0...0> basis columns, in blocks of max(1, _COLUMN_BLOCK // 2**q)
    columns compared in place; NaN if any block's output holds a NaN."""
    circuit, oracle = build_qfru_circuit(spec), fractional_oracle(spec)
    dim, data = 1 << circuit.num_qubits, 1 << spec.data_qubits
    width = max(1, _COLUMN_BLOCK // data)
    devs = []
    for start in range(0, data, width):
        stop = min(start + width, data)
        final, _ = simulator.run(circuit, np.eye(dim, stop - start, -start, dtype=complex))
        devs.append(np.abs(final[:data] - oracle[:, start:stop]).max())
        devs.append(np.linalg.norm(final[data:], axis=0).max())
    return float(np.max(devs))


# ---------------------------------------------------------------- commands


def cmd_dump(args) -> int:
    fmt, has_alpha = f"--format {args.format}", args.alpha is not None
    # Each flag a dump would ignore is an error, the first one found reported.
    for ignored, message in (
        (args.alpha_range is not None, "--alpha-range does not apply to dump"),
        (has_alpha and args.cst4_selector is not None,
         "--alpha does not apply to --cst4-selector"),
        (not has_alpha and args.format != "matrix-text", f"{fmt} does not apply without --alpha"),
        (not has_alpha and args.circuit_unitary,
         "--circuit-unitary does not apply without --alpha"),
        (args.circuit_unitary and args.format != "matrix-text",
         f"--circuit-unitary does not apply to {fmt}"),
        (args.full and args.format != "state-text", f"--full does not apply to {fmt}"),
    ):
        if ignored:
            raise ValueError(message)
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
    if args.circuit_unitary:
        payload = circuit_unitary(build_qfru_circuit(spec))
    else:
        payload = fractional_oracle(spec)
    _write(args.out, linalg.format_matrix(payload))
    return 0


def _suite_rows(args, transform: BaseTransform, rng) -> list[ReportRow]:
    suite = args.suite
    if suite in ("additivity", "order") and (args.alpha, args.alpha_range) != (None, None):
        flag = "--alpha" if args.alpha is not None else "--alpha-range"
        raise ValueError(f"{flag} does not apply to --suite {suite}")
    tol = args.tol if args.tol is not None else _SUITE_DEFAULT_TOL.get(suite, GATE_TOL)
    order = transform.order
    rows = []

    def oracle(alpha):
        return fractional_oracle(FractionalSpec(transform, alpha))

    if suite == "additivity":
        for i in range(25):
            a, b = rng.uniform(0.0, order, size=2)
            spec, ob, oab = FractionalSpec(transform, a), oracle(b), oracle(a + b)
            width = max(1, _COLUMN_BLOCK // len(ob))
            dev = max(linalg.max_norm_diff(fractional_apply(spec, ob[:, j:j + width]),
                                           oab[:, j:j + width]) for j in range(0, len(ob), width))
            rows.append(ReportRow(f"pair{i:02d}", a, b, dev, tol))
    elif suite == "unitarity":
        for alpha in _alpha_list(args, np.arange(0.0, order, 0.1)):
            spec = FractionalSpec(transform, alpha)
            dev = unitarity_bound(spec, fractional_oracle(spec))
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, dev, tol))
    elif suite == "equivalence":
        for alpha in _alpha_list(args, np.arange(0.0, order, 0.5)):
            dev = _equivalence_dev(FractionalSpec(transform, alpha))
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
    else:  # "coefficients", the last of SUITES, which --suite is one of
        for alpha in _alpha_list(args, np.linspace(0.0, order, 100, endpoint=False)):
            c = shih_coefficients(order, alpha).weights
            dev = max(abs(c.sum() - 1.0), abs(np.sum(np.abs(c) ** 2) - 1.0))
            rows.append(ReportRow(f"alpha{alpha:.4f}", alpha, None, float(dev), tol))
    return rows


def cmd_verify(args) -> int:
    transform = _resolve_transform(args)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = _suite_rows(args, transform, rng)
    tol = rows[0].tolerance
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
    if args.alpha is not None:
        raise ValueError("--alpha does not apply to sweep")
    transform = _resolve_transform(args)
    if args.alpha_range is None:
        raise ValueError("sweep needs --alpha-range START,STOP,STEP")
    alphas = _parse_alpha_range(args.alpha_range, "sweep")
    order = transform.order
    lines = [
        f"# transform={transform.id} data_qubits={transform.data_qubits} order={order}",
        "alpha,coeff_sq_sum,unitarity_dev,nearest_power_dist",
    ]
    for alpha in alphas:
        spec = FractionalSpec(transform, alpha)
        m = fractional_oracle(spec)
        coeff_sq = float(np.sum(np.abs(spec.coefficients.weights) ** 2))
        unit_dev = unitarity_bound(spec, m)
        weights = spec.coefficients.weights.copy()
        weights[int(round(alpha)) % order] -= 1  # FrU(alpha) - U**k, gathered
        dist = float(np.max(np.abs(transform.power_sum(weights))))
        lines.append(f"{alpha:.17g},{coeff_sq:.17g},{unit_dev:.17g},{dist:.17g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    if args.alpha_range is not None:
        raise ValueError("--alpha-range does not apply to export")
    transform = _resolve_transform(args)
    if args.alpha is None:
        raise ValueError("export needs --alpha")
    if args.kind == "qfrin" and transform.order_exponent != 1:
        raise ValueError(f"--kind qfrin does not apply to --transform {transform.id} "
                         f"(order {transform.order})")
    # One circuit for every kind: qfrin is the qfru circuit behind an
    # involution check, and auto applies that check to every involution.
    if args.kind == "qfrin" or (args.kind == "auto" and transform.order_exponent == 1):
        circuit = build_qfrin_circuit(transform, args.alpha)
    else:
        circuit = build_qfru_circuit(FractionalSpec(transform, args.alpha))
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
        "--format", choices=("matrix-text", "state-text"), default="matrix-text",
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads with, built once per process."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol <= 1e-2:
        print("error: --tol must be in (0, 1e-2]", file=sys.stderr)
        return 2
    try:
        linalg.max_qubits()  # a malformed QFRT_MAX_QUBITS fails here, on every command
        if args.alpha is not None and not math.isfinite(args.alpha):
            raise ValueError(f"--alpha must be finite, got {args.alpha}")
        return args.func(args)
    except (QfrtError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
