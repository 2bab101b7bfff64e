"""The benchmark's workloads, their ops and the checks on every op's output.

An op is one call a user of qfrt makes: an in-process ``qfrt.cli.main(argv)``
call, or one ``qfrt.simulator.run`` of a data state through a circuit built
during set-up. Every qfrt function is reached through its module attribute
(``qfrt.cli.main``, ``qfrt.simulator.run``), so the tracer's rebinding
sees each call.

Each workload hands out ops in blocks. A block holds a fixed multiset of op
variants in a seeded order, with seeded exponents and data states, so the
share of each op class in a run is exact and the ranks of the median and of
the 90th percentile fall inside one class, away from the class boundaries.

An op fails if it raises, exits non-zero, or its check returns a reason.
Checks compare against the dense reference (``fractional_oracle``,
``circuit_unitary``) and run outside every timed interval. On
``oracle_sweep`` one op per block also checks ``fractional_oracle`` itself
against a spectral reference that does not use the Shih weights.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qfrt
import qfrt.cli

TOL = 1e-10


@dataclass
class Op:
    """One op: ``run`` is timed, ``check(run())`` returns None if correct or
    the reason it is not."""

    variant: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _size_flag(transform: str, size: int) -> list[str]:
    return ["--qubits" if transform in ("fourier", "hartley") else "--n", str(size)]


def _order(transform: str) -> int:
    return 4 if transform == "fourier" else 2


def cli_call(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qfrt.cli.main(argv)
    return code, out.getvalue()


# ------------------------------------------------------------------ checks


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_verify(result: tuple[int, str]) -> str | None:
    """``verify --alpha`` output: exit 0 and one CSV row, saying pass=true."""
    code, text = result
    rows = _csv_rows(text)
    if code != 0:
        return f"exit code {code}"
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    bad = [r[1] for r in rows if r[-1] != "true"]
    return f"rows not passing: {bad}" if bad else None


def check_sweep(result: tuple[int, str], expected_rows: int) -> str | None:
    """``sweep`` output: unitarity_dev <= 1e-10 and coeff_sq_sum within
    1e-10 of 1 on every row."""
    code, text = result
    rows = _csv_rows(text)
    if code != 0:
        return f"exit code {code}"
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected {expected_rows}"
    for alpha, coeff_sq, unit_dev, _ in rows:
        if not (abs(float(coeff_sq) - 1.0) <= TOL and float(unit_dev) <= TOL):
            return f"row alpha={alpha}: coeff_sq_sum={coeff_sq} unitarity_dev={unit_dev}"
    return None


def check_export(result, transform: str, size: int, alpha: float) -> str | None:
    """``export`` round trip: the re-imported circuit's data block matches
    ``fractional_oracle`` within 1e-10 with leakage <= 1e-10."""
    code, _, circuit = result
    if code != 0:
        return f"exit code {code}"
    base = qfrt.base_transforms.make_transform(transform, size)
    oracle = qfrt.fractional.fractional_oracle(qfrt.fractional.FractionalSpec(base, alpha))
    q = base.data_qubits
    full = qfrt.circuits.circuit_unitary(circuit)
    block, leakage = qfrt.fractional.extract_data_block(full, circuit.num_qubits - q, q)
    dev = float(np.max(np.abs(block - oracle)))
    if not (dev <= TOL and leakage <= TOL):
        return f"block deviation {dev:.3e}, leakage {leakage:.3e}"
    return None


class SpectralReference:
    """FrU(alpha) applied to a few seeded probe vectors, from an
    eigendecomposition of ``base.dense`` and independent of the Shih
    weights: the part of a probe in the eigenspace of w**m is scaled by
    w**(m alpha), with w = exp(-2 pi i / order). Only those parts are kept,
    order x dim x PROBES numbers, so the reference adds no dense operator
    to the run's memory."""

    PROBES = 4

    def __init__(self, base, rng: np.random.Generator):
        order = base.order
        dim = base.dense.shape[0]
        probes = (rng.standard_normal((dim, self.PROBES))
                  + 1j * rng.standard_normal((dim, self.PROBES)))
        self.base = base
        self.probes = probes / np.linalg.norm(probes, axis=0)
        eigenvalues, vectors = np.linalg.eig(base.dense)
        coords = np.linalg.solve(vectors, self.probes)
        m = np.rint(-np.angle(eigenvalues) * order / (2.0 * np.pi)) % order
        self.parts = np.stack([vectors[:, m == j] @ coords[m == j] for j in range(order)])

    def check(self, alpha: float) -> str | None:
        """``fractional_oracle`` at ``alpha`` matches the reference on the
        probes within 1e-10."""
        spec = qfrt.fractional.FractionalSpec(self.base, alpha)
        order = len(self.parts)
        phases = np.exp(-2j * np.pi * np.arange(order) * alpha / order)
        expected = np.tensordot(phases, self.parts, axes=1)
        dev = float(np.max(np.abs(qfrt.fractional.fractional_oracle(spec) @ self.probes
                                  - expected)))
        return None if dev <= TOL else f"oracle deviates from spectral reference by {dev:.3e}"


def check_state(final, expected: np.ndarray, num_ancillas: int) -> str | None:
    """Final state: its ancilla-|0...0> block matches FrU(alpha) x within
    1e-10 and the ancillas come back with probability within 1e-10 of 1."""
    dev = float(np.max(np.abs(final[: expected.size] - expected)))
    prob = qfrt.simulator.ancilla_restoration_probability(final, num_ancillas)
    if not (dev <= TOL and abs(1.0 - prob) <= TOL):
        return f"data deviation {dev:.3e}, restoration probability {prob!r}"
    return None


# ------------------------------------------------------------- op builders


def verify_op(suite: str, transform: str, size: int, alpha: float) -> Op:
    argv = ["verify", "--suite", suite, "--transform", transform,
            *_size_flag(transform, size), "--alpha", _fmt(alpha)]
    return Op(f"verify-{suite}-{transform}{size}", lambda: cli_call(argv), check_verify)


def sweep_op(transform: str, size: int, start: float, step: float, rows: int) -> Op:
    spec = f"{_fmt(start)},{_fmt(start + step * rows)},{_fmt(step)}"
    argv = ["sweep", "--transform", transform, *_size_flag(transform, size),
            "--alpha-range", spec]
    return Op(f"sweep-{transform}{size}", lambda: cli_call(argv),
              lambda r: check_sweep(r, rows))


def export_op(transform: str, size: int, kind: str, alpha: float) -> Op:
    """The export round trip: the CLI call plus the re-import of its text."""
    argv = ["export", "--transform", transform, *_size_flag(transform, size),
            "--alpha", _fmt(alpha), "--kind", kind]

    def run():
        code, text = cli_call(argv)
        return code, text, qfrt.qasm.import_circuit(text)

    return Op(f"export-{kind}-{transform}{size}", run,
              lambda r: check_export(r, transform, size, alpha))


def oracle_checked(op: Op, reference: SpectralReference, alpha: float) -> Op:
    """``op`` whose check also holds ``fractional_oracle`` at ``alpha`` to
    the spectral reference."""
    return Op(op.variant, op.run, lambda r: op.check(r) or reference.check(alpha))


def state_op(variant: str, circuit, x: np.ndarray, expected: np.ndarray,
             num_ancillas: int) -> Op:
    """One run of data state ``x`` with the ancillas in |0...0>; the full
    state is made inside the op, so a block holds only the data states."""

    def run():
        state = np.zeros(1 << circuit.num_qubits, dtype=complex)
        state[: x.size] = x
        return qfrt.simulator.run(circuit, state, trace=True)[0]

    return Op(variant, run, lambda final: check_state(final, expected, num_ancillas))


def probe_ops() -> list[Op]:
    """Tiny ops that reach every traced function once. A traced block ends
    with them, so every layer reports a measured time on every workload."""
    base = qfrt.base_transforms.make_transform("fourier", 1)
    spec = qfrt.fractional.FractionalSpec(base, 0.5)
    circuit = qfrt.fractional.build_qfru_circuit(spec)
    x = np.full(2, np.sqrt(0.5), dtype=complex)
    expected = qfrt.fractional.fractional_oracle(spec) @ x
    return [
        verify_op("equivalence", "fourier", 1, 0.5),
        export_op("hartley", 1, "auto", 0.5),
        state_op("probe-run", circuit, x, expected, spec.num_ancillas),
    ]


# -------------------------------------------------------------- workloads


class Workload:
    """``setup()`` does the work later ops reuse (timed as set-up);
    ``prepare()`` makes the dense references the checks need (untimed);
    ``block(rng)`` hands out the next block of ops."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def block(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError


class OracleSweep(Workload):
    """Dense-oracle path; circuits and the simulator stay idle.

    Fourier q=9. Four of every five ops are ``verify --suite unitarity
    --alpha a``: a cold transform build plus one oracle each. One in five is
    ``sweep --alpha-range s,s+1,0.25``: four exponents on one transform.
    The median falls in the verify class and the 90th percentile in the
    middle of the sweep class, so reuse of powers across exponents can only
    show in ``op_p90_ms``. Stresses ``fractional_oracle``,
    ``shih_coefficients``, ``make_transform``, ``max_norm_diff``,
    ``matrix_power`` (sweep) and ``cli.main``; should not move
    ``circuit_unitary``, the circuit builders, ``simulator.run`` or ``qasm``.
    One verify op per block also checks ``fractional_oracle`` at its
    exponent against a :class:`SpectralReference`, made once in
    ``prepare()``, since the CLI's own checks would pass any unitary.
    """

    name = "oracle_sweep"

    #: Golden-ratio step of the sweep starts (see :meth:`block`).
    _STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self._start = np.random.default_rng([seed, 1]).uniform()
        self._probe_rng = np.random.default_rng([seed, 3])
        self.q = 2 if tiny else 9
        self.reference = None

    def prepare(self):
        self.reference = SpectralReference(
            qfrt.base_transforms.make_transform("fourier", self.q), self._probe_rng)

    def block(self, rng):
        q = self.q
        alphas = rng.uniform(0.0, 4.0, size=4)
        ops = [verify_op("unitarity", "fourier", q, a) for a in alphas]
        ops[0] = oracle_checked(ops[0], self.reference, alphas[0])
        # A sweep's cost depends on its start: each row also builds
        # U**(round(alpha) mod 4), from 0 to 3 matrix products. Starts from a
        # golden-ratio sequence cover [0, 3) evenly in every run, so the
        # sweep class costs the same whatever the seed.
        self._start = (self._start + self._STEP) % 1.0
        ops.append(sweep_op("fourier", q, 3.0 * self._start, 0.25, 4))
        rng.shuffle(ops)
        return ops


class CircuitEquivalence(Workload):
    """Circuit-vs-oracle check of the paper, plus the export round trip.

    ``verify --suite equivalence`` at 9-10 total qubits: fourier q=7 and
    q=8, hartley q=8 and q=9, cst1 n=7 and cst4 n=7; and the export round
    trip (CLI export, then re-import) of every circuit that exports today:
    hartley q=2 as qfrin and qfru, fourier q=2 as qfru, cst1 n=1 and cst4
    n=1. With one BLAS thread the classes cost, from cheapest to dearest:
    exports ~3 ms, fourier q=7 ~60 ms, the 9-qubit involutions ~75 ms,
    fourier q=8 ~440 ms and hartley q=9 ~530 ms. A block of 30 holds 5, 4,
    12, 3 and 6 of them, so the median falls in the middle of the 9-qubit
    involution class and the 90th percentile in the middle of the hartley
    q=9 class. Stresses ``circuit_unitary`` (most of the time),
    ``multiplexed_powers``, the payload ``is_unitary`` and ``matrix_power``
    checks, ``extract_data_block`` and ``qasm``; the oracle is a small
    share, so a faster oracle should barely move it. It is the only
    workload where ``qasm`` runs. ``simulator.run`` stays idle.
    """

    name = "circuit_equivalence"

    def block(self, rng):
        if self.tiny:
            verifies = {("fourier", 1): 4, ("hartley", 2): 4, ("cst1", 1): 4,
                        ("cst4", 1): 4, ("fourier", 2): 3, ("hartley", 3): 6}
        else:
            verifies = {("fourier", 7): 4, ("hartley", 8): 4, ("cst1", 7): 4,
                        ("cst4", 7): 4, ("fourier", 8): 3, ("hartley", 9): 6}
        exports = [("hartley", 2, "qfrin"), ("hartley", 2, "qfru"),
                   ("fourier", 2, "qfru"), ("cst1", 1, "auto"), ("cst4", 1, "auto")]
        ops = [verify_op("equivalence", t, s, rng.uniform(0.0, _order(t)))
               for (t, s), count in verifies.items() for _ in range(count)]
        ops += [export_op(t, s, k, rng.uniform(0.0, _order(t))) for t, s, k in exports]
        rng.shuffle(ops)
        return ops


class StateBatch(Workload):
    """Statevector runs through circuits built once, during set-up.

    Set-up builds fourier q=10 as qfru (12 qubits, 18 gates, four
    controlled 1024x1024 payloads), hartley q=11 as qfrin (12 qubits, two
    controlled 2048x2048 payloads) and cst4 n=10 as qfrin, each at a seeded
    exponent. Each op runs one seeded random data state through one of
    them with ``trace=True``; the three take turns. All ops are one class,
    ``simulator.run``, and with one BLAS thread the three circuits cost
    within 10% of each other (~15 ms), so no class boundary sits near the
    median or the 90th percentile. ``setup_s`` is all circuit construction
    (``make_transform``, ``multiplexed_powers``, ``is_unitary``,
    ``matrix_power``), so validate-once work should move only ``setup_s``
    here, and a faster ``simulator.run`` only the op metrics. The oracle,
    ``circuit_unitary``, ``qasm`` and the CLI stay idle. The expected states
    are made without a dense fractional operator, so the checks add
    O(dim x 64) memory per circuit and ``peak_rss_mb`` is the circuits' and
    the simulator's.
    """

    name = "state_batch"

    #: Runs of each circuit per block; a block's expected states are then a
    #: few products of a transform with a dim x 64 matrix.
    RUNS_PER_CIRCUIT = 64

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        rng = np.random.default_rng([seed, 1])
        self.alphas = {"fourier": rng.uniform(0.0, 4.0), "hartley": rng.uniform(0.0, 2.0),
                       "cst4": rng.uniform(0.0, 2.0)}
        self.sizes = ({"fourier": 2, "hartley": 2, "cst4": 1} if tiny
                      else {"fourier": 10, "hartley": 11, "cst4": 10})
        self.circuits = {}
        self.weights = {}

    def setup(self):
        fractional = qfrt.fractional
        self.circuits = circuits = {}
        for t in ("fourier", "hartley", "cst4"):
            base = qfrt.base_transforms.make_transform(t, self.sizes[t])
            if t == "fourier":
                spec = fractional.FractionalSpec(base, self.alphas[t])
                circuits[t] = (base, fractional.build_qfru_circuit(spec))
            else:
                circuits[t] = (base, fractional.build_qfrin_circuit(base, self.alphas[t]))

    def prepare(self):
        self.weights = {
            t: qfrt.fractional.shih_coefficients(base.order, self.alphas[t]).weights
            for t, (base, _) in self.circuits.items()
        }

    @staticmethod
    def expected_states(u: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """FrU(alpha) @ x as sum_k w_k U**k x, by repeated products with x."""
        out = weights[0] * x
        power_x = x
        for w in weights[1:]:
            power_x = u @ power_x
            out += w * power_x
        return out

    def block(self, rng):
        n = 4 if self.tiny else self.RUNS_PER_CIRCUIT
        ops = []
        for t, (base, circuit) in self.circuits.items():
            dim = 1 << base.data_qubits
            x = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
            x /= np.linalg.norm(x, axis=0)
            expected = self.expected_states(base.dense, self.weights[t], x)
            ancillas = circuit.num_qubits - base.data_qubits
            for i in range(n):
                ops.append(state_op(f"run-{t}{self.sizes[t]}", circuit, x[:, i],
                                    expected[:, i], ancillas))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (OracleSweep, CircuitEquivalence, StateBatch)}
