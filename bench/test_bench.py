"""Self-test of the benchmark: a tiny-size run of every workload finishes
with no failed op, and the output checks count corrupted outputs as
failures. Run from the repository root::

    python3 -m unittest discover -s bench -p "test_*.py"
"""
from __future__ import annotations

import json
import sys
import unittest
from unittest import mock
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import qfrt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name: str, trace: bool):
    return harness.run_workload(name, seed=3, seconds=0, trace=trace, src=SRC,
                                deadline=perf_counter() + 120, tiny=True)


class TinyRuns(unittest.TestCase):
    def test_workload_names_agree(self):
        self.assertEqual(set(NAMES), set(workloads.WORKLOADS))
        self.assertEqual(set(NAMES), set(run.WORKLOAD_NAMES))

    def test_metric_runs_have_no_failures(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for name in NAMES:
            with self.subTest(workload=name):
                result, info = tiny_run(name, trace=False)
                self.assertEqual(result["failed"], 0, info["failures"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(info["timed_ops"], harness.MIN_TIMED_OPS)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_runs_report_every_layer(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        original = qfrt.cli.main
        for name in NAMES:
            with self.subTest(workload=name):
                result, info = tiny_run(name, trace=True)
                self.assertEqual(result["failed"], 0, info["failures"])
                self.assertEqual(set(result["metrics"]), names)
                for metric, m in result["metrics"].items():
                    if metric.endswith((".calls", ".self_s")):
                        self.assertGreater(m["value"], 0, metric)
        self.assertIs(qfrt.cli.main, original)


class ChecksCatchCorruption(unittest.TestCase):
    def assert_caught(self, op: Op, corrupt) -> None:
        """The op passes as is, and fails once its output is corrupted."""
        runner = harness.Runner()
        self.assertTrue(runner.run(op)[1], runner.failures)
        bad = Op(op.variant, lambda: corrupt(op.run()), op.check)
        self.assertFalse(runner.run(bad)[1])
        self.assertEqual((runner.attempted, len(runner.failures)), (2, 1))

    def test_flipped_csv_pass_field(self):
        op = workloads.verify_op("unitarity", "fourier", 2, 0.7)

        def flip(result):
            code, text = result
            head, _, last = text.rstrip("\n").rpartition("\n")
            return code, f"{head}\n{last.replace(',true', ',false')}\n"

        self.assert_caught(op, flip)

    def test_state_perturbed_by_1e_6(self):
        base = qfrt.base_transforms.make_transform("fourier", 2)
        spec = qfrt.fractional.FractionalSpec(base, 1.3)
        circuit = qfrt.fractional.build_qfru_circuit(spec)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        op = workloads.state_op("run", circuit, x,
                                qfrt.fractional.fractional_oracle(spec) @ x,
                                spec.num_ancillas)

        def perturb(final):
            final = final.copy()
            final[1] += 1e-6
            return final

        self.assert_caught(op, perturb)

    def test_sweep_row_off_unitary(self):
        op = workloads.sweep_op("fourier", 2, 0.3, 0.25, 4)

        def spoil(result):
            code, text = result
            lines = text.splitlines()
            alpha, coeff, _, dist = lines[-1].split(",")
            lines[-1] = ",".join([alpha, coeff, "1e-6", dist])
            return code, "\n".join(lines) + "\n"

        self.assert_caught(op, spoil)

    def test_oracle_returning_nearest_integer_power(self):
        """A unitary but wrong oracle passes the CLI's own checks, and the
        spectral reference catches it."""
        base = qfrt.base_transforms.make_transform("fourier", 2)
        alpha = 1.3
        reference = workloads.SpectralReference(base, np.random.default_rng(0))
        op = workloads.oracle_checked(workloads.verify_op("unitarity", "fourier", 2, alpha),
                                      reference, alpha)
        runner = harness.Runner()
        self.assertTrue(runner.run(op)[1], runner.failures)

        def nearest_power(spec):
            return np.linalg.matrix_power(spec.base.dense, round(spec.alpha))

        with mock.patch.object(qfrt.fractional, "fractional_oracle", nearest_power):
            self.assertFalse(runner.run(op)[1])
        self.assertEqual((runner.attempted, len(runner.failures)), (2, 1))


if __name__ == "__main__":
    unittest.main()
