"""Closed-loop measurement of one workload: one client, and the next op
starts only after the last one has completed and been checked.

A run sets up, runs one untimed warm-up op of every op variant, then hands
out blocks of ops until ``seconds`` have passed and at least
:data:`MIN_TIMED_OPS` ops were timed. Between blocks, at even intervals,
it times ``import qfrt`` in fresh interpreters. A metric run (``trace=False``)
reports the end-to-end metrics. A traced run alternates untraced and
traced blocks, reports per-layer metrics from the traced ones and the
tracing overhead from the pair.
"""
from __future__ import annotations

import itertools
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import qfrt
from tracer import COMPUTED, LAYERS, Tracer
from workloads import WORKLOADS, Op, probe_ops

#: Enough samples that ten lie beyond the 90th percentile.
MIN_TIMED_OPS = 100

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Fresh-interpreter imports of qfrt per run, spread over the run; the
#: fastest is the import part of ``setup_s``. On a shared 2-vCPU machine
#: one import took between about 70 and 120 ms, moving from one second to
#: the next and in slow stretches of minutes, so the median of ten runs'
#: median imports moved by 30% between two sets of runs. The fastest of
#: imports spread over 30 s is what the import costs when nothing else
#: interferes, and a slower import raises it as much as the median.
IMPORT_REPEATS = 9

_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qfrt; print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Time ``import qfrt`` in a fresh interpreter, as a user's process pays it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: a measured value, no interpolation."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Runner:
    """Runs ops, times them and checks them, counting every op it starts."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> tuple[float, bool]:
        """(seconds the op took, whether it succeeded)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit):
            elapsed = perf_counter() - start
            self.failures.append(f"{op.variant}: {traceback.format_exc(limit=3)}")
            return elapsed, False
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            reason = op.check(result)
        except Exception:
            reason = traceback.format_exc(limit=3)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if reason is not None:
            self.failures.append(f"{op.variant}: {reason}")
        return elapsed, reason is None


class Tally:
    """Timed ops: the latencies of the successful ones, the time of all."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed_latencies: list[float] = []
        self.by_variant: dict[str, list[float]] = {}

    def add(self, op: Op, elapsed: float, ok: bool) -> None:
        self.by_variant.setdefault(op.variant, []).append(elapsed)
        (self.latencies if ok else self.failed_latencies).append(elapsed)

    @property
    def count(self) -> int:
        return len(self.latencies) + len(self.failed_latencies)

    @property
    def ops_per_s(self) -> float:
        """Ops completed over the summed time of every timed op."""
        return len(self.latencies) / (sum(self.latencies) + sum(self.failed_latencies))

    def sorted_latencies(self) -> list[float]:
        """Successful ops' latencies; every op's if none succeeded."""
        return sorted(self.latencies or self.failed_latencies)


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: Path,
                 deadline: float, spans_path: Path | None = None, tiny: bool = False):
    """Run one workload; returns (result, info). ``deadline`` is a
    ``perf_counter`` time after which no new block starts; a traced run
    writes its spans to ``spans_path``."""
    rng = np.random.default_rng(seed)
    workload = WORKLOADS[name](seed, tiny)
    tracer = Tracer() if trace else None
    runner = Runner(tracer)

    imports = []
    builds = []
    if tracer is not None:
        tracer.install(qfrt)
    for i in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.scope = f"setup{i}"
        start = perf_counter()
        workload.setup()
        builds.append(perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
    workload.prepare()
    probe = probe_ops() if trace else []

    warmup = {op.variant: op for op in workload.block(np.random.default_rng([seed, 2]))}
    for op in [*warmup.values(), *probe]:
        runner.run(op)

    untraced, traced = Tally(), Tally()
    traced_scopes = []
    start = perf_counter()
    for index in itertools.count():
        use_tracer = trace and index % 2 == 1
        tally = traced if use_tracer else untraced
        block = workload.block(rng)
        if use_tracer:
            tracer.scope = f"block{index}"
            traced_scopes.append(tracer.scope)
            tracer.install(qfrt)
        for op in block:
            tally.add(op, *runner.run(op))
        if use_tracer:
            for op in probe:
                runner.run(op)
            tracer.uninstall()
        while len(imports) < IMPORT_REPEATS and (
                perf_counter() - start >= len(imports) * seconds / IMPORT_REPEATS):
            imports.append(import_seconds(src))
        if trace:
            # Per-layer values are medians over blocks; two of each kind
            # suffice, and the overhead compares equal mixes.
            enough = len(traced_scopes) >= 2
        else:
            enough = untraced.count >= MIN_TIMED_OPS
        if perf_counter() - start >= seconds and enough:
            break
        if perf_counter() >= deadline and (not trace or traced_scopes):
            break

    while len(imports) < IMPORT_REPEATS:
        imports.append(import_seconds(src))

    failed = len(runner.failures)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "timed_ops": untraced.count + traced.count,
        "variants": {v: {"ops": len(t), "p50_ms": 1e3 * statistics.median(t)}
                     for v, t in sorted(untraced.by_variant.items())},
        "warmup_ops": len(warmup) + len(probe),
        "import_s": imports,
        "build_s": builds,
        "failures": runner.failures[:5],
    }
    if trace:
        metrics, info["largest_self_s"] = layer_metrics(
            tracer, [f"setup{i}" for i in range(SETUP_REPEATS)], traced_scopes)
        metrics["trace.ops_per_s_traced"] = {"value": traced.ops_per_s, "unit": "1/s"}
        metrics["trace.ops_per_s_untraced"] = {"value": untraced.ops_per_s, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0), "unit": "%"}
        info["traced_blocks"] = len(traced_scopes)
        if spans_path is not None:
            tracer.dump(spans_path)
            info["spans_file"] = str(spans_path)
    else:
        lat = untraced.sorted_latencies()
        metrics = {
            "ops_per_s": {"value": untraced.ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * percentile(lat, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile(lat, 0.9), "unit": "ms"},
            "setup_s": {"value": min(imports) + statistics.median(builds),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return result, info


_UNITS = {"calls": "count", "self_s": "s", "gates": "count", "payload_bytes": "B",
          "bytes": "B"}


def layer_metrics(tracer: Tracer, setup_scopes: list[str], block_scopes: list[str]):
    """Per layer: the median over set-ups plus the median over traced blocks
    (each block ends with the probe ops) of calls, self time and computed
    counts. Also returns, for set-up and for the blocks, the layers by
    median self time, largest first."""
    totals = tracer.totals()
    metrics = {}
    parts = {"setup": {}, "ops": {}}
    for layer in LAYERS:
        keys = ("calls", "self_s", *(COMPUTED[layer][0] if layer in COMPUTED else ()))
        for key in keys:
            medians = [statistics.median(totals[s][layer][key] for s in scopes)
                       for scopes in (setup_scopes, block_scopes)]
            metrics[f"{layer}.{key}"] = {"value": sum(medians), "unit": _UNITS[key]}
            if key == "self_s":
                parts["setup"][layer], parts["ops"][layer] = medians
    ranked = {part: sorted(((v, k) for k, v in d.items() if v > 0), reverse=True)
              for part, d in parts.items()}
    return metrics, {part: [[k, v] for v, k in r[:4]] for part, r in ranked.items()}
