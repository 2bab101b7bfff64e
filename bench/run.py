"""Benchmark entry point: run one workload of qfrt and print its metrics.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment and the sample counts. Workloads, metrics and
layers are described in ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("oracle_sweep", "circuit_equivalence", "state_batch")

#: A run starts no new block after this many seconds, so that it exits well
#: within three minutes even on a slow machine.
DEADLINE_S = 120.0

#: Pinned so that every run uses the same dense qubit budget (the default).
MAX_QUBITS = "14"

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: One BLAS thread, which never exceeds the CPUs a run has. On a shared
#: 2-core machine two threads ran the 12-qubit simulator ops about twice as
#: fast, but their median latency swung by 30% between 3-second windows;
#: with one thread it stayed within about 6%.
BLAS_THREADS = 1


def _git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "qfrt" / "__init__.py").is_file():
        print(f"error: no qfrt sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads it, so pin it first.
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["QFRT_MAX_QUBITS"] = MAX_QUBITS
    sys.path.insert(0, str(SRC))

    import numpy as np

    import qfrt
    from harness import run_workload

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                SRC, started + DEADLINE_S, spans)
    info["environment"] = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": BLAS_THREADS,
        "blas_threads_set_by": list(_BLAS_ENV),
        "qfrt": qfrt.__version__,
        "qfrt_max_qubits": qfrt.linalg.max_qubits(),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }
    info["wall_s"] = perf_counter() - started
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
