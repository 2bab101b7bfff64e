"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed, one run after another, and prints each
metric's median and its quartile spread, (Q3 - Q1) / median, next to the
bound in BENCHMARK.json. Run from the repository root::

    python3 bench/spread.py --workload state_batch --seeds 1-10
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="FIRST-LAST, inclusive")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.6g}  spread {spread:7.2%}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
