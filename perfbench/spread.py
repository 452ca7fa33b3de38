"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sync-1m-ring --seeds 1-10 --seconds 30

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median, the quartile spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def collect(workload: str, seeds: list[int], seconds: float) -> list[dict]:
    results = []
    for seed in seeds:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"seed {seed} failed:\n{done.stdout}\n{done.stderr}")
        results.append(json.loads(lines[-1]))
        print(lines[-1], flush=True)
    return results


def spreads(results: list[dict]) -> dict[str, tuple[float, float]]:
    """Metric name -> (median, quartile spread as a share of the median)."""
    table = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        table[name] = (median, (q3 - q1) / median)
    return table


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE.parent))
    from perfbench.metrics import END_TO_END

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    results = collect(args.workload, parse_seeds(args.seeds), args.seconds)
    bounds = {metric.name: metric.bound for metric in END_TO_END}
    print(f"{'metric':24s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, (median, spread) in spreads(results).items():
        print(f"{name:24s} {median:14.6g} {spread:8.4f} {bounds.get(name, 0):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
