#!/usr/bin/env python3
"""Run every workload once untraced and once traced, and print one table.

    python3 bench/report.py [--seed N] [--seconds S]

The untraced run gives the end-to-end metrics and fail_ratio; the traced run
gives the per-layer metrics.  The tracing overhead of a workload is its
traced `trace.op_p50_ms` minus its untraced `op_p50_ms`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("evolve_sampled", "evolve_modes", "sweep_negativity", "cli_scenarios")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        [sys.executable, str(RUN), *args, "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["info"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    table: dict[str, dict[str, object]] = {}
    units: dict[str, str] = {}

    def put(name, unit, workload, value):
        table.setdefault(name, {})[workload] = value
        units[name] = unit

    for workload in WORKLOADS:
        for trace in (0, 1):
            info, result = run(workload, args.seed, args.seconds, trace)
            for name, metric in result["metrics"].items():
                put(name, metric["unit"], workload, metric["value"])
            put(f"correct (trace {trace})", "", workload, result["correct"])
            if trace:
                put("coverage_ok", "", workload, info["coverage_ok"])
            else:
                put("fail_ratio", "1", workload, info["fail_ratio"])
                put("tail_percentile", "%", workload, info["tail_percentile"])
                put("ops", "count", workload, info["ops"])
        overhead = table["trace.op_p50_ms"][workload] - table["op_p50_ms"][workload]
        put("tracing_overhead_ms", "ms", workload, overhead)

    print(f"{'metric':36s} {'unit':10s}" + "".join(f"{w:>18s}" for w in WORKLOADS))
    for name, row in table.items():
        cells = "".join(
            f"{row[w]:>18.6g}" if isinstance(row[w], float) else f"{str(row[w]):>18s}"
            for w in WORKLOADS
        )
        print(f"{name:36s} {units[name]:10s}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
