#!/usr/bin/env python3
"""cavitymix benchmark: one workload, one closed-loop client, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory: the package is imported from the source tree next
to this file (`<root>/src`), with no install.  A single client sends the
next op only after the previous one finished, with no extra threads.  Every
op's input comes from the seed, and every output is checked outside the
timed region.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  The lines before it give an `info` object (versions, thread
settings, the tail percentile and its sample count, fail_ratio, the input
digest) and a readable table.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 11
REFERENCE_LOOP = 3000
REFERENCE_MS = 0.25  # reference_seconds() at the speed timed figures are scaled to
COMPANION_OPS = 4
TAIL_MIN_BEYOND = 10
# Traced stage times must account for this share of the op time; cli_scenarios
# adds up times measured in other processes, so its band is wider.
COVERAGE = {"cli_scenarios": (0.75, 1.25)}
COVERAGE_DEFAULT = (0.9, 1.05)

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("integrals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, tracer key, reduction over ops, scale)
PER_LAYER = (
    ("profiles.oscillatory_integral_us", "us", "profiles.oscillatory_integral", "median", 1e6),
    ("profiles.terms_per_integral", "count", "profiles.terms_per_integral", "median", 1.0),
    ("profiles.ns_per_term", "ns", "profiles.seconds_per_term", "median", 1e9),
    ("profiles.validate_rigidity_us", "us", "profiles.validate_rigidity", "median", 1e6),
    ("bogoliubov.static_coefficients_ms", "ms", "bogoliubov.static_coefficients", "median", 1e3),
    ("bogoliubov.first_order_map_ms", "ms", "bogoliubov.first_order_map", "median", 1e3),
    ("bogoliubov.integrals_per_map", "count", "bogoliubov.integrals_per_map", "median", 1.0),
    ("bogoliubov.map_self_ms", "ms", "bogoliubov.map_self", "median", 1e3),
    ("bogoliubov.verify_identities_ms", "ms", "bogoliubov.verify_identities", "median", 1e3),
    ("bogoliubov.identity_residual_max", "1", "bogoliubov.identity_residual", "max", 1.0),
    ("resonance.catalog_1d_ms", "ms", "resonance.catalog_1d", "median", 1e3),
    ("resonance.entries", "count", "resonance.entries", "median", 1.0),
    ("gaussian.negativity_grid_ms", "ms", "gaussian.negativity_grid", "median", 1e3),
    ("gaussian.cell_us", "us", "gaussian.cell", "median", 1e6),
    ("gaussian.symplectic_from_map_us", "us", "gaussian.symplectic_from_map", "median", 1e6),
    ("gaussian.apply_symplectic_us", "us", "gaussian.apply_symplectic", "median", 1e6),
    ("gaussian.negativity_us", "us", "gaussian.negativity", "median", 1e6),
    ("gaussian.closed_form_max_dev", "1", "gaussian.closed_form_dev", "max", 1.0),
    ("cli.interpreter_ms", "ms", "cli.interpreter", "median", 1e3),
    ("cli.import_cavitymix_ms", "ms", "cli.import_cavitymix", "median", 1e3),
    ("cli.import_numpy_ms", "ms", "cli.import_numpy", "median", 1e3),
    ("cli.import_yaml_ms", "ms", "cli.import_yaml", "median", 1e3),
    ("scenarios.load_scenario_ms", "ms", "scenarios.load_scenario", "median", 1e3),
    ("scenarios.run_scenario_ms", "ms", "scenarios.run_scenario", "median", 1e3),
    ("scenarios.render_ms", "ms", "scenarios.render", "median", 1e3),
    ("scenarios.write_ms", "ms", "scenarios.write", "median", 1e3),
    ("scenarios.csv_byte_diffs", "count", "scenarios.csv_byte_diffs", "max", 1.0),
    ("experiment.plan_ms", "ms", "experiment.plan", "median", 1e3),
    ("warnings", "count", "warnings", "sum", 1.0),
    ("trace.op_p50_ms", "ms", "trace.op_scaled", "median", 1e3),
    ("trace.coverage", "1", "trace.coverage", "median", 1.0),
)

# A layer the workload's own ops never call is measured on a few traced ops
# of the workload built around that layer.
LAYER_OWNER = {
    "profiles": "evolve_sampled",
    "bogoliubov": "evolve_modes",
    "resonance": "evolve_modes",
    "gaussian": "sweep_negativity",
    "scenarios": "cli_scenarios",
    "experiment": "cli_scenarios",
}

IMPORT_SNIPPET = "import time; t = time.perf_counter(); import cavitymix; print(time.perf_counter() - t)"


class Tracer:
    """Timings and counts by key, kept in memory until the run ends."""

    def __init__(self):
        self.values = defaultdict(list)
        self.stage_total = 0.0  # seconds inside spans since the op started

    def add(self, key, value) -> None:
        self.values[key].append(value)

    def last(self, key):
        return self.values[key][-1]

    @contextlib.contextmanager
    def span(self, name):
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self.values[name].append(elapsed)
            self.stage_total += elapsed


_NO_SPAN = contextlib.nullcontext()


def no_span(name):
    return _NO_SPAN


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    reduce = {"median": statistics.median, "max": max, "sum": sum}
    return {
        name: reduce[how](tracer.values[key]) * scale
        for name, _, key, how, scale in PER_LAYER
        if tracer.values.get(key)
    }


def child_env() -> dict[str, str]:
    """Thread pins and an absolute src on PYTHONPATH, so children run from any cwd."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_import(env, cwd, importtime: bool) -> tuple[float, str]:
    """Seconds to import cavitymix in a fresh interpreter, and its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_SNIPPET],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout), proc.stderr


def interpreter_seconds(env, cwd) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, timeout=120, check=True)
    return perf_counter() - t0


def _feed(digest, value) -> None:
    if isinstance(value, (tuple, list)):
        digest.update(b"(")
        for item in value:
            _feed(digest, item)
        digest.update(b")")
    elif hasattr(value, "tobytes"):
        digest.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    else:
        digest.update(repr(value).encode())


def input_digest(workload, seed: int, count: int = 20) -> str:
    digest = hashlib.sha256()
    for index in range(count):
        _feed(digest, workload.make_input(seed, 0, index)["digest"])
    return digest.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """(p, p-th percentile) for the highest p with TAIL_MIN_BEYOND samples above it."""
    import numpy as np

    pct = max(50.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / len(values)))
    return pct, float(np.percentile(values, pct))


def reference_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python loop, about 0.25 ms each.

    On a 2-vCPU virtual machine on a shared host, speed drifted by up to
    1.7x within a minute, for all code alike, and this loop slowed by the
    same factor.  Each op is bracketed by two of these readings and its time is
    scaled by REFERENCE_MS over their mean: timed end-to-end figures are op
    times at one reference speed.  The raw figures are kept in `info`.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for k in range(REFERENCE_LOOP):
            acc += math.sin(k * 1e-3)
        best = min(best, perf_counter() - t0)
    return best


def op_and_check(workload, inp, tracer: Tracer, traced: bool):
    """One op bracketed by reference readings, then its check and, traced, its probes.

    Returns (seconds, reference-speed factor, failure messages).
    """
    tracer.stage_total = 0.0
    before = reference_seconds()
    t0 = perf_counter()
    try:
        out, failures = workload.run(inp, tracer.span if traced else no_span), []
    except Exception as exc:  # a raising op counts as failed; the run goes on
        out, failures = None, [f"op raised {exc!r}"]
    elapsed = perf_counter() - t0
    factor = 2e-3 * REFERENCE_MS / (before + reference_seconds())
    if failures:
        return elapsed, factor, failures
    try:
        failures = workload.check(inp, out, tracer)
    except Exception as exc:  # a check that cannot read the output is a failure
        return elapsed, factor, [f"check raised {exc!r}"]
    if traced:
        tracer.add("trace.op", elapsed)
        tracer.add("trace.op_scaled", elapsed * factor)
        if tracer.stage_total:
            tracer.add("trace.coverage", tracer.stage_total / elapsed)
        workload.probe(inp, out, tracer)
    return elapsed, factor, failures


def set_up(workload, seed: int, traced: bool, env, workdir, tracer, problems) -> list[tuple[float, float]]:
    """SETUP_ROUNDS x (import in a fresh interpreter, input generation, warm-up op)."""
    from workloads import importtime_seconds

    if traced:
        for _ in range(SETUP_ROUNDS):
            tracer.add("cli.interpreter", interpreter_seconds(env, workdir))
    rounds = []
    for r in range(SETUP_ROUNDS):
        before = reference_seconds()
        imported, stderr = child_import(env, workdir, importtime=traced)
        if traced:
            imports = importtime_seconds(stderr)
            for module in ("cavitymix", "numpy", "yaml"):
                tracer.add(f"cli.import_{module}", imports[module])
        t0 = perf_counter()
        inp = workload.make_input(seed, 1, r)
        out = workload.run(inp, no_span)
        elapsed = imported + perf_counter() - t0
        rounds.append((elapsed, 2e-3 * REFERENCE_MS / (before + reference_seconds())))
        problems += workload.check(inp, out, Tracer())
    return rounds


def measure(workload, all_workloads, seed: int, seconds: float, traced: bool, env, workdir):
    problems: list[str] = []
    tracer = Tracer()

    digest = input_digest(workload, seed)
    same = digest == input_digest(workload, seed)
    differs = digest != input_digest(workload, seed + 1)
    if not (same and differs):
        problems.append(f"input generation: same seed equal {same}, other seed differs {differs}")

    setup = set_up(workload, seed, traced, env, workdir, tracer, problems)

    raw, scaled = [], []
    integrals, busy = 0, 0.0
    failed = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        while True:
            inp = workload.make_input(seed, 0, len(raw))
            elapsed, factor, failures = op_and_check(workload, inp, tracer, traced)
            raw.append(elapsed)
            scaled.append(elapsed * factor)
            if failures:
                failed += 1
                problems += failures
            else:
                integrals += workload.integrals(inp)
                busy += elapsed * factor
            if perf_counter() - start >= seconds and len(raw) % workload.rotation == 0:
                break
        measured = perf_counter() - start
    tracer.add("warnings", len(caught))
    attempted = len(raw)

    pct, tail_s = tail(scaled)
    children = workload.name == "cli_scenarios"
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    info = {
        "tail_percentile": pct,
        "ops": attempted,
        "measured_s": measured,
        "fail_ratio": failed / attempted,
        "warnings": sum(tracer.values["warnings"]),
        "warning_samples": [f"{w.category.__name__}: {w.message}" for w in caught[:3]],
        "input_digest": digest,
        "reference_ms": REFERENCE_MS,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[1] * 1e3,
            "speed": statistics.median(f for _, f in setup),
        },
    }
    if traced:
        metrics = layer_metrics(tracer)
        missing = {LAYER_OWNER.get(n.split(".")[0]) for n, *_ in PER_LAYER if n not in metrics}
        for owner in sorted(missing - {None}):
            companion = Tracer()
            companion.values["cli.interpreter"] = tracer.values["cli.interpreter"]
            other = all_workloads[owner]
            for i in range(max(COMPANION_OPS, other.rotation)):
                problems += op_and_check(other, other.make_input(seed, 2, i), companion, True)[2]
            for name, value in layer_metrics(companion).items():
                if LAYER_OWNER.get(name.split(".")[0]) == owner:
                    metrics.setdefault(name, value)
        low, high = COVERAGE.get(workload.name, COVERAGE_DEFAULT)
        info["coverage_band"] = [low, high]
        info["coverage_ok"] = low <= metrics["trace.coverage"] <= high
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(t * f for t, f in setup),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "integrals_per_s": integrals / busy if busy else 0.0,
            "peak_rss_mb": rss.ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return problems, attempted, failed, info, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavitymix" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no cavitymix source tree (src/cavitymix, scenarios/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import yaml

    import workloads as wl

    # One CPU for the benchmark and, by inheritance, its children: the
    # reference readings then come from the CPU that runs the op.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cli = wl.CliScenarios(ROOT, workdir, env)
        cli.traced = bool(args.trace)
        all_workloads = {
            w.name: w for w in (wl.EvolveSampled(), wl.EvolveModes(), wl.SweepNegativity(), cli)
        }
        if args.workload not in all_workloads:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(all_workloads)}", file=sys.stderr)
            return 2
        workload = all_workloads[args.workload]
        problems, attempted, failed, info, metrics = measure(
            workload, all_workloads, args.seed, args.seconds, bool(args.trace), env, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    info.update(
        workload=workload.name,
        why=workload.why,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        pyyaml=yaml.__version__,
        nproc=os.cpu_count(),
        cpu=cpu,
        threads=THREADS,
        problems=problems[:5],
    )
    print(json.dumps({"info": info}))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':36s} {info['fail_ratio']:14.6g} 1")
    for problem in problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
