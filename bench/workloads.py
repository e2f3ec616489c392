"""The four workloads: seeded inputs, the timed op, its checks and probes.

Every workload exposes the same methods, called by run.py:

    make_input(seed, stream, index) -> dict   a pure function of its arguments
    run(inp, span)                            the timed op
    check(inp, out, tracer)                   failure messages, [] when correct
    integrals(inp)                            Fourier integrals I(delta) the op needs
    probe(inp, out, tracer)                   traced runs only, after the op

`span(name)` wraps each public cavitymix call of an op: a no-op in untraced
runs, a timer in traced ones.  Probes repeat calls outside the op (the
Fourier kernel over the op's own deltas, the rigidity check) so per-layer
figures are measured where the work happens.  Inputs stay in the first-order
regime (sup|h| <= 1e-3) and sweeps stay clear of the creation resonances, so
no op should warn or fail.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

import cavitymix as cm
import oracle

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SUP_H = 1e-3
# Agreement with the oracles: relative to each value, plus a floor for
# rounding (relative to |delta * coefficient| * integral of |h| for map
# entries, to the largest cell for the grid), far above either side's
# rounding error and far below any error in the formulas.
RTOL = 1e-9
ENTRY_FLOOR = 1e-12
GRID_FLOOR = 1e-13
PIPELINE_ATOL = 5e-6  # full Gaussian pipeline vs closed form, as in tests/test_gaussian.py
CSV_RTOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for op `index` of `stream` (0 measured, 1 set-up, 2 companion)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def stratum(seed: int, stream: int, index: int) -> float:
    """Low-discrepancy fraction in [0, 1) that sets the size of op `index`.

    Consecutive ops step by the golden ratio from a seeded start, so any run
    of ops covers the size range evenly and the size mix of a run hardly
    depends on the seed or on how many ops fit in the run.
    """
    start = np.random.default_rng(np.random.SeedSequence([seed, stream])).random()
    return (start + index * GOLDEN) % 1.0


def timed(tracer, key, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    tracer.add(key, perf_counter() - t0)
    return out


def _kernel_probe(tracer, profile, deltas, map_seconds: float) -> None:
    """Direct oscillatory_integral calls over one map's `deltas`, and what they imply."""
    kernel = cm.oscillatory_integral
    terms = 0
    t0 = perf_counter()
    for d in deltas:
        terms += kernel(profile, d).evaluations
    per_call = (perf_counter() - t0) / len(deltas)
    tracer.add("profiles.oscillatory_integral", per_call)
    tracer.add("profiles.terms_per_integral", terms / len(deltas))
    tracer.add("profiles.seconds_per_term", per_call * len(deltas) / terms)
    timed(tracer, "profiles.validate_rigidity", cm.validate_rigidity, profile)
    tracer.add("bogoliubov.integrals_per_map", len(deltas))
    tracer.add("bogoliubov.map_self", map_seconds - len(deltas) * per_call)


def _map_deltas(cavity) -> list[float]:
    """The deltas first_order_map integrates: w_m - w_n and w_m + w_n, m + n odd."""
    w = oracle.omega(cavity.length, cavity.mu0, cavity.n_max)
    m, n = np.nonzero(np.add.outer(np.arange(w.size), np.arange(w.size)) % 2 == 1)
    return np.concatenate([w[m] - w[n], w[m] + w[n]]).tolist()


def _identity_failures(report, tracer) -> list[str]:
    tracer.add(
        "bogoliubov.identity_residual",
        max(report.anti_hermiticity_residual, report.symmetry_residual),
    )
    return [] if report.passed else [f"identities failed: {report}"]


def _entry_failures(inp, map_) -> list[str]:
    """Compare A[m, n] and B[m, n] of the checked entry with the oracle."""
    cav = inp["cavity"]
    h, breaks, band = inp["oracle"]
    scale = oracle.l1_mass(h, breaks)
    m, n = inp["entry"]
    delta, alpha, sigma, beta = oracle.static_entries(cav.length, cav.mu0, cav.n_max, m, n)
    failures = []
    for label, got, freq, coef in (
        ("A", map_.a_entry(m, n), delta, alpha),
        ("B", map_.b_entry(m, n), sigma, beta),
    ):
        want = 1j * freq * coef * oracle.fourier_integral(h, breaks, freq, band)
        tol = RTOL * abs(want) + ENTRY_FLOOR * abs(freq * coef) * scale
        if not abs(got - want) <= tol:
            failures.append(f"{label}[{m},{n}] = {got} vs oracle {want} (tol {tol:.2e})")
    return failures


def _odd_entry(rng, n_max: int) -> tuple[int, int]:
    """A random (m, n) with m + n odd, the entries that need quadrature."""
    m = int(rng.integers(1, n_max + 1))
    n = int(rng.choice(np.arange(1 + m % 2, n_max + 1, 2)))
    return m, n


class _FirstOrderMapWorkload:
    """What the two first_order_map workloads share: integral count and probes."""

    rotation = 1

    def integrals(self, inp) -> int:
        return 2 * oracle.odd_pairs(inp["cavity"].n_max)

    def probe(self, inp, out, tracer):
        _kernel_probe(
            tracer,
            inp["profile"],
            _map_deltas(inp["cavity"]),
            tracer.last("bogoliubov.first_order_map"),
        )


class EvolveSampled(_FirstOrderMapWorkload):
    name = "evolve_sampled"
    why = (
        "first_order_map on 150-400 sample traces, n_max 12: the per-sample "
        "profiles kernel does most of the work"
    )

    def make_input(self, seed, stream, index):
        rng = rng_for(seed, stream, index)
        n = 150 + int(251 * stratum(seed, stream, index))
        length = rng.uniform(0.8, 1.2)
        tau = np.linspace(0.0, 50.0, n)
        omega_c = math.pi / length  # (m, m+1) mixing resonance of the massless cavity
        h = 1e-3 * np.cos(omega_c * tau + rng.uniform(0.0, 2.0 * math.pi))
        h += 1e-4 * rng.standard_normal(n)
        h *= min(1.0, SUP_H / float(np.max(np.abs(h))))
        return {
            "cavity": cm.Cavity1D(length=length, mu0=0.0, n_max=12),
            "profile": cm.SampledProfile(tau=tau, h=h),
            "entry": _odd_entry(rng, 12),
            "oracle": (lambda t: np.interp(t, tau, h), tau, 0.0),
            "digest": (length, tau, h),
        }

    def run(self, inp, span):
        with span("bogoliubov.static_coefficients"):
            coeffs = cm.static_coefficients(inp["cavity"])
        with span("bogoliubov.first_order_map"):
            map_ = cm.first_order_map(coeffs, inp["profile"])
        with span("bogoliubov.verify_identities"):
            report = cm.verify_first_order_identities(map_)
        return map_, report

    def check(self, inp, out, tracer):
        map_, report = out
        return _identity_failures(report, tracer) + _entry_failures(inp, map_)


class EvolveModes(_FirstOrderMapWorkload):
    name = "evolve_modes"
    why = (
        "analytic profiles with n_max 32-64 plus catalog_1d: many entries with "
        "few terms each; the control for a change aimed at sampled profiles"
    )
    rotation = 4
    VARIANTS = ("sinusoidal", "ramp", "windowed_sinusoid", "piecewise_constant")

    def make_input(self, seed, stream, index):
        rng = rng_for(seed, stream, index)
        n_max = 32 + int(33 * stratum(seed, stream, index))
        mu0 = rng.uniform(0.0, 2.0)
        w = oracle.omega(1.0, mu0, n_max)
        duration = rng.uniform(20.0, 50.0)
        h0 = rng.uniform(0.5, 1.0) * SUP_H
        k = int(rng.integers(1, 8))
        omega_c = w[k] - w[k - 1]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        variant = self.VARIANTS[index % len(self.VARIANTS)]
        if variant == "sinusoidal":
            profile = cm.SinusoidalProfile(h0, omega_c, 0.0, duration, phase)
            ref = (lambda t: h0 * np.cos(omega_c * t + phase), [0.0, duration], omega_c)
            params = (h0, omega_c, duration, phase)
        elif variant == "ramp":
            ramp = rng.uniform(0.1, 0.25) * duration
            profile = cm.RampProfile(h0, ramp, 0.0, duration)
            ref = (
                lambda t: h0 * np.minimum(1.0, np.minimum(t, duration - t) / ramp),
                [0.0, ramp, duration - ramp, duration],
                0.0,
            )
            params = (h0, ramp, duration)
        elif variant == "windowed_sinusoid":
            win = rng.uniform(0.05, 0.2) * duration
            profile = cm.WindowedSinusoidProfile(h0, omega_c, win, 0.0, duration, phase)

            def h(t):
                edge = np.minimum(np.minimum(t, duration - t), win)
                return h0 * 0.5 * (1.0 - np.cos(math.pi * edge / win)) * np.cos(omega_c * t + phase)

            ref = (h, [0.0, win, duration - win, duration], omega_c + math.pi / win)
            params = (h0, omega_c, win, duration, phase)
        else:
            widths = rng.dirichlet(np.ones(20)) * duration
            values = rng.uniform(-SUP_H, SUP_H, size=20)
            profile = cm.PiecewiseConstantProfile(tuple(zip(widths.tolist(), values.tolist())))
            edges = np.concatenate([[0.0], np.cumsum(widths)])
            ref = (lambda t: values[np.searchsorted(edges, t) - 1], edges, 0.0)
            params = (widths, values)
        max_omega = rng.uniform(0.5, 1.5) * w[-1]
        return {
            "cavity": cm.Cavity1D(length=1.0, mu0=mu0, n_max=n_max),
            "profile": profile,
            "max_omega": max_omega,
            "entry": _odd_entry(rng, n_max),
            "oracle": ref,
            "digest": (variant, n_max, mu0, max_omega, params),
        }

    def run(self, inp, span):
        with span("bogoliubov.static_coefficients"):
            coeffs = cm.static_coefficients(inp["cavity"])
        with span("bogoliubov.first_order_map"):
            map_ = cm.first_order_map(coeffs, inp["profile"])
        with span("resonance.catalog_1d"):
            catalog = cm.catalog_1d(coeffs, inp["max_omega"])
        return map_, catalog

    def check(self, inp, out, tracer):
        map_, catalog = out
        report = timed(tracer, "bogoliubov.verify_identities", cm.verify_first_order_identities, map_)
        failures = _identity_failures(report, tracer) + _entry_failures(inp, map_)
        cav = inp["cavity"]
        w = oracle.omega(cav.length, cav.mu0, cav.n_max)
        m, n = np.triu_indices(cav.n_max, k=1)
        odd = (m + n) % 2 == 1
        limit = inp["max_omega"]
        want = int(np.sum((w[n] - w[m])[odd] <= limit) + np.sum((w[n] + w[m])[odd] <= limit))
        omegas = [e.omega_r for e in catalog]
        tracer.add("resonance.entries", len(catalog))
        if len(catalog) != want:
            failures.append(f"catalog has {len(catalog)} entries, expected {want}")
        if omegas != sorted(omegas) or (omegas and omegas[-1] > limit):
            failures.append("catalog not ascending within max_omega")
        return failures


class SweepNegativity:
    name = "sweep_negativity"
    why = (
        "60x60 negativity_grid near the (1,2) mixing resonance plus 4 full Gaussian "
        "pipeline cells: many single-piece integrals and 4x4 eigenproblems"
    )
    rotation = 1
    PAIR = (1, 2)
    CELLS = 4
    # The closed form holds where |B| << |A| and |A| is small: on the resonance
    # |A| grows like h0 * dtau while |B| stays bounded, so durations of 8 to 32
    # keep |B|/|A| under 0.01, and h0 = 5e-5 keeps |A| under 1e-3 there, where
    # the O(|A|^2) gap between the full pipeline and the closed form is < 5e-6.
    H0 = 5e-5

    def __init__(self):
        self.cavity = cm.Cavity1D(length=1.0, mu0=0.0, n_max=4)
        self.delta, self.alpha = oracle.static_entries(1.0, 0.0, 4, *self.PAIR)[:2]

    def make_input(self, seed, stream, index):
        rng = rng_for(seed, stream, index)
        # omega_c spans about [0.55, 1.45] pi around the mixing resonance at pi,
        # clear of this cavity's creation resonances w_m + w_n >= 3 pi.
        omegas = np.linspace(rng.uniform(0.55, 0.75), rng.uniform(1.25, 1.45), 60) * math.pi
        dtaus = np.linspace(rng.uniform(8.0, 10.0), rng.uniform(28.0, 32.0), 60)
        squeezing = rng.uniform(0.5, 1.0)
        cells = np.sort(rng.choice(dtaus, size=self.CELLS, replace=False))
        return {
            "omegas": omegas,
            "dtaus": dtaus,
            "squeezing": squeezing,
            "cells": cells,
            "digest": (omegas, dtaus, squeezing, cells),
        }

    def integrals(self, inp) -> int:
        per_map = 2 * oracle.odd_pairs(self.cavity.n_max)
        return inp["omegas"].size * inp["dtaus"].size + len(inp["cells"]) * per_map

    def run(self, inp, span):
        s = inp["squeezing"]
        with span("bogoliubov.static_coefficients"):
            coeffs = cm.static_coefficients(self.cavity)
        with span("gaussian.negativity_grid"):
            grid = cm.negativity_grid(coeffs, self.PAIR, s, self.H0, inp["omegas"], inp["dtaus"])
        state = cm.reduce_to_pair(cm.squeezed_vacuum(2, s), self.PAIR).state()
        cells = []
        for dtau in inp["cells"]:
            # The drive sits on the mixing resonance: there |B| << |A| and the
            # closed form is valid, so it can be compared with the pipeline.
            drive = cm.SinusoidalProfile(self.H0, abs(self.delta), 0.0, float(dtau))
            with span("bogoliubov.first_order_map"):
                map_ = cm.first_order_map(coeffs, drive)
            with span("gaussian.symplectic_from_map"):
                gate = cm.symplectic_from_map(map_, self.PAIR)
            with span("gaussian.apply_symplectic"):
                evolved = cm.apply_symplectic(state, gate)
            with span("gaussian.negativity"):
                value = cm.negativity(evolved.sigma)
            cells.append((map_, value))
        return grid, cells

    def check(self, inp, out, tracer):
        grid, cells = out
        s = inp["squeezing"]
        kernel = oracle.sinusoid_integral(
            self.H0, inp["omegas"][None, :], inp["dtaus"][:, None], self.delta
        )
        want = np.abs((1j * self.delta * self.alpha * kernel).imag) * math.sinh(s)
        if grid.shape != want.shape:
            return [f"negativity_grid has shape {grid.shape}, expected {want.shape}"]
        failures = []
        tol = RTOL * want + GRID_FLOOR * float(np.max(want))
        bad = int(np.sum(~(np.abs(grid - want) <= tol)))
        if bad:
            failures.append(f"negativity_grid: {bad} cells differ from the closed form")
        for map_, value in cells:
            closed = cm.first_order_negativity(map_, self.PAIR, s)
            tracer.add("gaussian.closed_form_dev", abs(value - closed))
            if not abs(value - closed) <= PIPELINE_ATOL:
                failures.append(f"pipeline negativity {value} vs closed form {closed}")
        return failures

    def probe(self, inp, out, tracer):
        tracer.add("gaussian.cell", tracer.last("gaussian.negativity_grid") / out[0].size)
        drive = cm.SinusoidalProfile(self.H0, abs(self.delta), 0.0, float(inp["cells"][-1]))
        _kernel_probe(
            tracer, drive, _map_deltas(self.cavity), tracer.last("bogoliubov.first_order_map")
        )


def importtime_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import seconds by module name from `python -X importtime`."""
    out = {}
    for match in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", stderr, re.M):
        out[match.group(2)] = int(match.group(1)) * 1e-6
    return out


def _scenario_integrals(path: Path) -> int:
    """Fourier integrals a shipped scenario needs, read from its inputs."""
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    if data["kind"] == "evolve":
        return 2 * oracle.odd_pairs(int(data["cavity"]["n_max"]))
    if data["kind"] == "negativity_sweep":
        axes = [data["sweep"][k] for k in ("omega_c", "delta_tau")]
        return math.prod(a["count"] if isinstance(a, dict) else len(a) for a in axes)
    return 0


def _csv_failures(got: str, ref: str, tracer) -> list[str]:
    """Exact header and row count, numbers within CSV_RTOL, byte diffs counted."""
    got_lines = [line for line in got.splitlines() if not line.startswith("# generated")]
    ref_lines = [line for line in ref.splitlines() if not line.startswith("# generated")]
    a, b = "\n".join(got_lines).encode(), "\n".join(ref_lines).encode()
    tracer.add("scenarios.csv_byte_diffs", sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))
    if len(got_lines) != len(ref_lines) or got_lines[2] != ref_lines[2]:
        return [f"CSV shape or header differs: {got_lines[2:3]} vs {ref_lines[2:3]}"]
    failures = []
    for row, (g, r) in enumerate(zip(got_lines[3:], ref_lines[3:])):
        for x, y in zip(g.split(","), r.split(",")):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                ok = x == y
            else:
                ok = (math.isnan(fx) and math.isnan(fy)) or abs(fx - fy) <= CSV_RTOL * max(
                    abs(fx), abs(fy)
                )
            if not ok:
                failures.append(f"row {row}: {g} vs reference {r}")
                break
    return failures


class CliScenarios:
    name = "cli_scenarios"
    why = (
        "one `python -m cavitymix run` per op over the five shipped scenarios: what a "
        "user waits for; import-bound, the control for every compute change"
    )
    rotation = 5

    def __init__(self, root: Path, workdir: Path, env: dict[str, str]):
        self.scenarios = sorted((root / "scenarios").glob("*.yaml"))
        self.counts = {p.stem: _scenario_integrals(p) for p in self.scenarios}
        self.workdir = workdir
        self.env = env
        self.traced = False

    def make_input(self, seed, stream, index):
        order = rng_for(seed, stream, index // self.rotation).permutation(len(self.scenarios))
        path = self.scenarios[order[index % self.rotation]]
        return {"path": path, "digest": path.name}

    def integrals(self, inp) -> int:
        return self.counts[inp["path"].stem]

    def run(self, inp, span):
        flags = ["-X", "importtime"] if self.traced else []
        return subprocess.run(
            [sys.executable, *flags, "-m", "cavitymix", "run", str(inp["path"])],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, inp, out, tracer):
        warned = re.findall(r"\w*Warning:", out.stderr)
        tracer.add("warnings", len(warned))
        if out.returncode != 0:
            return [f"{inp['path'].name}: exit {out.returncode}: {out.stderr[-400:]}"]
        csv = self.workdir / f"{inp['path'].stem}.csv"
        got = csv.read_text(encoding="utf-8")
        csv.unlink()
        ref = (REFERENCE_DIR / csv.name).read_text(encoding="utf-8")
        return [f"{csv.name}: {msg}" for msg in _csv_failures(got, ref, tracer)]

    def probe(self, inp, out, tracer):
        """Import times from the child, then the scenario stages replayed in-process."""
        imports = importtime_seconds(out.stderr)
        for module in ("cavitymix", "numpy", "yaml"):
            tracer.add(f"cli.import_{module}", imports[module])
        scenario = timed(tracer, "scenarios.load_scenario", cm.load_scenario, inp["path"])
        table = timed(tracer, "scenarios.run_scenario", cm.run_scenario, scenario)
        timed(tracer, "scenarios.render", table.render)
        timed(tracer, "scenarios.write", table.write, self.workdir / "replay.csv")
        if scenario.kind == "experiment_plan":
            timed(tracer, "experiment.plan", cm.plan, scenario.experiment)
        stages = ["cli.import_cavitymix", "scenarios.load_scenario", "scenarios.run_scenario"]
        stages += ["scenarios.render", "scenarios.write"]
        covered = float(np.median(tracer.values["cli.interpreter"]))
        covered += sum(tracer.last(key) for key in stages)
        tracer.add("trace.coverage", covered / tracer.last("trace.op"))
