"""Declarative scenario files and tabular results.

A scenario is one YAML document with a `kind` and the blocks that kind
needs:

    kind: evolve | resonance_catalog | negativity_sweep | experiment_plan
    cavity:  {length, mu0, n_max}                   evolve, catalog, sweep
    profile: {variant, ...}                         evolve
    state:   {pair: [m, n], squeezing}              negativity_sweep
    sweep:   {h0, omega_c, delta_tau} or {max_omega}
    experiment: {wavelength, lx, ly, lz, motion, pair, transverse}
    output:  {path, format: csv}                    optional

Ranges (omega_c, delta_tau) are either explicit lists or
{start, stop, count} for a uniform grid.  Validation collects every
problem it can find and reports them with field paths; physics
preconditions (rigidity, paraxial validity, nonnegative squeezing) are
checked here so a failing scenario never starts a computation.

Results are written as CSV with a header row and three leading `#`
metadata lines (tool version, scenario content digest, timestamp).  All
numbers carry 17 significant digits, so reruns of the same scenario are
byte-identical apart from the timestamp line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bogoliubov import first_order_map, static_coefficients
from .experiment import CircularMotion, ExperimentPlan, LinearMotion, plan
from .gaussian import negativity_grid
from .profiles import (
    AccelerationProfile,
    PiecewiseConstantProfile,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    validate_rigidity,
)
from .resonance import catalog_1d
from .spectrum import Cavity1D

KINDS = ("evolve", "resonance_catalog", "negativity_sweep", "experiment_plan")
DEFAULT_TOL = 1e-10


class ScenarioError(Exception):
    """Scenario parse or validation failure; one line per diagnostic."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed, validated scenario ready to run."""

    kind: str
    source_path: str
    source_digest: str
    output_path: str
    cavity: Cavity1D | None = None
    profile: AccelerationProfile | None = None
    pair: tuple[int, int] | None = None
    squeezing: float | None = None
    sweep_h0: float | None = None
    omega_c_values: np.ndarray | None = None
    delta_tau_values: np.ndarray | None = None
    max_omega: float | None = None
    experiment: ExperimentPlan | None = None


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Rectangular results plus the metadata emitted as CSV comments."""

    columns: tuple[str, ...]
    rows: list[tuple]
    scenario_digest: str
    version: str = __version__
    generated: str = ""

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} in a {len(self.columns)}-column table"
                )

    def render(self) -> str:
        stamp = self.generated or datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines = [
            f"# cavitymix {self.version}",
            f"# scenario sha256: {self.scenario_digest}",
            f"# generated: {stamp}",
            ",".join(self.columns),
        ]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return format(float(cell), ".17g")


def load_scenario(path: str | Path, n_max: int | None = None) -> Scenario:
    """Parse and fully validate one scenario file.

    `n_max` overrides the cavity truncation from the command line.  Raises
    ScenarioError carrying every diagnostic found, each prefixed with the
    offending field path.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError([f"{path}: YAML parse error{where}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: scenario must be a mapping, got {type(data).__name__}"])

    diags: list[str] = []
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(
            [f"kind: must be one of {', '.join(KINDS)}; got {kind!r}"]
        )

    known = {"kind", "cavity", "profile", "state", "sweep", "experiment", "output"}
    for key in data:
        if key not in known:
            diags.append(f"{key}: unknown top-level block")

    cavity = None
    profile = None
    pair = None
    squeezing = None
    sweep_h0 = None
    omega_c_values = None
    delta_tau_values = None
    max_omega = None
    experiment = None

    if kind in ("evolve", "resonance_catalog", "negativity_sweep"):
        cavity = _parse_cavity(data.get("cavity"), n_max, diags)
    if kind == "evolve":
        profile = _parse_profile(data.get("profile"), diags)
        if profile is not None:
            report = validate_rigidity(profile)
            if not report.ok:
                diags.append(
                    f"profile: rigidity bound |h| < {report.bound:g} violated: "
                    f"sup|h| = {report.sup_h:g} at tau = {report.tau_at_sup:g}"
                )
    if kind == "negativity_sweep":
        pair, squeezing = _parse_state(data.get("state"), cavity, diags)
        sweep_h0, omega_c_values, delta_tau_values = _parse_sweep(data.get("sweep"), diags)
    if kind == "resonance_catalog":
        max_omega = _parse_max_omega(data.get("sweep"), diags)
    if kind == "experiment_plan":
        experiment = _parse_experiment(data.get("experiment"), diags)

    output_path = str(path.with_suffix(".csv").name)
    output = data.get("output")
    if output is not None:
        if not isinstance(output, dict):
            diags.append("output: must be a mapping")
        else:
            fmt = output.get("format", "csv")
            if fmt != "csv":
                diags.append(f"output.format: only 'csv' is supported, got {fmt!r}")
            if "path" in output:
                output_path = str(output["path"])

    if diags:
        raise ScenarioError(diags)
    return Scenario(
        kind=kind,
        source_path=str(path),
        source_digest=digest,
        output_path=output_path,
        cavity=cavity,
        profile=profile,
        pair=pair,
        squeezing=squeezing,
        sweep_h0=sweep_h0,
        omega_c_values=omega_c_values,
        delta_tau_values=delta_tau_values,
        max_omega=max_omega,
        experiment=experiment,
    )


def run_scenario(scenario: Scenario, tol: float = DEFAULT_TOL) -> ResultTable:
    """Execute a validated scenario and return its result table."""
    if scenario.kind == "evolve":
        return _run_evolve(scenario, tol)
    if scenario.kind == "resonance_catalog":
        return _run_catalog(scenario)
    if scenario.kind == "negativity_sweep":
        return _run_sweep(scenario)
    if scenario.kind == "experiment_plan":
        return _run_plan(scenario)
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


def _run_evolve(scenario: Scenario, tol: float) -> ResultTable:
    coeffs = static_coefficients(scenario.cavity)
    map_ = first_order_map(coeffs, scenario.profile, tol=tol)
    rows = []
    for m in range(1, scenario.cavity.n_max + 1):
        for n in range(1, scenario.cavity.n_max + 1):
            a = map_.a_entry(m, n)
            b = map_.b_entry(m, n)
            rows.append((m, n, a.real, a.imag, b.real, b.imag))
    return ResultTable(
        columns=("m", "n", "re_a_hat", "im_a_hat", "re_b_hat", "im_b_hat"),
        rows=rows,
        scenario_digest=scenario.source_digest,
    )


def _run_catalog(scenario: Scenario) -> ResultTable:
    coeffs = static_coefficients(scenario.cavity)
    entries = catalog_1d(coeffs, scenario.max_omega)
    rows = [
        (e.kind.value, e.pair[0], e.pair[1], e.omega_r, e.coefficient, e.growth_per_h0)
        for e in entries
    ]
    return ResultTable(
        columns=("kind", "m", "n", "omega_r", "coefficient", "growth_per_h0"),
        rows=rows,
        scenario_digest=scenario.source_digest,
    )


def _run_sweep(scenario: Scenario) -> ResultTable:
    coeffs = static_coefficients(scenario.cavity)
    grid = negativity_grid(
        coeffs,
        scenario.pair,
        scenario.squeezing,
        scenario.sweep_h0,
        scenario.omega_c_values,
        scenario.delta_tau_values,
    )
    rows = []
    for j, omega_c in enumerate(scenario.omega_c_values):
        for i, dtau in enumerate(scenario.delta_tau_values):
            rows.append((float(omega_c), float(dtau), grid[i, j]))
    return ResultTable(
        columns=("omega_c", "delta_tau", "negativity"),
        rows=rows,
        scenario_digest=scenario.source_digest,
    )


def _run_plan(scenario: Scenario) -> ResultTable:
    report = plan(scenario.experiment).as_dict()
    return ResultTable(
        columns=tuple(report),
        rows=[tuple(report.values())],
        scenario_digest=scenario.source_digest,
    )


def _require_number(
    block: dict, key: str, path: str, diags: list[str], minimum=None, integer=False
):
    value = block.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        diags.append(f"{path}.{key}: required number missing or non-numeric")
        return None
    if integer and not isinstance(value, int):
        diags.append(f"{path}.{key}: must be an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        diags.append(f"{path}.{key}: must be >= {minimum}, got {value}")
        return None
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        diags.append(f"{path}.{key}: {value} is out of floating-point range")
        return None


def _optional_number(block: dict, key: str, path: str, diags: list[str], default, **checks):
    """`_require_number` for a field that may be left out, taking `default`."""
    if key not in block:
        return default
    return _require_number(block, key, path, diags, **checks)


def _require_int_pair(value, path: str, diags: list[str]) -> tuple[int, int] | None:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(k, int) and not isinstance(k, bool) for k in value)
    ):
        diags.append(f"{path}: must be a pair of integers [m, n]")
        return None
    return (value[0], value[1])


def _parse_cavity(block, n_max_override: int | None, diags: list[str]) -> Cavity1D | None:
    if not isinstance(block, dict):
        diags.append("cavity: required block missing or not a mapping")
        return None
    length = _require_number(block, "length", "cavity", diags)
    mu0 = _optional_number(block, "mu0", "cavity", diags, 0.0)
    n_max = n_max_override
    if n_max is None:
        n_max = _optional_number(block, "n_max", "cavity", diags, 10, integer=True)
    if length is None or mu0 is None or n_max is None:
        return None
    try:
        return Cavity1D(length=length, mu0=mu0, n_max=n_max)
    except (ValueError, TypeError) as exc:
        diags.append(f"cavity: {exc}")
        return None


def _parse_profile(block, diags: list[str]) -> AccelerationProfile | None:
    if not isinstance(block, dict):
        diags.append("profile: required block missing or not a mapping")
        return None
    variant = block.get("variant")
    builders = {
        "sinusoidal": _build_sinusoidal,
        "piecewise_constant": _build_piecewise,
        "ramp": _build_ramp,
        "sampled": _build_sampled,
        "windowed_sinusoid": _build_windowed,
    }
    if not isinstance(variant, str) or variant not in builders:
        diags.append(
            f"profile.variant: must be one of {', '.join(sorted(builders))}; got {variant!r}"
        )
        return None
    try:
        return builders[variant](block)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        diags.append(f"profile: {exc}")
        return None


def _build_sinusoidal(block: dict) -> SinusoidalProfile:
    return SinusoidalProfile(
        h0=float(block["h0"]),
        omega_c=float(block["omega_c"]),
        tau0=float(block.get("tau0", 0.0)),
        tauf=float(block["tauf"]),
        phase=float(block.get("phase", 0.0)),
    )


def _build_piecewise(block: dict) -> PiecewiseConstantProfile:
    segments = tuple(
        (float(duration), float(value)) for duration, value in block["segments"]
    )
    return PiecewiseConstantProfile(segments=segments, tau0=float(block.get("tau0", 0.0)))


def _build_ramp(block: dict) -> RampProfile:
    return RampProfile(
        h0=float(block["h0"]),
        ramp_time=float(block["ramp_time"]),
        tau0=float(block.get("tau0", 0.0)),
        tauf=float(block["tauf"]),
    )


def _build_sampled(block: dict) -> SampledProfile:
    return SampledProfile(
        tau=np.asarray(block["tau"], dtype=float),
        h=np.asarray(block["h"], dtype=float),
    )


def _build_windowed(block: dict) -> WindowedSinusoidProfile:
    return WindowedSinusoidProfile(
        h0=float(block["h0"]),
        omega_c=float(block["omega_c"]),
        window_time=float(block["window_time"]),
        tau0=float(block.get("tau0", 0.0)),
        tauf=float(block["tauf"]),
        phase=float(block.get("phase", 0.0)),
    )


def _parse_state(block, cavity: Cavity1D | None, diags: list[str]):
    if not isinstance(block, dict):
        diags.append("state: required block missing or not a mapping")
        return None, None
    pair = _require_int_pair(block.get("pair"), "state.pair", diags)
    out_pair = None
    if pair is not None:
        m, n = pair
        if m < 1 or n < 1 or m == n:
            diags.append(f"state.pair: must be two distinct positive integers, got {pair}")
        elif cavity is not None and max(m, n) > cavity.n_max:
            diags.append(
                f"state.pair: mode {max(m, n)} outside truncation n_max = {cavity.n_max}"
            )
        else:
            out_pair = (m, n)
    squeezing = _require_number(block, "squeezing", "state", diags, minimum=0.0)
    return out_pair, squeezing


def _parse_range(value, path: str, diags: list[str]) -> np.ndarray | None:
    if isinstance(value, dict):
        missing = [k for k in ("start", "stop", "count") if k not in value]
        if missing:
            diags.append(f"{path}: range mapping needs start, stop, count; missing {missing}")
            return None
        count = value["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            diags.append(f"{path}.count: must be a positive integer, got {count!r}")
            return None
        start = _require_number(value, "start", path, diags)
        stop = _require_number(value, "stop", path, diags)
        if start is None or stop is None:
            return None
        return np.linspace(start, stop, count)
    if isinstance(value, (list, tuple)) and value:
        try:
            values = np.asarray(value, dtype=float)
        except (ValueError, TypeError, OverflowError):
            values = None
        if values is None or values.ndim != 1:
            diags.append(f"{path}: list entries must be numbers")
            return None
        return values
    diags.append(f"{path}: required range missing (list or start/stop/count mapping)")
    return None


def _parse_sweep(block, diags: list[str]):
    if not isinstance(block, dict):
        diags.append("sweep: required block missing or not a mapping")
        return None, None, None
    h0 = _require_number(block, "h0", "sweep", diags, minimum=0.0)
    if h0 is not None and h0 >= 2.0:
        diags.append(f"sweep.h0: rigidity bound |h| < 2 violated by amplitude {h0}")
    omega_c = _parse_range(block.get("omega_c"), "sweep.omega_c", diags)
    if omega_c is not None and np.any(omega_c < 0.0):
        diags.append("sweep.omega_c: drive frequencies must be nonnegative")
        omega_c = None
    delta_tau = _parse_range(block.get("delta_tau"), "sweep.delta_tau", diags)
    if delta_tau is not None and np.any(delta_tau <= 0.0):
        diags.append("sweep.delta_tau: durations must be positive")
        delta_tau = None
    return h0, omega_c, delta_tau


def _parse_max_omega(block, diags: list[str]) -> float | None:
    if not isinstance(block, dict):
        diags.append("sweep: required block missing or not a mapping (needs max_omega)")
        return None
    value = _require_number(block, "max_omega", "sweep", diags)
    if value is not None and not value > 0.0:
        diags.append(f"sweep.max_omega: must be a positive number, got {value!r}")
        return None
    return value


def _parse_experiment(block, diags: list[str]) -> ExperimentPlan | None:
    if not isinstance(block, dict):
        diags.append("experiment: required block missing or not a mapping")
        return None
    first = len(diags)
    motion_block = block.get("motion")
    motion = None
    if not isinstance(motion_block, dict):
        diags.append("experiment.motion: required block missing or not a mapping")
    else:
        kind = motion_block.get("type")
        try:
            if kind == "linear":
                motion = LinearMotion(
                    amplitude=float(motion_block["amplitude"]),
                    axis=str(motion_block.get("axis", "x")),
                )
            elif kind == "circular":
                motion = CircularMotion(
                    dx=float(motion_block["dx"]), dy=float(motion_block["dy"])
                )
            else:
                diags.append(
                    f"experiment.motion.type: must be 'linear' or 'circular', got {kind!r}"
                )
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            diags.append(f"experiment.motion: {exc}")
    values = {}
    for key in ("wavelength", "lx", "ly", "lz"):
        values[key] = _require_number(block, key, "experiment", diags, minimum=0.0)
    pair = _require_int_pair(block.get("pair", (1, 2)), "experiment.pair", diags)
    transverse = block.get("transverse")
    if transverse is not None:
        transverse = _require_int_pair(transverse, "experiment.transverse", diags)
    if len(diags) > first:
        return None
    try:
        return ExperimentPlan(
            wavelength=values["wavelength"],
            lx=values["lx"],
            ly=values["ly"],
            lz=values["lz"],
            motion=motion,
            pair=pair,
            transverse=transverse,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        diags.append(f"experiment: {exc}")
        return None
