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

Each block has a field table: one `Field` per key with its type, whether
it is required or its default, and its bounds.  One checker walks the
tables and reports every bad field as `<block>.<field>: <message>`: a
wrong type (a boolean is not a number), a non-finite number, a value out
of bounds, a missing or an unknown field.  Ranges (omega_c, delta_tau) are
explicit lists or {start, stop, count} grids.  Physics preconditions
(rigidity, paraxial validity, the pair inside the truncation) are checked
too, so a failing scenario never starts a computation.  Each kind loads
into its own immutable value type, holding only the fields the kind uses.
Only `spectrum` is imported with this module: a block's class is imported
when it first builds, and a kind's compute module when the kind runs.

A result table holds one column per header name, a list or an array as
the kind computes it.  It is written as CSV with a header row and three
leading `#` metadata lines (tool version, scenario content digest,
timestamp).  Each column gets one printf format from its dtype: strings
as they are, integers and booleans as `%d`, and every other number with
17 significant digits, so reruns of the same scenario are byte-identical
apart from the timestamp line.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, ClassVar

import numpy as np
import yaml

from . import _Value, __version__
from .spectrum import RIGIDITY_BOUND, Cavity1D

if TYPE_CHECKING:
    from .experiment import ExperimentPlan
    from .profiles import AccelerationProfile

DEFAULT_TOL = 1e-10

# Upper bounds that keep a run finite and its size modest: a map has
# n_max^2 entries, a sweep count^2 cells, and sinh(squeezing) overflows
# past about 710.
_N_MAX_LIMIT = 1000
_COUNT_LIMIT = 1000
_SQUEEZING_LIMIT = 100.0
# Plan lengths (SI metres) lie between the Planck length and the size of the
# observable universe, which keeps every figure of the plan a finite float.
_SI_MAX = 1e27
_SI_LENGTH = ((">=", 1e-35), ("<=", _SI_MAX))


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads the YAML 1.2 e-notation floats 1e-3 and 1.0e3.

    PyYAML resolves floats by YAML 1.1, which needs a dot and a signed
    exponent, so it would load both as strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


class ScenarioError(Exception):
    """Scenario parse or validation failure; one line per diagnostic."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


class ResultTable(_Value, eq=False):
    """One column per header name, in header order, plus the CSV metadata."""

    columns: dict[str, list | np.ndarray]
    scenario_digest: str
    generated: str = ""

    def __post_init__(self):
        lengths = {name: len(values) for name, values in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal length: {lengths}")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def render(self) -> str:
        stamp = self.generated or time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        arrays = [np.asarray(values) for values in self.columns.values()]
        row_format = ",".join(_FORMATS.get(array.dtype.kind, "%.17g") for array in arrays)
        lines = [
            f"# cavitymix {__version__}",
            f"# scenario sha256: {self.scenario_digest}",
            f"# generated: {stamp}",
            ",".join(self.columns),
        ]
        lines += [row_format % row for row in zip(*(array.tolist() for array in arrays))]
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


# printf format by numpy dtype kind; any other kind is a float
_FORMATS = {"U": "%s", "i": "%d", "b": "%d"}


_REQUIRED = object()
_SIGNS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
_POSITIVE = ((">", 0.0),)
_NONNEGATIVE = ((">=", 0.0),)


class Field(_Value):
    """One row of a field table.

    `type` converts the YAML value (raising ValueError) or is a nested
    `Block`.  `default` is `_REQUIRED`, the value an absent field takes, or
    None to leave an absent field to the default of the constructor it
    feeds.  Every number the value holds must meet each (sign, limit) of
    `bounds`; `choices` lists the strings it may take.  The checked value is
    stored under `dest`, by default the field's name.
    """

    name: str
    type: Any
    default: Any = _REQUIRED
    bounds: tuple[tuple[str, float], ...] = ()
    choices: tuple[str, ...] = ()
    dest: str = ""


class Block(_Value):
    """A mapping checked against `fields`, then passed to `build` as keywords.

    Without `build` a block yields the dict of its fields that passed.  With
    `tag`, the value of that key picks the block from `variants`.  `check`
    vets what was built, raising ValueError.  `other` converts a value that
    is not a mapping (a range given as a list).
    """

    fields: tuple[Field, ...] = ()
    build: Callable | None = None
    other: Callable | None = None
    tag: str = ""
    variants: dict[str, Block] | None = None
    check: Callable | None = None


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r:.40}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        return math.inf


def _integer(value) -> int:
    if not _is_integer(value):
        raise ValueError(f"must be an integer, got {value!r:.40}")
    return value


def _pair(value) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_integer, value))):
        raise ValueError(f"must be a pair of integers [m, n], got {value!r:.40}")
    return tuple(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r:.40}")
    return value


def _numbers(value) -> np.ndarray:
    if not (isinstance(value, list) and value):
        raise ValueError(f"must be a non-empty list of numbers, got {value!r:.40}")
    try:
        return np.array([_number(item) for item in value])
    except ValueError as exc:
        raise ValueError(f"each entry {exc}") from None


def _segments(value) -> tuple[tuple[float, float], ...]:
    if not (isinstance(value, list) and value and all(
        isinstance(item, list) and len(item) == 2 for item in value
    )):
        raise ValueError(f"must be a non-empty list of [duration, h] pairs, got {value!r:.40}")
    return tuple(tuple(_numbers(item)) for item in value)


def _one_of(choices, value) -> str:
    return f"must be one of {', '.join(sorted(choices))}; got {value!r:.40}"


def _numbers_in(value) -> list:
    """The numbers a checked value holds: itself, or the entries of a tuple or array."""
    if isinstance(value, (tuple, np.ndarray)):
        return [number for item in value for number in _numbers_in(item)]
    return [value] if isinstance(value, (int, float)) else []


def _check_value(value, field: Field) -> None:
    for number in _numbers_in(value):
        if isinstance(number, float) and not math.isfinite(number):
            raise ValueError(f"must be finite, got {number}")
        for sign, limit in field.bounds:
            if not _SIGNS[sign](number, limit):
                raise ValueError(f"must be {sign} {limit:g}, got {number}")
    if field.choices and value not in field.choices:
        raise ValueError(_one_of(field.choices, value))


def _check(data: dict, table: tuple[Field, ...], path: str, diags: list[str]) -> dict:
    """The checked values of the fields of `data` that pass `table`.

    Each field that fails, and each key the table does not list, adds one
    `<path><field>: <message>` line to `diags`; `path` is empty at the top
    level and ends in a dot below it.
    """
    names = [field.name for field in table]
    for key in data:
        if key not in names:
            what = "field" if path else "top-level block"
            diags.append(f"{path}{key}: unknown {what}; known: {', '.join(names)}")
    values = {}
    for field in table:
        where = path + field.name
        if field.name not in data:
            if field.default is _REQUIRED:
                diags.append(f"{where}: required field missing")
            elif field.default is not None:
                values[field.dest or field.name] = field.default
            continue
        try:
            value = _convert(data[field.name], field.type, where, diags)
            if value is not None:
                _check_value(value, field)
                values[field.dest or field.name] = value
        except (ValueError, OverflowError) as exc:  # a bad value, or a builder refusing it
            diags.append(f"{where}: {exc}")
    return values


def _convert(raw, kind, where: str, diags: list[str]):
    """`raw` through a converter, or checked and built as a nested block.

    A block with failing fields adds their diagnostics and yields None, or
    without a builder the fields that passed.
    """
    if not isinstance(kind, Block):
        return kind(raw)
    if not isinstance(raw, dict):
        if kind.other is None:
            raise ValueError(f"must be a mapping, got {raw!r:.40}")
        return kind.other(raw)
    check = kind.check
    if kind.tag:
        tag = raw.get(kind.tag)
        if not (isinstance(tag, str) and tag in kind.variants):
            diags.append(f"{where}.{kind.tag}: {_one_of(kind.variants, tag)}")
            return None
        raw = {key: value for key, value in raw.items() if key != kind.tag}
        kind = kind.variants[tag]
    first = len(diags)
    values = _check(raw, kind.fields, where + ".", diags)
    if kind.build is None:
        return values
    if len(diags) > first:
        return None
    built = kind.build(**values)
    return built if check is None else check(built)


def _deferred(name: str) -> Callable:
    """A builder of the package's class `name`, whose module loads on the first build."""

    def build(**fields):
        return getattr(sys.modules[__package__], name)(**fields)

    return build


def _rigid(profile: AccelerationProfile) -> AccelerationProfile:
    """`profile`, once it is shown to keep the rigidity bound."""
    from .profiles import _require_rigid, validate_rigidity

    _require_rigid(validate_rigidity(profile))
    return profile


_CAVITY = Block((
    Field("length", _number, bounds=_POSITIVE),
    Field("mu0", _number, None, _NONNEGATIVE),
    Field("n_max", _integer, None, ((">=", 2), ("<=", _N_MAX_LIMIT))),
), Cavity1D)

_H0 = Field("h0", _number)
_OMEGA_C = Field("omega_c", _number, bounds=_NONNEGATIVE)
_TAU0 = Field("tau0", _number, 0.0)
_TAUF = Field("tauf", _number)
_PHASE = Field("phase", _number, None)
_PROFILE = Block(tag="variant", variants={
    "sinusoidal": Block((_H0, _OMEGA_C, _TAU0, _TAUF, _PHASE), _deferred("SinusoidalProfile")),
    "piecewise_constant": Block(
        (Field("segments", _segments), _TAU0), _deferred("PiecewiseConstantProfile")
    ),
    "ramp": Block(
        (_H0, Field("ramp_time", _number, bounds=_POSITIVE), _TAU0, _TAUF), _deferred("RampProfile")
    ),
    "sampled": Block((Field("tau", _numbers), Field("h", _numbers)), _deferred("SampledProfile")),
    "windowed_sinusoid": Block(
        (_H0, _OMEGA_C, Field("window_time", _number, bounds=_POSITIVE), _TAU0, _TAUF, _PHASE),
        _deferred("WindowedSinusoidProfile"),
    ),
}, check=_rigid)

_STATE = Block((
    Field("pair", _pair, bounds=((">=", 1),)),
    Field("squeezing", _number, bounds=((">=", 0.0), ("<=", _SQUEEZING_LIMIT))),
))
_RANGE = Block(
    (Field("start", _number), Field("stop", _number),
     Field("count", _integer, bounds=((">=", 1), ("<=", _COUNT_LIMIT)))),
    lambda start, stop, count: np.linspace(start, stop, count),
    other=_numbers,
)
_SWEEP = Block((
    Field("h0", _number, bounds=_NONNEGATIVE),
    Field("omega_c", _RANGE, bounds=_NONNEGATIVE, dest="omega_c_values"),
    Field("delta_tau", _RANGE, bounds=_POSITIVE, dest="delta_tau_values"),
))

_AMPLITUDE = ((">=", 0.0), ("<=", _SI_MAX))
_MOTION = Block(tag="type", variants={
    "linear": Block((
        Field("amplitude", _number, bounds=_AMPLITUDE),
        Field("axis", _text, None, choices=("x", "y")),
    ), _deferred("LinearMotion")),
    "circular": Block(
        (Field("dx", _number, bounds=_AMPLITUDE), Field("dy", _number, bounds=_AMPLITUDE)),
        _deferred("CircularMotion"),
    ),
})
_EXPERIMENT = Block((
    *(Field(name, _number, bounds=_SI_LENGTH) for name in ("wavelength", "lx", "ly", "lz")),
    Field("motion", _MOTION),
    Field("pair", _pair, None),
    Field("transverse", _pair, None),
), _deferred("ExperimentPlan"))

_OUTPUT = Field("output", Block((
    Field("path", _text, None),
    Field("format", _text, None, choices=("csv",)),
)), None)


class _Scenario(_Value, eq=False):
    """What every kind carries.

    A kind's `blocks` is its top-level field table; the fields of a block
    without a builder become fields of the scenario itself.
    """

    source_digest: str
    output_path: str

    @staticmethod
    def _checks(fields: dict) -> list[str]:
        """Diagnostics of preconditions that span blocks, over the fields that passed."""
        return []


class EvolveScenario(_Scenario):
    """The first-order map of one profile: one row per ordered mode pair."""

    kind: ClassVar[str] = "evolve"
    blocks: ClassVar[tuple[Field, ...]] = (Field("cavity", _CAVITY), Field("profile", _PROFILE))

    cavity: Cavity1D
    profile: AccelerationProfile

    def _result(self, tol):
        from .bogoliubov import first_order_map, static_coefficients

        map_ = first_order_map(static_coefficients(self.cavity), self.profile, tol=tol)
        m, n = np.indices(map_.a_hat.shape).reshape(2, -1) + 1
        a, b = map_.a_hat.ravel(), map_.b_hat.ravel()
        return {"m": m, "n": n, "re_a_hat": a.real, "im_a_hat": a.imag,
                "re_b_hat": b.real, "im_b_hat": b.imag}


class CatalogScenario(_Scenario):
    """Every mixing and creation resonance up to `max_omega`."""

    kind: ClassVar[str] = "resonance_catalog"
    blocks: ClassVar[tuple[Field, ...]] = (
        Field("cavity", _CAVITY),
        Field("sweep", Block((Field("max_omega", _number, bounds=_POSITIVE),))),
    )

    cavity: Cavity1D
    max_omega: float

    def _result(self, tol):
        from .bogoliubov import static_coefficients
        from .resonance import catalog_1d

        catalog = catalog_1d(static_coefficients(self.cavity), self.max_omega)
        return dict(vars(catalog))  # the catalog's fields are the CSV columns, in order


class SweepScenario(_Scenario):
    """The negativity of a squeezed pair over a drive-frequency/duration grid."""

    kind: ClassVar[str] = "negativity_sweep"
    blocks: ClassVar[tuple[Field, ...]] = (
        Field("cavity", _CAVITY),
        Field("state", _STATE),
        Field("sweep", _SWEEP),
    )

    cavity: Cavity1D
    pair: tuple[int, int]
    squeezing: float
    h0: float
    omega_c_values: np.ndarray
    delta_tau_values: np.ndarray

    @staticmethod
    def _checks(fields):
        h0, pair, cavity = fields.get("h0"), fields.get("pair"), fields.get("cavity")
        diags = []
        if h0 is not None and h0 >= RIGIDITY_BOUND:
            diags.append(
                f"sweep.h0: rigidity bound |h| < {RIGIDITY_BOUND:g} violated by amplitude {h0}"
            )
        if pair is not None and pair[0] == pair[1]:
            diags.append(f"state.pair: must be two distinct modes, got {list(pair)}")
        elif pair is not None and cavity is not None and max(pair) > cavity.n_max:
            diags.append(
                f"state.pair: mode {max(pair)} outside truncation n_max = {cavity.n_max}"
            )
        return diags

    def _result(self, tol):
        from .bogoliubov import static_coefficients
        from .gaussian import negativity_grid

        coeffs = static_coefficients(self.cavity)
        grid = negativity_grid(
            coeffs, self.pair, self.squeezing, self.h0, self.omega_c_values, self.delta_tau_values,
            tol=tol,
        )
        # grid is indexed [delta_tau, omega_c]; the rows run omega_c outer
        omega_c, delta_tau = np.meshgrid(self.omega_c_values, self.delta_tau_values, indexing="ij")
        return {"omega_c": omega_c.ravel(), "delta_tau": delta_tau.ravel(),
                "negativity": grid.T.ravel()}


class PlanScenario(_Scenario):
    """The SI figures of a desktop experiment: a single row."""

    kind: ClassVar[str] = "experiment_plan"
    blocks: ClassVar[tuple[Field, ...]] = (Field("experiment", _EXPERIMENT),)

    experiment: ExperimentPlan

    def _result(self, tol):
        from .experiment import plan

        report = vars(plan(self.experiment))  # the report's fields are the CSV columns, in order
        return {name: [math.nan if value is None else value] for name, value in report.items()}


Scenario = EvolveScenario | CatalogScenario | SweepScenario | PlanScenario
_KINDS = {kind.kind: kind for kind in (EvolveScenario, CatalogScenario, SweepScenario, PlanScenario)}


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
        data = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError([f"{path}: YAML parse error{where}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: scenario must be a mapping, got {type(data).__name__}"])

    kind = data.pop("kind", None)
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ScenarioError([f"kind: {_one_of(_KINDS, kind)}"])
    scenario = _KINDS[kind]
    if n_max is not None:
        if not any(field.name == "cavity" for field in scenario.blocks):
            raise ScenarioError([f"--nmax: {kind} scenarios have no cavity to truncate"])
        if isinstance(data.get("cavity"), dict):
            data["cavity"]["n_max"] = n_max
    diags: list[str] = []
    values = _check(data, (*scenario.blocks, _OUTPUT), "", diags)
    output = values.pop("output", {})
    fields = {}
    for name, value in values.items():
        if isinstance(value, dict):  # a block without a builder
            fields.update(value)
        else:
            fields[name] = value
    diags += scenario._checks(fields)
    if diags:
        raise ScenarioError(diags)
    output_path = output.get("path", path.with_suffix(".csv").name)
    return scenario(source_digest=digest, output_path=output_path, **fields)


def run_scenario(scenario: Scenario, tol: float = DEFAULT_TOL) -> ResultTable:
    """Execute a validated scenario and return its result table."""
    return ResultTable(columns=scenario._result(tol), scenario_digest=scenario.source_digest)
