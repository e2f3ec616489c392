"""Every real number a caller passes in goes through one rule.

A real number is an int or a float, numpy's included, and never a bool, a
string, bytes or a complex number.  `np.asarray(value, dtype=float)` casts a
complex value to its real part with only a ComplexWarning and reads text
and booleans as numbers, and a scalar field that is only compared or passed
to `math` takes a complex or a bool as well, so each would give a silently
wrong figure.  `spectrum._check_real` refuses such arrays, and
`spectrum._check_number` such scalars, with a ValueError that names the
field.  Each row below calls one site with input it must refuse.  Three
guards fail when a module under `src/cavitymix` converts with `dtype=float`
outside the rule, when an exported value type or function takes a float
with no row, and when a finiteness check is written outside the rule.
"""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cavitymix
from cavitymix.bogoliubov import first_order_map, static_coefficients
from cavitymix.experiment import CircularMotion, ExperimentPlan, LinearMotion
from cavitymix.gaussian import (
    CovarianceState,
    first_order_negativity,
    negativity_grid,
    squeezed_vacuum,
)
from cavitymix.profiles import (
    PiecewiseConstantProfile,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    oscillatory_integral,
)
from cavitymix.resonance import catalog_1d
from cavitymix.spectrum import Cavity1D, Cavity3D

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cavitymix"
# (module, function) where a float conversion may stand: the rule, and a
# mode-number grid that takes no caller input.
ALLOWED = {("spectrum", "_check_real"), ("spectrum", "omega_vector")}

_SINE = SinusoidalProfile(0.1, 1.0, 0.0, 2.0)
_COEFFS = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2))
# On the (1, 2) mixing resonance, where the closed-form negativity holds.
_MAP = first_order_map(_COEFFS, SinusoidalProfile(1e-4, math.pi, 0.0, 10.0))


def _grid(**bad):
    arguments = dict(s=1.0, h0=1e-5, omega_c_values=[1.0, math.pi], delta_tau_values=[5.0, 10.0])
    return negativity_grid(_COEFFS, (1, 2), **(arguments | bad))


# field: (call with the value, a real value it accepts)
SITES = {
    "evaluate.tau": (lambda tau: _SINE.evaluate(tau), 0.5),
    "SampledProfile.tau": (lambda tau: SampledProfile(tau, [0.0, 1e-3, 0.0]), [0.0, 1.0, 2.0]),
    "SampledProfile.h": (lambda h: SampledProfile([0.0, 1.0, 2.0], h), [0.0, 1e-3, 0.0]),
    "negativity_grid.omega_c_values": (lambda w: _grid(omega_c_values=w), [1.0, math.pi]),
    "negativity_grid.delta_tau_values": (lambda dt: _grid(delta_tau_values=dt), [5.0, 10.0]),
    "negativity_grid.h0": (lambda h0: _grid(h0=h0), 1e-5),
}
FORMS = ("numpy complex", "complex array", "python complex")


def _with_imaginary_part(good, form):
    """`good` with 1j added to its last value, that value held in `form`."""
    if form == "complex array":
        bad = np.array(good, dtype=complex, ndmin=1)
        bad[-1] += 1j
        return bad
    make = np.complex128 if form == "numpy complex" else complex
    if np.ndim(good) == 0:
        return make(good + 1j)
    return [*good[:-1], make(good[-1] + 1j)]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("site", SITES)
def test_complex_input_is_refused_with_the_field_name(site, form):
    call, good = SITES[site]
    call(good)
    field = site.rsplit(".", 1)[1]
    with pytest.raises(ValueError, match=rf"^{field} must be real"):
        call(_with_imaginary_part(good, form))


def test_input_that_is_not_numbers_names_the_field():
    # numpy's own TypeError or ValueError, named.
    with pytest.raises(ValueError, match="^tau must be real numbers: "):
        _SINE.evaluate("soon")
    with pytest.raises(ValueError, match="^h must be real numbers: "):
        SampledProfile([0.0, 1.0], [0.0, [1e-3, 2e-3]])


@pytest.mark.parametrize("site", SITES)
def test_text_bool_and_object_input_is_refused_with_the_field_name(site):
    call, good = SITES[site]
    field = site.rsplit(".", 1)[1]
    array = np.array(good)
    bad = [array.astype(kind) for kind in (str, bytes, bool)]
    # As arrays, and as Python values ("0.5", [b"0.0", b"1.0"], True), and numbers held as objects.
    for form in (*bad, *(value.tolist() for value in bad), array.astype(object)):
        with pytest.raises(ValueError, match=rf"^{field} must be real"):
            call(form)


# The label a refusal starts with, where it is not the field's own name.
_LABELS = {
    "Cavity1D.length": "cavity length",
    "Cavity1D.mu0": "field mass mu0",
    **{f"Cavity3D.{edge}": f"cavity edge {edge}" for edge in ("lx", "ly", "lz")},
    "Cavity3D.mu": "field mass mu",
    "omega_c": "drive frequency",
    "s": "squeezing parameter",
    "segments": "segment 0",
}


def _rows(owner, make, **good):
    """`owner.field`: (make with the value in `field` and `good` elsewhere, good value, label)."""
    rows = {}
    for field, value in good.items():
        site = f"{owner}.{field}"
        label = _LABELS.get(site, _LABELS.get(field, field))
        rows[site] = (lambda bad, field=field: make(**(good | {field: bad})), value, label)
    return rows


_DRIVE = dict(h0=1e-3, omega_c=1.0, tau0=0.0, tauf=2.0, phase=0.0)
_PLATEAU = PiecewiseConstantProfile(((2.0, 1e-3),))

# Every scalar field and parameter of the rule: (call with the value, a value it accepts, label).
SCALARS = {
    **_rows("Cavity1D", Cavity1D, length=1.0, mu0=0.0),
    **_rows("Cavity3D", Cavity3D, lx=1.0, ly=2.0, lz=3.0, mu=0.0),
    **_rows("SinusoidalProfile", SinusoidalProfile, **_DRIVE),
    **_rows("WindowedSinusoidProfile", WindowedSinusoidProfile, **_DRIVE, window_time=1.0),
    **_rows("RampProfile", RampProfile, h0=1e-3, ramp_time=1.0, tau0=0.0, tauf=2.0),
    # `segments` holds the value h of the one plateau.
    **_rows(
        "PiecewiseConstantProfile",
        lambda segments, tau0: PiecewiseConstantProfile(((1.0, segments),), tau0),
        segments=1e-3,
        tau0=0.0,
    ),
    **_rows("SinusoidalProfile.restrict", _SINE.restrict, a=0.0, b=2.0),
    **_rows("PiecewiseConstantProfile.restrict", _PLATEAU.restrict, a=0.0, b=2.0),
    **_rows("_Linear.restrict", RampProfile(1e-3, 0.5, 0.0, 2.0).restrict, a=0.0, b=2.0),
    **_rows("CovarianceState", lambda psd_tol: CovarianceState(np.eye(2), psd_tol), psd_tol=0.0),
    **_rows("squeezed_vacuum", lambda s: squeezed_vacuum(2, s), s=1.0),
    **_rows("first_order_negativity", lambda s: first_order_negativity(_MAP, (1, 2), s), s=1.0),
    **_rows("negativity_grid", _grid, s=1.0, h0=0.0),
    **_rows("catalog_1d", lambda max_omega: catalog_1d(_COEFFS, max_omega), max_omega=10.0),
    **_rows("oscillatory_integral", lambda delta: oscillatory_integral(_SINE, delta), delta=1.0),
    **_rows("LinearMotion", LinearMotion, amplitude=1e-6),
    **_rows("CircularMotion", CircularMotion, dx=1e-3, dy=1e-3),
    **_rows(
        "ExperimentPlan",
        lambda **edges: ExperimentPlan(motion=LinearMotion(1e-6), **edges),
        wavelength=6e-7,
        lx=0.01,
        ly=0.01,
        lz=0.01,
    ),
}


@pytest.mark.parametrize("site", SCALARS)
def test_scalar_that_is_not_real_is_refused_with_the_field_name(site):
    call, good, label = SCALARS[site]
    for bad in (np.complex128(good + 1j), complex(good + 1j), str(good), True, np.True_, [good]):
        with pytest.raises(ValueError, match=rf"^{re.escape(label)}"):
            call(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("site", SCALARS)
def test_int_beyond_float_range_is_refused_as_not_finite(site):
    # Python compares an int with infinity exactly, so 10**400 is below it;
    # no float holds it, and the first float arithmetic would overflow.  The
    # last one has more digits than `str` converts.
    call, _, label = SCALARS[site]
    for bad in (10**400, -(10**400), 10**5000):
        with pytest.raises(ValueError, match=rf"^{re.escape(label)}.* must be finite, got a number"):
            call(bad)


@pytest.mark.parametrize("site", SCALARS)
def test_real_scalars_are_accepted_and_stored_as_given(site):
    call, good, _ = SCALARS[site]
    field = site.rsplit(".", 1)[1]
    for value in (float(good), np.float64(good), *([int(good)] if good == int(good) else [])):
        stored = getattr(call(value), field, value)
        assert stored is value or field == "segments"  # plateaus are stored as float pairs


def test_oscillatory_integral_takes_one_delta():
    # A list is not one delta: read as an array, it would give I at its first value alone.
    for bad in ([1.0, 2.0], []):
        with pytest.raises(ValueError, match="^delta must be real"):
            oscillatory_integral(_SINE, bad)


# Float-taking names outside the rule, each with its reason.
EXEMPT_PARAMETERS = {
    # A NaN tolerance must stay the QuadratureError "exceeds requested tolerance nan".
    "tol",
}
EXEMPT_OWNERS = {
    # Formula helpers: `plan` feeds them inputs `ExperimentPlan` has checked.
    "displacement_h0", "paraxial_mixing_omega", "paraxial_mixing_growth",
    "paraxial_validity_ratio",
    # Reports the package builds itself from checked inputs.
    "RigidityReport", "IdentityReport", "PlanReport", "ResonanceEntry",
    "OscillatoryIntegralResult", "FirstOrderBogoliubovMap",
    # The interface's restrict is abstract; each variant's own has a row.
    "AccelerationProfile.restrict",
    # Refuses every restriction, whatever its bounds.
    "WindowedSinusoidProfile.restrict",
}
_FLOAT = re.compile(r"\bfloat\b")


def _float_taking_names():
    """(owner, name) of each exported float parameter or field; owner is a function,
    `Owner.method` or a value type."""

    def parameters(owner, function):
        for parameter in inspect.signature(function).parameters.values():
            if _FLOAT.search(str(parameter.annotation)):
                yield owner, parameter.name

    for name in cavitymix.__all__:
        value = getattr(cavitymix, name)
        if not inspect.isclass(value):
            if callable(value):
                yield from parameters(name, value)
            continue
        for owner in value.__mro__:
            if owner.__module__.startswith("cavitymix"):
                for attribute, member in vars(owner).items():
                    if inspect.isfunction(member) and not attribute.startswith("_"):
                        yield from parameters(f"{owner.__qualname__}.{attribute}", member)
        annotations = {}
        for owner in reversed(value.__mro__):
            annotations |= inspect.get_annotations(owner)
        for field in getattr(value, "_fields", ()):
            if _FLOAT.search(str(annotations[field])):
                yield name, field


def test_every_float_taking_field_and_parameter_has_a_row():
    found = {
        f"{owner}.{parameter}"
        for owner, parameter in _float_taking_names()
        if owner not in EXEMPT_OWNERS and parameter not in EXEMPT_PARAMETERS
    }
    rows = set(SCALARS) | set(SITES)
    assert found - rows == set()
    # A row for a float parameter that is gone fails too; `SITES` also holds array fields.
    assert set(SCALARS) <= found
    assert {owner for owner, _ in _float_taking_names()} >= EXEMPT_OWNERS


def _float_conversions(tree):
    """(function, line) of each call with `dtype=float` (or numpy's float64)."""

    def names_float(node):
        return (isinstance(node, ast.Name) and node.id == "float") or (
            isinstance(node, ast.Attribute) and node.attr in ("float64", "double")
        )

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and any(
                k.arg == "dtype" and names_float(k.value) for k in child.keywords
            ):
                yield function, child.lineno
            yield from visit(child, function)

    yield from visit(tree, None)


def test_only_the_rule_converts_input_to_float():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = {
        (path.stem, function, line)
        for path in modules
        for function, line in _float_conversions(ast.parse(path.read_text()))
    }
    assert {(module, function) for module, function, _ in found} >= ALLOWED
    assert {entry for entry in found if entry[:2] not in ALLOWED} == set()


# (module, function): how many finiteness checks it may write itself, and why.
FINITENESS_CHECKS = {
    # The rule, for a scalar and for an array.
    ("spectrum", "_check_number"): 1,
    ("spectrum", "_check_real"): 1,
    # The pinned one-line matrix message, which names the shape rather than an entry.
    ("gaussian", "_quadrature_matrix"): 1,
    # The kernel's output, not an input: an overflowing phase or term.
    ("profiles", "_check_finite"): 1,
    # The pinned interval messages: "tauf > tau0" for NaN, "interval must be finite" for infinity.
    ("profiles", "AccelerationProfile._check_interval"): 1,
    # Two overflow checks on computed products, the window and drive phases, not on fields.
    ("profiles", "WindowedSinusoidProfile.__post_init__"): 2,
    # The YAML field table, which reports each bad field as `<block>.<field>: <message>`.
    ("scenarios", "_check_value"): 1,
    # The `--tol` option, an argument of the command line rather than of the package.
    ("cli", "main"): 1,
}


def _finiteness_checks(tree):
    """`Class.function` of each `isfinite` call and each comparison with an infinity."""

    def infinite(node):
        return ast.unparse(node).lstrip("-") in ("math.inf", "np.inf", "float('inf')")

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            called = ast.unparse(child.func) if isinstance(child, ast.Call) else ""
            if called in ("math.isfinite", "np.isfinite") or (
                isinstance(child, ast.Compare)
                and any(map(infinite, (child.left, *child.comparators)))
            ):
                yield scope
            yield from visit(child, scope)

    yield from visit(tree, None)


def test_only_the_rule_checks_finiteness():
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for function in _finiteness_checks(ast.parse(path.read_text())):
            found[path.stem, function] = found.get((path.stem, function), 0) + 1
    assert found == FINITENESS_CHECKS
