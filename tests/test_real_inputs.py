"""Every conversion of caller input to real numbers goes through one rule.

`np.asarray(value, dtype=float)` casts a complex value to its real part
with only a ComplexWarning, so a complex time, frequency or sample would
give a silently wrong figure.  `spectrum._check_real` refuses it with a
ValueError that names the field.  Each row below calls one conversion site
with complex input in three forms; the guard fails when a module under
`src/cavitymix` converts with `dtype=float` anywhere but in the rule.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cavitymix.bogoliubov import static_coefficients
from cavitymix.gaussian import negativity_grid
from cavitymix.profiles import SampledProfile, SinusoidalProfile, oscillatory_integral
from cavitymix.spectrum import Cavity1D

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cavitymix"
# (module, function) where a float conversion may stand: the rule, and a
# mode-number grid that takes no caller input.
ALLOWED = {("spectrum", "_check_real"), ("spectrum", "omega_vector")}

_SINE = SinusoidalProfile(0.1, 1.0, 0.0, 2.0)
_COEFFS = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2))


def _grid(**bad):
    arguments = dict(h0=1e-5, omega_c_values=[1.0, math.pi], delta_tau_values=[5.0, 10.0])
    return negativity_grid(_COEFFS, (1, 2), 1.0, **(arguments | bad))


# field: (call with the value, a real value it accepts)
SITES = {
    "evaluate.tau": (lambda tau: _SINE.evaluate(tau), 0.5),
    "SampledProfile.tau": (lambda tau: SampledProfile(tau, [0.0, 1e-3, 0.0]), [0.0, 1.0, 2.0]),
    "SampledProfile.h": (lambda h: SampledProfile([0.0, 1.0, 2.0], h), [0.0, 1e-3, 0.0]),
    "oscillatory_integral.delta": (lambda delta: oscillatory_integral(_SINE, delta), 1.0),
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
