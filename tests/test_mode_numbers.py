"""Every entry point that takes a mode number keeps the one rule of `spectrum`.

A mode label, a transverse quantum number or a mode count is an integer
(numpy's included) and not a bool, and it is at least 1; a label that
indexes a truncated spectrum is at most n_max.  Each row below calls one
entry point with labels it must refuse, and with numpy integers, which
must give what plain integers give.  The guard fails when an exported
function, method or value-type field takes a mode number without a row.
"""

import functools
import inspect
import math

import numpy as np
import pytest

import cavitymix
from cavitymix.bogoliubov import first_order_map, static_coefficients
from cavitymix.experiment import ExperimentPlan, LinearMotion, plan
from cavitymix.gaussian import (
    first_order_negativity,
    negativity_grid,
    reduce_to_pair,
    squeezed_vacuum,
    symplectic_form,
    symplectic_from_map,
)
from cavitymix.profiles import SinusoidalProfile
from cavitymix.resonance import paraxial_mixing_growth, paraxial_mixing_omega
from cavitymix.spectrum import Cavity1D, Cavity3D, reduce_to_effective_1d

N_MAX = 4
# The parameter and field names that hold a mode number or a mode count.
LABEL_NAMES = {"m", "n", "pair", "transverse", "n_modes"}
# Value types whose labels the package builds itself (from a checked pair, or catalog rows).
CARRIERS = {"TwoModeReduction", "ResonanceEntry", "ResonanceCatalog"}


@functools.cache
def _coeffs():
    return static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=N_MAX))


@functools.cache
def _map():
    return first_order_map(_coeffs(), SinusoidalProfile(5e-5, math.pi, 0.0, 10.0))


def _plan(**labels):
    return plan(ExperimentPlan(600e-9, 0.01, 0.01, 0.01, LinearMotion(1e-6), **labels))


# name: (call with the labels, the largest label it accepts or None when unbounded)
ROWS = {
    "StaticCoefficients.alpha_entry": (lambda m, n: _coeffs().alpha_entry(m, n), N_MAX),
    "StaticCoefficients.beta_entry": (lambda m, n: _coeffs().beta_entry(m, n), N_MAX),
    "FirstOrderBogoliubovMap.a_entry": (lambda m, n: _map().a_entry(m, n), N_MAX),
    "FirstOrderBogoliubovMap.b_entry": (lambda m, n: _map().b_entry(m, n), N_MAX),
    "reduce_to_pair": (
        lambda m, n: reduce_to_pair(squeezed_vacuum(N_MAX, 0.5), (m, n)).sigma_red, N_MAX
    ),
    "symplectic_from_map": (lambda m, n: symplectic_from_map(_map(), (m, n)), N_MAX),
    "first_order_negativity": (lambda m, n: first_order_negativity(_map(), (m, n), 1.0), N_MAX),
    "negativity_grid": (
        lambda m, n: negativity_grid(_coeffs(), (m, n), 1.0, 5e-5, [math.pi], [10.0]), N_MAX
    ),
    "reduce_to_effective_1d": (
        lambda m, n: reduce_to_effective_1d(Cavity3D(1.0, 2.0, 3.0), "x", (m, n)), None
    ),
    "ExperimentPlan.pair": (lambda m, n: _plan(pair=(m, n)), None),
    "ExperimentPlan.transverse": (lambda m, n: _plan(transverse=(m, n)), None),
    "paraxial_mixing_omega": (lambda m, n: paraxial_mixing_omega(6e-7, 0.01, m, n), None),
    "paraxial_mixing_growth": (
        lambda m, n: paraxial_mixing_growth(6e-7, 0.01, 1e-6, m, n), None
    ),
    "squeezed_vacuum": (lambda k: squeezed_vacuum(k, 0.5).sigma, None),
    "symplectic_form": (symplectic_form, None),
}
GOOD = (1, 2)


def _bad_calls(call, upper):
    """Each bad label, alone or beside a good one in either slot."""
    bad = [1.5, 2.0, True, 0, *([] if upper is None else [upper + 1])]
    if len(inspect.signature(call).parameters) == 1:
        return [(k,) for k in bad]
    return [labels for k in bad for labels in ((k, 3), (3, k))]


@pytest.mark.parametrize("name", ROWS)
def test_entry_point_refuses_labels_that_are_not_mode_numbers(name):
    call, upper = ROWS[name]
    for labels in _bad_calls(call, upper):
        # The refusal names the rule, not a later check such as "distinct".
        with pytest.raises(ValueError, match=r"integer|outside 1\.\.n_max"):
            call(*labels)


@pytest.mark.parametrize("name", ROWS)
def test_numpy_integer_labels_give_what_plain_integers_give(name):
    call, _ = ROWS[name]
    labels = GOOD[: len(inspect.signature(call).parameters)]
    plain, numpy_ = call(*labels), call(*map(np.int64, labels))
    if isinstance(plain, np.ndarray):
        assert np.array_equal(plain, numpy_)
    else:
        assert plain == numpy_


def _label_taking_names():
    """`function`, `Class.method` and `Class.field` for each exported one that takes a label."""
    for name in cavitymix.__all__:
        value = getattr(cavitymix, name)
        if not inspect.isclass(value):
            if callable(value) and LABEL_NAMES & set(inspect.signature(value).parameters):
                yield name
            continue
        for owner in value.__mro__:
            if owner.__module__.startswith("cavitymix"):
                for attribute, member in vars(owner).items():
                    if inspect.isfunction(member) and LABEL_NAMES & set(
                        inspect.signature(member).parameters
                    ):
                        yield f"{name}.{attribute}"
        if name not in CARRIERS:
            fields = getattr(value, "_fields", ())
            yield from (f"{name}.{field}" for field in fields if field in LABEL_NAMES)


def test_every_label_taking_entry_point_has_a_row():
    found = set(_label_taking_names())
    assert found - set(ROWS) == set()
    assert set(ROWS) <= found  # a row for an entry point that is gone fails too
