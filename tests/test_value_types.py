"""The contract every value type of the package keeps.

A value type is built from its fields, positionally or by keyword, with
defaults for the trailing ones; it is immutable once built, its arrays are
read-only, its repr lists the fields in order, and it compares either by
value (with a matching hash) or by identity.  Copies and pickles are rebuilt
through the constructor, so they keep all of this.
"""

import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import cavitymix
from cavitymix.bogoliubov import first_order_map, static_coefficients, verify_first_order_identities
from cavitymix.experiment import plan
from cavitymix.gaussian import reduce_to_pair, squeezed_vacuum
from cavitymix.profiles import (
    PiecewiseConstantProfile,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    oscillatory_integral,
    validate_rigidity,
)
from cavitymix.resonance import catalog_1d
from cavitymix.scenarios import Block, Field, _check, load_scenario, run_scenario
from cavitymix.spectrum import Cavity1D, Cavity3D
from conftest import SCENARIO_DIR


def _drive():
    return SinusoidalProfile(0.01, 3.0, 0.5, 5.0, 0.25)


def _coeffs():
    return static_coefficients(Cavity1D(1.0, n_max=4))


def _map():
    return first_order_map(_coeffs(), _drive())


def _scenario(name):
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


# (a function making an instance, field names in declaration order, compares by value)
CASES = {
    "Cavity1D": (lambda: Cavity1D(1.0, 0.5, 4), "length mu0 n_max", True),
    "Cavity3D": (lambda: Cavity3D(1.0, 2.0, 3.0, 0.1), "lx ly lz mu", True),
    "SinusoidalProfile": (_drive, "h0 omega_c tau0 tauf phase", True),
    "PiecewiseConstantProfile": (
        lambda: PiecewiseConstantProfile(((1.0, 0.01), (2.0, -0.02)), 0.5), "segments tau0", True
    ),
    "RampProfile": (lambda: RampProfile(0.01, 1.0, 0.0, 5.0), "h0 ramp_time tau0 tauf", True),
    "SampledProfile": (
        lambda: SampledProfile(np.linspace(0.0, 1.0, 5), np.full(5, 0.01)), "tau h", False
    ),
    "WindowedSinusoidProfile": (
        lambda: WindowedSinusoidProfile(0.01, 3.0, 1.0, 0.0, 5.0, 0.25),
        "h0 omega_c window_time tau0 tauf phase",
        True,
    ),
    "OscillatoryIntegralResult": (
        lambda: oscillatory_integral(_drive(), 2.0), "value error_estimate evaluations", True
    ),
    "RigidityReport": (lambda: validate_rigidity(_drive()), "ok sup_h tau_at_sup bound", True),
    "StaticCoefficients": (
        _coeffs,
        "cavity alpha_hat beta_hat omega deltas delta_index entry_scale order",
        False,
    ),
    "FirstOrderBogoliubovMap": (
        _map, "cavity tau0 tauf a_hat b_hat phases quadrature_error", False
    ),
    "IdentityReport": (
        lambda: verify_first_order_identities(_map()),
        "anti_hermiticity_residual symmetry_residual parity_residual quadrature_error passed",
        True,
    ),
    "CovarianceState": (lambda: squeezed_vacuum(2, 0.5), "sigma psd_tol", False),
    "TwoModeReduction": (
        lambda: reduce_to_pair(squeezed_vacuum(3, 0.5), (1, 2)), "pair sigma_red", False
    ),
    "ResonanceEntry": (
        lambda: catalog_1d(_coeffs(), 20.0)[0], "kind pair omega_r coefficient growth_per_h0", True
    ),
    "ResonanceCatalog": (
        lambda: catalog_1d(_coeffs(), 20.0), "kind m n omega_r coefficient growth_per_h0", False
    ),
    "LinearMotion": (lambda: _scenario("desktop_linear").experiment.motion, "amplitude axis", True),
    "CircularMotion": (lambda: _scenario("desktop_circular").experiment.motion, "dx dy", True),
    "ExperimentPlan": (
        lambda: _scenario("desktop_linear").experiment,
        "wavelength lx ly lz motion pair transverse",
        True,
    ),
    "PlanReport": (
        lambda: plan(_scenario("desktop_circular").experiment),
        "omega_c_si omega_c_per_meter frequency_hz growth_rate time_to_unity peak_h rigidity_ok "
        "beta_numeric_factor beta_h_squared beta_bound_squared rpm centripetal_acceleration",
        True,
    ),
    "ResultTable": (
        lambda: run_scenario(_scenario("catalog_low_band")),
        "columns scenario_digest generated",
        False,
    ),
    "EvolveScenario": (
        lambda: _scenario("evolve_resonant"), "source_digest output_path cavity profile", False
    ),
    "CatalogScenario": (
        lambda: _scenario("catalog_low_band"), "source_digest output_path cavity max_omega", False
    ),
    "SweepScenario": (
        lambda: _scenario("negativity_ridge"),
        "source_digest output_path cavity pair squeezing h0 omega_c_values delta_tau_values",
        False,
    ),
    "PlanScenario": (
        lambda: _scenario("desktop_linear"), "source_digest output_path experiment", False
    ),
    "Field": (
        lambda: Field("h0", float, 0.0, ((">=", 0.0),), (), "amplitude"),
        "name type default bounds choices dest",
        True,
    ),
    "Block": (
        lambda: Block((Field("x", float, 0.0),), dict),  # picklable parts, no lambda
        "fields build other tag variants check",
        True,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    make, names, by_value = CASES[name]
    value = make()
    cls = type(value)
    assert cls.__name__ == name
    names = names.split()
    fields = {field: getattr(value, field) for field in names}
    # The instance holds exactly its fields, in order, and nothing else.
    assert list(vars(value)) == names

    for attribute in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 1)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    assert list(vars(value)) == names

    items = ", ".join(f"{field}={fields[field]!r}" for field in names)
    assert repr(value) == f"{name}({items})"

    required = [field for field in names if cls._fields[field] is cavitymix._MISSING]
    for args, kwargs in (
        *(((), {f: v for f, v in fields.items() if f != gone}) for gone in required),  # one missing
        ((), {**fields, "not_a_field": 1}),  # an unknown one
        ((fields[names[0]],), fields),  # the first field twice
        ((*fields.values(), None), {}),  # one positional argument too many
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == repr(value)
    if by_value:
        assert by_keyword == by_position == value
        assert hash(by_keyword) == hash(by_position) == hash(value) == hash((*fields.values(),))
        assert not value != by_keyword
    else:
        assert value == value and hash(value) == hash(value)
        assert by_keyword != value and by_position != value
        assert len({value, by_keyword, by_position}) == 3
    assert value != object()

    # Copies rebuild the same value, and every array field is read-only, as built and in each.
    for twin in (value, copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert repr(twin) == repr(value)
        assert twin == value or not by_value
        for field in names:
            array = getattr(twin, field)
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable, field
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = array
    if name == "SampledProfile":  # no copy takes a drive past the rigidity bound unchecked
        q = SampledProfile([0.0, 1.0], [0.0, 0.01])
        for twin in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            with pytest.raises(ValueError, match="read-only"):
                twin.h[1] = 5.0


def _value_types(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_types(sub)


def test_every_value_type_has_a_case():
    for module in pkgutil.iter_modules(cavitymix.__path__):
        if module.name != "__main__":
            importlib.import_module(f"cavitymix.{module.name}")
    names = {cls.__name__ for cls in _value_types(cavitymix._Value)} - {"_Scenario"}
    assert names - set(CASES) == set()


def test_omitted_fields_take_their_defaults():
    assert Cavity1D(2.0) == Cavity1D(2.0, 0.0, 10)
    assert SinusoidalProfile(0.01, 3.0, 0.0, 1.0) == SinusoidalProfile(0.01, 3.0, 0.0, 1.0, 0.0)
    report = validate_rigidity(_drive())
    assert report.bound == 2.0
    assert Field("x", float).dest == ""
    # A field without a default stays required in a copy and a pickle.
    required = Field("x", float)
    for twin in (required, copy.deepcopy(required), pickle.loads(pickle.dumps(required))):
        diags = []
        assert _check({}, (twin,), "", diags) == {}
        assert diags == ["x: required field missing"]
