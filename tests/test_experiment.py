import math

import numpy as np
import pytest

from cavitymix.bogoliubov import static_coefficients
from cavitymix.experiment import (
    C_LIGHT,
    CircularMotion,
    ExperimentPlan,
    LinearMotion,
    _creation_factor,
    circular_report,
    plan,
)
from cavitymix.resonance import catalog_1d
from cavitymix.spectrum import Cavity1D, Cavity3D


def desktop(motion):
    return ExperimentPlan(
        wavelength=600e-9, lx=0.01, ly=0.01, lz=0.01, motion=motion, pair=(1, 2)
    )


def brute_force_creation_factor(lx, ly, lz, axis="x", cutoff=200000):
    """Direct dense summation of the squared creation magnitudes, done with
    none of the package's adaptivity: the reference for the numeric factor.

    The lowest mode is (1, 1, 1) of the massless cavity; m' runs over the
    even longitudinal numbers along the driven axis, the other two stay 1."""
    edge = lx if axis == "x" else ly
    w_low = math.pi * math.sqrt(lx**-2 + ly**-2 + lz**-2)
    primes = np.arange(2, cutoff + 1, 2, dtype=float)
    frozen = (np.pi / (ly if axis == "x" else lx)) ** 2 + (np.pi / lz) ** 2
    w_primes = np.sqrt((np.pi * primes / edge) ** 2 + frozen)
    terms = (
        2.0 * np.pi**2 * primes / (edge**4 * (w_low + w_primes) ** 3 * np.sqrt(w_low * w_primes))
    )
    return float(np.sum(terms**2))


def test_linear_plan_matches_hand_formulas():
    report = plan(desktop(LinearMotion(amplitude=1e-6, axis="x")))
    omega_per_m = math.pi * 600e-9 * 3.0 / (4.0 * 0.01**2)
    assert report.omega_c_per_meter == pytest.approx(omega_per_m, rel=1e-12)
    assert report.omega_c_si == pytest.approx(C_LIGHT * omega_per_m, rel=1e-12)
    assert report.frequency_hz == pytest.approx(C_LIGHT * omega_per_m / (2.0 * math.pi), rel=1e-12)
    growth = C_LIGHT * math.pi * 2.0 * 1e-6 * 600e-9 / (2.0 * 0.01**3)
    assert report.growth_rate == pytest.approx(growth, rel=1e-12)
    assert report.time_to_unity == pytest.approx(1.0 / growth, rel=1e-12)
    assert report.peak_h == pytest.approx(1e-6 * omega_per_m**2 * 0.01, rel=1e-12)
    assert report.rigidity_ok
    assert report.rpm is None and report.centripetal_acceleration is None


def test_linear_plan_magnitudes():
    report = plan(desktop(LinearMotion(amplitude=1e-6, axis="x")))
    assert report.omega_c_si == pytest.approx(4.238216e6, rel=1e-5)
    assert report.frequency_hz == pytest.approx(674.533e3, rel=1e-5)
    assert report.growth_rate == pytest.approx(565.0955, rel=1e-5)
    assert report.peak_h == pytest.approx(1.99859e-12, rel=1e-4)


def test_circular_plan_adds_rotation_figures():
    report = circular_report(desktop(CircularMotion(dx=1e-3, dy=1e-3)))
    assert report.rpm == pytest.approx(report.omega_c_si * 60.0 / (2.0 * math.pi), rel=1e-12)
    assert report.rpm == pytest.approx(4.047e7, rel=1e-3)
    assert report.centripetal_acceleration == pytest.approx(
        1e-3 * report.omega_c_si**2, rel=1e-12
    )
    assert report.centripetal_acceleration == pytest.approx(1.7962e10, rel=1e-4)
    with pytest.raises(ValueError):
        circular_report(desktop(LinearMotion(amplitude=1e-6)))


def test_beta_bound_factor_against_brute_force():
    factor = _creation_factor(Cavity3D(lx=0.01, ly=0.01, lz=0.01), "x", rel_tol=1e-8)
    reference = brute_force_creation_factor(0.01, 0.01, 0.01)
    assert factor == pytest.approx(reference, rel=1e-6)
    assert factor == pytest.approx(1.01636e-5, rel=1e-4)
    report = plan(desktop(LinearMotion(amplitude=1e-6, axis="x")))
    assert report.beta_bound_squared == report.beta_numeric_factor * report.peak_h**2
    # A 7 m cavity with 1 cm transverse edges, just inside MAX_ELONGATION,
    # driven along its long edge: the creation terms only start to decay
    # beyond m' ~ 1e3, so the sum needs about 2^18 terms.  The brute-force
    # tail beyond 2^21 is about 2e-12 relative.
    for axis, lx, ly in (("x", 7.0, 0.01), ("y", 0.01, 7.0)):
        factor = _creation_factor(Cavity3D(lx=lx, ly=ly, lz=0.01), axis, rel_tol=1e-8)
        reference = brute_force_creation_factor(lx, ly, 0.01, axis=axis, cutoff=2**21)
        assert factor == pytest.approx(reference, rel=1e-6)


def test_beta_bound_h_is_peak_h():
    inputs = desktop(LinearMotion(amplitude=1e-6, axis="x"))
    report = plan(inputs)
    assert report.beta_h_squared == report.peak_h**2
    assert math.log10(report.beta_h_squared) == pytest.approx(-23.4, abs=0.05)
    circ = circular_report(desktop(CircularMotion(dx=1e-3, dy=1e-3)))
    assert math.log10(circ.beta_h_squared) == pytest.approx(-17.4, abs=0.05)


def test_si_and_natural_units_round_trip():
    # The same physics in natural units: a heavy 1+1 cavity whose mass is
    # the optical wavenumber.  Catalog frequency in 1/m must match the
    # plan's paraxial frequency.
    report = plan(desktop(LinearMotion(amplitude=1e-6, axis="x")))
    mu_bar = 2.0 * math.pi / 600e-9
    cavity = Cavity1D(length=0.01, mu0=mu_bar, n_max=2)
    entry = catalog_1d(static_coefficients(cavity), 1.0)[0]
    assert entry.omega_r == pytest.approx(report.omega_c_per_meter, rel=1e-6)
    # and the SI growth rate is the natural-units rate times c
    h0 = 1e-6 * entry.omega_r**2 * 0.01
    natural_rate = entry.growth_per_h0 * h0
    assert C_LIGHT * natural_rate == pytest.approx(report.growth_rate, rel=1e-5)


def test_plan_validation():
    with pytest.raises(ValueError, match="wavelength"):
        ExperimentPlan(
            wavelength=5e-4, lx=0.01, ly=0.01, lz=0.01, motion=LinearMotion(amplitude=1e-6)
        )
    with pytest.raises(ValueError, match="paraxial"):
        ExperimentPlan(
            wavelength=9e-5, lx=0.01, ly=0.01, lz=0.01, motion=LinearMotion(amplitude=1e-6)
        )
    for amplitude in (-1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude"):
            desktop(LinearMotion(amplitude=amplitude))
    with pytest.raises(ValueError):
        desktop(LinearMotion(amplitude=1e-6, axis="z"))
    for dx in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dx"):
            desktop(CircularMotion(dx=dx, dy=1e-3))
    with pytest.raises(ValueError, match="dy must be finite"):
        desktop(CircularMotion(dx=1e-3, dy=math.inf))
    for name in ("wavelength", "lx"):
        edges = dict(wavelength=600e-9, lx=0.01, ly=0.01, lz=0.01)
        edges[name] = math.nan
        with pytest.raises(ValueError, match=name):
            ExperimentPlan(**edges, motion=LinearMotion(amplitude=1e-6))
    for pair in ((1, 3), (2, 2), (0, 1)):
        with pytest.raises(ValueError):
            ExperimentPlan(
                wavelength=600e-9,
                lx=0.01,
                ly=0.01,
                lz=0.01,
                motion=LinearMotion(amplitude=1e-6),
                pair=pair,
            )
    # Mode labels are integers: a float or a bool names no mode.
    for labels in (dict(pair=(1, 1.5)), dict(pair=(True, 2)), dict(transverse=(1.5, 2))):
        with pytest.raises(ValueError, match="integers"):
            ExperimentPlan(600e-9, 0.01, 0.01, 0.01, LinearMotion(1e-6), **labels)


@pytest.mark.parametrize(
    "field, value", [("transverse", (1,)), ("transverse", ()), ("transverse", (2, 3, 4)),
                     ("transverse", 7), ("pair", (1, 2, 3)), ("pair", None),
                     ("transverse", (1, (2, 3)))],
)
def test_plan_refuses_a_label_pair_of_the_wrong_shape_by_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be two integers"):
        ExperimentPlan(600e-9, 0.01, 0.01, 0.01, LinearMotion(1e-6), **{field: value})


def test_transverse_defaults_to_wavelength_scale():
    inputs = desktop(LinearMotion(amplitude=1e-6, axis="x"))
    assert inputs.transverse == (1, round(2 * 0.01 / 600e-9))
    custom = ExperimentPlan(
        wavelength=600e-9,
        lx=0.01,
        ly=0.01,
        lz=0.01,
        motion=LinearMotion(amplitude=1e-6),
        transverse=(2, 30000),
    )
    assert custom.transverse == (2, 30000)


def test_y_axis_motion_uses_y_edge():
    inputs = ExperimentPlan(
        wavelength=600e-9, lx=0.02, ly=0.01, lz=0.01, motion=LinearMotion(amplitude=1e-6, axis="y")
    )
    assert inputs.axis == "y"
    assert inputs.axis_length == 0.01
    report = plan(inputs)
    assert report.omega_c_per_meter == pytest.approx(
        math.pi * 600e-9 * 3.0 / (4.0 * 0.01**2), rel=1e-12
    )


def test_zero_amplitude_degenerates_cleanly():
    report = plan(desktop(LinearMotion(amplitude=0.0, axis="x")))
    assert report.growth_rate == 0.0
    assert report.time_to_unity == math.inf
    assert report.peak_h == 0.0
    assert report.beta_h_squared == 0.0
    assert report.rigidity_ok
