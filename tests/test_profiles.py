import math
import warnings

import numpy as np
import pytest

from cavitymix.profiles import (
    _SMALL_PHASE,
    PiecewiseConstantProfile,
    QuadratureError,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    _fourier_integrals,
    oscillatory_integral,
    validate_rigidity,
)
from conftest import simpson_oscillatory, simpson_oscillatory_segmented


def test_sinusoidal_evaluate_and_sup():
    prof = SinusoidalProfile(h0=0.3, omega_c=2.0, tau0=1.0, tauf=4.0, phase=0.5)
    tau = np.array([1.0, 2.0, 3.5])
    expected = 0.3 * np.cos(2.0 * (tau - 1.0) + 0.5)
    assert np.allclose(prof.evaluate(tau), expected, atol=1e-15)
    sup, tau_star = prof.sup_abs()
    # The phase crosses pi inside the interval, so the supremum is h0.
    assert sup == pytest.approx(0.3)
    assert prof.evaluate(tau_star) == pytest.approx(-0.3)
    with pytest.raises(ValueError, match="drive frequency"):
        SinusoidalProfile(h0=0.3, omega_c=math.nan, tau0=1.0, tauf=4.0)


def test_sinusoidal_sup_on_short_arc_is_an_endpoint():
    prof = SinusoidalProfile(h0=1.0, omega_c=1.0, tau0=0.0, tauf=0.5, phase=0.3)
    sup, tau_star = prof.sup_abs()
    assert tau_star == 0.0
    assert sup == pytest.approx(math.cos(0.3))


def test_sinusoidal_restrict_matches_parent():
    prof = SinusoidalProfile(h0=0.2, omega_c=3.0, tau0=0.0, tauf=10.0, phase=0.7)
    part = prof.restrict(2.5, 6.0)
    tau = np.linspace(2.5, 6.0, 101)
    assert np.allclose(part.evaluate(tau), prof.evaluate(tau), atol=1e-15)
    with pytest.raises(ValueError):
        prof.restrict(5.0, 11.0)


def test_piecewise_constant_evaluate_and_restrict():
    prof = PiecewiseConstantProfile(segments=((1.0, 0.5), (2.0, -0.25), (1.0, 0.1)))
    assert prof.tauf == pytest.approx(4.0)
    assert prof.evaluate(0.5) == 0.5
    assert prof.evaluate(1.5) == -0.25
    assert prof.evaluate(4.0) == 0.1
    sup, tau_star = prof.sup_abs()
    assert sup == 0.5 and tau_star == 0.0
    part = prof.restrict(0.5, 3.5)
    assert part.segments == ((0.5, 0.5), (2.0, -0.25), (0.5, 0.1))
    assert part.evaluate(2.0) == -0.25


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantProfile(segments=())
    with pytest.raises(ValueError):
        PiecewiseConstantProfile(segments=((0.0, 1.0),))
    with pytest.raises(ValueError, match="tauf > tau0"):
        PiecewiseConstantProfile(segments=((1.0, 1e-3),), tau0=math.nan)


def test_ramp_shape_and_sup():
    prof = RampProfile(h0=0.4, ramp_time=1.0, tau0=0.0, tauf=5.0)
    assert prof.evaluate(0.0) == 0.0
    assert prof.evaluate(0.5) == pytest.approx(0.2)
    assert prof.evaluate(2.5) == pytest.approx(0.4)
    assert prof.evaluate(4.5) == pytest.approx(0.2)
    assert prof.evaluate(5.0) == 0.0
    sup, tau_star = prof.sup_abs()
    assert sup == 0.4 and tau_star == 1.0
    with pytest.raises(ValueError):
        RampProfile(h0=0.4, ramp_time=3.0, tau0=0.0, tauf=5.0)


def test_ramp_restrict_resamples_exactly():
    prof = RampProfile(h0=0.4, ramp_time=1.0, tau0=0.0, tauf=5.0)
    part = prof.restrict(0.5, 4.75)
    assert isinstance(part, SampledProfile)
    tau = np.linspace(0.5, 4.75, 87)
    assert np.allclose(part.evaluate(tau), prof.evaluate(tau), atol=1e-15)


def test_sampled_profile_interpolates_and_validates():
    prof = SampledProfile(tau=[0.0, 1.0, 3.0], h=[0.0, 1.0, -1.0])
    assert prof.evaluate(0.5) == pytest.approx(0.5)
    assert prof.evaluate(2.0) == pytest.approx(0.0)
    sup, tau_star = prof.sup_abs()
    assert sup == 1.0 and tau_star in (1.0, 3.0)
    part = prof.restrict(0.5, 2.0)
    assert part.tau0 == 0.5 and part.tauf == 2.0
    assert part.evaluate(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SampledProfile(tau=[0.0, 0.0, 1.0], h=[0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        SampledProfile(tau=[0.0], h=[1.0])


def test_windowed_sinusoid_envelope():
    prof = WindowedSinusoidProfile(h0=0.2, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=10.0)
    assert prof.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
    assert prof.evaluate(10.0) == pytest.approx(0.0, abs=1e-12)
    assert prof.evaluate(5.0) == pytest.approx(0.2 * math.cos(25.0), rel=1e-12)
    assert prof.evaluate(1.0) == pytest.approx(0.1 * math.cos(5.0), rel=1e-12)
    with pytest.raises(NotImplementedError):
        prof.restrict(1.0, 5.0)
    with pytest.raises(ValueError):
        WindowedSinusoidProfile(h0=0.2, omega_c=5.0, window_time=6.0, tau0=0.0, tauf=10.0)
    with pytest.raises(ValueError, match="omega_c"):
        WindowedSinusoidProfile(h0=0.01, omega_c=1e300, window_time=1e10, tau0=0.0, tauf=1e11)
    with pytest.raises(ValueError, match="drive frequency"):
        WindowedSinusoidProfile(h0=0.2, omega_c=math.nan, window_time=2.0, tau0=0.0, tauf=10.0)


def test_rigidity_check_reports_worst_point():
    ok = validate_rigidity(SinusoidalProfile(h0=1.99, omega_c=1.0, tau0=0.0, tauf=20.0))
    assert ok.ok and ok.sup_h == pytest.approx(1.99)
    bad = validate_rigidity(SinusoidalProfile(h0=2.5, omega_c=1.0, tau0=0.0, tauf=20.0))
    assert not bad.ok
    assert bad.sup_h == pytest.approx(2.5)
    assert bad.bound == 2.0


def test_windowed_rigidity_bound_never_under_estimates():
    # A fast drive whose plateau extrema fall between the points of a dense
    # grid: sampling saw sup|h| = 1.9967 and accepted a non-rigid drive.
    prof = WindowedSinusoidProfile(
        2.01, 6634.151286217649, 1.0, 0.0, 100.0, phase=2.5570428907594884
    )
    report = validate_rigidity(prof)
    assert not report.ok
    assert report.sup_h == 2.01
    assert abs(prof.evaluate(report.tau_at_sup)) == pytest.approx(2.01, rel=1e-9)


def test_windowed_sup_bounds_every_sample():
    rng = np.random.default_rng(11)
    for _ in range(20):
        omega_c = rng.choice([0.0, rng.uniform(0.1, 50.0)])
        prof = WindowedSinusoidProfile(
            h0=rng.uniform(-1.0, 1.0),
            omega_c=omega_c,
            window_time=rng.uniform(0.5, 2.0),
            tau0=0.0,
            tauf=rng.uniform(4.0, 6.0),
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        sup, _ = prof.sup_abs()
        dense = np.max(np.abs(prof.evaluate(np.linspace(prof.tau0, prof.tauf, 20001))))
        assert sup >= dense
        if omega_c == 0.0:
            assert sup == pytest.approx(dense, rel=1e-12)
        else:
            assert sup == abs(prof.h0)


def test_resonant_integral_closed_form():
    # Cosine drive probed at its own frequency over an integer number of
    # periods: the integral is exactly h0 * T / 2.
    h0, omega = 1e-3, math.pi
    prof = SinusoidalProfile(h0=h0, omega_c=omega, tau0=0.0, tauf=50.0)
    res = oscillatory_integral(prof, omega)
    assert res.value.real == pytest.approx(h0 * 25.0, rel=1e-12)
    assert abs(res.value.imag) < 1e-15


@pytest.mark.parametrize("delta", [0.0, 1e-9, 0.77, math.pi, 3 * math.pi, 40.0])
def test_sinusoidal_integral_matches_simpson(delta):
    prof = SinusoidalProfile(h0=0.02, omega_c=2.3, tau0=1.5, tauf=21.5, phase=0.4)
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory(prof, delta)
    assert res.value == pytest.approx(oracle, abs=5e-9)


def test_small_phase_branch_is_continuous():
    # Values on either side of the series cross-over must agree smoothly.
    prof = SinusoidalProfile(h0=0.1, omega_c=1.0, tau0=0.0, tauf=3.0)
    below = oscillatory_integral(prof, 1.0 - 1e-5 / 3.0).value
    above = oscillatory_integral(prof, 1.0 + 1e-5 / 3.0).value
    assert below == pytest.approx(above, abs=2e-6)


@pytest.mark.parametrize("delta", [0.3, 2.0, 9.4])
def test_piecewise_integral_matches_simpson(delta):
    # Segment-aligned oracle: Simpson over a grid that straddles a jump
    # converges only at first order, so each constant piece is integrated
    # on its own.
    prof = PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01)))
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory_segmented(prof, delta, breakpoints=(0.0, 1.0, 3.5, 5.0))
    assert res.value == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("delta", [0.5, 3.0, 11.0])
def test_ramp_integral_matches_simpson(delta):
    prof = RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory(prof, delta, min_points=16001)
    assert res.value == pytest.approx(oracle, abs=1e-7)


@pytest.mark.parametrize("delta", [0.9, 4.4])
def test_sampled_integral_matches_simpson(delta):
    rng = np.random.default_rng(7)
    tau = np.linspace(0.0, 8.0, 41)
    h = 0.03 * rng.standard_normal(41)
    prof = SampledProfile(tau=tau, h=h)
    res = oscillatory_integral(prof, delta)
    # The closed form integrates the interpolant; so does Simpson on a
    # grid that contains every breakpoint.
    refined = np.linspace(0.0, 8.0, 40 * 500 + 1)
    integrand = np.exp(-1j * delta * refined) * prof.evaluate(refined)
    from scipy.integrate import simpson

    oracle = complex(simpson(integrand, x=refined))
    assert res.value == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("delta", [0.0, 2.0, 5.0, 17.0])
def test_windowed_integral_matches_simpson(delta):
    prof = WindowedSinusoidProfile(
        h0=0.05, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=12.0, phase=0.3
    )
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory(prof, delta, min_points=24001)
    assert res.value == pytest.approx(oracle, abs=1e-8)


def test_long_interval_integral_stays_cheap_and_accurate():
    # 1e4 natural time units, phase ~ 3e4: closed-form evaluation cannot
    # degrade, unlike any sampling rule.
    prof = SinusoidalProfile(h0=1e-3, omega_c=math.pi, tau0=0.0, tauf=1e4)
    res = oscillatory_integral(prof, math.pi)
    assert res.evaluations == 2
    assert res.value.real == pytest.approx(1e-3 * 5e3, rel=1e-10)


def test_quadrature_error_signalling():
    prof = SinusoidalProfile(h0=0.1, omega_c=1.0, tau0=0.0, tauf=10.0)
    with pytest.raises(QuadratureError):
        oscillatory_integral(prof, 1.0, tol=1e-30)
    fast = SinusoidalProfile(h0=0.1, omega_c=1e308, tau0=0.0, tauf=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel reports overflow, numpy stays quiet
        with pytest.raises(QuadratureError, match="not finite"):
            oscillatory_integral(fast, 1.0)
    res = oscillatory_integral(prof, 1.0)
    assert 0.0 < res.error_estimate < 1e-12


def test_evaluate_outside_interval_raises():
    prof = SinusoidalProfile(h0=0.1, omega_c=1.0, tau0=0.0, tauf=1.0)
    with pytest.raises(ValueError):
        prof.evaluate(1.5)


def _crossover_deltas(centre, span):
    """Deltas with |mu - delta| * span from 1e-6 to 1e-2 for a term at mu = centre."""
    x = np.logspace(-6.0, -2.0, 9)
    return centre + np.concatenate([x, -x[::3]]) / span


_NONUNIFORM_TAU = 8.0 * np.linspace(0.0, 1.0, 41) ** 1.5
_NONUNIFORM_H = 0.03 * np.random.default_rng(7).standard_normal(41)

BATCHED_CASES = {
    "sinusoidal": (
        SinusoidalProfile(h0=0.02, omega_c=2.3, tau0=1.5, tauf=21.5, phase=0.4),
        _crossover_deltas(2.3, 20.0),
        lambda prof, d: simpson_oscillatory(prof, d),
        5e-9,
    ),
    "piecewise_constant": (
        PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01))),
        _crossover_deltas(0.0, 2.5),
        lambda prof, d: simpson_oscillatory_segmented(prof, d, breakpoints=(0.0, 1.0, 3.5, 5.0)),
        1e-9,
    ),
    "ramp": (
        RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5),
        _crossover_deltas(0.0, 6.4),
        lambda prof, d: simpson_oscillatory(prof, d, min_points=16001),
        1e-7,
    ),
    "sampled": (
        SampledProfile(tau=_NONUNIFORM_TAU, h=_NONUNIFORM_H),
        _crossover_deltas(0.0, 0.6),
        lambda prof, d: simpson_oscillatory_segmented(prof, d, breakpoints=_NONUNIFORM_TAU),
        1e-9,
    ),
    "windowed_sinusoid": (
        WindowedSinusoidProfile(
            h0=0.05, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=12.0, phase=0.3
        ),
        _crossover_deltas(5.0, 8.0),
        lambda prof, d: simpson_oscillatory(prof, d, min_points=24001),
        1e-8,
    ),
}


@pytest.mark.parametrize("variant", sorted(BATCHED_CASES))
def test_batched_kernel_straddles_small_phase_crossover(variant):
    prof, deltas, oracle, tol = BATCHED_CASES[variant]
    a, b, _, mu, _ = prof._terms()
    small = np.abs(mu[None, :] - deltas[:, None]) * (b - a) < _SMALL_PHASE
    # Both branches in one batch, and in one row of the batch.
    assert np.any(small.any(axis=1) & (~small).any(axis=1))
    values, estimate = _fourier_integrals(prof._terms(), deltas)
    for delta, value in zip(deltas, values):
        assert value == pytest.approx(oracle(prof, delta), abs=tol)
        # A one-delta call evaluates the same element the same way.
        assert abs(oscillatory_integral(prof, delta).value - value) <= estimate


def test_ramp_and_its_resampled_trapezoid_agree():
    ramp = RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)
    trapezoid = ramp.restrict(ramp.tau0, ramp.tauf)
    assert ramp._terms()[0].size == 3
    assert trapezoid._terms()[0].size == trapezoid.tau.size - 1 == 3
    trace = SampledProfile(tau=_NONUNIFORM_TAU, h=_NONUNIFORM_H)
    assert trace._terms()[0].size == _NONUNIFORM_TAU.size - 1
    x = np.logspace(-7.0, 1.0, 17)
    deltas = np.concatenate([x, -x[::4]])
    a, b, _, mu, _ = ramp._terms()
    small = np.abs(mu[None, :] - deltas[:, None]) * (b - a) < _SMALL_PHASE
    assert small.any() and not small.all()
    ramp_values, ramp_bound = _fourier_integrals(ramp._terms(), deltas)
    sampled_values, sampled_bound = _fourier_integrals(trapezoid._terms(), deltas)
    assert np.all(np.abs(ramp_values - sampled_values) <= ramp_bound + sampled_bound)
