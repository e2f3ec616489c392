import math
import warnings

import numpy as np
import pytest

from cavitymix.bogoliubov import first_order_map, static_coefficients
from cavitymix.gaussian import negativity_grid
from cavitymix.profiles import (
    _SMALL_PHASE,
    _UNIFORM_MIN_NODES,
    PiecewiseConstantProfile,
    QuadratureError,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    _fourier_integrals,
    _node_sums,
    _piece_integrals,
    _uniform_chain,
    oscillatory_integral,
    validate_rigidity,
)
from cavitymix.scenarios import ScenarioError, load_scenario
from cavitymix.spectrum import Cavity1D, omega_diff_matrix
from conftest import exact_oscillatory, simpson_oscillatory, simpson_oscillatory_segmented


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
    with pytest.raises(ValueError, match="interval must be finite"):
        PiecewiseConstantProfile(segments=((math.inf, 1e-3),))


def test_profiles_refuse_non_finite_times_and_phases():
    # Under -W error a numpy warning from the kernel would be what is raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (
            lambda: SinusoidalProfile(h0=1e-3, omega_c=1.0, tau0=0.0, tauf=math.inf),
            lambda: SinusoidalProfile(h0=1e-3, omega_c=1.0, tau0=-math.inf, tauf=1.0),
            lambda: RampProfile(h0=1e-3, ramp_time=1.0, tau0=0.0, tauf=math.inf),
            lambda: WindowedSinusoidProfile(1e-3, 1.0, 1.0, tau0=-math.inf, tauf=5.0),
        ):
            with pytest.raises(ValueError, match="interval must be finite"):
                make()
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="phase must be finite"):
                SinusoidalProfile(h0=1e-3, omega_c=1.0, tau0=0.0, tauf=10.0, phase=phase)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sample times tau must be finite"):
                SampledProfile(tau=[0.0, 1.0, bad], h=[0.0, 1e-3, 0.0])
        for omega_c in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="drive frequency"):
                SinusoidalProfile(h0=1e-3, omega_c=omega_c, tau0=0.0, tauf=1.0)
            with pytest.raises(ValueError, match="drive frequency"):
                WindowedSinusoidProfile(1e-3, omega_c, 1.0, tau0=0.0, tauf=5.0)
        # A non-finite amplitude or value would pass the rigidity check (NaN
        # compares false) and fail only later, in the kernel.
        for bad in (math.nan, math.inf, -math.inf):
            for make, match in (
                (lambda: SinusoidalProfile(bad, 1.0, 0.0, 10.0), "h0 must be finite"),
                (lambda: RampProfile(bad, 1.0, 0.0, 5.0), "h0 must be finite"),
                (lambda: WindowedSinusoidProfile(bad, 1.0, 1.0, 0.0, 5.0), "h0 must be finite"),
                (
                    lambda: PiecewiseConstantProfile(((1.0, 0.5), (1.0, bad))),
                    "segment 1 value h must be finite",
                ),
                (
                    lambda: SampledProfile(tau=[0.0, 1.0, 2.0], h=[0.0, bad, 0.0]),
                    "sample values h must be finite",
                ),
            ):
                with pytest.raises(ValueError, match=match):
                    make()


def test_overflowing_sample_slope_is_a_quadrature_error():
    # 0.05 / 1e-310 overflows; the kernel reports it, numpy stays quiet.
    prof = SampledProfile(tau=[0.0, 1e-310, 1.0], h=[0.0, 0.05, 0.0])
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            first_order_map(coeffs, prof)


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


def _peak_at_end_drives(count, seed):
    """Sinusoids and windowed drives whose cosine peaks where the (plateau's) interval ends."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tau0, duration = rng.uniform(-50.0, 50.0), rng.uniform(0.1, 20.0)
        phase, k = rng.uniform(-3.0, 3.0), int(rng.integers(1, 7))
        yield SinusoidalProfile(0.01, (k * math.pi - phase) / duration, tau0, tau0 + duration, phase)
        window = rng.uniform(0.01, 0.5) * duration
        omega_c = (k * math.pi - phase) / (duration - window)
        yield WindowedSinusoidProfile(0.01, omega_c, window, tau0, tau0 + duration, phase)


def test_peak_time_stays_inside_the_interval():
    # The peak's time (k*pi - phase)/omega_c can round one ulp past the
    # interval, where evaluate refuses it; the peak value stays |h0|.
    peaks = [
        SinusoidalProfile(
            0.01, 0.2708147413998397, -2.57513396358344, 3.8538390898467556, 1.4005319786585568
        ),
        *_peak_at_end_drives(2000, seed=23),
    ]
    # tau0 + (tauf - tau0) rounds past tauf; the drive is largest at that end.
    ends = [
        SinusoidalProfile(0.01, 1.0, -1.0, 3 * 2.0**-54, 2.0),
        WindowedSinusoidProfile(0.01, 1.0, 2.0**-60, -1.0, 3 * 2.0**-54, 2.0),
    ]
    for prof in peaks + ends:
        report = validate_rigidity(prof)
        assert prof.tau0 <= report.tau_at_sup <= prof.tauf, prof
        value = prof.evaluate(report.tau_at_sup)
        if isinstance(prof, SinusoidalProfile):
            assert abs(value) == pytest.approx(report.sup_h, rel=1e-6), prof
    assert {validate_rigidity(prof).sup_h for prof in peaks} == {0.01}


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
    assert abs(res.value - exact_oscillatory(prof, delta)) <= res.error_estimate


def test_small_phase_branch_is_continuous():
    # Values on either side of the small-phase crossover must agree to within
    # their error estimates: the co-rotating piece's |1 - delta| * 3 is just
    # below _SMALL_PHASE for one and just above it for the other.
    prof = SinusoidalProfile(h0=0.1, omega_c=1.0, tau0=0.0, tauf=3.0)
    deltas = (1.0 + _SMALL_PHASE / 3.0) * np.array([1.0 - 1e-15, 1.0 + 1e-15])
    phases = _piece_phases(prof, deltas)[:, 0]
    assert phases[0] < _SMALL_PHASE < phases[1]
    below, above = (oscillatory_integral(prof, delta) for delta in deltas)
    assert abs(below.value - above.value) <= below.error_estimate + above.error_estimate


@pytest.mark.parametrize("delta", [0.3, 2.0, 9.4])
def test_piecewise_integral_matches_simpson(delta):
    # Segment-aligned oracle: Simpson over a grid that straddles a jump
    # converges only at first order, so each constant piece is integrated
    # on its own.
    prof = PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01)))
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory_segmented(prof, delta, breakpoints=(0.0, 1.0, 3.5, 5.0))
    assert res.value == pytest.approx(oracle, abs=1e-9)
    assert abs(res.value - exact_oscillatory(prof, delta)) <= res.error_estimate


@pytest.mark.parametrize("delta", [0.5, 3.0, 11.0])
def test_ramp_integral_matches_simpson(delta):
    prof = RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)
    res = oscillatory_integral(prof, delta)
    oracle = simpson_oscillatory(prof, delta, min_points=16001)
    assert res.value == pytest.approx(oracle, abs=1e-7)
    assert abs(res.value - exact_oscillatory(prof, delta)) <= res.error_estimate


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
    assert abs(res.value - exact_oscillatory(prof, delta)) <= res.error_estimate


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


@pytest.mark.parametrize(
    "prof",
    [
        SinusoidalProfile(h0=0.1, omega_c=1.0, tau0=0.5, tauf=1.5),
        PiecewiseConstantProfile(segments=((0.5, 0.1), (0.5, -0.05)), tau0=0.5),
        RampProfile(h0=0.1, ramp_time=0.25, tau0=0.5, tauf=1.5),
        SampledProfile(tau=[0.5, 1.0, 1.5], h=[0.0, 0.1, 0.0]),
        WindowedSinusoidProfile(0.1, 3.0, 0.25, tau0=0.5, tauf=1.5),
    ],
    ids=lambda prof: type(prof).__name__,
)
def test_evaluate_outside_interval_raises(prof):
    for tau in (0.25, 1.75, np.array([1.0, 2.0]), np.array([[0.0], [1.0]])):
        with pytest.raises(ValueError, match="outside the profile interval"):
            prof.evaluate(tau)
    assert type(prof.evaluate(1.0)) is float
    assert [type(x) for x in prof.sup_abs()] == [float, float]
    grid = np.linspace(0.5, 1.5, 6).reshape(2, 3)
    values = prof.evaluate(grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    assert values[0, 0] == prof.evaluate(0.5) and values[1, 2] == prof.evaluate(1.5)


def test_plateau_end_is_the_term_table_last_node():
    # Summing the durations twice, once by Python and once by cumsum, can
    # give two ends: sum is compensated from Python 3.12, cumsum is not.
    prof = PiecewiseConstantProfile(segments=((0.1, 1e-3),) * 10)
    assert prof.tauf - prof.tau0 == prof._terms()[0][-1]


def test_map_loader_and_grid_share_one_rigidity_refusal(tmp_path):
    # h0 = 2.5 breaks the bound at tau = 0 for the map's profile and the
    # loader's, and for the grid's cosine drive, which starts at its peak.
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2))
    scenario = tmp_path / "rigid.yaml"
    scenario.write_text(
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 2.5, omega_c: 3.0, tauf: 5.0}\n",
        encoding="utf-8",
    )
    want = "rigidity bound |h| < 2 violated: sup|h| = 2.5 at tau = 0"
    with pytest.raises(ValueError) as refused:
        first_order_map(coeffs, SinusoidalProfile(2.5, 3.0, 0.0, 5.0))
    assert str(refused.value) == want
    with pytest.raises(ValueError) as refused:
        negativity_grid(coeffs, (1, 2), 1.0, 2.5, np.array([3.0]), np.array([5.0]))
    assert str(refused.value) == want
    with pytest.raises(ScenarioError) as refused:
        load_scenario(scenario)
    assert refused.value.diagnostics == [f"profile: {want}"]


def _crossover_deltas(centre, span):
    """Deltas with |mu - delta| * span from 1e-2 to 1e2 times _SMALL_PHASE, for mu = centre."""
    x = _SMALL_PHASE * np.logspace(-2.0, 2.0, 9)
    return centre + np.concatenate([x, -x[::3]]) / span


def _piece_phases(prof, deltas):
    """|theta| * span of every (delta, piece) element of the batch."""
    t, mu, lo, hi, _, _ = prof._terms()
    return np.abs(mu[lo][None, :] - deltas[:, None]) * (t[hi] - t[lo])


_NONUNIFORM_TAU = 8.0 * np.linspace(0.0, 1.0, 41) ** 1.5
_NONUNIFORM_H = 0.03 * np.random.default_rng(7).standard_normal(41)


def _uniform_trace(n, tau0, duration, seed):
    """A noisy drive sampled at n equally spaced times on [tau0, tau0 + duration]."""
    rng = np.random.default_rng(seed)
    tau = np.linspace(tau0, tau0 + duration, n)
    h = 1e-3 * np.cos(3.1 * tau) + 1e-4 * rng.standard_normal(n)
    return SampledProfile(tau=tau, h=h)


# (profile, deltas, oracle, tolerance); a tolerance of None is the kernel's
# own error estimate, checked against the exact integral.
BATCHED_CASES = {
    "sinusoidal": (
        SinusoidalProfile(h0=0.02, omega_c=2.3, tau0=1.5, tauf=21.5, phase=0.4),
        _crossover_deltas(2.3, 20.0),
        exact_oscillatory,
        None,
    ),
    "piecewise_constant": (
        PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01))),
        _crossover_deltas(0.0, 2.5),
        exact_oscillatory,
        None,
    ),
    "ramp": (
        RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5),
        _crossover_deltas(0.0, 6.4),
        exact_oscillatory,
        None,
    ),
    "sampled": (
        SampledProfile(tau=_NONUNIFORM_TAU, h=_NONUNIFORM_H),
        _crossover_deltas(0.0, 0.6),
        exact_oscillatory,
        None,
    ),
    "windowed_sinusoid": (
        WindowedSinusoidProfile(
            h0=0.05, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=12.0, phase=0.3
        ),
        _crossover_deltas(5.0, 8.0),
        lambda prof, d: simpson_oscillatory(prof, d, min_points=24001),
        1e-8,
    ),
    # dt = 0.125: near rows take the per-piece kernel, far rows the node sum.
    "uniform_trace": (
        _uniform_trace(401, 0.0, 50.0, 3),
        _crossover_deltas(0.0, 0.125),
        exact_oscillatory,
        None,
    ),
}


@pytest.mark.parametrize("variant", sorted(BATCHED_CASES))
def test_batched_kernel_straddles_small_phase_crossover(variant):
    prof, deltas, oracle, tol = BATCHED_CASES[variant]
    small = _piece_phases(prof, deltas) < _SMALL_PHASE
    if _uniform_chain(prof._terms()) is None:
        # Both branches in one batch, and in one row of the batch.
        assert np.any(small.any(axis=1) & (~small).any(axis=1))
    else:
        # Equal spans make each row near or far as a whole: both in one batch.
        assert small.all(axis=1).any() and (~small).all(axis=1).any()
    values, estimate = _fourier_integrals(prof._terms(), deltas)
    for delta, value in zip(deltas, values):
        assert abs(value - oracle(prof, delta)) <= (estimate if tol is None else tol)
        # A one-delta call evaluates the same element the same way.
        assert abs(oscillatory_integral(prof, delta).value - value) <= estimate


def test_ramp_and_its_resampled_trapezoid_agree():
    ramp = RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)
    trapezoid = ramp.restrict(ramp.tau0, ramp.tauf)
    assert ramp._terms()[4].size == 3
    assert trapezoid._terms()[4].size == trapezoid.tau.size - 1 == 3
    x = _SMALL_PHASE * np.logspace(-6.0, 2.0, 17)
    deltas = np.concatenate([x, -x[::4]])
    small = _piece_phases(ramp, deltas) < _SMALL_PHASE
    assert small.any() and not small.all()
    ramp_values, ramp_bound = _fourier_integrals(ramp._terms(), deltas)
    sampled_values, sampled_bound = _fourier_integrals(trapezoid._terms(), deltas)
    assert np.all(np.abs(ramp_values - sampled_values) <= ramp_bound + sampled_bound)


def _node_table_sizes(prof):
    """(nodes, pieces) of a profile's term table."""
    t, mu, lo, hi, start, slope = prof._terms()
    assert t.shape == mu.shape
    assert start.shape == slope.shape == t[lo].shape == t[hi].shape
    return t.size, start.size


def test_node_table_sizes_state_the_cost_model():
    # One exponential per node and delta: N samples, K + 1 plateau edges, four
    # ramp breakpoints, two nodes per sinusoid term, four window edges for each
    # of the windowed sinusoid's six frequencies.  A uniform trace of N samples
    # takes 2*sqrt(N) per far delta instead (test_uniform_chain_selection).
    trace = SampledProfile(tau=_NONUNIFORM_TAU, h=_NONUNIFORM_H)
    assert _node_table_sizes(trace) == (_NONUNIFORM_TAU.size, _NONUNIFORM_TAU.size - 1)
    plateaus = PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01)))
    assert _node_table_sizes(plateaus) == (4, 3)
    assert _node_table_sizes(RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)) == (4, 3)
    assert _node_table_sizes(RampProfile(h0=0.04, ramp_time=1.0, tau0=0.0, tauf=2.0)) == (3, 2)
    sinusoid = SinusoidalProfile(h0=0.02, omega_c=2.3, tau0=1.5, tauf=21.5, phase=0.4)
    assert _node_table_sizes(sinusoid) == (4, 2)
    windowed = WindowedSinusoidProfile(
        h0=0.05, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=12.0, phase=0.3
    )
    assert _node_table_sizes(windowed) == (24, 14)
    no_plateau = WindowedSinusoidProfile(h0=0.05, omega_c=5.0, window_time=2.0, tau0=0.0, tauf=4.0)
    assert _node_table_sizes(no_plateau) == (18, 12)
    # Neighbouring pieces share a node, read as slices rather than copies.
    for prof in (trace, plateaus, RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5)):
        _, _, lo, hi, _, _ = prof._terms()
        assert (lo, hi) == (slice(0, -1), slice(1, None))
    for prof in (trace, plateaus, sinusoid, windowed):
        deltas = np.array([0.0, 0.3, 2.3, 5.0, -7.0])
        values, estimate = _fourier_integrals(prof._terms(), deltas)
        for delta, value in zip(deltas, values):
            one = oscillatory_integral(prof, delta)
            assert one.evaluations == _node_table_sizes(prof)[1]
            assert one.error_estimate == estimate
            assert abs(one.value - value) <= estimate


def _sampled_trace(n, duration, seed):
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, duration, n)
    tau[1:-1] += rng.uniform(-0.2, 0.2, n - 2) * (duration / (n - 1))
    h = 1e-3 * np.cos(3.1 * tau) + 1e-4 * rng.standard_normal(n)
    return SampledProfile(tau=tau, h=h)


_X = np.logspace(-6.0, 1.0, 8)
# The mixing deltas omega_m - omega_n, m + n odd, of a cavity with mu0 L = 1000.
_HEAVY = omega_diff_matrix(Cavity1D(length=1.0, mu0=1000.0, n_max=4))[[1, 2, 3, 3], [0, 1, 2, 0]]
_HEAVY_TAU = np.linspace(0.0, 20.0, 201)

ESTIMATE_CASES = {
    # |delta| * span from 1e-6 to 10, on both sides of the crossover.
    "sampled": (_sampled_trace(41, 8.0, 7), np.concatenate([_X, -_X]) / 0.2),
    "ramp": (
        RampProfile(h0=0.04, ramp_time=1.3, tau0=0.5, tauf=9.5),
        np.concatenate([_X, -_X]) / 1.3,
    ),
    "piecewise_constant": (
        PiecewiseConstantProfile(segments=((1.0, 0.05), (2.5, -0.02), (1.5, 0.01)), tau0=-1.5),
        np.concatenate([[0.0], _X, -_X]) / 2.5,
    ),
    # Repros where the direct form had cancelled below a crossover of 1e-4.
    "eleven_samples": (
        SampledProfile(tau=np.linspace(0, 10, 11), h=1e-3 * np.sin(np.linspace(0, 10, 11))),
        np.array([1.5e-4, 1e-3, -1e-3]),
    ),
    "short_ramp": (RampProfile(1e-3, 1.0, 0.0, 3.0), np.array([1.5e-4, -1.5e-4, 1e-3])),
    # The desktop regime: a 201-sample trace driven at the lowest mixing delta.
    "heavy_field": (
        SampledProfile(tau=_HEAVY_TAU, h=1e-3 * np.cos(_HEAVY[0] * _HEAVY_TAU)),
        np.concatenate([_HEAVY, -_HEAVY]),
    ),
    # 4000 panels with |delta| * t up to 1e4 at the far end.
    "long_trace": (_sampled_trace(4001, 1000.0, 5), np.array([-10.0, 3.1, 0.02])),
    # The node sum: the same span and deltas on a uniform grid, a grid off
    # tau0 = 0 whose N is not a perfect square, and the smallest chain.
    "uniform_long_trace": (_uniform_trace(4001, 0.0, 1000.0, 5), np.array([-10.0, 3.1])),
    "uniform_shifted": (_uniform_trace(1001, -3.7, 30.0, 6), np.array([-9.0, 12.5, 200.0])),
    "uniform_smallest": (
        _uniform_trace(_UNIFORM_MIN_NODES, 0.0, 10.0, 7),
        np.array([1.0, -7.0, 50.0]),
    ),
}


@pytest.mark.parametrize("variant", sorted(ESTIMATE_CASES))
def test_error_estimate_bounds_the_exact_integral(variant):
    prof, deltas = ESTIMATE_CASES[variant]
    for delta in deltas:
        res = oscillatory_integral(prof, delta)
        assert abs(res.value - exact_oscillatory(prof, delta, dps=40)) <= res.error_estimate


def test_uniform_chain_selection():
    uniform = _uniform_trace(401, 0.0, 50.0, 3)
    step, _ = _uniform_chain(uniform._terms())
    assert step == 0.125
    # Every delta of the uniform estimate cases is a far row of the node sum.
    for name in ("uniform_long_trace", "uniform_shifted", "uniform_smallest"):
        prof, far_deltas = ESTIMATE_CASES[name]
        chain_step, _ = _uniform_chain(prof._terms())
        assert np.all(np.abs(far_deltas) * chain_step >= _SMALL_PHASE)
    jittered_tau = uniform.tau.copy()
    jittered_tau[200] += 1e-9 * step
    jittered = SampledProfile(tau=jittered_tau, h=uniform.h)
    short = _uniform_trace(_UNIFORM_MIN_NODES - 1, 0.0, 10.0, 7)
    analytic = [BATCHED_CASES[name][0] for name in BATCHED_CASES if name != "uniform_trace"]
    equal_ramp = RampProfile(h0=0.04, ramp_time=1.0, tau0=0.0, tauf=3.0)
    equal_plateaus = PiecewiseConstantProfile(segments=((1.0, 0.05), (1.0, -0.02), (1.0, 0.01)))
    deltas = _crossover_deltas(0.0, step)
    for prof in [jittered, short, equal_ramp, equal_plateaus, *analytic]:
        terms = prof._terms()
        assert _uniform_chain(terms) is None
        values, estimate = _fourier_integrals(terms, deltas)
        piece_values, piece_estimate = _piece_integrals(terms, deltas, 1e-10)
        assert np.array_equal(values, piece_values) and estimate == piece_estimate
    # On the uniform trace, far rows take the node sum and near rows the
    # per-piece kernel, bit for bit; the estimate covers both.
    terms = uniform._terms()
    far = np.abs(deltas) * step >= _SMALL_PHASE
    assert far.any() and not far.all()
    values, estimate = _fourier_integrals(terms, deltas)
    node_values, node_estimate = _node_sums(terms, *_uniform_chain(terms), deltas[far], 1e-10)
    piece_values, piece_estimate = _piece_integrals(terms, deltas[~far], 1e-10)
    assert np.array_equal(values[far], node_values)
    assert np.array_equal(values[~far], piece_values)
    assert estimate == max(node_estimate, piece_estimate)
    assert node_estimate < piece_estimate


def test_uniform_trace_one_delta_calls_agree_with_the_batch():
    # A heavy field's mixing deltas are near rows at dt = 0.125, its creation deltas far.
    prof = _uniform_trace(401, 0.0, 50.0, 11)
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=20.0, n_max=12))
    values, estimate = _fourier_integrals(prof._terms(), coeffs.deltas)
    assert np.any(np.abs(coeffs.deltas) * 0.125 >= _SMALL_PHASE)
    assert np.any(np.abs(coeffs.deltas) * 0.125 < _SMALL_PHASE)
    for delta, value in zip(coeffs.deltas, values):
        one = oscillatory_integral(prof, delta)
        assert one.evaluations == 400
        assert one.error_estimate <= estimate
        assert abs(one.value - value) <= estimate
