import math

import mpmath
import numpy as np
import pytest

from cavitymix import profiles
from cavitymix.bogoliubov import (
    compose,
    first_order_map,
    static_coefficients,
    verify_first_order_identities,
)
from cavitymix.profiles import (
    QuadratureError,
    SampledProfile,
    SinusoidalProfile,
    oscillatory_integral,
)
from cavitymix.spectrum import Cavity1D, omega_diff_matrix, omega_sum_matrix
from conftest import exact_oscillatory, simpson_oscillatory

ALPHA_12 = 2.0 * math.sqrt(2.0) / math.pi**2
BETA_12 = 2.0 * math.sqrt(2.0) / (27.0 * math.pi**2)


def unit_cavity(n_max=6):
    return Cavity1D(length=1.0, mu0=0.0, n_max=n_max)


def test_static_coefficient_literals():
    coeffs = static_coefficients(unit_cavity())
    assert coeffs.alpha_entry(1, 2) == pytest.approx(ALPHA_12, rel=1e-14)
    assert coeffs.beta_entry(1, 2) == pytest.approx(BETA_12, rel=1e-14)
    # (2, 3): 12 / (sqrt(6) pi^2), worked out by hand from the closed form.
    assert coeffs.alpha_entry(2, 3) == pytest.approx(12.0 / (math.sqrt(6.0) * math.pi**2), rel=1e-14)


@pytest.mark.parametrize("accessor", ["alpha_entry", "beta_entry", "a_entry", "b_entry"])
@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (5, 1), (1, 5)])
def test_entry_accessors_refuse_labels_outside_the_truncation(accessor, m, n):
    # Label 0 would otherwise read mode n_max through negative indexing.
    coeffs = static_coefficients(unit_cavity(4))
    map_ = first_order_map(coeffs, SinusoidalProfile(1e-3, math.pi, 0.0, 1.0))
    owner = map_ if accessor in ("a_entry", "b_entry") else coeffs
    with pytest.raises(ValueError, match="outside 1..n_max = 4"):
        getattr(owner, accessor)(m, n)


def test_static_coefficients_parity_and_diagonal():
    coeffs = static_coefficients(unit_cavity())
    for m in range(1, 7):
        assert coeffs.alpha_entry(m, m) == 0.0
        assert coeffs.beta_entry(m, m) == 0.0
        for n in range(1, 7):
            if (m + n) % 2 == 0:
                assert coeffs.alpha_entry(m, n) == 0.0
                assert coeffs.beta_entry(m, n) == 0.0


def test_static_coefficients_sign_structure():
    coeffs = static_coefficients(unit_cavity())
    # Mixing flips sign when the pair is swapped, creation does not.
    assert coeffs.alpha_entry(2, 1) == pytest.approx(-coeffs.alpha_entry(1, 2), rel=1e-14)
    assert coeffs.beta_entry(2, 1) == pytest.approx(coeffs.beta_entry(1, 2), rel=1e-14)


def test_static_coefficients_against_high_precision():
    # Massive cavity, evaluated independently at 50 digits.
    cavity = Cavity1D(length=1.0, mu0=10.0, n_max=4)
    coeffs = static_coefficients(cavity)
    with mpmath.workdps(50):
        pi = mpmath.pi
        w = lambda n: mpmath.sqrt(mpmath.mpf(100) + (pi * n) ** 2)
        for m, n in ((1, 2), (2, 3), (1, 4), (3, 4)):
            diff = w(m) - w(n)
            alpha = -2 * pi**2 * m * n / (diff**3 * mpmath.sqrt(w(m) * w(n)))
            beta = 2 * pi**2 * m * n / ((w(m) + w(n)) ** 3 * mpmath.sqrt(w(m) * w(n)))
            assert coeffs.alpha_entry(m, n) == pytest.approx(float(alpha), rel=1e-12)
            assert coeffs.beta_entry(m, n) == pytest.approx(float(beta), rel=1e-13)


def test_static_coefficients_depend_only_on_dimensionless_mass():
    base = static_coefficients(Cavity1D(length=1.0, mu0=3.0, n_max=8))
    for c in (2.0, 10.0):
        scaled = static_coefficients(Cavity1D(length=c, mu0=3.0 / c, n_max=8))
        assert np.max(np.abs(scaled.alpha_hat - base.alpha_hat)) <= 1e-12
        assert np.max(np.abs(scaled.beta_hat - base.beta_hat)) <= 1e-12


def test_static_arrays_are_frozen():
    coeffs = static_coefficients(unit_cavity())
    with pytest.raises(ValueError):
        coeffs.alpha_hat[0, 1] = 99.0


def test_resonant_map_literal():
    # Cosine drive at the (1, 2) difference frequency for an integer
    # number of periods: A[1, 2] = -i pi alpha h0 T / 2 exactly.
    h0, T = 1e-3, 50.0
    coeffs = static_coefficients(unit_cavity(2))
    prof = SinusoidalProfile(h0=h0, omega_c=math.pi, tau0=0.0, tauf=T)
    map_ = first_order_map(coeffs, prof)
    expected = -1j * math.pi * ALPHA_12 * h0 * T / 2.0
    assert map_.a_entry(1, 2) == pytest.approx(expected, rel=1e-12)
    assert map_.a_entry(2, 1) == pytest.approx(expected, rel=1e-12)


def test_resonant_growth_reaches_expected_magnitude():
    coeffs = static_coefficients(unit_cavity(2))
    prof = SinusoidalProfile(h0=1e-3, omega_c=math.pi, tau0=0.0, tauf=200.0)
    map_ = first_order_map(coeffs, prof)
    assert abs(map_.a_entry(1, 2)) == pytest.approx(math.pi * ALPHA_12 * 1e-3 * 200.0 / 2.0, rel=1e-10)


def test_creation_entry_stays_bounded_while_mixing_grows():
    coeffs = static_coefficients(unit_cavity(2))
    for dtau in (10.0, 100.0, 1000.0, 10000.0):
        prof = SinusoidalProfile(h0=1e-3, omega_c=math.pi, tau0=0.0, tauf=dtau)
        map_ = first_order_map(coeffs, prof)
        assert abs(map_.b_entry(1, 2)) <= 3.0 * BETA_12 * 1e-3


def test_map_entries_match_simpson_oracle():
    cavity = Cavity1D(length=1.3, mu0=0.8, n_max=4)
    coeffs = static_coefficients(cavity)
    prof = SinusoidalProfile(h0=0.01, omega_c=1.7, tau0=0.5, tauf=14.5, phase=0.2)
    map_ = first_order_map(coeffs, prof)
    diffs, sums = omega_diff_matrix(cavity), omega_sum_matrix(cavity)
    for m, n in ((1, 2), (3, 4), (1, 4)):
        delta = diffs[m - 1, n - 1]
        sigma = sums[m - 1, n - 1]
        a_expect = 1j * delta * coeffs.alpha_entry(m, n) * simpson_oscillatory(prof, delta)
        b_expect = 1j * sigma * coeffs.beta_entry(m, n) * simpson_oscillatory(prof, sigma)
        assert map_.a_entry(m, n) == pytest.approx(a_expect, abs=5e-9)
        assert map_.b_entry(m, n) == pytest.approx(b_expect, abs=5e-9)


def test_sampled_map_entries_match_scipy_oracle():
    # A 300-sample accelerometer-like trace: every odd entry comes from one
    # batched kernel call over its table of 299 pieces.
    from scipy.integrate import simpson

    rng = np.random.default_rng(5)
    tau = np.linspace(0.0, 50.0, 300)
    h = 1e-3 * np.cos(math.pi * tau + 0.3) + 1e-4 * rng.standard_normal(tau.size)
    prof = SampledProfile(tau=tau, h=h)
    cavity = Cavity1D(length=1.0, mu0=0.5, n_max=8)
    coeffs = static_coefficients(cavity)
    map_ = first_order_map(coeffs, prof)
    assert verify_first_order_identities(map_).passed
    # Simpson on a grid holding every sample, an even number of intervals per
    # panel, integrates the interpolant without straddling a kink.
    fine = np.linspace(0.0, 50.0, 299 * 200 + 1)

    def oracle(delta):
        return complex(simpson(np.exp(-1j * delta * fine) * np.interp(fine, tau, h), x=fine))

    diffs, sums = omega_diff_matrix(cavity), omega_sum_matrix(cavity)
    for m, n in ((1, 2), (2, 1), (3, 8), (7, 6)):
        delta = diffs[m - 1, n - 1]
        sigma = sums[m - 1, n - 1]
        a_expect = 1j * delta * coeffs.alpha_entry(m, n) * oracle(delta)
        b_expect = 1j * sigma * coeffs.beta_entry(m, n) * oracle(sigma)
        assert map_.a_entry(m, n) == pytest.approx(a_expect, abs=1e-10)
        assert map_.b_entry(m, n) == pytest.approx(b_expect, abs=1e-10)


@pytest.mark.parametrize("mu0", [0.0, 1.0])
def test_map_integrates_each_distinct_delta_once(monkeypatch, mu0):
    rng = np.random.default_rng(13)
    tau = np.linspace(0.0, 6.0, 40)
    h = 1e-3 * np.cos(2.0 * tau) + 1e-4 * rng.standard_normal(tau.size)
    prof = SampledProfile(tau=tau, h=h)
    cavity = Cavity1D(length=1.0, mu0=mu0, n_max=50)
    coeffs = static_coefficients(cavity)
    asked = []
    kernel = profiles._fourier_integrals

    def recording_kernel(terms, deltas, tol):
        asked.append(np.array(deltas))
        return kernel(terms, deltas, tol)

    monkeypatch.setattr(profiles, "_fourier_integrals", recording_kernel)
    map_ = first_order_map(coeffs, prof)
    (deltas,) = asked
    assert np.unique(deltas).size == deltas.size
    diffs, sums, odd = omega_diff_matrix(cavity), omega_sum_matrix(cavity), coeffs.odd
    # A[m, n] and A[n, m] read two separate integrals, I(delta) and I(-delta).
    assert set(diffs[odd]) <= set(deltas) and set(-diffs[odd]) <= set(deltas)
    integral = {d: oscillatory_integral(prof, d).value for d in deltas}
    for entries, freqs, hat in (
        (map_.a_hat, diffs, coeffs.alpha_hat),
        (map_.b_hat, sums, coeffs.beta_hat),
    ):
        expect = [1j * d * c * integral[d] for d, c in zip(freqs[odd], hat[odd])]
        assert np.max(np.abs(entries[odd] - expect)) <= map_.quadrature_error


def test_heavy_field_map_within_quadrature_error_of_exact():
    # The desktop regime: mu0 L = 1000 puts the mixing deltas at 0.015-0.074,
    # so |delta| * span is 1.5e-3 to 7.4e-3 on this 0.1 grid (the series
    # branch) while the sum frequencies near 2000 take the direct one.
    cavity = Cavity1D(length=1.0, mu0=1000.0, n_max=4)
    coeffs = static_coefficients(cavity)
    diffs, sums = omega_diff_matrix(cavity), omega_sum_matrix(cavity)
    tau = np.linspace(0.0, 20.0, 201)
    h = 1e-3 * np.cos(abs(diffs[0, 1]) * tau)
    h += 1e-4 * np.random.default_rng(17).standard_normal(tau.size)
    prof = SampledProfile(tau=tau, h=h)
    map_ = first_order_map(coeffs, prof)
    assert 0.0 < map_.quadrature_error < 1e-10
    for m, n in zip(*np.nonzero(coeffs.odd)):
        m, n = int(m) + 1, int(n) + 1
        for got, freq, coef in (
            (map_.a_entry(m, n), diffs[m - 1, n - 1], coeffs.alpha_entry(m, n)),
            (map_.b_entry(m, n), sums[m - 1, n - 1], coeffs.beta_entry(m, n)),
        ):
            exact = 1j * freq * coef * exact_oscillatory(prof, freq)
            assert abs(got - exact) <= map_.quadrature_error


def test_map_rejects_rigidity_violation():
    coeffs = static_coefficients(unit_cavity(2))
    prof = SinusoidalProfile(h0=2.5, omega_c=1.0, tau0=0.0, tauf=10.0)
    with pytest.raises(ValueError, match="rigidity"):
        first_order_map(coeffs, prof)


def test_map_warns_beyond_first_order_regime():
    coeffs = static_coefficients(unit_cavity(2))
    prof = SinusoidalProfile(h0=0.2, omega_c=1.0, tau0=0.0, tauf=10.0)
    with pytest.warns(UserWarning, match="first-order"):
        first_order_map(coeffs, prof)


def test_map_propagates_quadrature_error_budget():
    coeffs = static_coefficients(unit_cavity(2))
    prof = SinusoidalProfile(h0=1e-3, omega_c=math.pi, tau0=0.0, tauf=50.0)
    map_ = first_order_map(coeffs, prof)
    assert 0.0 < map_.quadrature_error < 1e-12
    with pytest.raises(QuadratureError):
        first_order_map(coeffs, prof, tol=1e-30)


def test_alpha_matrix_carries_free_phases():
    cavity = unit_cavity(3)
    coeffs = static_coefficients(cavity)
    prof = SinusoidalProfile(h0=1e-4, omega_c=2.0, tau0=0.0, tauf=3.0)
    map_ = first_order_map(coeffs, prof)
    alpha = map_.alpha_matrix()
    bare = np.eye(3) + map_.a_hat
    for k in range(3):
        phase = np.exp(1j * (k + 1) * math.pi * 3.0)
        assert alpha[k, k] == pytest.approx(phase * bare[k, k], rel=1e-12)
    assert bare[0, 0] == 1.0 + 0.0j
    beta = map_.beta_matrix()
    assert beta[0, 1] == pytest.approx(np.exp(1j * math.pi * 3.0) * map_.b_entry(1, 2), rel=1e-12)


def test_compose_validates_cavity_and_continuity():
    prof = SinusoidalProfile(h0=1e-3, omega_c=1.3, tau0=0.0, tauf=1.0)
    map_a = first_order_map(static_coefficients(unit_cavity(3)), prof)
    cav_b = Cavity1D(length=2.0, mu0=0.0, n_max=3)
    map_b = first_order_map(static_coefficients(cav_b), prof)
    with pytest.raises(ValueError, match="cavities"):
        compose(map_a, map_b)
    late = first_order_map(static_coefficients(unit_cavity(3)), prof.restrict(0.5, 1.0))
    with pytest.raises(ValueError, match="starts at"):
        compose(map_a, late)


def test_split_interval_composition_matches_whole():
    cavity = Cavity1D(length=1.0, mu0=0.3, n_max=5)
    coeffs = static_coefficients(cavity)
    prof = SinusoidalProfile(h0=0.02, omega_c=1.3, tau0=0.0, tauf=9.0, phase=0.4)
    whole = first_order_map(coeffs, prof)
    first = first_order_map(coeffs, prof.restrict(0.0, 3.7))
    second = first_order_map(coeffs, prof.restrict(3.7, 9.0))
    joined = compose(first, second)
    assert np.max(np.abs(joined.a_hat - whole.a_hat)) < 1e-12
    assert np.max(np.abs(joined.b_hat - whole.b_hat)) < 1e-12
    assert np.allclose(joined.phases, whole.phases, atol=1e-12)


def test_identities_hold_for_closed_form_profile():
    coeffs = static_coefficients(unit_cavity(5))
    prof = SinusoidalProfile(h0=1e-3, omega_c=2.7, tau0=0.0, tauf=11.0)
    report = verify_first_order_identities(first_order_map(coeffs, prof))
    assert report.passed
    assert report.anti_hermiticity_residual < 1e-10
    assert report.symmetry_residual < 1e-10
    assert report.parity_residual == 0.0


def test_bogoliubov_identity_residual_scales_quadratically():
    # alpha alpha^dag - beta beta^dag - 1 and alpha beta^T - beta alpha^T
    # are exact identities of the full transformation; truncating at first
    # order leaves residuals that must shrink by 4 when h0 halves.
    cavity = unit_cavity(4)
    coeffs = static_coefficients(cavity)

    def residuals(h0):
        prof = SinusoidalProfile(h0=h0, omega_c=math.pi, tau0=0.0, tauf=10.0)
        map_ = first_order_map(coeffs, prof)
        alpha = map_.alpha_matrix()
        beta = map_.beta_matrix()
        unitary = alpha @ alpha.conj().T - beta @ beta.conj().T - np.eye(4)
        cross = alpha @ beta.T - beta @ alpha.T
        return max(np.max(np.abs(unitary)), np.max(np.abs(cross)))

    coarse = residuals(2e-3)
    fine = residuals(1e-3)
    assert coarse < 1e-3
    assert coarse / fine == pytest.approx(4.0, rel=0.2)
