import math

import mpmath
import numpy as np
import pytest

from cavitymix import profiles, spectrum
from cavitymix.bogoliubov import (
    FirstOrderBogoliubovMap,
    compose,
    first_order_map,
    static_coefficients,
    verify_first_order_identities,
)
from cavitymix.profiles import (
    PiecewiseConstantProfile,
    QuadratureError,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
    oscillatory_integral,
)
from cavitymix.spectrum import DEFAULT_TOL, Cavity1D, omega_vector
from conftest import exact_oscillatory, gap_matrices, simpson_oscillatory

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
    assert coeffs.alpha_entry(2, 1) == -coeffs.alpha_entry(1, 2)
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
    diffs, sums = gap_matrices(cavity)
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

    diffs, sums = gap_matrices(cavity)
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
    assert_bits(deltas, coeffs.deltas)
    assert np.unique(deltas).size == deltas.size and np.all(deltas >= 0.0)
    (diffs, sums), odd = gap_matrices(cavity), spectrum._odd_entries(cavity.n_max)[0]
    # A[m, n] and A[n, m] read one integral, I(|delta|), and its conjugate.
    assert set(deltas) == set(np.abs(diffs[odd])) | set(sums[odd])
    # Each entry is still within the bound of a one-delta integral at its
    # signed frequency.
    signed = set(diffs[odd]) | set(sums[odd])
    integral = {d: oscillatory_integral(prof, d).value for d in signed}
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
    diffs, sums = gap_matrices(cavity)
    tau = np.linspace(0.0, 20.0, 201)
    h = 1e-3 * np.cos(abs(diffs[0, 1]) * tau)
    h += 1e-4 * np.random.default_rng(17).standard_normal(tau.size)
    prof = SampledProfile(tau=tau, h=h)
    map_ = first_order_map(coeffs, prof)
    assert 0.0 < map_.quadrature_error < 1e-10
    for m, n in zip(*np.nonzero(spectrum._odd_entries(cavity.n_max)[0])):
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


# The odd-entry table against the full-matrix formulas it replaced: every
# coefficient, map entry and composition must come out bit for bit the same.


def seeded_cavities(seed, count):
    """Massless and massive cavities over three decades of length, n_max 2 to 70."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        mu0 = 0.0 if k % 2 == 0 else float(10.0 ** rng.uniform(-2.0, 3.0))
        length = float(10.0 ** rng.uniform(-1.0, 1.0))
        yield Cavity1D(length=length, mu0=mu0, n_max=int(rng.integers(2, 71))), rng


def reference_coefficients(cavity):
    """(omega, alpha_hat, beta_hat, deltas, delta_index, entry_scale) over full matrices.

    The last two run over the half table: the odd pairs m < n in row-major
    order, first as A rows and then as B rows.
    """
    n = np.arange(1, cavity.n_max + 1, dtype=float)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    pairs = odd & (n[:, None] < n[None, :])
    omega = omega_vector(cavity)
    diffs, sums = gap_matrices(cavity)
    mn = n[:, None] * n[None, :]
    root = np.sqrt(omega[:, None] * omega[None, :])
    l4 = cavity.length**4
    safe_diffs = np.where(odd, diffs, 1.0)
    cubed = np.copysign(np.abs(safe_diffs) ** 3, safe_diffs)
    alpha = np.where(odd, -2.0 * math.pi**2 * mn / (l4 * cubed * root), 0.0)
    beta = np.where(odd, 2.0 * math.pi**2 * mn / (l4 * sums**3 * root), 0.0)
    gaps = np.abs(np.concatenate([diffs[pairs], sums[pairs]]))
    deltas, delta_index = np.unique(gaps, return_inverse=True)
    entry_scale = 1j * np.concatenate([diffs[pairs] * alpha[pairs], sums[pairs] * beta[pairs]])
    return omega, alpha, beta, deltas, delta_index, entry_scale


def reference_map(coeffs, profile):
    """(a_hat, b_hat) from the full-matrix formulas and the profile's integrals.

    `_integrals` integrates the table of |delta|; a negative frequency reads
    the conjugate of the integral at its negation, I(-delta) = conj I(delta),
    its imaginary part negated as 0 - y so that a +0.0 stays +0.0.
    """
    cavity = coeffs.cavity
    n = np.arange(cavity.n_max)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    table = coeffs.deltas
    values, _, _ = profile._integrals(table, DEFAULT_TOL)
    blocks = []
    for freqs, hat in zip(gap_matrices(cavity), (coeffs.alpha_hat, coeffs.beta_hat)):
        position = np.searchsorted(table, np.abs(freqs[odd]))
        assert_bits(table[position], np.abs(freqs[odd]))
        integral = values[position]
        integral.imag[freqs[odd] < 0.0] = 0.0 - integral.imag[freqs[odd] < 0.0]
        block = np.zeros((cavity.n_max, cavity.n_max), dtype=complex)
        block[odd] = 1j * (freqs[odd] * hat[odd]) * integral
        blocks.append(block)
    return blocks


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_coefficients_match_the_full_matrix_formulas_bit_for_bit():
    fields = ("omega", "alpha_hat", "beta_hat", "deltas", "delta_index", "entry_scale")
    for cavity, _ in seeded_cavities(31, 120):
        coeffs = static_coefficients(cavity)
        for field, want in zip(fields, reference_coefficients(cavity)):
            assert_bits(getattr(coeffs, field), want)


def test_order_is_the_stable_sort_of_the_half_table():
    # Rows stand in (kind, m, n) order, so ranking them stably by frequency
    # gives the catalog's (omega_r, kind, m, n) order.
    for cavity, _ in seeded_cavities(53, 200):
        coeffs = static_coefficients(cavity)
        gaps = coeffs.deltas[coeffs.delta_index]
        assert_bits(coeffs.order, np.argsort(gaps, kind="stable"))


def drives(rng, w):
    """The four analytic variants, weak and near the (1, 2) mixing line."""
    duration = float(rng.uniform(5.0, 30.0)) / w[0]
    h0, omega_c, phase = 1e-3, float(w[1] - w[0]), float(rng.uniform(0.0, 2.0 * math.pi))
    segments = zip(rng.dirichlet(np.ones(8)) * duration, rng.uniform(-h0, h0, 8))
    return (
        SinusoidalProfile(h0, omega_c, 0.0, duration, phase),
        RampProfile(h0, float(rng.uniform(0.1, 0.5)) * duration, 0.0, duration),
        WindowedSinusoidProfile(h0, omega_c, 0.1 * duration, 0.0, duration, phase),
        PiecewiseConstantProfile(tuple(segments)),
    )


def test_maps_and_compositions_match_the_full_matrix_formulas_bit_for_bit():
    for cavity, rng in seeded_cavities(37, 40):
        coeffs = static_coefficients(cavity)
        diffs, sums = gap_matrices(cavity)
        for profile in drives(rng, coeffs.omega):
            map_ = first_order_map(coeffs, profile)
            for got, want in zip((map_.a_hat, map_.b_hat), reference_map(coeffs, profile)):
                assert_bits(got, want)
            report = verify_first_order_identities(map_)
            assert report.parity_residual == 0.0
            assert report.anti_hermiticity_residual == 0.0
        whole = drives(rng, coeffs.omega)[0]
        cut = whole.tau0 + 0.4 * whole.duration
        first = first_order_map(coeffs, whole.restrict(whole.tau0, cut))
        second = first_order_map(coeffs, whole.restrict(cut, whole.tauf))
        joined = compose(first, second)
        dtau1 = first.duration
        assert_bits(joined.a_hat, first.a_hat + np.exp(-1j * diffs * dtau1) * second.a_hat)
        assert_bits(joined.b_hat, first.b_hat + np.exp(-1j * sums * dtau1) * second.b_hat)
        assert_bits(joined.phases, first.phases + second.phases)


def test_mixing_coefficients_are_exactly_antisymmetric():
    # Each difference is cubed as |w_m - w_n|^3 with its sign put back, so
    # the pair (m, n), (n, m) shares one value up to sign, and its A entries
    # one integral and its conjugate: both identity residuals are exactly 0.
    for cavity, rng in seeded_cavities(47, 400):
        coeffs = static_coefficients(cavity)
        assert np.array_equal(coeffs.alpha_hat, -coeffs.alpha_hat.T)
        assert_bits(coeffs.beta_hat, coeffs.beta_hat.T)
        # The scale of an odd entry, the same bit for bit at (m, n) and (n, m).
        (diffs, sums), odd = gap_matrices(cavity), spectrum._odd_entries(cavity.n_max)[0]
        for scale in (diffs * coeffs.alpha_hat, sums * coeffs.beta_hat):
            assert_bits(scale.T[odd], scale[odd])
        whole = drives(rng, coeffs.omega)[0]
        cut = whole.tau0 + 0.4 * whole.duration
        halves = [
            first_order_map(coeffs, whole.restrict(*span))
            for span in ((whole.tau0, cut), (cut, whole.tauf))
        ]
        for map_ in (first_order_map(coeffs, whole), compose(*halves)):
            report = verify_first_order_identities(map_)
            assert report.anti_hermiticity_residual == 0.0
            assert report.symmetry_residual == 0.0


# The fold: a map integrates each distinct |delta| once and reads I(-delta)
# as conj I(delta), which must match the profile's integrals asked for every
# signed delta.


def signed_map(coeffs, profile):
    """(a_hat, b_hat, quadrature_error) with `_integrals` asked for every signed delta.

    Over every odd entry of the full matrices, each times its own scale
    i (w_m -+ w_n) alpha_hat or beta_hat.
    """
    cavity = coeffs.cavity
    odd = spectrum._odd_entries(cavity.n_max)[0]
    diffs, sums = gap_matrices(cavity)
    gaps = np.concatenate([diffs[odd], sums[odd]])
    scale = 1j * np.concatenate([diffs[odd] * coeffs.alpha_hat[odd], sums[odd] * coeffs.beta_hat[odd]])
    signed, index = np.unique(gaps, return_inverse=True)
    values, estimate, _ = profile._integrals(signed, DEFAULT_TOL)
    blocks = np.zeros((2, cavity.n_max, cavity.n_max), dtype=complex)
    blocks[:, odd] = (scale * values[index]).reshape(2, -1)
    error = estimate * float(np.max(np.abs(scale)))
    return *blocks, error


_FOLD_RNG = np.random.default_rng(19)
_FOLD_TAU = np.linspace(0.3, 20.3, 201)  # dt = 0.1: a uniform chain, through the node sum
_FOLD_JITTERED = _FOLD_TAU + np.r_[0.0, _FOLD_RNG.uniform(-0.03, 0.03, 199), 0.0]
_FOLD_NOISE = 1e-4 * _FOLD_RNG.standard_normal(_FOLD_TAU.size)
_FOLD_SEGMENTS = tuple(
    zip(_FOLD_RNG.dirichlet(np.ones(20)) * 20.0, _FOLD_RNG.uniform(-1e-3, 1e-3, 20))
)

# Each profile as a function of the drive frequency, the (1, 2) mixing line.
FOLD_PROFILES = {
    "sinusoid": lambda w: SinusoidalProfile(1e-3, w, 0.3, 20.3, phase=0.4),
    "ramp": lambda w: RampProfile(1e-3, 3.0, 0.3, 20.3),
    "sampled_node_sum": lambda w: SampledProfile(
        _FOLD_TAU, 1e-3 * np.cos(w * _FOLD_TAU) + _FOLD_NOISE
    ),
    "sampled_per_piece": lambda w: SampledProfile(
        _FOLD_JITTERED, 1e-3 * np.cos(w * _FOLD_JITTERED) + _FOLD_NOISE
    ),
    "windowed_sinusoid": lambda w: WindowedSinusoidProfile(1e-3, w, 2.0, 0.3, 20.3, 0.4),
    "piecewise_constant": lambda w: PiecewiseConstantProfile(_FOLD_SEGMENTS, tau0=0.3),
}
# Here I(-delta) comes out bitwise equal to conj I(delta); on the other two
# kinds the sum over four or more pieces may round in another order when the
# batch, and so its chunk layout, changes.
EXACT_FOLD = ("sinusoid", "ramp", "sampled_node_sum", "sampled_per_piece")


@pytest.mark.parametrize("mu0", [0.0, 1.7])
@pytest.mark.parametrize("kind", sorted(FOLD_PROFILES))
def test_folded_map_matches_the_signed_kernel_map(kind, mu0):
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=mu0, n_max=24))
    profile = FOLD_PROFILES[kind](float(coeffs.omega[1] - coeffs.omega[0]))
    chain = profiles._uniform_chain(profile._terms())
    assert (chain is not None) == (kind == "sampled_node_sum")
    map_ = first_order_map(coeffs, profile)
    a_hat, b_hat, error = signed_map(coeffs, profile)
    assert_bits(map_.quadrature_error, error)
    if kind in EXACT_FOLD:
        assert_bits(map_.a_hat, a_hat)
        assert_bits(map_.b_hat, b_hat)
    else:
        moved = max(np.max(np.abs(map_.a_hat - a_hat)), np.max(np.abs(map_.b_hat - b_hat)))
        assert moved <= map_.quadrature_error


def test_delta_table_holds_each_gap_magnitude_once():
    # `_gaps` makes w_n - w_m the exact negation of w_m - w_n, and its sign
    # that of m - n, so the table of |delta| serves every entry bit for bit.
    for cavity, _ in seeded_cavities(43, 400):
        coeffs = static_coefficients(cavity)
        deltas = coeffs.deltas
        assert deltas[0] >= 0.0 and np.all(deltas[1:] > deltas[:-1])
        assert np.array_equal(np.unique(coeffs.delta_index), np.arange(deltas.size))
        (diffs, sums), odd = gap_matrices(cavity), spectrum._odd_entries(cavity.n_max)[0]
        pairs = np.triu(odd)  # the half table: odd pairs m < n, row-major
        assert_bits(deltas[coeffs.delta_index], np.concatenate([np.abs(diffs[pairs]), sums[pairs]]))
        # The half holds every gap magnitude of the full matrices.
        assert set(deltas) == set(np.abs(diffs[odd])) | set(sums[odd])
        rows, cols = np.indices(diffs.shape)
        assert np.array_equal(diffs < 0.0, rows < cols)
    # n_max 48 with mu0 > 0: 2,304 gaps over the odd entries, 1,152 over the
    # odd pairs m < n, all distinct.
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=1.0, n_max=48))
    assert coeffs.deltas.size == coeffs.delta_index.size == 1152


def test_compose_advances_each_entry_from_its_own_inputs():
    # Forged maps with every entry random, neither anti-Hermitian nor
    # symmetric nor zero where m + n is even: each entry, the mirror (n, m)
    # and the parity zeros too, must be advanced from its own inputs with
    # its own phase, not copied, conjugated or dropped.
    for cavity, rng in seeded_cavities(59, 60):
        n_max = cavity.n_max
        ends = np.cumsum(rng.uniform(0.5, 5.0, 3))
        maps = []
        for tau0, tauf in zip(ends[:-1], ends[1:]):
            shape = (2, n_max, n_max)
            blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            maps.append(
                FirstOrderBogoliubovMap(
                    cavity, float(tau0), float(tauf), *blocks, omega_vector(cavity) * (tauf - tau0)
                )
            )
        first, second = maps
        joined = compose(first, second)
        diffs, sums = gap_matrices(cavity)
        dtau1 = first.duration
        assert_bits(joined.a_hat, first.a_hat + np.exp(-1j * diffs * dtau1) * second.a_hat)
        assert_bits(joined.b_hat, first.b_hat + np.exp(-1j * sums * dtau1) * second.b_hat)


def test_odd_entry_table_is_cached_read_only_and_bounded():
    table = spectrum._odd_entries
    assert table.cache_info().maxsize <= 4
    for n_max in range(2, 71):
        odd, rows, cols, upper, lower, mn = table(n_max)
        n = np.arange(n_max)
        want = (n[:, None] + n[None, :]) % 2 == 1
        assert_bits(odd, want)
        half = want & (n[:, None] < n[None, :])  # the odd pairs m < n, row-major
        assert_bits(rows, np.nonzero(half)[0])
        assert_bits(cols, np.nonzero(half)[1])
        positions = np.arange(n_max * n_max).reshape(n_max, n_max)
        assert_bits(upper, positions[half])
        assert_bits(lower, positions.T[half])  # the flat position of (n, m)
        assert_bits(mn, (rows + 1.0) * (cols + 1.0))
        assert not any(array.flags.writeable for array in table(n_max))
        assert sum(array.nbytes for array in table(n_max)) <= 11 * n_max**2
        assert table(n_max) is table(n_max)
        assert table.cache_info().currsize <= table.cache_info().maxsize
    with pytest.raises(ValueError, match="read-only"):
        table(5)[3][0] = 1
