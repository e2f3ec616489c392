import math
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from cavitymix import gaussian
from cavitymix.bogoliubov import FirstOrderBogoliubovMap, first_order_map, static_coefficients
from cavitymix.gaussian import (
    CovarianceState,
    SymplecticPairingError,
    _quadratures,
    _symplectic,
    apply_symplectic,
    first_order_negativity,
    negativity,
    negativity_grid,
    partial_transpose,
    reduce_to_pair,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_map,
    symplectic_residual,
)
from cavitymix.profiles import _SMALL_PHASE, QuadratureError, SinusoidalProfile
from cavitymix.spectrum import Cavity1D
from conftest import exact_oscillatory, gap_matrices


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def two_mode_squeezed(r):
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * z])
    bottom = np.hstack([s * z, c * np.eye(2)])
    return np.vstack([top, bottom])


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    assert np.array_equal(omega, expected)


def test_mode_counts_are_integers_of_at_least_one():
    symplectic_form(2)  # cached: the cache must not hand 2.0 or 2.5 this entry
    for count in (2.5, 2.0, True, 0):
        with pytest.raises(ValueError, match="n_modes must be an integer >= 1"):
            symplectic_form(count)
        with pytest.raises(ValueError, match="n_modes must be an integer >= 1"):
            squeezed_vacuum(count, 1.0)


def test_vacuum_is_identity_with_unit_spectrum():
    state = squeezed_vacuum(3, 0.0)
    assert np.array_equal(state.sigma, np.eye(6))
    assert np.allclose(symplectic_eigenvalues(state.sigma), 1.0, atol=1e-12)


def test_squeezed_vacuum_is_pure_and_asymmetric():
    state = squeezed_vacuum(2, 0.8)
    assert np.allclose(np.diag(state.sigma), [math.e**0.8, math.e**-0.8] * 2, rtol=1e-14)
    assert np.allclose(symplectic_eigenvalues(state.sigma), 1.0, atol=1e-12)
    assert np.array_equal(squeezed_vacuum(2, 0.0).sigma, np.eye(4))
    for s in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="squeezing"):
            squeezed_vacuum(2, s)


def test_single_mode_squeezer_produces_squeezed_vacuum():
    s = 0.6
    gate = np.diag([math.exp(s / 2.0), math.exp(-s / 2.0)])
    out = apply_symplectic(squeezed_vacuum(1, 0.0), gate)
    assert np.allclose(out.sigma, squeezed_vacuum(1, s).sigma, atol=1e-14)


def test_rotations_preserve_vacuum_and_spectrum():
    theta = 0.9
    gate = rotation(theta)
    assert symplectic_residual(gate) < 1e-15
    out = apply_symplectic(squeezed_vacuum(1, 0.0), gate)
    assert np.allclose(out.sigma, np.eye(2), atol=1e-14)
    sq = squeezed_vacuum(1, 1.0)
    rotated = apply_symplectic(sq, gate)
    assert np.allclose(
        symplectic_eigenvalues(rotated.sigma), symplectic_eigenvalues(sq.sigma), atol=1e-12
    )


def test_symplectic_residual_flags_non_symplectic():
    assert symplectic_residual(np.diag([2.0, 1.0])) == pytest.approx(1.0)
    # A transformation is a finite, square, even-sized matrix, as a covariance is.
    with pytest.raises(ValueError, match="transformation must be a finite, square"):
        symplectic_residual(np.ones(4))
    with pytest.raises(ValueError, match="transformation must be a finite, square"):
        apply_symplectic(squeezed_vacuum(1, 1.0), [[1, 0], [0]])
    with pytest.raises(ValueError, match=r"transformation shape \(2, 2\) does not match state \(4, 4\)"):
        apply_symplectic(squeezed_vacuum(2, 0.5), np.eye(2))


def test_each_public_call_validates_each_matrix_once(monkeypatch):
    # A public call checks each input matrix once, and its internal hops
    # (apply_symplectic's residual, negativity's spectrum) reuse the checked
    # copy; apply_symplectic checks the transformation, and CovarianceState
    # the covariance it returns.
    calls = []
    check = gaussian._quadrature_matrix

    def counted(name, value):
        calls.append(name)
        return check(name, value)

    state = squeezed_vacuum(2, 0.5)
    gate = symplectic_from_map(resonant_map(1e-3, dtau=2.7), (1, 2))
    sigma = apply_symplectic(state, gate).sigma
    monkeypatch.setattr(gaussian, "_quadrature_matrix", counted)
    for call, want in (
        (lambda: apply_symplectic(state, gate), ["transformation", "covariance"]),
        (lambda: negativity(sigma), ["covariance"]),
        (lambda: partial_transpose(sigma), ["covariance"]),
        (lambda: symplectic_eigenvalues(sigma), ["matrix"]),
        (lambda: symplectic_residual(gate), ["transformation"]),
        (lambda: CovarianceState(sigma), ["covariance"]),
    ):
        calls.clear()
        call()
        assert calls == want


def test_callers_arrays_stay_untouched_and_writeable():
    # Each entry point works on its own checked copy: partial_transpose
    # flips the copy in place, and CovarianceState freezes the copy it keeps.
    state = squeezed_vacuum(2, 0.5)
    gate = np.array(symplectic_from_map(resonant_map(1e-3, dtau=2.7), (1, 2)))
    sigma = np.array(apply_symplectic(state, gate).sigma)
    assert not np.array_equal(partial_transpose(sigma), sigma)  # the flip reaches entries != 0
    for call, arg in (
        (partial_transpose, sigma),
        (negativity, sigma),
        (symplectic_eigenvalues, sigma),
        (symplectic_residual, gate),
        (lambda s: apply_symplectic(state, s), gate),
        (CovarianceState, sigma),
    ):
        before = arg.tobytes()
        call(arg)
        assert arg.flags.writeable and arg.tobytes() == before


def test_two_mode_squeezed_textbook_values():
    r = 0.3
    sigma = two_mode_squeezed(r)
    assert np.allclose(symplectic_eigenvalues(sigma), 1.0, atol=1e-12)
    tilde = symplectic_eigenvalues(partial_transpose(sigma))
    assert tilde[0] == pytest.approx(math.exp(-2.0 * r), rel=1e-12)
    assert tilde[1] == pytest.approx(math.exp(2.0 * r), rel=1e-12)
    assert negativity(sigma) == pytest.approx((math.exp(2.0 * r) - 1.0) / 2.0, rel=1e-12)


def test_product_squeezed_state_is_unentangled():
    sigma = squeezed_vacuum(2, 1.2).sigma
    assert negativity(sigma) == 0.0


def test_partial_transpose_involution_and_shape():
    sigma = two_mode_squeezed(0.4)
    assert np.allclose(partial_transpose(partial_transpose(sigma)), sigma, atol=1e-15)
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6))


def test_partial_transpose_flips_the_second_momentum_and_refuses_bad_input():
    rng = np.random.default_rng(41)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    for _ in range(50):
        sigma = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-6.0, 6.0)
        assert partial_transpose(sigma).tobytes() == (flip @ sigma @ flip).tobytes()
    with np.errstate(invalid="ignore"):
        infinite = np.eye(4) * np.inf  # 0 * inf puts NaN off the diagonal
    for bad in ([[1, 0], [0]], np.full((4, 4), np.nan), infinite):
        with pytest.raises(ValueError, match="covariance must be a finite, square"):
            partial_transpose(bad)
    # Refused before any product: no RuntimeWarning from a matmul comes first.
    with pytest.raises(ValueError, match="covariance must be a finite, square"):
        negativity(infinite)


@pytest.mark.parametrize(
    "bad, got",
    [
        (np.full((4, 4), np.nan), "shape (4, 4) with entries that are not finite"),
        ([[1, 0], [0]], "ragged rows or entries that are not real numbers"),
        (np.eye(3), "shape (3, 3)"),
    ],
    ids=["nan", "ragged", "odd"],
)
def test_matrix_refusals_are_one_line(bad, got):
    # The input's shape keeps every refusal on one line; a repr spans several.
    with pytest.raises(ValueError) as refused:
        partial_transpose(bad)
    message = str(refused.value)
    assert message == f"covariance must be a finite, square, even-sized matrix, got {got}"
    assert "\n" not in message


@pytest.mark.parametrize(
    "call", [partial_transpose, CovarianceState, symplectic_residual, symplectic_eigenvalues]
)
@pytest.mark.parametrize("bad", [np.eye(4) * (1 + 1j), np.eye(4, dtype=complex)], ids=["i", "0i"])
def test_complex_matrices_are_refused_not_cast_to_their_real_part(call, bad):
    # numpy's cast keeps the real part and says so only in a ComplexWarning.
    with pytest.raises(ValueError, match="entries that are not real numbers$"):
        call(bad)


def test_symplectic_eigenvalues_reject_non_covariance():
    with pytest.raises(SymplecticPairingError):
        symplectic_eigenvalues(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(SymplecticPairingError, match="real part up to 1.0"):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.eye(3))
    nan_sigma = np.full((4, 4), math.nan)
    for refuse in (symplectic_eigenvalues, negativity):
        with pytest.raises(ValueError, match="finite"):
            refuse(nan_sigma)


def test_covariance_state_validation():
    bad = np.eye(4)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceState(sigma=bad)
    with pytest.raises(ValueError):
        CovarianceState(sigma=0.5 * np.eye(2))  # violates the uncertainty bound
    # NaN compares False with every bound, so each guard must fail closed.
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            CovarianceState(sigma=np.full((2, 2), value))
        with pytest.raises(ValueError, match="finite"):
            CovarianceState(sigma=np.diag([1.0, 1.0, value, 1.0]))
    for tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(ValueError, match="psd_tol"):
            CovarianceState(sigma=0.5 * np.eye(2), psd_tol=tol)
    state = squeezed_vacuum(2, 0.0)
    with pytest.raises(ValueError):
        state.sigma[0, 0] = 3.0


def test_reduce_to_pair_picks_named_modes():
    sigma = np.diag([1.0, 1.0, 2.0, 0.6, 3.0, 0.5])
    state = CovarianceState(sigma=sigma, psd_tol=0.2)
    red = reduce_to_pair(state, (1, 3))
    assert np.allclose(np.diag(red.sigma_red), [1.0, 1.0, 3.0, 0.5])
    with pytest.raises(ValueError):
        reduce_to_pair(state, (2, 2))
    with pytest.raises(ValueError):
        reduce_to_pair(state, (1, 4))


def resonant_map(h0, dtau=2.0, n_max=2):
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=n_max)
    coeffs = static_coefficients(cavity)
    prof = SinusoidalProfile(h0=h0, omega_c=math.pi, tau0=0.0, tauf=dtau)
    return first_order_map(coeffs, prof)


def test_symplectic_from_map_identity_and_phases():
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=3)
    zero = np.zeros((3, 3), dtype=complex)
    free = FirstOrderBogoliubovMap(
        cavity=cavity, tau0=0.0, tauf=1.0, a_hat=zero, b_hat=zero, phases=np.array([0.3, 1.1, 2.0])
    )
    assert np.array_equal(symplectic_from_map(free, (1, 3)), np.eye(4))
    # With the free phases, the blocks of the full matrix are the mode rotations.
    s = _symplectic(free.alpha_matrix(), free.beta_matrix())
    for k, theta in enumerate(free.phases):
        assert np.allclose(s[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], rotation(theta), atol=1e-15)
    assert np.allclose(s[:2, 2:], 0.0, atol=1e-15)


def test_symplectic_from_map_matches_exponential_oracle():
    # A map with alpha = 1 + A for anti-Hermitian A agrees with the exact
    # group element exp(G) of the same generator to second order.
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=2)
    eps = 1e-4
    a = np.array([[0.0, 0.7 + 0.2j], [-0.7 + 0.2j, 0.0]], dtype=complex) * eps
    map_ = FirstOrderBogoliubovMap(
        cavity=cavity,
        tau0=0.0,
        tauf=1.0,
        a_hat=a,
        b_hat=np.zeros((2, 2), dtype=complex),
        phases=np.zeros(2),
    )
    s_first = symplectic_from_map(map_, (1, 2))
    generator = s_first - np.eye(4)
    s_exact = expm(generator)
    assert np.max(np.abs(s_first - s_exact)) < 4.0 * eps**2
    assert symplectic_residual(s_exact) < 1e-12


def test_pipeline_matches_closed_form_negativity():
    s = 0.7
    map_ = resonant_map(1e-3)
    gate = symplectic_from_map(map_, (1, 2))
    red = reduce_to_pair(squeezed_vacuum(2, s), (1, 2))
    out = apply_symplectic(red.state(), gate)
    full = negativity(out.sigma)
    closed = first_order_negativity(map_, (1, 2), s)
    assert closed == pytest.approx(abs(map_.a_entry(1, 2).imag) * math.sinh(s), rel=1e-14)
    assert full == pytest.approx(closed, abs=5e-6)


def test_negativity_invariant_under_free_phases():
    s = 0.9
    map_ = resonant_map(1e-3, dtau=2.7)
    red = reduce_to_pair(squeezed_vacuum(2, s), (1, 2))
    plain = negativity(apply_symplectic(red.state(), symplectic_from_map(map_, (1, 2))).sigma)
    phased_gate = _symplectic(map_.alpha_matrix(), map_.beta_matrix())[_quadratures(2, (1, 2))]
    phased = negativity(apply_symplectic(red.state(), phased_gate).sigma)
    assert phased == pytest.approx(plain, abs=1e-10)


@pytest.mark.parametrize("mu0", [0.0, 2.5])
@pytest.mark.parametrize("n_max", [2, 5, 16])
def test_pair_gate_is_a_slice_of_the_full_matrix(mu0, n_max):
    # The layout steps past first order and the all-mode gate pipeline rest
    # on: the pair gate is the full matrix's (q_m, p_m, q_n, p_n) slice, the
    # free rotation R factors off the phased matrix, and squeezing every
    # mode, applying the full gate and reducing to the pair reproduces the
    # closed-form negativity.
    cavity = Cavity1D(length=1.0, mu0=mu0, n_max=n_max)
    coeffs = static_coefficients(cavity)
    omega_c = float(coeffs.omega[1] - coeffs.omega[0])  # the (1, 2) mixing resonance
    map_ = first_order_map(coeffs, SinusoidalProfile(5e-5, omega_c, 0.0, 10.0))
    full = _symplectic(np.eye(n_max) + map_.a_hat, map_.b_hat)
    pairs = [(1, 2), (2, 1), (1, n_max), (n_max, 1)]
    for pair in pairs + ([(2, n_max), (n_max, 2)] if n_max > 3 else []):
        index = _quadratures(n_max, pair)
        assert np.array_equal(symplectic_from_map(map_, pair), full[index])
    rotation_all = _symplectic(np.diag(np.exp(1j * map_.phases)), 0)
    phased = _symplectic(map_.alpha_matrix(), map_.beta_matrix())
    assert np.max(np.abs(rotation_all @ full - phased)) <= 1e-15
    s = 0.8
    out = apply_symplectic(squeezed_vacuum(n_max, s), full)
    pipeline = negativity(reduce_to_pair(out, (1, 2)).sigma_red)
    assert pipeline == pytest.approx(first_order_negativity(map_, (1, 2), s), abs=5e-6)


def test_first_order_negativity_guard_rails():
    map_ = resonant_map(1e-3)
    for s in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="squeezing"):
            first_order_negativity(map_, (1, 2), s)
    loud = FirstOrderBogoliubovMap(
        cavity=map_.cavity,
        tau0=0.0,
        tauf=1.0,
        a_hat=map_.a_hat,
        b_hat=np.full((2, 2), 0.5) * np.abs(map_.a_hat),
        phases=np.zeros(2),
    )
    with pytest.warns(UserWarning, match="creation"):
        first_order_negativity(loud, (1, 2), 0.5)


SQUEEZING_SITES = {
    "squeezed_vacuum": lambda s: squeezed_vacuum(2, s),
    "first_order_negativity": lambda s: first_order_negativity(resonant_map(1e-3), (1, 2), s),
    "negativity_grid": lambda s: negativity_grid(
        static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2)),
        (1, 2), s, 1e-3, np.array([1.0, math.pi]), np.array([5.0, 10.0]),
    ),
}


@pytest.mark.parametrize("site", SQUEEZING_SITES)
def test_squeezing_whose_exponential_overflows_is_refused(site):
    # e^s overflows just past ln(largest float), 709.78, and sinh s a little
    # later: a named refusal rather than math's "math range error".
    call = SQUEEZING_SITES[site]
    largest = math.log(sys.float_info.max)
    call(100.0)  # the scenario loader's limit
    call(largest)
    for s in (math.nextafter(largest, math.inf), 710.5, 800.0, 1e300):
        with pytest.raises(ValueError, match="^squeezing parameter must be at most 709.78"):
            call(s)


def test_negativity_grid_shape_and_resonant_column():
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=2)
    coeffs = static_coefficients(cavity)
    omega_grid = np.array([0.75 * math.pi, math.pi, 1.25 * math.pi])
    dtau_grid = np.array([5.0, 10.0, 20.0])
    grid = negativity_grid(coeffs, (1, 2), 1.0, 1e-3, omega_grid, dtau_grid)
    assert grid.shape == (3, 3)
    expected = (
        math.pi * coeffs.alpha_entry(1, 2) * 1e-3 * dtau_grid / 2.0 * math.sinh(1.0)
    )
    assert np.allclose(grid[:, 1], expected, rtol=1e-9)
    assert np.all(grid[:, 1] >= grid[:, 0]) and np.all(grid[:, 1] >= grid[:, 2])
    zero = negativity_grid(coeffs, (1, 2), 0.0, 1e-3, omega_grid, dtau_grid)
    assert np.array_equal(zero, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        negativity_grid(coeffs, (1, 2), 1.0, 1e-3, np.array([]), dtau_grid)
    with pytest.raises(ValueError):
        negativity_grid(coeffs, (1, 2), -1.0, 1e-3, omega_grid, dtau_grid)


def test_negativity_grid_matches_per_cell_maps():
    # The broadcast closed form against one first_order_map per cell.  The
    # columns include the resonance itself and a drive a hair off it, where
    # the kernel takes its small-phase branch, and a static drive.
    cavity = Cavity1D(length=1.0, mu0=0.4, n_max=4)
    coeffs = static_coefficients(cavity)
    resonance = abs(gap_matrices(cavity)[0][0, 1])
    omega_grid = np.concatenate([[0.0, resonance, resonance + 1e-7], np.linspace(2.0, 4.5, 6)])
    dtau_grid = np.linspace(3.0, 30.0, 5)
    s, h0 = 0.8, 1e-4
    grid = negativity_grid(coeffs, (1, 2), s, h0, omega_grid, dtau_grid)
    for i, dtau in enumerate(dtau_grid):
        for j, omega_c in enumerate(omega_grid):
            map_ = first_order_map(coeffs, SinusoidalProfile(h0, omega_c, 0.0, dtau))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # off resonance |B| is not << |A|
                cell = first_order_negativity(map_, (1, 2), s)
            assert grid[i, j] == pytest.approx(cell, rel=1e-14, abs=0.0)


def test_negativity_grid_near_the_resonance_column_matches_exact():
    # Cells whose |omega_c - |delta|| * dtau falls on both sides of the series
    # crossover, against the exact integral of the two-term sinusoid.
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=4)
    coeffs = static_coefficients(cavity)
    delta = gap_matrices(cavity)[0][0, 1]
    offsets = np.array([0.0, 0.005, -0.005, 0.012, -0.02, 0.03, -0.06, 0.1])
    omega_grid = abs(delta) + offsets
    dtau_grid = np.array([4.0, 10.0, 25.0])
    phases = np.abs(offsets[None, :]) * dtau_grid[:, None]
    assert np.any((phases > 0.0) & (phases < _SMALL_PHASE)) and np.any(phases > _SMALL_PHASE)
    s, h0 = 1.0, 1e-3
    grid = negativity_grid(coeffs, (1, 2), s, h0, omega_grid, dtau_grid)
    scale = delta * coeffs.alpha_entry(1, 2) * math.sinh(s)
    for i, dtau in enumerate(dtau_grid):
        for j, omega_c in enumerate(omega_grid):
            exact = exact_oscillatory(SinusoidalProfile(h0, omega_c, 0.0, dtau), delta)
            assert abs(grid[i, j] - abs((1j * scale * exact).imag)) <= 1e-12 * grid.max()


@pytest.mark.parametrize(
    "pair, match",
    [((0, 1), "outside"), ((1, 0), "outside"), ((5, 1), "outside"), ((1, 5), "outside"),
     ((2, 2), "distinct"), ((1, 2, 3), "pair"), ((1,), "pair")],
)
@pytest.mark.parametrize(
    "entry_point",
    ["first_order_negativity", "negativity_grid", "reduce_to_pair", "symplectic_from_map"],
)
def test_pair_entry_points_refuse_bad_labels(entry_point, pair, match):
    # On a 4-mode cavity label 0 would otherwise read mode 4, and (2, 2) a
    # zero diagonal entry.
    cavity = Cavity1D(length=1.0, mu0=0.0, n_max=4)
    coeffs = static_coefficients(cavity)
    map_ = first_order_map(coeffs, SinusoidalProfile(5e-5, math.pi, 0.0, 10.0))
    calls = {
        "first_order_negativity": lambda: first_order_negativity(map_, pair, 1.0),
        "negativity_grid": lambda: negativity_grid(
            coeffs, pair, 1.0, 5e-5, np.array([math.pi]), np.array([10.0])
        ),
        "reduce_to_pair": lambda: reduce_to_pair(squeezed_vacuum(4, 1.0), pair),
        "symplectic_from_map": lambda: symplectic_from_map(map_, pair),
    }
    with pytest.raises(ValueError, match=match):
        calls[entry_point]()


def test_negativity_grid_warns_beyond_first_order_as_the_map_does():
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2))
    omega_grid, dtau_grid = np.array([1.0, math.pi]), np.array([5.0, 10.0])
    with pytest.warns(UserWarning, match="first-order") as grid_warning:
        negativity_grid(coeffs, (1, 2), 1.0, 0.2, omega_grid, dtau_grid)
    with pytest.warns(UserWarning, match="first-order") as map_warning:
        first_order_map(coeffs, SinusoidalProfile(0.2, math.pi, 0.0, 10.0))
    assert [str(w.message) for w in grid_warning] == [str(w.message) for w in map_warning]
    assert grid_warning[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        negativity_grid(coeffs, (1, 2), 1.0, 1e-3, omega_grid, dtau_grid)


def test_negativity_grid_keeps_the_profile_checks():
    coeffs = static_coefficients(Cavity1D(length=1.0, mu0=0.0, n_max=2))
    omega_grid = np.array([1.0, math.pi])
    dtau_grid = np.array([5.0, 10.0])
    for bad in (-1.0, math.nan):  # NaN fails the sign, as in `_check_number`
        with pytest.raises(ValueError, match=f"^omega_c_values must be nonnegative, got {bad}$"):
            negativity_grid(coeffs, (1, 2), 1.0, 1e-3, np.array([bad, 1.0]), dtau_grid)
    for s in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="squeezing"):
            negativity_grid(coeffs, (1, 2), s, 1e-3, omega_grid, dtau_grid)
    with pytest.raises(ValueError):
        negativity_grid(coeffs, (1, 2), 1.0, 1e-3, omega_grid, np.array([0.0, 5.0]))
    with pytest.raises(ValueError):
        negativity_grid(coeffs, (1, 2), 1.0, 1e-3, omega_grid, np.array([np.nan]))
    # An infinite axis is bad input, as `SinusoidalProfile` says, not a quadrature failure.
    for axes, name in (
        ((np.array([1.0, math.inf]), dtau_grid), "omega_c_values"),
        ((omega_grid, np.array([5.0, math.inf])), "delta_tau_values"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            negativity_grid(coeffs, (1, 2), 1.0, 1e-3, *axes)
    # A drive that breaks rigidity, which first_order_map refuses too.
    for h0 in (5.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rigidity bound"):
            negativity_grid(coeffs, (1, 2), 1.0, h0, omega_grid, dtau_grid)
    # A rounding bound, about 177 eps |h0| dtau, above the default tolerance of 1e-10.
    with pytest.raises(QuadratureError), pytest.warns(UserWarning, match="first-order"):
        negativity_grid(coeffs, (1, 2), 1.0, 1.0, omega_grid, np.array([1e5]))
    # A drive frequency whose phase over the duration is beyond float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the grid reports overflow, numpy stays quiet
        with pytest.raises(QuadratureError, match="not finite"):
            negativity_grid(coeffs, (1, 2), 1.0, 1e-3, np.array([1e308]), dtau_grid)
