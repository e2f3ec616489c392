"""Gaussian states, symplectic transforms, and negativity.

Quadratures are ordered (q1, p1, q2, p2, ...) with commutators
[X_i, X_j] = i Omega_ij, where the only nonvanishing components of the
symplectic form are Omega_{2i-1,2i} = -Omega_{2i,2i-1} = 1 (1-based).
A state is its covariance matrix sigma_ij = <X_i X_j + X_j X_i>/2,
normalized so the vacuum is the identity.  Every state here has zero first
moments, and the entanglement of a Gaussian state does not depend on them,
so none are stored.

Squeezing convention.  squeezed_vacuum assigns each mode the covariance
diag(e^s, e^{-s}).  With this normalization the mixing pipeline below
reproduces the closed form N = |Im A[m, n]| sinh s exactly at first order,
which is the anchor the convention is chosen against (a diag(e^{2s},
e^{-2s}) block would land on sinh 2s instead).

A Bogoliubov map with complex n x n blocks alpha and beta acts on the
quadratures of all n modes, in this layout (Weedbrook et al., Rev. Mod.
Phys. 84 (2012) 621), by the real 2n x 2n matrix

    S[block i, block j] = [[Re(alpha + beta)_ij, -Im(alpha - beta)_ij],
                           [Im(alpha + beta)_ij,  Re(alpha - beta)_ij]],

which for beta = 0 and alpha = e^{i theta} reduces to a rotation by theta.
A mode pair's 4x4 is the slice (q_m, p_m, q_n, p_n) of S, the same index
reduce_to_pair takes from sigma.  The gate `symplectic_from_map` slices S
of alpha = 1 + A and beta = B: it leaves out the free phases, local
rotations under which the symplectic spectrum of any reduction's partial
transpose is invariant; the map's `alpha_matrix()` and `beta_matrix()`
carry them.  S is symplectic up to O(h^2); apply_symplectic widens the
bona-fide tolerance of the output state accordingly.  Restricting to the
pair is justified at first order: a pure state stays pure and the reduced
state of two modes depends only on the coefficients mixing those two modes.

Entanglement of a two-mode reduction is quantified by the smallest
symplectic eigenvalue nu of the partial transpose P sigma P with
P = diag(1, 1, 1, -1): the negativity is max{0, (1/nu - 1)/2}.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from . import _Value
from .bogoliubov import FirstOrderBogoliubovMap, StaticCoefficients, _first_order_drive
from .profiles import _CHUNK_ELEMENTS, RigidityReport, _check_finite, _rounding_estimate
from .spectrum import (
    DEFAULT_TOL, RIGIDITY_BOUND, _check_count, _check_modes, _check_number, _check_real, _gaps,
)

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
PAIRING_TOL = 1e-8
B_OVER_A_REGIME = 0.01
# The largest squeezing whose e^s, the widest variance of the state, is a
# finite float; sinh s overflows a little later.
_SQUEEZING_MAX = math.log(sys.float_info.max)


class SymplecticPairingError(RuntimeError):
    """Eigenvalues of Omega sigma are not pure-imaginary conjugate pairs."""


@functools.lru_cache(maxsize=8, typed=True)  # typed: 2.0 must not hit the entry of 2
def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form for the (q1, p1, q2, p2, ...) ordering.

    Built once per size and returned read-only.
    """
    _check_count("n_modes", n_modes)
    omega = np.kron(np.eye(n_modes, dtype=int), [[0, 1], [-1, 0]]).astype(float)  # no -0.0
    omega.setflags(write=False)
    return omega


def _quadrature_matrix(name: str, value) -> tuple[np.ndarray, np.ndarray]:
    """`value` as a new float array, and its symplectic form; real, finite, square, even-sized."""
    try:
        # A copy, so the caller's array stays writeable; non-finite entries get the message below.
        matrix = np.array(_check_real(name, value, finite=False))
    except ValueError:
        matrix = None
    if matrix is None:
        got = "ragged rows or entries that are not real numbers"
    else:
        finite = bool(np.isfinite(matrix).all())
        square = matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]
        if square and matrix.shape[0] % 2 == 0 and finite:
            return matrix, symplectic_form(matrix.shape[0] // 2)
        got = f"shape {matrix.shape}" + ("" if finite else " with entries that are not finite")
    # The shape, not the value: a repr would span lines.
    raise ValueError(f"{name} must be a finite, square, even-sized matrix, got {got}")


def symplectic_residual(s: np.ndarray) -> float:
    """Max-norm deviation of S Omega S^T from Omega."""
    return _residual(*_quadrature_matrix("transformation", s))


def _residual(s: np.ndarray, omega: np.ndarray) -> float:
    """`symplectic_residual` of an S that `_quadrature_matrix` has already checked."""
    return float(np.abs(s @ omega @ s.T - omega).max())


class CovarianceState(_Value, eq=False):
    """N-mode Gaussian state with zero first moments: its covariance matrix.

    `psd_tol` is the tolerance of the bona-fide check (eigenvalues of
    sigma + i Omega must exceed -psd_tol); transformations that are
    symplectic only to O(h^2) widen it on their output.
    """

    sigma: np.ndarray
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        sigma, omega = _quadrature_matrix("covariance", self.sigma)
        _check_number("psd_tol", self.psd_tol, "nonnegative")
        if not np.abs(sigma - sigma.T).max() <= SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        bound = float(np.linalg.eigvalsh(sigma + 1j * omega).min())
        if not -bound <= self.psd_tol:
            raise ValueError(
                f"sigma + i Omega has eigenvalue {bound}, below -{self.psd_tol}: "
                "not a bona fide Gaussian state"
            )
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


def squeezed_vacuum(n_modes: int, s: float) -> CovarianceState:
    """Product state with every mode squeezed by s along the same quadrature.

    Per-mode covariance diag(e^s, e^{-s}); see the module docstring for why
    this normalization and not diag(e^{2s}, e^{-2s}).  Each block has unit
    determinant, so the state is pure.
    """
    _check_count("n_modes", n_modes)
    _check_squeezing(s)
    diag = np.empty(2 * n_modes)
    diag[0::2] = math.exp(s)
    diag[1::2] = math.exp(-s)
    return CovarianceState(sigma=np.diag(diag))


def _check_squeezing(s: float) -> None:
    _check_number("squeezing parameter", s, "nonnegative")
    if s > _SQUEEZING_MAX:
        raise ValueError(
            f"squeezing parameter must be at most {_SQUEEZING_MAX!r}, "
            f"beyond which e^s overflows, got {s}"
        )


def apply_symplectic(state: CovarianceState, s: np.ndarray) -> CovarianceState:
    """Transform sigma -> S sigma S^T."""
    s, omega = _quadrature_matrix("transformation", s)
    if s.shape != state.sigma.shape:
        raise ValueError(
            f"transformation shape {s.shape} does not match state {state.sigma.shape}"
        )
    tol = max(state.psd_tol, 10.0 * _residual(s, omega), PSD_TOL)
    return CovarianceState(sigma=s @ state.sigma @ s.T, psd_tol=tol)


class TwoModeReduction(_Value, eq=False):
    """Reduced 4x4 covariance of one mode pair, labels 1-based."""

    pair: tuple[int, int]
    sigma_red: np.ndarray

    def state(self) -> CovarianceState:
        return CovarianceState(sigma=self.sigma_red)


def _quadratures(n_modes: int, pair: tuple[int, int]):
    """Index of the 4x4 block of the (1-based) pair's quadratures (q_m, p_m, q_n, p_n)."""
    i, j = _check_modes(n_modes, pair, distinct=True)
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    return [[k] for k in idx], idx


def _symplectic(alpha, beta) -> np.ndarray:
    """Real 2n x 2n quadrature matrix of the complex n x n blocks alpha, beta."""
    plus = alpha + beta
    minus = alpha - beta
    n = plus.shape[0]
    s = np.empty((2 * n, 2 * n))
    s[0::2, 0::2] = plus.real
    s[0::2, 1::2] = -minus.imag
    s[1::2, 0::2] = plus.imag
    s[1::2, 1::2] = minus.real
    return s


def reduce_to_pair(state: CovarianceState, pair: tuple[int, int]) -> TwoModeReduction:
    """Discard all modes except the (1-based) pair."""
    return TwoModeReduction(pair=pair, sigma_red=state.sigma[_quadratures(state.n_modes, pair)])


def symplectic_from_map(map_: FirstOrderBogoliubovMap, pair: tuple[int, int]) -> np.ndarray:
    """4x4 quadrature action of the phase-free map 1 + A, B on the (1-based) pair."""
    i, j = _check_modes(map_.cavity.n_max, pair, distinct=True)
    modes = [[i], [j]], [i, j]
    return _symplectic(np.eye(2) + map_.a_hat[modes], map_.b_hat[modes])


def partial_transpose(sigma_red: np.ndarray) -> np.ndarray:
    """P sigma P with P = diag(1, 1, 1, -1): time reversal of the second mode."""
    flipped, _ = _quadrature_matrix("covariance", sigma_red)
    if flipped.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 covariance, got {flipped.shape}")
    flipped[3] *= -1.0
    flipped[:, 3] *= -1.0
    return flipped


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Moduli {nu} of the pure-imaginary eigenvalue pairs of Omega sigma.

    Raises SymplecticPairingError when the spectrum is not pure-imaginary
    conjugate pairs to PAIRING_TOL, which signals a non-covariance input.
    Returned ascending, one value per mode.
    """
    return _spectrum(*_quadrature_matrix("matrix", sigma))


def _spectrum(sigma: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """`symplectic_eigenvalues` of a sigma that `_quadrature_matrix` has already checked."""
    eigs = np.linalg.eigvals(omega @ sigma)
    scale = max(1.0, float(np.abs(eigs).max()))
    worst_real = float(np.abs(eigs.real).max())
    if not worst_real <= PAIRING_TOL * scale:
        raise SymplecticPairingError(
            f"eigenvalues of Omega sigma have real part up to {worst_real}; "
            "input is not a covariance matrix"
        )
    imag = eigs.imag.copy()
    imag.sort()
    mismatch = float(np.abs(imag + imag[::-1]).max())
    if not mismatch <= PAIRING_TOL * scale:
        raise SymplecticPairingError(
            f"eigenvalues of Omega sigma fail conjugate pairing by {mismatch}"
        )
    return imag[imag.size // 2 :]


def negativity(sigma_red: np.ndarray) -> float:
    """max{0, (1/nu - 1)/2} with nu the smallest symplectic eigenvalue of the
    partial transpose; positive exactly when the pair is entangled."""
    nu = float(_spectrum(partial_transpose(sigma_red), symplectic_form(2))[0])
    if nu <= 0.0:
        raise ValueError(f"degenerate covariance: smallest symplectic eigenvalue {nu}")
    return max(0.0, (1.0 / nu - 1.0) / 2.0)


def first_order_negativity(
    map_: FirstOrderBogoliubovMap, pair: tuple[int, int], s: float
) -> float:
    """Closed-form negativity |Im A[m, n]| sinh s of the mixed pair.

    Valid for a product input with both modes squeezed by s when the
    creation entry B[m, n] is negligible against A[m, n]; warns outside
    that regime (|B| > 0.01 |A|).
    """
    _check_squeezing(s)
    entry = _check_modes(map_.cavity.n_max, pair, distinct=True)
    a, b = complex(map_.a_hat[entry]), complex(map_.b_hat[entry])
    if abs(b) > B_OVER_A_REGIME * abs(a):
        warnings.warn(
            f"|B{pair}| = {abs(b):.3g} is not negligible against |A{pair}| = "
            f"{abs(a):.3g}; the closed form drops the creation channel",
            stacklevel=2,
        )
    return abs(a.imag) * math.sinh(s)


def negativity_grid(
    coeffs: StaticCoefficients,
    pair: tuple[int, int],
    s: float,
    h0: float,
    omega_c_values: np.ndarray,
    delta_tau_values: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """First-order negativity under a cosine drive, over a frequency/duration grid.

    Cell [i, j] holds |Im A[m, n]| sinh s for drive frequency
    omega_c_values[j] sustained for delta_tau_values[i].  The column at the
    mixing resonance |omega_m - omega_n| grows linearly in the duration;
    every other column stays bounded.

    The Fourier integral of the drive is one broadcast closed form over the
    grid, the moment of `SinusoidalProfile._integrals` for its two pieces,
    of which a cell needs only the real part, sin(theta*dtau)/theta per
    piece.  The grid makes the checks a per-cell profile and
    `oscillatory_integral` would make: ValueError for a negative frequency,
    a non-positive duration or either one not finite, QuadratureError when
    the rounding bound exceeds `tol` or a cell is not finite.  A drive with
    |h0| at or above the rigidity bound is refused, and one above 0.1
    warned about, as `first_order_map` does.
    """
    omega_c_values = _check_real("omega_c_values", omega_c_values, "nonnegative")
    delta_tau_values = _check_real("delta_tau_values", delta_tau_values, "positive")
    _check_number("h0", h0, finite=False)  # NaN and infinity break the rigidity bound below
    if omega_c_values.size == 0 or delta_tau_values.size == 0:
        raise ValueError("both grid axes must be nonempty")
    _check_squeezing(s)
    # h0 cos(omega_c t) reaches |h0| at t = 0, whatever the cell.
    _first_order_drive(RigidityReport(abs(h0) < RIGIDITY_BOUND, abs(h0), 0.0))
    entry = _check_modes(coeffs.cavity.n_max, pair, distinct=True)
    delta = float(_gaps(coeffs.cavity, coeffs.omega, *entry)[0])
    scale = delta * coeffs.alpha_hat[entry]
    # h0 cos(omega_c t) on [0, dtau] is the piece pair (h0/2) exp(+-i omega_c t).
    longest = np.full(2, float(delta_tau_values.max()))
    _rounding_estimate(np.full(2, 0.5 * abs(h0)), longest, longest, tol)
    # A cell is |Im(i*scale*I)| = |scale * Re I|, and Re I is (h0/2) times the
    # sum over theta = +-omega_c - delta of integral_0^dtau cos(theta*u) du.
    weight = abs(0.5 * h0 * scale) * math.sinh(s)
    thetas = omega_c_values - delta, -omega_c_values - delta
    grid = np.empty((delta_tau_values.size, omega_c_values.size))
    rows = max(1, _CHUNK_ELEMENTS // omega_c_values.size)
    with np.errstate(all="ignore"):
        for start in range(0, delta_tau_values.size, rows):
            span = delta_tau_values[start : start + rows, None]
            moment = _cosine_moment(thetas[0], span, grid[start : start + rows])
            moment += _cosine_moment(thetas[1], span, np.empty_like(moment))
            np.abs(moment, out=moment)
            moment *= weight
    _check_finite(grid)
    return grid


def _cosine_moment(theta, span, out):
    """integral_0^span cos(theta*u) du = sin(theta*span)/theta, and span at theta = 0, into `out`.

    The quotient is as accurate as the sine itself at every theta: unlike
    the complex moment it has no difference of exponentials to cancel.
    """
    np.multiply(theta, span, out=out)
    np.sin(out, out=out)
    out /= theta
    zero = theta == 0.0
    if zero.any():
        out[:, zero] = span
    return out
