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
import warnings

import numpy as np

from . import _Value
from .bogoliubov import FirstOrderBogoliubovMap, StaticCoefficients, _first_order_drive
from .profiles import _CHUNK_ELEMENTS, RigidityReport, _check_finite, _rounding_estimate
from .spectrum import RIGIDITY_BOUND, _check_modes, omega_diff_matrix

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
PAIRING_TOL = 1e-8
B_OVER_A_REGIME = 0.01


class SymplecticPairingError(RuntimeError):
    """Eigenvalues of Omega sigma are not pure-imaginary conjugate pairs."""


@functools.lru_cache(maxsize=8)
def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form for the (q1, p1, q2, p2, ...) ordering.

    Built once per size and returned read-only.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    step = 4 * n_modes + 2  # flat distance from entry (2k, j) to (2k + 2, j + 2)
    omega.flat[1::step] = 1.0  # Omega[2k, 2k+1]
    omega.flat[2 * n_modes :: step] = -1.0  # Omega[2k+1, 2k]
    omega.setflags(write=False)
    return omega


def symplectic_residual(s: np.ndarray) -> float:
    """Max-norm deviation of S Omega S^T from Omega."""
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ omega @ s.T - omega)))


class CovarianceState(_Value, eq=False):
    """N-mode Gaussian state with zero first moments: its covariance matrix.

    `psd_tol` is the tolerance of the bona-fide check (eigenvalues of
    sigma + i Omega must exceed -psd_tol); transformations that are
    symplectic only to O(h^2) widen it on their output.
    """

    sigma: np.ndarray
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValueError(f"covariance must be square of even size, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("covariance matrix must be finite")
        if not 0.0 <= self.psd_tol < math.inf:
            raise ValueError(f"psd_tol must be finite and nonnegative, got {self.psd_tol}")
        if not np.max(np.abs(sigma - sigma.T)) <= SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        omega = symplectic_form(sigma.shape[0] // 2)
        bound = float(np.min(np.linalg.eigvalsh(sigma + 1j * omega)))
        if not -bound <= self.psd_tol:
            raise ValueError(
                f"sigma + i Omega has eigenvalue {bound}, below -{self.psd_tol}: "
                "not a bona fide Gaussian state"
            )
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


def _check_squeezing(s: float) -> None:
    if not 0.0 <= s < math.inf:
        raise ValueError(f"squeezing parameter must be finite and nonnegative, got {s}")


def squeezed_vacuum(n_modes: int, s: float) -> CovarianceState:
    """Product state with every mode squeezed by s along the same quadrature.

    Per-mode covariance diag(e^s, e^{-s}); see the module docstring for why
    this normalization and not diag(e^{2s}, e^{-2s}).  Each block has unit
    determinant, so the state is pure.
    """
    _check_squeezing(s)
    diag = np.empty(2 * n_modes)
    diag[0::2] = math.exp(s)
    diag[1::2] = math.exp(-s)
    return CovarianceState(sigma=np.diag(diag))


def apply_symplectic(state: CovarianceState, s: np.ndarray) -> CovarianceState:
    """Transform sigma -> S sigma S^T."""
    s = np.asarray(s, dtype=float)
    if s.shape != state.sigma.shape:
        raise ValueError(
            f"transformation shape {s.shape} does not match state {state.sigma.shape}"
        )
    tol = max(state.psd_tol, 10.0 * symplectic_residual(s), PSD_TOL)
    return CovarianceState(sigma=s @ state.sigma @ s.T, psd_tol=tol)


class TwoModeReduction(_Value, eq=False):
    """Reduced 4x4 covariance of one mode pair, labels 1-based."""

    pair: tuple[int, int]
    sigma_red: np.ndarray

    def state(self) -> CovarianceState:
        return CovarianceState(sigma=self.sigma_red)


def _quadratures(n_modes: int, pair: tuple[int, int]):
    """np.ix_ index of the (1-based) pair's quadratures (q_m, p_m, q_n, p_n)."""
    m, n = pair
    _check_modes(n_modes, m, n, distinct=True)
    idx = [2 * m - 2, 2 * m - 1, 2 * n - 2, 2 * n - 1]
    return np.ix_(idx, idx)


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
    m, n = pair
    _check_modes(map_.cavity.n_max, m, n, distinct=True)
    modes = np.ix_([m - 1, n - 1], [m - 1, n - 1])
    return _symplectic(np.eye(2) + map_.a_hat[modes], map_.b_hat[modes])


def partial_transpose(sigma_red: np.ndarray) -> np.ndarray:
    """P sigma P with P = diag(1, 1, 1, -1): time reversal of the second mode."""
    sigma_red = np.asarray(sigma_red, dtype=float)
    if sigma_red.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 covariance, got {sigma_red.shape}")
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return p @ sigma_red @ p


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Moduli {nu} of the pure-imaginary eigenvalue pairs of Omega sigma.

    Raises SymplecticPairingError when the spectrum is not pure-imaginary
    conjugate pairs to PAIRING_TOL, which signals a non-covariance input.
    Returned ascending, one value per mode.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"expected a square even-sized matrix, got {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("matrix must be finite")
    n = sigma.shape[0] // 2
    eigs = np.linalg.eigvals(symplectic_form(n) @ sigma)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    worst_real = float(np.max(np.abs(eigs.real)))
    if not worst_real <= PAIRING_TOL * scale:
        raise SymplecticPairingError(
            f"eigenvalues of Omega sigma have real part up to {worst_real}; "
            "input is not a covariance matrix"
        )
    imag = np.sort(eigs.imag)
    mismatch = float(np.max(np.abs(imag + imag[::-1])))
    if not mismatch <= PAIRING_TOL * scale:
        raise SymplecticPairingError(
            f"eigenvalues of Omega sigma fail conjugate pairing by {mismatch}"
        )
    return imag[n:]


def negativity(sigma_red: np.ndarray) -> float:
    """max{0, (1/nu - 1)/2} with nu the smallest symplectic eigenvalue of the
    partial transpose; positive exactly when the pair is entangled."""
    nu = float(symplectic_eigenvalues(partial_transpose(sigma_red))[0])
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
    _check_modes(map_.cavity.n_max, *pair, distinct=True)
    a = map_.a_entry(*pair)
    b = map_.b_entry(*pair)
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
    tol: float = 1e-10,
) -> np.ndarray:
    """First-order negativity under a cosine drive, over a frequency/duration grid.

    Cell [i, j] holds |Im A[m, n]| sinh s for drive frequency
    omega_c_values[j] sustained for delta_tau_values[i].  The column at the
    mixing resonance |omega_m - omega_n| grows linearly in the duration;
    every other column stays bounded.

    The Fourier integral of the drive is one broadcast closed form over the
    grid, the two pieces of `SinusoidalProfile`'s table, of which a cell
    needs only the real part, sin(theta*dtau)/theta per piece.  The grid
    makes the checks a per-cell profile and `oscillatory_integral` would
    make: ValueError for a negative frequency or a non-positive duration,
    QuadratureError when the rounding bound exceeds `tol` or a cell is not
    finite.  A drive with |h0| at or above the rigidity bound is refused,
    and one above 0.1 warned about, as `first_order_map` does.
    """
    omega_c_values = np.asarray(omega_c_values, dtype=float)
    delta_tau_values = np.asarray(delta_tau_values, dtype=float)
    if omega_c_values.size == 0 or delta_tau_values.size == 0:
        raise ValueError("both grid axes must be nonempty")
    _check_squeezing(s)
    if not np.all(omega_c_values >= 0.0):
        raise ValueError(f"drive frequencies must be nonnegative, got {omega_c_values.min()}")
    if not np.all(delta_tau_values > 0.0):
        raise ValueError(f"durations must be positive, got {delta_tau_values.min()}")
    # h0 cos(omega_c t) reaches |h0| at t = 0, whatever the cell.
    _first_order_drive(RigidityReport(abs(h0) < RIGIDITY_BOUND, abs(h0), 0.0))
    m, n = pair
    _check_modes(coeffs.cavity.n_max, m, n, distinct=True)
    delta = omega_diff_matrix(coeffs.cavity)[m - 1, n - 1]
    scale = delta * coeffs.alpha_entry(m, n)
    # h0 cos(omega_c t) on [0, dtau] is the piece pair (h0/2) exp(+-i omega_c t).
    longest = np.full(2, float(np.max(delta_tau_values)))
    _rounding_estimate(np.full(2, 0.5 * abs(h0)), longest, longest, tol)
    # A cell is |Im(i*scale*I)| = |scale * Re I|, and Re I is (h0/2) times the
    # sum over theta = +-omega_c - delta of integral_0^dtau cos(theta*u) du.
    weight = abs(0.5 * h0 * scale) * math.sinh(s)
    omega_c = omega_c_values[None, :]
    grid = np.empty((delta_tau_values.size, omega_c_values.size))
    rows = max(1, _CHUNK_ELEMENTS // omega_c_values.size)
    with np.errstate(all="ignore"):
        for start in range(0, delta_tau_values.size, rows):
            span = delta_tau_values[start : start + rows, None]
            moment = _cosine_moment(omega_c - delta, span) + _cosine_moment(-omega_c - delta, span)
            grid[start : start + rows] = np.abs(moment) * weight
    _check_finite(grid)
    return grid


def _cosine_moment(theta, span):
    """integral_0^span cos(theta*u) du = sin(theta*span)/theta, and span at theta = 0.

    The quotient is as accurate as the sine itself at every theta: unlike
    the complex moment it has no difference of exponentials to cancel.
    """
    return np.where(theta == 0.0, span, np.sin(theta * span) / theta)
