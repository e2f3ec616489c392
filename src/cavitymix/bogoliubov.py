"""First-order Bogoliubov maps of a rigid, weakly accelerated cavity.

Static coefficients.  For a 1+1 Dirichlet cavity the instantaneous-mode
overlap coefficients per unit dimensionless acceleration are

    alpha_hat[m, n] = pi^2 m n (-1 + (-1)^{m+n})
                      / (L^4 (w_m - w_n)^3 sqrt(w_m w_n)),   m != n,
    alpha_hat[n, n] = 0,
    beta_hat[m, n]  = pi^2 m n (+1 - (-1)^{m+n})
                      / (L^4 (w_m + w_n)^3 sqrt(w_m w_n)).

Both vanish identically when m + n is even, are dimensionless, and depend
on (mu0, L) only through mu0 * L.  alpha_hat is antisymmetric, beta_hat
symmetric.  The frequency differences come from the cancellation-safe
`spectrum.omega_diff_matrix`.

First-order map.  To linear order in h(tau), evolution from tau0 to tauf
factors into free phases times a perturbation,

    alpha = exp(i w dtau) (1 + A),      beta = exp(i w dtau) B,
    A[m, n] = i (w_m - w_n) alpha_hat[m, n] * I(w_m - w_n),
    B[m, n] = i (w_m + w_n) beta_hat[m, n]  * I(w_m + w_n),
    I(delta) = integral exp(-i delta (tau - tau0)) h(tau) dtau.

A is anti-Hermitian and B symmetric; both inherit the parity zeros.  All
odd entries go through one batched kernel call over the distinct deltas,
which `static_coefficients` tabulates once per cavity: a massless cavity's
w_m -+ w_n are integer multiples of pi/L, so many entries share a delta
bit for bit.  Every distinct delta gets its own integral.  A[m, n] and
A[n, m] read I(delta) and I(-delta), two separate integrals, so the
anti-Hermiticity residual of `verify_first_order_identities` sees the
rounding of the numerics.  B[m, n] and B[n, m] read the same
sum-frequency integral times the same `entry_scale`, bit for bit, so the
symmetry residual is exactly 0 by construction.

Composition.  Consecutive maps combine to first order as

    A[m, n] <- A1[m, n] + exp(-i (w_m - w_n) dtau1) A2[m, n],
    B[m, n] <- B1[m, n] + exp(-i (w_m + w_n) dtau1) B2[m, n],

with the free phases adding, which is also what the interval additivity of
I(delta) gives for a concatenated profile.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import _Value
from .spectrum import Cavity1D, _check_modes, omega_diff_matrix, omega_sum_matrix, omega_vector

if TYPE_CHECKING:
    from .profiles import AccelerationProfile, RigidityReport

# The root imports `profiles` on first access (PEP 562): a catalog run loads no kernel.
_package = sys.modules[__package__]

FIRST_ORDER_SUP_H = 0.1
IDENTITY_TOLERANCE = 1e-10


def _parity_odd_mask(n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1)
    return (n[:, None] + n[None, :]) % 2 == 1


class StaticCoefficients(_Value, eq=False):
    """Per-unit-h overlap coefficients of a cavity, with cached frequencies.

    The last four fields serve `first_order_map`.  `odd` masks the entries
    with m + n odd; over them, in that order, the A entries and then the B
    entries read the integral `deltas[delta_index]` times `entry_scale`,
    i (w_m - w_n) alpha_hat or i (w_m + w_n) beta_hat.  `deltas` holds each
    distinct delta once, sorted.
    """

    cavity: Cavity1D
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    omega: np.ndarray
    odd: np.ndarray
    deltas: np.ndarray
    delta_index: np.ndarray
    entry_scale: np.ndarray

    def alpha_entry(self, m: int, n: int) -> float:
        _check_modes(self.cavity.n_max, m, n)
        return float(self.alpha_hat[m - 1, n - 1])

    def beta_entry(self, m: int, n: int) -> float:
        _check_modes(self.cavity.n_max, m, n)
        return float(self.beta_hat[m - 1, n - 1])


def static_coefficients(cavity: Cavity1D) -> StaticCoefficients:
    """Evaluate alpha_hat and beta_hat for all modes up to cavity.n_max."""
    n_max = cavity.n_max
    omega = omega_vector(cavity)
    diffs = omega_diff_matrix(cavity)
    sums = omega_sum_matrix(cavity)
    n = np.arange(1, n_max + 1, dtype=float)
    mn = n[:, None] * n[None, :]
    odd = _parity_odd_mask(n_max)
    root = np.sqrt(omega[:, None] * omega[None, :])
    l4 = cavity.length**4

    safe_diffs = np.where(odd, diffs, 1.0)
    alpha = np.where(odd, -2.0 * math.pi**2 * mn / (l4 * safe_diffs**3 * root), 0.0)
    beta = np.where(odd, 2.0 * math.pi**2 * mn / (l4 * sums**3 * root), 0.0)
    deltas, delta_index = np.unique(np.concatenate([diffs[odd], sums[odd]]), return_inverse=True)
    entry_scale = 1j * np.concatenate([diffs[odd] * alpha[odd], sums[odd] * beta[odd]])
    for array in (alpha, beta, omega, odd, deltas, delta_index, entry_scale):
        array.setflags(write=False)
    return StaticCoefficients(
        cavity=cavity,
        alpha_hat=alpha,
        beta_hat=beta,
        omega=omega,
        odd=odd,
        deltas=deltas,
        delta_index=delta_index,
        entry_scale=entry_scale,
    )


class FirstOrderBogoliubovMap(_Value, eq=False):
    """Linear-order Bogoliubov transformation over one acceleration interval.

    `a_hat` and `b_hat` are the perturbations defined above; `phases` holds
    w_n * (tauf - tau0).  `quadrature_error` bounds the absolute error of
    any single entry inherited from the Fourier integrals.
    """

    cavity: Cavity1D
    tau0: float
    tauf: float
    a_hat: np.ndarray
    b_hat: np.ndarray
    phases: np.ndarray
    quadrature_error: float = 0.0

    @property
    def duration(self) -> float:
        return self.tauf - self.tau0

    def a_entry(self, m: int, n: int) -> complex:
        _check_modes(self.cavity.n_max, m, n)
        return complex(self.a_hat[m - 1, n - 1])

    def b_entry(self, m: int, n: int) -> complex:
        _check_modes(self.cavity.n_max, m, n)
        return complex(self.b_hat[m - 1, n - 1])

    def alpha_matrix(self) -> np.ndarray:
        """Full alpha = exp(i w dtau) (1 + A)."""
        return np.exp(1j * self.phases)[:, None] * (np.eye(self.cavity.n_max) + self.a_hat)

    def beta_matrix(self) -> np.ndarray:
        """Full beta = exp(i w dtau) B."""
        return np.exp(1j * self.phases)[:, None] * self.b_hat


def _first_order_drive(report: RigidityReport) -> None:
    """Refuse a non-rigid drive; warn, at the caller's caller, above FIRST_ORDER_SUP_H."""
    _package.profiles._require_rigid(report)
    if report.sup_h > FIRST_ORDER_SUP_H:
        warnings.warn(
            f"sup |h| = {report.sup_h:.3g} exceeds {FIRST_ORDER_SUP_H}; "
            "first-order accuracy degrades as O(h^2)",
            stacklevel=3,
        )


def first_order_map(
    coeffs: StaticCoefficients,
    profile: AccelerationProfile,
    tol: float = 1e-10,
) -> FirstOrderBogoliubovMap:
    """Evaluate the first-order map of `profile` on `coeffs.cavity`.

    Raises ValueError when the profile breaks the rigidity bound; warns when
    sup |h| exceeds 0.1, where the neglected O(h^2) terms start to matter.
    """
    _first_order_drive(_package.profiles.validate_rigidity(profile))
    cavity = coeffs.cavity
    n_max = cavity.n_max
    values, estimate = _package.profiles._fourier_integrals(profile._terms(), coeffs.deltas, tol)
    entries = coeffs.entry_scale * values[coeffs.delta_index]
    half = entries.size // 2
    a_hat = np.zeros((n_max, n_max), dtype=complex)  # even entries are exact parity zeros
    b_hat = np.zeros((n_max, n_max), dtype=complex)
    a_hat[coeffs.odd] = entries[:half]
    b_hat[coeffs.odd] = entries[half:]
    worst = estimate * float(np.max(np.abs(coeffs.entry_scale)))
    duration = profile.tauf - profile.tau0
    return FirstOrderBogoliubovMap(
        cavity=cavity,
        tau0=profile.tau0,
        tauf=profile.tauf,
        a_hat=a_hat,
        b_hat=b_hat,
        phases=coeffs.omega * duration,
        quadrature_error=worst,
    )


def compose(
    first: FirstOrderBogoliubovMap, second: FirstOrderBogoliubovMap
) -> FirstOrderBogoliubovMap:
    """First-order composition of two consecutive maps (first, then second)."""
    if first.cavity != second.cavity:
        raise ValueError(
            f"maps act on different cavities: {first.cavity} vs {second.cavity}"
        )
    scale = max(1.0, abs(first.tauf))
    if abs(second.tau0 - first.tauf) > 1e-12 * scale:
        raise ValueError(
            f"second map starts at tau = {second.tau0}, first ends at tau = {first.tauf}"
        )
    cavity = first.cavity
    diffs = omega_diff_matrix(cavity)
    sums = omega_sum_matrix(cavity)
    dtau1 = first.duration
    a_hat = first.a_hat + np.exp(-1j * diffs * dtau1) * second.a_hat
    b_hat = first.b_hat + np.exp(-1j * sums * dtau1) * second.b_hat
    return FirstOrderBogoliubovMap(
        cavity=cavity,
        tau0=first.tau0,
        tauf=second.tauf,
        a_hat=a_hat,
        b_hat=b_hat,
        phases=first.phases + second.phases,
        quadrature_error=first.quadrature_error + second.quadrature_error,
    )


class IdentityReport(_Value):
    """Residuals of the structural identities of a first-order map."""

    anti_hermiticity_residual: float
    symmetry_residual: float
    parity_residual: float
    quadrature_error: float
    passed: bool


def verify_first_order_identities(map_: FirstOrderBogoliubovMap) -> IdentityReport:
    """Check A + A^dagger = 0, B - B^T = 0 and the parity zeros.

    The map passes when both residuals are below IDENTITY_TOLERANCE and
    every parity zero is exact.

    A[m, n] and A[n, m] were produced by separate quadratures, I(delta) and
    I(-delta), so the anti-Hermiticity residual is the check that sees
    rounding.  B[m, n] and B[n, m] read the same sum-frequency integral and
    the same `entry_scale`, bit for bit, so `symmetry_residual` is exactly 0
    by construction on the maps `first_order_map` and `compose` return.
    """
    anti = float(np.max(np.abs(map_.a_hat + map_.a_hat.conj().T)))
    sym = float(np.max(np.abs(map_.b_hat - map_.b_hat.T)))
    even = ~_parity_odd_mask(map_.cavity.n_max)
    parity = float(
        max(np.max(np.abs(map_.a_hat[even])), np.max(np.abs(map_.b_hat[even])))
    )
    return IdentityReport(
        anti_hermiticity_residual=anti,
        symmetry_residual=sym,
        parity_residual=parity,
        quadrature_error=map_.quadrature_error,
        passed=(anti < IDENTITY_TOLERANCE and sym < IDENTITY_TOLERANCE and parity == 0.0),
    )
