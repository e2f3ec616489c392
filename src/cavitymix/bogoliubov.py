"""First-order Bogoliubov maps of a rigid, weakly accelerated cavity.

Static coefficients.  For a 1+1 Dirichlet cavity the instantaneous-mode
overlap coefficients per unit dimensionless acceleration are

    alpha_hat[m, n] = pi^2 m n (-1 + (-1)^{m+n})
                      / (L^4 (w_m - w_n)^3 sqrt(w_m w_n)),   m != n,
    alpha_hat[n, n] = 0,
    beta_hat[m, n]  = pi^2 m n (+1 - (-1)^{m+n})
                      / (L^4 (w_m + w_n)^3 sqrt(w_m w_n)).

Both vanish identically when m + n is even, are dimensionless, and depend
on (mu0, L) only through mu0 * L.  They are computed on the odd pairs
m < n alone, the half table that `spectrum._odd_entries` builds once per
n_max, from one frequency vector and the cancellation-safe differences of
`spectrum._gaps`, and each value is written to (m, n) and to its mirror
(n, m): alpha_hat[n, m] = -alpha_hat[m, n] and beta_hat[n, m] =
beta_hat[m, n].  Computed at the mirror, each would come out the same bit
for bit: the differences are exactly antisymmetric, and each is cubed as
|w_m - w_n|^3 with its sign put back.

First-order map.  To linear order in h(tau), evolution from tau0 to tauf
factors into free phases times a perturbation,

    alpha = exp(i w dtau) (1 + A),      beta = exp(i w dtau) B,
    A[m, n] = i (w_m - w_n) alpha_hat[m, n] * I(w_m - w_n),
    B[m, n] = i (w_m + w_n) beta_hat[m, n]  * I(w_m + w_n),
    I(delta) = integral exp(-i delta (tau - tau0)) h(tau) dtau.

A is anti-Hermitian and B symmetric; both inherit the parity zeros.  All
odd pairs go through one batched kernel call over the distinct |delta|,
which `static_coefficients` tabulates once per cavity: a massless cavity's
w_m -+ w_n are integer multiples of pi/L, so many pairs share a delta bit
for bit.  h is real, so I(-delta) = conj I(delta): delta = w_m - w_n is
negative exactly where m < n.  Each pair m < n reads its integral once
and times one `entry_scale` writes A[n, m] from it, A[m, n] from its
conjugate, and B[m, n] and B[n, m] from the sum-frequency integral, so
both residuals of `verify_first_order_identities` are exactly 0 by
construction.

Composition.  Consecutive maps combine to first order as

    A[m, n] <- A1[m, n] + exp(-i (w_m - w_n) dtau1) A2[m, n],
    B[m, n] <- B1[m, n] + exp(-i (w_m + w_n) dtau1) B2[m, n],

with the free phases adding, which is also what the interval additivity of
I(delta) gives for a concatenated profile.  `compose` advances every entry
from its own inputs by the phase of its own cancellation-safe gap; a mirror
gap is exactly the negated one, so on maps from `first_order_map` the parity
zeros, anti-Hermiticity and symmetry hold exactly.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import _Value
from .spectrum import DEFAULT_TOL, Cavity1D, _check_modes, _gaps, _odd_entries, omega_vector

if TYPE_CHECKING:
    from .profiles import AccelerationProfile, RigidityReport

# The root imports `profiles` on first access (PEP 562): a catalog run loads no kernel.
_package = sys.modules[__package__]

FIRST_ORDER_SUP_H = 0.1
IDENTITY_TOLERANCE = 1e-10


class StaticCoefficients(_Value, eq=False):
    """Per-unit-h overlap coefficients of a cavity, with cached frequencies.

    The last four fields serve `first_order_map` and `catalog_1d`, over
    the half table: the odd pairs m < n in the (m, n) order of
    `_odd_entries`, listed twice, first as the A rows and then as the B
    rows.  `deltas` holds each distinct |delta| once, sorted: the
    frequencies the kernel integrates.  Row k reads `deltas[delta_index[k]]`,
    which is |w_m - w_n| on an A row and w_m + w_n on a B row, and
    `entry_scale[k]`, i (w_m - w_n) alpha_hat[m, n] or i (w_m + w_n)
    beta_hat[m, n], the same bit for bit at (n, m).  A[n, m] reads
    I(deltas[delta_index[k]]) and A[m, n], where w_m - w_n < 0, its
    conjugate.  `order` is the stable sort of the rows by that frequency:
    since the rows stand in (kind, m, n) order, it ranks them by
    (|delta|, kind, m, n), the order of the resonance catalog.
    """

    cavity: Cavity1D
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    omega: np.ndarray
    deltas: np.ndarray
    delta_index: np.ndarray
    entry_scale: np.ndarray
    order: np.ndarray

    def alpha_entry(self, m: int, n: int) -> float:
        return float(self.alpha_hat[_check_modes(self.cavity.n_max, (m, n))])

    def beta_entry(self, m: int, n: int) -> float:
        return float(self.beta_hat[_check_modes(self.cavity.n_max, (m, n))])


def static_coefficients(cavity: Cavity1D) -> StaticCoefficients:
    """Evaluate alpha_hat and beta_hat for all modes up to cavity.n_max."""
    n_max = cavity.n_max
    _, rows, cols, upper, lower, mn = _odd_entries(n_max)
    omega = omega_vector(cavity)
    diffs, sums = _gaps(cavity, omega, rows, cols)  # diffs < 0: m < n
    gaps = np.concatenate([np.abs(diffs), sums])
    # The one sort: it gives the table of distinct |delta| and the catalog's order.
    order = np.argsort(gaps, kind="stable")
    ranked = gaps[order]
    first = np.concatenate([[True], ranked[1:] != ranked[:-1]])  # each |delta|'s first row
    deltas = ranked[first]
    delta_index = np.empty_like(order)
    delta_index[order] = np.cumsum(first) - 1
    # x**3 is a pow call, the costliest step: take it once per distinct
    # |delta| (about 2 n_max on a massless cavity).  Each difference then
    # takes back its sign, so alpha_hat is exactly antisymmetric.
    diffs_cubed, sums_cubed = (deltas**3)[delta_index].reshape(2, -1)
    diffs_cubed = np.copysign(diffs_cubed, diffs)
    root = np.sqrt(omega[rows] * omega[cols])
    l4 = cavity.length**4

    alpha_pairs = -2.0 * math.pi**2 * mn / (l4 * diffs_cubed * root)
    beta_pairs = 2.0 * math.pi**2 * mn / (l4 * sums_cubed * root)
    alpha = np.zeros(n_max * n_max)  # even entries are exact parity zeros
    beta = np.zeros(n_max * n_max)
    alpha[upper] = alpha_pairs
    alpha[lower] = -alpha_pairs
    beta[upper] = beta[lower] = beta_pairs
    entry_scale = 1j * np.concatenate([diffs * alpha_pairs, sums * beta_pairs])
    return StaticCoefficients(
        cavity=cavity,
        alpha_hat=alpha.reshape(n_max, n_max),
        beta_hat=beta.reshape(n_max, n_max),
        omega=omega,
        deltas=deltas,
        delta_index=delta_index,
        entry_scale=entry_scale,
        order=order,
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
        return complex(self.a_hat[_check_modes(self.cavity.n_max, (m, n))])

    def b_entry(self, m: int, n: int) -> complex:
        return complex(self.b_hat[_check_modes(self.cavity.n_max, (m, n))])

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
    tol: float = DEFAULT_TOL,
) -> FirstOrderBogoliubovMap:
    """Evaluate the first-order map of `profile` on `coeffs.cavity`.

    Raises ValueError when the profile breaks the rigidity bound; warns when
    sup |h| exceeds 0.1, where the neglected O(h^2) terms start to matter.
    """
    _first_order_drive(_package.profiles.validate_rigidity(profile))
    cavity = coeffs.cavity
    n_max = cavity.n_max
    values, estimate = _package.profiles._fourier_integrals(
        profile._terms(), coeffs.deltas, tol
    )
    values = values[coeffs.delta_index]
    _, _, _, upper, lower, _ = _odd_entries(n_max)
    size, scale = upper.size, coeffs.entry_scale
    a_hat = np.zeros(n_max * n_max, dtype=complex)  # even entries are exact parity zeros
    b_hat = np.zeros(n_max * n_max, dtype=complex)
    a_hat[lower] = scale[:size] * values[:size]
    b_hat[upper] = b_hat[lower] = scale[size:] * values[size:]
    # I(-delta) = conj I(delta) for a real h: the A entries with m < n, whose
    # delta is negative (see the module docstring).  0 - y rather than -y: an
    # imaginary part that cancels to +0.0 stays +0.0, as the sum at -delta
    # would leave it.
    mixing = values[:size].imag
    np.subtract(0.0, mixing, out=mixing)
    a_hat[upper] = scale[:size] * values[:size]
    worst = estimate * float(np.abs(coeffs.entry_scale).max())
    duration = profile.tauf - profile.tau0
    return FirstOrderBogoliubovMap(
        cavity=cavity,
        tau0=profile.tau0,
        tauf=profile.tauf,
        a_hat=a_hat.reshape(n_max, n_max),
        b_hat=b_hat.reshape(n_max, n_max),
        phases=coeffs.omega * duration,
        quadrature_error=worst,
    )


def compose(
    first: FirstOrderBogoliubovMap, second: FirstOrderBogoliubovMap
) -> FirstOrderBogoliubovMap:
    """First-order composition of consecutive maps (first, then second), entry by entry."""
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
    n = np.arange(cavity.n_max)
    diffs, sums = _gaps(cavity, omega_vector(cavity), n[:, None], n)
    return FirstOrderBogoliubovMap(
        cavity=cavity,
        tau0=first.tau0,
        tauf=second.tauf,
        a_hat=first.a_hat + np.exp(-1j * diffs * first.duration) * second.a_hat,
        b_hat=first.b_hat + np.exp(-1j * sums * first.duration) * second.b_hat,
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

    A[m, n] and A[n, m] read one integral, I(|delta|), and its conjugate,
    and B[m, n] and B[n, m] the same sum-frequency integral, each pair times
    one `entry_scale` bit for bit, so both residuals are exactly 0 by
    construction on the maps of `first_order_map` and their compositions.
    """
    anti = float(np.abs(map_.a_hat + map_.a_hat.conj().T).max())
    sym = float(np.abs(map_.b_hat - map_.b_hat.T).max())
    even = ~_odd_entries(map_.cavity.n_max)[0]
    parity = float(max(np.abs(map_.a_hat[even]).max(), np.abs(map_.b_hat[even]).max()))
    return IdentityReport(
        anti_hermiticity_residual=anti,
        symmetry_residual=sym,
        parity_residual=parity,
        quadrature_error=map_.quadrature_error,
        passed=(anti < IDENTITY_TOLERANCE and sym < IDENTITY_TOLERANCE and parity == 0.0),
    )
