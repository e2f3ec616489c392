"""Resonance catalog and analytic growth rates for sinusoidal driving.

A cosine drive h(tau) = h0 cos(omega_c (tau - tau0)) pumps the first-order
coefficients secularly when omega_c hits a resonance:

    mode mixing      A[m, n]:  omega_c = |omega_m - omega_n|,
    particle creation B[m, n]:  omega_c = omega_m + omega_n,

in both cases only for odd m + n.  At exact resonance the magnitude of the
coefficient grows linearly in the drive duration with slope

    d|A[m, n]|/dtau = |omega_m - omega_n| |alpha_hat[m, n]| h0 / 2,
    d|B[m, n]|/dtau = (omega_m + omega_n) |beta_hat[m, n]| h0 / 2,

the factor 1/2 coming from the cosine amplitude convention.  Off resonance
both coefficients stay bounded uniformly in the duration.

The paraxial helpers cover a transversally loaded rectangular cavity whose
quanta have wavelength lambda much smaller than the edges: the transverse
momentum 2 pi / lambda acts as a large effective mass, and the mixing
resonance between longitudinal numbers m and m' drops to

    omega_c ~= (pi lambda / 4) |m^2 - m'^2| / L^2,

far below the mode frequencies themselves.  All frequencies here are in
natural units (inverse length); SI conversion lives in the experiment
module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import StaticCoefficients
from .spectrum import omega_diff_matrix, omega_sum_matrix


class ResonanceKind(enum.Enum):
    MODE_MIXING = "mode_mixing"
    PARTICLE_CREATION = "particle_creation"


@dataclass(frozen=True)
class ResonanceEntry:
    """One resonance: drive here and the paired coefficient grows linearly.

    `growth_per_h0` is the slope of the coefficient magnitude per unit h0
    per unit proper time at exact resonance with cosine phase.
    """

    kind: ResonanceKind
    pair: tuple[int, int]
    omega_r: float
    coefficient: float
    growth_per_h0: float


def catalog_1d(coeffs: StaticCoefficients, max_omega: float) -> list[ResonanceEntry]:
    """All resonances of a 1D cavity with omega_r up to max_omega, ascending."""
    if not max_omega > 0.0:
        raise ValueError(f"max_omega must be positive, got {max_omega}")
    cavity = coeffs.cavity
    pairs = np.triu(coeffs.odd)  # odd m + n, m < n
    labels = np.argwhere(pairs) + 1
    entries = []
    # mixing sits at w_n - w_m for m < n: the transposed difference matrix
    for kind, omega, coef in (
        (ResonanceKind.MODE_MIXING, omega_diff_matrix(cavity).T, coeffs.alpha_hat),
        (ResonanceKind.PARTICLE_CREATION, omega_sum_matrix(cavity), coeffs.beta_hat),
    ):
        keep = omega[pairs] <= max_omega
        omega_r, coef = omega[pairs][keep], np.abs(coef[pairs][keep])
        entries += [
            ResonanceEntry(kind=kind, pair=tuple(pair), omega_r=w, coefficient=c, growth_per_h0=g)
            for pair, w, c, g in zip(
                labels[keep].tolist(),
                omega_r.tolist(),
                coef.tolist(),
                (omega_r * coef / 2.0).tolist(),
            )
        ]
    entries.sort(key=lambda e: (e.omega_r, e.kind.value, e.pair))
    return entries


def displacement_h0(omega_r: float, displacement: float, length: float) -> float:
    """Peak h for harmonic motion of given displacement amplitude at omega_r.

    The peak proper acceleration of x(tau) = d cos(omega_r tau) is
    d omega_r^2, so h0 = d omega_r^2 L (natural units throughout).
    """
    return displacement * omega_r**2 * length


def paraxial_mixing_omega(wavelength: float, length: float, m: int, m_prime: int) -> float:
    """Approximate mixing resonance (pi lambda / 4) |m^2 - m'^2| / L^2.

    Valid when the transverse momentum 2 pi / lambda dominates the
    longitudinal momenta of both modes; see paraxial_validity_ratio.
    """
    return math.pi * wavelength * abs(m**2 - m_prime**2) / (4.0 * length**2)


def paraxial_mixing_growth(
    wavelength: float, length: float, displacement: float, m: int, m_prime: int
) -> float:
    """Approximate resonant growth rate (pi / 2) m m' d lambda / L^3.

    This is growth_per_h0 * h0 of the mixing entry with h0 = d omega_c^2 L,
    evaluated in the paraxial limit; per unit proper time in natural units.
    """
    return math.pi * m * m_prime * displacement * wavelength / (2.0 * length**3)


def paraxial_validity_ratio(
    wavelength: float, lx: float, ly: float, m_max: int, n_inert: int = 1
) -> float:
    """(2/lambda)^2 over the in-plane momentum scale (m/Lx)^2 + (n/Ly)^2.

    The paraxial formulas hold when this ratio is large; the experiment
    module requires it to exceed 1e4.
    """
    return (2.0 / wavelength) ** 2 / ((m_max / lx) ** 2 + (n_inert / ly) ** 2)
