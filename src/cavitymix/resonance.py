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

`catalog_1d` lists these resonances as a `ResonanceCatalog`: read-only
columns read from the coefficient table of `static_coefficients` (the
frequencies |w_m - w_n| and w_m + w_n of the odd pairs m < n and their
alpha_hat, beta_hat), with no spectrum matrix rebuilt and no Python object
per resonance.  The catalog sorts nothing: the table's `order` already
ranks its rows by (frequency, kind, m, n), and the rows within max_omega
are a prefix of it, so a catalog costs O(n_max^2) gathers on top of the
one sort of `static_coefficients`.  Indexing or iterating the catalog
builds a `ResonanceEntry` for each row it reaches.

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
import operator
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from . import _Value
from .spectrum import _check_number, _check_pair, _odd_entries

if TYPE_CHECKING:
    from .bogoliubov import StaticCoefficients


class ResonanceKind(enum.Enum):
    MODE_MIXING = "mode_mixing"
    PARTICLE_CREATION = "particle_creation"


class ResonanceEntry(_Value):
    """One resonance: drive here and the paired coefficient grows linearly.

    `growth_per_h0` is the slope of the coefficient magnitude per unit h0
    per unit proper time at exact resonance with cosine phase.
    """

    kind: ResonanceKind
    pair: tuple[int, int]
    omega_r: float
    coefficient: float
    growth_per_h0: float


class ResonanceCatalog(_Value, eq=False):
    """Resonances as read-only columns, one row per resonance.

    Rows ascend in (omega_r, kind, m, n), with `kind` holding the
    `ResonanceKind` value strings and (m, n) the 1-based pair, m < n.  The
    fields, in order, are the columns of the `resonance_catalog` CSV.  The
    catalog is also a sequence: `len`, integer indexing and iteration give
    one `ResonanceEntry` per row, built on access.
    """

    kind: np.ndarray
    m: np.ndarray
    n: np.ndarray
    omega_r: np.ndarray
    coefficient: np.ndarray
    growth_per_h0: np.ndarray

    def __len__(self) -> int:
        return self.omega_r.size

    def __getitem__(self, index: int) -> ResonanceEntry:
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"resonance index {index} out of range for {len(self)} entries")
        return ResonanceEntry(
            kind=ResonanceKind(str(self.kind[i])),
            pair=(int(self.m[i]), int(self.n[i])),
            omega_r=float(self.omega_r[i]),
            coefficient=float(self.coefficient[i]),
            growth_per_h0=float(self.growth_per_h0[i]),
        )

    def __iter__(self) -> Iterator[ResonanceEntry]:
        return map(self.__getitem__, range(len(self)))


def catalog_1d(coeffs: StaticCoefficients, max_omega: float) -> ResonanceCatalog:
    """All resonances of a 1D cavity with omega_r up to max_omega, ascending.

    The rows are a prefix of `coeffs.order`, the mixing and creation rows
    of the odd pairs m < n ranked by (omega_r, kind, m, n); no sort of its own.
    """
    _check_number("max_omega", max_omega, "positive")
    _, rows, cols, upper, _, _ = _odd_entries(coeffs.cavity.n_max)
    # A row is kept when its delta ranks below `within`; those rows lead `order`.
    within = np.searchsorted(coeffs.deltas, max_omega, side="right")
    keep = coeffs.order[: np.count_nonzero(coeffs.delta_index < within)]
    omega = coeffs.deltas[coeffs.delta_index[keep]]
    creation, pair = np.divmod(keep, rows.size)  # the table lists the mixing rows first
    at = upper[pair]
    coefficient = np.abs(
        np.where(creation, coeffs.beta_hat.ravel()[at], coeffs.alpha_hat.ravel()[at])
    )
    return ResonanceCatalog(
        kind=np.array([kind.value for kind in ResonanceKind])[creation],
        m=rows[pair] + 1,
        n=cols[pair] + 1,
        omega_r=omega,
        coefficient=coefficient,
        growth_per_h0=omega * coefficient / 2.0,
    )


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
    _check_pair("mode numbers (m, m_prime)", (m, m_prime))
    return math.pi * wavelength * abs(m**2 - m_prime**2) / (4.0 * length**2)


def paraxial_mixing_growth(
    wavelength: float, length: float, displacement: float, m: int, m_prime: int
) -> float:
    """Approximate resonant growth rate (pi / 2) m m' d lambda / L^3.

    This is growth_per_h0 * h0 of the mixing entry with h0 = d omega_c^2 L,
    evaluated in the paraxial limit; per unit proper time in natural units.
    """
    _check_pair("mode numbers (m, m_prime)", (m, m_prime))
    return math.pi * m * m_prime * displacement * wavelength / (2.0 * length**3)


def paraxial_validity_ratio(
    wavelength: float, lx: float, ly: float, m_max: int, n_inert: int = 1
) -> float:
    """(2/lambda)^2 over the in-plane momentum scale (m/Lx)^2 + (n/Ly)^2.

    The paraxial formulas hold when this ratio is large; the experiment
    module requires it to exceed 1e4.
    """
    return (2.0 / wavelength) ** 2 / ((m_max / lx) ** 2 + (n_inert / ly) ** 2)
