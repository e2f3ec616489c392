"""Dirichlet cavity spectra and mode bookkeeping.

Conventions used throughout the package:

* natural units, c = hbar = 1; every length, inverse frequency and proper
  time is measured in the same unit,
* a 1+1 cavity of width L with field mass mu0 has angular frequencies
  w_n = sqrt(mu0^2 + (pi*n/L)^2) for n = 1, 2, ...,
* a 3+1 rectangular cavity with edges (Lx, Ly, Lz) and mass mu has
  w_{mnp} = sqrt(mu^2 + (pi*m/Lx)^2 + (pi*n/Ly)^2 + (pi*p/Lz)^2),
* freezing two quantum numbers of the 3+1 spectrum turns the third into a
  1+1 spectrum whose effective mass collects the frozen transverse momenta
  and the field mass.

The spectrum comes only as arrays: `omega_vector` holds (w_1, ...,
w_{n_max}), `omega_diff_matrix` and `omega_sum_matrix` every difference
and sum of two of them.  Frequency differences w_m - w_n are needed deep
inside resonance denominators where the two frequencies can agree to many
digits (large effective mass).  `omega_diff_matrix` is the
cancellation-safe form: it evaluates each difference as
(k_m^2 - k_n^2) / (w_m + w_n), which stays accurate when the direct
subtraction would cancel.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import _Value

_AXES = ("x", "y", "z")

# The strict bound on sup |h| = sup |aL| that keeps the cavity rigid (see `profiles`).
RIGIDITY_BOUND = 2.0

# The static coefficients take fourth powers of the length, the frequencies
# and the gaps between them; each of those scales must lie within
# [1/_SCALE_LIMIT, _SCALE_LIMIT] for the powers to stay normal floats.
_SCALE_LIMIT = 1e75


class Cavity1D(_Value):
    """Rigid 1+1 Dirichlet cavity: width, field mass, mode truncation."""

    length: float
    mu0: float = 0.0
    n_max: int = 10

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError(f"cavity length must be positive, got {self.length}")
        if not self.mu0 >= 0.0:
            raise ValueError(f"field mass mu0 must be nonnegative, got {self.mu0}")
        if not isinstance(self.n_max, numbers.Integral) or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max}")
        k = math.pi / self.length
        w1, w2 = math.hypot(self.mu0, k), math.hypot(self.mu0, 2.0 * k)
        scales = (self.length, w1, math.hypot(self.mu0, k * self.n_max), 3.0 * k * k / (w1 + w2))
        if not all(1.0 / _SCALE_LIMIT <= scale <= _SCALE_LIMIT for scale in scales):
            raise ValueError(
                "spectrum beyond floating-point range: length, lowest and highest frequency "
                f"and smallest gap {', '.join(f'{x:.3g}' for x in scales)} must lie within "
                f"[{1.0 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]"
            )


class Cavity3D(_Value):
    """Rigid 3+1 rectangular Dirichlet cavity."""

    lx: float
    ly: float
    lz: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name, edge in zip(_AXES, (self.lx, self.ly, self.lz)):
            if not edge > 0.0:
                raise ValueError(f"cavity edge l{name} must be positive, got {edge}")
        if not self.mu >= 0.0:
            raise ValueError(f"field mass mu must be nonnegative, got {self.mu}")


def reduce_to_effective_1d(
    cavity: Cavity3D,
    axis: str,
    transverse: tuple[int, int],
    n_max: int = 10,
) -> Cavity1D:
    """Freeze the two transverse quantum numbers of a rectangular cavity.

    `transverse` lists the frozen quantum numbers for the two remaining
    axes in (x, y, z) order; e.g. axis="x" freezes (n_y, n_z).  The result
    is a `Cavity1D` along `axis` whose effective mass satisfies

        mu0_eff^2 = mu^2 + sum_perp (pi * q_perp / L_perp)^2,

    so omega_vector(reduced)[k - 1] reproduces the 3+1 dispersion exactly.
    Driving along `axis` changes only the quantum number along it, and the
    two inert transverse numbers feed the effective mass, so the resonance
    catalog of the 3D cavity is `catalog_1d` of this reduced cavity, its
    entries labelled by the longitudinal quantum numbers.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    if len(transverse) != 2:
        raise ValueError(f"exactly two transverse quantum numbers required, got {transverse!r}")
    edges = {"x": cavity.lx, "y": cavity.ly, "z": cavity.lz}
    perp_axes = [a for a in _AXES if a != axis]
    musq = cavity.mu * cavity.mu
    for q, perp in zip(transverse, perp_axes):
        if int(q) != q or q < 1:
            raise ValueError(
                f"Dirichlet quantum number transverse {perp} must be an integer >= 1, got {q}"
            )
        k = math.pi * q / edges[perp]
        musq += k * k
    return Cavity1D(length=edges[axis], mu0=math.sqrt(musq), n_max=n_max)


def _check_modes(n_max: int, m: int, n: int, distinct: bool = False) -> None:
    """Refuse 1-based labels outside 1..n_max and, when `distinct`, m == n.

    Unchecked, label 0 would index mode n_max through numpy's negative
    indexing and return that mode's figure without an error.
    """
    for k in (m, n):
        if not 1 <= k <= n_max:
            raise ValueError(f"mode {k} outside 1..n_max = {n_max}")
    if distinct and m == n:
        raise ValueError(f"pair must name two distinct modes, got {(m, n)}")


def omega_vector(cavity: Cavity1D) -> np.ndarray:
    """Frequencies (w_1, ..., w_{n_max}) as an array."""
    k = np.pi * np.arange(1, cavity.n_max + 1, dtype=float) / cavity.length
    return np.hypot(cavity.mu0, k)


def omega_diff_matrix(cavity: Cavity1D) -> np.ndarray:
    """Matrix D[i, j] = w_{i+1} - w_{j+1}, cancellation-safe."""
    omega = omega_vector(cavity)
    n = np.arange(1, cavity.n_max + 1, dtype=float)
    ksq = (np.pi / cavity.length) ** 2 * (n[:, None] - n[None, :]) * (n[:, None] + n[None, :])
    return ksq / (omega[:, None] + omega[None, :])


def omega_sum_matrix(cavity: Cavity1D) -> np.ndarray:
    """Matrix S[i, j] = w_{i+1} + w_{j+1}."""
    omega = omega_vector(cavity)
    return omega[:, None] + omega[None, :]
