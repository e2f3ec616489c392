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
w_{n_max}), and `_gaps` gives the difference and sum of two of them at any
set of entries.  Frequency differences w_m - w_n are needed deep inside
resonance denominators where the two frequencies can agree to many digits
(large effective mass), so `_gaps` evaluates each one in the
cancellation-safe form (k_m^2 - k_n^2) / (w_m + w_n), which stays accurate
when the direct subtraction would cancel.

Only the entries with m + n odd couple under a rigid drive.
`_odd_entries` lists the half with m < n once per mode count, with the flat
positions of each (m, n) and of its mirror (n, m), and every first-order
quantity (coefficients, maps, catalogs, compositions) is computed on that
one list rather than on n_max x n_max matrices.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from . import _Value

_AXES = ("x", "y", "z")

# The strict bound on sup |h| = sup |aL| that keeps the cavity rigid (see `profiles`).
RIGIDITY_BOUND = 2.0
# The default quadrature error tolerance of maps, integrals, grids and scenario runs.
DEFAULT_TOL = 1e-10

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
        _check_number("cavity length", self.length, "positive")
        _check_number("field mass mu0", self.mu0, "nonnegative")
        _check_count("n_max", self.n_max, 2)
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
            _check_number(f"cavity edge l{name}", edge, "positive")
        _check_number("field mass mu", self.mu, "nonnegative")


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
    edges = {"x": cavity.lx, "y": cavity.ly, "z": cavity.lz}
    perp_axes = [a for a in _AXES if a != axis]
    musq = cavity.mu * cavity.mu
    for q, perp in zip(_check_pair("transverse quantum numbers", transverse), perp_axes):
        k = math.pi * q / edges[perp]
        musq += k * k
    return Cavity1D(length=edges[axis], mu0=math.sqrt(musq), n_max=n_max)


def _is_mode_number(value) -> bool:
    """The one rule: an integer (numpy's too), not a bool; labels and counts are >= 1."""
    # An int first: the isinstance check against the ABC costs about 1 us.
    return type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool)


def _check_count(name: str, value, least: int = 1) -> None:
    if not (_is_mode_number(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_real(value) -> bool:
    """The one rule for a real number: an int or a float, numpy's too; no bool, text or complex."""
    # float and int (np.float64 is a float) before the ABC, whose check costs about 1 us.
    return type(value) is not bool and isinstance(value, (float, int, numbers.Real))


def _check_number(name: str, value, sign: str = "", finite: bool = True) -> None:
    """A ValueError naming `name` unless `value` is a real number of `sign`, and finite.

    `sign` is "", "nonnegative" or "positive"; NaN fails either, with the sign's message.
    `finite=False` leaves NaN and infinity to a check that names them itself.  An int
    beyond the float range, which compares exactly and so below infinity, is refused
    either way: no float holds it.
    """
    if not _is_real(value):
        raise ValueError(f"{name} must be real (an int or a float), got {value!r:.40}")
    try:
        number = float(value)
    except OverflowError:  # not printed: str() refuses an int of more than 4300 digits
        raise ValueError(f"{name} must be finite, got a number beyond the float range") from None
    if sign and not (number > 0.0 if sign == "positive" else number >= 0.0):
        raise ValueError(f"{name} must be {sign}, got {value}")
    if finite and not -math.inf < number < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def _check_real(name: str, value, sign: str = "", finite: bool = True) -> np.ndarray:
    """`value` as a float array; a ValueError naming `name` unless real, of `sign`, and finite.

    The rule of `_is_real` on the dtype: booleans, text, bytes, objects and
    complex numbers are refused, which `np.asarray(value, dtype=float)` would
    read as numbers (a complex one as its real part, with a ComplexWarning).
    Then, in `_check_number`'s order and naming the first entry that fails,
    the sign, which NaN fails, and finiteness unless `finite=False`.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as error:  # ragged rows, which numpy cannot shape
        raise ValueError(f"{name} must be real numbers: {error}") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers: got dtype {array.dtype}")
    array = np.asarray(array, dtype=float)
    if sign:
        bad = ~(array > 0.0 if sign == "positive" else array >= 0.0)  # NaN fails either
        if bad.any():
            raise ValueError(f"{name} must be {sign}, got {array[bad][0]}")
    if finite:
        bad = ~np.isfinite(array)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {array[bad][0]}")
    return array


def _is_two(value) -> bool:
    """A tuple, list or 1-d array of two items, whatever the items are."""
    shape = (len(value),) if isinstance(value, (tuple, list)) else getattr(value, "shape", None)
    return shape == (2,)


def _check_pair(name: str, pair) -> tuple[int, int]:
    """`pair` when it is exactly two labels; a ValueError naming `name` otherwise."""
    if not (_is_two(pair) and all(_is_mode_number(k) and k >= 1 for k in pair)):
        raise ValueError(f"{name} must be two integers >= 1, got {pair!r}")
    return pair


def _check_modes(n_max: int, pair, distinct: bool = False) -> tuple[int, int]:
    """The 0-based indices of the labels (m, n) of `pair`; unchecked, 0 would read mode n_max."""
    if not _is_two(pair):
        raise ValueError(f"pair must be two mode labels, got {pair!r}")
    m, n = pair
    for k in pair:
        if not _is_mode_number(k):
            raise ValueError(f"mode {k!r} is not an integer label")
        if not 1 <= k <= n_max:
            raise ValueError(f"mode {k} outside 1..n_max = {n_max}, the truncation")
    if distinct and m == n:
        raise ValueError(f"pair must name two distinct modes, got {(m, n)}")
    return m - 1, n - 1


def omega_vector(cavity: Cavity1D) -> np.ndarray:
    """Frequencies (w_1, ..., w_{n_max}) as an array."""
    k = np.pi * np.arange(1, cavity.n_max + 1, dtype=float) / cavity.length
    return np.hypot(cavity.mu0, k)


def _gaps(cavity: Cavity1D, omega: np.ndarray, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """(w_m - w_n, w_m + w_n) at the 0-based indices rows, cols, which broadcast.

    `omega` is `omega_vector(cavity)`.  The difference is (k_m^2 - k_n^2) /
    (w_m + w_n), exactly antisymmetric: each operation rounds the same way
    for (m, n) and (n, m), up to sign.  Every factor but m - n is positive,
    and `Cavity1D`'s scale limits keep the smallest gap a normal float, so
    the difference is negative exactly where m < n.
    """
    m, n = rows + 1.0, cols + 1.0
    total = omega[rows] + omega[cols]
    return (np.pi / cavity.length) ** 2 * (m - n) * (m + n) / total, total


@functools.lru_cache(maxsize=4)
def _odd_entries(n_max: int) -> tuple:
    """(odd, rows, cols, upper, lower, mn) of the entries with m + n odd; read-only.

    `odd` is the n_max x n_max boolean mask.  The rest list its half with
    m < n in row-major order: rows and cols are the 0-based positions,
    upper = rows * n_max + cols is the flat position of (m, n), lower =
    cols * n_max + rows that of its mirror (n, m), and mn is (m + 1) * (n + 1)
    as floats.  Built once per mode count and shared by every cavity: an
    entry holds these arrays alone, at most 11 * n_max**2 bytes (45 KB at
    n_max = 64), so the cache stays small.
    """
    odd = np.zeros((n_max, n_max), dtype=bool)
    odd[::2, 1::2] = odd[1::2, ::2] = True
    upper = np.flatnonzero(np.triu(odd, 1))
    rows, cols = np.divmod(upper, n_max)
    table = (odd, rows, cols, upper, cols * n_max + rows, (rows + 1.0) * (cols + 1.0))
    for array in table:
        array.setflags(write=False)
    return table
