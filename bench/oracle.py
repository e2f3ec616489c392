"""Reference values for the benchmark's output checks, built from numpy alone.

Nothing here calls cavitymix.  The Fourier integrals use composite
Gauss-Legendre quadrature on panels short enough that the integrand turns
through at most `PANEL_PHASE` radians; with 12 nodes per panel the rule's
truncation error sits far below double rounding, so the reference is exact
to rounding while sharing no formula with the package's closed-form
antiderivatives.
"""

from __future__ import annotations

import math

import numpy as np

PANEL_PHASE = 2.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
_CHUNK = 8192  # panels per block, so the check's temporaries stay small


def omega(length: float, mu0: float, n_max: int) -> np.ndarray:
    """Dirichlet frequencies w_n = sqrt(mu0^2 + (pi n / L)^2), n = 1..n_max."""
    k = math.pi * np.arange(1, n_max + 1) / length
    return np.sqrt(mu0 * mu0 + k * k)


def odd_pairs(n_max: int) -> int:
    """Number of (m, n) entries with m + n odd: each needs two integrals."""
    return (n_max * n_max) // 2


def static_entries(length: float, mu0: float, n_max: int, m: int, n: int):
    """(delta, alpha_hat, sigma, beta_hat) of one odd (m, n) entry, 1-based."""
    w = omega(length, mu0, n_max)
    wm, wn = w[m - 1], w[n - 1]
    ksq = (math.pi / length) ** 2 * (m - n) * (m + n)
    delta = ksq / (wm + wn)
    sigma = wm + wn
    root = math.sqrt(wm * wn)
    alpha = -2.0 * math.pi**2 * m * n / (length**4 * delta**3 * root)
    beta = 2.0 * math.pi**2 * m * n / (length**4 * sigma**3 * root)
    return delta, alpha, sigma, beta


def fourier_integral(h, breaks: np.ndarray, delta: float, bandwidth: float) -> complex:
    """integral over [breaks[0], breaks[-1]] of exp(-i delta (t - t0)) h(t) dt.

    `h` maps an array of times to values and must be smooth between
    consecutive `breaks`; `bandwidth` bounds the angular frequencies of h
    itself, so the panels also resolve its own oscillation.
    """
    breaks = np.asarray(breaks, dtype=float)
    t0 = breaks[0]
    rate = abs(delta) + bandwidth
    widths = np.diff(breaks)
    counts = np.maximum(1, np.ceil(widths * rate / PANEL_PHASE)).astype(np.int64)
    piece = np.repeat(np.arange(widths.size), counts)
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    panel_width = widths[piece] / counts[piece]
    panel_left = breaks[:-1][piece] + step * panel_width
    total = 0.0 + 0.0j
    for lo in range(0, panel_left.size, _CHUNK):
        left = panel_left[lo : lo + _CHUNK, None]
        half = 0.5 * panel_width[lo : lo + _CHUNK, None]
        t = left + half * (_NODES + 1.0)
        values = h(t) * np.exp(-1j * delta * (t - t0))
        total += complex(np.sum(half * _WEIGHTS * values))
    return total


def l1_mass(h, breaks: np.ndarray) -> float:
    """integral of |h|, by the same panels with delta = 0 (rounding scale)."""
    return abs(fourier_integral(lambda t: np.abs(h(t)), breaks, 0.0, 0.0))


def sinusoid_integral(h0: float, omega_c: np.ndarray, duration: np.ndarray, delta: float):
    """Closed form of integral_0^T exp(-i delta t) h0 cos(omega_c t) dt, broadcast.

    Written out from cos = (e^{i w t} + e^{-i w t}) / 2 with a series for
    the exponential integral when the phase across the interval is small.
    """
    def expint(theta, t):
        z = 1j * theta * t
        small = np.abs(z) < 1e-3
        safe = np.where(small, 1.0, theta)
        direct = (np.exp(z) - 1.0) / (1j * safe)
        series = t * (1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0)
        return np.where(small, series, direct)

    return 0.5 * h0 * (expint(omega_c - delta, duration) + expint(-omega_c - delta, duration))
