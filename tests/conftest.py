"""Shared oracles for the test suite.

The package evaluates its Fourier integrals in closed form, so the tests
check it against a plain dense-grid Simpson rule (same integrand, entirely
different numerics) and, where the profile is made of linear or sinusoidal
pieces, against the exact integral worked out in mpmath.
"""

import itertools
import os
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import simpson

from cavitymix.profiles import (
    PiecewiseConstantProfile,
    RampProfile,
    SampledProfile,
    SinusoidalProfile,
    WindowedSinusoidProfile,
)
from cavitymix.spectrum import _gaps, omega_vector

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def child_env():
    """The inherited env with an absolute src first on PYTHONPATH.

    A child interpreter may run in a temporary cwd, where a relative entry
    such as `PYTHONPATH=src` no longer resolves; the absolute path makes it
    import the checkout under test rather than any installed copy.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def gap_matrices(cavity):
    """(D, S): D[i, j] = w_{i+1} - w_{j+1}, cancellation-safe, and S[i, j] = w_{i+1} + w_{j+1}."""
    rows, cols = np.indices((cavity.n_max, cavity.n_max))
    return _gaps(cavity, omega_vector(cavity), rows, cols)


def simpson_oscillatory(profile, delta, points_per_period=60, min_points=4001):
    """Simpson-rule value of the windowed Fourier integral of a profile.

    Resolution scales with the total phase so the rule stays accurate for
    every delta used in the tests.
    """
    duration = profile.tauf - profile.tau0
    cycles = abs(delta) * duration / (2.0 * np.pi) + 1.0
    n = max(min_points, int(points_per_period * cycles))
    if n % 2 == 0:
        n += 1
    tau = np.linspace(profile.tau0, profile.tauf, n)
    integrand = np.exp(-1j * delta * (tau - profile.tau0)) * profile.evaluate(tau)
    return complex(simpson(integrand, x=tau))


def simpson_oscillatory_segmented(profile, delta, breakpoints, points_per_segment=4001):
    """Simpson oracle for profiles with jump discontinuities.

    Integrates segment by segment so the rule never straddles a jump.  The
    two endpoint samples of each segment are nudged inward by a relative
    1e-9 so `evaluate` returns the one-sided limit belonging to that
    segment; the grid coordinates themselves stay exact.
    """
    total = 0.0 + 0.0j
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        n = points_per_segment if points_per_segment % 2 == 1 else points_per_segment + 1
        tau = np.linspace(a, b, n)
        inside = np.clip(tau, a + 1e-9 * (b - a), b - 1e-9 * (b - a))
        integrand = np.exp(-1j * delta * (tau - profile.tau0)) * profile.evaluate(inside)
        total += complex(simpson(integrand, x=tau))
    return total


def _exact_pieces(profile):
    """(a, b, h(a), h(b), mu) per piece, exact in mpmath from the profile's floats.

    On [a, b] of local time the integrand is the linear function through
    (a, h(a)) and (b, h(b)) times exp(i*mu*t).
    """
    mpf = mpmath.mpf
    if isinstance(profile, SampledProfile):
        t = [mpf(x) - mpf(profile.tau[0]) for x in profile.tau]
        h = [mpf(x) for x in profile.h]
        return [(t[k], t[k + 1], h[k], h[k + 1], 0) for k in range(len(t) - 1)]
    if isinstance(profile, PiecewiseConstantProfile):
        # The plateaus end at the running float sums of the durations, where
        # `evaluate` puts its jumps.
        edges = [0.0, *itertools.accumulate(d for d, _ in profile.segments)]
        return [
            (mpf(a), mpf(b), mpf(h), mpf(h), 0)
            for a, b, (_, h) in zip(edges, edges[1:], profile.segments)
        ]
    if isinstance(profile, RampProfile):
        r, s, h0 = mpf(profile.ramp_time), mpf(profile.tauf) - mpf(profile.tau0), mpf(profile.h0)
        return [(0, r, 0, h0, 0), (r, s - r, h0, h0, 0), (s - r, s, h0, 0, 0)]
    if isinstance(profile, SinusoidalProfile):
        s = mpf(profile.tauf) - mpf(profile.tau0)
        c = mpf(profile.h0) / 2 * mpmath.expj(mpf(profile.phase))
        w = mpf(profile.omega_c)
        return [(0, s, c, c, w), (0, s, mpmath.conj(c), mpmath.conj(c), -w)]
    if isinstance(profile, WindowedSinusoidProfile):
        # h0*cos(w*t + phase) times the envelope (1 - cos(nu*t))/2 on [0, m],
        # 1 on [m, s - m] and (1 - cos(nu*(s - t)))/2 on [s - m, s], nu =
        # pi/W and m = min(W, s/2), as `evaluate` computes it.  Each cosine
        # splits into exp(+-i*...), so every piece is a constant times
        # exp(i*mu*t) with mu = +-w or +-w +- nu.
        s = mpf(profile.tauf) - mpf(profile.tau0)
        window = mpf(profile.window_time)
        nu, m = mpmath.pi / window, min(window, s / 2)
        gate = mpmath.expj(nu * s)
        pieces = []
        for sign in (1, -1):
            c = mpf(profile.h0) / 2 * mpmath.expj(sign * mpf(profile.phase))
            w = sign * mpf(profile.omega_c)
            for a, b, coefs in (
                (0, m, ((w, c / 2), (w + nu, -c / 4), (w - nu, -c / 4))),
                (m, s - m, ((w, c),)),
                (s - m, s, ((w, c / 2), (w + nu, -c / 4 / gate), (w - nu, -c / 4 * gate))),
            ):
                pieces += [(a, b, k, k, mu) for mu, k in coefs]
        return pieces
    raise TypeError(f"no exact pieces for {type(profile).__name__}")


def exact_oscillatory(profile, delta, dps=50):
    """Exact windowed Fourier integral of a profile, at `dps` decimal digits.

    Sums the closed form of integral_a^b (h_a + slope*(t - a)) exp(w*t) dt,
    w = i*(mu - delta), piece by piece, from the profile's own float data
    (sample times and values, segment durations, ramp or drive parameters)
    taken as exact.  The closed form cancels at small |w|*(b - a): at 1e-6
    it loses 12 of the `dps` digits, leaving far more than double precision.
    """
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for a, b, ha, hb, mu in _exact_pieces(profile):
            span = b - a
            w = 1j * (mpmath.mpf(mu) - mpmath.mpf(delta))
            if span == 0:
                continue
            if w == 0:
                total += (ha + hb) / 2 * span
                continue
            ea, eb = mpmath.exp(w * a), mpmath.exp(w * b)
            slope = (hb - ha) / span
            total += ha * (eb - ea) / w + slope * (span * eb / w - (eb - ea) / w**2)
        return complex(total)
