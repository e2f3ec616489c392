"""Proper acceleration profiles and their oscillatory Fourier integrals.

A profile is the dimensionless proper acceleration h(tau) = a(tau) * L of a
rigid cavity on its finite interval [tau0, tauf].  Rigidity of the cavity
requires sup |h| < 2 (the far wall must stay inside the near wall's Rindler
wedge); the bound is strict and `validate_rigidity` reports the worst point.
Each `sup_abs` is exact, or for the windowed sinusoid an upper bound, so the
check never passes a drive that breaks the bound.

Everything downstream needs windowed Fourier transforms of h,

    I(delta) = integral_{tau0}^{tauf} exp(-i*delta*(tau - tau0)) h(tau) dtau,

with delta ranging from near zero up to sums of large mode frequencies.
Sampling the oscillation is hopeless at the extreme phases that show up in
laboratory-scale scenarios, so every profile instead reports itself as a
term table: five flat arrays (a, b, coef, mu, slope), one row per piece
h = (coef + slope*t) * exp(i*mu*t) on [a, b] of local time t = tau - tau0.
Each piece integrates against the kernel in closed form, a Filon-type rule
(Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383), from one pair of
exponentials per (delta, piece).  One kernel evaluates a whole batch of
deltas against the table by broadcasting, a bounded chunk of (delta,
piece) elements at a time, and switches per element to a series expansion
where the total phase across a piece is small enough for the direct
formula to cancel.  `oscillatory_integral` is the one-delta call of that
kernel; `first_order_map` makes one call for all the distinct deltas of a
map.

For `SampledProfile` the table is the piecewise-linear interpolant of the
samples, one row per panel, built with array operations: the oscillatory
factor is handled analytically, the data enters linearly per panel.  The
reported error estimate for all variants is a rounding bound proportional
to the L1 mass of the integrand; a requested tolerance below it raises
`QuadratureError`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

RIGIDITY_BOUND = 2.0

# Cross-over for the series branch of the phase primitives.  At 1e-4 the
# omitted z^5 term is ~1e-23 relative, far below double rounding.
_SMALL_PHASE = 1e-4
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """An oscillatory integral could not meet the requested tolerance."""


@dataclass(frozen=True)
class OscillatoryIntegralResult:
    value: complex
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the strict sup|h| < 2 check."""

    ok: bool
    sup_h: float
    tau_at_sup: float
    bound: float = RIGIDITY_BOUND


# A term table lists the pieces (coef + slope * t) * exp(i*mu*t) that make up
# h, each on its own interval [a, b] of local time t = tau - tau0, as the five
# flat arrays (a, b, coef, mu, slope).  Pieces come in conjugate pairs (or are
# real) so that h is real.
_Terms = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# The kernel evaluates at most this many (delta, piece) elements at once, so
# its temporaries stay near a megabyte whatever the batch or table size.
_CHUNK_ELEMENTS = 8192


def _table(*pieces: tuple[float, float, complex, float, complex]) -> _Terms:
    """Term table from (a, b, coef, mu, slope) rows."""
    a, b, coef, mu, slope = zip(*pieces)
    return (
        np.array(a, dtype=float),
        np.array(b, dtype=float),
        np.array(coef, dtype=complex),
        np.array(mu, dtype=float),
        np.array(slope, dtype=complex),
    )


def _phase_moment(theta, span, linear: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """integral_0^span u^k * exp(i*theta*u) du for k = 0 and, if `linear`, k = 1.

    Elementwise over `theta` and `span`, which broadcast against each other;
    the k = 1 moment is None when not `linear`.  Both share one exponential
    per element.  Elements with |theta|*span < _SMALL_PHASE take the series
    branch, where the direct formula would cancel.
    """
    z = 1j * (theta * span)
    small = np.abs(theta) * span < _SMALL_PHASE
    itheta = 1j * np.where(small, 1.0, theta)
    ez = np.exp(z)
    base = (ez - 1.0) / itheta
    moment = (ez * (z - 1.0) + 1.0) / itheta**2 if linear else None
    if small.any():
        zs, ss = z[small], np.broadcast_to(span, z.shape)[small]
        base[small] = ss * (1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs / 120.0))))
        if linear:
            moment[small] = (ss * ss) * (
                0.5 + zs * (1.0 / 3.0 + zs * (0.125 + zs * (1.0 / 30.0 + zs / 144.0)))
            )
    return base, moment


def _rounding_estimate(mass: float, tol: float) -> float:
    """Rounding bound 64*eps*mass of a closed-form integral; raises above `tol`."""
    estimate = 64.0 * _EPS * mass
    if estimate > tol:
        raise QuadratureError(
            f"rounding-level error estimate {estimate:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return estimate


def _fourier_integrals(terms: _Terms, deltas, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """I(delta) for every delta of a batch, and the rounding bound they share.

    Broadcasts the deltas against the whole term table, a bounded chunk of
    deltas at a time.  A piece contributes exp(i*theta*a) times
    (coef + slope*a) * integral_0^span exp(i*theta*u) du plus slope times the
    linear moment, with theta = mu - delta; the linear moment is only formed
    when some slope is non-zero.  Raises `QuadratureError` when the bound
    exceeds `tol` or a value is not finite; numpy's overflow warnings are
    silenced, since `_check_finite` reports the same failure.
    """
    a, b, coef, mu, slope = terms
    span = b - a
    mass = float(np.sum(np.abs(coef) * span + np.abs(slope) * (0.5 * (b * b - a * a))))
    estimate = _rounding_estimate(mass, tol)
    linear = bool(np.any(slope))
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 1)
    values = np.empty(deltas.shape[0], dtype=complex)
    rows = max(1, _CHUNK_ELEMENTS // coef.size)
    with np.errstate(over="ignore", invalid="ignore"):
        start_value = coef + slope * a
        for start in range(0, deltas.shape[0], rows):
            theta = mu - deltas[start : start + rows]
            base, moment = _phase_moment(theta, span, linear)
            piece = start_value * base
            if linear:
                piece += slope * moment
            values[start : start + rows] = np.sum(np.exp(1j * (theta * a)) * piece, axis=1)
    _check_finite(values)
    return values, estimate


def _check_finite(values: np.ndarray) -> None:
    """Raise `QuadratureError` for a value no rounding bound can cover."""
    if not np.all(np.isfinite(values)):
        raise QuadratureError("not finite: a phase or term of the profile exceeds float range")


class AccelerationProfile:
    """Interface shared by every profile variant.

    Concrete profiles provide the interval [tau0, tauf], pointwise
    evaluation, the supremum of |h| (with its location), restriction to a
    subinterval, and the term table consumed by `oscillatory_integral`.
    """

    tau0: float
    tauf: float

    @property
    def duration(self) -> float:
        return self.tauf - self.tau0

    def evaluate(self, tau):
        raise NotImplementedError

    def sup_abs(self) -> tuple[float, float]:
        """(sup |h|, a tau attaining it)."""
        raise NotImplementedError

    def restrict(self, a: float, b: float) -> "AccelerationProfile":
        raise NotImplementedError

    def _terms(self) -> _Terms:
        raise NotImplementedError

    def _check_interval(self) -> None:
        if not self.tauf > self.tau0:
            raise ValueError(f"profile interval must have tauf > tau0, got [{self.tau0}, {self.tauf}]")

    def _local(self, tau) -> np.ndarray:
        """tau -> t = tau - tau0, validating the domain."""
        t = np.asarray(tau, dtype=float)
        if np.any(t < self.tau0) or np.any(t > self.tauf):
            raise ValueError(
                f"tau outside the profile interval [{self.tau0}, {self.tauf}]"
            )
        return t - self.tau0

    def _check_restriction(self, a: float, b: float) -> None:
        if not (self.tau0 <= a < b <= self.tauf):
            raise ValueError(
                f"restriction [{a}, {b}] must nest inside [{self.tau0}, {self.tauf}]"
            )


@dataclass(frozen=True)
class SinusoidalProfile(AccelerationProfile):
    """h(tau) = h0 * cos(omega_c*(tau - tau0) + phase)."""

    h0: float
    omega_c: float
    tau0: float
    tauf: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        self._check_interval()
        if not self.omega_c >= 0.0:
            raise ValueError(f"drive frequency must be nonnegative, got {self.omega_c}")

    def evaluate(self, tau):
        t = self._local(tau)
        out = self.h0 * np.cos(self.omega_c * t + self.phase)
        return float(out) if np.isscalar(tau) else out

    def sup_abs(self) -> tuple[float, float]:
        if self.h0 == 0.0:
            return 0.0, self.tau0
        if self.omega_c == 0.0:
            return abs(self.h0 * math.cos(self.phase)), self.tau0
        # |cos| peaks at multiples of pi; otherwise at an endpoint.
        lo = self.phase
        hi = self.phase + self.omega_c * self.duration
        k = math.ceil(lo / math.pi)
        if k * math.pi <= hi:
            tau_star = self.tau0 + (k * math.pi - lo) / self.omega_c
            return abs(self.h0), tau_star
        ends = [(abs(self.h0 * math.cos(lo)), self.tau0), (abs(self.h0 * math.cos(hi)), self.tauf)]
        return max(ends)

    def restrict(self, a: float, b: float) -> "SinusoidalProfile":
        self._check_restriction(a, b)
        return SinusoidalProfile(
            h0=self.h0,
            omega_c=self.omega_c,
            tau0=a,
            tauf=b,
            phase=self.phase + self.omega_c * (a - self.tau0),
        )

    def _terms(self) -> _Terms:
        c = 0.5 * self.h0 * cmath.exp(1j * self.phase)
        s = self.duration
        return _table((0.0, s, c, self.omega_c, 0), (0.0, s, c.conjugate(), -self.omega_c, 0))


@dataclass(frozen=True)
class PiecewiseConstantProfile(AccelerationProfile):
    """Constant plateaus h_k held for the listed durations, in order."""

    segments: tuple[tuple[float, float], ...]
    tau0: float = 0.0

    def __post_init__(self) -> None:
        segs = tuple((float(d), float(h)) for d, h in self.segments)
        if not segs:
            raise ValueError("at least one (duration, h) segment required")
        for i, (d, _) in enumerate(segs):
            if not d > 0.0:
                raise ValueError(f"segment {i} duration must be positive, got {d}")
        object.__setattr__(self, "segments", segs)
        self._check_interval()

    @property
    def tauf(self) -> float:  # type: ignore[override]
        return self.tau0 + sum(d for d, _ in self.segments)

    def _edges(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([d for d, _ in self.segments])])

    def evaluate(self, tau):
        t = self._local(tau)
        edges = self._edges()
        values = np.array([h for _, h in self.segments])
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(values) - 1)
        out = values[idx]
        return float(out) if np.isscalar(tau) else out

    def sup_abs(self) -> tuple[float, float]:
        edges = self._edges()
        best = max(range(len(self.segments)), key=lambda i: abs(self.segments[i][1]))
        return abs(self.segments[best][1]), self.tau0 + edges[best]

    def restrict(self, a: float, b: float) -> "PiecewiseConstantProfile":
        self._check_restriction(a, b)
        edges = self._edges() + self.tau0
        out: list[tuple[float, float]] = []
        for i, (_, h) in enumerate(self.segments):
            lo, hi = max(edges[i], a), min(edges[i + 1], b)
            if hi > lo:
                out.append((hi - lo, h))
        return PiecewiseConstantProfile(segments=tuple(out), tau0=a)

    def _terms(self) -> _Terms:
        edges = self._edges()
        values = np.array([h for _, h in self.segments], dtype=complex)
        zeros = np.zeros(values.size)
        return edges[:-1], edges[1:], values, zeros, zeros.astype(complex)


@dataclass(frozen=True)
class RampProfile(AccelerationProfile):
    """Trapezoid pulse: linear ramp 0 -> h0 over ramp_time, hold, ramp back.

    h vanishes at both ends of the interval, so the map coefficients decay
    like 1/(ramp_time * delta^2) and vanish in the adiabatic limit.
    Requires tauf - tau0 >= 2 * ramp_time.
    """

    h0: float
    ramp_time: float
    tau0: float
    tauf: float

    def __post_init__(self) -> None:
        self._check_interval()
        if not self.ramp_time > 0.0:
            raise ValueError(f"ramp_time must be positive, got {self.ramp_time}")
        if self.duration < 2.0 * self.ramp_time:
            raise ValueError(
                f"interval of length {self.duration} cannot hold two ramps of {self.ramp_time}"
            )

    def _breakpoints(self) -> np.ndarray:
        s = self.duration
        return np.unique([0.0, self.ramp_time, s - self.ramp_time, s])

    def evaluate(self, tau):
        t = self._local(tau)
        r, s = self.ramp_time, self.duration
        up = t / r
        down = (s - t) / r
        out = self.h0 * np.minimum(1.0, np.minimum(up, down))
        return float(out) if np.isscalar(tau) else out

    def sup_abs(self) -> tuple[float, float]:
        return abs(self.h0), self.tau0 + self.ramp_time

    def restrict(self, a: float, b: float) -> "SampledProfile":
        self._check_restriction(a, b)
        nodes = [a] + [
            self.tau0 + t for t in self._breakpoints() if a < self.tau0 + t < b
        ] + [b]
        nodes_arr = np.array(nodes)
        return SampledProfile(tau=nodes_arr, h=np.asarray(self.evaluate(nodes_arr)))

    def _terms(self) -> _Terms:
        r, s, h0 = self.ramp_time, self.duration, self.h0
        pieces = [(0.0, r, 0.0, 0.0, h0 / r)]
        if s > 2.0 * r:
            pieces.append((r, s - r, h0, 0.0, 0.0))
        pieces.append((s - r, s, h0 * s / r, 0.0, -h0 / r))
        return _table(*pieces)


@dataclass(frozen=True, eq=False)
class SampledProfile(AccelerationProfile):
    """Piecewise-linear interpolant of (tau, h) samples.

    The grid must be strictly increasing; a uniform grid is typical but not
    required.  Fourier integrals treat the interpolant exactly (Filon rule),
    so the only error against the *samples* is interpolation error, which is
    the caller's modelling choice, not a quadrature artifact.
    """

    tau: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if tau.ndim != 1 or h.shape != tau.shape:
            raise ValueError("tau and h must be 1-d arrays of equal length")
        if tau.size < 2:
            raise ValueError("at least two samples required")
        if not np.all(np.diff(tau) > 0.0):
            raise ValueError("sample grid must be strictly increasing in tau")
        tau.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "h", h)

    @property
    def tau0(self) -> float:  # type: ignore[override]
        return float(self.tau[0])

    @property
    def tauf(self) -> float:  # type: ignore[override]
        return float(self.tau[-1])

    def evaluate(self, tau):
        t = self._local(tau) + self.tau0
        out = np.interp(t, self.tau, self.h)
        return float(out) if np.isscalar(tau) else out

    def sup_abs(self) -> tuple[float, float]:
        idx = int(np.argmax(np.abs(self.h)))
        return float(abs(self.h[idx])), float(self.tau[idx])

    def restrict(self, a: float, b: float) -> "SampledProfile":
        self._check_restriction(a, b)
        inner = (self.tau > a) & (self.tau < b)
        tau = np.concatenate([[a], self.tau[inner], [b]])
        h = np.interp(tau, self.tau, self.h)
        return SampledProfile(tau=tau, h=h)

    def _terms(self) -> _Terms:
        # Panel k is one piece, h = intercept_k + slope_k * t on [t_k, t_{k+1}].
        t = self.tau - self.tau0
        a, b = t[:-1], t[1:]
        slope = np.diff(self.h) / (b - a)
        intercept = self.h[:-1] - slope * a
        return a, b, intercept.astype(complex), np.zeros(a.size), slope.astype(complex)


@dataclass(frozen=True)
class WindowedSinusoidProfile(AccelerationProfile):
    """Sinusoidal drive with raised-cosine switch-on and switch-off ramps.

    The envelope rises as (1 - cos(pi*t/W))/2 over the first window_time W,
    holds at 1, and falls symmetrically over the last W.  Smooth switching
    removes the 1/delta jump contributions of a sharply gated drive; the
    window parameters are a modelling choice, not tied to any measurement.
    Requires tauf - tau0 >= 2 * window_time.
    """

    h0: float
    omega_c: float
    window_time: float
    tau0: float
    tauf: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        self._check_interval()
        if not self.omega_c >= 0.0:
            raise ValueError(f"drive frequency must be nonnegative, got {self.omega_c}")
        if not self.window_time > 0.0:
            raise ValueError(f"window_time must be positive, got {self.window_time}")
        if self.duration < 2.0 * self.window_time:
            raise ValueError(
                f"interval of length {self.duration} cannot hold two windows of {self.window_time}"
            )
        if not math.isfinite(math.pi / self.window_time * self.duration):
            raise ValueError(
                "window phase pi/window_time * duration is beyond floating-point range"
            )
        if not math.isfinite(self.phase + self.omega_c * self.duration):
            raise ValueError(
                "drive phase omega_c * duration + phase is beyond floating-point range"
            )

    def _envelope(self, t: np.ndarray) -> np.ndarray:
        w, s = self.window_time, self.duration
        env = np.ones_like(t)
        rising = t < w
        falling = t > s - w
        env = np.where(rising, 0.5 * (1.0 - np.cos(np.pi * t / w)), env)
        env = np.where(falling, 0.5 * (1.0 - np.cos(np.pi * (s - t) / w)), env)
        return env

    def evaluate(self, tau):
        t = self._local(tau)
        out = self.h0 * self._envelope(np.asarray(t, dtype=float)) * np.cos(
            self.omega_c * t + self.phase
        )
        return float(out) if np.isscalar(tau) else out

    def sup_abs(self) -> tuple[float, float]:
        """(|h0|, tau): an upper bound on sup |h| that never under-estimates.

        The envelope never exceeds 1, so sup|h| <= |h0|.  The bound is attained
        when the plateau [W, S - W], where the envelope is 1, contains a cosine
        extremum; tau is then that extremum, otherwise the plateau end with the
        larger |cos|.  A static drive (omega_c = 0) has the exact supremum
        |h0 cos(phase)|, reached all along the plateau.
        """
        w = self.window_time
        lo = self.phase + self.omega_c * w
        hi = self.phase + self.omega_c * (self.duration - w)
        if self.omega_c == 0.0:
            return abs(self.h0 * math.cos(self.phase)), self.tau0 + w
        k = math.ceil(lo / math.pi)
        if k * math.pi <= hi:
            return abs(self.h0), self.tau0 + (k * math.pi - self.phase) / self.omega_c
        t_end = w if abs(math.cos(lo)) >= abs(math.cos(hi)) else self.duration - w
        return abs(self.h0), self.tau0 + t_end

    def restrict(self, a: float, b: float) -> "AccelerationProfile":
        raise NotImplementedError(
            "windowed profiles do not restrict exactly; resample into SampledProfile instead"
        )

    def _terms(self) -> _Terms:
        w, s = self.window_time, self.duration
        nu = math.pi / w
        drive = (
            (0.5 * self.h0 * cmath.exp(1j * self.phase), self.omega_c),
            (0.5 * self.h0 * cmath.exp(-1j * self.phase), -self.omega_c),
        )
        gate = cmath.exp(1j * nu * s)
        rising, plateau, falling = [], [], []
        for c, mu in drive:
            plateau.append((w, s - w, c, mu, 0))
            rising += [
                (0.0, w, 0.5 * c, mu, 0),
                (0.0, w, -0.25 * c, mu + nu, 0),
                (0.0, w, -0.25 * c, mu - nu, 0),
            ]
            falling += [
                (s - w, s, 0.5 * c, mu, 0),
                (s - w, s, -0.25 * c * gate, mu - nu, 0),
                (s - w, s, -0.25 * c * gate.conjugate(), mu + nu, 0),
            ]
        return _table(*rising, *(plateau if s > 2.0 * w else []), *falling)


def validate_rigidity(profile: AccelerationProfile) -> RigidityReport:
    """Strict check of sup |h| < 2 with the worst point reported."""
    sup_h, tau_star = profile.sup_abs()
    return RigidityReport(ok=sup_h < RIGIDITY_BOUND, sup_h=sup_h, tau_at_sup=tau_star)


def oscillatory_integral(
    profile: AccelerationProfile, delta: float, tol: float = 1e-10
) -> OscillatoryIntegralResult:
    """integral_{tau0}^{tauf} exp(-i*delta*(tau - tau0)) h(tau) dtau.

    Exact per piece up to rounding; the error estimate is a rounding bound
    built from the L1 mass of the integrand.  Raises `QuadratureError` when
    the estimate exceeds `tol` or the value is not finite.
    """
    terms = profile._terms()
    values, estimate = _fourier_integrals(terms, [delta], tol)
    return OscillatoryIntegralResult(
        value=complex(values[0]), error_estimate=estimate, evaluations=terms[2].size
    )

