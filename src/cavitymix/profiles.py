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
term table of nodes (t, mu) and pieces h = (start + slope*(t - t_lo)) *
exp(i*mu*t) between two nodes (t_lo, mu) and (t_hi, mu), of local time
t = tau - tau0.  Each piece integrates against the kernel in closed form, a
Filon-type rule (Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383), from
the exponentials exp(i*(mu - delta)*t) at its two nodes; pieces that meet
share their node, so a batch costs one exponential per (delta, node).  One
kernel evaluates a whole batch of deltas against the table by
broadcasting, a bounded chunk of elements at a time, and switches per
(delta, piece) element to expm1 and a series where the phase across the
piece is below 1/4 and the node form would cancel.

A uniformly sampled trace has a cheaper form.  When the table is one mu = 0
chain of nodes at t_k = k*dt, a delta with |delta|*dt >= 1/4 is summed by
parts per node instead of per piece, and the node exponentials split as
exp(-i*delta*(j*M + r)*dt) = A_j*B_r with M ~ sqrt(N), the factorisation
behind the chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans. Audio
Electroacoust. 17 (1969) 86).  Such a delta costs 2*sqrt(N) exponentials
and one small matrix product; every other (delta, table) pair costs one
exponential per (delta, node).  `oscillatory_integral` is the one-delta
call of that kernel; `first_order_map` makes one call for all the distinct
deltas of a map.

For `SampledProfile` the table is the piecewise-linear interpolant of the
samples, one node per sample and one piece per panel: the oscillatory
factor is handled analytically, the data enters linearly per panel.  The
reported error estimate is a rounding bound derived for each path,
`_rounding_estimate` per piece and `_node_sum_estimate` per node, each
growing with the table's values times the nodes' distance from tau0; a
requested tolerance below it raises `QuadratureError`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import _Value
from .spectrum import RIGIDITY_BOUND

# Crossover of the small-phase branch, on |z| = |theta|*span of a piece.
# Above it the node form divides differences of unit exponentials, each
# within about eps of exact, by theta and theta**2: at |z| = 1/4 that costs
# up to 2*eps/|z| = 8 eps relative in the base moment and 4*eps/|z|**2 =
# 64 eps of a slope term's mass, which `_rounding_estimate` covers.  Below
# it the piece takes its own expm1(z)/z, which does not cancel, and the
# linear moment's Taylor series through z**12, which truncates below 4e-19
# relative at |z| = 1/4.
_SMALL_PHASE = 0.25
_EPS = float(np.finfo(float).eps)

# integral_0^1 v * exp(z*v) dv = sum_j z**j / (j! (j + 2)), as np.polyval
# coefficients (highest power first).
_LINEAR_SERIES = [1.0 / (math.factorial(j) * (j + 2)) for j in range(12, -1, -1)]


class QuadratureError(RuntimeError):
    """An oscillatory integral could not meet the requested tolerance."""


class OscillatoryIntegralResult(_Value):
    value: complex
    error_estimate: float
    evaluations: int


class RigidityReport(_Value):
    """Outcome of the strict sup|h| < 2 check."""

    ok: bool
    sup_h: float
    tau_at_sup: float
    bound: float = RIGIDITY_BOUND


# A term table lists h as pieces (start + slope*(t - t_lo)) * exp(i*mu*t) of
# local time t = tau - tau0, each between two nodes (t_lo, mu) and (t_hi, mu),
# as six entries (t, mu, lo, hi, start, slope): the node times and
# frequencies, then per piece its two node indices and its two coefficients.
# Pieces that meet at a node share it, so its exponential is formed once; lo
# and hi are slices where every piece runs between neighbouring nodes.
# Pieces come in conjugate pairs (or are real) so that h is real.
_Index = slice | np.ndarray
_Terms = tuple[np.ndarray, np.ndarray, _Index, _Index, np.ndarray, np.ndarray]

# The kernel evaluates at most this many (delta, node) or (delta, piece)
# elements at once, whatever the batch or table size.  Each temporary is then
# at most 32 KiB, and a chunk's temporaries together stay under glibc's
# 128 KiB mmap and trim thresholds, so a steady loop of calls reuses the same
# heap pages; at 8192 elements each call mapped or trimmed its temporaries
# and faulted them in again.
_CHUNK_ELEMENTS = 2048

# A uniform chain (`_uniform_chain`) has its node times within this many eps
# of T of k*dt, T the last node time: a linspace grid lands within it when
# |tau0| <= T.  Below _UNIFORM_MIN_NODES nodes the node sum's fixed cost per
# call outweighs what it saves over the per-piece kernel.
_UNIFORM_GAP = 4.0
_UNIFORM_MIN_NODES = 32


def _small_phase(z, span, start, slope=None):
    """integral_0^span (start + slope*u) * exp(z*u/span) du, for |z| < _SMALL_PHASE.

    Elementwise, where the node form would cancel; `slope` None stands for
    zero.  Called inside the kernel's silenced floating-point state.
    """
    value = start * np.where(z == 0.0, 1.0, np.expm1(z) / z)
    if slope is not None:
        value += slope * span * np.polyval(_LINEAR_SERIES, z)
    return span * value


def _within(estimate: float, tol: float) -> float:
    """`estimate`, or `QuadratureError` when it exceeds `tol`."""
    if estimate > tol:
        raise QuadratureError(
            f"rounding-level error estimate {estimate:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return estimate


def _rounding_estimate(height, right, span, tol: float) -> float:
    """Rounding bound of the node form, from per-piece arrays; raises above `tol`.

    `height` is sup|h| on each piece (W), `right` its right node (b >= 0) and
    `span` its length (s).  At first order in u = eps/2, with c =
    _SMALL_PHASE and |theta| >= c/s in the direct branch, a piece's value
    q*(E_b*end - E_a*start)/i + q**2*slope*(E_b - E_a), q = 1/theta, is off by
    at most:

    - node exponentials: exp(i*theta*t) comes from theta*t rounded to
      u*|theta*t| and is then within 2u, so each carries
      u*|theta|*t + 2u, times its coefficient |q|*W + q**2*|slope|; with
      |q| <= s/c and |slope|*s <= 2W that is
      u*(a + b)*W*(1 + 2/c) + 4u*W*s*(1/c + 2/c**2) <= 18u*b*W + 144u*W*s;
    - theta = mu - delta rounded to u*|theta|: u*|theta|*|dI/dtheta|, at
      most 4u*b*W by parts;
    - the node times themselves, each within u*t of the profile's, moving
      the piece by at most 2W*u*(a + b) <= 4u*b*W;
    - the arithmetic of the piece, about ten operations on terms up to
      W*s*(1 + 4/c): under 160u*W*s;
    - the sum over P pieces: (P - 1)*u*W*s each.

    The small-phase branch (|theta|*s < c) stays inside the same bound: its
    node exponential is off by u*c*a/s + 2u relative, expm1 and the series
    add a few u, and the series' truncation is below u/100.  In total,
    eps*(13*b*W + (152 + (P - 1)/2)*W*s) summed over the pieces, rounded up
    to eps*(16*b*W + (160 + P/2)*W*s).
    """
    return _within(
        _EPS * float(np.sum(height * (16.0 * right + (160.0 + 0.5 * span.size) * span))), tol
    )


def _node_sum_estimate(t, gap, weights, start, jump, end, q_max, sizes, tol: float) -> float:
    """Rounding bound of `_node_sums` for every delta with |q| <= q_max; raises above `tol`.

    Per node: the times t_k, gap_k = |t_k - fl(k*dt)| and the rows
    `weights` = [w1; w2] (a1 = |w1|, a2 = |w2|); per piece: `start`, the
    step D = slope*s across it (`jump`) and `end`, so that its height is
    W = max(|start|, |end|).  `q_max` is Q = max|q| = 1/min|delta| <=
    dt/_SMALL_PHASE and `sizes` is M + J.  Node k enters the sum with the
    coefficient c_k = -i*q*w1_k + q**2*w2_k, theta = -delta = 1/q, so
    |theta*c_k| <= a1_k + Q*a2_k =: a_k and |c_k| <= Q*a_k.  At first order
    in u = eps/2 the value is off by at most:

    - node times: the table's t_k are within u*t_k of the profile's, and
      moving node k by d moves the integral by at most d*(a1_k + (|D_{k-1}|
      + |D_k|)/2): its two pieces' boundary values differ by w1_k, and each
      piece's linear part shifts by at most |D|/2; summed,
      u*sum_k t_k*a1_k + u*sum_p |D_p|*(t_p + t_{p+1})/2;
    - steps: a slope taken as a quotient of differences puts the end of its
      piece within 2u*|D| of the profile's value, moving the piece by
      u*|D|*s;
    - phases and gaps: r*dt and j*M*dt are each rounded once, and theta
      times them once more, so the sum's effective E_k = A_j*B_r is
      exp(i*theta*k*dt) within 2u*|theta|*k*dt + 4u (cos and sin within
      about u each); k*dt lies within gap_k + u*t_k of t_k.  A phase error
      of E_k costs |theta*c_k| times it, and the 4u costs |c_k| times it:
      (3u*t_k + gap_k)*a_k + 4u*Q*a_k;
    - weights: w1 = end - start with end = start + D is off by
      u*(|D| + |end| + |w1|) <= 4u*(W_{k-1} + W_k), which costs Q times
      it, 8u*Q*sum_p W_p in all; w2 is off by u*a2, costing u*Q*a_k;
    - the sums: each inner sum of B @ [w1 | w2] takes 2M real products per
      component (zeros of the block table included), so it is off by at
      most 2M*u of sum_r |w_r*B_r| in any order; each product with A costs
      3u and the J-term sum (J - 1)*u: under 3u*(M + J) + 3u of |c_k| in
      all.  q and the final q*(q*S2 - i*S1) cost 5u: (3*(M + J) + 8)*u*Q*a_k
      with the rest;
    - the q**2 terms: at |delta|*dt >= 1/4, q**2*a2_k <= 16*dt**2*(|slope_{k-1}|
      + |slope_k|) <= 64*W*dt, so the by-parts sum cancels at most that
      much and every term above already charges its rounding against it.

    In total u*(sum_k t_k*(a1_k + 3*a_k) + sum_p |D_p|*((t_p + t_{p+1})/2 + s_p)
    + (3*(M + J) + 13)*Q*sum_k a_k + 8*Q*sum_p W_p) + sum_k gap_k*a_k (the 13
    gathers the 4u of the exponentials, the u of w2 and the 8u above), with
    (t_p + t_{p+1})/2 + s_p <= 1.5*t_{p+1}; the 13 is rounded up to 16, which
    covers the second-order terms while u*(M + J) and u*|delta|*T are far
    below 1.
    """
    (t_a1, gap_a1), (t_a2, gap_a2) = np.abs(weights) @ np.stack([t, gap], axis=1)
    sum_a1, sum_a2 = np.abs(weights).sum(axis=1)
    rounding = (
        4.0 * t_a1
        + 3.0 * q_max * t_a2
        + 1.5 * np.dot(np.abs(jump), t[1:])
        + (3.0 * sizes + 16.0) * q_max * (sum_a1 + q_max * sum_a2)
        + 8.0 * q_max * np.sum(np.maximum(np.abs(start), np.abs(end)))
    )
    return _within(float(0.5 * _EPS * rounding + gap_a1 + q_max * gap_a2), tol)


def _fourier_integrals(terms: _Terms, deltas, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """I(delta) for every delta of a batch, and a rounding bound that covers each.

    On a uniform chain (`_uniform_chain`) a delta with |delta|*dt >=
    _SMALL_PHASE takes `_node_sums`; every other delta, and every delta of
    any other table, takes `_piece_integrals`.  The returned bound is the
    larger of the bounds of the paths taken.  Raises `QuadratureError` when a
    bound exceeds `tol` or a value is not finite.
    """
    deltas = np.asarray(deltas, dtype=float).ravel()
    chain = _uniform_chain(terms)
    far = np.abs(deltas) * chain[0] >= _SMALL_PHASE if chain else np.zeros(deltas.size, bool)
    n_far = np.count_nonzero(far)
    values = np.empty(deltas.size, dtype=complex)
    estimate = 0.0
    if n_far:
        values[far], estimate = _node_sums(terms, *chain, deltas[far], tol)
    if n_far < deltas.size:
        values[~far], piece_estimate = _piece_integrals(terms, deltas[~far], tol)
        estimate = max(estimate, piece_estimate)
    _check_finite(values)
    return values, estimate


def _piece_integrals(terms: _Terms, deltas: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """I(delta) per piece, for any table, with the bound of `_rounding_estimate`.

    Broadcasts a bounded chunk of deltas at a time against the node table:
    one exponential E = exp(i*theta*t) per node, theta = mu - delta, and
    then per piece on [a, b], with D = E_b - E_a and span s,

        (start*D + slope*s*E_b)/(i*theta) + slope*D/theta**2,

    or, where |theta|*s < _SMALL_PHASE, E_a times `_small_phase`.  Where
    pieces run between neighbouring nodes, E_a and E_b are slices of one
    node array.  numpy's floating-point warnings are silenced, since
    `_check_finite` reports the same failure and a small-phase element
    replaces its direct value.
    """
    t, mu, lo, hi, start, slope = terms
    deltas = deltas.reshape(-1, 1)
    values = np.empty(deltas.shape[0], dtype=complex)
    rows = max(1, _CHUNK_ELEMENTS // max(t.size, start.size))
    with np.errstate(all="ignore"):
        span = t[hi] - t[lo]
        slope_span = slope * span
        height = np.maximum(np.abs(start), np.abs(start + slope_span))
        estimate = _rounding_estimate(height, t[hi], span, tol)
        linear = bool(np.any(slope))
        start_i, slope_span_i = -1j * start, -1j * slope_span
        reach = span / _SMALL_PHASE  # |1/theta| beyond which a piece takes the small-phase branch
        for first in range(0, deltas.shape[0], rows):
            chunk = deltas[first : first + rows]
            theta = mu - chunk
            inverse = 1.0 / theta[:, lo]
            theta *= t
            nodes = np.empty(theta.shape, dtype=complex)
            np.cos(theta, out=nodes.real)
            np.sin(theta, out=nodes.imag)
            ea, eb = nodes[:, lo], nodes[:, hi]
            diff = eb - ea
            piece = start_i * diff
            if linear:
                piece += slope_span_i * eb
                diff *= slope
                diff *= inverse
                piece += diff
            piece *= inverse
            small = np.abs(inverse) > reach
            if small.any():
                row, col = np.nonzero(small)
                z = 1j * ((mu[lo][col] - chunk[row, 0]) * span[col])
                piece[small] = ea[small] * _small_phase(
                    z, span[col], start[col], slope[col] if linear else None
                )
            values[first : first + rows] = piece.sum(axis=1)
            # Free this chunk's temporaries before the next chunk allocates its own.
            del theta, inverse, nodes, ea, eb, diff, piece, small
    return values, estimate


def _uniform_chain(terms: _Terms) -> tuple[float, np.ndarray] | None:
    """(dt, gap) when the table is one uniform mu = 0 chain, else None.

    A uniform chain has at least _UNIFORM_MIN_NODES nodes, mu = 0 at every
    node, pieces between neighbouring nodes (the slices lo = [0, -1),
    hi = [1, N)), and node times t_k with gap_k = |t_k - fl(k*dt)| at most
    _UNIFORM_GAP * eps * T, where dt = T/(N - 1) and T is the last node time.
    """
    t, mu, lo, hi, _, _ = terms
    if not (
        t.size >= _UNIFORM_MIN_NODES
        and isinstance(lo, slice)
        and (lo, hi) == (slice(0, -1), slice(1, None))
        and not np.any(mu)
    ):
        return None
    step = t[-1] / (t.size - 1)
    gap = np.abs(t - np.arange(t.size) * step)
    return (step, gap) if np.max(gap) <= _UNIFORM_GAP * _EPS * t[-1] else None


def _node_sums(
    terms: _Terms, step: float, gap: np.ndarray, deltas: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """I(delta) on a uniform chain by the by-parts node sum, each |delta|*dt >= _SMALL_PHASE.

    With q = -1/delta, summing each piece's integral by parts gathers it at
    the nodes: I = -i*q*sum_k w1_k*E_k + q**2*sum_k w2_k*E_k, where
    E_k = exp(-i*delta*t_k), w1_k = (value at t_k from the left) - (value
    from the right) and w2_k = slope_{k-1} - slope_k (zero beyond the ends).
    Node k = j*M + r has E_k = A_j*B_r, with the coarse exponentials
    A_j = exp(-i*delta*j*M*dt) and the fine B_r = exp(-i*delta*r*dt),
    M = ceil(sqrt(N)), so a delta takes M + J ~ 2*sqrt(N) exponentials.
    Each chunk of deltas makes one matrix product for the inner sums
    B @ [w1 | w2] (the weights as M x 2J tables) and then a J-term sum of
    products with A.
    No exponential or value is shared between delta and -delta.
    """
    t, _, _, _, start, slope = terms
    n = t.size
    fine = math.isqrt(n - 1) + 1
    coarse = -(-n // fine)
    # A chunk holds R*(M + J) exponentials and R*2J inner sums.
    rows = max(1, _CHUNK_ELEMENTS // (2 * max(fine, coarse)))
    values = np.empty(deltas.size, dtype=complex)
    with np.errstate(all="ignore"):
        jump = slope * (t[1:] - t[:-1])
        end = start + jump
        weights = np.zeros((2, coarse * fine))
        w1, w2 = weights[0, :n], weights[1, :n]
        w1[1:] = end
        w1[:-1] -= start
        w2[1:] = slope
        w2[:-1] -= slope
        q_max = 1.0 / float(np.min(np.abs(deltas)))
        estimate = _node_sum_estimate(
            t, gap, weights[:, :n], start, jump, end, q_max, fine + coarse, tol
        )
        # [w1 | w2] as M x 2J real weights, each on the diagonal of a 2 x 2
        # block: the real product of the exponentials' (cos, sin) pairs with
        # it gives the complex sums as (real, imag) pairs.  A complex product
        # would touch a second BLAS kernel, about 0.4 MB more resident memory.
        table = np.zeros((fine, 2, 2 * coarse, 2))
        table[:, 0, :, 0] = table[:, 1, :, 1] = weights.reshape(2 * coarse, fine).T
        table = table.reshape(2 * fine, 4 * coarse)
        # The fine times r*dt, then the coarse times j*M*dt, each rounded once.
        times = np.concatenate([np.arange(fine), np.arange(coarse) * fine]) * step
        for first in range(0, deltas.size, rows):
            chunk = deltas[first : first + rows]
            phase = -chunk[:, None] * times
            nodes = np.empty(phase.shape, dtype=complex)
            np.cos(phase, out=nodes.real)
            np.sin(phase, out=nodes.imag)
            sums = (nodes[:, :fine].view(float) @ table).view(complex).reshape(-1, 2, coarse)
            s1, s2 = (sums * nodes[:, None, fine:]).sum(axis=2).T
            q = -1.0 / chunk
            values[first : first + rows] = q * (q * s2 - 1j * s1)
            del phase, nodes, sums, s1, s2, q
    return values, estimate


def _check_finite(values: np.ndarray) -> None:
    """Raise `QuadratureError` for a value no rounding bound can cover."""
    if not np.all(np.isfinite(values)):
        raise QuadratureError("not finite: a phase or term of the profile exceeds float range")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_drive(h0: float, omega_c: float, phase: float) -> None:
    """The checks of a cosine drive's amplitude, frequency and phase."""
    _require_finite("h0", h0)
    if not 0.0 <= omega_c < math.inf:
        raise ValueError(f"drive frequency must be finite and nonnegative, got {omega_c}")
    _require_finite("phase", phase)


def _cosine_peak(h0, omega_c, phase, a, b) -> tuple[float, float]:
    """(sup |h0*cos(omega_c*t + phase)| over a <= t <= b, a t attaining it).

    |cos| peaks at the multiples of pi; without one in reach the larger end
    wins, `a` on a tie.  A static drive (omega_c = 0) takes its value at `a`.
    A peak's time is clamped into [a, b], past which its division can round.
    """
    lo, hi = phase + omega_c * a, phase + omega_c * b
    if omega_c == 0.0:
        return abs(h0 * math.cos(lo)), a
    k = math.ceil(lo / math.pi)
    if k * math.pi <= hi:
        return abs(h0), min(max((k * math.pi - phase) / omega_c, a), b)
    if abs(math.cos(lo)) >= abs(math.cos(hi)):
        return abs(h0 * math.cos(lo)), a
    return abs(h0 * math.cos(hi)), b


class AccelerationProfile:
    """Interface shared by every profile variant.

    Concrete profiles provide the interval [tau0, tauf], h of local time
    (`_h`, which `evaluate` wraps), the supremum of |h| (with its location),
    restriction to a subinterval, and the term table of `oscillatory_integral`.
    """

    tau0: float
    tauf: float

    @property
    def duration(self) -> float:
        return self.tauf - self.tau0

    def evaluate(self, tau):
        """h(tau): a float for a scalar tau, else an array of tau's shape."""
        t = np.asarray(tau, dtype=float)
        if np.any(t < self.tau0) or np.any(t > self.tauf):
            raise ValueError(f"tau outside the profile interval [{self.tau0}, {self.tauf}]")
        out = self._h(t - self.tau0)
        return float(out) if np.isscalar(tau) else out

    def _h(self, t: np.ndarray) -> np.ndarray:
        """h at the local times t = tau - tau0, each in [0, duration]."""
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
        if not -math.inf < self.tau0 < self.tauf < math.inf:
            raise ValueError(f"profile interval must be finite, got [{self.tau0}, {self.tauf}]")

    def _check_restriction(self, a: float, b: float) -> None:
        if not (self.tau0 <= a < b <= self.tauf):
            raise ValueError(
                f"restriction [{a}, {b}] must nest inside [{self.tau0}, {self.tauf}]"
            )


class SinusoidalProfile(AccelerationProfile, _Value):
    """h(tau) = h0 * cos(omega_c*(tau - tau0) + phase)."""

    h0: float
    omega_c: float
    tau0: float
    tauf: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        self._check_interval()
        _check_drive(self.h0, self.omega_c, self.phase)

    def _h(self, t):
        return self.h0 * np.cos(self.omega_c * t + self.phase)

    def sup_abs(self) -> tuple[float, float]:
        if self.h0 == 0.0:
            return 0.0, self.tau0
        sup, t = _cosine_peak(self.h0, self.omega_c, self.phase, 0.0, self.duration)
        return sup, min(self.tau0 + t, self.tauf)  # tau0 + duration can round past tauf

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
        # Two nodes per term (h0/2) exp(+-i*(omega_c*t + phase)).
        c = 0.5 * self.h0 * cmath.exp(1j * self.phase)
        s, w = self.duration, self.omega_c
        t, mu = np.array([0.0, s, 0.0, s]), np.array([w, w, -w, -w])
        start = np.array([c, c.conjugate()])
        return t, mu, slice(0, None, 2), slice(1, None, 2), start, np.zeros(2)


class PiecewiseConstantProfile(AccelerationProfile, _Value):
    """Constant plateaus h_k held for the listed durations, in order."""

    segments: tuple[tuple[float, float], ...]
    tau0: float = 0.0

    def __post_init__(self) -> None:
        segs = tuple((float(d), float(h)) for d, h in self.segments)
        if not segs:
            raise ValueError("at least one (duration, h) segment required")
        for i, (d, h) in enumerate(segs):
            if not d > 0.0:
                raise ValueError(f"segment {i} duration must be positive, got {d}")
            _require_finite(f"segment {i} value h", h)
        object.__setattr__(self, "segments", segs)
        self._check_interval()

    @property
    def tauf(self) -> float:  # type: ignore[override]
        return self.tau0 + float(self._edges()[-1])

    def _edges(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([d for d, _ in self.segments])])

    def _h(self, t):
        values = np.array([h for _, h in self.segments])
        idx = np.clip(np.searchsorted(self._edges(), t, side="right") - 1, 0, len(values) - 1)
        return values[idx]

    def sup_abs(self) -> tuple[float, float]:
        best = max(range(len(self.segments)), key=lambda i: abs(self.segments[i][1]))
        return abs(self.segments[best][1]), float(self.tau0 + self._edges()[best])

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
        values = np.array([h for _, h in self.segments])
        zeros = np.zeros(edges.size)
        return edges, zeros, slice(0, -1), slice(1, None), values, zeros[1:]


class RampProfile(AccelerationProfile, _Value):
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
        _require_finite("h0", self.h0)
        if not self.ramp_time > 0.0:
            raise ValueError(f"ramp_time must be positive, got {self.ramp_time}")
        if self.duration < 2.0 * self.ramp_time:
            raise ValueError(
                f"interval of length {self.duration} cannot hold two ramps of {self.ramp_time}"
            )

    def _breakpoints(self) -> np.ndarray:
        s = self.duration
        return np.unique([0.0, self.ramp_time, s - self.ramp_time, s])

    def _h(self, t):
        r, s = self.ramp_time, self.duration
        return self.h0 * np.minimum(1.0, np.minimum(t / r, (s - t) / r))

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
        if s > 2.0 * r:  # ramp up, hold, ramp down
            nodes, start, slope = [0.0, r, s - r, s], [0.0, h0, h0], [h0 / r, 0.0, -h0 / r]
        else:  # the two ramps meet at the peak
            nodes, start, slope = [0.0, r, s], [0.0, h0], [h0 / r, -h0 / r]
        zeros = np.zeros(len(nodes))
        return np.array(nodes), zeros, slice(0, -1), slice(1, None), np.array(start), np.array(slope)


class SampledProfile(AccelerationProfile, _Value, eq=False):
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
        if not np.all(np.isfinite(tau)):
            raise ValueError("sample times tau must be finite")
        if not np.all(np.isfinite(h)):
            raise ValueError("sample values h must be finite")
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

    def _h(self, t):
        return np.interp(t + self.tau0, self.tau, self.h)

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
        # Panel k is one piece, h = h_k + slope_k * (t - t_k) on [t_k, t_{k+1}].
        t = self.tau - self.tau0
        with np.errstate(all="ignore"):  # an overflowing slope is the kernel's to report
            slope = np.diff(self.h) / np.diff(t)
        return t, np.zeros(t.size), slice(0, -1), slice(1, None), self.h[:-1], slope


class WindowedSinusoidProfile(AccelerationProfile, _Value):
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
        _check_drive(self.h0, self.omega_c, self.phase)
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

    def _h(self, t):
        return self.h0 * self._envelope(t) * np.cos(self.omega_c * t + self.phase)

    def sup_abs(self) -> tuple[float, float]:
        """(|h0|, tau): an upper bound on sup |h| that never under-estimates.

        The envelope never exceeds 1, so sup|h| <= |h0|.  The bound is attained
        when the plateau [W, S - W], where the envelope is 1, contains a cosine
        extremum; tau is then that extremum, otherwise the plateau end with the
        larger |cos|.  A static drive (omega_c = 0) has the exact supremum
        |h0 cos(phase)|, reached all along the plateau.
        """
        w = self.window_time
        sup, t = _cosine_peak(self.h0, self.omega_c, self.phase, w, self.duration - w)
        return (sup if self.omega_c == 0.0 else abs(self.h0)), min(self.tau0 + t, self.tauf)

    def restrict(self, a: float, b: float) -> "AccelerationProfile":
        raise NotImplementedError(
            "windowed profiles do not restrict exactly; resample into SampledProfile instead"
        )

    def _terms(self) -> _Terms:
        # Each drive term c*exp(i*mu*t) becomes three chains of nodes at the
        # window edges: mu, held over the plateau, and mu -+ nu with the
        # switching frequency nu = pi/W, which only switch on and off.
        w, s = self.window_time, self.duration
        nu = math.pi / w
        gate = cmath.exp(1j * nu * s)
        edges = [0.0, w, s - w, s] if s > 2.0 * w else [0.0, w, s]
        n = len(edges)
        drive = 0.5 * self.h0 * cmath.exp(1j * self.phase)
        chains = []  # (frequency, rising, plateau or None, falling coefficient)
        for c, mu in ((drive, self.omega_c), (drive.conjugate(), -self.omega_c)):
            chains += [
                (mu, 0.5 * c, c, 0.5 * c),
                (mu + nu, -0.25 * c, None, -0.25 * c * gate.conjugate()),
                (mu - nu, -0.25 * c, None, -0.25 * c * gate),
            ]
        pieces = []  # (lo, hi, start)
        for k, (_, rise, hold, fall) in enumerate(chains):
            first = k * n
            pieces += [(first, first + 1, rise), (first + n - 2, first + n - 1, fall)]
            if hold is not None and n == 4:
                pieces.append((first + 1, first + 2, hold))
        lo, hi, start = (np.array(column) for column in zip(*pieces))
        t, mu = np.array(edges * len(chains)), np.repeat([mu for mu, *_ in chains], n)
        return t, mu, lo, hi, start, np.zeros(start.size)


def validate_rigidity(profile: AccelerationProfile) -> RigidityReport:
    """Strict check of sup |h| < 2 with the worst point reported."""
    sup_h, tau_star = profile.sup_abs()
    return RigidityReport(ok=sup_h < RIGIDITY_BOUND, sup_h=sup_h, tau_at_sup=tau_star)


def _require_rigid(report: RigidityReport) -> None:
    """ValueError unless `report` keeps the bound: the map, loader and grid refuse here."""
    if not report.ok:
        raise ValueError(
            f"rigidity bound |h| < {report.bound:g} violated: "
            f"sup|h| = {report.sup_h:g} at tau = {report.tau_at_sup:g}"
        )


def oscillatory_integral(
    profile: AccelerationProfile, delta: float, tol: float = 1e-10
) -> OscillatoryIntegralResult:
    """integral_{tau0}^{tauf} exp(-i*delta*(tau - tau0)) h(tau) dtau.

    Exact per piece up to rounding; the error estimate is the rounding bound
    of `_rounding_estimate`, and `evaluations` counts the pieces.  Raises
    `QuadratureError` when the estimate exceeds `tol` or the value is not
    finite.
    """
    terms = profile._terms()
    values, estimate = _fourier_integrals(terms, [delta], tol)
    return OscillatoryIntegralResult(
        value=complex(values[0]), error_estimate=estimate, evaluations=terms[4].size
    )

