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
chain of nodes at t_k = k*dt, every piece spans dt, so I(delta) is the
integral of one piece of span dt whose start and slope are the sums of the
pieces' starts and slopes times exp(-i*delta*t_k): Filon's rule on a
uniform grid (Filon, Proc. R. Soc. Edinburgh 49 (1928) 38).  The node
exponentials split as exp(-i*delta*(j*M + r)*dt) = A_j*B_r with M ~
sqrt(N), the factorisation behind the chirp-z transform (Rabiner, Schafer
& Rader, IEEE Trans. Audio Electroacoust. 17 (1969) 86).  Every delta of
such a trace costs 2*sqrt(N) exponentials and one small matrix product;
every delta of any other table costs one exponential per node.
`oscillatory_integral` is the one-delta call of that kernel;
`first_order_map` makes one call for all the distinct deltas of a map.

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
from .spectrum import DEFAULT_TOL, RIGIDITY_BOUND, _check_number, _check_real, _is_real, _is_two

# Crossover of the small-phase branch, on |z| = |theta|*span of a piece, and
# on |delta|*dt of a uniform chain's one piece of span dt (`_node_sums`).
# Above it the node form divides differences of unit exponentials, each
# within about eps of exact, by theta and theta**2: at |z| = 1/4 that costs
# up to 2*eps/|z| = 8 eps relative in the base moment and 4*eps/|z|**2 =
# 64 eps of a slope term's mass, which `_rounding_estimate` and
# `_node_sum_estimate` cover.  Below it the piece takes its own expm1(z)/z,
# which does not cancel, and the linear moment's Taylor series through
# z**12, which truncates below 4e-19 relative at |z| = 1/4.
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
    """`estimate`, or `QuadratureError` when it exceeds `tol` or either is NaN."""
    if not estimate <= tol:
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
        _EPS * float((height * (16.0 * right + (160.0 + 0.5 * span.size) * span)).sum()), tol
    )


def _node_sum_estimate(t, gap, start, slope, step, fine, coarse, tol: float) -> float:
    """Rounding bound of `_node_sums`, for every delta; raises above `tol`.

    Per piece p, from node p: a_p = |start_p|, d_p = |slope_p|*dt and
    W_p = a_p + d_p >= |h| on it.  Per node k: t_k, gap_k = |t_k - fl(k*dt)|
    and w_k = v_k + d_{k-1} + d_k, v_k the jump of h at node k (|h| at the
    two ends) and d zero beyond them.  `fine` is M and `coarse` is J: the J
    blocks of M pieces each share a coarse exponential.  By parts, a run of
    pieces from node a to node b has an integral I with |I| <= dt*sum W_p
    and |delta*I| <= |h(a)| + |h(b)| + sum (d_p + v_p) over the run.  At
    first order in u = eps/2 the value is off by at most:

    - node times: the profile's node k lies within e_k = gap_k + 2u*t_k of
      k*dt (the table's t_k within u*t_k of the profile's, fl(k*dt) within
      u*t_k of k*dt); moving it there with the values held costs
      e_k*(v_k + (d_{k-1} + d_k)/2).  A slope taken as a quotient of
      differences, held over dt, then misses the profile's value at the
      piece's end by |slope_p|*(e_p + e_{p+1} + 2u*dt), which moves the
      piece by dt/2 times that: under sum_k e_k*w_k + u*dt*sum_p d_p;
    - phases: r*dt and j*M*dt are each rounded once, and delta times them
      once more, so B_r and A_j are off by 2u*|delta|*r*dt + 2u and
      2u*|delta|*j*M*dt + 2u relative (cos and sin within about u each).
      A_j's error multiplies block j's integral; |h| at a block's end is at
      most a_p plus v_p at the next block's first node p, so that costs under
      4u*(sum_j t_{jM}*a_{jM} + sum_k t_k*w_k) + 2u*dt*sum_p W_p.  B_r's
      multiplies the pieces r, M + r, ..., each with |delta*K_p| <= 2*W_p:
      under 4u*M*dt*sum_p W_p;
    - the sums: each inner sum of B @ [start | slope] takes 2M real products
      per component (zeros of the block table included), off by 2M*u of
      sum_r |w_r*B_r| in any order; the products with A cost 3u and the
      J-term sum (J - 1)*u.  So S0 and S1 are off by 3u*(M + J) of sum_p a_p
      and sum_p |slope_p|, which enter I times at most dt and dt**2/2;
    - the factor: the node form q*(q*S1*D - i*(S0*D + S1*dt*E)), with
      |q| <= 4*dt, E = exp(-i*delta*dt) within u*|delta|*dt + 2u and
      D = E - 1, takes about ten operations on terms up to
      4*dt*(2*|S0| + 9*dt*|S1|), and q one more: under u*dt*(81*sum_p a_p
      + 369*sum_p d_p).  The small-phase branch takes a few u of
      dt*(|S0| + dt*|S1|), and its series truncates below u/100.

    In total sum_k (gap_k + 3*eps*t_k)*w_k + 2*eps*sum_j t_{jM}*a_{jM} +
    u*dt*((7*M + 3*J + 83)*sum_p a_p + (5.5*M + 1.5*J + 372)*sum_p d_p),
    with the last two coefficients rounded up to 7*M + 3*J + 96 and 6*M +
    2*J + 384 for the second-order terms, while u*(M + J) and u*|delta|*T
    are far below 1.
    """
    n = start.size
    rise = np.abs(slope) * step
    end = start + slope * step
    weight = np.abs(np.concatenate([start, [0.0]]) - np.concatenate([[0.0], end]))  # v_k
    weight[:-1] += rise
    weight[1:] += rise
    sums = (7.0 * fine + 3.0 * coarse + 96.0) * np.abs(start).sum()
    sums += (6.0 * fine + 2.0 * coarse + 384.0) * rise.sum()
    rounding = 4.0 * np.dot(t[:n:fine], np.abs(start[::fine])) + step * sums
    return _within(float(np.dot(gap + 3.0 * _EPS * t, weight) + 0.5 * _EPS * rounding), tol)


def _fourier_integrals(terms: _Terms, deltas, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """I(delta) for every delta of a batch, and a rounding bound that covers each.

    A uniform chain (`_uniform_chain`) takes `_node_sums`, every other table
    `_piece_integrals`.  Raises `QuadratureError` when the bound exceeds
    `tol` or a value is not finite.
    """
    deltas = np.ravel(deltas)
    chain = _uniform_chain(terms)
    if chain:
        values, estimate = _node_sums(terms, *chain, deltas, tol)
    else:
        values, estimate = _piece_integrals(terms, deltas, tol)
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
        linear = bool(slope.any())
        height = np.abs(start)
        if linear:
            slope_span = slope * span
            height = np.maximum(height, np.abs(start + slope_span))
            slope_span_i = -1j * slope_span
        estimate = _rounding_estimate(height, t[hi], span, tol)
        start_i, mu_lo = -1j * start, mu[lo]
        reach = span / _SMALL_PHASE  # |1/theta| beyond which a piece takes the small-phase branch
        for first in range(0, deltas.shape[0], rows):
            chunk = deltas[first : first + rows]
            # Node-major when the chunk holds more deltas than the table has
            # nodes: every temporary keeps theta's order, so numpy's inner
            # loops run along the longer axis.
            theta = np.subtract(mu, chunk, order="F" if chunk.size > t.size else "C")
            inverse = 1.0 / theta[:, lo]
            theta *= t
            nodes = np.empty_like(theta, dtype=complex)
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
                z = 1j * ((mu_lo[col] - chunk[row, 0]) * span[col])
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
        and not mu.any()
    ):
        return None
    step = t[-1] / (t.size - 1)
    gap = np.abs(t - np.arange(t.size) * step)
    return (step, gap) if gap.max() <= _UNIFORM_GAP * _EPS * t[-1] else None


def _node_sums(
    terms: _Terms, step: float, gap: np.ndarray, deltas: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """I(delta) on a uniform chain, as one piece of span dt over node sums.

    Every piece spans dt, so with E_p = exp(-i*delta*p*dt) at the pieces'
    first nodes, I(delta) is the integral over [0, dt] of (S0 + S1*v) *
    exp(-i*delta*v), where S0 = sum_p start_p*E_p and S1 = sum_p slope_p*E_p.
    That piece takes the node form of `_piece_integrals` with E_a = 1, which
    divides by delta and delta**2 only where |delta|*dt >= _SMALL_PHASE,
    and `_small_phase` below it, for delta = 0 too.  Node p = j*M + r has
    E_p = A_j*B_r, with the coarse exponentials A_j = exp(-i*delta*j*M*dt)
    and the fine B_r = exp(-i*delta*r*dt), M = ceil(sqrt(P)) for P pieces,
    so a delta takes M + J ~ 2*sqrt(P) exponentials.  Each chunk of deltas
    makes one matrix product for the inner sums B @ [start | slope] (the
    rows as M x 2J tables) and then a J-term sum of products with A.
    Nothing is shared between delta and -delta here; `first_order_map`
    asks for the nonnegative table `StaticCoefficients.deltas` and reads
    I(-delta) as conj I(delta).
    """
    t, _, _, _, start, slope = terms
    n = start.size
    fine = math.isqrt(n - 1) + 1
    coarse = -(-n // fine)
    # A chunk holds R*(M + J) exponentials and R*2J inner sums.
    rows = max(1, _CHUNK_ELEMENTS // (2 * max(fine, coarse)))
    sums = np.empty((3, deltas.size), dtype=complex)
    with np.errstate(all="ignore"):
        estimate = _node_sum_estimate(t, gap, start, slope, step, fine, coarse, tol)
        # [start | slope] as M x 2J real weights, each on the diagonal of a
        # 2 x 2 block: the real product of the exponentials' (cos, sin) pairs
        # with it gives the complex sums as (real, imag) pairs.  A complex
        # product would touch a second BLAS kernel, about 0.4 MB more
        # resident memory.
        weights = np.zeros((2, coarse * fine))
        weights[:, :n] = start, slope
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
            inner = (nodes[:, :fine].view(float) @ table).view(complex).reshape(-1, 2, coarse)
            sums[:2, first : first + rows] = (inner * nodes[:, None, fine:]).sum(axis=2).T
            sums[2, first : first + rows] = nodes[:, 1]  # B_1, the piece's exp(-i*delta*dt)
            del phase, nodes, inner
        s0, s1, end = sums
        diff = end - 1.0
        q = -1.0 / deltas
        values = q * (q * s1 * diff - 1j * (s0 * diff + s1 * step * end))
        phase = -deltas * step
        small = np.abs(phase) < _SMALL_PHASE
        if small.any():
            values[small] = _small_phase(1j * phase[small], step, s0[small], s1[small])
    return values, estimate


def _check_finite(values: np.ndarray) -> None:
    """Raise `QuadratureError` for a value no rounding bound can cover."""
    if not np.isfinite(values).all():
        raise QuadratureError("not finite: a phase or term of the profile exceeds float range")


def _check_drive(h0: float, omega_c: float, phase: float) -> None:
    """The checks of a cosine drive's amplitude, frequency and phase."""
    _check_number("h0", h0)
    _check_number("drive frequency", omega_c, "nonnegative")
    _check_number("phase", phase)


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
        t = _check_real("tau", tau, finite=False)
        if not ((t >= self.tau0) & (t <= self.tauf)).all():  # NaN fails both
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
        for name in ("tau0", "tauf"):  # NaN and infinity get the interval's own messages
            _check_number(name, getattr(self, name), finite=False)
        if not self.tauf > self.tau0:
            raise ValueError(f"profile interval must have tauf > tau0, got [{self.tau0}, {self.tauf}]")
        if not -math.inf < self.tau0 < self.tauf < math.inf:
            raise ValueError(f"profile interval must be finite, got [{self.tau0}, {self.tauf}]")
        _check_number("profile interval length tauf - tau0", self.tauf - self.tau0)

    def _check_room(self, width: float, what: str) -> None:
        """Refuse an interval too short for two edges of `width`, one at each end.

        An interval built as tau0 + 2*width can round a few ulps short of
        2*width; it passes, and the table then lets the two edges meet.
        """
        slack = 4.0 * math.ulp(max(abs(self.tau0), abs(self.tauf)))
        if not self.duration >= 2.0 * width - slack:
            raise ValueError(
                f"interval of length {self.duration} cannot hold two {what} of {width}"
            )

    def _check_restriction(self, a: float, b: float) -> None:
        _check_number("a", a)
        _check_number("b", b)
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
        if len(self.segments) == 0:
            raise ValueError("at least one (duration, h) segment required")
        for i, segment in enumerate(self.segments):
            if not (_is_two(segment) and all(map(_is_real, segment))):
                raise ValueError(f"segment {i} is not a (duration, h) pair: {segment!r}")
            _check_number(f"segment {i} duration", segment[0], "positive", finite=False)
            _check_number(f"segment {i} value h", segment[1])
        object.__setattr__(self, "segments", tuple((float(d), float(h)) for d, h in self.segments))
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


class _Linear(AccelerationProfile):
    """Linear between the nodes `_nodes()` lists as (tau, h), tau absolute and nondecreasing."""

    def _h(self, t):
        return np.interp(t + self.tau0, *self._nodes())

    def sup_abs(self) -> tuple[float, float]:
        tau, h = self._nodes()
        idx = int(np.argmax(np.abs(h)))
        return float(abs(h[idx])), float(tau[idx])

    def restrict(self, a: float, b: float) -> "SampledProfile":
        self._check_restriction(a, b)
        tau, h = self._nodes()
        # Knots that round to one float, as a ramp's two corners can, merge.
        knots = np.unique(np.concatenate([[a], tau[(tau > a) & (tau < b)], [b]]))
        return SampledProfile(tau=knots, h=np.interp(knots, tau, h))


class RampProfile(_Linear, _Value):
    """Trapezoid pulse: linear ramp 0 -> h0 over ramp_time, hold, ramp back.

    h vanishes at both ends of the interval, so the map coefficients decay
    like 1/(ramp_time * delta^2) and vanish in the adiabatic limit.
    Requires tauf - tau0 >= 2 * ramp_time, to within a few ulps of the ends.
    """

    h0: float
    ramp_time: float
    tau0: float
    tauf: float

    def __post_init__(self) -> None:
        self._check_interval()
        _check_number("h0", self.h0)
        _check_number("ramp_time", self.ramp_time, "positive")
        self._check_room(self.ramp_time, "ramps")

    def _terms(self) -> _Terms:
        r, s, h0 = self.ramp_time, self.duration, self.h0
        if s > 2.0 * r:  # ramp up, hold, ramp down
            nodes, start, slope = [0.0, r, s - r, s], [0.0, h0, h0], [h0 / r, 0.0, -h0 / r]
        else:  # the two ramps meet at the peak
            nodes, start, slope = [0.0, r, s], [0.0, h0], [h0 / r, -h0 / r]
        zeros = np.zeros(len(nodes))
        return np.array(nodes), zeros, slice(0, -1), slice(1, None), np.array(start), np.array(slope)

    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        t, _, _, _, start, _ = self._terms()
        return self.tau0 + t, np.concatenate([start, [0.0]])  # h is back to 0 at tauf


class SampledProfile(_Linear, _Value, eq=False):
    """Piecewise-linear interpolant of (tau, h) samples.

    The grid must be strictly increasing; a uniform grid is typical but not
    required.  Fourier integrals treat the interpolant exactly (Filon rule),
    so the only error against the *samples* is interpolation error, which is
    the caller's modelling choice, not a quadrature artifact.
    """

    tau: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        tau = _check_real("tau", self.tau)
        h = _check_real("h", self.h)
        if tau.ndim != 1 or h.shape != tau.shape:
            raise ValueError("tau and h must be 1-d arrays of equal length")
        if tau.size < 2:
            raise ValueError("at least two samples required")
        if not (tau[1:] > tau[:-1]).all():  # no subtraction: nothing to overflow
            raise ValueError("sample grid must be strictly increasing in tau")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "h", h)
        self._check_interval()

    @property
    def tau0(self) -> float:  # type: ignore[override]
        return float(self.tau[0])

    @property
    def tauf(self) -> float:  # type: ignore[override]
        return float(self.tau[-1])

    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.tau, self.h

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
    Requires tauf - tau0 >= 2 * window_time, to within a few ulps of the ends.
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
        _check_number("window_time", self.window_time, "positive")
        self._check_room(self.window_time, "windows")
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
        return 0.5 * (1.0 - np.cos(np.pi * np.minimum(np.minimum(t, s - t), w) / w))

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
    profile: AccelerationProfile, delta: float, tol: float = DEFAULT_TOL
) -> OscillatoryIntegralResult:
    """integral_{tau0}^{tauf} exp(-i*delta*(tau - tau0)) h(tau) dtau.

    Exact per piece up to rounding; the error estimate is the rounding bound
    of the table's path (`_fourier_integrals`), and `evaluations` counts the
    pieces.  Raises `QuadratureError` when the estimate exceeds `tol` or the
    value is not finite, and a `ValueError` unless `delta` is one finite
    real number.
    """
    _check_number("delta", delta)
    terms = profile._terms()
    values, estimate = _fourier_integrals(terms, [float(delta)], tol)
    return OscillatoryIntegralResult(
        value=complex(values[0]), error_estimate=estimate, evaluations=terms[4].size
    )

