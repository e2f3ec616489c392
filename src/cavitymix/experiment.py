"""Desktop-experiment planner for the paraxial mixing resonance, in SI units.

Setup: a rigid rectangular cavity with edges Lx, Ly, Lz stores massless
quanta of wavelength lambda much smaller than every edge, with momenta
aligned close to the z axis, so that (2/lambda)^2 ~ (p/Lz)^2 dominates
(m/Lx)^2 + (n/Ly)^2.  The transverse momentum 2 pi / lambda acts as a large
effective mass for motion along x or y, pulling the mode-mixing resonance
between longitudinal numbers m and m' (odd difference) far below the mode
frequencies:

    omega_c ~= c (pi lambda / 4) |m^2 - m'^2| / Lx^2        [s^-1],
    d|A_res|/dt ~= c (pi / 2) m m' d lambda / Lx^3          [s^-1],

for harmonic motion of displacement amplitude d along x.  The peak
dimensionless acceleration is h = d (omega_c/c)^2 Lx, which must stay far
below the rigidity bound 2.

Particle creation is non-resonant here.  Even with sharp switch-on and
switch-off, the creation entry toward longitudinal number m' is of order

    pi^2 m m' (1 - (-1)^{m+m'}) |a| Lx
    ----------------------------------------------   (dimensionless),
    Lx^4 (omega + omega')^3 sqrt(omega omega')

and summing its square over m' bounds the particles created in a lowest
cavity mode by a purely numerical factor times (a Lx / c^2)^2; plan
computes both pieces.  That factor is evaluated for the actual lowest mode
(1,1,1) of the massless cavity, the worst case, not for the paraxially
loaded modes.

time_to_unity extrapolates the linear growth to |A| = 1 as an order-of-
magnitude indicator only; first-order perturbation theory stops being
quantitative well before that point.
"""

from __future__ import annotations

import math

import numpy as np

from . import _Value
from .resonance import (
    displacement_h0,
    paraxial_mixing_growth,
    paraxial_mixing_omega,
    paraxial_validity_ratio,
)
from .spectrum import (
    RIGIDITY_BOUND, Cavity3D, _check_number, _check_pair, omega_vector, reduce_to_effective_1d,
)

C_LIGHT = 2.99792458e8
WAVELENGTH_EDGE_FACTOR = 100.0
PARAXIAL_MIN_RATIO = 1e4
# The creation bound sums terms over longitudinal numbers m'; they decay only
# beyond m' ~ (driven edge) * sqrt(sum 1/edge^2), the elongation.  Above this
# elongation the sum needs millions of terms and may not converge at all.
MAX_ELONGATION = 1e3


class LinearMotion(_Value):
    """Harmonic oscillation of amplitude `amplitude` (m) along one axis."""

    amplitude: float
    axis: str = "x"

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"driven axis must be 'x' or 'y', got {self.axis!r}")
        _check_number("amplitude", self.amplitude, "nonnegative")


class CircularMotion(_Value):
    """Circular (dx = dy) or elliptic harmonic motion in the x-y plane (m)."""

    dx: float
    dy: float

    def __post_init__(self):
        _check_number("dx", self.dx, "nonnegative")
        _check_number("dy", self.dy, "nonnegative")


class ExperimentPlan(_Value):
    """Geometry, stored-quanta wavelength, motion, and the mixed mode pair.

    `transverse` holds the inert quantum numbers (n along y, p along z) of
    the stored quanta; when omitted, n = 1 and p is the integer closest to
    2 Lz / wavelength.  The paraxial formulas use the wavelength directly,
    so `transverse` only enters the validity checks.
    """

    wavelength: float
    lx: float
    ly: float
    lz: float
    motion: LinearMotion | CircularMotion
    pair: tuple[int, int] = (1, 2)
    transverse: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("wavelength", "lx", "ly", "lz"):
            _check_number(name, getattr(self, name), "positive")
        edge = min(self.lx, self.ly, self.lz)
        if self.wavelength >= edge / WAVELENGTH_EDGE_FACTOR:
            raise ValueError(
                f"wavelength {self.wavelength} is not far below the smallest edge "
                f"{edge}; need wavelength < edge/{WAVELENGTH_EDGE_FACTOR:g}"
            )
        m, mp = _check_pair("pair", self.pair)
        if (m + mp) % 2 == 0:  # so m != mp too
            raise ValueError(f"pair difference must be odd, got {self.pair}")
        default = (1, max(1, round(2.0 * self.lz / self.wavelength)))
        transverse = default if self.transverse is None else self.transverse
        object.__setattr__(self, "transverse", _check_pair("transverse", transverse))
        ratio = paraxial_validity_ratio(
            self.wavelength, self.axis_length, self.inplane_length,
            max(self.pair), self.transverse[0],
        )
        if ratio <= PARAXIAL_MIN_RATIO:
            raise ValueError(
                f"paraxial validity ratio {ratio:.3g} does not exceed {PARAXIAL_MIN_RATIO:g}"
            )
        elongation = self.axis_length * math.sqrt(sum(e**-2 for e in (self.lx, self.ly, self.lz)))
        if elongation > MAX_ELONGATION:
            raise ValueError(
                f"elongation {elongation:.3g} along the driven axis exceeds {MAX_ELONGATION:g}; "
                "the creation bound's mode sum would not converge"
            )

    @property
    def axis(self) -> str:
        """Driven axis: the motion axis, or x for circular motion."""
        return self.motion.axis if isinstance(self.motion, LinearMotion) else "x"

    @property
    def axis_length(self) -> float:
        return self.lx if self.axis == "x" else self.ly

    @property
    def inplane_length(self) -> float:
        return self.ly if self.axis == "x" else self.lx

    @property
    def drive_amplitude(self) -> float:
        """Displacement amplitude along the driven axis (m)."""
        return self.motion.amplitude if isinstance(self.motion, LinearMotion) else self.motion.dx


class PlanReport(_Value):
    """Derived predictions; rpm and centripetal only for circular motion.

    Particles created in the lowest mode number at most beta_bound_squared
    = beta_numeric_factor * h^2, h = peak_h = a L / c^2, a the peak acceleration.
    """

    omega_c_si: float
    omega_c_per_meter: float
    frequency_hz: float
    growth_rate: float
    time_to_unity: float
    peak_h: float
    rigidity_ok: bool
    beta_numeric_factor: float
    beta_h_squared: float
    beta_bound_squared: float
    rpm: float | None = None
    centripetal_acceleration: float | None = None


def plan(inputs: ExperimentPlan) -> PlanReport:
    """Evaluate the paraxial predictions of a plan.

    All SI: omega_c in s^-1 (and m^-1 before the factor of c), growth rate
    in s^-1.  For circular motion the report additionally carries the
    angular velocity in rpm and the peak centripetal acceleration at the
    larger of the two amplitudes.
    """
    m, mp = inputs.pair
    length = inputs.axis_length
    omega_per_m = paraxial_mixing_omega(inputs.wavelength, length, m, mp)
    omega_si = C_LIGHT * omega_per_m
    d = inputs.drive_amplitude
    growth = C_LIGHT * paraxial_mixing_growth(inputs.wavelength, length, d, m, mp)
    peak_h = displacement_h0(omega_per_m, d, length)
    factor = _creation_factor(Cavity3D(lx=inputs.lx, ly=inputs.ly, lz=inputs.lz), inputs.axis)
    rpm = centripetal = None
    if isinstance(inputs.motion, CircularMotion):
        rpm = omega_si * 60.0 / (2.0 * math.pi)
        centripetal = max(inputs.motion.dx, inputs.motion.dy) * omega_si**2
    return PlanReport(
        omega_c_si=omega_si,
        omega_c_per_meter=omega_per_m,
        frequency_hz=omega_si / (2.0 * math.pi),
        growth_rate=growth,
        time_to_unity=1.0 / growth if growth > 0.0 else math.inf,
        peak_h=peak_h,
        rigidity_ok=peak_h < RIGIDITY_BOUND,
        beta_numeric_factor=factor,
        beta_h_squared=peak_h**2,
        beta_bound_squared=factor * peak_h**2,
        rpm=rpm,
        centripetal_acceleration=centripetal,
    )


def circular_report(inputs: ExperimentPlan) -> PlanReport:
    """plan() restricted to circular motion, so rpm and centripetal are set."""
    if not isinstance(inputs.motion, CircularMotion):
        raise ValueError("circular_report requires CircularMotion inputs")
    return plan(inputs)


def _creation_factor(cavity: Cavity3D, axis: str, rel_tol: float = 1e-6) -> float:
    """Sum of squared creation magnitudes per unit h, lowest mode, given axis.

    Sharp-switching terms from mode (1,1,1) of the massless cavity to the
    opposite-parity m'; the cutoff doubles until the sum moves by < rel_tol relatively.
    """
    cutoff = 64
    total = _creation_partial_sum(cavity, axis, cutoff)
    while cutoff <= 2**22:
        cutoff *= 2
        widened = _creation_partial_sum(cavity, axis, cutoff)
        if abs(widened - total) <= rel_tol * widened:
            return widened
        total = widened
    raise RuntimeError("creation-factor sum did not converge")


def _creation_partial_sum(cavity: Cavity3D, axis: str, cutoff: int) -> float:
    # Freezing the two other quantum numbers at 1 gives omega[0] = w_111 and
    # omega[m' - 1] = w_{m'11} (or w_{1m'1}) for every m' up to the cutoff.
    reduced = reduce_to_effective_1d(cavity, axis, (1, 1), n_max=cutoff)
    omega = omega_vector(reduced)
    omega_low, omegas = omega[0], omega[1::2]
    primes = np.arange(2, cutoff + 1, 2)
    terms = (
        2.0
        * math.pi**2
        * primes
        / (reduced.length**4 * (omega_low + omegas) ** 3 * np.sqrt(omega_low * omegas))
    )
    return float((terms**2).sum())
