"""Photon pair production in a homogeneous medium moving with varying speed.

A medium of refractive index n >= 1 moves rigidly with subluminal,
time-dependent velocity c*beta(t) along a fixed axis.  For a plane-wave
mode of frequency omega whose wave vector makes angle theta with the
motion, the right/left-helicity mode amplitude pairs evolve as

    d f_+/dt = -i omega [eta_plus f_+ - eta_minus f_-],
    d f_-/dt = +i omega [eta_plus f_- - eta_minus f_+],

with medium coefficients

    delta = (n^2 - 1) / (n^2 - beta^2),      alpha = 1 - delta beta^2,
    Delta = 1 - delta beta^2 cos^2(theta),
    eta_pm = (alpha / sigma^2 +/- sigma^2 Delta) / 2,

sigma > 0 being a free polarization-geometry parameter.  The equations
are d f/dt = A(t) f with A(t) = -i omega [[eta_plus, -eta_minus],
[eta_minus, -eta_plus]] in su(1,1), so the fundamental matrix
U = [[f_R+, f_L+], [f_R-, f_L-]], whose columns are the pairs from (1, 0)
and (0, 1), lies in SU(1,1): f_L- = conj(f_R+) and f_L+ = conj(f_R-)
exactly.  ``solve_modes`` propagates U, stored as its first row
(f_R+, conj(f_R-)), by sixth-order Magnus steps with the closed-form
exponential (``numerics.solve_magnus``), so every step map lies in
SU(1,1) to roundoff and the helicity symmetry holds by representation:
``ModeSolution`` stores the right pair only.  A sinusoid drive makes the
equations periodic, and a run over two or more periods is composed from
one (the Floquet route, ``numerics.solve_floquet``); ``floquet_exponent``
reads the growth rate off the monodromy U(P).  Only the DOP853 reference
route of the tests, which propagates the left pair on its own, backs the
symmetry independently: no Fock oracle evolves the moving medium yet.
An extracted phase

    phi(t) = omega cos(theta) * integral_0^t delta(tau) beta(tau) dtau

is integrated by Gauss quadrature on the same nodes and shares the
step-doubling error control.

The CCR invariant |f_R+|^2 - |f_R-|^2 = 1 holds at all times; the
per-mode photon density produced from vacuum is n(T) = |f_R-(T)|^2
(the infinite-volume delta(0) normalization is never materialized).
With sigma = "auto" = [alpha/Delta]^(1/4) at the pre-motion velocity,
eta_minus vanishes identically for constant beta and the mode only
picks up the phase exp(-i omega sqrt(alpha Delta) t): no production.

The two modes (right helicity at k, left helicity at -k) assemble into
a two-mode Bogoliubov map (system = first mode, environment = second):

    X_up   = [[e^{-i phi} f_R+, 0], [0, e^{i phi} conj(f_L-) = e^{i phi} f_R+]],
    X_down = [[0, e^{-i phi} f_R-], [e^{i phi} conj(f_L+) = e^{i phi} f_R-, 0]].

Its system sub-block X_down_S is identically zero, so the open-system
classicality condition always holds, while the closed-system (passive)
condition holds iff f_R- = 0.  The smooth family
(X_up_S, X_down_C) = e^{-i phi} (f_R+, f_R-) admits closed-form kinetic
generators

    h        = omega (eta_plus - eta_minus Re(f_R-/f_R+)
               + delta beta cos(theta)),
    gamma_up = 2 omega eta_minus Im(f_R+ conj(f_R-)) / |f_R+|^2,
    gamma_down = 0,

equal to the generic open-system extraction on the same family, and the
photon density obeys the growth law d n/dT = gamma_up (n + 1).

Every per-sample quantity is one function of a ``ModeSolution``, which
carries its ``CasimirScenario`` (the run's one parameter object, whose
``coefficients`` gives delta, alpha, Delta, eta_pm and the phase rate at
any time), evaluated over the whole sample axis:
``ModeSolution.density``, ``casimir_maps``, ``closed_form_generators``,
``extracted_generators`` and ``growth_law_residual`` (with
``growth_law_error``, its stencils' difference error at chosen samples).
The dense output ``sol.at(t)`` is the same solution at other times, so
for ``integrate_kinetics`` ``casimir_generator_callback`` and
``casimir_generators_extracted`` apply the same functions to ``sol.at(t)`` at arrays of node times;
``casimir_map`` is the validated, raising ``BogoliubovMap`` at one sample.
``solve_modes`` and ``casimir_maps`` leave their residuals unchecked, for
the CLI's gate table (``cli._gates``).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError
from .kinetics import open_generator_arrays
from .numerics import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    FloquetSolution,
    MagnusSolution,
    solve_floquet,
    solve_magnus,
)
from .symplectic import BogoliubovMap, symplectic_residuals

# each profile kind and the keys it reads besides beta0
PROFILE_KINDS = {
    "constant": (),
    "sinusoid": ("drive_frequency",),
    "smooth_pulse": ("duration",),
    "linear_ramp_windowed": ("ramp_time", "hold_time"),
}


def _require_finite(owner, names) -> None:
    """Raise ``ConfigError`` unless each named attribute is a finite real."""
    for name in names:
        value = getattr(owner, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class VelocityProfile:
    """Time course of the medium speed as a fraction of c.

    Supported kinds:

    * ``constant``: beta(t) = beta0.
    * ``sinusoid``: beta(t) = beta0 sin(drive_frequency * t).
    * ``smooth_pulse``: beta0 sin^2(pi t / duration) on [0, duration],
      zero outside; C^1 at both ends, so the medium is still before and
      after the pulse.
    * ``linear_ramp_windowed``: 0 -> beta0 over ``ramp_time``, hold for
      ``hold_time``, back to 0 over ``ramp_time``; zero outside.
    """

    kind: str
    beta0: float
    drive_frequency: float = 0.0
    duration: float = 0.0
    ramp_time: float = 0.0
    hold_time: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in PROFILE_KINDS):
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        _require_finite(self, ("beta0", "drive_frequency", "duration", "ramp_time", "hold_time"))
        if abs(self.beta0) >= 1.0:
            raise ConfigError(f"profile must stay subluminal: |beta0|={abs(self.beta0)} >= 1")
        if self.kind == "sinusoid" and self.drive_frequency <= 0:
            raise ConfigError("sinusoid profile needs drive_frequency > 0")
        if self.kind == "smooth_pulse" and self.duration <= 0:
            raise ConfigError("smooth_pulse profile needs duration > 0")
        if self.kind == "linear_ramp_windowed" and self.ramp_time <= 0:
            raise ConfigError("linear_ramp_windowed profile needs ramp_time > 0")
        if self.hold_time < 0:
            raise ConfigError("hold_time must be nonnegative")

    @classmethod
    def constant(cls, beta0: float) -> "VelocityProfile":
        return cls("constant", beta0)

    @classmethod
    def sinusoid(cls, beta0: float, drive_frequency: float) -> "VelocityProfile":
        return cls("sinusoid", beta0, drive_frequency=drive_frequency)

    @classmethod
    def smooth_pulse(cls, beta0: float, duration: float) -> "VelocityProfile":
        return cls("smooth_pulse", beta0, duration=duration)

    @classmethod
    def linear_ramp(
        cls, beta0: float, ramp_time: float, hold_time: float = 0.0
    ) -> "VelocityProfile":
        return cls(
            "linear_ramp_windowed", beta0, ramp_time=ramp_time, hold_time=hold_time
        )

    def beta(self, t):
        """beta at a time (a float) or at an array of times (an array)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full(t.shape, self.beta0)
        elif self.kind == "sinusoid":
            out = self.beta0 * np.sin(self.drive_frequency * t)
        elif self.kind == "smooth_pulse":
            inside = (t > 0.0) & (t < self.duration)
            out = np.where(inside, self.beta0 * np.sin(math.pi * t / self.duration) ** 2, 0.0)
        else:
            ramp, end = self.ramp_time, 2.0 * self.ramp_time + self.hold_time
            out = np.where(
                t < ramp,
                self.beta0 * t / ramp,
                np.where(t <= ramp + self.hold_time, self.beta0, self.beta0 * (end - t) / ramp),
            )
            out = np.where((t <= 0.0) | (t >= end), 0.0, out)
        return float(out) if out.ndim == 0 else out

    def kinks(self) -> tuple[float, ...]:
        """Times where d beta/dt jumps; n(t) is only C^1 there."""
        if self.kind != "linear_ramp_windowed":
            return ()
        ramp, hold = self.ramp_time, self.hold_time
        return (ramp, ramp + hold, 2.0 * ramp + hold)


@dataclass(frozen=True)
class MediumSample:
    """Medium coefficients at one instant (arrays for an array of instants)."""

    beta: float
    delta: float
    alpha: float
    big_delta: float
    eta_plus: float
    eta_minus: float
    phase_rate: float


def _medium_terms(refractive_index: float, theta: float, beta):
    """delta, alpha and Delta at the speed ``beta`` (a float or an array)."""
    n2 = refractive_index ** 2
    delta = (n2 - 1.0) / (n2 - beta * beta)
    alpha = 1.0 - delta * beta * beta
    cos_t = math.cos(theta)
    big_delta = 1.0 - delta * beta * beta * cos_t * cos_t
    return delta, alpha, big_delta


@dataclass(frozen=True)
class CasimirScenario:
    """Mode, medium and drive parameters for one production run.

    ``omega`` is the mode frequency omega(k), supplied directly; ``theta``
    the angle between k and the motion axis.  ``sigma`` is either an
    explicit positive number or "auto", meaning [alpha/Delta]^(1/4)
    evaluated at the pre-motion velocity beta(0) (which makes a constant
    profile production-free); the number it stands for is resolved once, at
    construction, into ``resolved_sigma``.  ``coefficients`` evaluates the
    medium at any time; a scenario whose n^2 or sigma^2 leaves the float
    range, whose sigma^2 is zero, or whose eta_plus at t = 0 is not below
    sqrt(alpha Delta / eps) (sigma about 1.2e4 times its "auto" value or
    more, or 1/1.2e4 or less) is a ``ConfigError`` naming the key.
    """

    refractive_index: float
    omega: float
    theta: float
    profile: VelocityProfile
    t_end: float
    sigma: float | str = "auto"
    resolved_sigma: float = field(init=False)

    def __post_init__(self):
        _require_finite(self, ("refractive_index", "omega", "theta", "t_end")
                        + (() if isinstance(self.sigma, str) else ("sigma",)))
        if self.refractive_index < 1.0:
            raise ConfigError(f"refractive_index must be >= 1, got {self.refractive_index}")
        if self.omega <= 0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise ConfigError(f"sigma must be positive or 'auto', got {self.sigma!r}")
        elif self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        # n^2 and sigma^2 enter every coefficient: past the float range, or
        # with sigma^2 at zero, the medium has no finite coefficients
        if not math.isfinite(self.refractive_index * self.refractive_index):
            raise ConfigError(f"refractive_index {self.refractive_index} is too large: "
                              "its square overflows")
        sigma = auto_sigma(self) if isinstance(self.sigma, str) else float(self.sigma)
        if not 0.0 < sigma * sigma < math.inf:
            raise ConfigError(f"sigma {sigma} is out of range: its square is {sigma * sigma}")
        object.__setattr__(self, "resolved_sigma", sigma)
        # a Magnus step's rotation r^2 = p^2 + q^2 - a^2, -(omega h)^2 alpha
        # Delta, cancels from terms of (omega h eta_plus)^2: from eta_plus^2 =
        # alpha Delta / eps on, roundoff is the whole of it (``magnus_steps``).
        # A finite eta_plus bounds every other coefficient.
        m = self.coefficients(0.0)
        limit = math.sqrt(m.alpha * m.big_delta / np.finfo(float).eps)
        if not m.eta_plus < limit:
            raise ConfigError(f"sigma {sigma} makes eta_plus at t = 0 {m.eta_plus:.3e}, not below "
                              f"sqrt(alpha Delta / eps) = {limit:.3e}: every Magnus step's "
                              "rotation would be roundoff")

    def coefficients(self, t) -> MediumSample:
        """The medium coefficients at a time, or as arrays at an array of times."""
        beta = self.profile.beta(t)
        delta, alpha, big_delta = _medium_terms(self.refractive_index, self.theta, beta)
        s2 = self.resolved_sigma ** 2
        return MediumSample(
            beta=beta, delta=delta, alpha=alpha, big_delta=big_delta,
            eta_plus=0.5 * (alpha / s2 + s2 * big_delta),
            eta_minus=0.5 * (alpha / s2 - s2 * big_delta),
            phase_rate=self.omega * delta * beta * math.cos(self.theta),
        )


def auto_sigma(s: CasimirScenario) -> float:
    """The production-free polarization choice [alpha/Delta]^(1/4) at t=0."""
    _, alpha, big_delta = _medium_terms(s.refractive_index, s.theta, s.profile.beta(0.0))
    return (alpha / big_delta) ** 0.25


def _conj(z):
    """conj(z) with every zero part +0 (an exact zero is written 0, not -0)."""
    return np.conj(z) + 0.0


@dataclass(eq=False)
class ModeSolution:
    """Propagated mode trajectory with conserved-quantity diagnostics.

    ``scenario`` holds the parameters it was propagated with, the resolved
    sigma ``scenario.resolved_sigma`` included.  The left pair (``f_lp``,
    ``f_lm``) is the right pair's conjugate.  ``ccr_residual`` is the CCR
    residual per sample, computed from the current amplitudes and not
    checked here.
    ``propagator`` is the ``numerics`` solution it was sampled from, the
    dense output of ``at``; ``route`` names the route that solved it
    (``solve_modes``), and ``steps`` (the Magnus steps kept, over one period
    on the Floquet route) and ``error_estimate`` (the largest step-doubling
    estimate of their global error in any amplitude or in phi; on the
    Floquet route, of the composed values, roundoff included) are the
    propagator's.
    """

    scenario: CasimirScenario
    times: np.ndarray
    f_rp: np.ndarray
    f_rm: np.ndarray
    phi: np.ndarray
    propagator: MagnusSolution | FloquetSolution

    @property
    def route(self) -> str:
        """The route that solved the run: "floquet" where it was composed from
        one period, else "direct"."""
        return "floquet" if isinstance(self.propagator, FloquetSolution) else "direct"

    @property
    def steps(self) -> int:
        return self.propagator.steps

    @property
    def error_estimate(self) -> float:
        return self.propagator.error_estimate

    @property
    def f_lp(self) -> np.ndarray:
        """f_L+ = conj(f_R-) per sample."""
        return _conj(self.f_rm)

    @property
    def f_lm(self) -> np.ndarray:
        """f_L- = conj(f_R+) per sample."""
        return _conj(self.f_rp)

    @property
    def ccr_residual(self) -> np.ndarray:
        """|f_R+|^2 - |f_R-|^2 - 1 per sample."""
        return np.abs(self.f_rp) ** 2 - np.abs(self.f_rm) ** 2 - 1.0

    def at(self, t) -> "ModeSolution":
        """The solution at a time or a 1-D array of times inside the propagated
        span, from the dense output: ``times`` is ``t`` as an array (0-d for a
        time) and the amplitudes and phase are shaped like it.  A node of the
        propagator is read as stored; any other time takes one partial Magnus
        step."""
        (f_rp, v), phi = self.propagator.at(t)
        return dataclasses.replace(
            self, times=np.asarray(t, dtype=float), f_rp=f_rp, f_rm=_conj(v), phi=phi
        )

    def endpoint_velocity_mismatch(self) -> float:
        """|beta(T) - beta(0)|; nonzero means no clean in/out photon picture."""
        p = self.scenario.profile
        return abs(p.beta(float(self.times[-1])) - p.beta(0.0))

    def density(self) -> np.ndarray:
        """Per-sample photon density |f_R-|^2."""
        return np.abs(self.f_rm) ** 2


def _mode_generator(s: CasimirScenario):
    """A(t) = -i omega [[eta_plus, -eta_minus], [eta_minus, -eta_plus]] in the
    real su(1,1) coordinates (a, p, q) of ``numerics.magnus_steps``, a =
    -omega eta_plus, p = 0, q = omega eta_minus, with the phase rate."""
    omega = s.omega

    def generator(t):
        m = s.coefficients(t)
        return -omega * m.eta_plus, np.zeros_like(t), omega * m.eta_minus, m.phase_rate

    return generator


def _period(p: VelocityProfile) -> float | None:
    """The period 2 pi / drive_frequency of the mode equations and the phase
    rate under a sinusoid (A(t), even in beta, has half of it), or None for a
    profile that is not periodic."""
    return 2.0 * math.pi / p.drive_frequency if p.kind == "sinusoid" else None


def floquet_exponent(sol: ModeSolution) -> float | None:
    """The Floquet exponent mu = acosh|Re u_M| / P of a periodic run, from its
    monodromy M = U(P) = [[u_M, v_M], [conj(v_M), conj(u_M)]]: the photon
    number grows as e^{2 mu t} inside a resonance zone, |Re u_M| > 1, and
    mu = 0 outside one.  None for a profile that is not periodic or a run
    shorter than one period."""
    period = _period(sol.scenario.profile)
    if period is None or period > sol.scenario.t_end:
        return None
    half_trace = abs(float(sol.at(period).f_rp.real))
    return math.acosh(half_trace) / period if half_trace > 1.0 else 0.0


def _breakpoints(s: CasimirScenario) -> list:
    """0, t_end and the times inside the span where beta(t) is not smooth:
    the corners of a ramp and the end of a smooth pulse (beta'' jumps)."""
    p = s.profile
    corners = (*p.kinks(), p.duration) if p.kind == "smooth_pulse" else p.kinks()
    return [0.0, *sorted(t for t in set(corners) if 0.0 < t < s.t_end), s.t_end]


def solve_modes(
    s: CasimirScenario,
    samples: int | Sequence[float] = 201,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ModeSolution:
    """Propagate the helicity pairs and the phase over [0, t_end].

    ``samples`` is either an integer count (uniform grid including both
    ends) or an explicit ascending array of times within the span.
    ``rtol`` and ``atol`` bound the estimated global error of f_R+, f_R-
    and phi.  The conserved-quantity residuals of the result are not
    checked here; see ``ModeSolution``.

    A sinusoid whose span holds two or more whole periods P = 2 pi /
    drive_frequency takes the Floquet route (``numerics.solve_floquet``):
    the mode equations have period P, so one period is solved and every
    sample and dense-output time composed from it and the powers of the
    monodromy U(P), with the step-doubling estimate checked on the composed
    values.  Any other run, and a sinusoid whose composed estimate cannot
    meet the tolerance above roundoff, takes the direct route of
    ``solve_modes_direct``.
    """
    return _solve_modes(s, samples, rtol, atol, floquet=True)


def solve_modes_direct(
    s: CasimirScenario,
    samples: int | Sequence[float] = 201,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ModeSolution:
    """``solve_modes`` by step doubling over the whole span
    (``numerics.solve_magnus``), whatever the profile: the route of every
    profile but the sinusoid, and the reference of the Floquet route."""
    return _solve_modes(s, samples, rtol, atol, floquet=False)


def _solve_modes(s, samples, rtol, atol, floquet: bool) -> ModeSolution:
    if np.ndim(samples) == 0:
        if not isinstance(samples, numbers.Integral) or samples < 2:
            raise ConfigError(f"need an integer count of at least 2 samples, got {samples!r}")
        times = np.linspace(0.0, s.t_end, samples)
    else:
        times = np.asarray(samples, dtype=float)
        if times.size < 1 or np.any(np.diff(times) < 0):
            raise ConfigError("sample times must be ascending and nonempty")
        if times[0] < 0.0 or times[-1] > s.t_end * (1 + 1e-12):
            raise ConfigError("sample times must lie within [0, t_end]")
    generator = _mode_generator(s)
    # the first grid takes about one step per radian of the faster of the
    # mode and the drive (doubled up to numerics.FIRST_GRID_STEPS steps);
    # step doubling refines it
    step = 1.0 / max(s.omega, s.profile.drive_frequency)
    period = _period(s.profile)
    propagator = None
    if floquet and period is not None and s.t_end >= 2.0 * period:
        try:
            propagator, values = solve_floquet(generator, period, s.t_end, step, times, rtol, atol)
        except ConvergenceError:
            pass  # the tolerance lies below the composition's roundoff
    if propagator is None:
        propagator = solve_magnus(generator, _breakpoints(s), step, rtol=rtol, atol=atol)
        values = propagator.at(times)
    (f_rp, v), phi = values
    return ModeSolution(s, times, f_rp, _conj(v), phi, propagator)


def _casimir_matrices(sol: ModeSolution, index) -> np.ndarray:
    """The 4x4 map matrices at sample ``index`` (an int, or a slice for a stack),
    ``symplectic.assemble(X_up, X_down)`` written into one zeroed stack: the
    lower blocks are the upper ones conjugated, zeros included (0 - 0j)."""
    em = np.exp(-1j * sol.phi[index])
    ep = np.conj(em)
    f_rp, f_rm = sol.f_rp[index], sol.f_rm[index]
    x = np.zeros(em.shape + (4, 4), dtype=complex)
    x[..., 0, 0] = em * f_rp
    x[..., 0, 3] = em * f_rm
    x[..., 1, 1] = ep * f_rp
    x[..., 1, 2] = ep * f_rm
    np.conjugate(x[..., :2, 2:], out=x[..., 2:, :2])
    np.conjugate(x[..., :2, :2], out=x[..., 2:, 2:])
    return x


def casimir_map(sol: ModeSolution, t_index: int) -> BogoliubovMap:
    """Two-mode Bogoliubov map at a sample (n_sys = n_env = 1).

    Mode 1 is the right-helicity mode at k, mode 2 the left-helicity
    mode at -k.  The system sub-block X_down_S is identically zero, so
    the map is always open-system classical; it is closed-system
    classical iff there is no production.  Its residuals are checked
    against ``symplectic.roundoff_limit(max|X|^2, SYMPLECTIC_TOL)``, the
    limit of the CLI's ``symplectic_residual`` gate: max|X|^2 is about
    the photon number n, so the limit is 1e-8 up to n ~ 1.8e5 and
    256 eps n above, where a correct map carries residuals of a few eps n.
    """
    return BogoliubovMap(1, 1, _casimir_matrices(sol, t_index))


def casimir_maps(sol: ModeSolution) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of ``casimir_map`` at every sample, ``(samples, 4, 4)``, and
    their symplectic residuals, unchecked (the conjugate blocks hold by
    construction)."""
    x = _casimir_matrices(sol, slice(None))
    return x, symplectic_residuals(x)


def closed_form_generators(sol: ModeSolution) -> tuple:
    """Scalar kinetic generators in closed form at every sample: real arrays
    ``(h, gamma_up)`` over the sample axis.

    gamma_down is exactly zero: the production process never destroys
    photons.  |f_R+| >= 1 by the CCR invariant, so no division hazard.
    """
    s = sol.scenario
    m = s.coefficients(sol.times)
    omega = s.omega
    ap2 = np.abs(sol.f_rp) ** 2
    h = omega * (
        m.eta_plus
        - m.eta_minus * (sol.f_rm * np.conj(sol.f_rp)).real / ap2
        + m.delta * m.beta * math.cos(s.theta)
    )
    gamma_up = 2.0 * omega * m.eta_minus * (sol.f_rp * np.conj(sol.f_rm)).imag / ap2
    return h, gamma_up


def casimir_generator_callback(sol: ModeSolution) -> Callable:
    """``closed_form_generators`` as a function of time for ``integrate_kinetics``:
    ``gen(t)`` evaluates the dense output at a time or an array of times and
    returns the stacks ``(h, zeta, gamma_up, gamma_down)``, shaped
    ``shape(t) + (1, 1)`` (zeta ``shape(t) + (1,)``)."""

    def gen(t):
        h, up = closed_form_generators(sol.at(t))
        zero = np.zeros_like(h)
        return h[..., None, None], zero[..., None], up[..., None, None], zero[..., None, None]

    return gen


def _family(sol: ModeSolution) -> tuple:
    """The smooth family X_up_S = e^{-i phi} f_R+, X_down_C = e^{-i phi} f_R- of
    a solution at its times and its time derivatives, taken from the mode
    equations instead of finite differences: (X_up_S, X_down_C, dX_up_S/dt,
    dX_down_C/dt) as 1x1 matrices, each ``shape(times) + (1, 1)``."""
    m = sol.scenario.coefficients(sol.times)
    omega = sol.scenario.omega
    em = np.exp(-1j * sol.phi)
    dfp = -1j * omega * (m.eta_plus * sol.f_rp - m.eta_minus * sol.f_rm)
    dfm = 1j * omega * (m.eta_plus * sol.f_rm - m.eta_minus * sol.f_rp)
    family = (
        em * sol.f_rp,
        em * sol.f_rm,
        em * (dfp - 1j * m.phase_rate * sol.f_rp),
        em * (dfm - 1j * m.phase_rate * sol.f_rm),
    )
    return tuple(np.asarray(v)[..., None, None] for v in family)


def extracted_generators(sol: ModeSolution) -> tuple:
    """Generic open-system extraction on the mode family at every sample, the
    independent route against which the closed forms are checked:
    ``(h, gamma_up, gamma_down)``, each ``shape(times) + (1, 1)``."""
    return open_generator_arrays(*_family(sol))


def casimir_generators_extracted(sol: ModeSolution, t) -> tuple:
    """``extracted_generators`` at a time or an array of times of the dense
    output, as the stacks ``(h, zeta, gamma_up, gamma_down)`` that
    ``integrate_kinetics`` takes from a callable."""
    h, up, down = extracted_generators(sol.at(t))
    return h, np.zeros(h.shape[:-1], dtype=complex), up, down


def _growth_stencils(sol: ModeSolution) -> tuple:
    """The growth law's step h and each sample's stencil side."""
    s = sol.scenario
    # 5e-4 of the shortest time scale: 1 / omega, 1 / drive_frequency, or a
    # duration that the profile's kind reads (a zero hold is none) down to
    # 1e-5 / omega.  Outside a short pulse or ramp n changes at about the rate
    # omega, and there a step below 5e-9 / omega leaves a roundoff of about
    # 11 eps n / h, past the gate's 1e-6 relative.  t_end / 8 keeps a
    # one-sided 5-point stencil inside the span
    rates = [s.omega]
    for key in PROFILE_KINDS[s.profile.kind]:
        value = getattr(s.profile, key)
        if key == "drive_frequency":
            rates.append(value)
        elif value > 0:
            rates.append(min(1.0 / value, 1e5 * s.omega))
    h = min(5e-4 / max(rates), s.t_end / 8.0)
    t = sol.times
    # stencil t + k h: one-sided forward (side 1) at the start, backward (side -1)
    # at the end, central (side 0, four points) elsewhere
    side = np.where(t - 2 * h < 0.0, 1, np.where(t + 2 * h > s.t_end, -1, 0))
    for kink in s.profile.kinks():
        # a central stencil across a kink misses the growth law; go one-sided
        # on the sample's own side, or the other side where that one would
        # leave the span (the other side then fits, since t_end >= 8 h)
        own = np.where(t < kink, -1, 1)
        own = np.where((t + 4 * h * own < 0.0) | (t + 4 * h * own > s.t_end), -own, own)
        side = np.where((side == 0) & (np.abs(t - kink) < 2 * h), own, side)
    return h, side


def _density_rates(sol: ModeSolution, t: np.ndarray, side: np.ndarray, h: float) -> np.ndarray:
    """d n/dT at the times ``t`` by the fourth-order stencils t + k h of ``side``
    on the dense |f_R-(t)|^2; only the points a stencil reads are evaluated."""
    k = np.where(side[:, None] != 0, side[:, None] * np.arange(5), [-2, -1, 1, 2, 0])
    read = np.ones(k.shape, dtype=bool)
    read[side == 0, 4] = False
    density = np.zeros(k.shape)
    density[read] = sol.at((t[:, None] + k * h)[read]).density()
    f0, f1, f2, f3, f4 = density.T
    one_sided = (-25 * f0 + 48 * f1 - 36 * f2 + 16 * f3 - 3 * f4) / (12 * h)
    return np.where(side == 0, (f0 - 8 * f1 + 8 * f2 - f3) / (12 * h), side * one_sided)


def growth_law_residual(
    sol: ModeSolution, gamma_up: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Check the production growth law by numerical differentiation: returns
    ``(density_rate, residuals)`` at the samples, d n/dT and |d n/dT -
    gamma_up (n + 1)|.

    d n/dT is taken from fourth-order finite differences of the dense
    |f_R-(t)|^2 (one-sided at the span edges, and on the sample's own side
    within two steps of a kink of the profile) and compared against
    gamma_up (n + 1) from the closed-form generators; the two sides are
    computed by different routes, so the residual is a genuine
    consistency check, not an identity.  ``gamma_up`` takes the
    closed-form rates at the samples (``closed_form_generators``) from a
    caller that already has them.
    """
    if gamma_up is None:
        _, gamma_up = closed_form_generators(sol)
    h, side = _growth_stencils(sol)
    rates = _density_rates(sol, sol.times, side, h)
    return rates, np.abs(rates - gamma_up * (sol.density() + 1.0))


def growth_law_error(sol: ModeSolution, rates: np.ndarray, index) -> np.ndarray:
    """The difference error of ``growth_law_residual``'s ``rates`` at the
    samples ``index``: each sample's stencil is taken again at h/2, on the
    same side, and the fourth-order estimate is 16/15 |rate(h) - rate(h/2)|."""
    h, side = _growth_stencils(sol)
    half = _density_rates(sol, sol.times[index], side[index], 0.5 * h)
    return np.abs(rates[index] - half) * (16.0 / 15.0)
