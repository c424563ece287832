"""Shared helpers: reproducible random states and symplectic maps, and
scipy's DOP853 as the reference route for the package's integrators."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rsfield.rsf import ConjugateField, ReducedField
from rsfield.symplectic import BogoliubovMap, from_blocks


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_passive(n: int, rng: np.random.Generator) -> BogoliubovMap:
    return from_blocks(haar_unitary(n, rng), np.zeros((n, n), dtype=complex), n, 0)


def random_symplectic(
    n: int, rng: np.random.Generator, squeeze_scale: float = 0.5,
    n_sys: int | None = None,
) -> BogoliubovMap:
    """Euler (Bloch-Messiah) form U1 * diag-squeeze * U2: always symplectic."""
    u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
    d = rng.uniform(0.0, squeeze_scale, size=n)
    x_up = u1 @ np.diag(np.cosh(d)) @ u2
    x_down = u1 @ np.diag(np.sinh(d)) @ u2.conj()
    ns = n if n_sys is None else n_sys
    return from_blocks(x_up, x_down, ns, n - ns, tol=1e-10)


def random_physical_fields(
    n: int, rng: np.random.Generator, displaced: bool = True
) -> tuple[ReducedField, ConjugateField]:
    """Moments of a random displaced pure Gaussian state."""
    m = random_symplectic(n, rng)
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[n:, n:] = np.eye(n)
    g = m.x @ g @ m.x.conj().T
    r = 0.5 * (g[:n, :n] + g[:n, :n].conj().T)
    c = 0.5 * (g[:n, n:] + g[n:, :n].conj().T)
    c = 0.5 * (c + c.T)
    alpha = np.zeros(n, dtype=complex)
    if displaced:
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = r + np.outer(alpha, alpha.conj())
        r = 0.5 * (r + r.conj().T)
        c = c + np.outer(alpha, alpha)
        c = 0.5 * (c + c.T)
    return ReducedField(r, alpha), ConjugateField(c)


def dop853(rhs, y0, span, times, rtol=1e-13, atol=1e-15):
    """States of dy/dt = rhs(t, y) at ``times`` (within ``span``) from scipy's
    adaptive DOP853 and its dense output, shape ``(len(times), dim)``."""
    y0 = np.asarray(y0, dtype=complex)
    if span[1] == span[0]:
        return np.tile(y0, (len(times), 1))
    res = solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    assert res.success, res.message
    return res.sol(np.asarray(times, dtype=float)).T


def _beta(p, t: float) -> float:
    """beta(t) of a ``VelocityProfile`` by its docstring's formulas, in
    ``math`` scalars."""
    if p.kind == "constant":
        return p.beta0
    if p.kind == "sinusoid":
        return p.beta0 * math.sin(p.drive_frequency * t)
    if p.kind == "smooth_pulse":
        return p.beta0 * math.sin(math.pi * t / p.duration) ** 2 if 0.0 < t < p.duration else 0.0
    ramp, hold = p.ramp_time, p.hold_time
    if t <= 0.0 or t >= 2.0 * ramp + hold:
        return 0.0
    return p.beta0 * min(t / ramp, 1.0, (2.0 * ramp + hold - t) / ramp)


def reference_modes(s, times, rtol=1e-13, atol=1e-15):
    """(f_R+, f_R-, f_L+, f_L-, phi) at ``times`` from scipy's adaptive DOP853
    on the mode equations as a 5-component ODE, independent of the Magnus
    propagator of ``solve_modes`` and of the package's coefficient code: delta,
    alpha, Delta, eta_pm, sigma = "auto" and the phase rate come from the
    formulas of the ``casimir`` docstring, in ``math`` scalars.  Each entry
    is an array over ``times``.  The integration restarts at every corner
    of beta(t), where an adaptive step across the corner would lose the
    tolerance."""
    omega, n2, cos2 = s.omega, s.refractive_index ** 2, math.cos(s.theta) ** 2

    def coefficients(beta):
        delta = (n2 - 1.0) / (n2 - beta * beta)
        return delta, 1.0 - delta * beta * beta, 1.0 - delta * beta * beta * cos2

    if s.sigma == "auto":
        _, alpha, big_delta = coefficients(_beta(s.profile, 0.0))
        s2 = math.sqrt(alpha / big_delta)
    else:
        s2 = s.sigma ** 2
    phase = omega * math.cos(s.theta)

    def rhs(t, y):
        beta = _beta(s.profile, t)
        delta, alpha, big_delta = coefficients(beta)
        plus = -1j * omega * 0.5 * (alpha / s2 + s2 * big_delta)
        minus = -1j * omega * 0.5 * (alpha / s2 - s2 * big_delta)
        f_rp, f_rm, f_lp, f_lm, _ = y.tolist()
        return np.array([
            plus * f_rp - minus * f_rm,
            minus * f_rp - plus * f_rm,
            plus * f_lp - minus * f_lm,
            minus * f_lp - plus * f_lm,
            phase * delta * beta,
        ])

    times = np.asarray(times, dtype=float)
    corners = [t for t in (*s.profile.kinks(), s.profile.duration) if 0.0 < t < s.t_end]
    edges = [0.0, *sorted(corners), s.t_end]
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0], dtype=complex)
    out = np.empty((times.size, 5), dtype=complex)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        inside = (times >= t0) & (times <= t1)
        states = dop853(rhs, y, (t0, t1), np.append(times[inside], t1), rtol, atol)
        out[inside], y = states[:-1], states[-1]
    f_rp, f_rm, f_lp, f_lm, phi = out.T
    return f_rp, f_rm, f_lp, f_lm, phi.real


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
