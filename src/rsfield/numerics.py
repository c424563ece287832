"""Dense complex linear algebra, ODE integration and a Magnus propagator.

The heavy lifting is delegated to LAPACK (through ``numpy.linalg``) and to
the Dormand-Prince embedded pairs of ``scipy.integrate.solve_ivp``:
"RK45" (5(4), quartic dense output; the default) or "DOP853" (8(5,3),
seventh-order dense output), used by the kinetic equations and the Fock
oracle.  What this module adds is contract enforcement: explicit
Hermiticity checks, eigendecomposition residual verification,
positive-semidefinite witnesses and a common error vocabulary used by the
physics modules.

Linear 2x2 systems dU/dt = A(t) U with traceless A (the moving-medium
mode equations) are propagated by ``solve_magnus`` instead: a
sixth-order Magnus step on three Gauss-Legendre nodes, whose map is the
closed-form exponential exp(W) = cosh(r) I + sinh(r)/r W with r^2 =
-det W, so a generator in su(1,1) gives an SU(1,1) map to roundoff at
any step size.  A scalar rate is integrated alongside by Gauss
quadrature on the same nodes.  The error is controlled by step
doubling on a grid that is uniform between breakpoints.

All quantities are dimensionless or expressed in natural units
(hbar = c = 1); matrices and vectors are plain complex numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConvergenceError,
    DerivativeUnavailableError,
    DimensionMismatchError,
    NonFiniteStateError,
    NonHermitianError,
    StepSizeUnderflowError,
)

HERMITIAN_TOL = 1e-12
EIG_RECONSTRUCTION_TOL = 1e-10
PSD_TOL = 1e-10

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# Gauss-Legendre nodes and weights on [0, 1]
GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
MAGNUS_CHUNK = 1024  # steps (or dense-output times) built at once, bounding temporaries
MAGNUS_MAX_STEPS = 2 ** 20


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm ``max_ij |a_ij|`` (0 for empty arrays)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def hermiticity_residual(m: np.ndarray) -> float:
    """Return ``max |M - M^dag|``."""
    m = np.asarray(m)
    return max_abs(m - m.conj().T)


def require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    return m


def require_hermitian(
    m: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix"
) -> np.ndarray:
    """Validate ``M = M^dag`` within ``tol * (1 + max|M|)`` and return M."""
    m = require_square(m, what)
    res = hermiticity_residual(m)
    if res > tol * (1.0 + max_abs(m)):
        raise NonHermitianError(
            f"{what} is not Hermitian: residual {res:.3e} exceeds tolerance"
        )
    return m


def hermitian_eigh(
    m: np.ndarray, tol: float = HERMITIAN_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with residual verification.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    eigenvector columns ``v``.  The reconstruction ``v @ diag(w) @ v^dag``
    is checked against the (symmetrized) input to guard against silent
    LAPACK failures.
    """
    m = require_hermitian(m, tol)
    sym = 0.5 * (m + m.conj().T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    res = max_abs((v * w) @ v.conj().T - sym)
    if res > EIG_RECONSTRUCTION_TOL * (1.0 + max_abs(sym)):
        raise ConvergenceError(
            f"eigendecomposition reconstruction residual {res:.3e} too large"
        )
    return w, v


def hermitian_eigenvalues(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    w, _ = hermitian_eigh(m, tol)
    return w


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness check with witness.

    Returns ``(verdict, lambda_min)``; the verdict is true iff
    ``lambda_min >= -tol * (1 + max|M|)``.  The witness (the smallest
    eigenvalue) is returned either way.
    """
    m = require_hermitian(m, what="PSD candidate")
    sym = 0.5 * (m + m.conj().T)
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    lam_min = float(w[0]) if w.size else 0.0
    return lam_min >= -tol * (1.0 + max_abs(sym)), lam_min


@dataclass(frozen=True, eq=False)
class OdeProblem:
    """An initial-value problem ``dy/dt = rhs(t, y)`` on ``t_span``.

    ``method`` selects the embedded pair: "RK45" (Dormand-Prince 5(4))
    or "DOP853" (Dormand-Prince 8(5,3), for long smooth runs at tight
    tolerance).
    """

    y0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    method: str = "RK45"

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=complex).ravel()
        object.__setattr__(self, "y0", y0)
        t0, t1 = self.t_span
        if t1 < t0:
            raise DimensionMismatchError(f"time span reversed: {self.t_span}")
        if self.rtol <= 0 or self.atol <= 0:
            raise DimensionMismatchError("tolerances must be positive")
        if self.method not in ("RK45", "DOP853"):
            raise DimensionMismatchError(f"unsupported method {self.method!r}")

    @property
    def dim(self) -> int:
        return self.y0.size


class DenseOdeSolution:
    """Adaptive Dormand-Prince solution with dense-output evaluation."""

    def __init__(self, problem: OdeProblem, interpolant, t_end, y_end, n_steps):
        self.problem = problem
        self._sol = interpolant
        self.t_end = float(t_end)
        self.y_end = np.asarray(y_end, dtype=complex)
        self.n_steps = int(n_steps)

    def at(self, t) -> np.ndarray:
        """State at time ``t`` via the integrator's own interpolant.

        ``t`` is a time or a 1-D array of times (any order); an array
        gives shape ``(len(t), dim)``.  Every time must lie in the span.
        """
        t0, t1 = self.problem.t_span
        times = _clip_to_span(t, t0, t1)
        return np.asarray(self._sol(times), dtype=complex).T


def _clip_to_span(t, t0: float, t1: float) -> np.ndarray:
    """``t`` as a float array clipped to [t0, t1]; raises if a time lies
    outside it by more than 1e-12 relative."""
    times = np.asarray(t, dtype=float)
    outside = (times < t0 - 1e-12 * (1 + abs(t0))) | (times > t1 + 1e-12 * (1 + abs(t1)))
    if np.any(outside):
        raise DimensionMismatchError(
            f"t={times[outside].flat[0]} outside integrated span {(t0, t1)}"
        )
    return np.clip(times, t0, t1)


def _checked_rhs(problem: OdeProblem):
    def rhs(t, y):
        dy = np.asarray(problem.rhs(t, y), dtype=complex).ravel()
        if dy.size != problem.dim:
            raise DimensionMismatchError(
                f"rhs returned size {dy.size}, expected {problem.dim}"
            )
        if not np.all(np.isfinite(dy)):
            raise NonFiniteStateError(f"non-finite derivative at t={t:.6g}")
        return dy

    return rhs


def solve_ode_dense(problem: OdeProblem) -> DenseOdeSolution:
    """Integrate over the whole span and keep the dense interpolant."""
    t0, t1 = problem.t_span
    if t1 == t0:
        def constant(t):
            return np.multiply.outer(problem.y0, np.ones(np.shape(t)))

        return DenseOdeSolution(problem, constant, t0, problem.y0, 0)
    res = solve_ivp(
        _checked_rhs(problem), (t0, t1), problem.y0,
        method=problem.method, rtol=problem.rtol, atol=problem.atol,
        dense_output=True,
    )
    if not res.success:
        msg = res.message or "integration failed"
        if "step size" in msg.lower():
            raise StepSizeUnderflowError(msg)
        raise NonFiniteStateError(msg)
    if not np.all(np.isfinite(res.y)):
        raise NonFiniteStateError("non-finite state in integrator output")
    return DenseOdeSolution(problem, res.sol, res.t[-1], res.y[:, -1], res.t.size - 1)


def solve_ode(problem: OdeProblem, sample_times: Sequence[float]) -> np.ndarray:
    """State snapshots at ``sample_times`` (ascending, within the span).

    Returns an array of shape ``(len(sample_times), dim)``.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return np.zeros((0, problem.dim), dtype=complex)
    if np.any(np.diff(times) < 0):
        raise DimensionMismatchError("sample times must be ascending")
    return solve_ode_dense(problem).at(times)


def central_difference(
    f: Callable[[float], np.ndarray], t: float, h: float
) -> np.ndarray:
    """Second-order central difference ``(f(t+h) - f(t-h)) / (2h)``."""
    if h <= 0:
        raise DimensionMismatchError(f"step must be positive, got {h}")
    try:
        fp = np.asarray(f(t + h), dtype=complex)
        fm = np.asarray(f(t - h), dtype=complex)
    except Exception as exc:
        raise DerivativeUnavailableError(
            f"cannot evaluate function at t={t} +/- {h}: {exc}"
        ) from exc
    return (fp - fm) / (2.0 * h)


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] of traceless 2x2 matrices stored as (a, b, c) for [[a, b], [c, -a]]
    along the first axis."""
    return np.stack([
        x[1] * y[2] - x[2] * y[1],
        2.0 * (x[0] * y[1] - x[1] * y[0]),
        2.0 * (x[2] * y[0] - x[0] * y[2]),
    ])


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of 2x2 matrices stored as ``(2, 2, ...)``, broadcasting over
    the trailing axes (much faster than ``@`` on stacks of tiny matrices)."""
    return (x[:, :, None] * y[None]).sum(axis=1)


def magnus_steps(generator, t0: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order Magnus maps of the steps [t0, t0 + h] and the Gauss
    quadrature of the rate over each (1-D arrays of steps).

    ``generator(t)`` returns ``(a, b, c, q)`` shaped like ``t``: the
    traceless generator A(t) = [[a, b], [c, -a]] and a scalar rate q(t).
    Returns the maps, shape ``(2, 2, steps)``, and the integrals of q.
    A step of length 0 maps by the identity exactly.
    """
    a, b, c, q = generator(t0 + h * GAUSS_NODES[:, None])
    g = np.stack([a, b, c]) * h  # (component, node, step)
    a1 = g[:, 1]
    a2 = math.sqrt(15.0) / 3.0 * (g[:, 2] - g[:, 0])
    a3 = 10.0 / 3.0 * (g[:, 2] - 2.0 * g[:, 1] + g[:, 0])
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    w = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    # exp(W) = cosh(r) I + sinh(r)/r W; both are even in r, so any root of
    # r^2 = -det W serves, and the series takes over where r/r is 0/0
    r2 = w[0] * w[0] + w[1] * w[2]
    small = np.abs(r2) < 1e-8
    r = np.sqrt(np.where(small, 1.0, r2))
    cosh = np.where(small, 1.0 + r2 / 2.0 + r2 * r2 / 24.0, np.cosh(r))
    sinhc = np.where(small, 1.0 + r2 / 6.0 + r2 * r2 / 120.0, np.sinh(r) / r)
    maps = np.array([[cosh + sinhc * w[0], sinhc * w[1]], [sinhc * w[2], cosh - sinhc * w[0]]])
    return maps, h * (GAUSS_WEIGHTS @ q)


def propagate_magnus(generator, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fundamental matrix U (U = I at ``nodes[0]``), shape ``(2, 2, nodes)``,
    and the running integral of the rate at every node of an ascending grid,
    one Magnus step per interval."""
    n = nodes.size - 1
    u = np.empty((2, 2, n + 1), dtype=complex)
    u[:, :, 0] = np.eye(2)
    integral = np.zeros(n + 1)
    for k0 in range(0, n, MAGNUS_CHUNK):
        k1 = min(k0 + MAGNUS_CHUNK, n)
        maps, integral[k0 + 1:k1 + 1] = magnus_steps(
            generator, nodes[k0:k1], nodes[k0 + 1:k1 + 1] - nodes[k0:k1]
        )
        # prefix products E_j ... E_k0 of the chunk by doubling (Hillis-Steele)
        shift = 1
        while shift < k1 - k0:
            maps[:, :, shift:] = _matmul(maps[:, :, shift:], maps[:, :, :-shift])
            shift *= 2
        u[:, :, k0 + 1:k1 + 1] = _matmul(maps, u[:, :, k0:k0 + 1])
    if not np.all(np.isfinite(u)):
        raise NonFiniteStateError("non-finite state in Magnus propagation")
    np.cumsum(integral, out=integral)
    return u, integral


def _grid(breakpoints: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Nodes with ``counts[i]`` uniform steps from ``breakpoints[i]`` to the next."""
    pieces = [np.linspace(t0, t1, m + 1)[:-1]
              for t0, t1, m in zip(breakpoints[:-1], breakpoints[1:], counts)]
    return np.concatenate(pieces + [breakpoints[-1:]])


def _doubling_error(fine, coarse, rtol, atol) -> tuple[float, bool]:
    """The largest estimate |fine - coarse| / 63 over the nodes two grids share
    (the last axis runs over nodes; the fine grid halves every step), and
    whether each one meets ``atol + rtol |fine|``; in chunks, so the
    temporaries stay small."""
    worst, ok = 0.0, True
    for i in range(0, coarse.shape[-1], MAGNUS_CHUNK):
        f = fine[..., 2 * i:2 * (i + MAGNUS_CHUNK):2]
        err = np.abs(f - coarse[..., i:i + MAGNUS_CHUNK]) / 63.0
        worst = max(worst, float(err.max()))
        ok = ok and bool(np.all(err <= atol + rtol * np.abs(f)))
    return worst, ok


class MagnusSolution:
    """Fundamental matrix and rate integral on a node grid, with dense output."""

    def __init__(self, generator, nodes, u, integral, error_estimate):
        self._generator = generator
        self.nodes = nodes
        self.u = u
        self.integral = integral
        self.error_estimate = float(error_estimate)

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """``(U, integral)`` at a time or an array of times (any order), by one
        partial Magnus step from the node at or before each time; ``U`` has
        shape ``(2, 2) + shape(t)``.  Every time must lie in the span."""
        times = _clip_to_span(t, self.nodes[0], self.nodes[-1])
        flat = times.ravel()
        u = np.empty((2, 2, flat.size), dtype=complex)
        integral = np.empty(flat.size)
        for i in range(0, flat.size, MAGNUS_CHUNK):
            chunk = slice(i, i + MAGNUS_CHUNK)
            k = np.searchsorted(self.nodes, flat[chunk], side="right") - 1
            start = self.nodes[k]
            maps, increments = magnus_steps(self._generator, start, flat[chunk] - start)
            u[:, :, chunk] = _matmul(maps, self.u[:, :, k])
            integral[chunk] = self.integral[k] + increments
        return u.reshape((2, 2) + times.shape), integral.reshape(times.shape)[()]


def solve_magnus(
    generator,
    breakpoints: Sequence[float],
    initial_step: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> MagnusSolution:
    """Propagate dU/dt = A(t) U, U(t0) = I, with ``magnus_steps`` over the span
    of ``breakpoints`` (ascending; each one is a node, and the nodes are
    uniform between them), and integrate the generator's rate alongside.

    Starting from steps of about ``initial_step``, the step count doubles
    until the Richardson estimate |X_2N - X_N| / 63 of the global error meets
    ``atol + rtol |X|`` for every entry X of U and for the integral at every
    node the two grids share; the finer solution is kept.  Raises
    ``ConvergenceError`` past ``MAGNUS_MAX_STEPS`` steps, or as soon as two
    consecutive doublings each cut the estimate by less than half (in the
    asymptotic range each cuts it by about 64): the tolerance then lies
    below the roundoff floor of the propagation.
    """
    if rtol <= 0 or atol <= 0:
        raise DimensionMismatchError("tolerances must be positive")
    breaks = np.asarray(breakpoints, dtype=float)
    counts = np.maximum(1, np.ceil(np.diff(breaks) / initial_step)).astype(int)
    u, integral = propagate_magnus(generator, _grid(breaks, counts))
    estimates = []
    while True:
        counts = 2 * counts
        if counts.sum() > MAGNUS_MAX_STEPS:
            raise ConvergenceError(
                f"Magnus propagation not within rtol={rtol:g}, atol={atol:g} "
                f"at {MAGNUS_MAX_STEPS} steps"
            )
        coarse, coarse_integral = u, integral
        nodes = _grid(breaks, counts)
        u, integral = propagate_magnus(generator, nodes)
        err_u, ok_u = _doubling_error(u, coarse, rtol, atol)
        err_integral, ok_integral = _doubling_error(integral, coarse_integral, rtol, atol)
        estimates.append(max(err_u, err_integral))
        if ok_u and ok_integral:
            return MagnusSolution(generator, nodes, u, integral, estimates[-1])
        if len(estimates) >= 3 and all(2.0 * b > a for a, b in zip(estimates[-3:], estimates[-2:])):
            raise ConvergenceError(
                f"Magnus propagation stalled at the roundoff floor: error estimate "
                f"{estimates[-1]:.3g} not within rtol={rtol:g}, atol={atol:g} "
                f"at {nodes.size - 1} steps"
            )
