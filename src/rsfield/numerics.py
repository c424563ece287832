"""Dense complex linear algebra and adaptive ODE integration helpers.

The heavy lifting is delegated to LAPACK (through ``numpy.linalg``) and to
the Dormand-Prince embedded pairs of ``scipy.integrate.solve_ivp``:
"RK45" (5(4), quartic dense output; the default) or "DOP853" (8(5,3),
seventh-order dense output; used for the moving-medium mode equations).
What this module adds is contract enforcement: explicit Hermiticity
checks, eigendecomposition residual verification, positive-semidefinite
witnesses and a common error vocabulary used by the physics modules.

All quantities are dimensionless or expressed in natural units
(hbar = c = 1); matrices and vectors are plain complex numpy arrays.
"""

from __future__ import annotations

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

    ``first_step`` bounds the initial step of the adaptive integrator;
    by default the integrator chooses it.  ``method`` selects the
    embedded pair: "RK45" (Dormand-Prince 5(4)) or "DOP853"
    (Dormand-Prince 8(5,3), for long smooth runs at tight tolerance).
    """

    y0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    first_step: float | None = None
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
        times = np.asarray(t, dtype=float)
        outside = (times < t0 - 1e-12 * (1 + abs(t0))) | (times > t1 + 1e-12 * (1 + abs(t1)))
        if np.any(outside):
            raise DimensionMismatchError(
                f"t={times[outside].flat[0]} outside integrated span {self.problem.t_span}"
            )
        return np.asarray(self._sol(np.clip(times, t0, t1)), dtype=complex).T


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
    kwargs = {}
    if problem.first_step is not None:
        kwargs["first_step"] = problem.first_step
    res = solve_ivp(
        _checked_rhs(problem), (t0, t1), problem.y0,
        method=problem.method, rtol=problem.rtol, atol=problem.atol,
        dense_output=True, **kwargs,
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
