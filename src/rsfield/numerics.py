"""Dense complex linear algebra and exponential integrators.

Eigensolves go to LAPACK through ``numpy.linalg``.  What this module
adds is contract enforcement: the package's one Hermiticity, squareness
and finiteness test (``is_hermitian``, ``require_square``,
``require_finite``), eigendecomposition residual verification and
positive-semidefinite witnesses.

Every evolution the package integrates is linear, so it is propagated
by exponentials rather than by a general-purpose ODE solver:

* ``expmv`` applies exp(A) to a vector through a truncated Taylor series
  of a matrix-free A, in substeps whose number and degree follow from a
  bound on ||A||_1 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)
  488); each series stops once its terms fall below unit roundoff.
  The truncated-Fock oracle uses it.
* ``expm`` is the dense exponential of a matrix or a stack of them, by
  scaling and squaring of the same Taylor series.
* ``solve_magnus`` propagates the 2x2 systems dU/dt = A(t) U of the
  moving-medium mode equations, A(t) in su(1,1) given by its real
  coordinates (a, p, q) of [[i a, p + i q], [p - i q, -i a]]: a
  sixth-order Magnus step on three Gauss-Legendre nodes, with the real
  su(1,1) bracket, whose map is the closed-form exponential
  exp(W) = C I + S W, (C, S) = (cosh r, sinh(r)/r) or (cos r, sin(r)/r)
  as r^2 = p^2 + q^2 - a^2 is positive or negative, so every step map
  lies in SU(1,1) to roundoff at any step size.  Each element
  [[u, v], [conj(v), conj(u)]], a step map or U, is stored and multiplied
  as its first row (u, v); the running products of the step maps are a
  work-efficient (up-sweep, down-sweep) prefix scan.  A scalar rate is
  integrated alongside by Gauss quadrature on the same nodes.
* ``solve_floquet`` does the same for a periodic generator over many
  periods from one: U(kP + r) = U(r) M^k with the monodromy M = U(P), the
  powers M^k from the same prefix scan (``FloquetSolution``).
* ``solve_linear`` propagates dy/dt = A y of any dimension (the kinetic
  equations): by one exact ``expm`` per interval when A is constant,
  and by the same sixth-order Magnus steps, exponentiated by ``expm``,
  when A depends on time.

Both Magnus solvers control the error by step doubling on a grid that
is uniform between breakpoints (``_refine``).  ``solve_magnus`` and the
period of ``solve_floquet`` start on the first grid of the ladder
N0 2^j, N0 their first grid, that holds at least ``FIRST_GRID_STEPS``
steps: below it a level costs little more than its fixed overhead.
``solve_linear``, whose every step is a dense ``expm``, starts on its
first grid.  Every grid propagated is a rung of that ladder, and none
holds more than ``MAGNUS_MAX_STEPS`` steps: ``ConvergenceError`` is raised
before a grid past the cap is built, the first grid included.

All quantities are dimensionless or expressed in natural units
(hbar = c = 1); matrices and vectors are plain complex numpy arrays.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DerivativeUnavailableError,
    DimensionMismatchError,
    NonFiniteStateError,
    NonHermitianError,
)

HERMITIAN_TOL = 1e-12
EIG_RECONSTRUCTION_TOL = 1e-10
PSD_TOL = 1e-10

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# Gauss-Legendre nodes and weights on [0, 1]
GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# steps (or dense-output times) built at once, bounding temporaries.  The
# scan's passes grow as 2 log2 of it; W3 at T=600 on the direct route (76,200
# steps propagated) solved in a median 34-35, 25-27, 23-24, 22 and 24 ms at
# 1024, 2048, 4096, 8192 and 16384 (2-vCPU Xeon, numpy 2.4.6, two passes of
# 11 interleaved runs each)
MAGNUS_CHUNK = 4096
MAGNUS_MAX_STEPS = 2 ** 20
# fewest steps of the first grid the Magnus solvers propagate (``_refine``'s
# ``first_steps``).  A level of N steps costs about c0 + c1 N: one period of
# W3 propagated in 233 us at 28 steps and 361 us at 448 (10th percentiles of
# 300 runs, 2-vCPU Xeon, numpy 2.4.6), and each level adds at most 55-70 us
# of ``_doubling_error`` and the loop around it (``_doubling_error`` alone:
# 17 and 23 us on those grids), so c0 ~ 0.28 ms and c1 ~ 0.3 us per step.
# The first grid propagated holds fewer than 2F steps, so a run
# whose first pair would have passed below F pays at most 6 F c1; F is the
# largest power of two with 6 F c1 <= c0, one level's fixed cost, which is
# also what each level skipped saves
FIRST_GRID_STEPS = 128

# theta_m of Al-Mohy & Higham (2011), Table 3.1, for unit roundoff 2^-53: the
# degree-m Taylor polynomial T_m satisfies T_m(A / s)^s = exp(A + dA) with
# ||dA||_1 <= 2^-53 ||A||_1 whenever ||A / s||_1 <= theta_m
TAYLOR_THETA = {5: 2.4e-3, 10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
                35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}
UNIT_ROUNDOFF = 2.0 ** -53


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm ``max_ij |a_ij|`` (0 for empty arrays)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def matrix_max(a: np.ndarray) -> np.ndarray:
    """The largest entry of each matrix of a stack ``(..., m, k)``, the values
    of ``a.max(axis=(-2, -1))``, reduced along the leading axis of a
    contiguous ``(m k, ...)`` copy: about four times faster on a long stack
    of small matrices."""
    a = np.asarray(a)
    return np.moveaxis(a.reshape(a.shape[:-2] + (-1,)), -1, 0).copy().max(axis=0)


def require_finite(a, what: str) -> np.ndarray:
    """``a`` as an array; a NaN or an infinity raises ``NonFiniteStateError``."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NonFiniteStateError(f"{what} has a non-finite entry")
    return a


def require_square(m, what: str) -> np.ndarray:
    """``m`` as a complex square matrix; a scalar is a 1x1 one."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """``max|M - M^dag| <= tol (1 + max|M|)`` and M finite, for a square matrix
    M or each of a stack ``(..., n, n)``; inf - inf in the residual is silenced."""
    m = np.asarray(m)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    with np.errstate(invalid="ignore"):
        residual = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    return np.isfinite(scale) & (residual <= tol * (1.0 + scale))


def require_hermitian(m, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    """``m`` as a complex array once it is a square matrix (``require_square``)
    or a stack ``(..., n, n)`` of them and ``is_hermitian`` holds for each."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 3 or m.shape[-1] != m.shape[-2]:
        m = require_square(m, what)
    if not np.all(is_hermitian(m, tol)):
        raise NonHermitianError(f"{what} is not finite and Hermitian within {tol:g}")
    return m


def _hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(M + M^dag) / 2 of one matrix M that ``require_hermitian`` accepts."""
    m = require_hermitian(require_square(m, what), what=what)
    return 0.5 * (m + m.conj().T)


def hermitian_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with residual verification.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    eigenvector columns ``v``.  The reconstruction ``v @ diag(w) @ v^dag``
    is checked against the (symmetrized) input to guard against silent
    LAPACK failures.
    """
    sym = _hermitian_part(m, "matrix")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    res = max_abs((v * w) @ v.conj().T - sym)
    if not res <= EIG_RECONSTRUCTION_TOL * (1.0 + max_abs(sym)):
        raise ConvergenceError(
            f"eigendecomposition reconstruction residual {res:.3e} too large"
        )
    return w, v


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness check with witness.

    Returns ``(verdict, lambda_min)``; the verdict is true iff
    ``lambda_min >= -tol * (1 + max|M|)``.  The witness (the smallest
    eigenvalue) is returned either way.
    """
    sym = _hermitian_part(m, "PSD candidate")
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    lam_min = float(w[0]) if w.size else 0.0
    return lam_min >= -tol * (1.0 + max_abs(sym)), lam_min


def _taylor(apply, v, degree: int, scale: float):
    """sum_{k <= degree} (scale A)^k v / k! for A = ``apply``, stopped once two
    consecutive terms together fall below unit roundoff relative to the
    partial sum (max-entry norms, Al-Mohy & Higham's test).  ``apply``
    must return a fresh array: the term is scaled in place.

    The partial sum's norm, one more reduction, is read only once the two
    terms fall below 2 u times the sum of all terms' norms so far: that sum
    bounds the partial sum's norm (the factor 2 spares the rounding of
    both sums), so until then the test cannot pass.
    """
    total = term = v
    previous = bound = np.abs(v).max(initial=0.0)
    for k in range(1, degree + 1):
        term = apply(term)
        term *= scale / k
        total = total + term
        size = np.abs(term).max(initial=0.0)
        bound += size
        if previous + size <= 2.0 * UNIT_ROUNDOFF * bound and (
            previous + size <= UNIT_ROUNDOFF * np.abs(total).max(initial=0.0)
        ):
            break
        previous = size
    return total


@functools.lru_cache(maxsize=16)
def _taylor_plan(norm: float) -> tuple[int, int]:
    """The pair (s, m) of ``TAYLOR_THETA`` with the fewest applications of A
    (m s) such that norm / s <= theta_m; cached, as evolutions repeat a norm."""
    return min(
        ((math.ceil(norm / theta), m) for m, theta in TAYLOR_THETA.items()),
        key=lambda plan: plan[0] * plan[1],
    )


def expmv(apply: Callable[[np.ndarray], np.ndarray], v: np.ndarray, norm: float) -> np.ndarray:
    """exp(A) v for the linear map A = ``apply`` (which returns a fresh
    array) with ||A||_1 <= ``norm``.

    Takes s substeps of the degree-m Taylor series, (s, m) from
    ``_taylor_plan``.  A zero ``norm`` takes no substep and returns ``v``
    itself; a non-finite one raises ``NonFiniteStateError``.
    """
    if not math.isfinite(norm):
        raise NonFiniteStateError(f"non-finite norm bound {norm} of the map to exponentiate")
    substeps, degree = _taylor_plan(norm)
    for _ in range(substeps):
        v = _taylor(apply, v, degree, 1.0 / substeps)
    return v


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix, or of each matrix of a stack ``(..., d, d)``.

    Scaling and squaring of the Taylor series: the stack is scaled by 2^-s
    until its largest 1-norm is at most theta_20, so the degree-20 series
    (stopped early once converged) meets unit roundoff, and the result is
    squared s times.  Bounding the norm by theta_20 rather than by a larger
    theta keeps the series' terms from growing before they decay.  A zero
    matrix maps to the identity exactly; a non-finite entry raises
    ``NonFiniteStateError``.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise NonFiniteStateError("non-finite matrix to exponentiate")
    squarings = max(0, math.ceil(math.log2(norm / TAYLOR_THETA[20]))) if norm else 0
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    x = _taylor(lambda y: a @ y, eye, 20, 0.5 ** squarings)
    for _ in range(squarings):
        x = x @ x
    return x


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
    what = f"function value at t={t} +/- {h}"
    return (require_finite(fp, what) - require_finite(fm, what)) / (2.0 * h)


def _su11_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] of su(1,1) elements stored as real (a, p, q) for
    [[i a, p + i q], [p - i q, -i a]] along the first axis."""
    return np.stack([
        2.0 * (x[2] * y[1] - x[1] * y[2]),
        2.0 * (y[0] * x[2] - x[0] * y[2]),
        2.0 * (x[0] * y[1] - y[0] * x[1]),
    ])


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of SU(1,1) elements stored as their first rows ``(2, ...)``:
    (u1, v1) (u2, v2) = (u1 u2 + v1 conj(v2), u1 v2 + v1 conj(u2)),
    broadcasting over the trailing axes of arrays of equal rank."""
    return x[0] * y + x[1] * y[::-1].conj()


def _omega6(g0, g1, g2, bracket):
    """The sixth-order Magnus exponent of one step (Blanes, Casas & Ros) from
    h A at the step's three Gauss nodes, with ``bracket`` the commutator."""
    a1 = g1
    a2 = math.sqrt(15.0) / 3.0 * (g2 - g0)
    a3 = 10.0 / 3.0 * (g2 - 2.0 * g1 + g0)
    c1 = bracket(a1, a2)
    c2 = bracket(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def magnus_steps(generator, t0: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order Magnus maps of the steps [t0, t0 + h] and the Gauss
    quadrature of the rate over each (1-D arrays of steps).

    ``generator(t)`` returns real ``(a, p, q, rate)`` shaped like ``t``: the
    generator A(t) = [[i a, p + i q], [p - i q, -i a]] in su(1,1) and a
    scalar rate.  Returns the maps [[u, v], [conj(v), conj(u)]] in SU(1,1)
    as their rows (u, v), shape ``(2, steps)``, and the integrals of the
    rate.  A step of length 0 maps by the identity exactly.
    """
    a, p, q, rate = generator(t0 + h * GAUSS_NODES[:, None])
    g = np.stack([a, p, q]) * h  # (coordinate, node, step)
    a, p, q = _omega6(g[:, 0], g[:, 1], g[:, 2], _su11_bracket)
    # exp(W) = C I + S W, as W^2 = r2 I: (cosh r, sinh(r)/r) for r2 = r^2 > 0,
    # (cos r, sin(r)/r) for r2 = -r^2 < 0, and their common series in r2
    # where r/r is 0/0
    r2 = p * p + q * q - a * a
    r = np.sqrt(np.abs(r2))
    c, s = np.cos(r), np.sin(r)
    hyperbolic = r2 > 0.0
    c[hyperbolic], s[hyperbolic] = np.cosh(r[hyperbolic]), np.sinh(r[hyperbolic])
    small = np.abs(r2) < 1e-8
    s /= np.where(small, 1.0, r)
    x = r2[small]
    c[small], s[small] = 1.0 + x / 2.0 + x * x / 24.0, 1.0 + x / 6.0 + x * x / 120.0
    maps = np.empty((2,) + r2.shape, dtype=complex)
    maps[0].real, maps[0].imag = c, a * s
    maps[1].real, maps[1].imag = p * s, q * s
    return maps, h * (GAUSS_WEIGHTS @ rate)


def _prefix_products(maps: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """E_j ... E_0 u0 for every j, shape ``(2, n)``, in place of the step
    maps E_j ``(2, n)``.

    A work-efficient scan (Brent-Kung) over strided views of the chunk:
    the up-sweep leaves at each index i = k 2d - 1 the product of the 2d
    maps ending there, for d = 1, 2, 4, ...; the down-sweep then completes
    the indices in between from the nearest complete product before them.
    About 2n products in 2 log2(n) passes.
    """
    maps[:, 0] = _matmul(maps[:, 0], u0)
    n = maps.shape[-1]
    d = 1
    while 2 * d <= n:
        ends = maps[:, 2 * d - 1::2 * d]
        ends[:] = _matmul(ends, maps[:, d - 1::2 * d][:, :ends.shape[-1]])
        d *= 2
    while d > 1:
        d //= 2
        inner = maps[:, 3 * d - 1::2 * d]
        inner[:] = _matmul(inner, maps[:, 2 * d - 1::2 * d][:, :inner.shape[-1]])
    return maps


def propagate_magnus(generator, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fundamental matrix U (U = I at ``nodes[0]``) as its rows (u, v),
    shape ``(2, nodes)``, and the running integral of the rate at every node
    of an ascending grid, one Magnus step per interval."""
    n = nodes.size - 1
    u = np.empty((2, n + 1), dtype=complex)
    u[:, 0] = 1.0, 0.0
    integral = np.zeros(n + 1)
    for k0 in range(0, n, MAGNUS_CHUNK):
        k1 = min(k0 + MAGNUS_CHUNK, n)
        maps, integral[k0 + 1:k1 + 1] = magnus_steps(
            generator, nodes[k0:k1], nodes[k0 + 1:k1 + 1] - nodes[k0:k1]
        )
        u[:, k0 + 1:k1 + 1] = _prefix_products(maps, u[:, k0])
    require_finite(u, "state in Magnus propagation")
    np.cumsum(integral, out=integral)
    return u, integral


def _grid(breakpoints: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Nodes with ``counts[i]`` uniform steps from ``breakpoints[i]`` to the next."""
    pieces = [np.linspace(t0, t1, m + 1)[:-1]
              for t0, t1, m in zip(breakpoints[:-1], breakpoints[1:], counts)]
    return np.concatenate(pieces + [breakpoints[-1:]])


def _doubling_error(fine, coarse, rtol, atol) -> tuple[float, bool]:
    """Compare two grids' arrays at the nodes they share (the last axis runs
    over nodes; the fine grid halves every step), in chunks so the temporaries
    stay small.  Returns the largest estimate |fine - coarse| / 63 and whether
    each one meets ``atol + rtol |fine|``."""
    worst, ok = 0.0, True
    for i in range(0, coarse.shape[-1], MAGNUS_CHUNK):
        f = fine[..., 2 * i:2 * (i + MAGNUS_CHUNK):2]
        err = np.abs(f - coarse[..., i:i + MAGNUS_CHUNK]) / 63.0
        worst = max(worst, float(err.max()))
        ok = ok and bool(np.all(err <= atol + rtol * np.abs(f)))
    return worst, ok


class MagnusSolution:
    """Fundamental matrix rows (u, v) and rate integral on a node grid, with
    dense output.

    ``grids`` are the step counts the step doubling propagated, in order;
    the last is ``steps``."""

    def __init__(self, generator, nodes, u, integral, error_estimate, grids):
        self._generator = generator
        self.nodes = nodes
        self.u = u
        self.integral = integral
        self.error_estimate = float(error_estimate)
        self.grids = grids

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """``(U, integral)`` at a time or an array of times (any order); ``U``
        has shape ``(2,) + shape(t)``.  A node is read straight from ``u`` and
        ``integral``; any other time takes one partial Magnus step from the
        node before it (a step of length 0 would map by the identity, so the
        values are the same).  Every time must lie in the span."""
        times = _clip_to_span(t, self.nodes[0], self.nodes[-1])
        flat = times.ravel()
        k = np.searchsorted(self.nodes, flat, side="right") - 1
        start = self.nodes[k]
        u, integral = self.u[:, k], self.integral[k]
        inside = np.flatnonzero(flat != start)
        for i in range(0, inside.size, MAGNUS_CHUNK):
            chunk = inside[i:i + MAGNUS_CHUNK]
            maps, increments = magnus_steps(
                self._generator, start[chunk], flat[chunk] - start[chunk]
            )
            u[:, chunk] = _matmul(maps, u[:, chunk])
            integral[chunk] += increments
        return u.reshape((2,) + times.shape), integral.reshape(times.shape)[()]


def _refine(propagate, breakpoints, initial_step: float, rtol: float, atol: float,
            first_steps: int = 1, accept=lambda fine, coarse: True):
    """Step doubling shared by the Magnus solvers.  ``propagate(nodes)``
    returns a tuple of arrays whose last axis runs over the nodes; the grid
    is uniform between ``breakpoints`` (ascending; each one is a node).

    Starting from steps of about ``initial_step``, doubled until the grid
    holds at least ``first_steps`` steps, the step count doubles until the
    Richardson estimate |X_2N - X_N| / 63 of the global error meets
    ``atol + rtol |X|`` for every entry X of every array at every node the
    two grids share and ``accept(fine, coarse)`` passes the pair (each grid
    as ``(nodes, arrays)``; a pair it turns down fails like any other);
    returns the finer grid and its arrays, the largest estimate and the step
    counts propagated, in order.  Raises ``ConvergenceError`` before it
    propagates any grid, the first one included, of more than
    ``MAGNUS_MAX_STEPS`` steps, or as soon as two consecutive pairs each cut
    the estimate by less than half (in the asymptotic range each doubling
    cuts it by about 64): the tolerance then lies below the roundoff floor
    of the propagation.
    """
    breaks = np.asarray(breakpoints, dtype=float)
    # float counts until a grid is built: a step far below the span stays a
    # large count instead of wrapping round as an int
    counts = np.maximum(1.0, np.ceil(np.diff(breaks) / initial_step))
    while counts.sum() < first_steps:
        counts = 2 * counts
    grids, estimates, coarse = [], [], None
    while True:
        if counts.sum() > MAGNUS_MAX_STEPS:
            raise ConvergenceError(
                f"Magnus propagation not within rtol={rtol:g}, atol={atol:g} "
                f"at {MAGNUS_MAX_STEPS} steps: the {'next' if grids else 'first'} grid "
                f"holds {counts.sum():.7g} steps"
            )
        nodes = _grid(breaks, counts.astype(int))
        values = propagate(nodes)
        grids.append(nodes.size - 1)
        if coarse is not None:
            worst, ok = zip(*(_doubling_error(f, c, rtol, atol)
                              for f, c in zip(values, coarse[1])))
            estimates.append(max(worst))
            if all(ok) and accept((nodes, values), coarse):
                return (nodes, values), estimates[-1], tuple(grids)
            if len(estimates) >= 3 and all(
                2.0 * b > a for a, b in zip(estimates[-3:], estimates[-2:])
            ):
                raise ConvergenceError(
                    f"Magnus propagation stalled at the roundoff floor: error estimate "
                    f"{estimates[-1]:.3g} not within rtol={rtol:g}, atol={atol:g} "
                    f"at {nodes.size - 1} steps"
                )
        coarse = nodes, values
        counts = 2 * counts


def _check_tolerances(rtol: float, atol: float) -> None:
    if rtol <= 0 or atol <= 0:
        raise DimensionMismatchError("tolerances must be positive")


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

    The step count doubles from steps of about ``initial_step``, or from
    the first of their doublings that holds ``FIRST_GRID_STEPS`` steps,
    until the error estimate of u, v and the integral meets ``atol + rtol
    |X|`` (``_refine``); the finer solution is kept.
    """
    _check_tolerances(rtol, atol)
    (nodes, values), estimate, grids = _refine(
        lambda grid: propagate_magnus(generator, grid), breakpoints, initial_step, rtol, atol,
        FIRST_GRID_STEPS,
    )
    return MagnusSolution(generator, nodes, *values, estimate, grids)


class FloquetSolution:
    """Dense output over [0, ``end``] of dU/dt = A(t) U, U(0) = I, for a
    generator of period P, composed from ``period``, a ``MagnusSolution`` over
    [0, P]: with the monodromy M = U(P),

        U(k P + r) = U(r) M^k,    I(k P + r) = I(r) + k I(P)

    for the rate integral I, at k = min(floor(t / P), K) (``periods``), K =
    floor(end / P) the whole periods in the span, and r = t - k P clipped to
    [0, P].  ``powers`` holds the rows of M^k for k = 0..K, the running
    products of K copies of M (``_prefix_products``).  ``steps``, ``nodes``,
    ``grids`` and ``error_estimate`` are the period's (``solve_floquet``
    gives its period the estimate of the composed values)."""

    def __init__(self, period: MagnusSolution, end: float):
        self.period = period
        self.nodes = period.nodes
        self.end = float(end)
        self.cycles = int(self.end // self.nodes[-1])
        self.error_estimate = period.error_estimate
        self.grids = period.grids
        self.powers = np.empty((2, self.cycles + 1), dtype=complex)
        self.powers[:, 0] = 1.0, 0.0
        self.powers[:, 1:] = period.u[:, -1:]
        _prefix_products(self.powers[:, 1:], self.powers[:, 0])

    @property
    def steps(self) -> int:
        return self.period.steps

    def periods(self, times: np.ndarray) -> np.ndarray:
        """k = min(floor(t / P), K) at each of the ``times`` in the span."""
        return np.minimum((times / self.nodes[-1]).astype(int), self.cycles)

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """``(U, integral)`` at a time or an array of times in [0, ``end``], as
        ``MagnusSolution.at``."""
        times = _clip_to_span(t, 0.0, self.end)
        k = self.periods(times)
        length = self.nodes[-1]
        u, integral = self.period.at(np.clip(times - k * length, 0.0, length))
        return _matmul(u, self.powers[:, k]), integral + k * self.period.integral[-1]


def solve_floquet(
    generator,
    period: float,
    end: float,
    initial_step: float,
    times: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[FloquetSolution, tuple[np.ndarray, np.ndarray]]:
    """Propagate dU/dt = A(t) U, U(0) = I, and the rate integral over [0,
    ``end``] for a generator of period ``period``, from one period: returns
    the ``FloquetSolution`` and its ``at(times)`` at the ascending ``times``.

    The error of M^k grows about linearly in k, so the period is solved by
    the step doubling of ``_refine`` at rtol / K and atol / K, K the whole
    periods in the span, from steps of about ``initial_step`` / K^(1/6), the
    sixth-order error law's step for a tolerance K times tighter.  A pair
    whose period nodes pass is accepted only if its composed values pass
    too: both solutions of the pair are composed, into M^k for k = 0..K and
    into U and the integral at ``times``.  The estimate of each composed
    entry X of U is the larger of the step-doubling estimate |fine - coarse|
    / 63 and its roundoff, (k + 1) d |X| for the k + 1 factors of U(r) M^k,
    each carrying the period's relative roundoff d, the largest CCR defect
    ||u|^2 - |v|^2 - 1| / (|u|^2 + |v|^2) on the period's nodes; that of the
    integral is its step-doubling estimate.  Every estimate must meet ``atol
    + rtol |X|``.  Where only the step-doubling estimate misses, the pair
    fails like any other and the period's grid refines on from it; where
    the roundoff misses, no finer period helps, and ``ConvergenceError`` is
    raised, as where the period's step doubling raises it.
    ``error_estimate`` is the largest composed estimate and ``grids`` the
    period's step counts, in order.
    """
    _check_tolerances(rtol, atol)
    cycles = float(end // period)
    composed = {}

    def composed_check(*pair):
        solution, coarse_solution = (FloquetSolution(MagnusSolution(
            generator, nodes, *values, 0.0, ()), end) for nodes, values in pair)
        fine, coarse = ((sol.powers, *sol.at(times)) for sol in (solution, coarse_solution))
        u, v = np.abs(solution.period.u) ** 2
        defect = float(np.max(np.abs(u - v - 1.0) / (u + v)))
        factors = (np.arange(1, solution.cycles + 2), solution.periods(times) + 1)
        roundoff = [k * defect * np.abs(x) for k, x in zip(factors, fine)] + [0.0]
        limits = [atol + rtol * np.abs(x) for x in fine]
        if not all(np.all(r <= limit) for r, limit in zip(roundoff, limits)):
            raise ConvergenceError(
                f"Floquet composition over {solution.cycles} periods not within "
                f"rtol={rtol:g}, atol={atol:g}: roundoff {defect:.3g} per period"
            )
        estimates = [np.maximum(np.abs(f - c) / 63.0, r)
                     for f, c, r in zip(fine, coarse, roundoff)]
        composed.update(estimate=max(float(np.max(e)) for e in estimates), values=fine[1:])
        return all(np.all(e <= limit) for e, limit in zip(estimates, limits))

    (nodes, values), _, grids = _refine(
        lambda grid: propagate_magnus(generator, grid), [0.0, period],
        initial_step / cycles ** (1.0 / 6.0), rtol / cycles, atol / cycles,
        FIRST_GRID_STEPS, composed_check,
    )
    solution = MagnusSolution(generator, nodes, *values, composed["estimate"], grids)
    return FloquetSolution(solution, end), composed["values"]


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _chain(maps: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y, E_0 y, E_1 E_0 y, ... for the stack of maps E_k: ``(len(maps) + 1, dim)``."""
    out = np.empty((len(maps) + 1, y.size), dtype=complex)
    out[0] = y
    for k, e in enumerate(maps):
        out[k + 1] = e @ out[k]
    return require_finite(out, "state in linear propagation")


def _propagate_linear(generator, nodes: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """y at every node of an ascending grid, shape ``(dim, nodes)``, by one
    sixth-order Magnus step per interval, each exponentiated by ``expm``."""
    pieces = [y0[None]]
    n = nodes.size - 1
    for k0 in range(0, n, MAGNUS_CHUNK):
        k1 = min(k0 + MAGNUS_CHUNK, n)
        t0, h = nodes[k0:k1], nodes[k0 + 1:k1 + 1] - nodes[k0:k1]
        g = generator((t0 + h * GAUSS_NODES[:, None]).ravel())
        g = g.reshape((3, h.size) + g.shape[-2:]) * h[:, None, None]
        pieces.append(_chain(expm(_omega6(g[0], g[1], g[2], _commutator)), pieces[-1][-1])[1:])
    return np.concatenate(pieces).T


def solve_linear(
    generator,
    y0: np.ndarray,
    times: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """States of dy/dt = A(t) y with y(times[0]) = y0 at ascending ``times``,
    shape ``(len(times), dim)``.

    ``generator`` is either a constant ``(dim, dim)`` array, propagated by
    one exact ``expm`` per interval (the tolerances are then unused), or a
    callable taking a 1-D array of times and returning the stack of A at
    them, ``(times, dim, dim)``.  The callable form takes sixth-order
    Magnus steps on a grid that has every sample time as a node, from steps
    of about 1 / max ||A(t)||_1 over the sample times, with the step
    doubling of ``_refine`` on every component of y.
    """
    _check_tolerances(rtol, atol)
    times = np.asarray(times, dtype=float)
    y0 = np.asarray(y0, dtype=complex)
    if np.any(np.diff(times) < 0):
        raise DimensionMismatchError("sample times must be ascending")
    if not callable(generator):
        return _chain(expm(np.asarray(generator) * np.diff(times)[:, None, None]), y0)
    norm = float(np.abs(generator(times)).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise NonFiniteStateError("non-finite generator at the sample times")
    (nodes, (y,)), _, _ = _refine(
        lambda grid: (_propagate_linear(generator, grid, y0),),
        times, 1.0 / norm if norm > 0 else math.inf, rtol, atol,
    )
    return y[:, np.searchsorted(nodes, times)].T
