"""Reduced kinetic equations and generator extraction from smooth maps.

The reduced field (r, alpha) evolves under

    dr/dt     = -i [h, r] + |zeta><alpha| + |alpha><zeta|
                + (1/2) {gamma_up - gamma_down, r} + gamma_up
                + sum_j eta_j (u_j r u_j^dag - r),
    dalpha/dt = -i h alpha + (1/2)(gamma_up - gamma_down) alpha + zeta
                + sum_j eta_j (u_j - 1) alpha,

in natural units (hbar = 1), with h Hermitian, gamma_up/gamma_down
Hermitian PSD rates, coherent sources zeta and scattering unitaries u_j
whose rates eta_j >= 0 sum to one.  Note the bookkeeping this fixes: the
inhomogeneous (state-independent) term is gamma_up alone, and the
anticommutator carries gamma_up - gamma_down.

``integrate_kinetics`` takes a validated ``ReducedField`` and generators
and returns the field at every sample time as plain stacks, r
``(samples, n, n)`` and alpha ``(samples, n)``: its Hermiticity and
positivity checks run once over the whole stack, so no value object is
built per sample.

Generator extraction inverts this correspondence for smooth families of
Bogoliubov maps.

Closed system (passive family, X_up unitary):

    h = (i/2) (Y - Y^dag),      Y = dX_up/dt X_up^{-1},

all other generators vanish.

Open system with vacuum environment (X_down_S = 0):

    Y   = dX_up_S/dt X_up_S^{-1},  Y_r = Y + Y^dag,  Y_i = -i (Y - Y^dag),
    D   = X_down_C X_down_C^dag,
    W   = dD/dt - Y D - D Y^dag,

    h = -Y_i / 2,    gamma_up = W,    gamma_down = W - Y_r.

The rate assignment follows from matching the evolution identity
dr/dt = Y r + r Y^dag + W (exact for r(t) = X_up_S r0 X_up_S^dag + D)
against the kinetic equations term by term: the inhomogeneous term is
gamma_up, and the anticommutator coefficient gives
gamma_up - gamma_down = Y_r.  A scalar amplifier family
(X_up_S, X_down_C) = (cosh kt, sinh kt) then yields gamma_up = 2k tanh(kt)
and gamma_down = 0, i.e. a vacuum-pumped amplifier creates but never
destroys particles; the swapped assignment would predict the opposite.

Existence of valid kinetics additionally requires W >= 0 and
W - Y_r >= 0.  Extraction reports these as witnesses instead of
enforcing them: a failed witness is physics (no valid reduced kinetics
there), not a numerical error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    DimensionMismatchError,
    InvalidMomentsError,
    NotClassicalClosedError,
    PhysicalityLostError,
    SingularMatrixError,
)
from .numerics import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    central_difference,
    is_hermitian,
    is_psd,
    matrix_max,
    max_abs,
    require_finite,
    require_hermitian,
    require_square,
    solve_linear,
)
from .rsf import ReducedField

UNITARY_TOL = 1e-10
PASSIVE_UNITARY_TOL = 1e-8  # |X_up X_up^dag - 1| of a family for extract_closed_generator
ETA_SUM_TOL = 1e-10
CONDITION_LIMIT = 1e12  # on kappa_1 = ||X||_1 ||X^-1||_1 of a matrix to invert
DEFAULT_FD_STEP = 1e-6
DRIFT_PSD_TOL = 1e-6
GENERATOR_HERMITIAN_TOL = 1e-9  # of generators and kinetic snapshots
RATE_PSD_TOL = 1e-10  # of the rates validity_report scans


def _require_hermitian_generators(**generators) -> None:
    """``require_hermitian`` of each named matrix or stack at ``GENERATOR_HERMITIAN_TOL``."""
    for name, m in generators.items():
        require_hermitian(m, GENERATOR_HERMITIAN_TOL, name)


@dataclass(frozen=True, eq=False)
class KineticGenerators:
    """Generator set (h, zeta, gamma_up, gamma_down, scatterers).

    Hermiticity of h and the rates, unitarity of the scatterers and the
    eta-sum rule are enforced at construction.  Positivity of the rates
    is *not*: extracted generators may legitimately fail it, and
    ``validity_report`` exposes the verdict.
    """

    h: np.ndarray
    zeta: np.ndarray
    gamma_up: np.ndarray
    gamma_down: np.ndarray
    scatterers: tuple = ()

    def __post_init__(self):
        h = require_square(self.h, "h")
        n = h.shape[0]
        zeta = np.asarray(self.zeta, dtype=complex).ravel()
        gu = require_square(self.gamma_up, "gamma_up")
        gd = require_square(self.gamma_down, "gamma_down")
        if zeta.size != n or gu.shape != (n, n) or gd.shape != (n, n):
            raise DimensionMismatchError("generator dimensions differ")
        _require_hermitian_generators(h=h, gamma_up=gu, gamma_down=gd)
        scat = []
        for eta_j, u_j in self.scatterers:
            u_j = require_square(u_j, "scatterer")
            if u_j.shape != (n, n):
                raise DimensionMismatchError("scatterer dimension differs")
            if not eta_j >= 0:
                raise InvalidMomentsError(f"scattering rate eta={eta_j} is not >= 0")
            if not max_abs(u_j @ u_j.conj().T - np.eye(n)) <= UNITARY_TOL:
                raise InvalidMomentsError("scatterer is not unitary")
            scat.append((float(eta_j), u_j))
        if scat:
            total = sum(eta for eta, _ in scat)
            if not abs(total - 1.0) <= ETA_SUM_TOL:
                raise InvalidMomentsError(f"scattering rates sum to {total}, not 1")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "gamma_up", gu)
        object.__setattr__(self, "gamma_down", gd)
        object.__setattr__(self, "scatterers", tuple(scat))

    @classmethod
    def zeros(cls, n_modes: int) -> "KineticGenerators":
        z = np.zeros((n_modes, n_modes), dtype=complex)
        return cls(z, np.zeros(n_modes, dtype=complex), z, z)

    @property
    def n_modes(self) -> int:
        return self.h.shape[0]


def kinetic_rhs(
    rf: ReducedField, gen: KineticGenerators
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dr/dt, dalpha/dt) of the kinetic equations."""
    if gen.n_modes != rf.n_modes:
        raise DimensionMismatchError(
            f"generators act on {gen.n_modes} modes, field has {rf.n_modes}"
        )
    r, alpha, h, zeta = rf.r, rf.alpha, gen.h, gen.zeta
    diff = gen.gamma_up - gen.gamma_down
    dr = (
        -1j * (h @ r - r @ h)
        + np.outer(zeta, alpha.conj())
        + np.outer(alpha, zeta.conj())
        + 0.5 * (diff @ r + r @ diff)
        + gen.gamma_up
    )
    dalpha = -1j * (h @ alpha) + 0.5 * (diff @ alpha) + zeta
    for eta_j, u_j in gen.scatterers:
        dr = dr + eta_j * (u_j @ r @ u_j.conj().T - r)
        dalpha = dalpha + eta_j * (u_j @ alpha - alpha)
    return dr, dalpha


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker products of matrices, broadcasting over leading axes."""
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


def _kinetic_matrix(h, zeta, gamma_up, gamma_down, scatterers=()) -> np.ndarray:
    """The kinetic equations as one linear map of y = (r, alpha, conj(alpha), 1),
    with r flattened row by row: dy/dt = M y.  The source terms zeta alpha^dag
    and alpha zeta^dag make the equations affine and antilinear in alpha, so
    y carries conj(alpha) and a constant 1.  Broadcasts over leading axes of
    the generators, ``(..., n, n)`` and ``(..., n)``; M is ``(..., d, d)``
    with d = n^2 + 2n + 1.
    """
    n = h.shape[-1]
    eye = np.eye(n)
    # dr/dt = k r + r k^dag + ..., dalpha/dt = k alpha + ... without scatterers
    k = -1j * h + 0.5 * (gamma_up - gamma_down)
    k_rr = _kron(k, eye) + _kron(eye, k.conj())
    for eta_j, u_j in scatterers:
        k = k + eta_j * (u_j - eye)
        k_rr = k_rr + eta_j * (_kron(u_j, u_j.conj()) - np.eye(n * n))
    r, a, ac = slice(0, n * n), slice(n * n, n * n + n), slice(n * n + n, n * n + 2 * n)
    m = np.zeros(h.shape[:-2] + (n * n + 2 * n + 1,) * 2, dtype=complex)
    m[..., r, r] = k_rr
    m[..., r, a] = _kron(eye, zeta.conj()[..., :, None])
    m[..., r, ac] = _kron(zeta[..., :, None], eye)
    m[..., r, -1] = gamma_up.reshape(gamma_up.shape[:-2] + (n * n,))
    m[..., a, a] = k
    m[..., a, -1] = zeta
    m[..., ac, ac] = k.conj()
    m[..., ac, -1] = zeta.conj()
    return m


def _constant_entry(m: np.ndarray) -> float:
    """The constant entry c of y for the constant kinetic matrix ``m``: the
    least power of two above the ratio of the source column's 1-norm to the
    largest 1-norm of the other columns (at most 2^1023), or 1 where that
    ratio is at most 1 or not finite.  Dividing the source column by c and
    carrying c in y solves the same equations, with a column that no longer
    sets the scaling of ``expm``: a large gamma_up would otherwise take as
    many extra squarings, each compounding the roundoff of the rest."""
    norms = np.abs(m).sum(axis=0)
    source, rest = norms[-1], norms[:-1].max()
    if not 0.0 < rest < source:
        return 1.0
    return math.ldexp(1.0, min(math.frexp(source / rest)[1], 1023))


def integrate_kinetics(
    rf0: ReducedField,
    gen,
    t0: float,
    sample_times: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the kinetic equations from ``rf0`` at time ``t0``; returns the
    field ``(r, alpha)`` at the sample times, none before ``t0``, as stacks
    ``(samples, n, n)`` and ``(samples, n)``.

    The equations are linear in y = (r, alpha, conj(alpha), 1)
    (``_kinetic_matrix``) and are propagated by ``numerics.solve_linear``.
    ``gen`` is either a constant ``KineticGenerators``, propagated by one
    exact matrix exponential per sample interval with y's constant entry
    carried as the power of two of ``_constant_entry``, or a callable that
    takes a 1-D array of times and returns the generators there as stacks
    ``(h, zeta, gamma_up, gamma_down)``, shaped ``(times, n, n)``,
    ``(times, n)``, ``(times, n, n)`` and ``(times, n, n)`` (no
    scatterers), propagated by sixth-order Magnus steps whose global error
    ``rtol``/``atol`` bound.  The whole stack is checked at once: each r
    must be Hermitian within ``GENERATOR_HERMITIAN_TOL`` (and is then
    symmetrized) and positive semidefinite within ``DRIFT_PSD_TOL``;
    the first sample that fails either raises ``PhysicalityLostError``
    with its residual or witness and its time.
    """
    n = rf0.n_modes
    times = np.asarray(sample_times, dtype=float)
    if np.any(times < t0):
        raise DimensionMismatchError(f"sample times before the start t0={t0}")
    c = 1.0
    if callable(gen):
        def matrices(t):
            h, zeta, up, down = (np.asarray(x, dtype=complex) for x in gen(t))
            if h.shape != t.shape + (n, n) or zeta.shape != t.shape + (n,) \
                    or up.shape != h.shape or down.shape != h.shape:
                raise DimensionMismatchError("generator/field mode counts differ")
            _require_hermitian_generators(h=h, gamma_up=up, gamma_down=down)
            return _kinetic_matrix(h, zeta, up, down)
    elif gen.n_modes != n:
        raise DimensionMismatchError("generator/field mode counts differ")
    else:
        matrices = _kinetic_matrix(gen.h, gen.zeta, gen.gamma_up, gen.gamma_down, gen.scatterers)
        c = _constant_entry(matrices)
        matrices[:, -1] /= c
    y0 = np.concatenate([rf0.r.ravel(), rf0.alpha, rf0.alpha.conj(), [c]])
    y = solve_linear(matrices, y0, np.append(t0, times), rtol=rtol, atol=atol)[1:]
    r = y[:, : n * n].reshape(-1, n, n)
    hermitian = is_hermitian(r, GENERATOR_HERMITIAN_TOL)
    sym = 0.5 * (r + np.swapaxes(r, -1, -2).conj())
    psd, witness = is_psd(sym, DRIFT_PSD_TOL)
    failed = ~(hermitian & psd)
    if failed.any():
        k = int(np.argmax(failed))
        if not hermitian[k]:
            raise PhysicalityLostError("Hermiticity lost", max_abs(r[k] - r[k].conj().T), times[k])
        raise PhysicalityLostError(f"positivity lost: negative mode occupation (witness "
                                   f"{witness[k]:.3e})", witness[k], times[k])
    return sym, y[:, n * n:n * n + n]


def _derivative(family, t, analytic, what):
    if analytic is not None:
        d = np.asarray(analytic(t), dtype=complex)
    else:
        d = central_difference(family, t, DEFAULT_FD_STEP)
    return require_finite(np.atleast_2d(d), f"d{what}/dt")


def _one_norms(x):
    """The 1-norm ``max_j sum_i |x_ij|`` of each matrix of a stack ``(..., n, n)``."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _checked_inverse(x, what):
    """Inverse of a matrix or of each in a stack; one ill-conditioned matrix fails all.

    The condition number is kappa_1 = ||X||_1 ||X^-1||_1, read from the one
    inverse that is returned, so no SVD is taken; it lies within a factor n
    of kappa_2 for an n x n matrix and equals it for a 1 x 1 one.
    """
    try:
        inverse = np.linalg.inv(require_finite(x, what))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"{what} is singular") from None
    cond = np.max(_one_norms(x) * _one_norms(inverse))
    if not cond <= CONDITION_LIMIT:
        raise SingularMatrixError(f"{what} is numerically singular (cond={cond:.3e})")
    return inverse


def extract_closed_generator(
    x_up: Callable[[float], np.ndarray],
    t: float,
    dx_up: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """Hamiltonian of a smooth passive family: h = (i/2)(Y - Y^dag), the
    open-system h of ``open_generator_arrays`` with X_down_C = 0.

    ``x_up`` must evaluate to a unitary matrix near ``t`` (checked to
    ``PASSIVE_UNITARY_TOL``); the derivative is taken from ``dx_up`` when
    supplied, otherwise by central differences with step ``DEFAULT_FD_STEP``.
    """
    x = require_finite(require_square(x_up(t), "X_up"), "X_up")
    n = x.shape[0]
    if max_abs(x @ x.conj().T - np.eye(n)) > PASSIVE_UNITARY_TOL:
        raise NotClassicalClosedError(
            "family is not passive: X_up is not unitary at the requested time"
        )
    zero = np.zeros_like(x)
    return open_generator_arrays(x, zero, _derivative(x_up, t, dx_up, "X_up"), zero)[0]


def extract_open_generators(
    x_up_s: Callable[[float], np.ndarray],
    x_down_c: Callable[[float], np.ndarray],
    t: float,
    dx_up_s: Callable[[float], np.ndarray] | None = None,
    dx_down_c: Callable[[float], np.ndarray] | None = None,
) -> KineticGenerators:
    """Generators (h, gamma_up, gamma_down) of a vacuum-environment family.

    Implements the correspondence documented in the module docstring; each
    derivative is taken from ``dx_up_s`` / ``dx_down_c`` when supplied,
    otherwise by central differences with step ``DEFAULT_FD_STEP``.
    Positivity of the extracted rates is reported by the caller via
    ``validity_report``, never silently enforced.
    """
    xs = require_square(x_up_s(t), "X_up_S")
    xc = require_finite(require_square(x_down_c(t), "X_down_C"), "X_down_C")
    if xs.shape[0] != xc.shape[0]:
        raise DimensionMismatchError("X_up_S / X_down_C row counts differ")
    dxs = _derivative(x_up_s, t, dx_up_s, "X_up_S")
    dxc = _derivative(x_down_c, t, dx_down_c, "X_down_C")
    if dxs.shape != xs.shape or dxc.shape != xc.shape:
        raise DerivativeUnavailableError("derivative shape mismatch")
    h, gamma_up, gamma_down = open_generator_arrays(xs, xc, dxs, dxc)
    zeta = np.zeros(xs.shape[0], dtype=complex)
    return KineticGenerators(h=h, zeta=zeta, gamma_up=gamma_up, gamma_down=gamma_down)


def open_generator_arrays(xs, xc, dxs, dxc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array core of ``extract_open_generators`` on one matrix or a stack
    ``(..., n, n)`` each; checks Hermiticity once for the whole stack."""
    y = dxs @ _checked_inverse(xs, "X_up_S")
    y_dag = np.swapaxes(y, -1, -2).conj()
    xc_dag = np.swapaxes(xc, -1, -2).conj()
    d = xc @ xc_dag
    dd = dxc @ xc_dag + xc @ np.swapaxes(dxc, -1, -2).conj()
    w = dd - y @ d - d @ y_dag
    w = 0.5 * (w + np.swapaxes(w, -1, -2).conj())
    h = -0.5 * (-1j * (y - y_dag))
    gamma_down = w - (y + y_dag)
    _require_hermitian_generators(h=h, gamma_up=w, gamma_down=gamma_down)
    return h, w, gamma_down


def validity_report(
    gamma_up: np.ndarray, gamma_down: np.ndarray, floor=0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan sampled rates against the positivity conditions: returns the
    smallest eigenvalue of each rate and the verdict at every sample,
    ``(gamma_up_min_eig, gamma_down_min_eig, valid)``.  Each rate is a
    ``(samples, n, n)`` stack of Hermitian matrices (checked), the two of
    equal length; a sample is valid iff the smallest eigenvalue of each rate
    is at least
    ``-max(RATE_PSD_TOL (1 + max|gamma_up| + max|gamma_down|), floor)`` there.
    ``floor`` (a scalar or one value per sample) is the absolute roundoff the
    rates carry, for rates extracted from large amplitudes."""
    if len(gamma_up) != len(gamma_down):
        raise DimensionMismatchError("gamma_up/gamma_down lengths differ")
    _require_hermitian_generators(gamma_up=gamma_up, gamma_down=gamma_down)
    up = np.linalg.eigvalsh(gamma_up)[:, 0]
    dn = np.linalg.eigvalsh(gamma_down)[:, 0]
    scale = 1.0 + matrix_max(np.abs(gamma_up)) + matrix_max(np.abs(gamma_down))
    limit = np.maximum(RATE_PSD_TOL * scale, floor)
    return up, dn, (up >= -limit) & (dn >= -limit)
