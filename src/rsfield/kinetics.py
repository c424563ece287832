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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    DimensionMismatchError,
    InvalidMomentsError,
    NonFiniteStateError,
    NonHermitianError,
    NotClassicalClosedError,
    PhysicalityLostError,
    SingularMatrixError,
)
from .numerics import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    central_difference,
    hermiticity_residual,
    is_psd,
    matrix_max,
    max_abs,
    solve_linear,
)
from .rsf import ReducedField

HBAR = 1.0
UNITARY_TOL = 1e-10
PASSIVE_UNITARY_TOL = 1e-8  # |X_up X_up^dag - 1| of a family for extract_closed_generator
ETA_SUM_TOL = 1e-10
CONDITION_LIMIT = 1e12  # on kappa_1 = ||X||_1 ||X^-1||_1 of a matrix to invert
DEFAULT_FD_STEP = 1e-6
DRIFT_PSD_TOL = 1e-6


def _as_matrix(a, what: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got {m.shape}")
    return m


def _require_hermitian_generators(**generators) -> None:
    """Hermiticity of each named matrix, one or a stack, to 1e-9 (1 + its max
    entry); ``not residual <= limit`` also rejects a NaN, and an infinity,
    whose residual inf - inf is NaN."""
    for name, m in generators.items():
        with np.errstate(invalid="ignore"):
            residual = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
        if not np.all(residual <= 1e-9 * (1.0 + np.abs(m).max(axis=(-2, -1), initial=0.0))):
            raise NonHermitianError(f"{name} is not Hermitian")


@dataclass(frozen=True, eq=False)
class KineticGenerators:
    """Generator set (h, zeta, gamma_up, gamma_down, scatterers).

    Hermiticity of h and the rates, unitarity of the scatterers and the
    eta-sum rule are enforced at construction.  Positivity of the rates
    is *not*: extracted generators may legitimately fail it, and
    ``psd_witnesses`` / ``validity_report`` expose the verdict.
    """

    h: np.ndarray
    zeta: np.ndarray
    gamma_up: np.ndarray
    gamma_down: np.ndarray
    scatterers: tuple = ()

    def __post_init__(self):
        h = _as_matrix(self.h, "h")
        n = h.shape[0]
        zeta = np.asarray(self.zeta, dtype=complex).ravel()
        gu = _as_matrix(self.gamma_up, "gamma_up")
        gd = _as_matrix(self.gamma_down, "gamma_down")
        if zeta.size != n or gu.shape != (n, n) or gd.shape != (n, n):
            raise DimensionMismatchError("generator dimensions differ")
        _require_hermitian_generators(h=h, gamma_up=gu, gamma_down=gd)
        scat = []
        for eta_j, u_j in self.scatterers:
            u_j = _as_matrix(u_j, "scatterer")
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

    def psd_witnesses(self) -> tuple[float, float]:
        """Smallest eigenvalues of (gamma_up, gamma_down)."""
        _, w_up = is_psd(self.gamma_up, 0.0)
        _, w_dn = is_psd(self.gamma_down, 0.0)
        return w_up, w_dn


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


def integrate_kinetics(
    rf0: ReducedField,
    gen,
    t_span: tuple[float, float],
    sample_times: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[ReducedField]:
    """Integrate the kinetic equations; returns snapshots at sample times.

    The equations are linear in y = (r, alpha, conj(alpha), 1)
    (``_kinetic_matrix``) and are propagated by ``numerics.solve_linear``.
    ``gen`` is either a constant ``KineticGenerators``, propagated by one
    exact matrix exponential per sample interval, or a callable that takes
    a 1-D array of times and returns the generators there as stacks
    ``(h, zeta, gamma_up, gamma_down)``, shaped ``(times, n, n)``,
    ``(times, n)``, ``(times, n, n)`` and ``(times, n, n)`` (no
    scatterers), propagated by sixth-order Magnus steps whose global error
    ``rtol``/``atol`` bound.  Each snapshot is re-validated; positivity
    loss beyond the drift tolerance raises ``PhysicalityLostError`` with
    the offending time.
    """
    n = rf0.n_modes
    times = np.asarray(sample_times, dtype=float)
    t0, t1 = t_span
    if np.any(times < t0) or np.any(times > t1):
        raise DimensionMismatchError(f"sample times outside integrated span {t_span}")
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
    y0 = np.concatenate([rf0.r.ravel(), rf0.alpha, rf0.alpha.conj(), [1.0]])
    snapshots = solve_linear(matrices, y0, np.append(t0, times), rtol=rtol, atol=atol)[1:]
    out = []
    for t, y in zip(times, snapshots):
        r = y[: n * n].reshape(n, n)
        alpha = y[n * n:n * n + n]
        herm = hermiticity_residual(r)
        if herm > 1e-9 * (1.0 + max_abs(r)):
            raise PhysicalityLostError("Hermiticity lost", herm, float(t))
        r = 0.5 * (r + r.conj().T)
        try:
            out.append(ReducedField(r, alpha, psd_tol=DRIFT_PSD_TOL))
        except Exception as exc:
            _, witness = is_psd(r, 0.0)
            raise PhysicalityLostError(f"positivity lost: {exc}", witness, float(t))
    return out


def _finite(m, what):
    """``m``, once every entry is checked finite: a NaN or an infinity in a
    family would otherwise reach numpy's linear algebra or pass as NaN rates."""
    if not np.all(np.isfinite(m)):
        raise NonFiniteStateError(f"{what} has non-finite entries")
    return m


def _derivative(family, t, analytic, fd_step, what):
    if analytic is not None:
        d = np.asarray(analytic(t), dtype=complex)
    else:
        d = central_difference(family, t, fd_step)
    return _finite(np.atleast_2d(d), f"d{what}/dt")


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
        inverse = np.linalg.inv(_finite(x, what))
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
    fd_step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Hamiltonian of a smooth passive family: h = (i/2)(Y - Y^dag).

    ``x_up`` must evaluate to a unitary matrix near ``t`` (checked to
    ``PASSIVE_UNITARY_TOL``); the derivative is taken from ``dx_up`` when
    supplied, otherwise by central differences with step ``fd_step``.
    """
    x = _finite(_as_matrix(x_up(t), "X_up"), "X_up")
    n = x.shape[0]
    if max_abs(x @ x.conj().T - np.eye(n)) > PASSIVE_UNITARY_TOL:
        raise NotClassicalClosedError(
            "family is not passive: X_up is not unitary at the requested time"
        )
    y = _derivative(x_up, t, dx_up, fd_step, "X_up") @ _checked_inverse(x, "X_up")
    h = 0.5j * (y - y.conj().T) * HBAR
    return h


def extract_open_generators(
    x_up_s: Callable[[float], np.ndarray],
    x_down_c: Callable[[float], np.ndarray],
    t: float,
    dx_up_s: Callable[[float], np.ndarray] | None = None,
    dx_down_c: Callable[[float], np.ndarray] | None = None,
    fd_step: float = DEFAULT_FD_STEP,
) -> KineticGenerators:
    """Generators (h, gamma_up, gamma_down) of a vacuum-environment family.

    Implements the correspondence documented in the module docstring.
    Positivity of the extracted rates is reported by the caller via
    ``psd_witnesses`` or ``validity_report``, never silently enforced.
    """
    xs = _as_matrix(x_up_s(t), "X_up_S")
    xc = _finite(_as_matrix(x_down_c(t), "X_down_C"), "X_down_C")
    if xs.shape[0] != xc.shape[0]:
        raise DimensionMismatchError("X_up_S / X_down_C row counts differ")
    dxs = _derivative(x_up_s, t, dx_up_s, fd_step, "X_up_S")
    dxc = _derivative(x_down_c, t, dx_down_c, fd_step, "X_down_C")
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
    h = -0.5 * HBAR * (-1j * (y - y_dag))
    gamma_down = w - (y + y_dag)
    _require_hermitian_generators(h=h, gamma_up=w, gamma_down=gamma_down)
    return h, w, gamma_down


@dataclass(frozen=True, eq=False)
class ValidityReport:
    """Per-time positivity scan of the rates along a trajectory."""

    times: np.ndarray
    gamma_up_min_eig: np.ndarray
    gamma_down_min_eig: np.ndarray
    valid: np.ndarray
    all_valid: bool
    worst_time: float
    worst_witness: float


def validity_report(
    times, gamma_up: np.ndarray, gamma_down: np.ndarray, tol: float = 1e-10, floor=0.0
) -> ValidityReport:
    """Scan rates sampled at strictly ascending ``times`` against the positivity
    conditions.  Each rate is a ``(samples, n, n)`` stack of Hermitian matrices
    (checked); a sample is valid iff the smallest eigenvalue of each rate is at
    least ``-max(tol (1 + max|gamma_up| + max|gamma_down|), floor)`` at that
    sample.  ``floor`` (a scalar or one value per sample) is the absolute
    roundoff the rates carry, for rates extracted from large amplitudes."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size == len(gamma_up) == len(gamma_down):
        raise DimensionMismatchError("times/generators lengths differ")
    if np.any(np.diff(times) <= 0):
        raise DimensionMismatchError("times must be strictly ascending")
    _require_hermitian_generators(gamma_up=gamma_up, gamma_down=gamma_down)
    up = np.linalg.eigvalsh(gamma_up)[:, 0]
    dn = np.linalg.eigvalsh(gamma_down)[:, 0]
    scale = 1.0 + matrix_max(np.abs(gamma_up)) + matrix_max(np.abs(gamma_down))
    limit = np.maximum(tol * scale, floor)
    valid = (up >= -limit) & (dn >= -limit)
    witness = np.minimum(up, dn)
    worst = int(np.argmin(witness)) if witness.size else 0
    return ValidityReport(
        times=times,
        gamma_up_min_eig=up,
        gamma_down_min_eig=dn,
        valid=valid,
        all_valid=bool(np.all(valid)),
        worst_time=float(times[worst]) if witness.size else float("nan"),
        worst_witness=float(witness[worst]) if witness.size else 0.0,
    )
