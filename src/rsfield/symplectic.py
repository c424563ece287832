"""Bogoliubov transformations as block-structured symplectic matrices.

A linear map of N-mode ladder operators that preserves the canonical
commutation relations is represented by a 2N x 2N complex matrix X acting
on the column (a_1..a_N, a_1^dag..a_N^dag).  CCR preservation is the
symplectic property

    X S X^dag = S,        S = diag(1_N, -1_N),

which also forces the block-conjugation structure

    X = [[X_up,        X_down     ],
         [conj(X_down), conj(X_up)]],

with X_up, X_down of size N x N.  When the N modes split into a system of
``n_sys`` modes followed by an environment of ``n_env`` modes, each block
additionally decomposes into system (S), environment (E) and correlation
(C, C') sub-blocks:

    X_up = [[X_up_S,  X_up_C],          X_down likewise.
            [X_up_Cp, X_up_E]],

Classicality in the reduced-field sense is decided on these blocks: a
closed-system map preserves the reduced degrees of freedom iff
X_down = 0 (it is then passive, i.e. unitary), while an open-system map
with a vacuum environment needs only X_down_S = 0.

In floating point each of these tests compares a residual with one
roundoff limit, ``roundoff_limit(scale, floor) = max(floor, 256 eps scale)``.
The floor is ``SYMPLECTIC_TOL`` for the symplectic and conjugate-block
residuals and ``CLASSICAL_TOL`` for |X_down| and |X_down_S|.  The scale is
what the residual's roundoff grows with: max|X_ij|^2 for a map built from
its entries, which is about the photon number of a squeezer; a product takes
its scale from its factors (``compose``), since a product near the identity
still carries its factors' roundoff.  The classicality verdicts compare
entries, not a product of two of them, so their scale is linear, the entry
scale ``scale / max|X_ij|``: max|X_ij| for a map built from its entries,
and for a product its factors' roundoff, as above, so ``compose(m,
m.inverse())`` stays closed-classical while a squeezer with
|X_down| ~ sqrt(n) is not called passive at any n.  The open verdict reads
the system's own rows only (``system_scale``), so a large environment does
not widen the limit of |X_down_S|.  The verdicts and the CLI read the same
``classicality`` residual and limit and the same scale max|X_ij|^2, so a
map the library accepts is one the CLI accepts.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotSymplecticError
from .numerics import matrix_max, max_abs

# roundoff that grows with a value's size, in units of eps times that size:
# the CCR and map residuals, measured at 6-47 eps (|f_+|^2 + |f_-|^2) and eps
# max|X|^2 up to n ~ 3e7; the extracted gamma_down and gamma_up -
# gamma_up_extracted follow at about 1-1.4 eps (|f_+|^2 + |f_-|^2) omega
ROUNDOFF_FACTOR = 256.0
SYMPLECTIC_TOL = 1e-8  # floor of the symplectic and CCR residuals
CLASSICAL_TOL = 1e-9  # floor of |X_down| and |X_down_S|


def roundoff_limit(scale, floor):
    """``max(floor, 256 eps scale)``, elementwise over an array of scales.

    256 eps is a power of two, so the scaled term is ``scale`` times 256 eps
    exactly, whatever the order of the products that formed ``scale``."""
    return np.maximum(floor, ROUNDOFF_FACTOR * np.finfo(float).eps * scale)


def _metric_diagonal(n_modes: int) -> np.ndarray:
    """The diagonal (1_N, -1_N) of S, real."""
    s = np.ones(2 * n_modes)
    s[n_modes:] = -1.0
    return s


def symplectic_form(n_modes: int) -> np.ndarray:
    """The metric S = diag(1_N, -1_N)."""
    return np.diag(_metric_diagonal(n_modes)).astype(complex)


@dataclass(frozen=True, eq=False)
class BogoliubovMap:
    """A validated symplectic matrix with a fixed system/environment split.

    The partition ``(n_sys, n_env)`` is part of the value: classicality
    verdicts depend on it, so re-partitioning means building a new map.
    The full 2N x 2N matrix is stored even though the lower half is
    redundant; this makes the structural checks direct and the
    generalized-field products cheap.

    The symplectic and conjugate-block residuals must lie within
    ``roundoff_limit(scale, tol)``: ``tol`` is the floor and ``scale`` the
    size of the roundoff.  Each entry of a row carries a roundoff of about
    eps times the row's largest entry, so ``scale`` is max|X_ij|^2 and
    ``system_scale``, from which the limit of |X_down_S| derives, is the
    same over the system rows.  Products and inverses derive both from the
    map they come from (``compose``, ``inverse``), through the private
    ``_scales``.  An entry that is not finite, or whose square overflows,
    raises ``NotSymplecticError``.
    """

    n_sys: int
    n_env: int
    x: np.ndarray
    tol: float = field(default=SYMPLECTIC_TOL, compare=False, repr=False)
    _scales: InitVar[tuple | None] = None
    scale: float = field(init=False, compare=False, repr=False)
    system_scale: float = field(init=False, compare=False, repr=False)

    def __post_init__(self, _scales=None):
        if self.n_sys < 0 or self.n_env < 0 or self.n_modes < 1:
            raise DimensionMismatchError(
                f"invalid partition ({self.n_sys}, {self.n_env})"
            )
        x = np.array(self.x, dtype=complex)
        n = self.n_modes
        if x.shape != (2 * n, 2 * n):
            raise DimensionMismatchError(
                f"matrix shape {x.shape} does not match 2N={2 * n}"
            )
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        # a NaN or infinite entry, or a scale past the float range, fails
        # before the residual's products are formed
        top = max_abs(x)
        if not math.isfinite(top * top):
            raise NotSymplecticError(
                f"largest entry {top:.3e} is not finite or its square overflows", math.inf
            )
        if _scales is None:
            _scales = (top * top, max_abs(x[:self.n_sys]) ** 2)
        object.__setattr__(self, "scale", float(_scales[0]))
        object.__setattr__(self, "system_scale", float(_scales[1]))
        # ``not res <= limit`` also rejects a NaN residual or limit
        limit = float(roundoff_limit(self.scale, self.tol))
        res = self.symplectic_residual()
        if not res <= limit:
            raise NotSymplecticError(f"matrix is not symplectic (limit {limit:.3e})", res)
        conj_res = max(
            max_abs(x[n:, :n] - x[:n, n:].conj()),
            max_abs(x[n:, n:] - x[:n, :n].conj()),
        )
        if not conj_res <= limit:
            raise NotSymplecticError(
                f"lower blocks are not conjugates of the upper blocks (limit {limit:.3e})",
                conj_res,
            )

    @property
    def n_modes(self) -> int:
        return self.n_sys + self.n_env

    @property
    def x_up(self) -> np.ndarray:
        n = self.n_modes
        return self.x[:n, :n]

    @property
    def x_down(self) -> np.ndarray:
        n = self.n_modes
        return self.x[:n, n:]

    def symplectic_residual(self) -> float:
        """Residual ``max |X S X^dag - S|`` of the stored matrix."""
        return float(symplectic_residuals(self.x))

    def inverse(self) -> "BogoliubovMap":
        """Group inverse, computed as S X^dag S (no matrix inversion).

        Its entries are the map's, so it keeps ``scale``; its system rows
        are the map's system columns, whose entries carry the roundoff of
        every row, so ``system_scale`` is their size times scale/max|X|."""
        s = symplectic_form(self.n_modes)
        x = s @ self.x.conj().T @ s
        system = max_abs(x[:self.n_sys]) * self.scale / max_abs(self.x)
        return BogoliubovMap(self.n_sys, self.n_env, x, self.tol, (self.scale, system))


def symplectic_residuals(x: np.ndarray) -> np.ndarray:
    """``max |X S X^dag - S|`` of each 2N x 2N matrix in a stack ``(..., 2N, 2N)``.

    X S only scales the columns of X by +-1, which is exact, so
    ``(X * diag S) @ X^dag`` with diag S subtracted from its diagonal in place
    gives the explicit residuals bit for bit with one matrix product, not two."""
    s = _metric_diagonal(x.shape[-1] // 2)
    r = (x * s) @ np.swapaxes(x, -1, -2).conj()
    diagonal = np.arange(s.size)
    r[..., diagonal, diagonal] -= s
    return matrix_max(np.abs(r))


def assemble(x_up: np.ndarray, x_down: np.ndarray) -> np.ndarray:
    """``[[X_up, X_down], [conj(X_down), conj(X_up)]]``; broadcasts over leading axes."""
    top = np.concatenate([x_up, x_down], axis=-1)
    bottom = np.concatenate([x_down, x_up], axis=-1).conj()
    return np.concatenate([top, bottom], axis=-2)


def identity_map(n_sys: int, n_env: int = 0) -> BogoliubovMap:
    n = n_sys + n_env
    return BogoliubovMap(n_sys, n_env, np.eye(2 * n, dtype=complex))


def from_blocks(
    x_up: np.ndarray,
    x_down: np.ndarray,
    n_sys: int,
    n_env: int = 0,
    tol: float = SYMPLECTIC_TOL,
) -> BogoliubovMap:
    """Assemble ``[[X_up, X_down], [conj(X_down), conj(X_up)]]`` and validate."""
    x_up = np.asarray(x_up, dtype=complex)
    x_down = np.asarray(x_down, dtype=complex)
    n = n_sys + n_env
    if x_up.shape != (n, n) or x_down.shape != (n, n):
        raise DimensionMismatchError(
            f"blocks must be {n}x{n}, got {x_up.shape} and {x_down.shape}"
        )
    return BogoliubovMap(n_sys, n_env, assemble(x_up, x_down), tol)


def compose(a: BogoliubovMap, b: BogoliubovMap) -> BogoliubovMap:
    """Matrix product ``a.x @ b.x`` (apply b first), re-validated.

    The product's roundoff follows its factors, not its own entries: an
    entry of A carries an error of about ``s_A / max|A|``, which B spreads
    by ``max|B|`` (and likewise for B), and the residuals multiply that by
    ``max|AB|``.  So ``compose(m, m.inverse())`` is the identity with a scale
    of about 2 max|X|^2, not 1.  The system rows of AB are A's system rows
    times B, which reach every row of B: ``system_scale`` takes A's system
    rows and all of B.  The floor is the larger of the factors' floors."""
    if (a.n_sys, a.n_env) != (b.n_sys, b.n_env):
        raise DimensionMismatchError(
            f"partition mismatch: ({a.n_sys},{a.n_env}) vs ({b.n_sys},{b.n_env})"
        )
    x = a.x @ b.x
    size_a, size_b = max_abs(a.x), max_abs(b.x)
    scale = max_abs(x) * (a.scale / size_a * size_b + size_a * b.scale / size_b)
    system = 0.0
    if a.n_sys:
        rows_a = max_abs(a.x[:a.n_sys])
        system = max_abs(x[:a.n_sys]) * (
            a.system_scale / rows_a * size_b + rows_a * b.scale / size_b
        )
    return BogoliubovMap(a.n_sys, a.n_env, x, max(a.tol, b.tol), (scale, system))


def classicality(x: np.ndarray, n_sys: int, scale=None) -> tuple:
    """``(max |X_down_S|, roundoff_limit(scale, CLASSICAL_TOL))`` of each matrix
    in a stack ``(..., 2N, 2N)`` whose first ``n_sys`` modes are the system,
    classical where the first is within the second; ``n_sys = N`` gives
    ``max |X_down|``.  ``scale`` defaults to ``max |X_sys|``, its system rows'."""
    n = x.shape[-1] // 2
    rows = np.abs(x[..., :n_sys, :])
    if scale is None:
        scale = matrix_max(rows)
    return matrix_max(rows[..., n:n + n_sys]), roundoff_limit(scale, CLASSICAL_TOL)


def is_classical_closed(m: BogoliubovMap) -> bool:
    """True iff the map is passive: ``max |X_down|`` within
    ``roundoff_limit(m.scale / max |X|, CLASSICAL_TOL)``."""
    value, limit = classicality(m.x, m.n_modes, m.scale / max_abs(m.x))
    return bool(value <= limit)


def is_classical_open(m: BogoliubovMap) -> bool:
    """True iff the system sub-block vanishes: ``max |X_down_S|`` within
    ``roundoff_limit(m.system_scale / max |X_S|, CLASSICAL_TOL)``, X_S the
    system rows, a limit the environment's rows do not widen."""
    if m.n_sys < 1:
        raise DimensionMismatchError("open-system classicality needs n_sys >= 1")
    value, limit = classicality(m.x, m.n_sys, m.system_scale / max_abs(m.x[:m.n_sys]))
    return bool(value <= limit)
