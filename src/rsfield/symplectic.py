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
still carries its factors' roundoff.  The open verdict reads the system's
own rows only (``system_scale``), so a large environment does not widen the
limit of |X_down_S|.  The CLI's invariant gates use the same function, so a
map the library accepts is one the CLI accepts.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotSymplecticError
from .numerics import max_abs

# roundoff in the CCR and map residuals grows with the photon number: measured
# at 6-47 eps (|f_+|^2 + |f_-|^2) and eps max|X|^2, up to n ~ 3e7; the
# extracted gamma_down and gamma_up - gamma_up_extracted follow at about
# 1-1.4 eps (|f_+|^2 + |f_-|^2) omega
ROUNDOFF_FACTOR = 256.0
SYMPLECTIC_TOL = 1e-8  # floor of the symplectic, CCR and helicity residuals
CLASSICAL_TOL = 1e-9  # floor of |X_down| and |X_down_S|


def roundoff_limit(scale, floor):
    """``max(floor, 256 eps scale)``, elementwise over an array of scales.

    256 eps is a power of two, so the scaled term is ``scale`` times 256 eps
    exactly, whatever the order of the products that formed ``scale``."""
    return np.maximum(floor, ROUNDOFF_FACTOR * np.finfo(float).eps * scale)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The metric S = diag(1_N, -1_N)."""
    s = np.ones(2 * n_modes)
    s[n_modes:] = -1.0
    return np.diag(s).astype(complex)


@dataclass(frozen=True, eq=False)
class BlockView:
    """System/environment sub-blocks of the upper and lower blocks."""

    up_s: np.ndarray
    up_c: np.ndarray
    up_cp: np.ndarray
    up_e: np.ndarray
    down_s: np.ndarray
    down_c: np.ndarray
    down_cp: np.ndarray
    down_e: np.ndarray


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
    ``system_scale``, which bounds |X_down_S|, is the same over the system
    rows.  Products and inverses derive both from the map they come from
    (``compose``, ``inverse``), through the private ``_scales``.
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
        if _scales is None:
            _scales = (max_abs(x) ** 2, max_abs(x[:self.n_sys]) ** 2)
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

    def blocks(self) -> BlockView:
        ns = self.n_sys
        up, down = self.x_up, self.x_down
        return BlockView(
            up_s=up[:ns, :ns], up_c=up[:ns, ns:],
            up_cp=up[ns:, :ns], up_e=up[ns:, ns:],
            down_s=down[:ns, :ns], down_c=down[:ns, ns:],
            down_cp=down[ns:, :ns], down_e=down[ns:, ns:],
        )

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
    """``max |X S X^dag - S|`` of each 2N x 2N matrix in a stack ``(..., 2N, 2N)``."""
    s = symplectic_form(x.shape[-1] // 2)
    return np.max(np.abs(x @ s @ np.swapaxes(x, -1, -2).conj() - s), axis=(-2, -1))


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


def classical_mask(x: np.ndarray, n_sys: int) -> np.ndarray:
    """``max |X_down_S| <= roundoff_limit(max |X_sys|^2, CLASSICAL_TOL)`` for
    each matrix in a stack ``(..., 2N, 2N)`` whose first ``n_sys`` modes are
    the system, X_sys being its system rows; ``n_sys = N`` (no environment)
    makes it the closed-system condition on ``max |X_down|``."""
    n = x.shape[-1] // 2
    rows = np.abs(x[..., :n_sys, :])
    down_s = np.max(rows[..., n:n + n_sys], axis=(-2, -1))
    return down_s <= roundoff_limit(np.max(rows, axis=(-2, -1)) ** 2, CLASSICAL_TOL)


def _classical(m: BogoliubovMap, n_sys: int, scale: float) -> bool:
    n = m.n_modes
    return bool(max_abs(m.x[:n_sys, n:n + n_sys]) <= roundoff_limit(scale, CLASSICAL_TOL))


def is_classical_closed(m: BogoliubovMap) -> bool:
    """True iff the map is passive: ``max |X_down|`` within
    ``roundoff_limit(m.scale, CLASSICAL_TOL)``."""
    return _classical(m, m.n_modes, m.scale)


def is_classical_open(m: BogoliubovMap) -> bool:
    """True iff the system sub-block vanishes: ``max |X_down_S|`` within
    ``roundoff_limit(m.system_scale, CLASSICAL_TOL)``, a limit the
    environment's rows do not widen."""
    if m.n_sys < 1:
        raise DimensionMismatchError("open-system classicality needs n_sys >= 1")
    return _classical(m, m.n_sys, m.system_scale)
