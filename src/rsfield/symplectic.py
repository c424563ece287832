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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotSymplecticError
from .numerics import max_abs

SYMPLECTIC_TOL = 1e-8
CLASSICAL_TOL = 1e-9


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
    """

    n_sys: int
    n_env: int
    x: np.ndarray
    tol: float = field(default=SYMPLECTIC_TOL, compare=False, repr=False)

    def __post_init__(self):
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
        res = self.symplectic_residual()
        if res > self.tol:
            raise NotSymplecticError("matrix is not symplectic", res)
        conj_res = max(
            max_abs(x[n:, :n] - x[:n, n:].conj()),
            max_abs(x[n:, n:] - x[:n, :n].conj()),
        )
        if conj_res > self.tol:
            raise NotSymplecticError(
                "lower blocks are not conjugates of the upper blocks", conj_res
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
        """Group inverse, computed as S X^dag S (no matrix inversion)."""
        s = symplectic_form(self.n_modes)
        return BogoliubovMap(self.n_sys, self.n_env, s @ self.x.conj().T @ s, self.tol)


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
    """Matrix product ``a.x @ b.x`` (apply b first), re-validated."""
    if (a.n_sys, a.n_env) != (b.n_sys, b.n_env):
        raise DimensionMismatchError(
            f"partition mismatch: ({a.n_sys},{a.n_env}) vs ({b.n_sys},{b.n_env})"
        )
    return BogoliubovMap(a.n_sys, a.n_env, a.x @ b.x, max(a.tol, b.tol))


def classical_mask(x: np.ndarray, n_sys: int, tol: float = CLASSICAL_TOL) -> np.ndarray:
    """``max |X_down_S| <= tol`` for each matrix in a stack ``(..., 2N, 2N)``
    whose first ``n_sys`` modes are the system; ``n_sys = N`` (no
    environment) makes it the closed-system condition ``max |X_down| <= tol``."""
    n = x.shape[-1] // 2
    return np.max(np.abs(x[..., :n_sys, n:n + n_sys]), axis=(-2, -1)) <= tol


def is_classical_closed(m: BogoliubovMap, tol: float = CLASSICAL_TOL) -> bool:
    """True iff the map is passive: ``max |X_down| <= tol``."""
    return bool(classical_mask(m.x, m.n_modes, tol))


def is_classical_open(m: BogoliubovMap, tol: float = CLASSICAL_TOL) -> bool:
    """True iff the system sub-block vanishes: ``max |X_down_S| <= tol``."""
    if m.n_sys < 1:
        raise DimensionMismatchError("open-system classicality needs n_sys >= 1")
    return bool(classical_mask(m.x, m.n_sys, tol))
