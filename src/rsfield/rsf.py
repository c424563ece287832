"""Reduced state of the field: mesoscopic moments, transforms, entropies.

An N-mode bosonic state is summarized by three nested moment sets:

* reduced field (r, alpha):     r_kk' = <a_k'^dag a_k>, alpha_k = <a_k>;
  r is the single-particle density matrix (Hermitian, PSD, diagonal =
  mode occupations), alpha the averaged field.
* conjugate field c:            c_kk' = <a_k' a_k> (symmetric).  These are
  the anomalous moments the reduced field deliberately discards; a
  general Bogoliubov map couples the two sets, which is exactly what the
  classicality predicates detect.  The conjugate amplitude is
  conj(alpha), read from the reduced field of the same state.
* generalized field (g, A):     the 2N-dimensional assembly

      g = [[r, c], [conj(c), transpose(r) + 1]],   A = alpha (+) conj(alpha),

  which transforms covariantly under any Bogoliubov map X:
  g' = X g X^dag, A' = X A.

Entropies are functions of r_alpha = r - |alpha><alpha|:

    s_v = tr[(r_alpha + 1) ln(r_alpha + 1) - r_alpha ln r_alpha]
    s_w = tr ln(r_alpha + 1) + N

with the 0 ln 0 := 0 convention.  Matrix logarithms are evaluated by
eigendecomposition; eigenvalues below -PHYSICAL_TOL (1 + max|r_alpha|)
raise, mild negatives from floating-point noise are clamped to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMomentsError,
    NonHermitianError,
    NonHermitianObservableError,
    NotClassicalOpenError,
    NotPhysicalError,
    StructureViolationError,
)
from .numerics import (
    HERMITIAN_TOL,
    hermitian_eigvalsh,
    is_hermitian,
    is_psd,
    max_abs,
    require_finite,
    require_square,
)
from .symplectic import BogoliubovMap, is_classical_open

PHYSICAL_TOL = 1e-8
STRUCTURE_TOL = 1e-8


def _as_vector(v, n: int | None = None, what: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"{what} has size {v.size}, expected {n}")
    return require_finite(v, what)


@dataclass(frozen=True, eq=False)
class ReducedField:
    """Single-particle density matrix and averaged field amplitude."""

    r: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        r = require_square(np.array(self.r, dtype=complex), "r")
        ok, witness = is_psd(r, PHYSICAL_TOL)
        if not ok:
            raise NotPhysicalError("negative mode occupation", witness)
        alpha = _as_vector(self.alpha, r.shape[0], "alpha")
        r.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_modes(self) -> int:
        return self.r.shape[0]

    def occupations(self) -> np.ndarray:
        """Real diagonal of r (mean particle number per mode)."""
        return self.r.diagonal().real.copy()


@dataclass(frozen=True, eq=False)
class ConjugateField:
    """Anomalous moments ``c_kk' = <a_k' a_k>``."""

    c: np.ndarray

    def __post_init__(self):
        c = require_square(np.array(self.c, dtype=complex), "c")
        scale = max_abs(c)  # tested finite first, so that no inf - inf is formed
        if not (math.isfinite(scale) and max_abs(c - c.T) <= HERMITIAN_TOL * (1.0 + scale)):
            raise InvalidMomentsError("anomalous moment matrix is not finite and symmetric")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n_modes(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class GeneralizedField:
    """The 2N x 2N moment assembly ``g`` and doubled amplitude ``A``."""

    g: np.ndarray
    a_vec: np.ndarray

    def __post_init__(self):
        g = require_square(np.array(self.g, dtype=complex), "g")
        if g.shape[0] % 2:
            raise DimensionMismatchError(f"g must be 2Nx2N, got {g.shape}")
        n = g.shape[0] // 2
        a_vec = _as_vector(self.a_vec, 2 * n, "A")
        if not is_hermitian(g, STRUCTURE_TOL):
            raise StructureViolationError("generalized moment matrix not Hermitian")
        scale = 1.0 + max_abs(g)
        r, c = g[:n, :n], g[:n, n:]
        if not max_abs(g[n:, :n] - c.conj()) <= STRUCTURE_TOL * scale:
            raise StructureViolationError("lower-left block is not conj(c)")
        if not max_abs(g[n:, n:] - (r.T + np.eye(n))) <= STRUCTURE_TOL * scale:
            raise StructureViolationError(
                "lower-right block differs from transpose(r) + 1; "
                "the applied transformation was likely not symplectic"
            )
        if not max_abs(a_vec[n:] - a_vec[:n].conj()) <= STRUCTURE_TOL * (
            1.0 + max_abs(a_vec)
        ):
            raise StructureViolationError("amplitude halves are not conjugate")
        g.setflags(write=False)
        a_vec.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a_vec", a_vec)

    @property
    def n_modes(self) -> int:
        return self.g.shape[0] // 2

    def split(self) -> tuple[ReducedField, ConjugateField]:
        """Recover the reduced and conjugate fields from the blocks."""
        n = self.n_modes
        r = 0.5 * (self.g[:n, :n] + self.g[:n, :n].conj().T)
        c = 0.5 * (self.g[:n, n:] + self.g[n:, :n].conj().T)
        c = 0.5 * (c + c.T)
        return ReducedField(r, self.a_vec[:n]), ConjugateField(c)


def vacuum(n_modes: int) -> tuple[ReducedField, ConjugateField]:
    """The N-mode vacuum: all moments zero."""
    if n_modes < 1:
        raise DimensionMismatchError("need at least one mode")
    z = np.zeros((n_modes, n_modes), dtype=complex)
    return ReducedField(z, np.zeros(n_modes, dtype=complex)), ConjugateField(z)


def _generalized_arrays(
    r: np.ndarray, alpha: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The plain arrays g = [[r, c], [conj(c), transpose(r) + 1]] and
    A = alpha (+) conj(alpha), unvalidated and complex, g written block by
    block: the one place the layout is written."""
    n = r.shape[0]
    g = np.empty((2 * n, 2 * n), dtype=complex)
    g[:n, :n] = r
    g[:n, n:] = c
    np.conjugate(c, out=g[n:, :n])
    np.add(r.T, np.eye(n), out=g[n:, n:])
    return g, np.concatenate([alpha, alpha.conj()])


def from_state_moments(
    r: np.ndarray, alpha: np.ndarray, c: np.ndarray
) -> GeneralizedField:
    """Assemble the generalized field from (r, alpha, c) of one state."""
    try:
        rf = ReducedField(r, alpha)
        cf = ConjugateField(c)
    except (NonHermitianError, NotPhysicalError, InvalidMomentsError) as exc:
        raise InvalidMomentsError(f"invalid state moments: {exc}") from exc
    return GeneralizedField(*_generalized_arrays(rf.r, rf.alpha, cf.c))


def transform_generalized(gf: GeneralizedField, m: BogoliubovMap) -> GeneralizedField:
    """Covariant update ``g' = X g X^dag``, ``A' = X A``.

    The output is re-validated against the block structure; a violation
    signals a non-symplectic input matrix.
    """
    if m.n_modes != gf.n_modes:
        raise DimensionMismatchError(
            f"map acts on {m.n_modes} modes, field has {gf.n_modes}"
        )
    g = m.x @ gf.g @ m.x.conj().T
    a = m.x @ gf.a_vec
    return GeneralizedField(g, a)


def transform_closed(
    rf: ReducedField, cf: ConjugateField, m: BogoliubovMap
) -> ReducedField:
    """Exact update of the reduced field under a general Bogoliubov map.

    The map couples the reduced field to the conjugate field:

        r' = Xu r Xu^dag + Xu c Xd^dag + Xd c^dag Xu^dag
             + Xd (transpose(r) + 1) Xd^dag,
        alpha' = Xu alpha + Xd conj(alpha),

    so both moment sets of the same underlying state must be supplied.
    Passive maps (Xd = 0) reduce to r' = Xu r Xu^dag.
    """
    n = rf.n_modes
    if cf.n_modes != n or m.n_modes != n:
        raise DimensionMismatchError("field/map mode counts differ")
    xu, xd = m.x_up, m.x_down
    r = (
        xu @ rf.r @ xu.conj().T
        + xu @ cf.c @ xd.conj().T
        + xd @ cf.c.conj().T @ xu.conj().T
        + xd @ (rf.r.T + np.eye(n)) @ xd.conj().T
    )
    alpha = xu @ rf.alpha + xd @ np.conj(rf.alpha)
    return ReducedField(0.5 * (r + r.conj().T), alpha)


def reduce_to_system(
    rf: ReducedField, cf: ConjugateField, n_sys: int
) -> tuple[ReducedField, ConjugateField, np.ndarray, np.ndarray]:
    """Leading system blocks plus the system-environment correlations.

    Returns ``(rf_sys, cf_sys, r_corr, c_corr)`` where ``r_corr`` and
    ``c_corr`` are the n_sys x n_env off-diagonal blocks of r and c.
    The system blocks are exact sub-arrays of the total moments.
    """
    n = rf.n_modes
    if not 0 < n_sys <= n:
        raise DimensionMismatchError(f"n_sys={n_sys} outside 1..{n}")
    r_s = rf.r[:n_sys, :n_sys]
    c_s = cf.c[:n_sys, :n_sys]
    return (
        ReducedField(r_s, rf.alpha[:n_sys]),
        ConjugateField(c_s),
        rf.r[:n_sys, n_sys:].copy(),
        cf.c[:n_sys, n_sys:].copy(),
    )


def transform_open_vacuum_env(rf_sys: ReducedField, m: BogoliubovMap) -> ReducedField:
    """System update for an open map acting on a vacuum environment.

    Requires the open-system classicality condition X_down_S = 0
    (``symplectic.is_classical_open``, within the map's roundoff limit); then

        r_S' = Xu_S r_S Xu_S^dag + Xd_C Xd_C^dag,
        alpha_S' = Xu_S alpha_S.
    """
    if rf_sys.n_modes != m.n_sys:
        raise DimensionMismatchError(
            f"system field has {rf_sys.n_modes} modes, map n_sys={m.n_sys}"
        )
    if not is_classical_open(m):
        raise NotClassicalOpenError(
            "map couples system creation/annihilation sectors (X_down_S != 0)"
        )
    ns = m.n_sys
    up_s, down_c = m.x_up[:ns, :ns], m.x_down[:ns, ns:]
    r = up_s @ rf_sys.r @ up_s.conj().T + down_c @ down_c.conj().T
    alpha = up_s @ rf_sys.alpha
    return ReducedField(0.5 * (r + r.conj().T), alpha)


def expect_additive(rf: ReducedField, o: np.ndarray) -> float | np.ndarray:
    """Expectation ``tr(r o)`` of an additive observable, or of each of a
    stack ``(..., n, n)`` of them: a float for one matrix, an array of the
    stack's leading shape for a stack."""
    o = np.asarray(o, dtype=complex)
    if o.shape[-2:] != rf.r.shape:
        raise DimensionMismatchError(f"observable shape {o.shape} does not end in {rf.r.shape}")
    if not np.all(is_hermitian(o)):
        raise NonHermitianObservableError("additive observable must be Hermitian")
    val = np.trace(rf.r @ o, axis1=-2, axis2=-1)
    if not np.all(np.abs(val.imag) <= 1e-10 * (1.0 + np.abs(val))):
        raise NonHermitianObservableError(
            f"expectation has spurious imaginary part {np.max(np.abs(val.imag)):.3e}"
        )
    return float(val.real) if o.ndim == 2 else val.real


def expect_linear(rf: ReducedField, sigma: np.ndarray) -> float:
    """Expectation of a linear observable: ``2 Re <sigma|alpha>``."""
    sigma = _as_vector(sigma, rf.n_modes, "sigma")
    return float(2.0 * np.vdot(sigma, rf.alpha).real)


def _displaced_spectrum(rf: ReducedField) -> np.ndarray:
    r_alpha = rf.r - np.outer(rf.alpha, rf.alpha.conj())
    _, w = hermitian_eigvalsh(0.5 * (r_alpha + r_alpha.conj().T), "r - |alpha><alpha|")
    if w.size and w[0] < -PHYSICAL_TOL * (1.0 + max_abs(r_alpha)):
        raise NotPhysicalError(
            "r - |alpha><alpha| has a negative eigenvalue", float(w[0])
        )
    return np.clip(w, 0.0, None)


def entropy_v(rf: ReducedField) -> float:
    """Reduced von Neumann entropy of (r, alpha)."""
    w = _displaced_spectrum(rf)
    wp = w + 1.0
    s = np.sum(wp * np.log(wp)) - np.sum(w[w > 0] * np.log(w[w > 0]))
    return float(s)


def entropy_w(rf: ReducedField) -> float:
    """Reduced Wehrl entropy of (r, alpha); always >= n_modes."""
    w = _displaced_spectrum(rf)
    return float(np.sum(np.log(w + 1.0)) + rf.n_modes)
