"""Closed-form Gaussian amplification, used as an integrator test target.

A heat bath with mean occupation m_j pumping mode j at rate kappa_j
drives the reduced field along the exact trajectory

    r(t)     = E(t) r(0) E(t) + n(t),      E(t) = diag(exp(kappa_j t)),
    alpha(t) = E(t) alpha(0),              n_j(t) = (1 + m_j)(exp(2 kappa_j t) - 1),

which is also the solution of the kinetic equations with constant rates

    gamma_up = 2 kappa (1 + m),   gamma_down = 2 kappa m,   h = zeta = 0.

A related but distinct object is the discrete two-group squeeze family

    X_up = cosh(kappa t) [[1, 0], [0, 1]],
    X_down = sinh(kappa t) [[0, 1], [1, 0]]

over system (+) environment mode groups.  Its amplitude grows like
cosh(kappa t), not exp(kappa t): the two one-parameter families agree
only in which classicality class they occupy, so tests must not
conflate them.  The squeeze family is what ``amplifier_bogoliubov``
returns; its system sub-block X_down_S vanishes, making it open-system
classical while failing the closed-system (passive) condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidMomentsError
from .kinetics import KineticGenerators
from .rsf import ReducedField
from .symplectic import BogoliubovMap, from_blocks


def _rates(values, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{what} must be scalar or 1-d")
    if arr.size == 0:
        raise DimensionMismatchError(f"{what} needs at least one mode")
    if np.any(arr < 0):
        raise InvalidMomentsError(f"{what} must be nonnegative")
    return arr


@dataclass(frozen=True, eq=False)
class AmplifierSpec:
    """Per-mode amplification rates and bath occupations."""

    kappa: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        kappa = _rates(self.kappa, "kappa")
        m = _rates(self.m, "m")
        if m.size == 1 and kappa.size > 1:
            m = np.full_like(kappa, m[0])
        if kappa.shape != m.shape:
            raise DimensionMismatchError("kappa and m lengths differ")
        kappa.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "m", m)

    @property
    def n_modes(self) -> int:
        return self.kappa.size


def amplified_rsf(spec: AmplifierSpec, rf0: ReducedField, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form amplified field ``(r, alpha)`` at a time ``t`` or at each
    of an array of times, shaped ``shape(t) + (n, n)`` and ``shape(t) + (n,)``:
    the formula is evaluated once, broadcast over the times, with
    exp(2 kappa t) - 1 as ``expm1``, which keeps it where 2 kappa t is below
    unit roundoff."""
    if rf0.n_modes != spec.n_modes:
        raise DimensionMismatchError(f"field has {rf0.n_modes} modes, spec has {spec.n_modes}")
    t = np.asarray(t, dtype=float)[..., None]
    env = np.exp(spec.kappa * t)
    occ = (1.0 + spec.m) * np.expm1(2.0 * spec.kappa * t)
    r = env[..., :, None] * env[..., None, :] * rf0.r + occ[..., None] * np.eye(spec.n_modes)
    return r, env * rf0.alpha


def amplifier_generators(spec: AmplifierSpec) -> KineticGenerators:
    """Constant kinetic generators of the amplification process."""
    n = spec.n_modes
    z = np.zeros((n, n), dtype=complex)
    return KineticGenerators(
        h=z,
        zeta=np.zeros(n, dtype=complex),
        gamma_up=np.diag(2.0 * spec.kappa * (1.0 + spec.m)).astype(complex),
        gamma_down=np.diag(2.0 * spec.kappa * spec.m).astype(complex),
    )


def amplifier_bogoliubov(kappa, t: float) -> BogoliubovMap:
    """Squeeze-type map pairing N system modes with N environment modes.

    Returns the 4N x 4N map with X_up = cosh(kappa t) on both groups and
    X_down = sinh(kappa t) exchanging them (n_sys = n_env = N).
    """
    kappa = _rates(kappa, "kappa")
    n = kappa.size
    c = np.diag(np.cosh(kappa * t)).astype(complex)
    s = np.diag(np.sinh(kappa * t)).astype(complex)
    z = np.zeros((n, n), dtype=complex)
    x_up = np.block([[c, z], [z, c]])
    x_down = np.block([[z, s], [s, z]])
    return from_blocks(x_up, x_down, n_sys=n, n_env=n, tol=1e-10)
