"""Truncated two-mode Fock-space simulator: ground truth at desk scale.

Pure states of two bosonic modes are stored as amplitude arrays
``psi[n1, n2]`` over the basis |n1, n2> with 0 <= n_i <= n_max.  States
are evolved by direct ODE integration of d psi/dt = -i H psi for
quadratic Hamiltonians, with H applied to the (d, d) amplitude array by
shifting it along each mode axis (O(d^2) memory; no d^2 x d^2 operator
is ever formed), and the reduced/conjugate field moments are then
measured as plain expectation values:

    r_kk' = <a_k'^dag a_k>,   alpha_k = <a_k>,   c_kk' = <a_k' a_k>.

Truncation quality is tracked through the boundary population (total
amplitude on states with n1 = n_max or n2 = n_max); every consumer
checks it before trusting the result.  This module exists as an oracle:
the mesoscopic formalism is validated against it, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TruncationOverflowError
from .numerics import OdeProblem, max_abs, solve_ode
from .rsf import ConjugateField, GeneralizedField, ReducedField, from_state_moments
from .symplectic import BogoliubovMap, from_blocks

BOUNDARY_PRE_TOL = 1e-8
BOUNDARY_POST_TOL = 1e-6
DEFAULT_CUTOFF = 12
EVOLVE_RTOL = 1e-10
EVOLVE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockState:
    """Two-mode state amplitudes on the truncated basis.

    ``lost_weight`` accumulates probability expelled through the cutoff
    by ladder operations; together with ``boundary_population`` it
    bounds the truncation error of any measured moment.
    """

    amplitudes: np.ndarray
    lost_weight: float = 0.0

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1] or amp.shape[0] < 2:
            raise DimensionMismatchError(
                f"amplitudes must be square (d x d, d >= 2), got {amp.shape}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def vacuum(cls, n_max: int = DEFAULT_CUTOFF) -> "FockState":
        amp = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        amp[0, 0] = 1.0
        return cls(amp)

    @classmethod
    def number_state(cls, n1: int, n2: int, n_max: int = DEFAULT_CUTOFF) -> "FockState":
        amp = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        amp[n1, n2] = 1.0
        return cls(amp)

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def norm_deficit(self) -> float:
        """1 - ||psi||^2 plus any weight expelled by ladder operations."""
        return 1.0 - self.norm_squared() + self.lost_weight

    def boundary_population(self) -> float:
        """Total probability on the n1 = n_max or n2 = n_max shell."""
        amp = self.amplitudes
        edge = np.sum(np.abs(amp[-1, :]) ** 2) + np.sum(np.abs(amp[:-1, -1]) ** 2)
        return float(edge)


def _shift(amp: np.ndarray, mode: int, step: int) -> np.ndarray:
    """a_mode (``step`` -1) or a_mode^dag (``step`` +1) on a (d, d) amplitude
    array, truncated: raising drops the n_max shell, which would feed
    n_max + 1, a state the truncated basis does not have."""
    root = np.sqrt(np.arange(1, amp.shape[0]))
    out = np.zeros_like(amp)
    if step < 0:
        # (a psi)[n] = sqrt(n+1) psi[n+1]
        if mode == 0:
            out[:-1, :] = root[:, None] * amp[1:, :]
        else:
            out[:, :-1] = root[None, :] * amp[:, 1:]
    else:
        # (a^dag psi)[n] = sqrt(n) psi[n-1]
        if mode == 0:
            out[1:, :] = root[:, None] * amp[:-1, :]
        else:
            out[:, 1:] = root[None, :] * amp[:, :-1]
    return out


def apply_ladder(state: FockState, mode: int, which: str) -> FockState:
    """Apply a_mode ("lower") or a_mode^dag ("raise") to the state.

    The result is in general unnormalized (operator action, not
    evolution).  Raising amplitude off the cutoff boundary is dropped
    and recorded in ``lost_weight``.
    """
    if mode not in (0, 1):
        raise DimensionMismatchError(f"mode must be 0 or 1, got {mode}")
    if which not in ("raise", "lower"):
        raise DimensionMismatchError(f"which must be 'raise' or 'lower', got {which!r}")
    amp = state.amplitudes
    lost = state.lost_weight
    if which == "raise":
        # the dropped weight is (n_max + 1) |psi|^2 on the n_max shell
        edge = amp[-1, :] if mode == 0 else amp[:, -1]
        lost += float(amp.shape[0] * np.sum(np.abs(edge) ** 2))
    return FockState(_shift(amp, mode, 1 if which == "raise" else -1), lost_weight=lost)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Real coefficients of a two-mode quadratic Hamiltonian.

    H = number_a a^dag a + number_b b^dag b
        + exchange_re (a^dag b + a b^dag) + exchange_im i(a^dag b - a b^dag)
        + pair_re (a^dag b^dag + a b)     + pair_im   i(a^dag b^dag - a b)

    The first four terms are passive (particle-number conserving), the
    last two active.
    """

    number_a: float = 0.0
    number_b: float = 0.0
    exchange_re: float = 0.0
    exchange_im: float = 0.0
    pair_re: float = 0.0
    pair_im: float = 0.0

    def apply(self, amp: np.ndarray) -> np.ndarray:
        """H psi on the truncated (d, d) amplitude array, written as
        a^dag (E b + P b^dag) + a (E* b^dag + P* b) plus the number terms,
        with E = exchange_re + i exchange_im and P = pair_re + i pair_im."""
        n = np.arange(amp.shape[0])
        exchange = complex(self.exchange_re, self.exchange_im)
        pair = complex(self.pair_re, self.pair_im)
        b_psi, bd_psi = _shift(amp, 1, -1), _shift(amp, 1, 1)
        return (
            (self.number_a * n[:, None] + self.number_b * n[None, :]) * amp
            + _shift(exchange * b_psi + pair * bd_psi, 0, 1)
            + _shift(exchange.conjugate() * bd_psi + pair.conjugate() * b_psi, 0, -1)
        )


def evolve(state: FockState, h: QuadraticHamiltonian, t: float) -> FockState:
    """Schroedinger evolution exp(-i H t) by amplitude integration.

    Raises ``TruncationOverflowError`` if the boundary population
    exceeds its threshold before or during the evolution; checks norm
    preservation at the end.
    """
    if state.boundary_population() > BOUNDARY_PRE_TOL:
        raise TruncationOverflowError(
            f"initial boundary population {state.boundary_population():.3e} too large"
        )
    d = state.n_max + 1

    def rhs(_t, y):
        return -1j * h.apply(y.reshape(d, d)).ravel()

    problem = OdeProblem(
        state.amplitudes.ravel(), rhs, (0.0, t), rtol=EVOLVE_RTOL, atol=EVOLVE_ATOL
    )
    checkpoints = np.linspace(0.0, t, 9)[1:] if t > 0 else [0.0]
    snapshots = solve_ode(problem, checkpoints)
    for tc, y in zip(checkpoints, snapshots):
        mid = FockState(y.reshape(d, d), lost_weight=state.lost_weight)
        if mid.boundary_population() > BOUNDARY_POST_TOL:
            raise TruncationOverflowError(
                f"boundary population {mid.boundary_population():.3e} at t={tc:.4g}; "
                "raise the cutoff"
            )
    final = FockState(snapshots[-1].reshape(d, d), lost_weight=state.lost_weight)
    drift = abs(final.norm_squared() - state.norm_squared())
    if drift > 1e-9:
        raise TruncationOverflowError(f"norm drifted by {drift:.3e} during evolution")
    return final


def measure_rsf(state: FockState) -> tuple[ReducedField, ConjugateField]:
    """Reduced and conjugate field moments of the state.

    r is assembled as a Gram matrix of the lowered states, so it is
    positive semidefinite by construction.
    """
    if state.boundary_population() > BOUNDARY_POST_TOL:
        raise TruncationOverflowError(
            f"boundary population {state.boundary_population():.3e} too large to trust moments"
        )
    psi = state.amplitudes
    lowered = [_shift(psi, 0, -1), _shift(psi, 1, -1)]
    r = np.empty((2, 2), dtype=complex)
    c = np.empty((2, 2), dtype=complex)
    alpha = np.empty(2, dtype=complex)
    for k in range(2):
        alpha[k] = np.vdot(psi, lowered[k])
        for kp in range(2):
            r[k, kp] = np.vdot(lowered[kp], lowered[k])
            # c_kk' = <a_k' a_k>: lower twice, then overlap with psi
            c[k, kp] = np.vdot(psi, _shift(lowered[k], kp, -1))
    r = 0.5 * (r + r.conj().T)
    c = 0.5 * (c + c.T)
    return ReducedField(r, alpha), ConjugateField(c, np.conj(alpha))


def measure_generalized(state: FockState) -> GeneralizedField:
    rf, cf = measure_rsf(state)
    return from_state_moments(rf.r, rf.alpha, cf.c)


def oracle_check_transform(
    m: BogoliubovMap,
    initial: FockState,
    h: QuadraticHamiltonian,
    t: float,
) -> float:
    """Max deviation between the covariant update and the brute force.

    The state is evolved under ``h`` for time ``t``; its measured
    generalized moments are compared entrywise against X g X^dag with g
    measured on the initial state.  ``m`` must be the analytic map of
    the same evolution (see the catalog helpers below).
    """
    g0 = measure_generalized(initial)
    evolved = evolve(initial, h, t)
    g1 = measure_generalized(evolved)
    predicted = m.x @ g0.g @ m.x.conj().T
    pred_amp = m.x @ g0.a_vec
    return max(
        max_abs(g1.g - predicted),
        max_abs(g1.a_vec - pred_amp),
    )


def squeeze_pair(kappa: float, t: float):
    """Two-mode squeezer H = i kappa (a^dag b^dag - a b) and its map.

    Heisenberg action: a -> cosh(kappa t) a + sinh(kappa t) b^dag.
    """
    h = QuadraticHamiltonian(pair_im=kappa)
    ch, sh = np.cosh(kappa * t), np.sinh(kappa * t)
    x_up = np.array([[ch, 0.0], [0.0, ch]], dtype=complex)
    x_down = np.array([[0.0, sh], [sh, 0.0]], dtype=complex)
    return h, from_blocks(x_up, x_down, n_sys=1, n_env=1, tol=1e-10)


def beam_splitter_pair(angle: float, t: float = 1.0):
    """Real-rotation beam splitter H = i g (a^dag b - a b^dag), g = angle/t.

    Heisenberg action: a -> cos(g t) a + sin(g t) b.
    """
    g = angle / t
    h = QuadraticHamiltonian(exchange_im=g)
    co, si = np.cos(angle), np.sin(angle)
    x_up = np.array([[co, si], [-si, co]], dtype=complex)
    x_down = np.zeros((2, 2), dtype=complex)
    return h, from_blocks(x_up, x_down, n_sys=1, n_env=1, tol=1e-10)


def phase_pair(w1: float, w2: float, t: float):
    """Free evolution H = w1 a^dag a + w2 b^dag b: a -> e^{-i w1 t} a."""
    h = QuadraticHamiltonian(number_a=w1, number_b=w2)
    x_up = np.diag(np.exp([-1j * w1 * t, -1j * w2 * t]))
    x_down = np.zeros((2, 2), dtype=complex)
    return h, from_blocks(x_up, x_down, n_sys=1, n_env=1, tol=1e-10)


def coherent_state(z1: complex, z2: complex = 0.0, n_max: int = DEFAULT_CUTOFF) -> FockState:
    """Product coherent state |z1> (x) |z2> on the truncated basis."""
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    def amps(z):
        if z == 0:
            a = np.zeros(n_max + 1, dtype=complex)
            a[0] = 1.0
            return a
        return np.exp(-0.5 * abs(z) ** 2 + n * np.log(complex(z)) - 0.5 * log_fact)
    amp = np.outer(amps(z1), amps(z2))
    return FockState(amp)
