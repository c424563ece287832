"""Truncated two-mode Fock-space simulator: ground truth at desk scale.

Pure states of two bosonic modes are stored as amplitude arrays
``psi[n1, n2]`` over the basis |n1, n2> with 0 <= n_i <= n_max.  States
are evolved as exp(-i H t) psi for quadratic Hamiltonians by a truncated
Taylor series of H (``numerics.expmv``).  H is built once per evolution
(``QuadraticHamiltonian.operator``) from its nonzero terms only and acts on
the flattened amplitude array: a number diagonal plus one coefficient
table per ladder term, each term one contiguous update of the flat array
at a fixed shift (O(d^2) memory; no d^2 x d^2 operator is ever formed).
The reduced/conjugate field moments are then measured as plain
expectation values:

    r_kk' = <a_k'^dag a_k>,   alpha_k = <a_k>,   c_kk' = <a_k' a_k>.

Truncation quality is tracked through the boundary population (total
amplitude on states with n1 = n_max or n2 = n_max); every consumer
checks it before trusting the result.  This module exists as an oracle:
the mesoscopic formalism is validated against it, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, TruncationOverflowError
from .numerics import expmv, max_abs
from .rsf import ConjugateField, GeneralizedField, ReducedField, from_state_moments
from .symplectic import BogoliubovMap, from_blocks

BOUNDARY_PRE_TOL = 1e-8
BOUNDARY_POST_TOL = 1e-6
DEFAULT_CUTOFF = 12
CHECKPOINTS = 8


def _boundary_population(amp: np.ndarray) -> float:
    """Total probability on the n1 = n_max or n2 = n_max shell of a (d, d)
    amplitude array."""
    edge = np.sum(np.abs(amp[-1, :]) ** 2) + np.sum(np.abs(amp[:-1, -1]) ** 2)
    return float(edge)


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
        return _boundary_population(self.amplitudes)


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

    def operator(self, d: int, scale: complex) -> Callable[[np.ndarray], np.ndarray]:
        """The map psi -> scale H psi on the d^2 amplitudes of a (d, d) array,
        read as ``psi.ravel()``; built once, it returns a fresh flat array.

        H = a^dag (E b + P b^dag) + a (E* b^dag + P* b) plus the number
        terms, with E = exchange_re + i exchange_im and P = pair_re +
        i pair_im.  In the flat index n1 d + n2 each ladder term moves
        amplitude by a fixed shift: d - 1 for a^dag b, -(d - 1) for a b^dag,
        d + 1 for a^dag b^dag and -(d + 1) for a b.  So each nonzero term is
        one contiguous update ``out[s:] += C * p[:-s]`` (or ``out[:s] +=
        C * p[-s:]``), whose table C holds scale c sqrt(i+1) sqrt(j+1) at
        the source index and zero where the shift would wrap across a row
        or raise off the n_max shell.  That is exactly H projected onto the
        truncated basis.  Terms with a zero coefficient, and a zero number
        diagonal, are never applied.
        """
        n = np.arange(d)
        root = np.sqrt(np.arange(1, d))
        ladder = np.outer(root, root)
        # (destination, source, table) of each term applied, the first written
        # and the others added
        terms = []
        if self.number_a != 0 or self.number_b != 0:
            diag = scale * (self.number_a * n[:, None] + self.number_b * n[None, :])
            terms.append((slice(None), slice(None), np.asarray(diag, dtype=complex).ravel()))
        exchange = complex(self.exchange_re, self.exchange_im)
        pair = complex(self.pair_re, self.pair_im)
        # (coefficient, destination offsets, source offsets) in (n1, n2) of
        # a^dag b, a b^dag, a^dag b^dag, a b
        for c, (dst1, dst2), (src1, src2) in (
            (exchange, (1, 0), (0, 1)),
            (exchange.conjugate(), (0, 1), (1, 0)),
            (pair, (1, 1), (0, 0)),
            (pair.conjugate(), (0, 0), (1, 1)),
        ):
            if c == 0:
                continue
            table = np.zeros((d, d), dtype=complex)
            table[src1:src1 + d - 1, src2:src2 + d - 1] = scale * c * ladder
            shift = (dst1 - src1) * d + dst2 - src2
            if shift > 0:
                terms.append((slice(shift, None), slice(None, -shift), table.ravel()[:-shift]))
            else:
                terms.append((slice(None, shift), slice(-shift, None), table.ravel()[-shift:]))

        def apply(psi: np.ndarray) -> np.ndarray:
            p = psi.ravel()
            out = np.zeros(p.size, dtype=complex)
            if terms:
                dst, src, coef = terms[0]
                np.multiply(coef, p[src], out=out[dst])
            for dst, src, coef in terms[1:]:
                out[dst] += coef * p[src]
            return out

        return apply

    def apply(self, amp: np.ndarray) -> np.ndarray:
        """H psi on the truncated (d, d) amplitude array, through
        ``operator`` (the one definition of H psi)."""
        return self.operator(amp.shape[0], 1.0)(amp).reshape(amp.shape)


def evolve(state: FockState, h: QuadraticHamiltonian, t: float) -> FockState:
    """Schroedinger evolution exp(-i H t) by ``numerics.expmv`` in
    ``CHECKPOINTS`` equal substeps.

    The operator -i step H is built once (``QuadraticHamiltonian.operator``,
    nonzero terms only) and serves every substep, on the flattened
    amplitudes.  The Taylor steps are sized from ||H||_1 <= n_max
    (|number_a| + |number_b| + 2 |E| + 2 |P|) on the truncated basis (every
    ladder matrix element is at most n_max), so H = 0 or t = 0 returns the
    state exactly.
    Raises ``TruncationOverflowError`` if the boundary population exceeds
    its threshold before the evolution or at any checkpoint (read from the
    raw amplitudes); checks norm preservation at the end, on the one
    ``FockState`` it returns.
    """
    if t < 0:
        raise DimensionMismatchError(f"evolution time must be nonnegative, got {t}")
    if state.boundary_population() > BOUNDARY_PRE_TOL:
        raise TruncationOverflowError(
            f"initial boundary population {state.boundary_population():.3e} too large"
        )
    step = t / CHECKPOINTS
    norm = state.n_max * (
        abs(h.number_a) + abs(h.number_b)
        + 2.0 * abs(complex(h.exchange_re, h.exchange_im))
        + 2.0 * abs(complex(h.pair_re, h.pair_im))
    )
    shape = state.amplitudes.shape
    amp = state.amplitudes.ravel()
    apply = h.operator(shape[0], -1j * step)
    for k in range(1, CHECKPOINTS + 1):
        amp = expmv(apply, amp, norm * step)
        edge = _boundary_population(amp.reshape(shape))
        if edge > BOUNDARY_POST_TOL:
            raise TruncationOverflowError(
                f"boundary population {edge:.3e} at t={k * step:.4g}; raise the cutoff"
            )
    out = FockState(amp.reshape(shape), lost_weight=state.lost_weight)
    drift = abs(out.norm_squared() - state.norm_squared())
    if drift > 1e-9:
        raise TruncationOverflowError(f"norm drifted by {drift:.3e} during evolution")
    return out


def _moments(state: FockState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moments (r, alpha, c) of the state, unvalidated.

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
    return 0.5 * (r + r.conj().T), alpha, 0.5 * (c + c.T)


def measure_rsf(state: FockState) -> tuple[ReducedField, ConjugateField]:
    """Reduced and conjugate field moments of the state (``_moments``)."""
    r, alpha, c = _moments(state)
    return ReducedField(r, alpha), ConjugateField(c, np.conj(alpha))


def measure_generalized(state: FockState) -> GeneralizedField:
    """Generalized field moments of the state, each moment set validated once
    (by ``from_state_moments``)."""
    return from_state_moments(*_moments(state))


def oracle_deviation(m: BogoliubovMap, initial: FockState, evolved: FockState) -> float:
    """Max deviation between the covariant update and the brute force.

    The generalized moments measured on ``evolved`` are compared entrywise
    against X g X^dag with g measured on ``initial``.  ``m`` must be the
    analytic map of the evolution that took ``initial`` to ``evolved``
    (see the catalog helpers below).
    """
    g0 = measure_generalized(initial)
    g1 = measure_generalized(evolved)
    predicted = m.x @ g0.g @ m.x.conj().T
    pred_amp = m.x @ g0.a_vec
    return max(
        max_abs(g1.g - predicted),
        max_abs(g1.a_vec - pred_amp),
    )


def oracle_check_transform(
    m: BogoliubovMap,
    initial: FockState,
    h: QuadraticHamiltonian,
    t: float,
) -> float:
    """``oracle_deviation`` of ``initial`` evolved under ``h`` for time ``t``."""
    return oracle_deviation(m, initial, evolve(initial, h, t))


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
