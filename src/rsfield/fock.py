"""Truncated two-mode Fock-space simulator: ground truth at desk scale.

Pure states of two bosonic modes are stored as amplitude arrays
``psi[n1, n2]`` over the basis |n1, n2> with 0 <= n_i <= n_max.  States
are evolved as exp(-i H t) psi for quadratic Hamiltonians by a truncated
Taylor series of H (``numerics.expmv``), one plan per evolution whose
checkpoints are read from the same series.  H is built once per evolution
(``QuadraticHamiltonian.operator``) from its nonzero terms only and acts on
the flattened amplitude array: one coefficient table per shift that a
term makes in the flat index, each one contiguous update of the flat
array, formed after the first in one scratch array that the operator
keeps (O(d^2) memory; no d^2 x d^2 operator is ever formed, and an
application allocates only its result).
The reduced/conjugate field moments are then measured as plain
expectation values:

    r_kk' = <a_k'^dag a_k>,   alpha_k = <a_k>,   c_kk' = <a_k' a_k>.

a psi and b psi are read as slices of the amplitude array on their
support (n1 < n_max, respectively n2 < n_max), never as zero-filled
copies, and each moment is one inner product over the common support of
its two factors; r is the Gram matrix of a psi and b psi.  The oracle
compares plain arrays: ``oracle_deviation`` assembles g and A of both
states (the layout of ``rsf.from_state_moments``) and builds no
validated moment object between an evolution and its deviation.

Truncation quality is tracked through the boundary population (total
probability on states with n1 = n_max or n2 = n_max, the inner products of
the shell's row and column with themselves); every consumer checks it
before trusting the result.  An evolution checks it at ``CHECKPOINTS``
equal steps: the series that evolves the state also returns the shell's
2 n_max + 1 amplitudes at each inner checkpoint, and no state is formed
between them.  This module exists as an oracle:
the mesoscopic formalism is validated against it, never the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NonFiniteStateError, TruncationOverflowError
from .numerics import expmv, max_abs, require_finite, require_square
from .rsf import (
    ConjugateField, GeneralizedField, ReducedField, _generalized_arrays, from_state_moments,
)
from .symplectic import BogoliubovMap, from_blocks

BOUNDARY_PRE_TOL = 1e-8
BOUNDARY_POST_TOL = 1e-6
DEFAULT_CUTOFF = 12
CHECKPOINTS = 8


def _ladder(p: int, q: int, n, d: int):
    """|<n - q + p| (a^dag)^p a^q |n>|^2 = n! (n - q + p)! / (n - q)!^2 on the
    d levels of one mode, and 0 where n < q or n - q + p >= d; for an int n,
    or elementwise for an int array."""
    out = (n >= q) & (n - q + p < d)
    for k in range(q):
        out = out * (n - k)
    for k in range(1, p + 1):
        out = out * (n - q + k)
    return out


def _boundary_population(amp: np.ndarray) -> float:
    """Total probability on the n1 = n_max or n2 = n_max shell of a (d, d)
    amplitude array: the squared norms of its last row and of the rest of
    its last column."""
    row, column = amp[-1, :], amp[:-1, -1]
    return float(np.vdot(row, row).real + np.vdot(column, column).real)


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
        amp = require_square(np.array(self.amplitudes, dtype=complex), "amplitudes")
        if amp.shape[0] < 2:
            raise DimensionMismatchError(f"amplitudes must be d x d with d >= 2, got {amp.shape}")
        require_finite(amp, "amplitudes")
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


def apply_ladder(state: FockState, mode: int, which: str) -> FockState:
    """Apply a_mode ("lower") or a_mode^dag ("raise") to the state.

    The result is in general unnormalized (operator action, not
    evolution).  Raising amplitude off the cutoff boundary is dropped
    and recorded in ``lost_weight``: the n_max shell would feed n_max + 1,
    a state the truncated basis does not have.
    """
    if mode not in (0, 1):
        raise DimensionMismatchError(f"mode must be 0 or 1, got {mode}")
    if which not in ("raise", "lower"):
        raise DimensionMismatchError(f"which must be 'raise' or 'lower', got {which!r}")
    amp = state.amplitudes
    out = np.zeros_like(amp)
    # the mode's axis first: for mode 1 both are transposed views
    src, dst = (amp, out) if mode == 0 else (amp.T, out.T)
    root = np.sqrt(np.arange(1, amp.shape[0]))[:, None]
    lost = state.lost_weight
    if which == "raise":
        # (a^dag psi)[n] = sqrt(n) psi[n-1]; the dropped weight is
        # (n_max + 1) |psi|^2 on the n_max shell
        lost += float(amp.shape[0] * np.sum(np.abs(src[-1]) ** 2))
        dst[1:] = root * src[:-1]
    else:
        # (a psi)[n] = sqrt(n+1) psi[n+1]
        dst[:-1] = root * src[1:]
    return FockState(out, lost_weight=lost)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Real coefficients of a two-mode quadratic Hamiltonian.

    H = number_a a^dag a + number_b b^dag b
        + exchange_re (a^dag b + a b^dag) + exchange_im i(a^dag b - a b^dag)
        + pair_re (a^dag b^dag + a b)     + pair_im   i(a^dag b^dag - a b)

    The first four terms are passive (particle-number conserving), the
    last two active.  Every coefficient must be finite.
    """

    number_a: float = 0.0
    number_b: float = 0.0
    exchange_re: float = 0.0
    exchange_im: float = 0.0
    pair_re: float = 0.0
    pair_im: float = 0.0

    def __post_init__(self):
        require_finite(list(vars(self).values()), "Hamiltonian coefficients")

    def terms(self) -> tuple:
        """Each term of H once, as (c, (p_a, q_a), (p_b, q_b)) for c (a^dag)^p_a
        a^q_a (b^dag)^p_b b^q_b: ``operator`` and ``norm_bound`` read H from
        here alone.  E = exchange_re + i exchange_im, P = pair_re + i pair_im."""
        e, p = complex(self.exchange_re, self.exchange_im), complex(self.pair_re, self.pair_im)
        return ((self.number_a, (1, 1), (0, 0)), (self.number_b, (0, 0), (1, 1)),
                (e, (1, 0), (0, 1)), (e.conjugate(), (0, 1), (1, 0)),
                (p, (1, 0), (1, 0)), (p.conjugate(), (0, 1), (0, 1)))

    def norm_bound(self, d: int) -> float:
        """A bound on ||H||_1 on d levels per mode, inf past the float range:
        a term adds to a column at most |c| times its largest matrix element,
        at the highest n that it maps into the basis (``_ladder`` grows with n)."""
        def largest(p, q):
            return _ladder(p, q, d - 1 - max(p - q, 0), d)

        try:
            return sum((abs(c) * math.sqrt(largest(*a) * largest(*b))
                        for c, a, b in self.terms() if c != 0), 0.0)
        except OverflowError:  # abs() of a complex coefficient
            return math.inf

    def operator(self, d: int, scale: complex) -> Callable[[np.ndarray], np.ndarray]:
        """The map psi -> scale H psi on the d^2 amplitudes of a (d, d) array,
        read as ``psi.ravel()``; built once, it returns a fresh flat array
        (each update after the first is formed in one scratch array that the
        operator owns, so an operator serves one evaluation at a time).

        In the flat index n1 d + n2 a term of ``terms`` moves amplitude by
        the shift (p_a - q_a) d + p_b - q_b (d - 1 for a^dag b, d + 1 for
        a^dag b^dag, 0 for a number term).  So the nonzero terms of one
        shift are one contiguous update ``out[s:] += C * p[:-s]`` (or
        ``out[:s] += C * p[-s:]``), whose table C holds scale c times both
        modes' ``_ladder`` elements at the source index: zero where the
        shift would wrap across a row or raise off the n_max shell, so that
        is exactly H projected onto the truncated basis.
        """
        terms = [term for term in self.terms() if term[0] != 0]
        root = {pq: np.sqrt(_ladder(*pq, np.arange(d), d)) for _, a, b in terms for pq in (a, b)}
        tables = {}  # each shift's table, summed over its terms in their order
        for c, a, b in terms:
            shift = (a[0] - a[1]) * d + b[0] - b[1]
            tables[shift] = tables.get(shift, 0) + (scale * c * np.outer(root[a], root[b])).ravel()
        # (destination, source, table) of each shift, the first written and
        # the others added
        updates = [(slice(s, None), slice(None, d * d - s), table[:d * d - s]) if s >= 0
                   else (slice(None, s), slice(-s, None), table[-s:]) for s, table in tables.items()]

        scratch = np.empty(d * d, dtype=complex)
        first, rest = updates[:1], [(*u, scratch[:u[2].size]) for u in updates[1:]]

        def apply(psi: np.ndarray) -> np.ndarray:
            p = psi.ravel()
            out = np.zeros(p.size, dtype=complex)
            for dst, src, coef in first:
                np.multiply(coef, p[src], out=out[dst])
            for dst, src, coef, part in rest:
                np.multiply(coef, p[src], out=part)
                target = out[dst]
                np.add(target, part, out=target)
            return out

        return apply


def evolve(state: FockState, h: QuadraticHamiltonian, t: float) -> FockState:
    """Schroedinger evolution exp(-i H t) by one ``numerics.expmv`` plan,
    with the boundary population checked at ``CHECKPOINTS`` equal steps.

    The operator -i t H is built once (``QuadraticHamiltonian.operator``,
    nonzero terms only) and serves every Taylor term, on the flattened
    amplitudes.  The Taylor steps are sized from the bound on ||H||_1 that
    ``QuadraticHamiltonian.norm_bound`` takes from the same terms, n_max
    (|number_a| + |number_b| + 2 |E| + 2 |P|), so H = 0 or t = 0 returns
    the state exactly.  The inner checkpoints k t / CHECKPOINTS are read from
    the same series: ``expmv`` returns only the boundary shell's amplitudes
    at each (the last row and the rest of the last column), the final
    checkpoint is the evolved state's.
    Raises ``NonFiniteStateError`` if the norm bound of t H is not finite,
    before H is built, and ``TruncationOverflowError`` if the boundary
    population exceeds its threshold before the evolution or at any
    checkpoint (read from the raw amplitudes); checks norm preservation at
    the end, on the one ``FockState`` it returns.
    """
    if t < 0:
        raise DimensionMismatchError(f"evolution time must be nonnegative, got {t}")
    if not state.boundary_population() <= BOUNDARY_PRE_TOL:
        raise TruncationOverflowError(
            f"initial boundary population {state.boundary_population():.3e} too large"
        )
    d = state.n_max + 1
    norm = h.norm_bound(d)
    # before H is built: a finite bound caps every entry of -i t H
    if not np.isfinite(norm * t):
        raise NonFiniteStateError(f"norm bound of t H is not finite ({norm:.3e} x {t:.3e})")
    # the shell in the flat index n1 d + n2: the last row, then the rest of the last column
    shell = np.concatenate([np.arange(d * (d - 1), d * d), np.arange(d - 1, d * (d - 1), d)])
    amp, edges = expmv(h.operator(d, -1j * t), state.amplitudes.ravel(), norm * t,
                       shell, np.arange(1, CHECKPOINTS) / CHECKPOINTS)
    amp = amp.reshape(d, d)
    populations = np.append(np.sum(edges.real ** 2 + edges.imag ** 2, axis=1),
                            _boundary_population(amp))
    for k, edge in enumerate(populations, 1):
        if not edge <= BOUNDARY_POST_TOL:
            raise TruncationOverflowError(
                f"boundary population {edge:.3e} at t={k * t / CHECKPOINTS:.4g}; raise the cutoff"
            )
    out = FockState(amp, lost_weight=state.lost_weight)
    drift = abs(out.norm_squared() - state.norm_squared())
    if not drift <= 1e-9:
        raise TruncationOverflowError(f"norm drifted by {drift:.3e} during evolution")
    return out


def _moments(state: FockState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moments (r, alpha, c) of the state, unvalidated.

    a psi and b psi are slices of the amplitudes on their support, and each
    moment is one inner product over the common support of its factors.
    r is the Gram matrix of a psi and b psi, so it is Hermitian and
    positive semidefinite by construction; c is symmetric by construction.
    """
    if not state.boundary_population() <= BOUNDARY_POST_TOL:
        raise TruncationOverflowError(
            f"boundary population {state.boundary_population():.3e} too large to trust moments"
        )
    psi = state.amplitudes
    root = np.sqrt(np.arange(1, psi.shape[0]))
    # (a psi)[n1, n2] = sqrt(n1 + 1) psi[n1 + 1, n2] on n1 < n_max, and
    # (b psi) likewise on n2 < n_max
    a_psi = root[:, None] * psi[1:]
    b_psi = psi[:, 1:] * root
    alpha = np.array([np.vdot(psi[:-1], a_psi), np.vdot(psi[:, :-1], b_psi)])
    # r_01 = <b psi | a psi> over n1, n2 < n_max
    r01 = np.vdot(b_psi[:-1], a_psi[:, :-1])
    r = np.array([[np.vdot(a_psi, a_psi).real, r01],
                  [r01.conjugate(), np.vdot(b_psi, b_psi).real]])
    # c_kk' = <psi | a_k' a_k psi>, a_k' applied to the slice a_k psi
    c01 = np.vdot(psi[:-1, :-1], a_psi[:, 1:] * root)
    c = np.array([[np.vdot(psi[:-2], root[:-1, None] * a_psi[1:]), c01],
                  [c01, np.vdot(psi[:, :-2], b_psi[:, 1:] * root[:-1])]])
    return r, alpha, c


def measure_rsf(state: FockState) -> tuple[ReducedField, ConjugateField]:
    """Reduced and conjugate field moments of the state (``_moments``)."""
    r, alpha, c = _moments(state)
    return ReducedField(r, alpha), ConjugateField(c)


def measure_generalized(state: FockState) -> GeneralizedField:
    """Generalized field moments of the state, each moment set validated once
    (by ``from_state_moments``)."""
    return from_state_moments(*_moments(state))


def oracle_deviation(m: BogoliubovMap, initial: tuple, evolved: FockState) -> float:
    """Max deviation between the covariant update and the brute force.

    The generalized moments (g, A) of ``evolved`` are compared entrywise
    against X g X^dag and X A with (g, A) of ``initial``, the moments
    (r, alpha, c) of the state before the evolution, measured (``_moments``)
    or in closed form (``coherent_moments``); all are plain arrays in the
    layout of ``rsf.from_state_moments``.  ``m`` must be the analytic map
    of the evolution that reached ``evolved`` (see the catalog helpers
    below).
    """
    g0, a0 = _generalized_arrays(*initial)
    g1, a1 = _generalized_arrays(*_moments(evolved))
    return max(max_abs(g1 - m.x @ g0 @ m.x.conj().T), max_abs(a1 - m.x @ a0))


def oracle_check_transform(
    m: BogoliubovMap,
    initial: FockState,
    h: QuadraticHamiltonian,
    t: float,
) -> float:
    """``oracle_deviation`` of ``initial`` evolved under ``h`` for time ``t``."""
    return oracle_deviation(m, _moments(initial), evolve(initial, h, t))


def squeeze_pair(kappa: float, t: float):
    """Two-mode squeezer H = i kappa (a^dag b^dag - a b) and its map.

    Heisenberg action: a -> cosh(kappa t) a + sinh(kappa t) b^dag.
    """
    h = QuadraticHamiltonian(pair_im=kappa)
    ch, sh = np.cosh(kappa * t), np.sinh(kappa * t)
    x_up = np.array([[ch, 0.0], [0.0, ch]], dtype=complex)
    x_down = np.array([[0.0, sh], [sh, 0.0]], dtype=complex)
    return h, from_blocks(x_up, x_down, n_sys=1, n_env=1, tol=1e-10)


def beam_splitter_pair(angle: float):
    """Real-rotation beam splitter H = i angle (a^dag b - a b^dag) and its map
    over unit time.

    Heisenberg action: a -> cos(angle) a + sin(angle) b.
    """
    h = QuadraticHamiltonian(exchange_im=angle)
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


def coherent_moments(z1: complex, z2: complex = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moments (r, alpha, c) of the untruncated product coherent state
    |z1> (x) |z2> in closed form: alpha_k = z_k, r_kk' = z_k conj(z_k') and
    c_kk' = z_k z_k'."""
    z = np.array([z1, z2], dtype=complex)
    return np.outer(z, z.conj()), z, np.outer(z, z)
