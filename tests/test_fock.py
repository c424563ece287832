import math

import numpy as np
import pytest

from conftest import dop853
from rsfield.cli import FOCK_KEYS, FOCK_THRESHOLDS
from rsfield.errors import ConvergenceError, NonFiniteStateError, TruncationOverflowError
from rsfield.fock import (
    FockState,
    QuadraticHamiltonian,
    _boundary_population,
    _moments,
    apply_ladder,
    beam_splitter_pair,
    coherent_state,
    evolve,
    measure_generalized,
    measure_rsf,
    oracle_check_transform,
    phase_pair,
    squeeze_pair,
)
from rsfield.numerics import is_psd, max_abs
from rsfield.rsf import expect_additive
from rsfield.symplectic import from_blocks, identity_map

SINH2_03 = 0.09273260912113383


def dense_ladders(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The truncated a and b as (d^2, d^2) Kronecker products."""
    d = n_max + 1
    a1 = np.diag(np.sqrt(np.arange(1, d)), k=1)
    return np.kron(a1, np.eye(d)), np.kron(np.eye(d), a1)


def dense_hamiltonian(h: QuadraticHamiltonian, n_max: int) -> np.ndarray:
    """H as a (d^2, d^2) matrix built from Kronecker ladder operators."""
    a, b = dense_ladders(n_max)
    ad, bd = a.T, b.T
    return (
        h.number_a * (ad @ a) + h.number_b * (bd @ b)
        + h.exchange_re * (ad @ b + a @ bd) + h.exchange_im * 1j * (ad @ b - a @ bd)
        + h.pair_re * (ad @ bd + a @ b) + h.pair_im * 1j * (ad @ bd - a @ b)
    )


def random_amplitudes(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z / np.linalg.norm(z)


class TestBoundaryPopulation:
    @pytest.mark.parametrize("d", [2, 3, 12, 29])
    def test_matches_the_shell_sum(self, d, rng):
        amp = random_amplitudes(d, rng)
        shell = np.zeros((d, d), dtype=bool)
        shell[-1, :] = shell[:, -1] = True
        expected = np.sum(np.abs(amp[shell]) ** 2)
        assert abs(_boundary_population(amp) - expected) <= 1e-15 * expected


class TestLadder:
    def test_lower_annihilates_vacuum(self):
        out = apply_ladder(FockState.vacuum(5), 0, "lower")
        assert out.norm_squared() == 0.0

    def test_raise_creates_one_photon(self):
        out = apply_ladder(FockState.vacuum(5), 0, "raise")
        assert out.amplitudes[1, 0] == 1.0
        assert out.norm_squared() == pytest.approx(1.0)

    def test_ccr_expectation(self):
        # <psi| [a, a^dag] |psi> = 1 for any state clear of the boundary
        for state in (FockState.vacuum(6), FockState.number_state(2, 1, 6),
                      coherent_state(0.4, 0.2j, 12)):
            raised = apply_ladder(state, 0, "raise")
            lowered = apply_ladder(state, 0, "lower")
            aad = raised.norm_squared()  # <a^dag a psi, ...> via norms
            ada = lowered.norm_squared()
            assert aad - ada == pytest.approx(1.0, abs=1e-6)

    def test_sqrt_matrix_elements(self):
        st = FockState.number_state(3, 0, 6)
        up = apply_ladder(st, 0, "raise")
        assert up.amplitudes[4, 0] == pytest.approx(np.sqrt(4.0))
        dn = apply_ladder(st, 0, "lower")
        assert dn.amplitudes[2, 0] == pytest.approx(np.sqrt(3.0))

    def test_raise_at_cutoff_records_lost_weight(self):
        st = FockState.number_state(5, 0, 5)
        out = apply_ladder(st, 0, "raise")
        assert out.norm_squared() == 0.0
        assert out.lost_weight == pytest.approx(6.0)


class TestHamiltonianApply:
    def test_matches_dense_truncated_operator(self, rng):
        h = QuadraticHamiltonian(*rng.standard_normal(6))
        hm = dense_hamiltonian(h, 5)
        for _ in range(3):
            psi = random_amplitudes(6, rng)
            assert max_abs(h.operator(6, 1.0)(psi) - hm @ psi.ravel()) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_operator_term_by_term(self, d, rng):
        # each coefficient alone, all six and none: zero terms are skipped and
        # the edge slices hold at the smallest cutoff; amplitudes on the first
        # or last column or row alone catch a flat shift that wraps a row
        coefficients = rng.standard_normal(6)
        cases = [np.zeros(6), coefficients] + [
            np.where(np.arange(6) == i, coefficients, 0.0) for i in range(6)
        ]
        edges = [np.zeros((d, d)) for _ in range(4)]
        edges[0][:, 0] = edges[1][:, -1] = edges[2][0, :] = edges[3][-1, :] = 1.0
        scale = 0.3 - 0.7j
        for c in cases:
            h = QuadraticHamiltonian(*c)
            hm = scale * dense_hamiltonian(h, d - 1)
            apply = h.operator(d, scale)
            for support in [np.ones((d, d))] + edges:
                psi = support * random_amplitudes(d, rng)
                assert max_abs(apply(psi) - hm @ psi.ravel()) < 1e-12

    def test_each_application_returns_its_own_array(self, rng):
        # the terms share one scratch array; a result is never that array
        h = QuadraticHamiltonian(*rng.standard_normal(6))
        apply = h.operator(5, 1.0)
        phi, psi = random_amplitudes(5, rng), random_amplitudes(5, rng)
        first = apply(phi)
        kept = first.copy()
        second = apply(psi)
        assert np.array_equal(first, kept)
        assert np.array_equal(second, apply(psi))

    def test_is_hermitian(self, rng):
        h = QuadraticHamiltonian(*rng.standard_normal(6))
        apply = h.operator(9, 1.0)
        phi, psi = random_amplitudes(9, rng), random_amplitudes(9, rng)
        assert abs(np.vdot(phi, apply(psi)) - np.vdot(apply(phi), psi)) < 1e-12


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_state_rejected(self, value):
        amp = FockState.vacuum(4).amplitudes.copy()
        amp[2, 1] = value
        with pytest.raises(NonFiniteStateError):
            FockState(amp)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["number_a", "exchange_im", "pair_re", "pair_im"])
    def test_hamiltonian_rejected(self, field, value):
        # pair_im = nan once reached math.ceil in expmv as a builtin error
        with pytest.raises(NonFiniteStateError):
            QuadraticHamiltonian(**{field: value})

    @pytest.mark.parametrize("coefficients", [
        {"number_a": 1e308},
        {"exchange_re": 1.5e308, "exchange_im": 1.5e308},
        {"pair_re": 1.5e308, "pair_im": -1.5e308},
    ])
    def test_evolve_rejects_an_overflowing_norm_bound(self, coefficients):
        # 4 x 1e308 overflows, and so does the modulus of 1.5e308 (1 + i):
        # raised before H is built, whose entries would overflow with a
        # warning, not as a builtin error of abs() or of the plan
        with pytest.raises(NonFiniteStateError):
            evolve(FockState.vacuum(4), QuadraticHamiltonian(**coefficients), 1.0)

    def test_evolve_rejects_a_nan_state(self):
        # a state that bypassed validation: every check of evolve reads
        # ``not value <= limit``, so a NaN spread to the boundary fails it
        state = FockState.vacuum(6)
        amp = state.amplitudes.copy()
        amp[2, 2] = np.nan
        object.__setattr__(state, "amplitudes", amp)
        with pytest.raises(TruncationOverflowError):
            evolve(state, QuadraticHamiltonian(exchange_im=0.5), 1.0)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        st = coherent_state(0.3, 0.0, 10)
        out = evolve(st, QuadraticHamiltonian(), 1.0)
        assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_zero_time_is_identity(self):
        st = coherent_state(0.3, -0.2j, 10)
        out = evolve(st, QuadraticHamiltonian(0.7, -0.4, 0.25, -0.15, 0.12, 0.08), 0.0)
        assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_matches_dop853_with_every_coefficient(self):
        h = QuadraticHamiltonian(0.7, -0.4, 0.25, -0.15, 0.12, 0.08)
        st = coherent_state(0.3 - 0.1j, 0.2j, 12)
        out = evolve(st, h, 1.5)
        hm = dense_hamiltonian(h, 12)
        ref = dop853(lambda _t, y: -1j * (hm @ y), st.amplitudes.ravel(), (0.0, 1.5), [1.5])[0]
        assert max_abs(out.amplitudes.ravel() - ref) < 1e-11

    def test_squeeze_matches_closed_form_state(self):
        # exp(kappa t (a^dag b^dag - a b)) |0, 0> = sum_n tanh^n(kappa t) |n, n> / cosh(kappa t);
        # at n_max = 24 the truncation moves no amplitude by more than 1e-13
        h, _ = squeeze_pair(0.3, 1.0)
        out = evolve(FockState.vacuum(24), h, 1.0)
        expected = np.diag(np.tanh(0.3) ** np.arange(25) / np.cosh(0.3))
        assert max_abs(out.amplitudes - expected) < 1e-13

    def test_beam_splitter_matches_closed_form_state(self):
        # a -> cos a + sin b in the Heisenberg picture takes |1, 0> to
        # cos |1, 0> - sin |0, 1>; one photon never reaches the cutoff
        h, _ = beam_splitter_pair(0.7)
        out = evolve(FockState.number_state(1, 0, 10), h, 1.0)
        expected = np.zeros((11, 11))
        expected[1, 0], expected[0, 1] = np.cos(0.7), -np.sin(0.7)
        assert max_abs(out.amplitudes - expected) < 1e-14

    def test_passive_exchange_conserves_total_number(self):
        st = FockState.number_state(1, 0, 8)
        h = QuadraticHamiltonian(exchange_re=0.35)
        n_tot_op = np.eye(2)
        for t in (0.5, 1.0, 2.0, 4.0):
            rf, _ = measure_rsf(evolve(st, h, t))
            assert expect_additive(rf, n_tot_op) == pytest.approx(1.0, abs=1e-9)

    def test_passive_exchange_oscillates_occupation(self):
        st = FockState.number_state(1, 0, 8)
        h = QuadraticHamiltonian(exchange_re=0.35)
        occ = [measure_rsf(evolve(st, h, t))[0].r[0, 0].real for t in (0.0, 2.0, 4.5)]
        assert occ[0] == pytest.approx(1.0, abs=1e-9)
        assert occ[1] < occ[0]

    def test_active_squeeze_mean_occupation(self):
        h, _ = squeeze_pair(0.3, 1.0)
        rf, _ = measure_rsf(evolve(FockState.vacuum(12), h, 1.0))
        assert abs(rf.r[0, 0].real - SINH2_03) < 1e-6

    def test_norm_preserved(self):
        h, _ = squeeze_pair(0.3, 1.0)
        out = evolve(FockState.vacuum(12), h, 1.0)
        assert abs(out.norm_squared() - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "h, state, applications",
        [
            # one plan for the whole evolution, whose series also read the
            # checkpoints: 2 substeps stopped after 23 terms (||t H||_1 <=
            # 16.8), and 4 after 13 (39.2)
            (squeeze_pair(0.3, 1.0)[0], FockState.vacuum(28), 46),
            (beam_splitter_pair(0.7)[0], FockState.number_state(1, 0, 28), 52),
            (QuadraticHamiltonian(), FockState.vacuum(28), 0),
        ],
    )
    def test_h_applications_at_cutoff_28(self, h, state, applications, monkeypatch):
        counts = []
        build = QuadraticHamiltonian.operator

        def counting(self, d, scale):
            apply = build(self, d, scale)

            def counted(psi):
                counts.append(psi.size)
                return apply(psi)

            return counted

        monkeypatch.setattr(QuadraticHamiltonian, "operator", counting)
        evolve(state, h, 1.0)
        assert len(counts) == applications

    def test_large_norm_raises_before_h_is_applied(self, monkeypatch):
        # number_a 1e3, 1e4 and 1e5 at cutoff 4 took 0.009, 0.08 and 0.8 s;
        # 1e8 would take about two hours
        counts = []
        build = QuadraticHamiltonian.operator

        def counting(self, d, scale):
            apply = build(self, d, scale)
            return lambda psi: counts.append(1) or apply(psi)

        monkeypatch.setattr(QuadraticHamiltonian, "operator", counting)
        with pytest.raises(ConvergenceError, match="applications"):
            evolve(FockState.vacuum(4), QuadraticHamiltonian(number_a=1e8), 1.0)
        assert not counts

    def test_truncation_overflow_detected(self):
        h, _ = squeeze_pair(1.2, 1.0)  # far too much squeezing for n_max=4
        with pytest.raises(TruncationOverflowError):
            evolve(FockState.vacuum(4), h, 1.0)

    def test_crossing_seen_only_mid_evolution_is_caught(self):
        # a full turn of the beam splitter takes |1, 1> back to itself, so at
        # cutoff 3 the final state alone is exact; at cutoff 2 half of it
        # sits on the boundary shell at the first checkpoint
        h, _ = beam_splitter_pair(math.pi)
        out = evolve(FockState.number_state(1, 1, 3), h, 1.0)
        assert abs(abs(out.amplitudes[1, 1]) ** 2 - 1.0) <= 1e-15
        assert out.boundary_population() == 0.0
        with pytest.raises(TruncationOverflowError, match=r"at t=0\.125; raise the cutoff"):
            evolve(FockState.number_state(1, 1, 2), h, 1.0)

    def test_truncation_overflow_names_the_checkpoint(self):
        # squeezing 0.3 t: the n_max = 8 shell holds 3e-9 at t = 1 and 5e-5
        # at t = 2, the second of the eight checkpoints of t = 8
        h, _ = squeeze_pair(0.3, 1.0)
        with pytest.raises(TruncationOverflowError, match=r"at t=2; raise the cutoff"):
            evolve(FockState.vacuum(8), h, 8.0)


class TestOracleCheckTransform:
    def test_identity(self):
        dev = oracle_check_transform(
            identity_map(1, 1), coherent_state(0.3, -0.2, 12), QuadraticHamiltonian(), 1.0
        )
        assert dev < 1e-10

    def test_beam_splitter_on_one_photon(self):
        h, m = beam_splitter_pair(0.7)
        dev = oracle_check_transform(m, FockState.number_state(1, 0, 10), h, 1.0)
        assert dev <= 1e-8

    def test_squeeze_on_vacuum(self):
        h, m = squeeze_pair(0.3, 1.0)
        dev = oracle_check_transform(m, FockState.vacuum(12), h, 1.0)
        assert dev <= 1e-6

    def test_phase_rotation_on_coherent_state(self):
        h, m = phase_pair(0.9, 0.4, 1.3)
        dev = oracle_check_transform(m, coherent_state(0.4, 0.3j, 12), h, 1.3)
        assert dev <= 1e-8

    @pytest.mark.parametrize("check", ["squeeze", "beam_splitter"])
    def test_wrong_map_is_rejected(self, check):
        # the squeezer's map with X_down negated, and the beam splitter's map
        # at -angle, each on the state of its fock-check entry
        if check == "squeeze":
            h, m = squeeze_pair(FOCK_KEYS["squeeze"], 1.0)
            wrong = from_blocks(m.x_up, -m.x_down, n_sys=1, n_env=1)
            state = FockState.vacuum(FOCK_KEYS["cutoff"])
        else:
            h, _ = beam_splitter_pair(FOCK_KEYS["angle"])
            _, wrong = beam_splitter_pair(-FOCK_KEYS["angle"])
            state = FockState.number_state(1, 0, FOCK_KEYS["cutoff"])
        dev = oracle_check_transform(wrong, state, h, 1.0)
        assert dev > 1e4 * FOCK_THRESHOLDS[check]

    def test_doubling_cutoff_shrinks_squeeze_deviation(self):
        h, m = squeeze_pair(0.3, 1.0)
        dev_small = oracle_check_transform(m, FockState.vacuum(6), h, 1.0)
        dev_large = oracle_check_transform(m, FockState.vacuum(12), h, 1.0)
        assert dev_large < dev_small / 10.0


class TestObservableTranslation:
    def test_twenty_random_additive_observables(self, rng):
        h, _ = squeeze_pair(0.3, 1.0)
        catalog = [
            coherent_state(0.5, 0.0, 12),
            evolve(FockState.vacuum(12), h, 1.0),
            FockState.number_state(1, 2, 12),
        ]
        for state in catalog:
            rf, _ = measure_rsf(state)
            psi = state.amplitudes.ravel()
            lowered = [
                apply_ladder(state, 0, "lower").amplitudes.ravel(),
                apply_ladder(state, 1, "lower").amplitudes.ravel(),
            ]
            for _ in range(20):
                z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                o = 0.5 * (z + z.conj().T)
                # direct expectation of sum_kk' o_kk' a_k^dag a_k'
                direct = sum(
                    o[k, kp] * np.vdot(lowered[k], lowered[kp])
                    for k in range(2)
                    for kp in range(2)
                ).real
                assert abs(expect_additive(rf, o) - direct) < 1e-6

    def test_measured_occupations_stay_positive(self, rng):
        h, m = squeeze_pair(0.25, 1.0)
        hbs, _ = beam_splitter_pair(0.9)
        st = evolve(evolve(FockState.vacuum(14), h, 1.0), hbs, 1.0)
        rf, _ = measure_rsf(st)
        ok, witness = is_psd(rf.r, 1e-8)
        assert ok and witness > -1e-8


class TestComposedEvolution:
    def test_squeeze_then_rotate_matches_composed_map(self):
        # state evolves under the squeezer first, then the beam splitter;
        # the ladder-operator map composes in the same order
        from rsfield.numerics import max_abs
        from rsfield.symplectic import compose

        h_sq, m_sq = squeeze_pair(0.25, 1.0)
        h_bs, m_bs = beam_splitter_pair(0.6)
        state = evolve(evolve(FockState.vacuum(14), h_sq, 1.0), h_bs, 1.0)
        g0 = measure_generalized(FockState.vacuum(14))
        g1 = measure_generalized(state)
        total = compose(m_bs, m_sq)
        predicted = total.x @ g0.g @ total.x.conj().T
        assert max_abs(g1.g - predicted) < 1e-6


class TestMoments:
    @pytest.mark.parametrize("n_max", [3, 5, 12])
    def test_match_dense_ladder_matrices(self, n_max, rng):
        # random states with an empty n_max shell, so clear of the boundary
        ladders = dense_ladders(n_max)
        for _ in range(3):
            amp = random_amplitudes(n_max + 1, rng)
            amp[-1, :] = amp[:, -1] = 0.0
            amp /= np.linalg.norm(amp)
            r, alpha, c = _moments(FockState(amp))
            psi = amp.ravel()
            for k in range(2):
                assert abs(alpha[k] - np.vdot(psi, ladders[k] @ psi)) < 1e-14
                for kp in range(2):
                    lk, lkp = ladders[k], ladders[kp]
                    assert abs(r[k, kp] - np.vdot(psi, lkp.T @ lk @ psi)) < 1e-14
                    assert abs(c[k, kp] - np.vdot(psi, lkp @ lk @ psi)) < 1e-14


class TestMeasureRsf:
    def test_coherent_state_moments(self):
        # a coherent state is an eigenstate of both lowering operators:
        # r = |alpha><alpha| and c_kk' = alpha_k alpha_k'
        z = np.array([0.3 - 0.1j, -0.2 + 0.25j])
        rf, cf = measure_rsf(coherent_state(z[0], z[1], 10))
        assert max_abs(rf.alpha - z) < 1e-12
        assert max_abs(rf.r - np.outer(z, z.conj())) < 1e-12
        assert max_abs(cf.c - np.outer(z, z)) < 1e-12


class TestGeneralizedMeasurement:
    def test_vacuum_generalized_moments(self):
        gf = measure_generalized(FockState.vacuum(6))
        assert max_abs(gf.g - np.diag([0.0, 0.0, 1.0, 1.0])) < 1e-12

    def test_boundary_population_gate(self):
        st = FockState.number_state(5, 5, 5)
        with pytest.raises(TruncationOverflowError):
            measure_rsf(st)
