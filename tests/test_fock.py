import numpy as np
import pytest

from rsfield.errors import TruncationOverflowError
from rsfield.fock import (
    FockState,
    QuadraticHamiltonian,
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
from rsfield.symplectic import identity_map

SINH2_03 = 0.09273260912113383


def dense_hamiltonian(h: QuadraticHamiltonian, n_max: int) -> np.ndarray:
    """H as a (d^2, d^2) matrix built from Kronecker ladder operators."""
    d = n_max + 1
    a1 = np.diag(np.sqrt(np.arange(1, d)), k=1)
    a, b = np.kron(a1, np.eye(d)), np.kron(np.eye(d), a1)
    ad, bd = a.T, b.T
    return (
        h.number_a * (ad @ a) + h.number_b * (bd @ b)
        + h.exchange_re * (ad @ b + a @ bd) + h.exchange_im * 1j * (ad @ b - a @ bd)
        + h.pair_re * (ad @ bd + a @ b) + h.pair_im * 1j * (ad @ bd - a @ b)
    )


def random_amplitudes(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z / np.linalg.norm(z)


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
            assert max_abs(h.apply(psi).ravel() - hm @ psi.ravel()) < 1e-12

    def test_is_hermitian(self, rng):
        h = QuadraticHamiltonian(*rng.standard_normal(6))
        phi, psi = random_amplitudes(9, rng), random_amplitudes(9, rng)
        assert abs(np.vdot(phi, h.apply(psi)) - np.vdot(h.apply(phi), psi)) < 1e-12


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        st = coherent_state(0.3, 0.0, 10)
        out = evolve(st, QuadraticHamiltonian(), 1.0)
        assert max_abs(out.amplitudes - st.amplitudes) < 1e-12

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

    def test_truncation_overflow_detected(self):
        h, _ = squeeze_pair(1.2, 1.0)  # far too much squeezing for n_max=4
        with pytest.raises(TruncationOverflowError):
            evolve(FockState.vacuum(4), h, 1.0)


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
