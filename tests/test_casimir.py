import numpy as np
import pytest

from rsfield.casimir import (
    CasimirScenario,
    VelocityProfile,
    auto_sigma,
    casimir_family,
    casimir_generator_callback,
    casimir_generators_closed_form,
    casimir_generators_extracted,
    casimir_map,
    closed_form_generators,
    growth_law_residual,
    photon_density,
    solve_modes,
)
from rsfield.cli import GROWTH_LIMIT
from rsfield.errors import ConfigError, InvariantViolationError
from rsfield.kinetics import integrate_kinetics
from rsfield.numerics import central_difference, is_psd, max_abs
from rsfield.rsf import transform_open_vacuum_env, vacuum
from rsfield.symplectic import is_classical_closed, is_classical_open


def sinusoid_scenario(theta=np.pi / 4, omega=1.0, beta0=0.2, drive=2.0, t_end=20.0):
    return CasimirScenario(
        refractive_index=1.5,
        omega=omega,
        theta=theta,
        profile=VelocityProfile.sinusoid(beta0, drive),
        t_end=t_end,
    )


def ramp_scenario():
    """Kinks of beta(t) at t = 2, 3 and 5, each on a sample of a 31-point grid."""
    return CasimirScenario(1.5, 1.0, 1.0, VelocityProfile.linear_ramp(0.3, 2.0, 1.0), 6.0)


PROFILE_CATALOG = [
    VelocityProfile.constant(0.2),
    VelocityProfile.sinusoid(0.2, 2.0),
    VelocityProfile.smooth_pulse(0.2, 10.0),
    VelocityProfile.linear_ramp(0.2, 2.0, 4.0),
]


class TestProfiles:
    def test_subluminal_enforced(self):
        with pytest.raises(ConfigError):
            VelocityProfile.constant(1.2)

    def test_smooth_pulse_is_still_outside_window(self):
        p = VelocityProfile.smooth_pulse(0.3, 5.0)
        assert p.beta(0.0) == 0.0
        assert p.beta(5.0) == 0.0
        assert p.beta(7.0) == 0.0
        assert p.beta(2.5) == pytest.approx(0.3)

    def test_kinks(self):
        assert VelocityProfile.linear_ramp(0.3, 2.0, 1.0).kinks() == (2.0, 3.0, 5.0)
        for p in (VelocityProfile.constant(0.2), VelocityProfile.sinusoid(0.2, 2.0),
                  VelocityProfile.smooth_pulse(0.2, 10.0)):
            assert p.kinks() == ()

    def test_ramp_is_continuous(self):
        p = VelocityProfile.linear_ramp(0.4, 1.0, 2.0)
        ts = np.linspace(-0.5, 5.0, 1101)
        vals = np.array([p.beta(float(t)) for t in ts])
        assert np.max(np.abs(np.diff(vals))) < 0.45 * (ts[1] - ts[0]) / 1.0 * 1.01
        assert p.beta(1.5) == pytest.approx(0.4)
        assert p.beta(4.5) == 0.0

    def test_profiles_stay_subluminal(self):
        for p in PROFILE_CATALOG:
            sup = max(abs(p.beta(t)) for t in np.linspace(0.0, 12.0, 2401))
            assert sup < 1.0


class TestAutoSigma:
    def test_still_start_gives_unity(self):
        s = sinusoid_scenario()
        assert auto_sigma(s) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_medium_gives_unity_for_any_speed(self):
        s = CasimirScenario(1.0, 1.0, 0.7, VelocityProfile.constant(0.6), 5.0)
        assert auto_sigma(s) == pytest.approx(1.0, abs=1e-15)

    def test_motion_axis_angle_gives_unity(self):
        s = CasimirScenario(1.5, 1.0, 0.0, VelocityProfile.constant(0.2), 5.0)
        assert auto_sigma(s) == pytest.approx(1.0, abs=1e-15)

    def test_perpendicular_angle_formula(self):
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.constant(0.2), 5.0)
        delta = 1.25 / 2.21
        alpha = 1.0 - delta * 0.04
        assert auto_sigma(s) == pytest.approx(alpha**0.25, rel=1e-12)

    def test_auto_sigma_kills_production_at_constant_speed(self):
        s = CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.constant(0.2), 8.0)
        sol = solve_modes(s, 17)
        assert np.max(sol.density()) < 1e-12


class TestSolveModes:
    def test_still_medium_free_phase(self):
        s = CasimirScenario(1.5, 1.3, 0.4, VelocityProfile.constant(0.0), 6.0, sigma=1.0)
        sol = solve_modes(s, 31)
        assert max_abs(sol.f_rp - np.exp(-1j * 1.3 * sol.times)) < 1e-9
        assert max_abs(sol.f_rm) < 1e-14
        assert max_abs(sol.phi) < 1e-14

    def test_constant_speed_effective_frequency(self):
        s = CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.2), 10.0)
        sol = solve_modes(s, 21)
        m = s.medium().at(0.0)
        w_eff = s.omega * np.sqrt(m.alpha * m.big_delta)
        assert np.max(sol.density()) <= 1e-12
        assert max_abs(sol.f_rp - np.exp(-1j * w_eff * sol.times)) < 1e-8

    def test_sinusoid_conserves_ccr_and_produces(self):
        sol = solve_modes(sinusoid_scenario(), 101)
        assert np.max(np.abs(sol.ccr_residual)) < 1e-9
        assert sol.density()[-1] > 1e-7

    def test_half_step_oracle_pins_production(self):
        s = sinusoid_scenario(t_end=10.0)
        coarse = solve_modes(s, 11, rtol=1e-10, atol=1e-12)
        fine = solve_modes(s, 11, rtol=1e-12, atol=1e-14)
        assert abs(coarse.density()[-1] - fine.density()[-1]) < 1e-9

    def test_motion_axis_mode_is_inert(self):
        # theta = 0 makes Delta = alpha, so sigma = 1 gives eta_minus = 0:
        # no production along the motion axis even for a sinusoidal drive.
        sol = solve_modes(sinusoid_scenario(theta=0.0, t_end=10.0), 21)
        assert np.max(sol.density()) < 1e-20

    def test_loose_tolerance_trips_invariant_gate(self):
        with pytest.raises(InvariantViolationError):
            solve_modes(sinusoid_scenario(beta0=0.5, t_end=50.0), 41, rtol=1e-3, atol=1e-6)

    def test_explicit_sample_times(self):
        s = sinusoid_scenario(t_end=5.0)
        sol = solve_modes(s, [0.0, 1.0, 4.0])
        assert sol.times.size == 3

    def test_dense_output_matches_samples(self):
        s = sinusoid_scenario(t_end=5.0)
        sol = solve_modes(s, 11)
        p = sol.at(float(sol.times[7]))
        assert abs(p.f_rp - sol.f_rp[7]) < 1e-12

    def test_helicity_pairs_are_mirror_conjugates(self):
        sol = solve_modes(sinusoid_scenario(t_end=10.0), 41)
        assert max_abs(sol.f_lm - np.conj(sol.f_rp)) < 1e-9
        assert max_abs(sol.f_lp - np.conj(sol.f_rm)) < 1e-9


class TestPhotonDensity:
    def test_initially_zero(self):
        sol = solve_modes(sinusoid_scenario(t_end=5.0), 11)
        assert photon_density(sol, 0) == (0.0, 0.0)

    def test_constant_velocity_produces_nothing(self):
        s = CasimirScenario(1.5, 1.0, 0.8, VelocityProfile.constant(0.3), 12.0)
        sol = solve_modes(s, 13)
        for i in range(13):
            n_r, n_l = photon_density(sol, i)
            assert n_r <= 1e-12 and n_l <= 1e-12

    def test_both_helicities_equal(self):
        sol = solve_modes(sinusoid_scenario(t_end=15.0), 31)
        for i in (10, 20, 30):
            n_r, n_l = photon_density(sol, i)
            assert abs(n_r - n_l) < 1e-8
            assert n_r > 0.0


class TestCasimirMap:
    def test_initial_map_is_identity(self):
        sol = solve_modes(sinusoid_scenario(t_end=5.0), 11)
        m = casimir_map(sol, 0)
        assert max_abs(m.x - np.eye(4)) < 1e-12

    def test_symplectic_residual_along_run(self):
        sol = solve_modes(sinusoid_scenario(), 51)
        for i in range(0, 51, 5):
            assert casimir_map(sol, i).symplectic_residual() <= 1e-8

    def test_constant_velocity_map_is_closed_classical(self):
        s = CasimirScenario(1.5, 1.0, 0.8, VelocityProfile.constant(0.3), 10.0)
        sol = solve_modes(s, 11)
        m = casimir_map(sol, 10)
        assert is_classical_closed(m, 1e-9)
        assert is_classical_open(m, 1e-9)

    def test_drive_breaks_closed_classicality_only(self):
        sol = solve_modes(sinusoid_scenario(), 51)
        m = casimir_map(sol, 50)
        assert not is_classical_closed(m, 1e-9)
        assert is_classical_open(m, 1e-9)

    def test_classicality_tracks_production(self):
        sol = solve_modes(sinusoid_scenario(), 51)
        for i in range(51):
            n_r, _ = photon_density(sol, i)
            closed = is_classical_closed(casimir_map(sol, i), 1e-9)
            if n_r > 1e-10:
                assert not closed

    def test_vacuum_through_map_reproduces_density(self):
        sol = solve_modes(sinusoid_scenario(t_end=10.0), 11)
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, casimir_map(sol, 10))
        assert out.r[0, 0].real == pytest.approx(sol.density()[-1], abs=1e-12)


class TestClosedFormGenerators:
    def test_still_medium(self):
        s = CasimirScenario(1.5, 1.4, 0.5, VelocityProfile.constant(0.0), 4.0, sigma=1.0)
        sol = solve_modes(s, 5)
        gen = casimir_generators_closed_form(s, sol, 3)
        assert gen.h[0, 0].real == pytest.approx(1.4, abs=1e-12)
        assert abs(gen.gamma_up[0, 0]) < 1e-14
        assert gen.gamma_down[0, 0] == 0.0

    def test_constant_speed_phase_rates(self):
        s = CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.25), 6.0)
        sol = solve_modes(s, 7)
        m = s.medium().at(0.0)
        expected_h = s.omega * (np.sqrt(m.alpha * m.big_delta) + m.delta * 0.25 * np.cos(0.6))
        for i in (0, 3, 6):
            gen = casimir_generators_closed_form(s, sol, i)
            assert gen.h[0, 0].real == pytest.approx(expected_h, abs=1e-10)
            assert abs(gen.gamma_up[0, 0]) < 1e-12

    def test_agrees_with_generic_extraction(self):
        s = sinusoid_scenario()
        sol = solve_modes(s, 41, rtol=1e-12, atol=1e-14)
        for i in range(0, 41, 4):
            t = float(sol.times[i])
            closed = casimir_generators_closed_form(s, sol, i)
            ext = casimir_generators_extracted(s, sol, t)
            assert abs(closed.h[0, 0] - ext.h[0, 0]) <= 1e-7 * s.omega
            assert abs(closed.gamma_up[0, 0] - ext.gamma_up[0, 0]) <= 1e-7 * s.omega
            assert abs(ext.gamma_down[0, 0]) <= 1e-8 * s.omega

    def test_agrees_with_finite_difference_extraction(self):
        s = sinusoid_scenario(t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        t = float(sol.times[13])
        closed = casimir_generators_closed_form(s, sol, 13)
        ext = casimir_generators_extracted(s, sol, t, use_finite_differences=True)
        assert abs(closed.h[0, 0] - ext.h[0, 0]) < 1e-5
        assert abs(closed.gamma_up[0, 0] - ext.gamma_up[0, 0]) < 1e-5

    def test_family_derivative_matches_central_difference(self):
        s = sinusoid_scenario(t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        x_up_s, _, dx_up_s, _ = casimir_family(s, sol)
        t = 4.7
        fd = central_difference(x_up_s, t, 1e-4)
        assert max_abs(fd - dx_up_s(t)) < 1e-6


class TestGrowthLaw:
    def test_still_medium_identically_zero(self):
        s = CasimirScenario(1.5, 1.0, 0.5, VelocityProfile.constant(0.0), 6.0, sigma=1.0)
        sol = solve_modes(s, 13)
        rep = growth_law_residual(s, sol)
        assert rep.max_residual <= 1e-10

    def test_constant_speed_both_sides_vanish(self):
        s = CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.constant(0.2), 6.0)
        sol = solve_modes(s, 13)
        rep = growth_law_residual(s, sol)
        assert rep.max_residual <= 1e-10

    def test_sinusoid_self_consistency(self):
        s = sinusoid_scenario()
        sol = solve_modes(s, 41, rtol=1e-12, atol=1e-14)
        rep = growth_law_residual(s, sol)
        assert rep.max_residual <= 1e-6 * rep.max_rate

    @pytest.mark.parametrize("s", [sinusoid_scenario(), ramp_scenario()])
    def test_central_stencil_away_from_kinks(self, s):
        # samples at least 2h from every kink (all inner samples of a sinusoid)
        # keep the plain central stencil, bit for bit
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        rep = growth_law_residual(s, sol)
        h = min(5e-4 / max(s.omega, s.profile.drive_frequency), s.t_end / 8.0)
        t = sol.times
        far = np.all(np.abs(t[:, None] - np.array([*s.profile.kinks(), np.inf])) >= 2 * h, 1)
        inner = far & (t - 2 * h >= 0.0) & (t + 2 * h <= s.t_end)
        f_rm = sol.at((t[inner, None] + np.array([-2, -1, 1, 2]) * h).ravel()).f_rm
        f0, f1, f2, f3 = (np.abs(f_rm.reshape(-1, 4)) ** 2).T
        assert np.array_equal(rep.density_rate[inner], (f0 - 8 * f1 + 8 * f2 - f3) / (12 * h))
        assert inner.sum() == t.size - 2 - (3 if s.profile.kinks() else 0)

    def test_ramp_kinks_meet_the_bound(self):
        # samples on each kink and 0.6 h to either side of it
        s = ramp_scenario()
        near = np.add.outer(s.profile.kinks(), [-3e-4, 0.0, 3e-4]).ravel()
        times = np.sort(np.concatenate([np.linspace(0.0, 6.0, 31), near]))
        sol = solve_modes(s, times, rtol=1e-11, atol=1e-13)
        rep = growth_law_residual(s, sol)
        assert rep.max_residual <= max(GROWTH_LIMIT * rep.max_rate, 1e-12 * s.omega)

    def test_ramp_kinks_still_catch_a_wrong_rate(self):
        s = ramp_scenario()
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        _, gamma_up = closed_form_generators(s, sol)
        at_kink = np.any(np.isclose(sol.times[:, None], s.profile.kinks()), 1)
        assert at_kink.sum() == 3
        wrong = np.where(at_kink, gamma_up * (1 + 1e-3), gamma_up)
        rep = growth_law_residual(s, sol, gamma_up=wrong)
        assert rep.max_residual > max(GROWTH_LIMIT * rep.max_rate, 1e-12 * s.omega)

    def test_rate_sign_matches_creation_rate_sign(self):
        # wherever gamma_up < 0 the density must actually be decreasing
        s = sinusoid_scenario()
        sol = solve_modes(s, 81, rtol=1e-12, atol=1e-14)
        rep = growth_law_residual(s, sol)
        floor = 1e-8 * max(rep.max_rate, 1e-30)
        for i in range(81):
            gen = casimir_generators_closed_form(s, sol, i)
            g = gen.gamma_up[0, 0].real
            if g < -floor:
                assert rep.density_rate[i] < 0.0
            if rep.density_rate[i] > floor:
                assert g > 0.0

    def test_creation_rate_psd_cross_check(self):
        # is_psd verdict on the 1x1 rate matrix tracks the density slope
        s = sinusoid_scenario(theta=np.pi / 2, t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        rep = growth_law_residual(s, sol)
        floor = 1e-6 * rep.max_rate
        for i in range(21):
            gen = casimir_generators_closed_form(s, sol, i)
            ok, witness = is_psd(gen.gamma_up, 1e-12)
            if rep.density_rate[i] > floor:
                assert ok
            if witness < -1e-12 * (1 + abs(witness)):
                assert rep.density_rate[i] < floor


class TestProfileCatalogRuns:
    def test_ccr_and_symmetry_hold_for_every_profile(self):
        # solve_modes gates these invariants internally; assert the margins
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, np.pi / 3, profile, 12.0)
            sol = solve_modes(s, 25)
            assert np.max(np.abs(sol.ccr_residual)) < 1e-9
            assert np.max(np.abs(sol.helicity_residual)) < 1e-9

    def test_only_varying_speed_produces(self):
        final = {}
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, np.pi / 3, profile, 12.0)
            sol = solve_modes(s, 13)
            final[profile.kind] = float(sol.density()[-1])
        assert final["constant"] <= 1e-12
        for kind in ("sinusoid", "smooth_pulse", "linear_ramp_windowed"):
            assert final[kind] > 1e-12

    def test_scenario_solution_mismatch_rejected(self):
        s1 = sinusoid_scenario(t_end=5.0)
        s2 = sinusoid_scenario(t_end=5.0, beta0=0.1)
        sol = solve_modes(s1, 6)
        from rsfield.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            casimir_generators_closed_form(s2, sol, 3)


class TestMediumCoefficients:
    def test_formula_relations_along_catalog(self):
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, 0.9, profile, 12.0, sigma=1.2)
            medium = s.medium()
            n2 = 1.5**2
            for t in np.linspace(0.0, 12.0, 49):
                m = medium.at(float(t))
                beta = profile.beta(float(t))
                assert 0.0 <= m.delta < 1.0
                assert m.delta == pytest.approx((n2 - 1) / (n2 - beta**2), rel=1e-14)
                assert m.alpha == pytest.approx(1 - m.delta * beta**2, rel=1e-14)
                assert m.big_delta == pytest.approx(
                    1 - m.delta * beta**2 * np.cos(0.9) ** 2, rel=1e-14
                )
                assert m.eta_plus + m.eta_minus == pytest.approx(
                    m.alpha / 1.2**2, rel=1e-12
                )
                assert m.eta_plus - m.eta_minus == pytest.approx(
                    1.2**2 * m.big_delta, rel=1e-12
                )

    def test_vacuum_medium_is_inert(self):
        s = CasimirScenario(1.0, 1.0, 0.9, VelocityProfile.sinusoid(0.6, 2.0), 6.0)
        medium = s.medium()
        for t in np.linspace(0.0, 6.0, 13):
            m = medium.at(float(t))
            assert m.delta == 0.0
            assert m.eta_minus == pytest.approx(0.0, abs=1e-15)


class TestEtaMinusCatalog:
    def test_zero_coupling_iff_constant_speed(self):
        # at a generic angle, eta_minus vanishes for all t exactly when
        # the speed never moves from its initial value
        theta = np.pi / 3
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, theta, profile, 12.0)
            medium = s.medium()
            ts = np.linspace(0.0, 12.0, 601)
            eta = max(abs(medium.at(float(t)).eta_minus) for t in ts)
            beta_dev = max(abs(profile.beta(float(t)) - profile.beta(0.0)) for t in ts)
            assert (eta <= 1e-12) == (beta_dev <= 1e-12)


class TestKineticsRoundTrip:
    def test_density_reproduced_from_vacuum(self):
        s = sinusoid_scenario(theta=np.pi / 2, t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        rf0, _ = vacuum(1)
        gen = casimir_generator_callback(s, sol)
        snaps = integrate_kinetics(
            rf0, gen, (0.0, 10.0), [5.0, 10.0], rtol=1e-12, atol=1e-14
        )
        n_direct = abs(sol.at(5.0).f_rm) ** 2
        assert abs(snaps[0].r[0, 0].real - n_direct) <= 1e-6 * max(n_direct, 1e-12)
        n_final = sol.density()[-1]
        assert abs(snaps[1].r[0, 0].real - n_final) <= 1e-6 * n_final

    def test_extracted_generator_trajectory_round_trip(self):
        s = sinusoid_scenario(theta=np.pi / 2, t_end=6.0)
        sol = solve_modes(s, 13, rtol=1e-12, atol=1e-14)
        rf0, _ = vacuum(1)

        def gen(t):
            return casimir_generators_extracted(s, sol, t)

        snaps = integrate_kinetics(rf0, gen, (0.0, 6.0), [6.0], rtol=1e-11, atol=1e-13)
        n_final = sol.density()[-1]
        assert abs(snaps[0].r[0, 0].real - n_final) <= 1e-6 * n_final


class TestFockBruteForce:
    def test_driven_pair_moments_match_map_prediction(self):
        # Evolve actual two-mode Fock amplitudes under the quadratic
        # Hamiltonian that generates the mode family and compare ALL
        # measured moments (occupations and anomalous phases) against
        # the covariant prediction of the assembled map.  The family is
        # a right-translation flow of the mode equations, so the
        # Hamiltonian coefficients come from the left generator
        # G = V' V^{-1} of the pair map on (a_R, a_L^dag), not from the
        # medium coefficients alone.
        from rsfield.fock import FockState, measure_generalized
        from rsfield.numerics import OdeProblem, solve_ode

        s = sinusoid_scenario(theta=np.pi / 2, drive=1.0, t_end=10.0)
        sol = solve_modes(s, 11, rtol=1e-12, atol=1e-14)
        medium = s.medium()
        omega = s.omega

        def pair_generator(t):
            p = sol.at(t)
            m = medium.at(t)
            fp, fm = p.f_rp, p.f_rm
            dfp = -1j * omega * (m.eta_plus * fp - m.eta_minus * fm)
            dfm = 1j * omega * (m.eta_plus * fm - m.eta_minus * fp)
            g11 = dfp * np.conj(fp) - dfm * np.conj(fm) - 1j * m.phase_rate
            g12 = -dfp * fm + dfm * fp
            g22 = -np.conj(dfm) * fm + np.conj(dfp) * fp - 1j * m.phase_rate
            return g11, g12, g22

        n_fock = 12
        d = n_fock + 1
        a1 = np.diag(np.sqrt(np.arange(1, d)), k=1)
        eye = np.eye(d)
        a_op = np.kron(a1, eye)
        b_op = np.kron(eye, a1)
        num_a = a_op.conj().T @ a_op
        num_b = b_op.conj().T @ b_op
        pair_up = a_op.conj().T @ b_op.conj().T
        pair_dn = a_op @ b_op

        def rhs(t, y):
            g11, g12, g22 = pair_generator(t)
            c1 = (1j * g11).real
            c2 = (-1j * g22).real
            mu = 1j * g12
            h_psi = (
                c1 * (num_a @ y) + c2 * (num_b @ y)
                + mu * (pair_up @ y) + np.conj(mu) * (pair_dn @ y)
            )
            return -1j * h_psi

        psi0 = np.zeros(d * d, dtype=complex)
        psi0[0] = 1.0
        psi = solve_ode(
            OdeProblem(psi0, rhs, (0.0, s.t_end), rtol=1e-11, atol=1e-13), [s.t_end]
        )[0]
        state = FockState(psi.reshape(d, d))
        assert abs(state.norm_squared() - 1.0) < 1e-9
        g_meas = measure_generalized(state).g
        m_map = casimir_map(sol, 10)
        g_vac = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        g_pred = m_map.x @ g_vac @ m_map.x.conj().T
        assert max_abs(g_meas - g_pred) < 1e-9


class TestEndpointFlag:
    def test_pulse_returns_to_rest(self):
        s = CasimirScenario(
            1.5, 1.0, np.pi / 4, VelocityProfile.smooth_pulse(0.2, 10.0), 10.0
        )
        sol = solve_modes(s, 11)
        assert sol.endpoint_velocity_mismatch() == 0.0

    def test_interrupted_drive_is_flagged(self):
        s = sinusoid_scenario(t_end=0.7)  # stops mid-swing
        sol = solve_modes(s, 8)
        assert sol.endpoint_velocity_mismatch() > 1e-3


class TestScenarioValidation:
    def test_rejects_subluminal_violation(self):
        with pytest.raises(ConfigError):
            CasimirScenario(1.5, 1.0, 0.3, VelocityProfile.constant(1.01), 5.0)

    def test_rejects_bad_index(self):
        with pytest.raises(ConfigError):
            CasimirScenario(0.8, 1.0, 0.3, VelocityProfile.constant(0.1), 5.0)

    def test_rejects_bad_angle(self):
        with pytest.raises(ConfigError):
            CasimirScenario(1.5, 1.0, 4.0, VelocityProfile.constant(0.1), 5.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            CasimirScenario(1.5, 1.0, 0.3, VelocityProfile.constant(0.1), 5.0, sigma=-1.0)
