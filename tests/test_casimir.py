import dataclasses
import functools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import dop853, reference_modes
from hypothesis import given, settings
from hypothesis import strategies as st

from rsfield import casimir, cli, numerics
from rsfield.casimir import (
    GROWTH_LIMIT,
    CasimirScenario,
    VelocityProfile,
    auto_sigma,
    casimir_generator_callback,
    casimir_generators_extracted,
    casimir_map,
    casimir_maps,
    closed_form_generators,
    extracted_generators,
    floquet_exponent,
    growth_law_residual,
    solve_modes,
    solve_modes_direct,
)
from rsfield.cli import EXTRACTION_LIMIT, GAMMA_DOWN_LIMIT
from rsfield.errors import ConfigError, ConvergenceError, DimensionMismatchError
from rsfield.kinetics import extract_open_generators, integrate_kinetics
from rsfield.numerics import central_difference, is_psd, max_abs
from rsfield.rsf import transform_open_vacuum_env, vacuum
from rsfield.symplectic import (
    SYMPLECTIC_TOL,
    assemble,
    is_classical_closed,
    is_classical_open,
    roundoff_limit,
    symplectic_form,
    symplectic_residuals,
)


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


# the configs the Magnus propagator is checked on against the DOP853 reference route
REFERENCE_CONFIGS = {
    "readme_sinusoid": CasimirScenario(
        1.5, 1.0, np.pi / 4, VelocityProfile.sinusoid(0.2, 2.0), 40.0
    ),
    "resonant_t200": CasimirScenario(
        1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 200.0
    ),
    "smooth_pulse": CasimirScenario(
        1.5, 1.0, np.pi / 3, VelocityProfile.smooth_pulse(0.2, 10.0), 12.0
    ),
    "ramp_kinks_2_3_5": ramp_scenario(),
    "ramp_kinks_3_5_8": CasimirScenario(
        1.5, 1.0, 0.8, VelocityProfile.linear_ramp(0.2, 3.0, 2.0), 10.0
    ),
    "constant": CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.2), 10.0),
    "theta_zero": CasimirScenario(1.5, 1.0, 0.0, VelocityProfile.sinusoid(0.2, 2.0), 10.0),
}


def assert_matches_reference(sol, rtol, atol, slack=2.0, ref=None):
    """f, phi and n of ``sol`` within ``slack`` times the requested tolerance of
    the reference route (``ref``, or ``reference_modes`` at its default
    tolerances, whose own error is ~1e-13 relative), entry by entry; returns
    the largest gap |sol - ref| over the amplitudes and phi."""
    ref = reference_modes(sol.scenario, sol.times) if ref is None else ref
    bounds, gap = [], 0.0
    for value, expected in zip((sol.f_rp, sol.f_rm, sol.f_lp, sol.f_lm, sol.phi), ref):
        bound = slack * (atol + rtol * np.abs(expected))
        assert np.all(np.abs(value - expected) <= bound)
        bounds.append(bound)
        gap = max(gap, float(np.max(np.abs(value - expected))))
    # n = |f_R-|^2, so its error is bounded through that of f_R-
    n_ref = np.abs(ref[1]) ** 2
    assert np.all(np.abs(sol.density() - n_ref) <= bounds[1] * (2 * np.abs(ref[1]) + bounds[1]))
    return gap


PROFILE_CATALOG = [
    VelocityProfile.constant(0.2),
    VelocityProfile.sinusoid(0.2, 2.0),
    VelocityProfile.smooth_pulse(0.2, 10.0),
    VelocityProfile.linear_ramp(0.2, 2.0, 4.0),
]


PROPERTY_PROFILES = st.one_of(
    st.builds(VelocityProfile.sinusoid, st.floats(0.05, 0.5), st.floats(0.5, 3.0)),
    st.builds(VelocityProfile.smooth_pulse, st.floats(0.05, 0.5), st.floats(1.0, 8.0)),
    st.builds(
        VelocityProfile.linear_ramp, st.floats(0.05, 0.5), st.floats(0.5, 3.0), st.floats(0.0, 2.0)
    ),
)


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

    @pytest.mark.parametrize("p", PROFILE_CATALOG + [VelocityProfile.linear_ramp(0.3, 2.0, 0.0)])
    def test_array_calls_match_scalar_calls(self, p):
        edges = [0.0, p.duration, *p.kinks()]
        times = np.concatenate([np.linspace(-1.0, 13.0, 57), edges, np.nextafter(edges, 20.0)])
        batch = p.beta(times)
        assert isinstance(batch, np.ndarray) and batch.shape == times.shape
        scalars = [p.beta(float(t)) for t in times]
        assert all(type(b) is float for b in scalars)
        assert np.array_equal(batch, scalars)
        assert np.array_equal(p.beta(times[:, None]), batch[:, None])

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
        m = s.coefficients(0.0)
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

    @pytest.mark.parametrize("perturb", ["scale", "squeeze"])
    def test_step_maps_off_su11_trip_invariant_gate(self, tmp_path, capsys, monkeypatch, perturb):
        # step maps (u, v) off SU(1,1) by 1e-6 per unit time: u and v scaled
        # alike, or u scaled up and v down (det |u|^2 - |v|^2 != 1 either
        # way); the change is consistent in h, so step doubling converges
        # and the CCR gate has to catch it, after the run has written the
        # CSV that shows the violation
        real_steps = numerics.magnus_steps

        def perturbed(generator, t0, h):
            maps, increments = real_steps(generator, t0, h)
            maps[0] *= 1.0 + 1e-6 * h
            maps[1] *= 1.0 + 1e-6 * h if perturb == "scale" else 1.0 - 1e-6 * h
            return maps, increments

        monkeypatch.setattr(numerics, "magnus_steps", perturbed)
        s = sinusoid_scenario(t_end=10.0)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "refractive_index": s.refractive_index, "omega": s.omega, "theta": s.theta,
            "profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0},
            "t_end": s.t_end, "samples": 21,
        }), encoding="utf-8")
        assert cli.main(["casimir", "--config", str(config), "--out", str(tmp_path)]) == 1
        gate = re.search(r"violated: ccr_invariant \(value (\S+), limit (\S+), t=(\S+)\)",
                         capsys.readouterr().out)
        assert gate and float(gate[3]) == s.t_end  # the error grows with t
        header, *rows = (tmp_path / "casimir.csv").read_text().splitlines()
        ccr = [abs(float(r.split(",")[header.split(",").index("ccr_residual")])) for r in rows]
        assert max(ccr) > float(gate[2]) == SYMPLECTIC_TOL
        assert abs(float(gate[1])) == pytest.approx(max(ccr), rel=1e-3)

    def test_loose_tolerance_stays_within_it(self):
        # each Magnus map is exact in SU(1,1), so a loose tolerance loosens
        # accuracy only, and that as far as asked for
        s = sinusoid_scenario(beta0=0.5, t_end=50.0)
        sol = solve_modes(s, 41, rtol=1e-3, atol=1e-6)
        assert np.max(np.abs(sol.ccr_residual)) < 1e-12
        assert_matches_reference(sol, 1e-3, 1e-6, slack=1.0)

    def test_exposes_steps_and_error_estimate(self):
        # a period that takes more than one pair at the tighter tolerance: the
        # first pair holds at least numerics.FIRST_GRID_STEPS steps
        s = sinusoid_scenario(omega=5.0, t_end=40.0)
        sol = solve_modes(s, 11, rtol=1e-10, atol=1e-12)
        assert sol.steps >= 10
        peak = max(np.max(np.abs(sol.f_rp)), np.max(np.abs(sol.f_rm)), np.max(np.abs(sol.phi)))
        assert 0.0 < sol.error_estimate <= 1e-12 + 1e-10 * peak
        tighter = solve_modes(s, 11, rtol=1e-12, atol=1e-14)
        assert tighter.steps > sol.steps
        assert tighter.error_estimate < sol.error_estimate

    @pytest.mark.parametrize("samples", [2, 401, 1201])
    def test_readme_sinusoid_step_count(self, samples):
        # the direct route's grid depends on the tolerances and the profile,
        # not the samples
        s = CasimirScenario(1.5, 1.0, np.pi / 4, VelocityProfile.sinusoid(0.2, 2.0), 40.0)
        assert solve_modes_direct(s, samples, rtol=1e-11, atol=1e-13).steps == 1280

    def test_resonant_step_count(self):
        # ROADMAP's W3 medium at T=600 (n ~ 3e5), by the direct route
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 600.0)
        assert solve_modes_direct(s, 201, rtol=1e-11, atol=1e-13).steps == 38400

    @pytest.mark.parametrize("theta, profile, t_end, rtol, grids", [
        (np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 100.0, 1e-11,
         (200, 400, 800, 1600, 3200)),
        (np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 200.0, 1e-13,
         (200, 400, 800, 1600, 3200, 6400, 12800, 25600)),
        # the README medium
        (np.pi / 4, VelocityProfile.sinusoid(0.2, 2.0), 200.0, 1e-11,
         (400, 800, 1600, 3200, 6400)),
        # a long ramp: 50 up, a hold of 200, 50 down
        (np.pi / 2, VelocityProfile.linear_ramp(0.4, 50.0, 200.0), 300.0, 1e-8,
         (300, 600, 1200, 2400)),
    ])
    def test_grids_are_whole_doublings_of_the_first(
        self, theta, profile, t_end, rtol, grids
    ):
        s = CasimirScenario(1.5, 1.0, theta, profile, t_end)
        sol = solve_modes_direct(s, 201, rtol=rtol, atol=1e-2 * rtol)
        assert sol.propagator.grids == grids

    @pytest.mark.parametrize("t_end, max_steps", [(20.0, 16384), (40.0, 32768)])
    def test_tolerance_below_roundoff_stops_early(self, monkeypatch, t_end, max_steps):
        # the README sinusoid: past ~2560 steps the doubling estimate stays
        # near 1e-16, so doubling on to MAGNUS_MAX_STEPS would buy nothing
        real_propagate = numerics.propagate_magnus
        steps = []

        def counting(generator, nodes):
            steps.append(nodes.size - 1)
            return real_propagate(generator, nodes)

        monkeypatch.setattr(numerics, "propagate_magnus", counting)
        s = CasimirScenario(1.5, 1.0, np.pi / 4, VelocityProfile.sinusoid(0.2, 2.0), t_end)
        with pytest.raises(ConvergenceError, match=r"estimate .* rtol=1e-16, atol=1e-18 at \d+ steps"):
            solve_modes_direct(s, 21, rtol=1e-16, atol=1e-18)
        assert max(steps) <= max_steps

    def test_explicit_sample_times(self):
        s = sinusoid_scenario(t_end=5.0)
        sol = solve_modes(s, [0.0, 1.0, 4.0])
        assert sol.times.size == 3

    def test_dense_output_matches_samples(self):
        s = sinusoid_scenario(t_end=5.0)
        sol = solve_modes(s, 11)
        p = sol.at(float(sol.times[7]))
        assert abs(p.f_rp - sol.f_rp[7]) < 1e-12

    def test_dense_output_array_matches_scalar_calls(self):
        sol = solve_modes(sinusoid_scenario(t_end=5.0), 11)
        times = np.array([4.95, 0.0, 1.3, 5.0, 0.7, 1.3])
        batch = sol.at(times)
        for i, t in enumerate(times):
            p = sol.at(float(t))
            for name in ("f_rp", "f_rm", "phi"):
                assert getattr(p, name) == getattr(batch, name)[i]
        with pytest.raises(DimensionMismatchError):
            sol.at(np.array([0.5, 5.5]))

    def test_helicity_pairs_are_mirror_conjugates(self):
        # exactly, also past the first chunk of the prefix scan: W3 at T=600
        # propagates 27,212 steps by the direct route
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 600.0)
        sol = solve_modes_direct(s, 201, rtol=1e-11, atol=1e-13)
        assert sol.steps > numerics.MAGNUS_CHUNK
        assert np.array_equal(sol.f_lm, np.conj(sol.f_rp))
        assert np.array_equal(sol.f_lp, np.conj(sol.f_rm))


class TestPhotonDensity:
    def test_initially_zero(self):
        sol = solve_modes(sinusoid_scenario(t_end=5.0), 11)
        assert sol.density()[0] == 0.0 and abs(sol.f_lp[0]) ** 2 == 0.0

    def test_constant_velocity_produces_nothing(self):
        s = CasimirScenario(1.5, 1.0, 0.8, VelocityProfile.constant(0.3), 12.0)
        sol = solve_modes(s, 13)
        assert np.all(sol.density() <= 1e-12)
        assert np.all(np.abs(sol.f_lp) ** 2 <= 1e-12)

    def test_both_helicities_equal(self):
        sol = solve_modes(sinusoid_scenario(t_end=15.0), 31)
        n_r, n_l = sol.density()[10::10], np.abs(sol.f_lp[10::10]) ** 2
        assert np.all(np.abs(n_r - n_l) < 1e-8)
        assert np.all(n_r > 0.0)


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
        assert is_classical_closed(m)
        assert is_classical_open(m)

    def test_drive_breaks_closed_classicality_only(self):
        sol = solve_modes(sinusoid_scenario(), 51)
        m = casimir_map(sol, 50)
        assert not is_classical_closed(m)
        assert is_classical_open(m)

    def test_classicality_tracks_production(self):
        sol = solve_modes(sinusoid_scenario(), 51)
        for i in range(51):
            closed = is_classical_closed(casimir_map(sol, i))
            if sol.density()[i] > 1e-10:
                assert not closed

    @pytest.mark.parametrize("t_end", [800.0, 900.0, 1000.0])
    def test_map_builds_at_large_photon_number(self, t_end):
        # the resonant medium (W3): n = 3.4e7, 3.6e8 and 3.6e9; a correct
        # map's residual (7.5e-9, 3.7e-7 and 9.5e-7) exceeds the 1e-8 floor
        # at T=900 and 1000
        s = sinusoid_scenario(theta=np.pi / 2, beta0=0.4, drive=0.98, t_end=t_end)
        sol = solve_modes(s, 2, rtol=1e-11, atol=1e-13)
        m = casimir_map(sol, 1)
        assert sol.density()[-1] > 3e7
        assert m.symplectic_residual() <= roundoff_limit(m.scale, m.tol)
        if t_end > 800.0:
            assert SYMPLECTIC_TOL < m.symplectic_residual()
        assert not is_classical_closed(m)
        assert is_classical_open(m)

    def test_vacuum_through_map_reproduces_density(self):
        sol = solve_modes(sinusoid_scenario(t_end=10.0), 11)
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, casimir_map(sol, 10))
        assert out.r[0, 0].real == pytest.approx(sol.density()[-1], abs=1e-12)


# the README sinusoid and the resonant medium (W3) at T=600, n = 3.4e5
MAP_STACKS = {
    "readme": (sinusoid_scenario(t_end=40.0), 401),
    "w3_t600": (sinusoid_scenario(theta=np.pi / 2, beta0=0.4, drive=0.98, t_end=600.0), 201),
}


@pytest.fixture(scope="module", params=list(MAP_STACKS))
def map_stack_solution(request):
    scenario, samples = MAP_STACKS[request.param]
    return solve_modes(scenario, samples, rtol=1e-11, atol=1e-13)


def assembled_matrices(sol, index):
    """The map matrices through ``symplectic.assemble``, block by block."""
    em = np.exp(-1j * sol.phi[index])
    ep = np.conj(em)
    zero = np.zeros_like(em)
    f_rp, f_rm = sol.f_rp[index], sol.f_rm[index]
    x_up = np.stack([em * f_rp, zero, zero, ep * f_rp], -1).reshape(em.shape + (2, 2))
    x_down = np.stack([zero, em * f_rm, ep * f_rm, zero], -1).reshape(em.shape + (2, 2))
    return assemble(x_up, x_down)


class TestMapStack:
    """The per-sample map stage equals its explicit formulas bit for bit."""

    def test_matrices_are_the_assembled_blocks(self, map_stack_solution):
        sol = map_stack_solution
        for index in (slice(None), 0, len(sol.times) - 1):
            x = casimir._casimir_matrices(sol, index)
            expected = assembled_matrices(sol, index)
            assert x.shape == expected.shape
            # the parts, zeros included: the lower blocks' zeros are 0 - 0j
            assert np.array_equal(x.view(float), expected.view(float))
            assert np.array_equal(np.signbit(x.view(float)), np.signbit(expected.view(float)))

    def test_residuals_are_the_explicit_product(self, map_stack_solution):
        x, residuals = casimir_maps(map_stack_solution)
        s = symplectic_form(2)
        explicit = np.abs(x @ s @ np.swapaxes(x, -1, -2).conj() - s).max(axis=(-2, -1))
        assert np.array_equal(residuals, explicit)
        assert np.array_equal(symplectic_residuals(x[7]), explicit[7])


class TestClosedFormGenerators:
    def test_still_medium(self):
        s = CasimirScenario(1.5, 1.4, 0.5, VelocityProfile.constant(0.0), 4.0, sigma=1.0)
        sol = solve_modes(s, 5)
        h, gamma_up = closed_form_generators(sol)
        assert h[3] == pytest.approx(1.4, abs=1e-12)
        assert abs(gamma_up[3]) < 1e-14
        _, _, _, gamma_down = casimir_generator_callback(sol)(float(sol.times[3]))
        assert gamma_down[0, 0] == 0.0

    def test_constant_speed_phase_rates(self):
        s = CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.25), 6.0)
        sol = solve_modes(s, 7)
        m = s.coefficients(0.0)
        expected_h = s.omega * (np.sqrt(m.alpha * m.big_delta) + m.delta * 0.25 * np.cos(0.6))
        h, gamma_up = closed_form_generators(sol)
        assert np.all(np.abs(h[::3] - expected_h) <= 1e-10)
        assert np.all(np.abs(gamma_up[::3]) < 1e-12)

    def test_agrees_with_generic_extraction(self):
        s = sinusoid_scenario()
        sol = solve_modes(s, 41, rtol=1e-12, atol=1e-14)
        h, gamma_up = closed_form_generators(sol)
        ext_h, ext_up, ext_down = extracted_generators(sol)
        assert np.max(np.abs(h - ext_h[:, 0, 0])) <= 1e-7 * s.omega
        assert np.max(np.abs(gamma_up - ext_up[:, 0, 0])) <= 1e-7 * s.omega
        assert np.max(np.abs(ext_down)) <= 1e-8 * s.omega
        # the dense-output entry point for integrate_kinetics is the same extraction
        dense_h, _, dense_up, _ = casimir_generators_extracted(sol, sol.times[::4])
        assert np.max(np.abs(dense_h - ext_h[::4])) <= 1e-12
        assert np.max(np.abs(dense_up - ext_up[::4])) <= 1e-12

    def test_agrees_with_finite_difference_extraction(self):
        s = sinusoid_scenario(t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        h, gamma_up = closed_form_generators(sol)

        def member(k):
            return lambda t: casimir._family(sol.at(t))[k]

        ext = extract_open_generators(member(0), member(1), float(sol.times[13]))
        assert abs(h[13] - ext.h[0, 0]) < 1e-5
        assert abs(gamma_up[13] - ext.gamma_up[0, 0]) < 1e-5

    def test_family_derivative_matches_central_difference(self):
        s = sinusoid_scenario(t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)

        def family(t):
            return casimir._family(sol.at(t))

        t = 4.7
        fd = central_difference(lambda t: family(t)[0], t, 1e-4)
        assert max_abs(fd - family(t)[2]) < 1e-6


class TestGrowthLaw:
    def test_still_medium_identically_zero(self):
        s = CasimirScenario(1.5, 1.0, 0.5, VelocityProfile.constant(0.0), 6.0, sigma=1.0)
        sol = solve_modes(s, 13)
        _, residuals, _ = growth_law_residual(sol)
        assert np.max(residuals) <= 1e-10

    def test_constant_speed_both_sides_vanish(self):
        s = CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.constant(0.2), 6.0)
        sol = solve_modes(s, 13)
        _, residuals, _ = growth_law_residual(sol)
        assert np.max(residuals) <= 1e-10

    def test_sinusoid_self_consistency(self):
        s = sinusoid_scenario()
        sol = solve_modes(s, 41, rtol=1e-12, atol=1e-14)
        rates, residuals, _ = growth_law_residual(sol)
        assert np.max(residuals) <= 1e-6 * np.max(np.abs(rates))

    @pytest.mark.parametrize("s", [sinusoid_scenario(), ramp_scenario()])
    def test_central_stencil_away_from_kinks(self, s):
        # samples at least 2h from every kink (all inner samples of a sinusoid)
        # keep the plain central stencil, bit for bit
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        rates, _, _ = growth_law_residual(sol)
        h = min(5e-4 / max(s.omega, s.profile.drive_frequency), s.t_end / 8.0)
        t = sol.times
        far = np.all(np.abs(t[:, None] - np.array([*s.profile.kinks(), np.inf])) >= 2 * h, 1)
        inner = far & (t - 2 * h >= 0.0) & (t + 2 * h <= s.t_end)
        f_rm = sol.at((t[inner, None] + np.array([-2, -1, 1, 2]) * h).ravel()).f_rm
        f0, f1, f2, f3 = (np.abs(f_rm.reshape(-1, 4)) ** 2).T
        assert np.array_equal(rates[inner], (f0 - 8 * f1 + 8 * f2 - f3) / (12 * h))
        assert inner.sum() == t.size - 2 - (3 if s.profile.kinks() else 0)

    @pytest.mark.parametrize("s", [sinusoid_scenario(), ramp_scenario()])
    def test_evaluates_only_the_points_a_stencil_reads(self, s, monkeypatch):
        # a central stencil reads four points, a one-sided one five: the two
        # span edges, and on the ramp the three samples on a kink
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        points = []
        real = casimir.ModeSolution.at

        def at(self, t):
            points.append(np.size(t))
            return real(self, t)

        monkeypatch.setattr(casimir.ModeSolution, "at", at)
        growth_law_residual(sol)
        one_sided = 2 + len(s.profile.kinks())
        assert points == [4 * (31 - one_sided) + 5 * one_sided]

    def test_difference_error_is_the_half_step_estimate(self, monkeypatch):
        # a rate off by 1 at three samples puts them past the plain limit; each
        # takes its stencil again at h/2, on its own side: the forward edge, a
        # central sample and the backward edge read 5 + 4 + 5 points, and the
        # central estimate 16/15 |rate(h) - rate(h/2)| joins that sample's limit
        s = sinusoid_scenario()
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        _, gamma_up = closed_form_generators(sol)
        over = [0, 15, 30]
        gamma_up[over] += 1.0
        points = []
        real = casimir.ModeSolution.at

        def at(self, t):
            points.append(np.size(t))
            return real(self, t)

        monkeypatch.setattr(casimir.ModeSolution, "at", at)
        rates, residuals, limits = growth_law_residual(sol, gamma_up=gamma_up)
        assert points == [4 * 29 + 5 * 2, 14]
        monkeypatch.undo()
        plain = max(GROWTH_LIMIT * np.max(np.abs(rates)), 1e-12 * s.omega)
        assert np.all(np.delete(limits, over) == plain)
        h = 5e-4 / s.profile.drive_frequency
        f0, f1, f2, f3 = real(sol, sol.times[15] + np.array([-1, -0.5, 0.5, 1]) * h).density()
        half = (f0 - 8 * f1 + 8 * f2 - f3) / (6 * h)
        assert limits[15] == plain + abs(rates[15] - half) * (16.0 / 15.0)
        # a smooth run's difference error is far below the gate's 1e-6
        # relative, so it does not hide the wrong rates
        assert np.max(limits - plain) < 1e-8 * np.max(np.abs(rates))
        assert np.all(residuals[over] > limits[over])

    def test_ramp_kinks_meet_the_bound(self):
        # samples on each kink and 0.6 h to either side of it
        s = ramp_scenario()
        near = np.add.outer(s.profile.kinks(), [-3e-4, 0.0, 3e-4]).ravel()
        times = np.sort(np.concatenate([np.linspace(0.0, 6.0, 31), near]))
        sol = solve_modes(s, times, rtol=1e-11, atol=1e-13)
        rates, residuals, _ = growth_law_residual(sol)
        assert np.max(residuals) <= max(GROWTH_LIMIT * np.max(np.abs(rates)), 1e-12 * s.omega)

    def test_ramp_kinks_still_catch_a_wrong_rate(self):
        s = ramp_scenario()
        sol = solve_modes(s, 31, rtol=1e-11, atol=1e-13)
        _, gamma_up = closed_form_generators(sol)
        at_kink = np.any(np.isclose(sol.times[:, None], s.profile.kinks()), 1)
        assert at_kink.sum() == 3
        wrong = np.where(at_kink, gamma_up * (1 + 1e-3), gamma_up)
        rates, residuals, limits = growth_law_residual(sol, gamma_up=wrong)
        assert np.max(residuals) > max(GROWTH_LIMIT * np.max(np.abs(rates)), 1e-12 * s.omega)
        # the difference error does not hide a moved rate (the last kink's is 0)
        moved = wrong != gamma_up
        assert moved.sum() == 2 and np.all(residuals[moved] > limits[moved])

    def test_rate_sign_matches_creation_rate_sign(self):
        # wherever gamma_up < 0 the density must actually be decreasing
        s = sinusoid_scenario()
        sol = solve_modes(s, 81, rtol=1e-12, atol=1e-14)
        rates, _, _ = growth_law_residual(sol)
        floor = 1e-8 * max(np.max(np.abs(rates)), 1e-30)
        _, gamma_up = closed_form_generators(sol)
        assert np.all(rates[gamma_up < -floor] < 0.0)
        assert np.all(gamma_up[rates > floor] > 0.0)

    def test_creation_rate_psd_cross_check(self):
        # is_psd verdict on the 1x1 rate matrix tracks the density slope
        s = sinusoid_scenario(theta=np.pi / 2, t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        rates, _, _ = growth_law_residual(sol)
        floor = 1e-6 * np.max(np.abs(rates))
        _, _, gamma_up, _ = casimir_generator_callback(sol)(sol.times)
        for i in range(21):
            ok, witness = is_psd(gamma_up[i], 1e-12)
            if rates[i] > floor:
                assert ok
            if witness < -1e-12 * (1 + abs(witness)):
                assert rates[i] < floor


class TestProfileCatalogRuns:
    def test_ccr_and_symmetry_hold_for_every_profile(self):
        # the CCR margin; the helicity symmetry holds by representation
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, np.pi / 3, profile, 12.0)
            sol = solve_modes(s, 25)
            assert np.max(np.abs(sol.ccr_residual)) < 1e-9

    def test_only_varying_speed_produces(self):
        final = {}
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, np.pi / 3, profile, 12.0)
            sol = solve_modes(s, 13)
            final[profile.kind] = float(sol.density()[-1])
        assert final["constant"] <= 1e-12
        for kind in ("sinusoid", "smooth_pulse", "linear_ramp_windowed"):
            assert final[kind] > 1e-12


class TestExactNoProduction:
    # the production-free cases hold exactly, not just to a tolerance, in
    # every column the CLI writes
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        profile=PROPERTY_PROFILES,
        refractive_index=st.floats(1.0, 2.5),
        theta=st.sampled_from([0.0, np.pi]),
        t_end=st.floats(1.0, 10.0),
    )
    def test_motion_axis_with_auto_sigma(self, profile, refractive_index, theta, t_end):
        # theta in {0, pi} makes Delta = alpha bitwise, so auto sigma = 1 and
        # eta_minus = 0: every Magnus step map is diagonal
        s = CasimirScenario(refractive_index, 1.0, theta, profile, t_end)
        cols = cli._casimir_columns(solve_modes(s, 21, rtol=1e-10, atol=1e-12))
        for name in ("re_fRm", "im_fRm", "n_density", "gamma_up"):
            assert np.all(cols[name] == 0.0), name
        assert np.all(cols["classical_closed"])

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        beta0=st.floats(-0.9, 0.9),
        refractive_index=st.floats(1.0, 2.5),
        theta=st.floats(0.0, np.pi),
        t_end=st.floats(1.0, 40.0),
    )
    def test_constant_profile(self, beta0, refractive_index, theta, t_end):
        s = CasimirScenario(refractive_index, 1.0, theta, VelocityProfile.constant(beta0), t_end)
        cols = cli._casimir_columns(solve_modes(s, 21, rtol=1e-10, atol=1e-12))
        assert np.max(cols["n_density"]) <= 1e-24


class TestMediumCoefficients:
    def test_formula_relations_along_catalog(self):
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, 0.9, profile, 12.0, sigma=1.2)
            n2 = 1.5**2
            for t in np.linspace(0.0, 12.0, 49):
                m = s.coefficients(float(t))
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
        for t in np.linspace(0.0, 6.0, 13):
            m = s.coefficients(float(t))
            assert m.delta == 0.0
            assert m.eta_minus == pytest.approx(0.0, abs=1e-15)


class TestEtaMinusCatalog:
    def test_zero_coupling_iff_constant_speed(self):
        # at a generic angle, eta_minus vanishes for all t exactly when
        # the speed never moves from its initial value
        theta = np.pi / 3
        for profile in PROFILE_CATALOG:
            s = CasimirScenario(1.5, 1.0, theta, profile, 12.0)
            ts = np.linspace(0.0, 12.0, 601)
            eta = max(abs(s.coefficients(float(t)).eta_minus) for t in ts)
            beta_dev = max(abs(profile.beta(float(t)) - profile.beta(0.0)) for t in ts)
            assert (eta <= 1e-12) == (beta_dev <= 1e-12)


class TestKineticsRoundTrip:
    def test_density_reproduced_from_vacuum(self):
        s = sinusoid_scenario(theta=np.pi / 2, t_end=10.0)
        sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
        rf0, _ = vacuum(1)
        gen = casimir_generator_callback(sol)
        r, _ = integrate_kinetics(
            rf0, gen, 0.0, [5.0, 10.0], rtol=1e-12, atol=1e-14
        )
        n_direct = abs(sol.at(5.0).f_rm) ** 2
        assert abs(r[0][0, 0].real - n_direct) <= 1e-6 * max(n_direct, 1e-12)
        n_final = sol.density()[-1]
        assert abs(r[1][0, 0].real - n_final) <= 1e-6 * n_final

    def test_extracted_generator_trajectory_round_trip(self):
        s = sinusoid_scenario(theta=np.pi / 2, t_end=6.0)
        sol = solve_modes(s, 13, rtol=1e-12, atol=1e-14)
        rf0, _ = vacuum(1)

        def gen(t):
            return casimir_generators_extracted(sol, t)

        r, _ = integrate_kinetics(rf0, gen, 0.0, [6.0], rtol=1e-11, atol=1e-13)
        n_final = sol.density()[-1]
        assert abs(r[0][0, 0].real - n_final) <= 1e-6 * n_final


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

        s = sinusoid_scenario(theta=np.pi / 2, drive=1.0, t_end=10.0)
        sol = solve_modes(s, 11, rtol=1e-12, atol=1e-14)
        omega = s.omega

        def pair_generator(t):
            p = sol.at(t)
            m = s.coefficients(t)
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
        psi = dop853(rhs, psi0, (0.0, s.t_end), [s.t_end], rtol=1e-11, atol=1e-13)[0]
        state = FockState(psi.reshape(d, d))
        assert abs(state.norm_squared() - 1.0) < 1e-9
        g_meas = measure_generalized(state).g
        m_map = casimir_map(sol, 10)
        g_vac = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        g_pred = m_map.x @ g_vac @ m_map.x.conj().T
        assert max_abs(g_meas - g_pred) < 1e-9


# the media of TestSigmaFrame, each at sigma = "auto"
FRAME_MEDIA = {
    "sinusoid": sinusoid_scenario(),
    "constant": CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.constant(0.5), 40.0),
    "pulse": CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.smooth_pulse(0.4, 10.0), 15.0),
    "ramp": CasimirScenario(1.5, 1.0, 0.9, VelocityProfile.linear_ramp(0.3, 2.0, 1.0), 6.0),
}
FRAME_SIGMAS = (0.8, 1.3, 20.0, 0.05, 0.014, 30.0)
# the configs of the comparison set whose explicit sigma, 20 to 71 times from
# "auto", stalled the solver when it integrated each sigma's own equations
FAR_FRAMES = ["readme_sigma_20", "readme_sigma_0.05", "still_sigma_0.014", "still_sigma_30"]
COMPARISON = Path(__file__).resolve().parent / "comparison" / "casimir"


def frame_factor(s: CasimirScenario) -> float:
    """e^(2|c|), c = ln(sigma_auto / sigma): the norm of the map to sigma's frame."""
    ratio = auto_sigma(s) / s.resolved_sigma
    return max(ratio, 1.0 / ratio) ** 2


class TestSigmaFrame:
    """sigma only conjugates: U_sigma = B(c) U_auto B(-c), B(c) = exp(c sigma_x)."""

    @pytest.mark.parametrize("sigma", [0.8, 1.3])
    @pytest.mark.parametrize("name", sorted(FRAME_MEDIA))
    def test_explicit_sigma_matches_its_own_equations(self, name, sigma):
        # the reference integrates sigma's own mode equations
        s = dataclasses.replace(FRAME_MEDIA[name], sigma=sigma)
        sol = solve_modes(s, 41, rtol=1e-10, atol=1e-12)
        k = frame_factor(s)
        assert_matches_reference(sol, 1e-10 * k, 1e-12 * k)
        auto = solve_modes(FRAME_MEDIA[name], 41, rtol=1e-10, atol=1e-12)
        assert sol.error_estimate == pytest.approx(auto.error_estimate * k, rel=1e-14)
        # conjugation keeps the real parts, phi and the step count
        assert np.array_equal(sol.f_rp.real, auto.f_rp.real)
        assert np.array_equal(sol.f_rm.real, auto.f_rm.real)
        assert np.array_equal(sol.phi, auto.phi) and sol.steps == auto.steps

    @pytest.mark.parametrize("name", FAR_FRAMES)
    def test_far_frame_runs_and_matches_its_own_equations(self, name, tmp_path):
        path = COMPARISON / f"{name}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["casimir", "--config", str(path), "--out", str(tmp_path)]) == 0
        cfg = cli.parse_casimir_config(json.loads(path.read_text()))
        sol = cli._solve(cfg)
        ref = reference_modes(sol.scenario, sol.times)
        scale = max(float(np.max(np.abs(f))) for f in ref[:4])
        for value, expected in zip((sol.f_rp, sol.f_rm, sol.f_lp, sol.f_lm, sol.phi), ref):
            assert np.max(np.abs(value - expected)) <= 1e-8 * scale

    def test_no_explicit_sigma_reaches_the_solver(self):
        s = FRAME_MEDIA["pulse"]
        t = np.linspace(0.0, s.t_end, 7)
        auto = casimir._mode_generator(s)(t)
        for sigma in FRAME_SIGMAS:
            again = casimir._mode_generator(dataclasses.replace(s, sigma=sigma))(t)
            assert all(np.array_equal(a, b) for a, b in zip(auto, again))

    @pytest.mark.parametrize("name", sorted(FRAME_MEDIA))
    def test_instantaneous_density_does_not_depend_on_sigma(self, name):
        s = FRAME_MEDIA[name]
        auto = solve_modes(s, 11).final_instantaneous_density()
        for sigma in FRAME_SIGMAS:
            sol = solve_modes(dataclasses.replace(s, sigma=sigma), 11)
            assert sol.final_instantaneous_density() == auto
        if name == "constant":
            assert auto == 0.0
        elif name == "sinusoid":  # the drive stops mid-swing: not the sigma-frame number
            assert abs(auto - solve_modes(s, 11).density()[-1]) > 1e-6
        else:  # the medium is at rest again at T, in the frame of sigma = "auto"
            assert auto == pytest.approx(solve_modes(s, 11).density()[-1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("sigma", ["auto", *FRAME_SIGMAS])
    @pytest.mark.parametrize("theta", [0.0, 0.9, np.pi / 2])
    def test_no_photons_in_the_vacuum_at_constant_speed(self, theta, sigma):
        # zero up to the roundoff of eta_minus = 0 at sigma_auto, (eps omega T)^2
        s = CasimirScenario(1.5, 1.0, theta, VelocityProfile.constant(0.5), 10.0, sigma=sigma)
        assert solve_modes(s, 5).final_instantaneous_density() <= (1e-15 * s.t_end) ** 2

    def test_floquet_exponent_does_not_depend_on_sigma(self):
        s = sinusoid_scenario(theta=np.pi / 2, beta0=0.4, drive=0.98, t_end=30.0)
        mu = floquet_exponent(solve_modes(s, 11))
        assert mu > 0.0
        for sigma in FRAME_SIGMAS:
            assert floquet_exponent(solve_modes(dataclasses.replace(s, sigma=sigma), 11)) == mu


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

    @pytest.mark.parametrize("key", ["refractive_index", "omega", "theta", "t_end", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_scenario_numbers(self, key, value):
        # nan passes every comparison and inf reached numpy before
        args = {"refractive_index": 1.5, "omega": 1.0, "theta": 0.3,
                "profile": VelocityProfile.constant(0.1), "t_end": 5.0, key: value}
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            CasimirScenario(**args)

    @pytest.mark.parametrize("key", ["beta0", "drive_frequency", "duration", "ramp_time",
                                     "hold_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_profile_numbers(self, key, value):
        args = {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0, key: value}
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            VelocityProfile(**args)

    def test_numpy_integer_sample_count(self):
        s = sinusoid_scenario(t_end=5.0)
        sol = solve_modes(s, np.int64(11))
        assert np.array_equal(sol.times, np.linspace(0.0, 5.0, 11))
        assert np.array_equal(sol.f_rm, solve_modes(s, 11).f_rm)

    @pytest.mark.parametrize("samples", [11.0, np.float64(11.0), "11", np.int64(1)],
                             ids=["float", "numpy_float", "string", "numpy_one"])
    def test_rejects_a_scalar_that_is_no_sample_count(self, samples):
        with pytest.raises(ConfigError):
            solve_modes(sinusoid_scenario(t_end=5.0), samples)


class TestReferenceRoute:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_matches_dop853_reference(self, name):
        s = REFERENCE_CONFIGS[name]
        sol = solve_modes(s, 41, rtol=1e-10, atol=1e-12)
        assert_matches_reference(sol, 1e-10, 1e-12)

    def test_observed_order_is_six(self):
        # fixed grids, no error control: halving h divides the error by ~64
        s = CasimirScenario(1.5, 1.0, np.pi / 4, VelocityProfile.sinusoid(0.4, 2.0), 10.0)
        ref = np.array(reference_modes(s, [s.t_end]))[:, 0]
        generator = casimir._mode_generator(s)
        errors = []
        for steps in (40, 80, 160):
            nodes = np.linspace(0.0, s.t_end, steps + 1)
            (u, v), phi = numerics.propagate_magnus(generator, nodes)
            # (f_R+, f_R-, f_L+, f_L-) = (u, conj v, v, conj u); the reference
            # propagates the left pair on its own
            final = np.array([u[-1], np.conj(v[-1]), v[-1], np.conj(u[-1]), phi[-1]])
            errors.append(np.max(np.abs(final - ref)))
        assert errors[-1] > 1e-12  # above the reference's own error
        assert errors[0] / errors[1] >= 40.0 and errors[1] / errors[2] >= 40.0

    def test_kinks_are_nodes(self, monkeypatch):
        # kinks at t = 2, 2.7 and 4.7, off any uniform grid over [0, 6.1]: a
        # Magnus step across a corner of beta(t) is only second order
        s = CasimirScenario(1.5, 1.0, 1.0, VelocityProfile.linear_ramp(0.3, 2.0, 0.7), 6.1)
        sol = solve_modes(s, 31)
        assert sol.steps <= 1024
        assert set(s.profile.kinks()) <= set(sol.propagator.nodes.tolist())
        assert_matches_reference(sol, 1e-10, 1e-12)
        monkeypatch.setattr(casimir, "_breakpoints", lambda s: [0.0, s.t_end])
        assert solve_modes(s, 31).steps > 8192


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    profile=PROPERTY_PROFILES,
    refractive_index=st.floats(1.0, 2.5),
    theta=st.floats(0.0, np.pi),
    t_end=st.floats(1.0, 10.0),
)
def test_invariants_and_reference_over_profiles(profile, refractive_index, theta, t_end):
    s = CasimirScenario(refractive_index, 1.0, theta, profile, t_end)
    sol = solve_modes(s, 21, rtol=1e-10, atol=1e-12)
    scale = 1.0 + np.abs(sol.f_rp) ** 2
    assert np.all(np.abs(sol.ccr_residual) <= 1e-13 * scale)
    h, gamma_up = closed_form_generators(sol)
    rates, residuals, _ = growth_law_residual(sol, gamma_up=gamma_up)
    assert np.max(residuals) <= max(GROWTH_LIMIT * np.max(np.abs(rates)), 1e-12 * s.omega)
    ext_h, ext_up, ext_down = extracted_generators(sol)
    assert np.max(np.abs(h - ext_h[:, 0, 0])) <= EXTRACTION_LIMIT * s.omega
    assert np.max(np.abs(gamma_up - ext_up[:, 0, 0])) <= EXTRACTION_LIMIT * s.omega
    assert np.max(np.abs(ext_down)) <= GAMMA_DOWN_LIMIT * s.omega
    assert_matches_reference(sol, 1e-10, 1e-12)


def w3_scenario(t_end):
    """ROADMAP's resonant medium W3: theta = pi/2, beta0 = 0.4, drive 0.98."""
    return sinusoid_scenario(theta=np.pi / 2, beta0=0.4, drive=0.98, t_end=t_end)


def sample_times(s, samples):
    return np.linspace(0.0, s.t_end, samples) if np.ndim(samples) == 0 else samples


# sinusoids the Floquet route is checked on: (scenario, samples, rtol), at
# atol = rtol / 100
FLOQUET_CONFIGS = {
    "readme_t200": (sinusoid_scenario(t_end=200.0), 201, 1e-11),
    "w3_t600": (w3_scenario(600.0), 201, 1e-11),
    "w3_t1000": (w3_scenario(1000.0), 201, 1e-11),
    "theta_pi4_t400": (sinusoid_scenario(beta0=0.4, drive=0.98, t_end=400.0), 201, 1e-10),
    # outside every resonance zone: |Re u_M| = 0.9996
    "stable_zone": (sinusoid_scenario(theta=np.pi / 2, beta0=0.4, drive=1.5, t_end=300.0),
                    201, 1e-11),
    # K = 2, the fewest whole periods the route takes
    "two_periods": (sinusoid_scenario(t_end=2.5 * np.pi), 201, 1e-11),
    # T = 10 P, sampled at every kP
    "whole_periods": (sinusoid_scenario(t_end=10 * np.pi), np.arange(11) * np.pi, 1e-11),
}


@functools.cache
def floquet_reference(name):
    """DOP853 at its tightest tolerance: at the default 1e-13 its own error on
    W3 at T=600, 6e-10, would hide the Floquet route's (5e-11)."""
    s, samples, _ = FLOQUET_CONFIGS[name]
    return reference_modes(s, sample_times(s, samples), rtol=2.5e-14, atol=1e-17)


class TestFloquetRoute:
    @pytest.mark.parametrize("name", sorted(FLOQUET_CONFIGS))
    def test_matches_dop853_reference(self, name):
        s, samples, rtol = FLOQUET_CONFIGS[name]
        sol = solve_modes(s, samples, rtol=rtol, atol=1e-2 * rtol)
        assert isinstance(sol.propagator, numerics.FloquetSolution)
        gap = assert_matches_reference(sol, rtol, 1e-2 * rtol, slack=1.0,
                                       ref=floquet_reference(name))
        # the composed estimate accounts for the error it reports
        assert sol.error_estimate >= 0.5 * gap

    @pytest.mark.parametrize("name, cycles", [("two_periods", 2), ("whole_periods", 10)])
    def test_whole_periods_in_the_span(self, name, cycles):
        s, samples, _ = FLOQUET_CONFIGS[name]
        sol = solve_modes(s, samples, rtol=1e-11, atol=1e-13)
        assert sol.propagator.cycles == cycles
        if name == "whole_periods":  # the sample at kP is M^k itself
            powers = sol.propagator.powers
            assert np.array_equal(sol.f_rp[1:], powers[0, 1:])

    @pytest.mark.parametrize("scenario, grids", [
        (w3_scenario(600.0), (224, 448)),
        (sinusoid_scenario(t_end=40.0), (160, 320)),
        (sinusoid_scenario(t_end=200.0), (208, 416)),
    ], ids=["w3_t600", "readme_t40", "readme_t200"])
    def test_period_grids(self, scenario, grids):
        # one period, from steps K^(1/6) shorter than the direct route's first
        # grid, doubled up to numerics.FIRST_GRID_STEPS; W3 at T=600 propagates
        # 672 steps against the direct 76,200
        sol = solve_modes(scenario, 201, rtol=1e-11, atol=1e-13)
        assert sol.propagator.grids == grids
        assert sol.steps == grids[-1]

    def test_dense_output_matches_direct_route_across_period_ends(self):
        # the growth-law stencil's points around every kP, on both sides
        s = w3_scenario(600.0)
        floquet = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        direct = solve_modes_direct(s, 201, rtol=1e-11, atol=1e-13)
        period, h = 2.0 * np.pi / 0.98, 5e-4 / 1.0
        ends = period * np.arange(1, floquet.propagator.cycles + 1)
        times = (ends[:, None] + h * np.arange(-2, 3)).ravel()
        got, expected = floquet.at(times), direct.at(times)
        for name in ("f_rp", "f_rm", "phi"):
            x, y = getattr(got, name), getattr(expected, name)
            assert np.all(np.abs(x - y) <= 2.0 * (1e-13 + 1e-11 * np.abs(y)))

    @pytest.mark.parametrize("s", [
        sinusoid_scenario(t_end=1.9 * np.pi),  # K = 1
        ramp_scenario(),
        CasimirScenario(1.5, 1.0, np.pi / 3, VelocityProfile.smooth_pulse(0.2, 10.0), 12.0),
        CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.2), 10.0),
    ], ids=["sinusoid_one_period", "ramp", "pulse", "constant"])
    def test_other_runs_take_the_direct_route(self, s):
        sol, direct = solve_modes(s, 21), solve_modes_direct(s, 21)
        assert isinstance(sol.propagator, numerics.MagnusSolution)
        assert sol.propagator.grids == direct.propagator.grids
        for name in ("f_rp", "f_rm", "phi"):
            assert np.array_equal(getattr(sol, name), getattr(direct, name))

    def test_roundoff_past_the_tolerance_takes_the_direct_route(self):
        # the README sinusoid over 63 periods: the period's CCR defect, about
        # 4e-15, puts the roundoff of M^63 near 2.7e-13, past rtol 1e-13; the
        # composed values do miss the direct route's by 1.2 tolerances there,
        # while the step-doubling estimate alone reads 1e-15
        s = sinusoid_scenario(t_end=200.0)
        times = np.linspace(0.0, s.t_end, 201)
        generator = casimir._mode_generator(s)
        with pytest.raises(ConvergenceError, match="roundoff"):
            numerics.solve_floquet(generator, np.pi, s.t_end, 0.5, times, 1e-13, 1e-15)
        sol = solve_modes(s, 201, rtol=1e-13, atol=1e-15)
        direct = solve_modes_direct(s, 201, rtol=1e-13, atol=1e-15)
        assert isinstance(sol.propagator, numerics.MagnusSolution)
        assert np.array_equal(sol.f_rp, direct.f_rp)

    def test_tolerance_below_roundoff_raises_the_direct_routes_error(self):
        s = sinusoid_scenario(t_end=20.0)
        with pytest.raises(ConvergenceError, match=r"estimate .* rtol=1e-16, atol=1e-18 at \d+ steps"):
            solve_modes(s, 21, rtol=1e-16, atol=1e-18)

    def test_missed_composed_estimate_solves_the_period_again(self):
        # theta = pi/2, beta0 = 0.6, drive 0.98 over 62 periods: the pair
        # (208, 416) meets rtol / K on the period's nodes, but its composed
        # values miss, so the period's grid doubles on from there, one
        # ladder (a fresh solve of the period at tighter tolerances took
        # (208, 416, 152, 304, 608), 1688 steps).  In this stable zone both
        # routes differ from DOP853 by about 1e-13 on the small f_R-, so the
        # direct route is the reference
        s = sinusoid_scenario(theta=np.pi / 2, beta0=0.6, drive=0.98, t_end=400.0)
        sol = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        assert isinstance(sol.propagator, numerics.FloquetSolution)
        grids = sol.propagator.grids
        assert grids[:2] == (208, 416) and len(grids) > 2
        assert all(b == 2 * a for a, b in zip(grids, grids[1:]))
        assert sum(grids) < 1688
        direct = solve_modes_direct(s, 201, rtol=1e-11, atol=1e-13)
        for name in ("f_rp", "f_rm", "phi"):
            x, y = getattr(sol, name), getattr(direct, name)
            assert np.all(np.abs(x - y) <= 1e-13 + 1e-11 * np.abs(y))

    @pytest.mark.parametrize("s", [
        w3_scenario(600.0), sinusoid_scenario(theta=np.pi / 2, beta0=0.6, drive=0.98, t_end=400.0),
    ], ids=["w3_t600", "composed_miss"])
    def test_composes_the_accepted_pair_once(self, monkeypatch, s):
        # every grid propagated takes one prefix scan per chunk of steps, and
        # every pair whose period nodes pass composes both of its solutions,
        # one scan of the K monodromy powers each; the accepted pair's fine
        # solution is the one returned, so no further scan follows
        scans, built = [], []
        prefix, init = numerics._prefix_products, numerics.FloquetSolution.__init__

        def counting_scan(maps, u0):
            scans.append(maps.shape[-1])
            return prefix(maps, u0)

        def counting_init(self, period, end):
            built.append(self)
            init(self, period, end)

        monkeypatch.setattr(numerics, "_prefix_products", counting_scan)
        monkeypatch.setattr(numerics.FloquetSolution, "__init__", counting_init)
        sol = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        grids = sol.propagator.grids
        assert len(scans) == sum(math.ceil(g / numerics.MAGNUS_CHUNK) for g in grids) + len(built)
        assert sol.propagator is built[-2]  # each check builds the fine solution first
        # the values are those of a solution built again from the accepted
        # period, bit for bit
        period = sol.propagator.period
        again = numerics.FloquetSolution(numerics.MagnusSolution(
            casimir._mode_generator(s), period.nodes, period.u, period.integral,
            sol.error_estimate, grids), s.t_end)
        assert np.array_equal(again.powers, sol.propagator.powers)
        (f_rp, v), phi = again.at(sol.times)
        assert np.array_equal(f_rp, sol.f_rp) and np.array_equal(np.conj(v), sol.f_rm)
        assert np.array_equal(phi, sol.phi)
        assert sol.error_estimate > 0.0 and len(grids) >= 2


# solves whose first grid the floor numerics.FIRST_GRID_STEPS raises, or not
FIRST_GRID_CONFIGS = {
    "w3_t600": (solve_modes, w3_scenario(600.0), 1e-11),  # period 14 -> 224
    "readme_t40": (solve_modes, sinusoid_scenario(t_end=40.0), 1e-11),  # 10 -> 160
    "readme_t40_direct": (solve_modes_direct, sinusoid_scenario(t_end=40.0), 1e-11),
    "w3_t100_direct": (solve_modes_direct, w3_scenario(100.0), 1e-11),
    "w3_t600_direct": (solve_modes_direct, w3_scenario(600.0), 1e-11),  # 600: kept
    "slow_drive": (solve_modes, sinusoid_scenario(drive=0.1, t_end=200.0), 1e-11),  # 76 -> 152
    "ramp": (solve_modes, ramp_scenario(), 1e-10),  # segments (2, 1, 2, 1) -> 192
    "pulse": (solve_modes, REFERENCE_CONFIGS["smooth_pulse"], 1e-10),
}


def _grids_and_solution(monkeypatch, name, floor):
    solve, s, rtol = FIRST_GRID_CONFIGS[name]
    monkeypatch.setattr(numerics, "FIRST_GRID_STEPS", floor)
    sol = solve(s, 201, rtol=rtol, atol=1e-2 * rtol)
    return sol.propagator.grids, sol


class TestFirstGrid:
    @pytest.mark.parametrize("name", sorted(FIRST_GRID_CONFIGS))
    def test_grids_are_the_ladder_from_its_first_rung_at_the_floor(self, monkeypatch, name):
        # the ladder N0 2^j of the first grid N0 loses only its rungs below
        # the floor F, and from there on the grids are the same
        floor = numerics.FIRST_GRID_STEPS
        plain, _ = _grids_and_solution(monkeypatch, name, 1)
        grids, _ = _grids_and_solution(monkeypatch, name, floor)
        rung = plain[0]
        while rung < floor:
            rung *= 2
        assert grids[0] == rung
        if plain[0] >= floor:
            assert grids == plain
        elif plain[-2] >= floor:
            assert grids == tuple(n for n in plain if n >= floor)

    def test_accepted_pair_above_the_floor_is_kept_bitwise(self, monkeypatch):
        # W3 at T=600, resonant_long's config: the period climbs 14..448 steps
        # without the floor and 224, 448 with it, to the same accepted pair
        grids, sol = _grids_and_solution(monkeypatch, "w3_t600", numerics.FIRST_GRID_STEPS)
        plain_grids, plain = _grids_and_solution(monkeypatch, "w3_t600", 1)
        assert grids == (224, 448) and plain_grids == (14, 28, 56, 112, 224, 448)
        for name in ("f_rp", "f_rm", "phi"):
            assert np.array_equal(getattr(sol, name), getattr(plain, name))
        assert sol.error_estimate == plain.error_estimate


class TestFloquetExponent:
    def test_resonant_medium(self):
        sol = solve_modes(w3_scenario(600.0), 201, rtol=1e-11, atol=1e-13)
        assert sol.at(2.0 * np.pi / 0.98).f_rp.real == pytest.approx(1.0027865, abs=1e-7)
        mu = floquet_exponent(sol)
        assert mu == pytest.approx(0.011641, abs=5e-7)
        # inside the zone n grows as e^(2 mu T) / 4: 2.9e5 against n(600) = 3.2e5
        assert math.exp(2.0 * mu * 600.0) / 4.0 == pytest.approx(2.9e5, rel=0.01)
        assert sol.density()[-1] == pytest.approx(3.2e5, rel=0.01)
        direct = solve_modes_direct(w3_scenario(600.0), 201, rtol=1e-11, atol=1e-13)
        assert floquet_exponent(direct) == pytest.approx(mu, rel=1e-9)

    def test_stable_zone_is_zero(self):
        # the README medium: |Re u_M| = 0.99965 < 1
        sol = solve_modes(sinusoid_scenario(t_end=40.0), 201, rtol=1e-11, atol=1e-13)
        assert sol.at(np.pi).f_rp.real == pytest.approx(-0.99965, abs=1e-5)
        assert floquet_exponent(sol) == 0.0

    @pytest.mark.parametrize("s", [
        sinusoid_scenario(t_end=0.9 * np.pi),  # shorter than one period
        ramp_scenario(),
        CasimirScenario(1.5, 1.0, 0.6, VelocityProfile.constant(0.2), 10.0),
    ], ids=["short", "ramp", "constant"])
    def test_none_without_a_period(self, s):
        assert floquet_exponent(solve_modes(s, 11)) is None


def _verdicts(tmp_path, command, cfg, monkeypatch, solve):
    """Whether a run with ``cli.solve_modes`` bound to ``solve`` passed (exit 0
    or 1), the gates it violated (per point, for a sweep) and the files it
    wrote."""
    monkeypatch.setattr(cli, "solve_modes", solve)
    out = tmp_path / solve.__name__
    out.mkdir()  # as main does before the runner
    _, parse, run = cli.COMMANDS[command]
    report = run(parse(cfg), out)
    gates = [re.findall(r"(\w+) \(value", failure) for failure in report.failures]
    return report.ok, gates, sorted(p.name for p in out.iterdir())


def _sinusoid_config(theta, beta0, drive, t_end, rel_tol=1e-11, **extra):
    return {"refractive_index": 1.5, "omega": 1.0, "theta": theta, "t_end": t_end,
            "profile": {"kind": "sinusoid", "beta0": beta0, "drive_frequency": drive},
            "samples": 201, "rel_tol": rel_tol, "abs_tol": 1e-2 * rel_tol, **extra}


class TestFloquetCliVerdicts:
    @pytest.mark.parametrize("command, cfg", [
        ("casimir", _sinusoid_config(np.pi / 2, 0.4, 0.98, 600.0)),
        ("casimir", _sinusoid_config(np.pi / 2, 0.4, 0.98, 800.0, rel_tol=1e-8)),
        # a hopeless tolerance fails the growth law on either route: a slow
        # drive, whose period grid already holds more than
        # numerics.FIRST_GRID_STEPS steps of about one radian
        ("casimir", _sinusoid_config(np.pi / 4, 0.5, 0.05, 300.0, rel_tol=1e-3, samples=11)),
        ("extract", _sinusoid_config(np.pi / 2, 0.4, 0.98, 1000.0)),
        ("extract", _sinusoid_config(np.pi / 4, 0.2, 2.0, 40.0)),
        ("sweep", _sinusoid_config(np.pi / 4, 0.2, 2.0, 60.0, samples=61,
                                   sweep={"drive_frequency": [0.98, 1.5, 2.0, 2.5]})),
    ], ids=["w3_t600", "w3_t800_loose", "hopeless", "extract_w3_t1000", "extract_readme",
            "sweep"])
    def test_verdicts_match_the_direct_route(self, tmp_path, monkeypatch, command, cfg):
        floquet = _verdicts(tmp_path, command, cfg, monkeypatch, solve_modes)
        direct = _verdicts(tmp_path, command, cfg, monkeypatch, solve_modes_direct)
        assert floquet == direct


class TestInputChecks:
    """Each input check of the module, reached by a minimal bad input."""

    @pytest.mark.parametrize("samples,match", [
        ([0.0, 2.0, 1.0], "ascending"), ([], "ascending"), ([0.0, 11.0], r"within \[0, t_end\]"),
    ], ids=["descending", "empty", "past_t_end"])
    def test_bad_sample_times_raise(self, samples, match):
        s = CasimirScenario(1.5, 1.0, 0.7, VelocityProfile.constant(0.2), 10.0)
        with pytest.raises(ConfigError, match=match):
            solve_modes(s, samples)
