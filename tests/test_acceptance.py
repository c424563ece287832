"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Every tolerance is pinned here, not configurable.
"""

import numpy as np
import pytest

from conftest import random_passive, reference_modes
from rsfield.casimir import (
    CasimirScenario,
    VelocityProfile,
    casimir_generator_callback,
    casimir_maps,
    closed_form_generators,
    extracted_generators,
    growth_law_residual,
    solve_modes,
)
from rsfield.amplifier import AmplifierSpec, amplified_rsf, amplifier_generators
from rsfield.fock import (
    FockState,
    apply_ladder,
    beam_splitter_pair,
    evolve,
    measure_rsf,
    oracle_check_transform,
    squeeze_pair,
)
from rsfield.kinetics import integrate_kinetics
from rsfield.numerics import max_abs
from rsfield.rsf import expect_additive, vacuum
from rsfield.symplectic import classicality, is_classical_closed

OMEGA = 1.0
THETAS = (0.0, np.pi / 4, np.pi / 2)
E2_MINUS_1 = 6.389056098930650


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def drive_scenario(theta: float, t_end: float = 20.0) -> CasimirScenario:
    return CasimirScenario(
        refractive_index=1.5,
        omega=OMEGA,
        theta=theta,
        profile=VelocityProfile.sinusoid(0.2, 2.0 * OMEGA),
        t_end=t_end,
    )


@pytest.fixture(scope="module")
def drive_runs():
    """The three criterion-1 runs, shared by criteria 1, 3, 4, 5, 9, 10."""
    runs = []
    for theta in THETAS:
        s = drive_scenario(theta)
        sol = solve_modes(s, 41, rtol=1e-12, atol=1e-14)
        runs.append((s, sol))
    return runs


def test_criterion_01_ccr_invariant(drive_runs):
    worst = max(np.max(np.abs(sol.ccr_residual)) for _, sol in drive_runs)
    report("1 ccr-invariant", worst <= 1e-8, f"max residual {worst:.3e} <= 1e-8")


def test_criterion_02_no_production_at_constant_velocity():
    worst_n = 0.0
    worst_phase = 0.0
    for beta in (0.0, 0.2, 0.5):
        s = CasimirScenario(
            refractive_index=1.5, omega=OMEGA, theta=0.6,
            profile=VelocityProfile.constant(beta), t_end=10.0 / OMEGA,
        )
        sol = solve_modes(s, 21)
        m = s.coefficients(0.0)
        w_eff = OMEGA * np.sqrt(m.alpha * m.big_delta)
        worst_n = max(worst_n, float(np.max(sol.density())))
        worst_phase = max(
            worst_phase, max_abs(sol.f_rp - np.exp(-1j * w_eff * sol.times))
        )
    passed = worst_n <= 1e-12 and worst_phase <= 1e-8
    report(
        "2 constant-velocity-silence", passed,
        f"max density {worst_n:.3e} <= 1e-12, phase error {worst_phase:.3e} <= 1e-8",
    )


def test_criterion_03_helicity_symmetry(drive_runs):
    # solve_modes holds the left pair as the right pair's conjugate, so the
    # left-helicity density comes from the DOP853 reference route, which
    # propagates the left pair on its own
    worst = 0.0
    for s, sol in drive_runs:
        _, _, f_lp, _, _ = reference_modes(s, sol.times)
        worst = max(worst, float(np.max(np.abs(np.abs(f_lp) ** 2 - sol.density()))))
    report("3 helicity-symmetry", worst <= 1e-8, f"max density gap {worst:.3e} <= 1e-8")


def test_criterion_04_generator_extraction_agreement(drive_runs):
    dev_h = dev_g = dev_gd = 0.0
    for _, sol in drive_runs:
        h, gamma_up = closed_form_generators(sol)
        ext_h, ext_up, ext_down = extracted_generators(sol)
        dev_h = max(dev_h, np.max(np.abs(h - ext_h[:, 0, 0])))
        dev_g = max(dev_g, np.max(np.abs(gamma_up - ext_up[:, 0, 0])))
        dev_gd = max(dev_gd, np.max(np.abs(ext_down)))
    passed = (
        dev_h <= 1e-7 * OMEGA and dev_g <= 1e-7 * OMEGA and dev_gd <= 1e-8 * OMEGA
    )
    report(
        "4 extraction-agreement", passed,
        f"|dh| {dev_h:.3e} <= 1e-7, |dgamma_up| {dev_g:.3e} <= 1e-7, "
        f"|gamma_down| {dev_gd:.3e} <= 1e-8",
    )


def test_criterion_05_growth_law(drive_runs):
    worst_residual = 0.0
    max_rate = 0.0
    for _, sol in drive_runs:
        rates, residuals, _ = growth_law_residual(sol)
        worst_residual = max(worst_residual, np.max(residuals))
        max_rate = max(max_rate, np.max(np.abs(rates)))
    bound = 1e-6 * max_rate
    report(
        "5 growth-law", worst_residual <= bound,
        f"max residual {worst_residual:.3e} <= 1e-6 * max rate {max_rate:.3e}",
    )


def test_criterion_06_kinetics_round_trip():
    s = drive_scenario(np.pi / 2, t_end=10.0 / OMEGA)
    sol = solve_modes(s, 21, rtol=1e-12, atol=1e-14)
    rf0, _ = vacuum(1)
    r, _ = integrate_kinetics(
        rf0, casimir_generator_callback(sol), 0.0, [s.t_end],
        rtol=1e-12, atol=1e-14,
    )
    n_kinetic = r[0][0, 0].real
    n_direct = float(sol.density()[-1])
    rel = abs(n_kinetic - n_direct) / n_direct
    report(
        "6 kinetics-round-trip", rel <= 1e-6,
        f"relative deviation {rel:.3e} <= 1e-6 (n(T) = {n_direct:.6e})",
    )


def test_criterion_07_amplification_cross_check():
    worst = 0.0
    vacuum_value = None
    for m_occ in (0.0, 0.5):
        spec = AmplifierSpec(kappa=1.0, m=m_occ)
        rf0, _ = vacuum(1)
        times = np.linspace(0.0, 1.0, 9)
        r, _ = integrate_kinetics(
            rf0, amplifier_generators(spec), 0.0, times, rtol=1e-11, atol=1e-13
        )
        for t, r_k in zip(times, r):
            closed_r, _ = amplified_rsf(spec, rf0, float(t))
            scale = 1.0 + max_abs(closed_r)
            worst = max(worst, max_abs(r_k - closed_r) / scale)
        if m_occ == 0.0:
            vacuum_value = r[-1][0, 0].real
    value_ok = abs(vacuum_value - E2_MINUS_1) / E2_MINUS_1 <= 1e-8
    report(
        "7 amplification-cross-check", worst <= 1e-8 and value_ok,
        f"max relative deviation {worst:.3e} <= 1e-8, r(1) = {vacuum_value:.7f}",
    )


def test_criterion_08_fock_oracle_equivalence(rng):
    h_sq, m_sq = squeeze_pair(0.3, 1.0)
    dev_sq = oracle_check_transform(m_sq, FockState.vacuum(12), h_sq, 1.0)
    h_bs, m_bs = beam_splitter_pair(0.7)
    dev_bs = oracle_check_transform(m_bs, FockState.number_state(1, 0, 12), h_bs, 1.0)

    state = evolve(FockState.vacuum(12), h_sq, 1.0)
    rf, _ = measure_rsf(state)
    lowered = [
        apply_ladder(state, 0, "lower").amplitudes.ravel(),
        apply_ladder(state, 1, "lower").amplitudes.ravel(),
    ]
    dev_obs = 0.0
    for _ in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = 0.5 * (z + z.conj().T)
        direct = sum(
            o[k, kp] * np.vdot(lowered[k], lowered[kp])
            for k in range(2) for kp in range(2)
        ).real
        dev_obs = max(dev_obs, abs(expect_additive(rf, o) - direct))
    passed = dev_sq <= 1e-6 and dev_bs <= 1e-6 and dev_obs <= 1e-6
    report(
        "8 fock-oracle", passed,
        f"squeeze {dev_sq:.3e}, beam splitter {dev_bs:.3e}, "
        f"observables {dev_obs:.3e}, all <= 1e-6",
    )


def test_criterion_09_classicality_predicates(drive_runs, rng):
    worst_unitarity = 0.0
    for _ in range(100):
        m = random_passive(3, rng)
        assert is_classical_closed(m)
        worst_unitarity = max(
            worst_unitarity, max_abs(m.x_up @ m.x_up.conj().T - np.eye(3))
        )
    verdicts_ok = True
    for _, sol in drive_runs:
        x, _ = casimir_maps(sol)
        open_residual, open_limit = classicality(x, n_sys=1)
        closed_residual, closed_limit = classicality(x, n_sys=2)
        if not np.all(open_residual <= open_limit):
            verdicts_ok = False
        if np.any((closed_residual <= closed_limit) & (sol.density() > 1e-10)):
            verdicts_ok = False
    passed = worst_unitarity <= 1e-8 and verdicts_ok
    report(
        "9 classicality-predicates", passed,
        f"passive unitarity residual {worst_unitarity:.3e} <= 1e-8, "
        f"production/classicality verdicts consistent: {verdicts_ok}",
    )


def test_criterion_10_symplectic_residual(drive_runs):
    worst = max(float(np.max(casimir_maps(sol)[1])) for _, sol in drive_runs)
    report("10 symplectic-residual", worst <= 1e-8, f"max residual {worst:.3e} <= 1e-8")
