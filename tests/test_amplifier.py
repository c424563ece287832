import numpy as np
import pytest

from conftest import random_physical_fields
from rsfield.amplifier import (
    AmplifierSpec,
    amplified_rsf,
    amplifier_bogoliubov,
    amplifier_generators,
)
from rsfield.errors import DimensionMismatchError
from rsfield.kinetics import extract_open_generators, integrate_kinetics, validity_report
from rsfield.numerics import is_psd, max_abs
from rsfield.rsf import transform_open_vacuum_env, vacuum
from rsfield.symplectic import is_classical_closed, is_classical_open

E2_MINUS_1 = 6.389056098930650
SINH2_03 = 0.09273260912113383


class TestClosedForm:
    def test_time_zero_is_identity(self, rng):
        rf, _ = random_physical_fields(2, rng)
        spec = AmplifierSpec(kappa=[0.5, 1.5], m=[0.2, 0.0])
        r, alpha = amplified_rsf(spec, rf, 0.0)
        assert max_abs(r - rf.r) < 1e-14
        assert max_abs(alpha - rf.alpha) < 1e-14

    def test_vacuum_growth(self):
        rf, _ = vacuum(1)
        r, _ = amplified_rsf(AmplifierSpec(kappa=1.0, m=0.0), rf, 1.0)
        assert r[0, 0].real == pytest.approx(E2_MINUS_1, rel=1e-12)

    def test_zero_rate_is_constant(self, rng):
        rf, _ = random_physical_fields(2, rng)
        spec = AmplifierSpec(kappa=[0.0, 0.0], m=[0.7, 0.1])
        r, _ = amplified_rsf(spec, rf, 3.0)
        assert max_abs(r - rf.r) < 1e-13

    def test_array_of_times_matches_each_time_bitwise(self, rng):
        rf, _ = random_physical_fields(2, rng)
        spec = AmplifierSpec(kappa=[0.8, 0.3], m=[0.0, 0.5])
        times = np.array([[0.0, 0.3, 1.1], [1.7, 2.0, 5.5]])
        r, alpha = amplified_rsf(spec, rf, times)
        assert r.shape == (2, 3, 2, 2) and alpha.shape == (2, 3, 2)
        for index in np.ndindex(times.shape):
            r_t, alpha_t = amplified_rsf(spec, rf, float(times[index]))
            assert np.array_equal(r[index], r_t) and np.array_equal(alpha[index], alpha_t)

    def test_displaced_purity_preserved(self, rng):
        # r - |alpha><alpha| stays PSD along the closed form
        rf, _ = random_physical_fields(2, rng)
        spec = AmplifierSpec(kappa=[0.8, 0.3], m=[0.0, 0.5])
        for t in (0.2, 0.7, 1.5):
            r, alpha = amplified_rsf(spec, rf, t)
            ok, witness = is_psd(
                r - np.outer(alpha, alpha.conj()), 1e-10
            )
            assert ok, witness


class TestGenerators:
    def test_unit_rate_vacuum_bath(self):
        g = amplifier_generators(AmplifierSpec(kappa=1.0, m=0.0))
        assert g.gamma_up[0, 0] == 2.0
        assert g.gamma_down[0, 0] == 0.0

    def test_zero_rate(self):
        g = amplifier_generators(AmplifierSpec(kappa=0.0, m=0.9))
        assert max_abs(g.gamma_up) == 0.0
        assert max_abs(g.gamma_down) == 0.0

    def test_per_mode_rates(self):
        g = amplifier_generators(AmplifierSpec(kappa=[1.0, 2.0], m=[0.5, 0.0]))
        assert np.allclose(np.diag(g.gamma_up).real, [3.0, 4.0])
        assert np.allclose(np.diag(g.gamma_down).real, [1.0, 0.0])

    def test_rates_are_psd(self):
        g = amplifier_generators(AmplifierSpec(kappa=[1.0, 2.0], m=[0.5, 0.0]))
        up, dn, valid = validity_report(g.gamma_up[None], g.gamma_down[None])
        assert up[0] >= 0.0 and dn[0] >= 0.0 and valid.all()


class TestSpec:
    @pytest.mark.parametrize("kappa, m", [([], []), ([], 0.0), ([1.0], [])])
    def test_rejects_empty_rates(self, kappa, m):
        # a spec of no mode has no field to amplify
        with pytest.raises(DimensionMismatchError, match="at least one mode"):
            AmplifierSpec(kappa=kappa, m=m)

    def test_family_rejects_empty_rates(self):
        with pytest.raises(DimensionMismatchError, match="at least one mode"):
            amplifier_bogoliubov([], 1.0)


class TestBogoliubovFamily:
    def test_time_zero_identity(self):
        m = amplifier_bogoliubov(1.0, 0.0)
        assert max_abs(m.x - np.eye(4)) == 0.0

    def test_squeeze_point_properties(self):
        m = amplifier_bogoliubov(1.0, 0.3)
        assert m.symplectic_residual() <= 1e-12
        assert is_classical_open(m)
        assert not is_classical_closed(m)

    def test_vacuum_occupation_through_map(self):
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, amplifier_bogoliubov(1.0, 0.3))
        assert out.r[0, 0].real == pytest.approx(SINH2_03, abs=1e-12)

    def test_vacuum_bath_family_never_destroys(self):
        # generic extraction on the cosh/sinh family: gamma_down = 0 always
        kappa = np.array([0.6, 1.1])

        def xs(t):
            return np.diag(np.cosh(kappa * t)).astype(complex)

        def xc(t):
            return np.diag(np.sinh(kappa * t)).astype(complex)

        for t in (0.2, 0.9, 1.7):
            gens = extract_open_generators(xs, xc, t)
            assert max_abs(gens.gamma_down) < 1e-7
            expected_up = np.diag(2.0 * kappa * np.tanh(kappa * t))
            assert max_abs(gens.gamma_up - expected_up) < 1e-7


class TestKineticsEquivalence:
    def test_vacuum_cross_check(self):
        spec = AmplifierSpec(kappa=1.0, m=0.0)
        rf, _ = vacuum(1)
        samples = np.linspace(0.0, 1.0, 6)
        r, alpha = integrate_kinetics(
            rf, amplifier_generators(spec), 0.0, samples, rtol=1e-11, atol=1e-13
        )
        for t, r_k in zip(samples, r):
            closed_r, _ = amplified_rsf(spec, rf, t)
            scale = 1.0 + max_abs(closed_r)
            assert max_abs(r_k - closed_r) / scale < 1e-8

    def test_thermal_bath_cross_check(self):
        spec = AmplifierSpec(kappa=1.0, m=0.5)
        rf, _ = vacuum(1)
        samples = [0.25, 0.75, 1.0]
        r, alpha = integrate_kinetics(
            rf, amplifier_generators(spec), 0.0, samples, rtol=1e-11, atol=1e-13
        )
        for t, r_k in zip(samples, r):
            closed_r, _ = amplified_rsf(spec, rf, t)
            scale = 1.0 + max_abs(closed_r)
            assert max_abs(r_k - closed_r) / scale < 1e-8

    def test_multimode_displaced_cross_check(self, rng):
        spec = AmplifierSpec(kappa=[1.0, 2.0], m=[0.5, 0.0])
        rf, _ = random_physical_fields(2, rng)
        samples = [0.3, 0.6, 1.0]
        r, alpha = integrate_kinetics(
            rf, amplifier_generators(spec), 0.0, samples, rtol=1e-11, atol=1e-13
        )
        for t, r_k, alpha_k in zip(samples, r, alpha):
            closed_r, closed_alpha = amplified_rsf(spec, rf, t)
            scale = 1.0 + max_abs(closed_r)
            assert max_abs(r_k - closed_r) / scale < 1e-8
            assert max_abs(alpha_k - closed_alpha) / scale < 1e-8
