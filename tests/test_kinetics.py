from types import SimpleNamespace

import numpy as np
import pytest

from conftest import dop853, haar_unitary, random_physical_fields
from rsfield import kinetics
from rsfield.errors import (
    ConvergenceError,
    DerivativeUnavailableError,
    DimensionMismatchError,
    InvalidMomentsError,
    NonFiniteStateError,
    NonHermitianError,
    NotClassicalClosedError,
    PhysicalityLostError,
    SingularMatrixError,
)
from rsfield.kinetics import (
    CONDITION_LIMIT,
    KineticGenerators,
    _checked_inverse,
    _constant_entry,
    _kinetic_matrix,
    extract_closed_generator,
    extract_open_generators,
    integrate_kinetics,
    kinetic_rhs,
    validity_report,
)
from rsfield.numerics import central_difference, max_abs
from rsfield.rsf import ReducedField, vacuum


def dop853_kinetics(rf0, gen_at, times):
    """(r, alpha) at ``times`` from scipy's DOP853 on ``kinetic_rhs`` with the
    generators ``gen_at(t)``, the reference route for ``integrate_kinetics``."""
    n = rf0.n_modes

    def rhs(t, y):
        field = SimpleNamespace(r=y[:n * n].reshape(n, n), alpha=y[n * n:], n_modes=n)
        dr, dalpha = kinetic_rhs(field, gen_at(t))
        return np.concatenate([dr.ravel(), dalpha])

    y0 = np.concatenate([rf0.r.ravel(), rf0.alpha])
    ys = dop853(rhs, y0, (0.0, times[-1]), times)
    return [(y[:n * n].reshape(n, n), y[n * n:]) for y in ys]


def stacked(generators) -> tuple:
    """Per-time ``KineticGenerators`` as the stacks ``(h, zeta, gamma_up,
    gamma_down)`` that ``integrate_kinetics`` takes from a callable."""
    g = list(generators)
    return tuple(np.array([getattr(k, f) for k in g])
                 for f in ("h", "zeta", "gamma_up", "gamma_down"))

E2_MINUS_1 = 6.389056098930650  # e^2 - 1


def scalar_gens(h=0.0, g_up=0.0, g_dn=0.0, zeta=0.0):
    return KineticGenerators(
        h=np.array([[h]], dtype=complex),
        zeta=np.array([zeta], dtype=complex),
        gamma_up=np.array([[g_up]], dtype=complex),
        gamma_down=np.array([[g_dn]], dtype=complex),
    )


class TestGeneratorValidation:
    def test_zeros_factory(self):
        g = KineticGenerators.zeros(3)
        assert g.n_modes == 3
        assert max_abs(g.h) == 0.0

    def test_rejects_non_hermitian_h(self):
        with pytest.raises(Exception):
            KineticGenerators(
                h=np.array([[0.0, 1.0], [0.0, 0.0]]),
                zeta=np.zeros(2),
                gamma_up=np.zeros((2, 2)),
                gamma_down=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("field", ["h", "gamma_up", "gamma_down"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_generator(self, field, value):
        # a NaN residual once compared false with its limit and passed
        gens = {"h": [[0.0]], "zeta": [0.0], "gamma_up": [[0.0]], "gamma_down": [[0.0]]}
        gens[field] = np.array([[value]])
        with pytest.raises(NonHermitianError, match=field):
            KineticGenerators(**gens)

    # a NaN fails every comparison, so each check must reject what does not pass
    @pytest.mark.parametrize("scatterer", [2.0 * np.eye(2), np.diag([np.nan, 1.0])],
                             ids=["scaled", "nan"])
    def test_rejects_non_unitary_scatterer(self, scatterer):
        with pytest.raises(InvalidMomentsError):
            KineticGenerators(
                h=np.zeros((2, 2)),
                zeta=np.zeros(2),
                gamma_up=np.zeros((2, 2)),
                gamma_down=np.zeros((2, 2)),
                scatterers=((1.0, scatterer),),
            )

    @pytest.mark.parametrize("etas", [(0.4, 0.4), (np.nan,)], ids=["sum", "nan"])
    def test_rejects_bad_eta_sum(self, rng, etas):
        u = haar_unitary(2, rng)
        with pytest.raises(InvalidMomentsError):
            KineticGenerators(
                h=np.zeros((2, 2)),
                zeta=np.zeros(2),
                gamma_up=np.zeros((2, 2)),
                gamma_down=np.zeros((2, 2)),
                scatterers=tuple(zip(etas, (u, np.eye(2)))),
            )

    def test_validity_report_exposes_indefinite_rates(self):
        # the generators take an indefinite rate; validity_report flags it
        g = scalar_gens(g_up=-0.5)
        w_up, w_dn, valid = validity_report(g.gamma_up[None], g.gamma_down[None])
        assert w_up.tolist() == [pytest.approx(-0.5)]
        assert w_dn.tolist() == [0.0] and valid.tolist() == [False]


class TestKineticRhs:
    def test_all_zero(self):
        rf, _ = vacuum(2)
        dr, dalpha = kinetic_rhs(rf, KineticGenerators.zeros(2))
        assert max_abs(dr) == 0.0 and max_abs(dalpha) == 0.0

    def test_commuting_hamiltonian_freezes_r(self):
        rf = ReducedField(np.diag([0.3, 0.7]).astype(complex), np.zeros(2))
        gens = KineticGenerators(
            h=np.diag([1.0, 2.0]).astype(complex),
            zeta=np.zeros(2),
            gamma_up=np.zeros((2, 2)),
            gamma_down=np.zeros((2, 2)),
        )
        dr, _ = kinetic_rhs(rf, gens)
        assert max_abs(dr) < 1e-15

    def test_scalar_amplifier_rate(self):
        kappa, m, r0 = 1.3, 0.4, 0.6
        rf = ReducedField(np.array([[r0]], dtype=complex), np.zeros(1))
        gens = scalar_gens(g_up=2 * kappa * (1 + m), g_dn=2 * kappa * m)
        dr, _ = kinetic_rhs(rf, gens)
        assert dr[0, 0].real == pytest.approx(2 * kappa * r0 + 2 * kappa * (1 + m))

    def test_rhs_is_hermitian(self, rng):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (z + z.conj().T)
        g = rng.standard_normal((3, 3))
        gens = KineticGenerators(
            h=h,
            zeta=rng.standard_normal(3) + 1j * rng.standard_normal(3),
            gamma_up=(g @ g.T).astype(complex),
            gamma_down=0.1 * np.eye(3, dtype=complex),
            scatterers=((0.5, haar_unitary(3, rng)), (0.5, haar_unitary(3, rng))),
        )
        rf = ReducedField(np.diag([0.2, 0.5, 1.0]).astype(complex),
                          0.1 * np.ones(3, dtype=complex))
        dr, _ = kinetic_rhs(rf, gens)
        assert max_abs(dr - dr.conj().T) < 1e-12

    def test_scattering_preserves_trace(self, rng):
        us = [haar_unitary(3, rng) for _ in range(3)]
        gens = KineticGenerators(
            h=np.zeros((3, 3)),
            zeta=np.zeros(3),
            gamma_up=np.zeros((3, 3)),
            gamma_down=np.zeros((3, 3)),
            scatterers=tuple((1.0 / 3.0, u) for u in us),
        )
        rf = ReducedField(np.diag([0.1, 0.4, 0.9]).astype(complex), np.zeros(3))
        dr, _ = kinetic_rhs(rf, gens)
        assert abs(np.trace(dr)) < 1e-12


class TestIntegrateKinetics:
    @pytest.mark.parametrize("field", [0, 2, 3])
    def test_callable_rejects_non_finite_generator(self, field):
        # the callable path checks each node's stacks with the constructor's test
        rf, _ = vacuum(1)

        def gen(t):
            stacks = [np.zeros(t.shape + (1, 1)), np.zeros(t.shape + (1,)),
                      np.full(t.shape + (1, 1), 0.5), np.zeros(t.shape + (1, 1))]
            stacks[field] = np.where(t[:, None, None] > 0.5, np.nan, stacks[field])
            return stacks

        with pytest.raises(NonHermitianError):
            integrate_kinetics(rf, gen, 0.0, [1.0])

    def test_zero_generators_constant(self):
        rf = ReducedField(np.array([[0.5]], dtype=complex), np.array([0.2 + 0.1j]))
        r, alpha = integrate_kinetics(rf, KineticGenerators.zeros(1), 0.0, [0.0, 1.0, 2.0])
        for r_k, alpha_k in zip(r, alpha):
            assert max_abs(r_k - rf.r) < 1e-12
            assert max_abs(alpha_k - rf.alpha) < 1e-12

    def test_vacuum_amplification_reaches_e2_minus_1(self):
        rf, _ = vacuum(1)
        gens = scalar_gens(g_up=2.0, g_dn=0.0)  # kappa=1, m=0
        r, _ = integrate_kinetics(rf, gens, 0.0, [1.0])
        assert r[0][0, 0].real == pytest.approx(E2_MINUS_1, rel=1e-9)

    @pytest.mark.parametrize("g_up,g_dn,c", [
        (2.0, 0.0, 1.0), (3.0, 1.0, 2.0), (2e12 + 2.0, 2e12, 2.0 ** 40), (0.5, 0.5, 1.0),
    ])
    def test_constant_entry_is_the_power_of_two_above_the_source_ratio(self, g_up, g_dn, c):
        # the source column (gamma_up, 1-norm g_up) against the r column's
        # g_up - g_dn; no scaling where the rest is zero or the larger
        gens = scalar_gens(g_up=g_up, g_dn=g_dn)
        m = _kinetic_matrix(gens.h, gens.zeta, gens.gamma_up, gens.gamma_down)
        assert _constant_entry(m) == c

    def test_trace_nondecreasing_with_pure_creation(self):
        rf, _ = vacuum(2)
        gens = KineticGenerators(
            h=np.zeros((2, 2)),
            zeta=np.zeros(2),
            gamma_up=np.array([[0.5, 0.2], [0.2, 0.3]], dtype=complex),
            gamma_down=np.zeros((2, 2)),
        )
        r, _ = integrate_kinetics(rf, gens, 0.0, np.linspace(0.0, 2.0, 9))
        traces = [np.trace(r_k).real for r_k in r]
        assert np.all(np.diff(traces) > -1e-12)

    def test_scattering_only_preserves_trace(self, rng):
        rf = ReducedField(np.diag([0.3, 0.9]).astype(complex), np.zeros(2))
        gens = KineticGenerators(
            h=np.zeros((2, 2)),
            zeta=np.zeros(2),
            gamma_up=np.zeros((2, 2)),
            gamma_down=np.zeros((2, 2)),
            scatterers=((1.0, haar_unitary(2, rng)),),
        )
        r, _ = integrate_kinetics(rf, gens, 0.0, [3.0])
        assert np.trace(r[0]).real == pytest.approx(1.2, abs=1e-10)

    def test_positivity_loss_is_reported(self):
        rf, _ = vacuum(1)
        bad = scalar_gens(g_up=-1.0)  # indefinite creation rate
        with pytest.raises(PhysicalityLostError):
            integrate_kinetics(rf, bad, 0.0, [0.5, 1.0])

    def test_positivity_loss_names_the_first_failing_sample(self):
        rf, _ = vacuum(1)
        bad = scalar_gens(g_up=-1.0)  # r(t) = exp(-t) - 1
        with pytest.raises(PhysicalityLostError, match=r"^positivity lost: negative mode "
                           r"occupation \(witness -3\.935e-01\) at t=0\.5 \(witness") as exc:
            integrate_kinetics(rf, bad, 0.0, [0.0, 0.5, 1.0])
        assert exc.value.time == 0.5 and exc.value.witness == pytest.approx(np.expm1(-0.5))

    def test_returns_the_field_as_two_stacks(self):
        rf = ReducedField(np.diag([0.5, 0.2]).astype(complex), np.array([0.2 + 0.1j, -0.3]))
        r, alpha = integrate_kinetics(rf, KineticGenerators.zeros(2), 0.0, [0.0, 0.5, 1.0])
        assert type(r) is np.ndarray and r.shape == (3, 2, 2)
        assert type(alpha) is np.ndarray and alpha.shape == (3, 2)

    def test_snapshot_failure_other_than_positivity_keeps_its_type(self, monkeypatch):
        # only a negative occupation is a loss of positivity; an eigensolver
        # failure in the snapshots' batched check is not reported as one
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        rf, _ = vacuum(1)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(ConvergenceError):
            integrate_kinetics(rf, KineticGenerators.zeros(1), 0.0, [1.0])

    def test_rejects_samples_outside_span(self):
        rf = ReducedField(np.array([[0.5]], dtype=complex), np.array([0.2]))
        with pytest.raises(DimensionMismatchError, match="before the start t0=1.0"):
            integrate_kinetics(rf, KineticGenerators.zeros(1), 1.0, [0.5, 2.0])

    def test_constant_generators_match_dop853(self, rng):
        rf0, _ = random_physical_fields(2, rng)
        gens = KineticGenerators(
            h=np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.7]]),
            zeta=np.array([0.2 + 0.1j, -0.3j]),
            gamma_up=np.array([[0.6, 0.1j], [-0.1j, 0.3]]),
            gamma_down=np.array([[0.2, 0.05], [0.05, 0.4]]),
            scatterers=((0.3, haar_unitary(2, rng)), (0.7, haar_unitary(2, rng))),
        )
        times = [0.0, 0.4, 1.1, 2.0]
        r_k, alpha_k = integrate_kinetics(rf0, gens, 0.0, times)
        ref = dop853_kinetics(rf0, lambda _t: gens, times)
        for s_r, s_alpha, (r, alpha) in zip(r_k, alpha_k, ref):
            assert max_abs(s_r - r) < 1e-11 * (1.0 + max_abs(r))
            assert max_abs(s_alpha - alpha) < 1e-11 * (1.0 + max_abs(r))

    def test_time_dependent_generators_match_dop853(self, rng):
        rf0, _ = random_physical_fields(2, rng)
        h0 = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.7]])
        h1 = np.array([[0.0, 1.0], [1.0, 0.5]])
        up = np.array([[0.6, 0.1j], [-0.1j, 0.3]])
        down = np.array([[0.2, 0.05], [0.05, 0.4]])

        def gen(t):
            c, s = np.cos(1.3 * t)[:, None, None], np.sin(t)[:, None, None]
            zeta = np.exp(-1j * t)[:, None] * np.array([0.2 + 0.1j, -0.3j])
            return h0 + c * h1, zeta, (1.0 + 0.5 * s) * up, (1.0 - 0.5 * s) * down

        def gen_at(t):
            return KineticGenerators(*(x[0] for x in gen(np.array([t]))))

        times = [0.0, 0.4, 1.1, 2.0]
        r_k, alpha_k = integrate_kinetics(rf0, gen, 0.0, times, rtol=1e-12, atol=1e-14)
        ref = dop853_kinetics(rf0, gen_at, times)
        for s_r, s_alpha, (r, alpha) in zip(r_k, alpha_k, ref):
            assert max_abs(s_r - r) < 1e-10 * (1.0 + max_abs(r))
            assert max_abs(s_alpha - alpha) < 1e-10 * (1.0 + max_abs(r))


class TestExtractClosed:
    def test_global_phase(self):
        omega = 1.7
        fam = lambda t: np.exp(-1j * omega * t) * np.eye(2)
        h = extract_closed_generator(fam, 0.8)
        assert max_abs(h - omega * np.eye(2)) < 1e-6

    def test_two_frequencies(self):
        w1, w2 = 0.9, 2.3
        fam = lambda t: np.diag([np.exp(-1j * w1 * t), np.exp(-1j * w2 * t)])
        h = extract_closed_generator(fam, 1.1)
        assert max_abs(h - np.diag([w1, w2])) < 1e-6

    def test_accelerating_rotation_matches_fd_oracle(self):
        def fam(t):
            th = 0.1 * t * t
            return np.array(
                [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
            )

        t = 1.3
        h = extract_closed_generator(fam, t)
        assert max_abs(h - h.conj().T) < 1e-12
        # independent reconstruction: dX/dt from central differences
        dx = central_difference(fam, t, 1e-5)
        y = dx @ np.linalg.inv(fam(t))
        h_fd = 0.5j * (y - y.conj().T)
        assert max_abs(h - h_fd) < 1e-6
        # analytic value: theta'(t) * sigma_y
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        assert max_abs(h - 0.2 * t * sy) < 1e-6

    def test_rejects_non_unitary_family(self):
        fam = lambda t: np.cosh(t) * np.eye(2)
        with pytest.raises(NotClassicalClosedError):
            extract_closed_generator(fam, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_family_rejected(self, value):
        bad = lambda t: np.array([[1.0, 0.0], [0.0, value]], dtype=complex)
        rotation = lambda t: np.diag(np.exp(-1j * np.array([1.0, 2.0]) * t))
        for x_up, dx_up in ((bad, None), (rotation, bad)):
            with pytest.raises(NonFiniteStateError):
                extract_closed_generator(x_up, 0.3, dx_up=dx_up)
        with pytest.raises(NonFiniteStateError):  # finite at t, not at t +/- h
            extract_closed_generator(lambda t: rotation(t) if t == 0.3 else bad(t), 0.3)

    def test_closed_round_trip(self):
        # integrating with the extracted h reproduces r(t) = X r0 X^dag
        def fam(t):
            th = 0.1 * t * t + 0.3 * t
            return np.array(
                [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
            )

        r0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        rf0 = ReducedField(r0, np.array([0.3, -0.1j]))

        def gens(t):
            return stacked(
                KineticGenerators(extract_closed_generator(fam, s),
                                  np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)))
                for s in t
            )

        r, alpha = integrate_kinetics(rf0, gens, 0.0, [0.5, 1.0], rtol=1e-10)
        for t, r_k, alpha_k in zip((0.5, 1.0), r, alpha):
            x = fam(t)
            assert max_abs(r_k - x @ r0 @ x.conj().T) < 1e-7
            assert max_abs(alpha_k - x @ rf0.alpha) < 1e-7


class TestExtractOpen:
    def test_scalar_amplifier_family(self):
        kappa = 0.7
        xs = lambda t: np.array([[np.cosh(kappa * t)]], dtype=complex)
        xc = lambda t: np.array([[np.sinh(kappa * t)]], dtype=complex)
        t = 0.9
        gens = extract_open_generators(xs, xc, t)
        expected = 2.0 * kappa * np.tanh(kappa * t)
        assert gens.gamma_up[0, 0].real == pytest.approx(expected, abs=1e-7)
        assert abs(gens.gamma_down[0, 0]) < 1e-7
        assert abs(gens.h[0, 0]) < 1e-7

    def test_passive_phase_family(self):
        omega = 1.4
        xs = lambda t: np.array([[np.exp(-1j * omega * t)]], dtype=complex)
        xc = lambda t: np.zeros((1, 1), dtype=complex)
        gens = extract_open_generators(xs, xc, 0.6)
        assert gens.h[0, 0].real == pytest.approx(omega, abs=1e-6)
        assert abs(gens.gamma_up[0, 0]) < 1e-8
        assert abs(gens.gamma_down[0, 0]) < 1e-8

    def test_rate_difference_identity(self):
        # gamma_up - gamma_down = Y + Y^dag, exactly by construction
        def xs(t):
            return np.array(
                [[np.cosh(0.2 * t) * np.exp(-0.5j * t), 0.1 * np.sin(t)],
                 [0.0, np.cosh(0.3 * t) * np.exp(-0.8j * t)]],
                dtype=complex,
            )

        def xc(t):
            return np.array(
                [[np.sinh(0.2 * t), 0.0],
                 [0.05 * (1 - np.cos(t)), np.sinh(0.3 * t)]],
                dtype=complex,
            )

        for t in (0.3, 0.8, 1.5):
            gens = extract_open_generators(xs, xc, t)
            dx = central_difference(xs, t, 1e-6)
            y = dx @ np.linalg.inv(xs(t))
            y_r = y + y.conj().T
            assert max_abs((gens.gamma_up - gens.gamma_down) - y_r) < 1e-10

    def test_open_round_trip_arbitrary_smooth_family(self):
        # dr/dt = Y r + r Y^dag + W holds for any smooth family, so the
        # extracted generators must reproduce r(t) = X r0 X^dag + D(t).
        def xs(t):
            return np.array(
                [[np.cosh(0.2 * t) * np.exp(-0.5j * t), 0.1 * np.sin(t)],
                 [0.0, np.cosh(0.3 * t) * np.exp(-0.8j * t)]],
                dtype=complex,
            )

        def dxs(t):
            return np.array(
                [[(0.2 * np.sinh(0.2 * t) - 0.5j * np.cosh(0.2 * t)) * np.exp(-0.5j * t),
                  0.1 * np.cos(t)],
                 [0.0,
                  (0.3 * np.sinh(0.3 * t) - 0.8j * np.cosh(0.3 * t)) * np.exp(-0.8j * t)]],
                dtype=complex,
            )

        def xc(t):
            return np.array(
                [[np.sinh(0.2 * t), 0.0],
                 [0.05 * (1 - np.cos(t)), np.sinh(0.3 * t)]],
                dtype=complex,
            )

        def dxc(t):
            return np.array(
                [[0.2 * np.cosh(0.2 * t), 0.0],
                 [0.05 * np.sin(t), 0.3 * np.cosh(0.3 * t)]],
                dtype=complex,
            )

        r0 = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.8]])
        alpha0 = np.array([0.2, -0.3j])
        rf0 = ReducedField(r0, alpha0)

        def gens(t):
            return stacked(
                extract_open_generators(xs, xc, s, dx_up_s=dxs, dx_down_c=dxc) for s in t
            )

        times = [0.4, 1.0, 1.6]
        r, alpha = integrate_kinetics(rf0, gens, 0.0, times, rtol=1e-11, atol=1e-13)
        for t, r_k, alpha_k in zip(times, r, alpha):
            x, c = xs(t), xc(t)
            expected_r = x @ r0 @ x.conj().T + c @ c.conj().T
            assert max_abs(r_k - expected_r) < 1e-6
            assert max_abs(alpha_k - x @ alpha0) < 1e-6

    def test_singular_family_rejected(self):
        xs = lambda t: np.array([[t]], dtype=complex)  # singular at t=0
        xc = lambda t: np.zeros((1, 1), dtype=complex)
        with pytest.raises(SingularMatrixError):
            extract_open_generators(xs, xc, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", ["x_up_s", "x_down_c", "dx_up_s", "dx_down_c"])
    def test_non_finite_family_rejected(self, value, where):
        # a NaN once escaped as numpy's "SVD did not converge", an infinity as
        # a RuntimeWarning of the finite differences, and a NaN in X_down_C or
        # a derivative as NaN rates
        family = {
            "x_up_s": lambda t: np.array([[np.cosh(t)]], dtype=complex),
            "x_down_c": lambda t: np.array([[np.sinh(t)]], dtype=complex),
            "dx_up_s": lambda t: np.array([[np.sinh(t)]], dtype=complex),
            "dx_down_c": lambda t: np.array([[np.cosh(t)]], dtype=complex),
        }
        family[where] = lambda t: np.array([[value]], dtype=complex)
        derivatives = {k: family[k] for k in ("dx_up_s", "dx_down_c")}
        with pytest.raises(NonFiniteStateError):
            extract_open_generators(family["x_up_s"], family["x_down_c"], 0.3, **derivatives)
        if where.startswith("x"):  # and through the finite differences
            with pytest.raises(NonFiniteStateError):
                extract_open_generators(family["x_up_s"], family["x_down_c"], 0.3)


class TestCheckedInverse:
    @pytest.mark.parametrize("x", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],  # one singular in a stack
    ])
    def test_exactly_singular_raises(self, x):
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.array(x, dtype=complex), "X")

    def test_limit_is_on_kappa_1(self):
        # kappa_1 = ||X||_1 ||X^-1||_1 = 1/d for diag(1, d)
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.diag([1.0, 1e-13]).astype(complex), "X")
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.diag([1.0, 0.5 / CONDITION_LIMIT]).astype(complex), "X")
        x = np.diag([1.0, 2.0 / CONDITION_LIMIT]).astype(complex)
        assert np.array_equal(_checked_inverse(x, "X"), np.linalg.inv(x))

    def test_well_conditioned_stack_is_numpys_inverse(self, rng):
        for n in (1, 2, 3):
            x = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
            assert np.array_equal(_checked_inverse(x, "X"), np.linalg.inv(x))


class TestValidityScan:
    def test_all_zero_trajectory_is_valid(self):
        zeros = np.zeros((3, 2, 2), dtype=complex)
        _, _, valid = validity_report(zeros, zeros)
        assert valid.tolist() == [True, True, True]

    def test_amplifier_trajectory_valid(self):
        up, down, valid = validity_report(np.full((5, 1, 1), 2.0), np.full((5, 1, 1), 0.6))
        assert valid.all()
        assert np.all(up == 2.0) and np.allclose(down, 0.6, rtol=1e-15, atol=0.0)

    def test_worst_time_reported(self):
        # the negative eigenvalue is returned at its sample, which alone fails
        # (run_extract reads its time and witness off these arrays)
        gamma_up = np.array([1.0, -0.3, 0.5]).reshape(3, 1, 1)
        up, down, valid = validity_report(gamma_up, np.zeros((3, 1, 1)))
        assert valid.tolist() == [True, False, True]
        assert up.tolist() == pytest.approx([1.0, -0.3, 0.5]) and down.tolist() == [0.0] * 3

    def test_floor_per_sample(self):
        # an eigenvalue of -1e-9 is roundoff where the floor covers it, and a
        # violation where only the relative 1e-10 (1 + max|gamma|) applies
        gamma_down = np.full((3, 1, 1), -1e-9)
        up = np.zeros((3, 1, 1))
        assert not validity_report(up, gamma_down)[2].any()
        _, _, valid = validity_report(up, gamma_down, floor=np.array([2e-9, 5e-10, 2e-9]))
        assert valid.tolist() == [True, False, True]
        assert validity_report(gamma_down, up, floor=2e-9)[2].all()

    def test_matches_per_generator_witnesses(self, rng):
        # batched eigvalsh gives each rate's smallest eigenvalue, one by one
        z = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        rates = z @ np.swapaxes(z, -1, -2).conj() - 1.5 * np.eye(3)
        up, down, _ = validity_report(rates, rates[::-1])
        for i in range(6):
            smallest = [np.linalg.eigvalsh(r)[0] for r in (rates[i], rates[5 - i])]
            assert np.allclose([up[i], down[i]], smallest, rtol=0.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionMismatchError):
            validity_report(np.zeros((3, 1, 1)), np.zeros((2, 1, 1)))
        skew = np.zeros((3, 2, 2), dtype=complex)
        skew[:, 0, 1] = 1.0
        with pytest.raises(NonHermitianError):
            validity_report(skew, np.zeros((3, 2, 2)))


Z2 = np.zeros((2, 2))


class TestInputChecks:
    """Each input check of the module, reached by a minimal bad input."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda: KineticGenerators(Z2, np.zeros(1), Z2, Z2), DimensionMismatchError,
         "generator dimensions differ"),
        (lambda: KineticGenerators(Z2, np.zeros(2), Z2, Z2, scatterers=((1.0, np.eye(3)),)),
         DimensionMismatchError, "scatterer dimension"),
        (lambda: kinetic_rhs(vacuum(1)[0], KineticGenerators.zeros(2)), DimensionMismatchError,
         "generators act on 2 modes"),
        (lambda: integrate_kinetics(vacuum(1)[0], lambda t: (Z2, np.zeros(2), Z2, Z2), 0.0,
                                    [1.0]), DimensionMismatchError, "mode counts differ"),
        (lambda: integrate_kinetics(vacuum(1)[0], KineticGenerators.zeros(2), 0.0, [1.0]),
         DimensionMismatchError, "mode counts differ"),
        (lambda: extract_open_generators(lambda t: np.eye(2), lambda t: np.zeros((1, 1)), 0.0),
         DimensionMismatchError, "row counts differ"),
        (lambda: extract_open_generators(lambda t: np.eye(1), lambda t: np.zeros((1, 1)), 0.0,
                                         dx_up_s=lambda t: Z2),
         DerivativeUnavailableError, "shape mismatch"),
    ], ids=["zeta_size", "scatterer_size", "rhs_modes", "callable_modes", "generator_modes",
            "family_rows", "derivative_shape"])
    def test_bad_input_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_hermiticity_lost_raises(self, monkeypatch):
        # Hermitian generators keep r Hermitian, so no input loses it: a
        # solver that returns r = 1 + i stands in for one that did
        def solved(matrices, y0, times, rtol, atol):
            y = np.tile(np.asarray(y0, dtype=complex), (len(times), 1))
            y[:, 0] = 1.0 + 1.0j
            return y

        monkeypatch.setattr(kinetics, "solve_linear", solved)
        with pytest.raises(PhysicalityLostError, match="Hermiticity lost"):
            integrate_kinetics(vacuum(1)[0], KineticGenerators.zeros(1), 0.0, [1.0])
