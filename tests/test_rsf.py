import numpy as np
import pytest

from conftest import random_passive, random_physical_fields, random_symplectic
from rsfield.errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidMomentsError,
    NonFiniteStateError,
    NonHermitianError,
    NonHermitianObservableError,
    NotClassicalOpenError,
    NotPhysicalError,
    StructureViolationError,
)
from rsfield.numerics import is_psd, max_abs
from rsfield.rsf import (
    ConjugateField,
    GeneralizedField,
    ReducedField,
    _generalized_arrays,
    entropy_v,
    entropy_w,
    expect_additive,
    expect_linear,
    from_state_moments,
    reduce_to_system,
    transform_closed,
    transform_generalized,
    transform_open_vacuum_env,
    vacuum,
)
from rsfield.symplectic import from_blocks, identity_map

SINH2_03 = 0.09273260912113383  # sinh(0.3)^2, Fock-oracle confirmed
COSH_SINH_03 = 0.3183267910741206  # cosh(0.3) sinh(0.3), Fock-oracle confirmed


def squeeze_two_groups(r: float):
    c = np.cosh(r) * np.eye(2, dtype=complex)
    s = np.sinh(r) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return from_blocks(c, s, 1, 1, tol=1e-12)


class TestVacuum:
    def test_one_mode(self):
        rf, cf = vacuum(1)
        assert np.array_equal(rf.r, np.zeros((1, 1)))
        assert np.array_equal(rf.alpha, np.zeros(1))

    def test_two_modes(self):
        rf, cf = vacuum(2)
        assert np.array_equal(rf.r, np.zeros((2, 2)))
        assert np.array_equal(cf.c, np.zeros((2, 2)))

    def test_wehrl_entropy_equals_mode_count(self):
        for n in (1, 2, 5):
            rf, _ = vacuum(n)
            assert entropy_w(rf) == pytest.approx(n, abs=1e-14)
            assert entropy_v(rf) == pytest.approx(0.0, abs=1e-14)


class TestFieldValidation:
    def test_rejects_negative_occupation(self):
        with pytest.raises(NotPhysicalError):
            ReducedField(np.diag([1.0, -0.5]).astype(complex), np.zeros(2))

    def test_rejects_asymmetric_conjugate(self):
        with pytest.raises(InvalidMomentsError):
            ConjugateField(np.array([[0.0, 1.0], [0.5, 0.0]]))

    # a NaN residual compares false with any limit, so each check reads
    # ``not residual <= limit``; a NaN amplitude has no residual to show it;
    # an infinity is rejected before its residual, inf - inf, is formed

    def test_rejects_nan_generalized_field(self):
        with pytest.raises(StructureViolationError):
            GeneralizedField(np.full((2, 2), np.nan), [0, 0])

    def test_rejects_nan_conjugate_field(self):
        with pytest.raises(InvalidMomentsError):
            ConjugateField([[np.nan]])

    def test_rejects_infinite_conjugate_field(self):
        with pytest.raises(InvalidMomentsError):
            ConjugateField([[np.inf]])

    def test_rejects_infinite_fields(self):
        with pytest.raises(NonHermitianError):
            ReducedField([[np.inf]], [0])
        with pytest.raises(StructureViolationError):
            GeneralizedField(np.full((2, 2), np.inf), [0, 0])

    def test_rejects_nan_amplitude(self):
        with pytest.raises(NonFiniteStateError):
            ReducedField([[1.0]], [np.nan])

    def test_occupations_are_real_nonnegative(self, rng):
        rf, _ = random_physical_fields(3, rng)
        occ = rf.occupations()
        assert np.all(occ >= -1e-12)


class TestFromStateMoments:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layout_is_the_block_matrix(self, n, rng):
        # filled block by block, bit for bit the layout np.block writes
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g, a_vec = _generalized_arrays(r, alpha, c)
        assert np.array_equal(g, np.block([[r, c], [c.conj(), r.T + np.eye(n)]]))
        assert np.array_equal(a_vec, np.concatenate([alpha, alpha.conj()]))

    def test_vacuum_assembly(self):
        rf, cf = vacuum(2)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        assert max_abs(gf.g - np.diag([0.0, 0.0, 1.0, 1.0])) == 0.0

    def test_thermal_diagonal(self):
        nbar = 0.7
        gf = from_state_moments(
            np.array([[nbar]], dtype=complex), np.zeros(1), np.zeros((1, 1), dtype=complex)
        )
        assert max_abs(gf.g - np.diag([nbar, nbar + 1.0])) < 1e-15

    def test_coherent_state_moments(self):
        # z = 0.5: r = |z|^2, alpha = z, c = z^2 (Fock-oracle confirmed)
        z = 0.5
        gf = from_state_moments(
            np.array([[abs(z) ** 2]], dtype=complex),
            np.array([z], dtype=complex),
            np.array([[z**2]], dtype=complex),
        )
        expected = np.array([[abs(z) ** 2, z**2], [np.conj(z) ** 2, abs(z) ** 2 + 1.0]])
        assert max_abs(gf.g - expected) < 1e-15

    def test_round_trip_split(self, rng):
        rf, cf = random_physical_fields(3, rng)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        rf2, cf2 = gf.split()
        assert max_abs(rf2.r - rf.r) < 1e-13
        assert max_abs(cf2.c - cf.c) < 1e-13
        assert max_abs(rf2.alpha - rf.alpha) == 0.0

    def test_rejects_unphysical_r(self):
        with pytest.raises(InvalidMomentsError):
            from_state_moments(
                np.array([[-1.0]], dtype=complex), np.zeros(1), np.zeros((1, 1))
            )


class TestTransformGeneralized:
    def test_identity(self, rng):
        rf, cf = random_physical_fields(2, rng)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        out = transform_generalized(gf, identity_map(2))
        assert max_abs(out.g - gf.g) == 0.0

    def test_squeeze_on_vacuum(self):
        rf, cf = vacuum(2)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        out = transform_generalized(gf, squeeze_two_groups(0.3))
        rf2, _ = out.split()
        assert max_abs(rf2.r - SINH2_03 * np.eye(2)) < 1e-12

    def test_passive_keeps_vacuum(self, rng):
        rf, cf = vacuum(3)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        out = transform_generalized(gf, random_passive(3, rng))
        rf2, cf2 = out.split()
        assert max_abs(rf2.r) < 1e-14
        assert max_abs(cf2.c) < 1e-14

    def test_dimension_mismatch(self):
        rf, cf = vacuum(2)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        with pytest.raises(DimensionMismatchError):
            transform_generalized(gf, identity_map(3))

    def test_non_symplectic_input_detected(self):
        rf, cf = vacuum(1)
        gf = from_state_moments(rf.r, rf.alpha, cf.c)
        bad = identity_map(1)
        object.__setattr__(bad, "x", np.diag([2.0, 0.5]).astype(complex))
        with pytest.raises(StructureViolationError):
            transform_generalized(gf, bad)

    def test_positivity_preserved(self, rng):
        for _ in range(25):
            rf, cf = random_physical_fields(3, rng)
            gf = from_state_moments(rf.r, rf.alpha, cf.c)
            out = transform_generalized(gf, random_symplectic(3, rng))
            rf2, _ = out.split()
            ok, witness = is_psd(rf2.r, 1e-10)
            assert ok, witness


class TestTransformClosed:
    def test_passive_form(self, rng):
        rf, cf = random_physical_fields(2, rng)
        m = random_passive(2, rng)
        out = transform_closed(rf, cf, m)
        expected = m.x_up @ rf.r @ m.x_up.conj().T
        assert max_abs(out.r - expected) < 1e-12
        assert max_abs(out.alpha - m.x_up @ rf.alpha) < 1e-13

    def test_squeezed_vacuum_occupation(self):
        rf, cf = vacuum(2)
        out = transform_closed(rf, cf, squeeze_two_groups(0.3))
        assert max_abs(out.r - SINH2_03 * np.eye(2)) < 1e-12

    def test_identity(self, rng):
        rf, cf = random_physical_fields(2, rng)
        out = transform_closed(rf, cf, identity_map(2))
        assert max_abs(out.r - rf.r) < 1e-14

    def test_matches_generalized_on_random_ensemble(self, rng):
        for _ in range(100):
            rf, cf = random_physical_fields(2, rng)
            m = random_symplectic(2, rng)
            direct = transform_closed(rf, cf, m)
            gf = transform_generalized(from_state_moments(rf.r, rf.alpha, cf.c), m)
            rf2, _ = gf.split()
            assert max_abs(direct.r - rf2.r) <= 1e-10
            assert max_abs(direct.alpha - rf2.alpha) <= 1e-10

    def test_reversible(self, rng):
        for _ in range(10):
            rf, cf = random_physical_fields(2, rng)
            m = random_symplectic(2, rng)
            gf = from_state_moments(rf.r, rf.alpha, cf.c)
            back = transform_generalized(transform_generalized(gf, m), m.inverse())
            assert max_abs(back.g - gf.g) < 1e-8
            assert max_abs(back.a_vec - gf.a_vec) < 1e-8

    def test_passive_preserves_total_number(self, rng):
        for _ in range(10):
            rf, cf = random_physical_fields(3, rng)
            out = transform_closed(rf, cf, random_passive(3, rng))
            assert abs(np.trace(out.r) - np.trace(rf.r)) < 1e-10


class TestReduceToSystem:
    def test_product_of_vacua(self):
        rf, cf = vacuum(3)
        rf_s, cf_s, r_c, c_c = reduce_to_system(rf, cf, 2)
        assert max_abs(rf_s.r) == 0.0 and max_abs(cf_s.c) == 0.0
        assert max_abs(r_c) == 0.0 and max_abs(c_c) == 0.0

    def test_two_mode_squeezed_vacuum_blocks(self):
        rf, cf = vacuum(2)
        gf = transform_generalized(
            from_state_moments(rf.r, rf.alpha, cf.c), squeeze_two_groups(0.3)
        )
        rf2, cf2 = gf.split()
        rf_s, cf_s, r_c, c_c = reduce_to_system(rf2, cf2, 1)
        assert rf_s.r[0, 0].real == pytest.approx(SINH2_03, abs=1e-12)
        assert max_abs(cf_s.c) < 1e-12
        assert max_abs(r_c) < 1e-12
        assert abs(c_c[0, 0]) == pytest.approx(COSH_SINH_03, abs=1e-12)

    def test_block_reassembly_is_exact(self, rng):
        rf, cf = random_physical_fields(4, rng)
        rf_s, cf_s, r_c, c_c = reduce_to_system(rf, cf, 2)
        r_rebuilt = np.block([[rf_s.r, r_c], [rf.r[2:, :2], rf.r[2:, 2:]]])
        c_rebuilt = np.block([[cf_s.c, c_c], [cf.c[2:, :2], cf.c[2:, 2:]]])
        assert np.array_equal(r_rebuilt, rf.r)
        assert np.array_equal(c_rebuilt, cf.c)
        # the off-diagonal blocks are each other's (conjugate) transposes
        assert max_abs(r_c.conj().T - rf.r[2:, :2]) == 0.0
        assert max_abs(c_c.T - cf.c[2:, :2]) == 0.0

    def test_system_block_is_exact_subarray(self, rng):
        rf, cf = random_physical_fields(3, rng)
        rf_s, _, _, _ = reduce_to_system(rf, cf, 2)
        assert np.array_equal(rf_s.r, rf.r[:2, :2])


class TestTransformOpenVacuumEnv:
    def test_identity(self):
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, identity_map(1, 1))
        assert max_abs(out.r) == 0.0

    def test_scalar_amplifier_occupation(self):
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, squeeze_two_groups(0.3))
        assert out.r[0, 0].real == pytest.approx(SINH2_03, abs=1e-12)

    def test_rejects_non_classical_map(self, rng):
        # a generic squeeze with n_sys covering all modes has X_down_S != 0
        m = random_symplectic(2, rng, n_sys=2)
        rf, _ = vacuum(2)
        with pytest.raises(NotClassicalOpenError):
            transform_open_vacuum_env(rf, m)

    def test_matches_full_transform_with_vacuum_environment(self, rng):
        # system state (+) vacuum environment, pushed through a classical-open map
        rf_s, cf_s = random_physical_fields(1, rng)
        total_r = np.zeros((2, 2), dtype=complex)
        total_r[:1, :1] = rf_s.r
        total_c = np.zeros((2, 2), dtype=complex)
        total_c[:1, :1] = cf_s.c
        alpha = np.concatenate([rf_s.alpha, [0.0]])
        gf = from_state_moments(total_r, alpha, total_c)
        m = squeeze_two_groups(0.45)
        full = transform_generalized(gf, m)
        rf_full, _ = full.split()
        short = transform_open_vacuum_env(rf_s, m)
        assert max_abs(short.r - rf_full.r[:1, :1]) < 1e-12
        assert max_abs(short.alpha - rf_full.alpha[:1]) < 1e-12


class TestObservables:
    def test_total_number(self, rng):
        rf, _ = random_physical_fields(3, rng)
        assert expect_additive(rf, np.eye(3)) == pytest.approx(
            np.trace(rf.r).real, abs=1e-12
        )

    def test_mode_projector_reads_occupation(self, rng):
        rf, _ = random_physical_fields(3, rng)
        o = np.zeros((3, 3), dtype=complex)
        o[1, 1] = 1.0
        assert expect_additive(rf, o) == pytest.approx(rf.r[1, 1].real, abs=1e-13)

    def test_squeezed_vacuum_total_number(self):
        rf = ReducedField(SINH2_03 * np.eye(2), np.zeros(2))
        assert expect_additive(rf, np.eye(2)) == pytest.approx(2 * SINH2_03, abs=1e-12)

    def test_rejects_non_hermitian_observable(self, rng):
        rf, _ = random_physical_fields(2, rng)
        with pytest.raises(NonHermitianObservableError):
            expect_additive(rf, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan_observable(self):
        rf = ReducedField([[1.0]], [0])
        with pytest.raises(NonHermitianObservableError):
            expect_additive(rf, [[np.nan]])

    def test_rejects_infinite_observable(self):
        rf = ReducedField([[1.0]], [0])
        with pytest.raises(NonHermitianObservableError):
            expect_additive(rf, [[np.inf]])

    def test_stack_gives_each_single_value(self, rng):
        rf, _ = random_physical_fields(2, rng)
        z = rng.standard_normal((20, 2, 2)) + 1j * rng.standard_normal((20, 2, 2))
        o = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
        single = [expect_additive(rf, x) for x in o]
        assert all(type(v) is float for v in single)
        stacked = expect_additive(rf, o)
        assert stacked.shape == (20,)
        assert np.array_equal(stacked, single)

    def test_stack_with_one_non_hermitian_observable_raises(self, rng):
        rf, _ = random_physical_fields(2, rng)
        o = np.tile(np.eye(2, dtype=complex), (20, 1, 1))
        o[13, 0, 1] = 1.0
        with pytest.raises(NonHermitianObservableError):
            expect_additive(rf, o)

    @pytest.mark.parametrize("shape", [(20, 3, 3), (20, 2, 3), (4, 2), (2,), ()])
    def test_wrong_trailing_shape_raises(self, rng, shape):
        rf, _ = random_physical_fields(2, rng)
        with pytest.raises(DimensionMismatchError):
            expect_additive(rf, np.zeros(shape))

    def test_linear_vanishes_without_displacement(self):
        rf, _ = vacuum(2)
        assert expect_linear(rf, np.array([1.0, 1j])) == 0.0

    def test_linear_self_overlap(self):
        alpha = np.array([0.6, 0.8j])
        rf = ReducedField(np.outer(alpha, alpha.conj()), alpha)
        assert expect_linear(rf, alpha) == pytest.approx(2.0, abs=1e-13)

    def test_coherent_quadrature(self):
        # <a + a^dag> of |0.5>: sigma = [1] picks out 2 Re(alpha) = 1.0
        rf = ReducedField(np.array([[0.25]]), np.array([0.5]))
        assert expect_linear(rf, np.array([1.0])) == pytest.approx(1.0, abs=1e-14)


class TestEntropies:
    def test_single_thermal_occupation(self):
        rf = ReducedField(np.array([[1.0]], dtype=complex), np.zeros(1))
        assert entropy_v(rf) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert entropy_w(rf) == pytest.approx(np.log(2.0) + 1.0, abs=1e-12)

    def test_coherent_state_is_classical_pure(self):
        alpha = np.array([0.5 + 0.2j])
        rf = ReducedField(np.outer(alpha, alpha.conj()), alpha)
        assert entropy_v(rf) == pytest.approx(0.0, abs=1e-12)
        assert entropy_w(rf) == pytest.approx(1.0, abs=1e-12)

    def test_wehrl_at_least_mode_count(self, rng):
        for _ in range(10):
            rf, _ = random_physical_fields(3, rng)
            assert entropy_w(rf) >= 3.0 - 1e-12
            assert entropy_v(rf) >= -1e-12

    def test_invariance_under_passive_maps(self, rng):
        for _ in range(10):
            rf, cf = random_physical_fields(3, rng, displaced=False)
            out = transform_closed(rf, cf, random_passive(3, rng))
            assert entropy_v(out) == pytest.approx(entropy_v(rf), abs=1e-9)
            assert entropy_w(out) == pytest.approx(entropy_w(rf), abs=1e-9)

    def test_rejects_unphysical_displacement(self):
        # |alpha|^2 exceeds the occupation: r - |alpha><alpha| < 0
        rf = ReducedField(np.array([[0.25]], dtype=complex), np.array([1.0]))
        with pytest.raises(NotPhysicalError):
            entropy_v(rf)

    @pytest.mark.parametrize("entropy", [entropy_v, entropy_w])
    def test_eigensolver_failure_is_a_convergence_error(self, monkeypatch, entropy):
        rf, _ = vacuum(2)

        def fail(m):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="no convergence"):
            entropy(rf)


class TestOracleEquivalence:
    """Moments measured in the Fock oracle match the mesoscopic definitions."""

    def test_coherent_state(self):
        from rsfield.fock import coherent_state, measure_rsf

        rf, cf = measure_rsf(coherent_state(0.5, 0.0, n_max=12))
        assert abs(rf.r[0, 0].real - 0.25) < 1e-6
        assert abs(rf.alpha[0] - 0.5) < 1e-6
        assert abs(cf.c[0, 0] - 0.25) < 1e-6

    def test_squeezed_vacuum(self):
        from rsfield.fock import FockState, evolve, measure_rsf, squeeze_pair

        h, _ = squeeze_pair(0.3, 1.0)
        rf, cf = measure_rsf(evolve(FockState.vacuum(12), h, 1.0))
        assert max_abs(rf.r - SINH2_03 * np.eye(2)) < 1e-6
        assert abs(cf.c[0, 1] - COSH_SINH_03) < 1e-6

    def test_number_state(self):
        from rsfield.fock import FockState, measure_rsf

        rf, cf = measure_rsf(FockState.number_state(1, 0, 8))
        assert max_abs(rf.r - np.diag([1.0, 0.0])) < 1e-12
        assert max_abs(cf.c) < 1e-12
        assert max_abs(rf.alpha) < 1e-12


def _generalized_with_asymmetric_c():
    # g Hermitian with c = [[0, 1], [0, 0]]: its lower-left block is c^dag,
    # not conj(c)
    c = np.array([[0.0, 1.0], [0.0, 0.0]])
    g = np.block([[np.zeros((2, 2)), c], [c.T, np.eye(2)]])
    return GeneralizedField(g, np.zeros(4))


class TestInputChecks:
    """Each input check of the module that no other test reaches, by a
    minimal bad input."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda: ReducedField(np.eye(2), [0.0]), DimensionMismatchError, "alpha has size 1"),
        (lambda: vacuum(0), DimensionMismatchError, "at least one mode"),
        (lambda: transform_closed(*vacuum(1), identity_map(2)), DimensionMismatchError,
         "mode counts differ"),
        (lambda: reduce_to_system(*vacuum(2), 0), DimensionMismatchError, "n_sys=0"),
        (lambda: transform_open_vacuum_env(vacuum(2)[0], identity_map(1, 1)),
         DimensionMismatchError, "system field has 2 modes"),
        # o within the Hermiticity tolerance, its expectation not
        (lambda: expect_additive(ReducedField(np.ones((2, 2)), [0.0, 0.0]),
                                 [[1e6, 4e-7j], [4e-7j, -1e6]]),
         NonHermitianObservableError, "spurious imaginary part"),
        (lambda: GeneralizedField(np.zeros((3, 3)), np.zeros(3)), DimensionMismatchError,
         "2Nx2N"),
        (_generalized_with_asymmetric_c, StructureViolationError, "lower-left block"),
        (lambda: GeneralizedField(np.diag([0.0, 1.0]), [1.0, 0.0]), StructureViolationError,
         "amplitude halves"),
    ], ids=["alpha_size", "no_modes", "closed_modes", "n_sys_zero", "open_modes",
            "imaginary_expectation", "odd_g", "lower_left", "amplitude_halves"])
    def test_bad_input_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_field_keeps_the_hermitian_part_of_r(self):
        # r within the Hermiticity tolerance: its anti-Hermitian part is not
        # kept, so an exactly Hermitian observable reads no imaginary part
        rf = ReducedField([[1e6, 4e-7j], [4e-7j, 1e6]], [0.0, 0.0])
        assert np.array_equal(rf.r, np.diag([1e6, 1e6]))
        assert expect_additive(rf, [[0.0, 1.0], [1.0, 0.0]]) == 0.0
