import numpy as np
import pytest

from conftest import random_passive, random_symplectic
from rsfield.errors import DimensionMismatchError, NotClassicalOpenError, NotSymplecticError
from rsfield.numerics import max_abs
from rsfield.rsf import transform_open_vacuum_env, vacuum
from rsfield.symplectic import (
    CLASSICAL_TOL,
    SYMPLECTIC_TOL,
    BogoliubovMap,
    classicality,
    compose,
    from_blocks,
    identity_map,
    is_classical_closed,
    is_classical_open,
    roundoff_limit,
    symplectic_form,
    symplectic_residuals,
)


def squeeze_map(r: float, n_sys: int = 1):
    """The two-group squeeze family: X_up = cosh r, X_down = sinh r (swap)."""
    n = 2 * n_sys
    c = np.cosh(r) * np.eye(n, dtype=complex)
    s = np.sinh(r) * np.block(
        [[np.zeros((n_sys, n_sys)), np.eye(n_sys)],
         [np.eye(n_sys), np.zeros((n_sys, n_sys))]]
    ).astype(complex)
    return from_blocks(c, s, n_sys, n_sys, tol=1e-12)


class TestFromBlocks:
    def test_identity(self):
        m = from_blocks(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex), 2, 0)
        assert m.symplectic_residual() == 0.0
        assert np.array_equal(m.x, np.eye(4))

    def test_squeeze_family_is_symplectic(self):
        m = squeeze_map(0.3)
        assert m.symplectic_residual() <= 1e-12

    def test_scaling_violates_ccr(self):
        with pytest.raises(NotSymplecticError) as err:
            from_blocks(2.0 * np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex), 1, 0)
        assert err.value.residual == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            from_blocks(np.eye(2, dtype=complex), np.zeros((3, 3), dtype=complex), 2, 0)

    def test_block_conjugation_structure(self, rng):
        m = random_symplectic(3, rng)
        n = 3
        assert max_abs(m.x[n:, :n] - m.x[:n, n:].conj()) == 0.0
        assert max_abs(m.x[n:, n:] - m.x[:n, :n].conj()) == 0.0

    def test_off_diagonal_ccr_condition_enforced(self):
        # |per-row normalization alone is not enough: an antisymmetric
        # lower block violates the cross-mode commutator condition
        r = 0.3
        u = np.cosh(r) * np.eye(2, dtype=complex)
        v = np.sinh(r) * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        with pytest.raises(NotSymplecticError):
            from_blocks(u, v, 1, 1)


class TestVerifySymplectic:
    def test_identity_zero(self):
        assert identity_map(2).symplectic_residual() == 0.0

    def test_squeeze_at_unit_parameter(self):
        assert squeeze_map(1.0).symplectic_residual() <= 1e-12

    def test_random_maps(self, rng):
        for _ in range(20):
            m = random_symplectic(4, rng)
            assert m.symplectic_residual() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_residuals_are_the_explicit_product(self, rng, n):
        # X S is X with its columns scaled by +-1, so the residuals of a stack
        # are those of the explicit X S X^dag - S, bit for bit
        x = np.stack([random_symplectic(n, rng, squeeze_scale=3.0).x for _ in range(30)])
        s = symplectic_form(n)
        explicit = np.abs(x @ s @ np.swapaxes(x, -1, -2).conj() - s).max(axis=(-2, -1))
        assert np.array_equal(symplectic_residuals(x), explicit)


class TestCompose:
    def test_identity_is_neutral(self, rng):
        m = random_symplectic(2, rng)
        c = compose(identity_map(2), m)
        assert max_abs(c.x - m.x) == 0.0

    def test_inverse_pair(self):
        c = compose(squeeze_map(0.3), squeeze_map(-0.3))
        assert max_abs(c.x - np.eye(4)) < 1e-12

    def test_hyperbolic_addition(self):
        c = compose(squeeze_map(0.2), squeeze_map(0.3))
        assert max_abs(c.x - squeeze_map(0.5).x) < 1e-12

    def test_partition_mismatch(self, rng):
        a = random_symplectic(2, rng, n_sys=1)
        b = random_symplectic(2, rng, n_sys=2)
        with pytest.raises(DimensionMismatchError):
            compose(a, b)

    def test_residual_subadditive(self, rng):
        for _ in range(20):
            a = random_symplectic(3, rng)
            b = random_symplectic(3, rng)
            lhs = compose(a, b).symplectic_residual()
            assert lhs <= a.symplectic_residual() + b.symplectic_residual() + 1e-12

    def test_group_inverse(self, rng):
        m = random_symplectic(3, rng)
        c = compose(m, m.inverse())
        assert max_abs(c.x - np.eye(6)) < 1e-10


class TestClassicality:
    def test_identity_is_classical_both_ways(self):
        m = identity_map(1, 1)
        assert is_classical_closed(m)
        assert is_classical_open(m)

    def test_squeeze_is_not_closed_classical(self):
        assert not is_classical_closed(squeeze_map(0.3))

    def test_rotation_is_closed_classical(self):
        th = 0.7
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        m = from_blocks(u, np.zeros((2, 2), dtype=complex), 2, 0)
        assert is_classical_closed(m)

    def test_squeeze_is_open_classical(self):
        assert is_classical_open(squeeze_map(0.3))

    def test_relabelled_partition_changes_verdict(self):
        # Interleave system and environment modes of a two-group squeeze:
        # the system sub-block of X_down picks up the sinh entries.
        m = squeeze_map(0.3, n_sys=2)
        perm = np.zeros((4, 4), dtype=complex)
        for new, old in enumerate((0, 2, 1, 3)):
            perm[new, old] = 1.0
        p = from_blocks(perm, np.zeros((4, 4), dtype=complex), 2, 2, tol=1e-12)
        relabelled = compose(compose(p, m), p.inverse())
        assert is_classical_open(m)
        assert not is_classical_open(relabelled)

    def test_closed_implies_open_for_every_partition(self, rng):
        for n_sys in (1, 2, 3):
            u = random_passive(3, rng)
            m = from_blocks(u.x_up, np.zeros((3, 3), dtype=complex), n_sys, 3 - n_sys)
            assert is_classical_closed(m)
            assert is_classical_open(m)

    def test_closed_classical_maps_are_unitary(self, rng):
        for _ in range(100):
            m = random_passive(3, rng)
            if is_classical_closed(m):
                res = max_abs(m.x_up @ m.x_up.conj().T - np.eye(3))
                assert res <= 1e-8

    @pytest.mark.parametrize("n", [1e26, 3.9e26, 6.1e29])
    def test_large_squeeze_is_never_closed_classical(self, n):
        # |X_down| = sqrt(n): a limit of 256 eps n, from the residual's
        # quadratic scale, would pass it from n = 3.1e26 on; the entry
        # scale's 256 eps sqrt(n + 1) never does
        m = squeeze_map(np.arcsinh(np.sqrt(n)))
        assert not is_classical_closed(m)
        assert not is_classical_closed(m.inverse())
        value, limit = classicality(m.x, 2)
        assert not value <= limit
        value, limit = classicality(m.x, 1)
        assert is_classical_open(m) and value <= limit

    def test_open_needs_system_modes(self):
        m = identity_map(0, 2)
        with pytest.raises(DimensionMismatchError):
            is_classical_open(m)


def beam_splitter(angle: float):
    """The passive two-mode rotation by ``angle``, one system mode."""
    c, s = np.cos(angle), np.sin(angle)
    return from_blocks(np.array([[c, -s], [s, c]], dtype=complex),
                       np.zeros((2, 2), dtype=complex), 1, 1)


class TestRoundoffLimit:
    """The limit max(floor, 256 eps scale) of maps and verdicts: it grows
    with the photon number, follows the factors of a product, and still
    catches a real defect."""

    def test_limit_is_floor_or_scaled_roundoff(self):
        eps = np.finfo(float).eps
        assert roundoff_limit(1.0, SYMPLECTIC_TOL) == SYMPLECTIC_TOL
        assert roundoff_limit(1e9, SYMPLECTIC_TOL) == 256 * eps * 1e9
        assert np.array_equal(roundoff_limit(np.array([1.0, 1e12]), CLASSICAL_TOL),
                              [CLASSICAL_TOL, 256 * eps * 1e12])

    def test_scale_defaults_to_largest_entry_squared(self):
        m = squeeze_map(2.0)
        assert m.scale == max_abs(m.x) ** 2 == m.inverse().scale
        assert m.system_scale == max_abs(m.x[:1]) ** 2

    def test_scales_are_not_constructor_options(self):
        # only compose and inverse set the scales: a caller cannot widen a
        # validated map's limit, and a NaN scale or residual is rejected
        x = squeeze_map(0.3).x
        with pytest.raises(TypeError):
            BogoliubovMap(1, 1, x, scale=1e30)
        with pytest.raises(NotSymplecticError):
            BogoliubovMap(1, 1, x, 1e-8, (float("nan"), 1.0))
        with pytest.raises(NotSymplecticError):
            BogoliubovMap(1, 1, np.where(np.eye(4) == 1, np.nan, x))

    @pytest.mark.parametrize("r", [356.0, 400.0])
    def test_entries_whose_square_overflows_are_rejected(self, r):
        # cosh(400)^2 once raised a builtin OverflowError from ``** 2``;
        # squeeze_map(355) still builds, its scale 5.6e307
        with pytest.raises(NotSymplecticError, match="square overflows"):
            squeeze_map(r)

    @pytest.mark.parametrize("value", [np.inf, complex(0.0, -np.inf)])
    def test_infinite_entry_is_rejected_without_a_warning(self, value):
        # the suite turns warnings into errors, so an inf - inf formed in the
        # residual would fail this test before the map rejected the entry
        x = np.eye(4, dtype=complex)
        x[0, 3] = value
        with pytest.raises(NotSymplecticError, match="not finite"):
            BogoliubovMap(1, 1, x)

    def test_without_environment_both_scales_agree(self):
        m = from_blocks(np.cosh(3.0) * np.eye(2), np.sinh(3.0) * np.eye(2)[::-1], 2)
        for k in (m, m.inverse(), compose(m, m.inverse()), compose(m.inverse(), m)):
            assert k.system_scale == pytest.approx(k.scale, rel=1e-12)

    @pytest.mark.parametrize("r", [10.0, 12.0])
    def test_compose_beam_splitter_and_squeezer_at_large_squeezing(self, r):
        # n = sinh(12)^2 ~ 6.6e9: the product's residual is roundoff of about
        # eps n, far above the 1e-8 floor
        m = compose(beam_splitter(0.7), squeeze_map(r))
        assert SYMPLECTIC_TOL < m.symplectic_residual() <= roundoff_limit(m.scale, m.tol)

    @pytest.mark.parametrize("n", [1e6, 1e9, 1e12])
    def test_product_with_inverse_is_closed_classical(self, n):
        # the identity, with about 0.26 eps n in X_down: the product's scale
        # comes from its factors, not from its own entries (which are ~1)
        m = squeeze_map(np.arcsinh(np.sqrt(n)))
        one = compose(m, m.inverse())
        assert max_abs(one.x - np.eye(4)) < 1e-4
        assert is_classical_closed(one)
        assert is_classical_closed(compose(one, one))
        assert is_classical_closed(compose(compose(one, m), m.inverse()))
        assert is_classical_open(one)
        if n == 1e9:
            assert max_abs(one.x_down) > CLASSICAL_TOL

    @pytest.mark.parametrize("n", [0.1, 3e7])
    def test_perturbation_beyond_limit_raises(self, n):
        # X_up scaled by (1 + d / cosh r), d = 1e3 times the limit: the
        # residual |X_up|^2 - |X_down|^2 - 1 is then about 2 cosh(r) d
        r = np.arcsinh(np.sqrt(n))
        c, s = np.cosh(r) * np.eye(2), np.sinh(r) * np.array([[0.0, 1.0], [1.0, 0.0]])
        m = from_blocks(c, s, 1, 1)
        limit = roundoff_limit(m.scale, m.tol)
        assert m.symplectic_residual() <= limit
        assert (limit == SYMPLECTIC_TOL) == (n < 1e5)
        with pytest.raises(NotSymplecticError):
            from_blocks(c * (1.0 + 1e3 * limit / np.cosh(r)), s, 1, 1)


class TestInvariants:
    def test_determinant_modulus_one(self, rng):
        for _ in range(20):
            m = random_symplectic(3, rng)
            _, logdet = np.linalg.slogdet(m.x)
            assert abs(logdet) < 1e-8

    def test_symplectic_form_signature(self):
        s = symplectic_form(2)
        assert np.array_equal(np.diag(s).real, [1, 1, -1, -1])

    def test_blocks_partition_dimensions(self, rng):
        # X_up and X_down are the N x N upper blocks, whatever the partition
        m = random_symplectic(5, rng, n_sys=2)
        assert m.x_up.shape == m.x_down.shape == (5, 5)
        assert np.array_equal(np.block([m.x_up, m.x_down]), m.x[:5])


class TestOpenLimitIgnoresEnvironment:
    """|X_down_S| is judged against the roundoff of the system's own rows: a
    huge environment squeeze must not hide a small system squeeze."""

    @staticmethod
    def block_diagonal(sinh_sys: float, n_env: float = 1e12):
        r_s, r_e = np.arcsinh(sinh_sys), np.arcsinh(np.sqrt(n_env))
        return from_blocks(np.diag([np.cosh(r_s), np.cosh(r_e)]),
                           np.diag([np.sinh(r_s), np.sinh(r_e)]), 1, 1)

    @pytest.mark.parametrize("sinh_sys", [0.05, 1e-6])
    def test_small_system_squeeze_is_not_open_classical(self, sinh_sys):
        m = self.block_diagonal(sinh_sys)
        # the whole map's limit, 256 eps 1e12 = 0.057, would call it classical
        assert roundoff_limit(m.scale, CLASSICAL_TOL) > 0.05
        for k in (m, m.inverse(), compose(identity_map(1, 1), m),
                  compose(m, identity_map(1, 1))):
            assert not is_classical_open(k)
        rf, _ = vacuum(1)
        with pytest.raises(NotClassicalOpenError):
            transform_open_vacuum_env(rf, m)

    def test_environment_squeeze_alone_is_open_classical(self):
        m = self.block_diagonal(0.0)
        assert is_classical_open(m) and not is_classical_closed(m)
        rf, _ = vacuum(1)
        out = transform_open_vacuum_env(rf, m)
        assert max_abs(out.r) == 0.0
