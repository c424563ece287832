import numpy as np
import pytest

from conftest import random_passive, random_symplectic
from rsfield.errors import DimensionMismatchError, NotSymplecticError
from rsfield.numerics import max_abs
from rsfield.symplectic import (
    compose,
    from_blocks,
    identity_map,
    is_classical_closed,
    is_classical_open,
    symplectic_form,
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
        assert is_classical_closed(m, 1e-9)
        assert is_classical_open(m, 1e-9)

    def test_squeeze_is_not_closed_classical(self):
        assert not is_classical_closed(squeeze_map(0.3), 1e-9)

    def test_rotation_is_closed_classical(self):
        th = 0.7
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        m = from_blocks(u, np.zeros((2, 2), dtype=complex), 2, 0)
        assert is_classical_closed(m, 1e-9)

    def test_squeeze_is_open_classical(self):
        assert is_classical_open(squeeze_map(0.3), 1e-9)

    def test_relabelled_partition_changes_verdict(self):
        # Interleave system and environment modes of a two-group squeeze:
        # the system sub-block of X_down picks up the sinh entries.
        m = squeeze_map(0.3, n_sys=2)
        perm = np.zeros((4, 4), dtype=complex)
        for new, old in enumerate((0, 2, 1, 3)):
            perm[new, old] = 1.0
        p = from_blocks(perm, np.zeros((4, 4), dtype=complex), 2, 2, tol=1e-12)
        relabelled = compose(compose(p, m), p.inverse())
        assert is_classical_open(m, 1e-9)
        assert not is_classical_open(relabelled, 1e-9)

    def test_closed_implies_open_for_every_partition(self, rng):
        for n_sys in (1, 2, 3):
            u = random_passive(3, rng)
            m = from_blocks(u.x_up, np.zeros((3, 3), dtype=complex), n_sys, 3 - n_sys)
            assert is_classical_closed(m, 1e-9)
            assert is_classical_open(m, 1e-9)

    def test_closed_classical_maps_are_unitary(self, rng):
        tol = 1e-9
        for _ in range(100):
            m = random_passive(3, rng)
            if is_classical_closed(m, tol):
                res = max_abs(m.x_up @ m.x_up.conj().T - np.eye(3))
                assert res <= 10 * tol

    def test_open_needs_system_modes(self):
        m = identity_map(0, 2)
        with pytest.raises(DimensionMismatchError):
            is_classical_open(m, 1e-9)


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
        m = random_symplectic(5, rng, n_sys=2)
        b = m.blocks()
        assert b.up_s.shape == (2, 2)
        assert b.up_c.shape == (2, 3)
        assert b.up_cp.shape == (3, 2)
        assert b.up_e.shape == (3, 3)
        assert b.down_s.shape == (2, 2)
