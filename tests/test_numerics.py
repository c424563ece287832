import numpy as np
import pytest

from rsfield.errors import (
    DimensionMismatchError,
    NonFiniteStateError,
    NonHermitianError,
)
from rsfield.numerics import (
    OdeProblem,
    central_difference,
    hermitian_eigenvalues,
    is_psd,
    max_abs,
    solve_ode,
    solve_ode_dense,
)


def charpoly(m: np.ndarray, lam: float) -> float:
    """det(M - lam I): the characteristic polynomial, no eigensolver."""
    return float(np.linalg.det(m - lam * np.eye(m.shape[0])).real)


def bisection_spectrum(m: np.ndarray, lo: float, hi: float, grid: int = 4000) -> list:
    """All real roots of det(M - lam I) in [lo, hi] by sign-change bisection."""
    xs = np.linspace(lo, hi, grid)
    vals = [charpoly(m, x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = charpoly(m, mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return roots


class TestHermitianEigenvalues:
    def test_identity(self):
        w = hermitian_eigenvalues(np.eye(3, dtype=complex))
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        w = hermitian_eigenvalues(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 2.0], atol=1e-14)

    def test_random_hermitian_against_bisection(self, rng):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (z + z.conj().T)
        w = hermitian_eigenvalues(m)
        assert np.min(np.diff(w)) > 1e-3  # simple spectrum for this seed
        roots = bisection_spectrum(m, w[0] - 1.0, w[-1] + 1.0)
        assert len(roots) == 6
        assert np.max(np.abs(np.array(roots) - w)) < 1e-7

    def test_deterministic_across_calls(self, rng):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = z + z.conj().T
        w1 = hermitian_eigenvalues(m)
        w2 = hermitian_eigenvalues(m.copy())
        assert np.array_equal(w1, w2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros((2, 3)))


class TestIsPsd:
    def test_zero_matrix(self):
        ok, witness = is_psd(np.zeros((3, 3), dtype=complex), 1e-10)
        assert ok and witness == 0.0

    def test_small_negative(self):
        ok, witness = is_psd(np.diag([1.0, -1e-6]).astype(complex), 1e-10)
        assert not ok
        assert witness == pytest.approx(-1e-6, rel=1e-9)

    def test_relative_tolerance_scales(self):
        # -1e-6 against a matrix of norm 1e6 is within relative tolerance
        m = np.diag([1e6, -1e-6]).astype(complex)
        ok, _ = is_psd(m, 1e-10)
        assert ok


class TestSolveOde:
    def test_complex_exponential(self):
        p = OdeProblem(np.array([1.0 + 0j]), lambda t, y: -1j * y, (0.0, np.pi))
        y = solve_ode(p, [np.pi])
        assert abs(y[0, 0] + 1.0) < 1e-9

    def test_zero_rhs_constant(self):
        y0 = np.array([1.0 + 2j, -3.0 + 0j])
        p = OdeProblem(y0, lambda t, y: np.zeros_like(y), (0.0, 5.0))
        snaps = solve_ode(p, [0.0, 2.5, 5.0])
        assert np.allclose(snaps, y0[None, :])

    def test_norm_preserved_anti_hermitian(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (z + z.conj().T)
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y0 = y0 / np.linalg.norm(y0)
        p = OdeProblem(y0, lambda t, y: -1j * (h @ y), (0.0, 10.0), rtol=1e-10)
        snaps = solve_ode(p, np.linspace(0.0, 10.0, 11))
        norms = np.linalg.norm(snaps, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 10 * 1e-10 * 10.0

    def test_dense_output_matches_samples(self):
        p = OdeProblem(np.array([1.0 + 0j]), lambda t, y: -1j * y, (0.0, 2.0))
        dense = solve_ode_dense(p)
        for t in (0.3, 1.1, 1.9):
            assert abs(dense.at(t)[0] - np.exp(-1j * t)) < 1e-9

    def test_dense_output_array_matches_scalar_calls(self):
        # DOP853, the pair the mode equations use, interpolates elementwise:
        # one call on unsorted, repeated times gives the scalar calls' bits
        p = OdeProblem(
            np.array([1.0 + 0j, 0.5j]),
            lambda t, y: np.array([-1j * np.cos(t) * y[0], y[0] - 0.3 * y[1]]),
            (0.0, 3.0), method="DOP853",
        )
        dense = solve_ode_dense(p)
        times = np.array([2.9, 0.0, 1.3, 3.0, 0.7, 1.3])
        states = dense.at(times)
        assert states.shape == (6, 2)
        assert np.array_equal(states, np.array([dense.at(float(t)) for t in times]))
        with pytest.raises(DimensionMismatchError):
            dense.at(np.array([0.5, 3.5, 1.0]))

    def test_rejects_descending_samples(self):
        p = OdeProblem(np.array([1.0 + 0j]), lambda t, y: -y, (0.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            solve_ode(p, [0.5, 0.2])

    def test_rejects_samples_outside_span(self):
        p = OdeProblem(np.array([1.0 + 0j]), lambda t, y: -y, (0.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            solve_ode(p, [0.5, 2.0])

    def test_non_finite_rhs_raises(self):
        def rhs(t, y):
            return np.full_like(y, np.inf)

        p = OdeProblem(np.array([1.0 + 0j]), rhs, (0.0, 1.0))
        with pytest.raises(NonFiniteStateError):
            solve_ode(p, [1.0])

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DimensionMismatchError):
            OdeProblem(np.array([1.0]), lambda t, y: y, (0.0, 1.0), rtol=-1.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(DimensionMismatchError):
            OdeProblem(np.array([1.0]), lambda t, y: y, (0.0, 1.0), method="Euler")

    def test_higher_order_pair_and_first_step(self):
        p = OdeProblem(
            np.array([1.0 + 0j]), lambda t, y: -1j * y, (0.0, np.pi),
            rtol=1e-12, atol=1e-14, method="DOP853",
        )
        y = solve_ode(p, [np.pi])
        assert abs(y[0, 0] + 1.0) < 1e-11

    def test_zero_span_returns_initial_state(self):
        p = OdeProblem(np.array([2.0 + 1j]), lambda t, y: -y, (0.0, 0.0))
        snaps = solve_ode(p, [0.0])
        assert snaps[0, 0] == 2.0 + 1j


class TestCentralDifference:
    def test_quadratic(self):
        f = lambda t: t**2 * np.eye(2)
        d = central_difference(f, 1.0, 1e-4)
        assert max_abs(d - 2.0 * np.eye(2)) < 1e-7

    def test_complex_exponential(self):
        f = lambda t: np.exp(1j * t) * np.eye(2)
        d = central_difference(f, 0.0, 1e-5)
        assert max_abs(d - 1j * np.eye(2)) < 1e-8

    def test_second_order_convergence(self):
        f = lambda t: np.array([[np.sin(3.0 * t)]])
        exact = 3.0 * np.cos(3.0 * 0.4)
        e1 = abs(central_difference(f, 0.4, 1e-3)[0, 0] - exact)
        e2 = abs(central_difference(f, 0.4, 5e-4)[0, 0] - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DimensionMismatchError):
            central_difference(lambda t: np.eye(1), 0.0, 0.0)
