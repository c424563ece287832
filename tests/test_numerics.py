import math
import re
import warnings

import numpy as np
import pytest

from rsfield import casimir, numerics
from rsfield.casimir import CasimirScenario, VelocityProfile
from rsfield.errors import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteStateError,
    NonHermitianError,
)
from rsfield.numerics import (
    central_difference,
    expm,
    expmv,
    hermitian_eigvalsh,
    is_hermitian,
    is_psd,
    max_abs,
    require_hermitian,
    solve_linear,
    solve_magnus,
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
        w = hermitian_eigvalsh(np.eye(3, dtype=complex), "matrix")[1]
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        w = hermitian_eigvalsh(np.diag([2.0, -1.0]).astype(complex), "matrix")[1]
        assert np.allclose(w, [-1.0, 2.0], atol=1e-14)

    def test_random_hermitian_against_bisection(self, rng):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (z + z.conj().T)
        w = hermitian_eigvalsh(m, "matrix")[1]
        assert np.min(np.diff(w)) > 1e-3  # simple spectrum for this seed
        roots = bisection_spectrum(m, w[0] - 1.0, w[-1] + 1.0)
        assert len(roots) == 6
        assert np.max(np.abs(np.array(roots) - w)) < 1e-7

    def test_deterministic_across_calls(self, rng):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = z + z.conj().T
        w1 = hermitian_eigvalsh(m, "matrix")[1]
        w2 = hermitian_eigvalsh(m.copy(), "matrix")[1]
        assert np.array_equal(w1, w2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]), "matrix")[1]

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigvalsh(np.zeros((2, 3)), "matrix")[1]

    # a NaN residual compares false with any limit, and an infinity's
    # residual would be inf - inf: each is rejected as not Hermitian

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_require_hermitian_rejects_non_finite(self, bad):
        with pytest.raises(NonHermitianError):
            require_hermitian(np.array([[bad]]))

    def test_eigh_rejects_nan(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigvalsh(np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix")


class TestIsHermitian:
    def test_stack_flags_exactly_the_bad_matrices(self, rng):
        # one non-Hermitian matrix, one with an infinity on the diagonal (its
        # residual is inf - inf) and one with a NaN among Hermitian ones, and
        # no RuntimeWarning
        z = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        stack = z + np.swapaxes(z, -1, -2).conj()
        stack[1, 0, 2] += 1e-6
        stack[3, 1, 1] = np.inf
        stack[4, 2, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hermitian(stack).tolist() == [True, False, True, False, False, True]
            assert is_hermitian(stack[0]) and not is_hermitian(stack[3])
            # a lone infinity off the diagonal leaves residual and limit both infinite
            assert not is_hermitian(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_require_hermitian_names_the_stack(self):
        stack = np.zeros((4, 2, 2))
        stack[2, 0, 1] = 1.0
        with pytest.raises(NonHermitianError, match="gamma_up"):
            require_hermitian(stack, what="gamma_up")

    # is_psd takes a square matrix or a stack of them
    @pytest.mark.parametrize("check,shape", [
        (is_psd, (2, 3)), (is_psd, (3, 2, 3)),
    ], ids=["shape1-is_psd", "stack-is_psd"])
    def test_one_square_matrix_only(self, check, shape):
        with pytest.raises(DimensionMismatchError):
            check(np.zeros(shape))


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

    def test_rejects_nan(self):
        with pytest.raises(NonHermitianError):
            is_psd(np.array([[np.nan]]))

    def test_stack_matches_each_matrix(self):
        # one verdict and witness per matrix, each at its own scale
        stack = np.array([np.diag(d) for d in ([1.0, 2.0], [1.0, -1e-6], [1e6, -1e-6])])
        ok, witness = is_psd(stack, 1e-10)
        assert ok.tolist() == [True, False, True]
        for k, m in enumerate(stack):
            assert (ok[k], witness[k]) == is_psd(m, 1e-10)


class TestExpm:
    def test_matches_eigendecomposition(self, rng):
        # exp(-i H s) = V exp(-i w s) V^dag, from numpy's eigh, over norms
        # from small (no squaring) to large (many squarings); a stack at once
        z = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        h = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
        w, v = np.linalg.eigh(h)
        for s in (1e-4, 0.1, 1.0, 7.0, 40.0):
            expected = (v * np.exp(-1j * w * s)[:, None, :]) @ np.swapaxes(v, -1, -2).conj()
            assert max_abs(expm(-1j * s * h) - expected) < 1e-13 * (1.0 + s)

    def test_nilpotent_and_zero_are_exact(self):
        a = np.zeros((2, 2, 2), dtype=complex)
        a[1, 0, 1] = 2.5
        out = expm(a)
        assert np.array_equal(out[0], np.eye(2))
        assert np.array_equal(out[1], np.array([[1.0, 2.5], [0.0, 1.0]]))

    def test_real_growth(self):
        out = expm(np.array([[0.0, 3.0], [3.0, 0.0]]))
        expected = np.array([[np.cosh(3.0), np.sinh(3.0)], [np.sinh(3.0), np.cosh(3.0)]])
        assert max_abs(out - expected) <= 1e-14 * np.cosh(3.0)

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteStateError):
            expm(np.array([[np.nan]]))

    def test_empty_stack(self):
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


class TestExpmv:
    def test_matches_eigendecomposition(self, rng):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (z + z.conj().T)
        w, v = np.linalg.eigh(h)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bound = float(np.abs(h).sum(axis=0).max())
        for t in (0.01, 1.0, 25.0):
            out = expmv(lambda x: -1j * t * (h @ x), psi, bound * t)
            expected = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))
            assert max_abs(out - expected) < 1e-13 * (1.0 + t)

    def test_zero_norm_returns_the_vector(self):
        psi = np.array([1.0 + 2j, 0.5])
        assert expmv(lambda x: 0.0 * x, psi, 0.0) is psi

    @pytest.mark.parametrize("norm", [math.inf, math.nan])
    def test_non_finite_norm_is_rejected(self, norm):
        # the step plan once reached math.ceil and raised a builtin error
        with pytest.raises(NonFiniteStateError):
            expmv(lambda x: x, np.array([1.0 + 0j]), norm)

    @pytest.mark.parametrize("norm", [2e5, 1e8, 1e300])
    def test_plan_past_the_cap_raises_before_any_work(self, norm):
        # the work is linear in the norm: 1e300 once planned ~5e298 substeps
        # and never returned
        applied = []
        with pytest.raises(ConvergenceError, match=re.escape(f"{norm:.3e}") + ".*applications"):
            expmv(lambda x: applied.append(1) or x, np.array([1.0 + 0j]), norm)
        assert not applied

    def test_cap_admits_the_fock_check_beam_splitter(self):
        # |angle| <= 2 pi at cutoff 2047, the largest fock-check admits, in
        # one plan for the whole evolution: ||t H||_1 <= n_max 4 pi
        substeps, degree = numerics._taylor_plan(2047 * 4.0 * math.pi)
        assert (substeps, degree) == (2599, 55)
        assert substeps * degree == 142_945 < numerics.EXPMV_MAX_APPLICATIONS

    @pytest.mark.parametrize("scale", [0.5, 10.0, 100.0])
    def test_watched_points_match_separate_calls(self, rng, scale):
        # norms that plan 1, 2 and 12 substeps; the points include substep
        # boundaries of each plan (1, 1/2, and 1/4, 3/4 of 12)
        z = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        h = 0.5 * (z + z.conj().T)
        h *= scale / float(np.abs(h).sum(axis=0).max())
        psi = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        watch = np.array([9, 0, 4])
        points = [0.125, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0]
        out, readings = expmv(lambda x: -1j * (h @ x), psi, scale, watch, points)
        assert np.array_equal(out, expmv(lambda x: -1j * (h @ x), psi, scale))
        assert readings.shape == (len(points), watch.size)
        for p, reading in zip(points, readings):
            alone = expmv(lambda x: -1j * p * (h @ x), psi, p * scale)
            assert max_abs(reading - alone[watch]) <= 1e-14 * max_abs(psi)

    def test_watched_points_without_a_substep(self):
        psi = np.array([1.0 + 2j, 0.5, -3j])
        out, readings = expmv(lambda x: 0.0 * x, psi, 0.0, np.array([2, 0]), [0.25, 0.5])
        assert out is psi
        assert np.array_equal(readings, [[-3j, 1.0 + 2j]] * 2)


def reading_taylor(apply, v, degree, scale):
    """The Taylor series with the stop test reading the partial sum's norm at
    every term, the reference for ``numerics._taylor``'s stop decisions."""
    total = term = v
    previous = np.abs(v).max(initial=0.0)
    for k in range(1, degree + 1):
        term = apply(term)
        term *= scale / k
        total = total + term
        size = np.abs(term).max(initial=0.0)
        if previous + size <= numerics.UNIT_ROUNDOFF * np.abs(total).max(initial=0.0):
            break
        previous = size
    return total


class TestTaylorStop:
    """The running bound on the partial sum only gates the stop test: each
    series stops at the same term, with the same sum, as the reference."""

    @staticmethod
    def both(monkeypatch, call):
        """(result, applications of A) of ``call()`` with ``numerics._taylor``
        and with ``reading_taylor``."""
        runs = []
        for taylor in (numerics._taylor, reading_taylor):
            count = [0]

            def counted_taylor(apply, v, degree, scale, taylor=taylor, count=count):
                def counted(x):
                    count[0] += 1
                    return apply(x)

                return taylor(counted, v, degree, scale)

            monkeypatch.setattr(numerics, "_taylor", counted_taylor)
            runs.append((call(), count[0]))
        return runs

    def assert_same(self, monkeypatch, call):
        """Assert equal results and applications; return the applications."""
        (result, applications), (expected, expected_applications) = self.both(monkeypatch, call)
        assert applications == expected_applications > 0
        assert np.array_equal(result, expected)
        return applications

    def test_expm_cases(self, rng, monkeypatch):
        z = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        h = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
        nilpotent = np.zeros((2, 2, 2), dtype=complex)
        nilpotent[1, 0, 1] = 2.5
        for a in [-1j * s * h for s in (1e-4, 0.1, 1.0, 7.0, 40.0)] + [
            nilpotent, np.array([[0.0, 3.0], [3.0, 0.0]]),
        ]:
            self.assert_same(monkeypatch, lambda: expm(a))

    def test_expmv_cases(self, rng, monkeypatch):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (z + z.conj().T)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bound = float(np.abs(h).sum(axis=0).max())
        for t in (0.01, 1.0, 25.0):
            self.assert_same(
                monkeypatch, lambda: expmv(lambda x: -1j * t * (h @ x), psi, bound * t)
            )

    def test_read_only_vector_is_left_intact(self, rng, monkeypatch):
        # the partial sum is updated in place, never the vector it starts from
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (z + z.conj().T)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi.setflags(write=False)
        before = psi.copy()
        bound = float(np.abs(h).sum(axis=0).max())
        self.assert_same(monkeypatch, lambda: expmv(lambda x: -1j * (h @ x), psi, bound))
        assert np.array_equal(psi, before)

    def test_cancelling_terms(self, monkeypatch):
        # exp(-3) to degree 40: the terms' norms sum to e^3 while the sum is
        # e^-3, so the bound passes from term 28 on and the sum at term 31
        v = np.array([1.0 + 0j, 0.5j])
        applications = self.assert_same(
            monkeypatch, lambda: numerics._taylor(lambda x: -3.0 * x, v, 40, 1.0)
        )
        assert applications == 31


def cosine_generator(t):
    """A(t) = -i cos(t) on one component: y(t) = exp(-i sin t) y(0)."""
    return (-1j * np.cos(t))[:, None, None]


class TestSolveOde:
    """solve_linear, the solver of the linear ODE dy/dt = A y."""

    def test_complex_exponential(self):
        y = solve_linear(np.array([[-1j]]), [1.0], [0.0, np.pi])
        assert abs(y[-1, 0] + 1.0) < 1e-14

    def test_zero_rhs_constant(self):
        y0 = np.array([1.0 + 2j, -3.0 + 0j])
        for gen in (np.zeros((2, 2)), lambda t: np.zeros((t.size, 2, 2))):
            snaps = solve_linear(gen, y0, [0.0, 2.5, 5.0])
            assert np.array_equal(snaps, np.tile(y0, (3, 1)))

    def test_norm_preserved_anti_hermitian(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (z + z.conj().T)
        y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y0 = y0 / np.linalg.norm(y0)
        times = np.linspace(0.0, 10.0, 11)
        for gen in (-1j * h, lambda t: -1j * np.cos(t)[:, None, None] * h):
            snaps = solve_linear(gen, y0, times, rtol=1e-10)
            assert np.max(np.abs(np.linalg.norm(snaps, axis=1) - 1.0)) < 1e-13

    def test_time_dependent_matches_closed_form(self):
        times = np.linspace(0.0, 3.0, 7)
        y = solve_linear(cosine_generator, [1.0], times, rtol=1e-12, atol=1e-14)
        assert max_abs(y[:, 0] - np.exp(-1j * np.sin(times))) < 1e-12

    def test_rejects_descending_samples(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.array([[-1.0]]), [1.0], [0.5, 0.2])

    def test_non_finite_rhs_raises(self):
        for gen in (np.array([[np.inf]]), lambda t: np.full((t.size, 1, 1), np.nan)):
            with pytest.raises(NonFiniteStateError):
                solve_linear(gen, [1.0], [0.0, 1.0])

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.array([[1.0]]), [1.0], [0.0, 1.0], rtol=-1.0)

    def test_zero_span_returns_initial_state(self):
        for gen in (np.array([[-1.0]]), cosine_generator):
            snaps = solve_linear(gen, [2.0 + 1j], [0.0, 0.0])
            assert np.array_equal(snaps, np.array([[2.0 + 1j], [2.0 + 1j]]))

    def test_single_sample_returns_initial_state(self):
        y0 = np.array([1.0 - 2j, 0.5])
        assert np.array_equal(solve_linear(np.eye(2), y0, [0.5]), [y0])


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


def boost_generator(t):
    """A(t) = k(t) [[0, 1], [1, 0]] with k = cos t, so (a, p, q) = (0, k, 0),
    and rate 2t: U(t) = cosh(sin t) I + sinh(sin t) [[0, 1], [1, 0]] and
    integral t^2."""
    k = np.cos(t)
    return np.zeros_like(k), k, np.zeros_like(k), 2.0 * t


def mixed_generator(t):
    """All three su(1,1) coordinates nonzero, crossing between elliptic
    (a^2 > p^2 + q^2) and hyperbolic steps."""
    return 1.0 + 0.5 * np.cos(t), 0.8 * np.sin(2.0 * t), 0.6 * np.cos(3.0 * t), np.sin(t)


def su11_matrix(a, p, q):
    return np.array([[1j * a, p + 1j * q], [p - 1j * q, -1j * a]])


def su11_element(rows):
    """The matrices [[u, v], [conj(v), conj(u)]] of rows (u, v), ``(2, ...)``,
    with the matrix axes last: ``(..., 2, 2)``."""
    u, v = rows
    return np.moveaxis(np.array([[u, v], [np.conj(v), np.conj(u)]]), (0, 1), (-2, -1))


W3_SCENARIO = CasimirScenario(
    1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 600.0
)


class TestMagnusSteps:
    def test_su11_bracket_is_the_commutator(self, rng):
        x, y = rng.normal(size=(2, 3))
        expected = su11_matrix(*x) @ su11_matrix(*y) - su11_matrix(*y) @ su11_matrix(*x)
        assert max_abs(su11_matrix(*numerics._su11_bracket(x, y)) - expected) < 1e-14

    @pytest.mark.parametrize("coordinates, h", [
        ((0.3, 1.0, 0.4), 0.7),  # hyperbolic: r^2 = p^2 + q^2 - a^2 > 0
        ((1.0, 0.3, 0.4), 0.7),  # elliptic: r^2 < 0
        ((1.0, 0.3, 0.4), 1.1e-4),  # r^2 = -9.1e-9, just inside the series' range
    ], ids=["hyperbolic", "elliptic", "series"])
    def test_constant_generator_maps_by_the_exponential(self, coordinates, h):
        # a constant generator's Magnus exponent is h A exactly
        def generator(t):
            one = np.ones_like(t)
            return tuple(c * one for c in coordinates) + (one,)

        maps, integral = numerics.magnus_steps(generator, np.array([0.0]), np.array([h]))
        assert maps.shape == (2, 1)
        assert max_abs(su11_element(maps[:, 0]) - expm(h * su11_matrix(*coordinates))) < 1e-15
        assert integral[0] == pytest.approx(h, rel=1e-15)

    @pytest.mark.parametrize("branch", ["hyperbolic", "elliptic", "series"])
    def test_step_maps_lie_in_su11(self, branch):
        if branch == "hyperbolic":
            generator, t0, h = boost_generator, np.linspace(0.0, 5.0, 50), 0.1
        else:
            generator = casimir._mode_generator(W3_SCENARIO)
            t0 = np.linspace(0.0, 600.0, 600)
            h = 1.0 / 64.0 if branch == "elliptic" else 1e-5  # W3's steps; dense output
        maps, _ = numerics.magnus_steps(generator, t0, np.full(t0.shape, h))
        u, v = maps
        cosine = u.real  # cosh r > 1 on the hyperbolic branch, cos r < 1 on the elliptic
        if branch == "hyperbolic":
            assert np.all(cosine > 1.0)
        elif branch == "elliptic":
            assert np.all(cosine < 1.0 - 1e-8)
        else:
            assert np.all(np.abs(cosine - 1.0) < 1e-9)
        det = u * u.conj() - v * v.conj()
        scale = np.abs(u) ** 2 + np.abs(v) ** 2
        assert np.all(np.abs(det - 1.0) <= 4.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("steps", [
        1, 2, 31, 32, 33, 64, 65,
        numerics.MAGNUS_CHUNK - 1, numerics.MAGNUS_CHUNK, numerics.MAGNUS_CHUNK + 1,
        2 * numerics.MAGNUS_CHUNK + 1,
    ])
    def test_prefix_scan_matches_sequential_product(self, steps):
        # the rows (u, v) of the running products against the products of
        # the assembled 2x2 step maps
        nodes = np.linspace(0.0, 0.01 * steps, steps + 1)
        u, integral = numerics.propagate_magnus(mixed_generator, nodes)
        maps, increments = numerics.magnus_steps(mixed_generator, nodes[:-1], np.diff(nodes))
        expected = [np.eye(2)]
        for step in su11_element(maps):
            expected.append(step @ expected[-1])
        expected = np.stack(expected, axis=-1)[0]
        assert u.shape == (2, steps + 1)
        # roundoff of a product of `steps` maps, at most about eps per factor
        assert max_abs(u - expected) <= 2.0 * steps * np.finfo(float).eps * max_abs(expected)
        assert max_abs(integral - np.concatenate([[0.0], np.cumsum(increments)])) < 1e-13


class TestSolveMagnus:
    def test_matches_closed_form(self):
        sol = solve_magnus(boost_generator, [0.0, 2.0, 5.0], 0.5, rtol=1e-12, atol=1e-14)
        t = np.array([0.0, 0.3, 2.0, 3.7, 5.0])
        u, integral = sol.at(t)
        s = np.sin(t)
        expected = np.array([np.cosh(s), np.sinh(s)])
        assert u.shape == (2, 5)
        assert max_abs(u - expected) < 1e-12
        assert max_abs(integral - t ** 2) < 1e-12
        assert 2.0 in sol.nodes.tolist()
        assert sol.error_estimate < 1e-12

    def test_nodes_are_exact_and_scalar_calls_match(self):
        sol = solve_magnus(boost_generator, [0.0, 3.0], 0.5)
        u, integral = sol.at(sol.nodes)
        assert np.array_equal(u, sol.u) and np.array_equal(integral, sol.integral)
        u1, i1 = sol.at(1.234)
        u2, i2 = sol.at(np.array([1.234]))
        assert u1.shape == (2,) and np.array_equal(u1, u2[:, 0]) and i1 == i2[0]
        with pytest.raises(DimensionMismatchError):
            sol.at(3.5)

    def test_node_reads_take_no_magnus_step(self, monkeypatch):
        # a node, the period P included, is read as stored, not by a partial
        # step of length 0; a time between nodes still takes one
        period = 2.0 * math.pi / 0.98
        generator = casimir._mode_generator(W3_SCENARIO)
        direct = solve_magnus(generator, [0.0, period], 0.5)
        floquet = numerics.solve_floquet(
            generator, period, 3.5 * period, 0.5, np.array([0.0, 3.5 * period])
        )[0]
        calls = []
        real_steps = numerics.magnus_steps

        def counting(*args):
            calls.append(args)
            return real_steps(*args)

        monkeypatch.setattr(numerics, "magnus_steps", counting)
        u, integral = direct.at(direct.nodes[::-1])
        assert np.array_equal(u, direct.u[:, ::-1])
        assert np.array_equal(integral, direct.integral[::-1])
        (u_p, v_p), i_p = direct.at(period)
        assert (u_p, v_p, i_p) == (*direct.u[:, -1], direct.integral[-1])
        # the nodes of the first period, and the multiples of P, which read M^k
        u, integral = floquet.at(floquet.nodes)
        assert np.array_equal(u, floquet.period.u)
        assert np.array_equal(integral, floquet.period.integral)
        u, integral = floquet.at(period * np.arange(4))
        assert np.array_equal(u, floquet.powers)
        assert np.array_equal(integral, floquet.period.integral[-1] * np.arange(4))
        assert calls == []
        direct.at(0.5 * (direct.nodes[0] + direct.nodes[1]))
        assert len(calls) == 1

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAGNUS_MAX_STEPS", 64)
        with pytest.raises(ConvergenceError):
            solve_magnus(boost_generator, [0.0, 30.0], 1.0, rtol=1e-13, atol=1e-15)


class TestSkippedDoublings:
    """``_refine`` skips no doubling: every grid it propagates is the first
    one times a power of two."""

    def test_plateau_above_the_tolerance_doubles_on_to_the_stall(self, monkeypatch):
        # a relative error of 1e-2 (128 / N)^6 on a grid of N steps, the
        # sixth-order law from the first grid (numerics.FIRST_GRID_STEPS) on,
        # plus a 1e-7 whose sign alternates with each doubling: the estimate
        # falls by 64 per doubling until the plateau takes over, and doubling
        # goes on until it has stalled twice
        propagated = []

        def plateau(generator, nodes):
            steps = nodes.size - 1
            propagated.append(steps)
            level = round(math.log2(steps / 128))
            error = 1e-2 * (128 / steps) ** 6 + 1e-7 * (-1) ** level
            u = np.broadcast_to(np.array([1.0, 0.0], dtype=complex)[:, None], (2, nodes.size))
            return u, nodes * (1.0 + error)

        monkeypatch.setattr(numerics, "propagate_magnus", plateau)
        stalled = r"stalled at the roundoff floor: .* at 8192 steps"
        with pytest.raises(ConvergenceError, match=stalled):
            solve_magnus(boost_generator, [0.0, 1.0], 1.0 / 128.0, rtol=1e-10, atol=1e-12)
        assert propagated == [128, 256, 512, 1024, 2048, 4096, 8192]

    @staticmethod
    def _law(nodes):
        # a relative error of 1e-3 (8 / N)^6 on a grid of N steps: the pair
        # (8, 16) fails at rtol 1e-6 and every later one passes
        return (nodes * (1.0 + 1e-3 * (8 / (nodes.size - 1)) ** 6),)

    def test_turned_down_pair_doubles_on(self):
        # the hook sees only pairs whose nodes pass, and a pair it turns down
        # (returns None for) is failed: the grid doubles on from it, on the
        # same ladder; what it accepts a pair as is what _refine returns
        seen = []

        def accept(fine, coarse):
            seen.append((fine[0].size - 1, coarse[0].size - 1))
            return fine[0] if fine[0].size - 1 >= 64 else None

        nodes, _, grids = numerics._refine(self._law, [0.0, 1.0], 1.0 / 8.0,
                                           1e-6, 1e-12, accept=accept)
        assert seen == [(32, 16), (64, 32)]
        assert grids == (8, 16, 32, 64) and nodes.size == 65

    def test_turned_down_pairs_of_equal_grids_double_on(self):
        # grids whose values agree exactly give estimates of 0, which never
        # stall
        seen = []

        def accept(fine, coarse):
            seen.append(fine[0].size - 1)
            return fine if len(seen) == 3 else None

        _, estimate, grids = numerics._refine(lambda nodes: (np.ones(nodes.size),), [0.0, 1.0],
                                              1.0 / 8.0, 1e-6, 1e-12, accept=accept)
        assert estimate == 0.0 and grids == (8, 16, 32, 64)

    def test_turned_down_pairs_count_against_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAGNUS_MAX_STEPS", 256)
        with pytest.raises(ConvergenceError, match=r"^Magnus propagation not within .* at 256 steps"):
            numerics._refine(self._law, [0.0, 1.0], 1.0 / 8.0, 1e-6, 1e-12,
                             accept=lambda fine, coarse: None)

    def test_step_cap_binds_the_first_grid(self, monkeypatch):
        # a first grid past the cap is turned down before it is propagated,
        # with an error naming its step count and the cap; a step far below
        # the span is a huge count, not one that wraps round as an int
        propagated = []

        def counting(nodes):
            propagated.append(nodes.size - 1)
            return self._law(nodes)

        monkeypatch.setattr(numerics, "MAGNUS_MAX_STEPS", 64)
        with pytest.raises(ConvergenceError, match=r"at 64 steps: the first grid holds 200 steps$"):
            numerics._refine(counting, [0.0, 1.0], 1.0 / 200.0, 1e-6, 1e-12)
        with pytest.raises(ConvergenceError, match=r"the first grid holds 1e\+300 steps$"):
            numerics._refine(counting, [0.0, 1.0], 1e-300, 1e-6, 1e-12)
        assert propagated == []
        # a first grid at the cap is propagated, and the doubling past it is not
        with pytest.raises(ConvergenceError, match=r"at 64 steps: the next grid holds 128 steps$"):
            numerics._refine(counting, [0.0, 1.0], 1.0 / 64.0, 1e-6, 1e-12)
        assert propagated == [64]

    def test_solve_linear_keeps_its_first_grid(self, monkeypatch):
        # every sample time is a node and every step costs a dense expm, so
        # the floor of the Magnus solvers' first grid does not apply
        real_propagate = numerics._propagate_linear

        def generator(t):
            return np.multiply.outer(np.cos(t), np.array([[0.0, 1.0], [-1.0, 0.0]]))

        def grids(floor):
            propagated = []

            def counting(generator, nodes, y0):
                propagated.append(nodes.size - 1)
                return real_propagate(generator, nodes, y0)

            monkeypatch.setattr(numerics, "_propagate_linear", counting)
            monkeypatch.setattr(numerics, "FIRST_GRID_STEPS", floor)
            y = solve_linear(generator, [1.0, 0.0], np.linspace(0.0, 3.0, 4), rtol=1e-10, atol=1e-12)
            return propagated, y

        floor = numerics.FIRST_GRID_STEPS
        (floored, y), (plain, y_plain) = grids(floor), grids(1)
        assert floored == plain and floored[0] == 3 < floor
        assert np.array_equal(y, y_plain)

    def test_no_skip_past_the_step_cap(self, monkeypatch):
        # W3 over 600 passes only at 38400 steps: with the cap at 4800 the
        # doubling reaches the cap and stops there with the cap's error
        real_propagate = numerics.propagate_magnus
        propagated = []

        def counting(generator, nodes):
            propagated.append(nodes.size - 1)
            return real_propagate(generator, nodes)

        monkeypatch.setattr(numerics, "propagate_magnus", counting)
        monkeypatch.setattr(numerics, "MAGNUS_MAX_STEPS", 4800)
        generator = casimir._mode_generator(W3_SCENARIO)
        capped = r"not within rtol=1e-11, atol=1e-13 at 4800 steps"
        with pytest.raises(ConvergenceError, match=capped):
            solve_magnus(generator, [0.0, 600.0], 1.0, rtol=1e-11, atol=1e-13)
        assert propagated == [600, 1200, 2400, 4800]
