import mpmath
import numpy as np
import pytest

from delayfronts import (
    DomainError,
    ModelParams,
    c_kappa_curve,
    count_zeros_rectangle,
    double_root_speed,
    eval_char,
    h_star,
    roots_at_kappa,
    roots_at_zero,
)
from delayfronts.chareq import _critical_point, eval_char_dz

from conftest import sample_dkappa


def bisect_roots_on_grid(f, grid, tol=1e-13):
    """Independent root oracle: sign-change scan plus plain bisection."""
    roots = []
    vals = [f(z) for z in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            lo, hi = a, b
            flo = fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return roots


class TestEvalChar:
    def test_at_origin_exponential_collapses(self):
        assert eval_char(0.0, 1.0, 0.5, 1.2) == pytest.approx(0.2, abs=1e-15)

    def test_quadratic_factorization_point(self):
        # z^2 - z - 2 = (z - 2)(z + 1)
        assert eval_char(2.0, 1.0, 0.0, -1.0) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_at_bisected_root(self):
        c, h, k = 1.2, 0.5, 1.2
        grid = np.linspace(1e-6, 3.0, 4001)
        roots = bisect_roots_on_grid(lambda z: eval_char(z, c, h, k), grid)
        assert len(roots) == 2
        lam1 = max(roots)
        assert abs(eval_char(lam1, c, h, k)) < 1e-10

    def test_complex_and_array_inputs(self):
        z = np.array([0.3 + 1j, -0.2, 1.5])
        out = eval_char(z, 0.8, 1.0, 1.2)
        assert out.shape == (3,)
        single = eval_char(0.3 + 1j, 0.8, 1.0, 1.2)
        assert np.isclose(out[0], single)


class TestRootsAtZero:
    def test_nondelayed_closed_form(self, toy12):
        r = roots_at_zero(1.0, 0.0, toy12)
        assert r.exists
        assert r.lambda1 == pytest.approx(0.5 * (1 + np.sqrt(0.2)), abs=1e-12)
        assert r.lambda2 == pytest.approx(0.5 * (1 - np.sqrt(0.2)), abs=1e-12)

    def test_double_root_at_critical_speed(self, toy12):
        c = 2.0 * np.sqrt(0.2)
        r = roots_at_zero(c, 0.0, toy12)
        assert r.exists
        assert r.lambda1 == pytest.approx(np.sqrt(0.2), abs=1e-6)
        assert r.lambda2 == pytest.approx(np.sqrt(0.2), abs=1e-6)

    def test_delayed_roots_match_scan_oracle(self, toy12):
        c, h = 0.6562, 0.5
        r = roots_at_zero(c, h, toy12)
        grid = np.linspace(1e-6, c + 1.0, 8001)
        oracle = bisect_roots_on_grid(lambda z: eval_char(z, c, h, 1.2), grid)
        assert len(oracle) == 2
        assert r.lambda2 == pytest.approx(min(oracle), abs=1e-9)
        assert r.lambda1 == pytest.approx(max(oracle), abs=1e-9)

    def test_below_critical_speed(self, toy12):
        r = roots_at_zero(0.5, 0.5, toy12)
        assert not r.exists

    def test_residuals_tiny(self, toy12):
        for c, h in [(1.0, 0.0), (0.9, 0.3), (0.7, 1.0), (2.5, 0.1)]:
            r = roots_at_zero(c, h, toy12)
            if r.exists:
                assert abs(eval_char(r.lambda1, c, h, 1.2)) < 1e-10
                assert abs(eval_char(r.lambda2, c, h, 1.2)) < 1e-10

    def test_lambda2_decreasing_lambda1_increasing_in_c(self, toy12):
        h = 0.5
        c_sharp, _ = double_root_speed(h, 1.2)
        cs = np.linspace(c_sharp * 1.01, 3.0, 40)
        l1 = [roots_at_zero(c, h, toy12).lambda1 for c in cs]
        l2 = [roots_at_zero(c, h, toy12).lambda2 for c in cs]
        assert np.all(np.diff(l1) > 0)
        assert np.all(np.diff(l2) < 0)


class TestRootsAtKappa:
    def test_nondelayed_closed_form(self, toy12):
        r = roots_at_kappa(1.0, 0.0, toy12)
        assert r.mu1 == pytest.approx(2.0, abs=1e-12)
        assert r.mu2 == pytest.approx(-1.0, abs=1e-12)
        assert r.mu3 is None
        assert r.in_region_Dkappa

    def test_three_distinct_roots_match_scan(self, toy12):
        c, h = 0.5, 1.0
        r = roots_at_kappa(c, h, toy12)
        assert r.in_region_Dkappa
        grid = np.concatenate([np.linspace(-20.0, -1e-6, 20001),
                               np.linspace(1e-6, 20.0, 20001)])
        oracle = sorted(bisect_roots_on_grid(lambda z: eval_char(z, c, h, -1.0), grid))
        assert len(oracle) == 3
        assert r.mu3 == pytest.approx(oracle[0], abs=1e-9)
        assert r.mu2 == pytest.approx(oracle[1], abs=1e-9)
        assert r.mu1 == pytest.approx(oracle[2], abs=1e-9)

    def test_region_boundary_flips_membership(self, toy12):
        h = 1.0
        ck = c_kappa_curve(h, toy12)
        assert roots_at_kappa(ck * 0.99, h, toy12).in_region_Dkappa
        assert not roots_at_kappa(ck * 1.01, h, toy12).in_region_Dkappa

    def test_double_negative_root_on_boundary(self, toy12):
        h = 1.0
        ck = c_kappa_curve(h, toy12)
        r = roots_at_kappa(ck * (1.0 - 1e-10), h, toy12)
        assert r.in_region_Dkappa
        assert r.mu2 == pytest.approx(r.mu3, abs=1e-3)

    def test_ordering_and_residuals(self, toy12):
        rng = np.random.default_rng(3)
        for c, h in sample_dkappa(rng, 10):
            r = roots_at_kappa(c, h, toy12)
            assert r.in_region_Dkappa
            assert r.mu3 <= r.mu2 < 0.0 < r.mu1
            for mu in (r.mu1, r.mu2, r.mu3):
                assert abs(eval_char(mu, c, h, -1.0)) < 1e-10

    def test_underflow_large_speed_is_outside(self, toy12):
        # X = s (ch)^2/2 e^{-c^2 h/2} underflows; the peak sits near 0 below zero
        r = roots_at_kappa(50.0, 1.0, toy12)
        assert not r.in_region_Dkappa
        assert r.mu2 is None and r.mu3 is None

    def test_underflow_small_delay_is_inside(self, toy12):
        c, h = 2000.0, 1e-3
        r = roots_at_kappa(c, h, toy12)
        assert r.in_region_Dkappa
        assert r.mu3 == pytest.approx(-4.5602208098, abs=1e-10)
        assert r.mu3 <= r.mu2 < 0.0 < r.mu1
        for mu in (r.mu1, r.mu2, r.mu3):
            assert abs(eval_char(mu, c, h, -1.0)) < 1e-10


class TestCriticalPoint:
    """_critical_point against 50-digit bracketed zeros of chi'."""

    @staticmethod
    def mp_critical_points(c, h, s):
        """Zeros of chi' at 50 digits, keyed by the branch that should give them.

        For s > 0 chi' increases and has one zero (branch 0).  For s < 0 it
        is convex with its minimum at z_infl = ln(|s| tau^2 / 2)/tau; the
        peak of chi (branch -1), when there is one, lies left of z_infl.
        """
        with mpmath.workdps(50):
            c, h, s = mpmath.mpf(c), mpmath.mpf(h), mpmath.mpf(s)
            tau = c * h
            d = lambda z: 2 * z - c - s * tau * mpmath.exp(-z * tau)
            if s > 0:
                lo, hi = c / 2, c / 2 + 1
                while d(hi) < 0:
                    hi += hi - lo
                return {0: mpmath.findroot(d, (lo, hi), solver="anderson")}
            z_infl = mpmath.log(abs(s) * tau**2 / 2) / tau
            if d(z_infl) > 0:
                return {}
            step = 1 / tau
            while d(z_infl - step) < 0:
                step *= 2
            return {-1: mpmath.findroot(d, (z_infl - step, z_infl), solver="anderson")}

    @staticmethod
    def near_branch_point_slope(c, h, gap):
        """s < 0 with X = s tau^2/2 e^{-c tau/2} = -(1 - gap)/e."""
        tau = c * h
        return -(1.0 - gap) * 2.0 * np.exp(0.5 * c * tau - 1.0) / tau**2

    def cases(self):
        for c in (0.05, 0.5, 2.0):
            for h in (0.1, 1.0, 10.0):
                for s in (1.2, 2.9, -0.01, -1.0):
                    yield c, h, s
                # X within 5e-7/e of the branch point -1/e, on either side
                for gap in (5e-7, -5e-7):
                    yield c, h, self.near_branch_point_slope(c, h, gap)
        # X underflows to zero: huge c^2 h
        yield from [(50.0, 1.0, -1.0), (2000.0, 1e-3, -1.0), (30.0, 2.0, -1.0)]
        yield 40.0, 1.0, 1.2

    def test_matches_mpmath_zeros_of_derivative(self):
        seen = {"branch 0": 0, "branch -1": 0, "none": 0, "near -1/e": 0, "underflow": 0}
        for c, h, s in self.cases():
            oracle = self.mp_critical_points(c, h, s)
            branch = 0 if s > 0 else -1
            z = _critical_point(c, c * h, s, branch)
            if branch not in oracle:
                assert z is None, (c, h, s)
                seen["none"] += 1
                continue
            assert z == pytest.approx(float(oracle[branch]), rel=1e-12, abs=1e-12), (c, h, s)
            seen[f"branch {branch}"] += 1
            X = 0.5 * s * (c * h) ** 2 * np.exp(-0.5 * c * c * h)
            seen["near -1/e"] += abs(X + 1.0 / np.e) < 1e-6
            seen["underflow"] += abs(X) < np.finfo(float).tiny
        assert min(seen.values()) >= 3, seen


class TestDoubleRootSpeed:
    def test_nondelayed_closed_form(self):
        c, z = double_root_speed(0.0, 1.2)
        assert c == pytest.approx(2.0 * np.sqrt(0.2), abs=1e-14)
        assert z == pytest.approx(np.sqrt(0.2), abs=1e-14)

    def test_reference_table_point(self):
        c, _ = double_root_speed(0.5, 1.2)
        assert c == pytest.approx(0.5720, abs=5e-4)

    def test_against_nested_bisection_oracle(self):
        h, slope = 2.0, 3.0

        def min_chi(c):
            zs = np.linspace(1e-6, 0.5 * (c + np.sqrt(c * c + 4.0)), 3000)
            return np.min(eval_char(zs, c, h, slope))

        lo, hi = 1e-3, 4.0
        assert min_chi(lo) > 0 and min_chi(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if min_chi(mid) > 0:
                lo = mid
            else:
                hi = mid
        c, z = double_root_speed(h, slope)
        assert c == pytest.approx(0.5 * (lo + hi), abs=1e-6)
        assert abs(eval_char(z, c, h, slope)) < 1e-12
        assert abs(eval_char_dz(z, c, h, slope)) < 1e-12

    @pytest.mark.parametrize("h", [0.5, 6.0, 50.0])
    @pytest.mark.parametrize("slope", [1.2, 1.5, 2.9])
    def test_against_mpmath_double_root_system(self, h, slope):
        c, z = double_root_speed(h, slope)
        with mpmath.workdps(50):
            hh, ss = mpmath.mpf(h), mpmath.mpf(slope)
            chi = lambda z, c: z * z - c * z - 1 + ss * mpmath.exp(-z * c * hh)
            dchi = lambda z, c: 2 * z - c - ss * c * hh * mpmath.exp(-z * c * hh)
            z_mp, c_mp = mpmath.findroot([chi, dchi], (1.01 * z, 0.99 * c))
        assert c == pytest.approx(float(c_mp), abs=1e-12)
        assert z == pytest.approx(float(z_mp), abs=1e-12)

    def test_decreasing_in_h(self):
        hs = np.linspace(0.0, 6.0, 25)
        cs = [double_root_speed(h, 1.2)[0] for h in hs]
        assert np.all(np.diff(cs) < 0)

    def test_invalid_slope(self):
        with pytest.raises(DomainError):
            double_root_speed(1.0, 0.9)


class TestCKappaCurve:
    def test_blows_up_at_threshold(self, toy12):
        hs = h_star(-1.0)
        assert c_kappa_curve(hs * 1.0001, toy12) > 100.0

    def test_vanishes_at_infinity(self, toy12):
        assert c_kappa_curve(200.0, toy12) < 1e-2

    def test_matches_double_negative_root_system(self, toy12):
        # oracle: the boundary is where the double negative root forms, i.e.
        # where max_{z<0} chi_kappa(z; c) crosses zero; bisect that sign
        from scipy.optimize import minimize_scalar

        def peak(c, h):
            zs = np.linspace(-30.0, -1e-6, 4000)
            z0 = zs[np.argmax(eval_char(zs, c, h, -1.0))]
            res = minimize_scalar(
                lambda z: -eval_char(z, c, h, -1.0),
                bounds=(z0 - 0.1, z0 + 0.1),
                method="bounded",
                options={"xatol": 1e-13},
            )
            return -res.fun

        for h in (0.5, 1.0, 2.0, 5.0):
            ck = c_kappa_curve(h, toy12)
            lo, hi = 0.5 * ck, 2.0 * ck
            assert peak(lo, h) > 0.0 and peak(hi, h) < 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if peak(mid, h) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert ck == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_domain_error_below_threshold(self, toy12):
        with pytest.raises(DomainError):
            c_kappa_curve(0.1, toy12)


class TestCountZeros:
    def test_rectangle_with_only_mu1(self, toy12):
        r = roots_at_kappa(0.5, 1.0, toy12)
        n = count_zeros_rectangle(0.5, 1.0, -1.0, 0.5 * r.mu2, r.mu1 + 1.0, 10.0)
        assert n == 1

    def test_rectangle_with_all_three(self, toy12):
        r = roots_at_kappa(0.5, 1.0, toy12)
        n = count_zeros_rectangle(0.5, 1.0, -1.0, r.mu3 - 1e-4, r.mu1 + 1.0, 50.0)
        assert n == 3

    def test_empty_region_certified_by_modulus_scan(self, toy12):
        c, h = 0.5, 1.0
        r = roots_at_kappa(c, h, toy12)
        lo, hi, im = r.mu3 - 6.0, r.mu3 - 5.0, 1.0
        re, ims = np.meshgrid(np.linspace(lo, hi, 80), np.linspace(-im, im, 80))
        zs = re + 1j * ims
        assert np.min(np.abs(eval_char(zs, c, h, -1.0))) > 1e-2  # oracle
        assert count_zeros_rectangle(c, h, -1.0, lo, hi, im) == 0

    def test_random_draws_give_three(self, toy12):
        rng = np.random.default_rng(11)
        for c, h in sample_dkappa(rng, 20):
            r = roots_at_kappa(c, h, toy12)
            n = count_zeros_rectangle(c, h, -1.0, r.mu3 - 1e-4, r.mu1 + 1.0, 50.0)
            assert n == 3, (c, h)
