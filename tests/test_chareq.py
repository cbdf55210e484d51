import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from delayfronts import (
    AccuracyError,
    DomainError,
    ModelParams,
    build_profile,
    c_kappa_curve,
    count_zeros_right_of,
    double_root_speed,
    eval_char,
    h_star,
    limit_quantities,
    minimal_speed,
    psi_kernel,
    roots_at_kappa,
    roots_at_zero,
)
from delayfronts import chareq
from delayfronts.chareq import _critical_point, _dkappa_margin, eval_char_dz

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


class TestModelParams:
    def test_only_the_slope_is_set(self):
        # g'(kappa) = -1 and kappa = 2 belong to the piecewise-linear model
        with pytest.raises(TypeError):
            ModelParams(1.2, slope_kappa=-2.0)
        with pytest.raises(TypeError):
            ModelParams(1.2, kappa=3.0)
        params = ModelParams(1.2)
        assert (params.slope_kappa, params.kappa) == (-1.0, 2.0)
        assert ModelParams.toy(1.2) == params

    @pytest.mark.parametrize("k", [3.5, 1.0, 0.5, float("nan")])
    def test_slope_outside_the_model_refused(self, k):
        with pytest.raises(DomainError, match="k must lie"):
            ModelParams(k)


# each entry point with one argument set to the value under test
_TOY = ModelParams(1.2)
_CH_ENTRIES = {
    "count_zeros_right_of c": lambda v: count_zeros_right_of(v, 1.0, -1.0, 0.0),
    "count_zeros_right_of h": lambda v: count_zeros_right_of(1.0, v, -1.0, 0.0),
    "count_zeros_right_of slope": lambda v: count_zeros_right_of(1.0, 1.0, v, 0.0),
    "count_zeros_right_of re_lo": lambda v: count_zeros_right_of(1.0, 1.0, -1.0, v),
    "roots_at_zero c": lambda v: roots_at_zero(v, 1.0, _TOY),
    "roots_at_zero h": lambda v: roots_at_zero(1.5, v, _TOY),
    "roots_at_kappa c": lambda v: roots_at_kappa(v, 1.0, _TOY),
    "roots_at_kappa h": lambda v: roots_at_kappa(1.5, v, _TOY),
    "double_root_speed h": lambda v: double_root_speed(v, 1.2),
    "minimal_speed h": lambda v: minimal_speed(v, 1.2),
    "c_kappa_curve h": lambda v: c_kappa_curve(v, _TOY),
    "build_profile c": lambda v: build_profile(v, 1.0, 1.2),
    "build_profile h": lambda v: build_profile(1.5, v, 1.2),
    "psi_kernel c": lambda v: psi_kernel(v, 1.0, _TOY),
    "psi_kernel h": lambda v: psi_kernel(0.5, v, _TOY),
}


# NaN made count_zeros_right_of return 1, a count that certifies nothing,
# and the others raise scipy's untyped ValueError
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", list(_CH_ENTRIES))
def test_non_finite_speed_or_delay_is_domain_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            _CH_ENTRIES[entry](value)


# these raised scipy's ValueError (z^2 - c z lost the bracket's sign, or
# c^2 overflowed) or an OverflowError from exp
@pytest.mark.parametrize("entry,c,h", [
    (roots_at_zero, 1e13, 1.0),
    (roots_at_zero, 3.2e13, 0.0),
    (roots_at_kappa, 1e14, 1e-3),
    (roots_at_kappa, 1.8e154, 1.0),
])
def test_speed_above_cap_is_domain_error(entry, c, h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="wave speed must lie"):
            entry(c, h, _TOY)


def test_every_bracketed_solve_goes_through_root(monkeypatch):
    """chareq._brent is called from chareq._root and nowhere else."""
    callers = []
    brent = chareq._brent

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return brent(*args, **kwargs)

    monkeypatch.setattr(chareq, "_brent", spy)
    roots_at_zero(1.5, 1.0, _TOY)
    roots_at_kappa(0.5, 1.0, _TOY)
    double_root_speed(1.0, 1.2)
    c_kappa_curve(1.0, _TOY)
    minimal_speed(1.0, 1.2)
    minimal_speed(1.0, 2.0)  # pulled: double_root_speed inside
    assert len(callers) == 2 + 3 + 1 + 1 + 1 + 2
    assert set(callers) == {"_root"}


class TestBrent:
    """chareq._brent, the in-package port of scipy's C brentq."""

    def test_no_sign_change_is_accuracy_error(self):
        with pytest.raises(AccuracyError, match="no sign change"):
            chareq._root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_is_accuracy_error(self):
        # finite at both ends, NaN where the first step lands
        f = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5
        with pytest.raises(AccuracyError, match="NaN"):
            chareq._root(f, 0.0, 1.0)

    def test_no_convergence_in_100_steps_is_accuracy_error(self):
        # a jump from -1 to 1 at x = 1 leaves Brent bisecting: 100 halvings of
        # [0, 1e300] end ~1e270 wide
        f = lambda x: -1.0 if x < 1.0 else 1.0
        with pytest.raises(AccuracyError, match="no convergence in 100 steps"):
            chareq._root(f, 0.0, 1e300)

    def test_same_roots_as_scipy_brentq(self, monkeypatch, tmp_path):
        """Every _root call of the benchmark's sweep and point commands, bit for bit."""
        from scipy.optimize import brentq

        from delayfronts import speedcurves
        from delayfronts.cli import main

        calls = []
        brent = chareq._brent

        def oracle(f, a, b, args, xtol):
            z = brent(f, a, b, args, xtol)
            ref = brentq(f, a, b, args=args, xtol=xtol, rtol=chareq._RTOL, maxiter=100)
            calls.append((a, b, z, ref))
            assert type(z) is float and z == ref, (a, b, z, ref)
            return z

        monkeypatch.setattr(chareq, "_brent", oracle)
        grid = np.round(np.arange(0.0, 6.0 + 1e-9, 0.05), 10)
        for k in (1.2, 1.5):
            speedcurves.sample_curves(grid, ModelParams(k))
        for h in ("0", "0.5", "2", "6"):
            assert main(["profile", "--k", "1.2", "--h", h, "--out", str(tmp_path / h)]) == 0
        for c, h in (("0.5", "1"), ("1", "0.5"), ("0.3", "2"), ("0.2", "3")):
            argv = ["kernel", "--k", "1.2", "--c", c, "--h", h, "--out", str(tmp_path / f"k{c}")]
            assert main(argv) == 0
        argv = ["simulate", "--k", "1.2", "--h", "0.5", "--snapshots", "0,20",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
        assert len(calls) > 700  # 740 solves


class TestLambertW:
    """chareq._lambertw (W0) and chareq._lambertw_m1 (W_{-1} of -e^L) against
    40-digit mpmath, in units of the last place of the exact value.

    The exact value is one 40-digit Newton step from the double result w,
    on w e^w = z for W0 and on w + ln(-w) = L for W_{-1}: it differed from
    mpmath.lambertw by at most 2e-9 ulps on 3,000 arguments per range, at
    ~30 us instead of 0.3-0.8 ms an argument.  w <= -1 pins W_{-1}'s branch.  The bounds are
    set from 20,000 arguments per range on two other seeds, whose worst
    errors were 1.27 ulps on W0 and 2.46 on W_{-1}.
    """

    _RNG = np.random.default_rng(23)
    _N = 1_000
    _TINY = np.finfo(float).tiny

    @staticmethod
    def worst_ulps(newton_error, args):
        """max |Newton step| / ulp over args, each step (w, d) in 40 digits; a NaN
        result gives NaN, which fails every bound."""
        with mpmath.workdps(40):
            return np.max([float(abs(d)) / math.ulp(float(w))
                           for w, d in map(newton_error, args.tolist())])

    @pytest.mark.parametrize("z", [
        _RNG.uniform(1e-9, 1.5, _N),
        10.0 ** _RNG.uniform(-300.0, 300.0, _N),
        _RNG.uniform(1.5, 10.0, _N),
    ], ids=["W0-small", "W0-wide", "W0-large"])
    def test_w0_within_one_and_a_half_ulps(self, z):
        def newton_error(z):
            w = mpmath.mpf(chareq._lambertw(z))
            return w, (w - mpmath.mpf(z) * mpmath.exp(-w)) / (1 + w)

        assert self.worst_ulps(newton_error, z) <= 1.5

    @pytest.mark.parametrize("L", [
        np.log(_RNG.uniform(_TINY, 1.0 / np.e, _N)),
        _RNG.uniform(np.log(_TINY), -1.0, _N),
        np.log(1.0 / np.e - 10.0 ** _RNG.uniform(-16.0, -3.0, _N)),  # z + 1/e
        -(10.0 ** _RNG.uniform(3.0, 100.0, _N)),  # z = -e^L underflows
        # where rounding noise stalls the step above 4e-16 |w|: without the
        # stop on a step that no longer shrinks, these ran to the cap (NaN)
        np.array([-6.464118791173515, -1.03220163470901, -6.438793834389367]),
    ], ids=["W-1", "W-1-wide", "W-1-branch-point", "W-1-underflow", "W-1-stalled-step"])
    def test_w_minus_one_within_three_ulps(self, L):
        def newton_error(L):
            w = mpmath.mpf(chareq._lambertw_m1(L))
            assert w <= -1, L
            return w, (w + mpmath.log(-w) - mpmath.mpf(L)) * w / (1 + w)

        assert self.worst_ulps(newton_error, L) <= 3.0

    def test_w_minus_one_is_exact_far_below_underflow(self):
        for L in (-800.0, -1e4, -1e100):
            with mpmath.workdps(40):
                assert chareq._lambertw_m1(L) == float(mpmath.lambertw(-mpmath.exp(L), -1).real)

    def test_branch_point_is_minus_one(self):
        assert chareq._lambertw_m1(-1.0) == -1.0

    def test_w0_edges(self):
        assert chareq._lambertw(0.0) == 0.0
        assert chareq._lambertw(math.inf) == math.inf
        assert math.isnan(chareq._lambertw(math.nan))


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

    def test_double_root_at_the_minimum(self):
        # chi = (z - 1)^2: both brackets end at the minimum, where chi = 0
        r = roots_at_zero(2.0, 0.0, ModelParams.toy(2.0))
        assert (r.lambda1, r.lambda2, r.exists) == (1.0, 1.0, True)

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

    def test_lambda2_below_lower_bracket_is_domain_error(self):
        # lambda2 ~ ln(k)/(c h) = 9.95e-15 lies below the bracket end 1e-14
        with pytest.raises(DomainError, match="lambda2 lies below"):
            roots_at_zero(1.0, 1e12, ModelParams.toy(1.01))

    def test_lambda2_decreasing_lambda1_increasing_in_c(self, toy12):
        h = 0.5
        c_sharp, _ = double_root_speed(h, 1.2)
        cs = np.linspace(c_sharp * 1.01, 3.0, 40)
        l1 = [roots_at_zero(c, h, toy12).lambda1 for c in cs]
        l2 = [roots_at_zero(c, h, toy12).lambda2 for c in cs]
        assert np.all(np.diff(l1) > 0)
        assert np.all(np.diff(l2) < 0)


class TestRootsAtKappa:
    @pytest.mark.parametrize("frac", [0.5, 0.9])
    def test_mu3_bracket_near_h_star_does_not_overflow(self, toy12, frac):
        # the bracket search once stepped from the peak z ~ -4.3e-4 to z - 1,
        # where e^{-z c h} = exp(2983) overflows
        h = h_star(-1.0) * (1.0 + 1e-8)
        c = frac * c_kappa_curve(h, toy12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = roots_at_kappa(c, h, toy12)
        assert r.in_region_Dkappa
        assert math.isfinite(r.mu2) and math.isfinite(r.mu3) and r.mu3 < r.mu2 < 0.0
        assert abs(eval_char(r.mu3, c, h, -1.0)) <= 1e-10

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

    @pytest.mark.parametrize("h", [1e-80, 1e-150, 1e-200])
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_tiny_delay_product_is_domain_error(self, c, h):
        # mu3 ~ -2 ln(1/(ch))/(ch) cannot be bracketed in float range
        with pytest.raises(DomainError):
            roots_at_kappa(c, h, ModelParams.toy(1.5))

    def test_consistent_within_rounding_of_boundary(self, toy12):
        # the margin decides membership; where it is positive by rounding
        # alone the negative roots come back as one double root
        for h in (0.5, 1.8, 3.8, 8.3):
            ck = c_kappa_curve(h, toy12)
            for j in range(-40, 41):
                c = ck * (1.0 + j * 2e-16)
                r = roots_at_kappa(c, h, toy12)
                assert r.in_region_Dkappa == (_dkappa_margin(c, c * h, -1.0) > 0.0)
                if r.in_region_Dkappa:
                    assert r.mu3 <= r.mu2 < 0.0
                    for mu in (r.mu2, r.mu3):
                        assert abs(eval_char(mu, c, h, -1.0)) < 1e-10

    def test_against_mpmath_roots(self, toy12):
        # the 1e-10 residual contracts of both root solvers, at 50 digits
        rng = np.random.default_rng(5)
        for c, h in sample_dkappa(rng, 20):
            rk = roots_at_kappa(c, h, toy12)
            r0 = roots_at_zero(c, h, toy12)
            with mpmath.workdps(50):
                cc, hh = mpmath.mpf(c), mpmath.mpf(h)
                chi = lambda z, s: z * z - cc * z - 1 + s * mpmath.exp(-z * cc * hh)
                dchi = lambda z, s: 2 * z - cc - s * cc * hh * mpmath.exp(-z * cc * hh)
                found = [(rk.mu1, -1), (rk.mu2, -1), (rk.mu3, -1)]
                if r0.exists:
                    found += [(r0.lambda1, 1.2), (r0.lambda2, 1.2)]
                else:
                    # chi_0 stays positive: its minimum, a zero of chi_0'
                    zmin = mpmath.findroot(lambda z: dchi(z, 1.2), c / 2)
                    assert chi(zmin, 1.2) > 0, (c, h)
                for z, s in found:
                    exact = mpmath.findroot(lambda x: chi(x, s), mpmath.mpf(z))
                    assert abs(chi(mpmath.mpf(z), s)) < 1e-10, (c, h, z)
                    assert abs(z - exact) < 1e-10 * max(1.0, abs(z)), (c, h, z)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 10.0])
    def test_mu2_at_tiny_delay_product(self, toy12, c):
        # zpk ~ -2 ln(1/(ch))/(ch) lies tens of decades left of mu2 ~ q, the
        # negative root of z^2 - c z - 2; a bracket from zpk ran out of steps
        q = 0.5 * (c - math.sqrt(c * c + 8.0))
        for tau in [*10.0 ** np.arange(-23.0, -70.0, -3.0), chareq._TAU_FLOOR * (1.0 + 1e-12)]:
            r = roots_at_kappa(c, tau / c, toy12)
            assert r.in_region_Dkappa
            assert r.mu2 == pytest.approx(q, rel=1e-14), tau
            assert r.mu3 < r.mu2 < 0.0 < r.mu1
            assert abs(eval_char(r.mu2, c, tau / c, -1.0)) < 1e-10

    def test_underflow_small_delay_is_inside(self, toy12):
        c, h = 2000.0, 1e-3
        r = roots_at_kappa(c, h, toy12)
        assert r.in_region_Dkappa
        assert r.mu3 == pytest.approx(-4.5602208098, abs=1e-10)
        assert r.mu3 <= r.mu2 < 0.0 < r.mu1
        for mu in (r.mu1, r.mu2, r.mu3):
            assert abs(eval_char(mu, c, h, -1.0)) < 1e-10


class TestDkappaMargin:
    def test_closed_form_limits(self):
        assert _dkappa_margin(0.7, 0.0, -1.0) == pytest.approx(4.0 / np.e, abs=1e-15)
        for c in (0.5, 2.0):  # finite where roots_at_kappa must refuse
            assert _dkappa_margin(c, c * 1e-200, -1.0) == pytest.approx(4.0 / np.e)

    def test_sign_is_the_peak_value_of_chi(self):
        # positive exactly when chi has a peak left of 0 that is above 0
        rng = np.random.default_rng(9)
        for _ in range(300):
            c, h = 10 ** rng.uniform(-2, 1.5), 10 ** rng.uniform(-3, 1.5)
            s = -(10 ** rng.uniform(-1, 1))
            zpk = _critical_point(c, c * h, s, -1)
            peak = zpk is not None and zpk < 0.0 and eval_char(zpk, c, h, s) > 0.0
            assert (_dkappa_margin(c, c * h, s) > 0.0) == peak, (c, h, s)

    def test_vanishes_on_region_boundary(self, toy12):
        for h in (0.5, 1.0, 5.0, 50.0):
            ck = c_kappa_curve(h, toy12)
            assert _dkappa_margin(ck * (1 - 1e-9), ck * (1 - 1e-9) * h, -1.0) > 0.0
            assert _dkappa_margin(ck * (1 + 1e-9), ck * (1 + 1e-9) * h, -1.0) < 0.0

    @staticmethod
    def mp_inside(c, h, s):
        """D_kappa membership at 60 digits: chi has a peak left of 0 above 0."""
        with mpmath.workdps(60):
            c, h, s = mpmath.mpf(c), mpmath.mpf(h), mpmath.mpf(s)
            tau = c * h
            X = s * tau * tau / 2 * mpmath.exp(-c * tau / 2)
            if X < -1 / mpmath.e:
                return False
            z = c / 2 + mpmath.lambertw(X, -1).real / tau
            return bool(z < 0 and z * z - c * z - 1 + s * mpmath.exp(-z * tau) > 0)

    def test_sign_near_h_star_matches_mpmath(self, toy12):
        # c tau is ~3e8 at h_star (1 + 1e-9); the exponent c tau - S once
        # cancelled there and the margin lost its sign both ways
        for u in range(-9, 2):
            h = h_star(-1.0) * (1.0 + 10.0**u)
            ck = c_kappa_curve(h, toy12)
            for f in (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0):
                c = f * ck
                inside = _dkappa_margin(c, c * h, -1.0) > 0.0
                assert inside == self.mp_inside(c, h, -1.0), (u, f)
                assert roots_at_kappa(c, h, toy12).in_region_Dkappa == inside


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

    def test_tiny_delay_is_the_nondelayed_speed(self):
        # at h = 1e-20, F(2 sqrt(k-1)) rounds to >= 0 for 88 of these 2,000 slopes
        slopes = np.random.default_rng(0).uniform(1.01, 2.99, 2000)
        pulled = 0
        for k in slopes.tolist():
            c, z = double_root_speed(1e-20, k)
            c0 = 2.0 * np.sqrt(k - 1.0)
            assert c == pytest.approx(c0, rel=4 * np.finfo(float).eps, abs=0.0), k
            assert z == pytest.approx(0.5 * c0, rel=1e-12), k
            c_star, regime = minimal_speed(1e-20, k)
            if regime == "pulled":
                pulled += 1
                assert c_star == c, k
        assert pulled > 1000

    @pytest.mark.parametrize("h,slope", [(6.2e5, 1.0 + 1e-9), (1e20, 1.01), (1e20, 2.99)])
    def test_large_delay_double_root(self, h, slope):
        # the speed lies far below 1e-9; the bracket runs from c = 0
        c, z = double_root_speed(h, slope)
        assert 0.0 < c < 1e-9
        assert abs(eval_char(z, c, h, slope)) < 1e-12
        assert abs(eval_char_dz(z, c, h, slope)) < 1e-12

    @pytest.mark.parametrize("h", [1e21, np.inf, np.nan])
    def test_huge_delay_is_domain_error(self, h):
        with pytest.raises(DomainError):
            double_root_speed(h, 1.5)


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

    @pytest.mark.parametrize("h,rel", [
        (h_star(-1.0) * (1.0 + 1e-9), 1e-7),
        (h_star(-1.0) * (1.0 + 1e-6), 1e-10),
        (0.5, 1e-10), (2.0, 1e-10), (50.0, 1e-10),
        (1e9, 1e-10), (1e21, 1e-10), (1e300, 1e-10),
    ])
    def test_against_mpmath_double_root_system(self, toy12, h, rel):
        # near h_star, c ~ (h - h_star)^(-1/2) carries the rounding of h as
        # ~eps/(h/h_star - 1), hence the looser bound at 1e-9
        ck = c_kappa_curve(h, toy12)
        z = _critical_point(ck, ck * h, -1.0, -1)
        with mpmath.workdps(50):
            hh = mpmath.mpf(h)
            # unknowns (z, tau = c h): c spans 1e5 to 1e-300 here
            chi = lambda z, t: z * z - t / hh * z - 1 - mpmath.exp(-z * t)
            dchi = lambda z, t: 2 * z - t / hh + t * mpmath.exp(-z * t)
            z_mp, t_mp = mpmath.findroot([chi, dchi], (1.001 * z, 0.999 * ck * h))
        assert ck == pytest.approx(float(t_mp / hh), rel=rel, abs=0.0)

    @pytest.mark.parametrize("k", [1.05, 1.2, 1.5, 2.5])
    def test_large_delay_limits(self, k):
        # c_kappa h -> rho_hat and c_sharp h -> rho as h -> inf
        h, lq = 1e12, limit_quantities(k)
        assert c_kappa_curve(h, ModelParams.toy(k)) * h == pytest.approx(lq.rho_hat, rel=1e-10)
        assert double_root_speed(h, k)[0] * h == pytest.approx(lq.rho, rel=1e-10)


class TestCountZeros:
    def test_rectangle_with_only_mu1(self, toy12):
        r = roots_at_kappa(0.5, 1.0, toy12)
        assert count_zeros_right_of(0.5, 1.0, -1.0, 0.5 * r.mu2) == 1

    def test_rectangle_with_all_three(self, toy12):
        r = roots_at_kappa(0.5, 1.0, toy12)
        assert count_zeros_right_of(0.5, 1.0, -1.0, r.mu3 - 1e-4) == 3

    def test_empty_region_certified_by_modulus_scan(self, toy12):
        c, h = 0.5, 1.0
        r = roots_at_kappa(c, h, toy12)
        lo = r.mu1 + 0.5
        re, ims = np.meshgrid(np.linspace(lo, lo + 20.0, 200),
                              np.linspace(-20.0, 20.0, 400))
        assert np.min(np.abs(eval_char(re + 1j * ims, c, h, -1.0))) > 1e-2  # oracle
        assert count_zeros_right_of(c, h, -1.0, lo) == 0
        assert count_zeros_right_of(c, h, -1.0, 10.0) == 0

    def test_zero_on_the_left_edge_is_counted(self, toy12):
        # chi(mu2) ~ 0 at w = 0 on the half-plane's edge: the edge moves left
        r = roots_at_kappa(0.5, 1.0, toy12)
        assert count_zeros_right_of(0.5, 1.0, -1.0, r.mu2) == 2

    @pytest.mark.parametrize("c,h", [(0.0, 1.0), (-0.5, 1.0), (0.5, -1.0)])
    def test_domain_errors(self, c, h):
        with pytest.raises(DomainError):
            count_zeros_right_of(c, h, -1.0, -1.0)

    @pytest.mark.parametrize("re_lo", [-100.0, -30.0])
    def test_refuses_unbounded_work(self, re_lo):
        # at (c, h) = (1, 10): e^{1000} overflows; e^{300} is finite, but R'
        # would have ~4e65 monotone pieces
        with pytest.raises(DomainError):
            count_zeros_right_of(1.0, 10.0, -1.0, re_lo)

    def test_quadratic_at_zero_delay(self):
        # h = 0: chi is z^2 - c z - 1 + s, whose roots are known
        rng = np.random.default_rng(7)
        cases = [(1.0, 0.5, -3.0)]  # s > 0: R(w) = 11.5 - w^2 vanishes at sqrt(A + |B|)
        while len(cases) < 60:
            c, s, lo = rng.uniform(0.1, 5.0), rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 2.0)
            if np.min(np.abs(np.roots([1.0, -c, s - 1.0]).real - lo)) > 1e-3:
                cases.append((c, s, lo))
        assert min(s for _, s, _ in cases) < 0.0 < max(s for _, s, _ in cases)
        for c, s, lo in cases:
            expected = int(np.sum(np.roots([1.0, -c, s - 1.0]).real > lo))
            assert count_zeros_right_of(c, 0.0, s, lo) == expected, (c, s, lo)

    def test_zero_state_roots_dominate(self):
        # no complex zero right of lambda2 at the unstable state (s = k > 1)
        rng = np.random.default_rng(23)
        for _ in range(20):
            k, h = rng.uniform(1.05, 2.9), rng.uniform(0.0, 6.0)
            c = rng.uniform(1.001, 2.0) * double_root_speed(h, k)[0]
            r = roots_at_zero(c, h, ModelParams.toy(k))
            assert count_zeros_right_of(c, h, k, r.lambda2 - 1e-4) == 2, (k, h, c)

    def test_random_draws_give_three(self, toy12):
        rng = np.random.default_rng(11)
        for c, h in sample_dkappa(rng, 20):
            r = roots_at_kappa(c, h, toy12)
            assert count_zeros_right_of(c, h, -1.0, r.mu3 - 1e-4) == 3, (c, h)

    def test_counts_zero_pairs_beyond_im_50(self):
        # at (c, h, s) = (1, 2, -1) the count steps by two as re_lo passes
        # each of two conjugate pairs whose imaginary parts exceed 50
        chi = lambda z: z * z - z - 1 - mpmath.exp(-2 * z)
        with mpmath.workdps(30):
            pairs = [mpmath.findroot(chi, mpmath.mpc(-3.95, 51.75)),
                     mpmath.findroot(chi, mpmath.mpc(-4.01, 54.9))]
        assert complex(pairs[0]) == pytest.approx(-3.95034701 + 51.75053321j, abs=1e-8)
        assert complex(pairs[1]) == pytest.approx(-4.00900475 + 54.89595172j, abs=1e-8)
        counts = [count_zeros_right_of(1.0, 2.0, -1.0, x) for x in (-3.9, -4.0, -4.05)]
        assert counts == [33, 35, 37]
        # on the first pair's real part the line moves left past it
        assert count_zeros_right_of(1.0, 2.0, -1.0, float(pairs[0].real)) == 35
