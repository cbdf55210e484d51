import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from delayfronts import (
    AccuracyError,
    DomainError,
    chareq,
    ModelParams,
    amplitude_p,
    build_profile,
    double_root_speed,
    limit_quantities,
    minimal_speed,
    oscillation_threshold,
    pushed_to_pulled_delay,
    ratio_T,
    roots_at_kappa,
    roots_at_zero,
    sample_curves,
    toyfront,
)
from delayfronts.toyfront import (
    _delay_rk4,
    _pushed_branch,
    _pushed_end,
    _pushed_slope,
    birth_rate,
)
from conftest import nondelay_minimal_speed


class TestNondelayMinimalSpeed:
    def test_pushed_value(self):
        c, regime = nondelay_minimal_speed(1.2)
        assert c == pytest.approx(1.15950, abs=5e-6)
        assert regime == "pushed"

    def test_branches_agree_at_transition(self):
        c, _ = nondelay_minimal_speed(5.0 / 3.0)
        assert c == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-12)
        assert c == pytest.approx(2.0 * np.sqrt(5.0 / 3.0 - 1.0), abs=1e-12)

    def test_pulled_value(self):
        c, regime = nondelay_minimal_speed(2.0)
        assert c == pytest.approx(2.0, abs=1e-12)
        assert regime == "pulled"

    def test_domain(self):
        for k in (1.0, 3.0, 0.5):
            with pytest.raises(DomainError):
                nondelay_minimal_speed(k)

    @pytest.mark.parametrize("k", [1.05, 1.2, 1.6, 5.0 / 3.0 - 1e-3, 5.0 / 3.0 + 1e-3, 2.0, 2.9])
    def test_minimal_speed_at_zero_delay(self, k):
        # minimal_speed(0, k) is the closed form on both sides of k = 5/3
        c, regime = minimal_speed(0.0, k)
        closed, closed_regime = nondelay_minimal_speed(k)
        assert regime == closed_regime
        assert c == pytest.approx(closed, abs=1e-14)


def _where_birth_rate(u, k):
    """The np.where form of the birth law that birth_rate must match bit for bit."""
    u = np.asarray(u)
    out = np.where(u < 1, k * u, 4 - u)
    return out[()] if out.ndim == 0 else out


class TestBirthRate:
    SPECIAL = [float("nan"), -float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
               1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, -5e-324,
               2.2250738585072014e-308 / 3, -1e-310, 0.5, 2.0, 3.9, 4.0, 1e308, -1e308]

    @staticmethod
    def _same_bits(got, want):
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1.2, 2.9, 1.0000001])
    @np.errstate(all="ignore")  # k u overflows at -1e308; np.where's k u at 1e308 too
    def test_special_values_match_where_bit_for_bit(self, k):
        u = np.array(self.SPECIAL)
        self._same_bits(birth_rate(u, k), _where_birth_rate(u, k))
        # a 2-d block, as run() passes it, and a non-contiguous view
        block = np.tile(u, (3, 1))
        self._same_bits(birth_rate(block, k), _where_birth_rate(block, k))
        self._same_bits(birth_rate(block[:, 1:-1], k), _where_birth_rate(block[:, 1:-1], k))
        for v in self.SPECIAL:
            self._same_bits(birth_rate(v, k), _where_birth_rate(v, k))

    @np.errstate(all="ignore")  # random bits hold signalling NaNs and huge values
    def test_random_values_match_where_bit_for_bit(self):
        rng = np.random.default_rng(7)
        u = np.concatenate([rng.uniform(-1.0, 3.0, 5000),
                            rng.normal(1.0, 1e-15, 200),
                            rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64)])
        self._same_bits(birth_rate(u, 1.2), _where_birth_rate(u, 1.2))

    def test_scalar_in_scalar_out(self):
        for u in (0.5, np.float64(3.0), np.array(0.25), float("nan")):
            got = birth_rate(u, 1.2)
            assert isinstance(got, np.float64) and np.ndim(got) == 0
            self._same_bits(got, _where_birth_rate(u, 1.2))
        assert birth_rate(0.5, 1.2) == 0.6
        assert birth_rate(3.0, 1.2) == 1.0

    def test_lists_and_integer_arrays(self):
        for u in ([0.0, 0.5, 1.0, 2.0], [[0, 1], [2, 3]], np.arange(-2, 6),
                  np.arange(6, dtype=np.int32)):
            self._same_bits(birth_rate(u, 1.2), _where_birth_rate(u, 1.2))
        np.testing.assert_array_equal(birth_rate(np.arange(4), 2.0), [0.0, 3.0, 2.0, 1.0])

    @staticmethod
    def _into_ring(u, k):
        """birth_rate of the rows of u written into ring rows, as run() and
        cn_step write g: a block into a slice of rows, one level into one
        row.  The ring's other rows must keep their bits."""
        rng = np.random.default_rng(26)
        ring = rng.standard_normal((len(u) + 5, u.shape[1]))
        before = ring.copy()
        got = birth_rate(u, k, out=ring[2:2 + len(u)])
        assert got.base is ring and np.shares_memory(got, ring[2])
        assert birth_rate(u[0], k, out=ring[-1]).base is ring
        np.testing.assert_array_equal(ring[[0, 1, -3, -2]], before[[0, 1, -3, -2]])
        return ring[2:2 + len(u)], ring[-1]

    @pytest.mark.parametrize("k", [1.2, 2.9, 1.0000001])
    @np.errstate(all="ignore")  # k u overflows at -1e308
    def test_into_ring_rows_matches_a_fresh_array(self, k):
        rng = np.random.default_rng(11)
        special = np.array(self.SPECIAL)
        bits = rng.integers(0, 2**64, (4, len(special)), dtype=np.uint64).view(np.float64)
        u = np.vstack([special, special[::-1], bits])
        rows, row = self._into_ring(u, k)
        self._same_bits(rows, birth_rate(u, k))
        self._same_bits(row, birth_rate(u[0], k))

    @np.errstate(all="ignore")  # random bits hold signalling NaNs and huge values
    def test_into_ring_rows_on_random_values(self):
        rng = np.random.default_rng(12)
        u = np.concatenate([rng.uniform(-1.0, 3.0, 3000), rng.normal(1.0, 1e-15, 1000),
                            rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)])
        u = u.reshape(8, 1000)
        rows, row = self._into_ring(u, 1.2)
        self._same_bits(rows, birth_rate(u, 1.2))
        self._same_bits(row, birth_rate(u[0], 1.2))

    def test_out_is_returned_and_zero_d_input_unchanged(self):
        out = np.full(3, np.nan)
        assert birth_rate([0.5, 1.0, 2.0], 1.2, out=out) is out
        np.testing.assert_array_equal(out, [0.6, 3.0, 2.0])
        # without out, 0-d input still gives a scalar; with one, out itself
        got = birth_rate(np.array(0.5), 1.2)
        assert isinstance(got, np.float64) and got == 0.6
        out0 = np.empty(())
        assert birth_rate(0.5, 1.2, out=out0) is out0 and out0[()] == 0.6


class TestRatioT:
    def test_consistent_with_nondelay_speed(self):
        c, _ = nondelay_minimal_speed(1.2)
        assert ratio_T(c, 0.0, 1.2) == pytest.approx(0.45, abs=1e-9)

    def test_reference_value_at_h4(self):
        c_sharp, _ = double_root_speed(4.0, 1.2)
        assert ratio_T(c_sharp * (1 + 1e-12), 4.0, 1.2) == pytest.approx(
            0.3141, abs=5e-4
        )

    def test_approaches_one_from_below(self):
        # the roots at both states merge at the exponential-free quadratic
        # root as c grows, so the ratio climbs toward 1 while staying below
        ts = [ratio_T(c, 0.5, 1.2) for c in (2.0, 3.0, 5.0)]
        assert np.all(np.diff(ts) > 0)
        assert all(t < 1.0 for t in ts)
        assert ts[-1] > 0.999

    def test_below_linear_speed_raises(self):
        with pytest.raises(DomainError):
            ratio_T(0.3, 0.5, 1.2)

    def test_increasing_in_both_arguments(self):
        cs = np.linspace(0.7, 2.0, 20)
        vals = [ratio_T(c, 0.5, 1.2) for c in cs]
        assert np.all(np.diff(vals) > 0)
        hs = np.linspace(0.0, 2.0, 20)
        vals = [ratio_T(1.0, h, 1.2) for h in hs]
        assert np.all(np.diff(vals) > 0)


class TestMinimalSpeed:
    @pytest.mark.parametrize("h,expected", [(0.5, 0.6562), (6.0, 0.1348)])
    def test_reference_rows(self, h, expected):
        c, regime = minimal_speed(h, 1.2)
        assert c == pytest.approx(expected, abs=5e-4)
        assert regime == "pushed"

    def test_pulled_above_transition_delay(self):
        c, regime = minimal_speed(1.0, 1.5)
        assert regime == "pulled"
        assert c == pytest.approx(double_root_speed(1.0, 1.5)[0], abs=1e-12)

    def test_strictly_decreasing_in_delay(self):
        hs = np.linspace(0.0, 6.0, 30)
        cs = [minimal_speed(h, 1.2)[0] for h in hs]
        assert np.all(np.diff(cs) < 0)

    @pytest.mark.parametrize("k", [1.2, 1.35, 1.5])
    def test_against_mpmath_selection_system(self, k):
        # (chi_0(lam), chi_kappa(mu), lam - T mu) = 0 at 50 digits
        for h in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0):
            c, regime = minimal_speed(h, k)
            if regime != "pushed":
                continue
            mu = roots_at_kappa(c, h, ModelParams.toy(k)).mu1
            with mpmath.workdps(50):
                K, H = mpmath.mpf(k), mpmath.mpf(h)
                T = (3 - K) / 4
                system = lambda lam, m, cc: [
                    lam**2 - cc * lam - 1 + K * mpmath.exp(-lam * cc * H),
                    m**2 - cc * m - 1 - mpmath.exp(-m * cc * H),
                    lam - T * m,
                ]
                exact = mpmath.findroot(system, (T * mu, mu, c))[2]
                assert float(abs(c - exact) / exact) <= 2e-15, (k, h)

    # at 4e-16 relative, 57 of the 120 grid checks disagree
    @pytest.mark.parametrize("k", [1.36, 1.4, 1.5, 1.6, 1.66,
                                   *np.linspace(1.3601, 1.6599, 60).tolist()])
    def test_regime_flips_at_transition_delay(self, k):
        h_p = pushed_to_pulled_delay(k)
        assert minimal_speed(h_p * (1.0 - 1e-13), k)[1] == "pushed"
        assert minimal_speed(h_p * (1.0 + 1e-13), k)[1] == "pulled"

    @given(st.floats(0.0, 8.0), st.floats(1.01, 2.99))
    def test_selection_properties(self, h, k):
        c, regime = minimal_speed(h, k)
        c_sharp = double_root_speed(h, k)[0]
        assert c >= c_sharp
        if regime == "pushed":
            assert abs(ratio_T(c, h, k) - (3.0 - k) / 4.0) <= 1e-12
            assert amplitude_p(c, h, k) == 0.0
        else:
            assert regime == "pulled"
            assert c == c_sharp

    @pytest.mark.parametrize("h,k", [(-0.1, 1.2), (0.5, 1.0), (0.5, 3.0), (0.5, 3.5)])
    def test_domain_errors(self, h, k):
        with pytest.raises(DomainError):
            minimal_speed(h, k)


class TestAmplitude:
    def test_zero_at_pushed_minimal_speed(self):
        c, _ = minimal_speed(0.5, 1.2)
        assert amplitude_p(c, 0.5, 1.2) == pytest.approx(0.0, abs=1e-9)

    def test_positive_above_minimal_and_matches_laplace_oracle(self):
        c, h, k = 0.8, 0.5, 1.2
        p = amplitude_p(c, h, k)
        assert p > 0.0
        params = ModelParams.toy(k)
        r0 = roots_at_zero(c, h, params)
        lam1, lam2 = r0.lambda1, r0.lambda2
        mu1 = roots_at_kappa(c, h, params).mu1
        ch = c * h

        # oracle: vanishing of the transformed unstable mode, i.e. the
        # boundary-plus-history functional of psi = phi - 2 at mu1
        def phi(t):
            return p * np.exp(lam2 * (t + ch)) + (1 - p) * np.exp(lam1 * (t + ch))

        val = (
            p * lam2 * np.exp(lam2 * ch)
            + (1 - p) * lam1 * np.exp(lam1 * ch)
            + (mu1 - c) * (phi(0.0) - 2.0)
            + np.exp(-mu1 * ch)
            * quad(lambda t: np.exp(-mu1 * t) * (phi(t) - 2.0), -ch, 0.0,
                   epsabs=1e-13)[0]
        )
        assert abs(val) < 1e-9

    def test_upper_bound_approached_for_fast_waves(self):
        h, k = 0.5, 1.2
        params = ModelParams.toy(k)
        c = 5.0
        p = amplitude_p(c, h, k)
        r0 = roots_at_zero(c, h, params)
        mu1 = roots_at_kappa(c, h, params).mu1
        bound = (mu1 - r0.lambda2) / (r0.lambda1 - r0.lambda2)
        assert p <= bound * (1.0 + 1e-12)
        assert p / bound > 0.999

    @pytest.mark.parametrize("k", [1.4, 1.5, 1.6])
    def test_exactly_zero_at_pushed_speed_up_to_transition(self, k):
        # the dead band sits on the selection factor, so the amplification
        # (mu1 - lam2)/(lam1 - lam2) as lam1 -> lam2 near h_p cannot push
        # rounding past it
        for h in np.linspace(0.0, pushed_to_pulled_delay(k), 200, endpoint=False):
            c, regime = minimal_speed(h, k)
            assert regime == "pushed"
            assert amplitude_p(c, h, k) == 0.0, h
            assert amplitude_p(c * (1.0 + 1e-6), h, k) > 0.0, h
            with pytest.raises(DomainError):
                amplitude_p(c * (1.0 - 1e-6), h, k)

    def test_below_minimal_is_rejected(self):
        c_star, _ = minimal_speed(0.5, 1.2)
        with pytest.raises(DomainError, match="below minimal"):
            amplitude_p(c_star * 0.98, 0.5, 1.2)

    def test_near_critical_gap_refused(self, monkeypatch):
        # a root gap below 1e-8 needs c - c_sharp ~ 1e-17, finer than float
        # spacing of c itself, so the guard is exercised with a synthetic
        # near-degenerate root pair
        import delayfronts.toyfront as tf
        from delayfronts import RootsAtZero

        monkeypatch.setattr(
            tf.chareq,
            "roots_at_zero",
            lambda c, h, params: RootsAtZero(0.5 + 4e-9, 0.5 - 4e-9, True),
        )
        with pytest.raises(DomainError, match="critical"):
            amplitude_p(0.9, 0.5, 1.2)


def junction_derivative(c: float, h: float, k: float) -> float:
    """Closed-form profile slope at the junction, (1+k) phi'(-ch) =
    (3-k)(mu1 - lam1 - lam2) + 4 lam1 lam2 / mu1.  Positive for every
    admissible speed."""
    lam1, lam2, mu1 = toyfront._tail_roots(c, h, k)
    return ((3.0 - k) * (mu1 - lam1 - lam2) + 4.0 * lam1 * lam2 / mu1) / (1.0 + k)


class TestJunctionDerivative:
    def test_pushed_slope_is_lambda1(self):
        c, _ = minimal_speed(0.5, 1.2)
        lam1 = roots_at_zero(c, 0.5, ModelParams.toy(1.2)).lambda1
        assert junction_derivative(c, 0.5, 1.2) == pytest.approx(lam1, abs=1e-8)

    def test_matches_finite_difference_of_tail(self):
        c, h, k = 0.8, 0.5, 1.2
        prof = build_profile(c, h, k)
        eps = 1e-6
        fd = (prof.tail(-c * h + eps) - prof.tail(-c * h - eps)) / (2 * eps)
        assert junction_derivative(c, h, k) == pytest.approx(fd, abs=1e-8)

    def test_positive_on_random_admissible_sample(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            k = rng.uniform(1.05, 1.6)
            h = rng.uniform(0.0, 4.0)
            c_star, _ = minimal_speed(h, k)
            c = c_star * rng.uniform(1.0 + 1e-6, 3.0)
            try:
                val = junction_derivative(c, h, k)
            except DomainError:
                continue
            assert val > 0.0
            count += 1


class TestDelayRK4:
    def test_method_of_steps_polynomial_is_exact(self):
        # a'' = w a(t - tau) with a = A on t <= 0 and a'(0) = B: quadratic on
        # [0, tau], quartic on [tau, 2 tau].  RK4 integrates both exactly and
        # the cubic-Hermite midpoint read reproduces the quadratic exactly.
        w, A, B, tau, m = -0.7, 1.3, -0.4, 1.0, 8
        dt = tau / m
        a, da = _delay_rk4(0.0, 0.0, 0.0, w, A, B, dt, 2 * m, m, np.full(2 * m + 1, A))
        t = dt * np.arange(2 * m + 1)
        first, u = t <= tau, t - tau
        a1, b1 = A + B * tau + w * A * tau**2 / 2, B + w * A * tau
        exact = np.where(
            first,
            A + B * t + w * A * t**2 / 2,
            a1 + b1 * u + w * (A * u**2 / 2 + B * u**3 / 6 + w * A * u**4 / 24),
        )
        exact_d = np.where(
            first,
            B + w * A * t,
            b1 + w * (A * u + B * u**2 / 2 + w * A * u**3 / 6),
        )
        np.testing.assert_allclose(a, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(da, exact_d, rtol=0.0, atol=1e-12)

    def test_history_read_at_half_steps(self):
        # a'' = w a(t - tau) with the C^1 history a = A + B x on [-tau, 0]:
        # the forcing is linear on [0, tau], the solution cubic, and RK4 with
        # the exact forcing at each stage reproduces it
        w, A, B, tau, m = -0.7, 1.3, -0.4, 1.0, 8
        dt = tau / m
        history = A + B * (0.5 * np.arange(-2 * m, 1) * dt)
        a, da = _delay_rk4(0.0, 0.0, 0.0, w, A, B, dt, m, m, history)
        t = dt * np.arange(m + 1)
        exact = A + B * t + w * ((A - B * tau) * t**2 / 2 + B * t**3 / 6)
        exact_d = B + w * ((A - B * tau) * t + B * t**2 / 2)
        np.testing.assert_allclose(a, exact, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(da, exact_d, rtol=0.0, atol=1e-13)


class TestBuildProfile:
    def test_nondelayed_pushed_profile(self):
        c, _ = minimal_speed(0.0, 1.2)
        prof = build_profile(c, 0.0, 1.2)
        assert prof.p == pytest.approx(0.0, abs=1e-9)
        assert prof.classification == "monotone"
        assert prof.settle_offset <= 1e-3
        assert prof.residual_max <= 1e-6
        # pure e^{lambda1 t} tail
        ts = np.linspace(-5.0, 0.0, 50)
        assert np.allclose(prof.tail(ts), np.exp(prof.lambda1 * ts), rtol=1e-12)

    # the coarse step puts nodes where the tail e^{lambda1 t} would overflow
    @pytest.mark.parametrize("k,factor,grid_step", [
        (1.2, 1.0, None), (1.2, 1.5, None), (2.0, 1.05, None), (2.9, 1.5, None),
        (1.2, 3.5, 100.0),
    ])
    def test_nondelayed_continuation_is_closed_form(self, k, factor, grid_step, monkeypatch):
        # h = 0: phi - 2 solves y'' = c y' + 2 y, so without its e^{mu1 t}
        # mode it is one exponential, and no integration runs
        def no_integration(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(toyfront, "_delay_rk4", no_integration)
        c = factor * minimal_speed(0.0, k)[0]
        prof = build_profile(c, 0.0, k, grid_step=grid_step)
        y = prof.phi - 2.0
        np.testing.assert_allclose(prof.dphi, (c - prof.mu1) * y, rtol=0.0, atol=1e-15)
        mode = toyfront._mode_part(y, prof.dphi, c, 0.0, prof.mu1, prof.grid_step, 0)
        assert np.max(np.abs(mode)) <= 1e-15
        assert prof.residual_max <= 1e-6

    def test_pushed_delayed_profile_monotone(self):
        c, _ = minimal_speed(0.5, 1.2)
        prof = build_profile(c, 0.5, 1.2)
        assert prof.classification == "monotone"
        assert prof.phi.max() < 3.0
        assert prof.settle_offset <= 1e-3
        assert np.all(np.diff(prof.phi) > -1e-12)

    def test_large_delay_profile_oscillates(self):
        c, _ = minimal_speed(6.0, 1.2)
        prof = build_profile(c, 6.0, 1.2)
        assert prof.classification == "oscillatory"
        sgn = np.sign(prof.phi - 2.0)
        sgn = sgn[sgn != 0.0]
        assert np.count_nonzero(sgn[1:] != sgn[:-1]) > 1
        assert 2.0 < prof.phi.max() < 3.0
        assert prof.settle_offset <= 1e-3

    # outside D_kappa, yet phi - 2 changes sign at most once on the window
    @pytest.mark.parametrize("k,h,factor", [
        (1.05, 4.75, 1.1), (1.05, 5.0, 1.1), (1.1, 3.75, 1.1), (1.1, 5.75, 1.0),
        (1.1, 6.0, 1.0), (1.7, 1.0, 1.1), (2.9, 0.75, 1.0), (1.4, 1.8, 1.0),
        (1.2, 3.3, 1.0),
    ])
    def test_slow_oscillation_classified_spectrally(self, k, h, factor):
        c = factor * minimal_speed(h, k)[0]
        prof = build_profile(c, h, k)
        assert prof.in_region_Dkappa is False
        assert prof.classification == "oscillatory"

    def test_structural_bounds_above_minimal(self):
        prof = build_profile(0.8, 0.5, 1.2)
        ch = 0.8 * 0.5
        ss = np.linspace(-ch * (1 - 1e-9), 0.0, 300)
        assert np.all(prof.tail(ss) > 1.0)
        assert np.all(prof.phi > 1.0)
        assert prof.phi.max() < 3.0
        assert prof.residual_max <= 1e-6

    def test_c1_junction_match(self):
        prof = build_profile(0.8, 0.5, 1.2)
        assert prof.phi[0] == pytest.approx(prof.tail(0.0), abs=10 * prof.grid_step**2)
        assert prof.dphi[0] == pytest.approx(
            prof.tail_deriv(0.0), abs=10 * prof.grid_step**2
        )

    def test_tail_exponent_switches_at_minimal_speed(self):
        # the lambda2 tail mode vanishes at c* and is present above it; either
        # way the computed continuation relaxes to 2 at the rate mu2 (relative
        # error 2.3e-11 at c*, 6.9e-12 at c = 0.9, measured)
        c_star, _ = minimal_speed(0.5, 1.2)
        for c in (c_star, 0.9):
            prof = build_profile(c, 0.5, 1.2)
            assert prof.p == 0.0 if c == c_star else prof.p > 0.0
            assert prof.in_region_Dkappa
            window = (prof.t > 0.3 * prof.terminal_time) & (prof.t < 0.9 * prof.terminal_time)
            slope = np.polyfit(prof.t[window], np.log(np.abs(prof.phi[window] - 2.0)), 1)[0]
            mu2 = roots_at_kappa(c, 0.5, ModelParams(1.2)).mu2
            assert slope == pytest.approx(mu2, rel=1e-9)

    def test_callable_evaluation(self):
        prof = build_profile(0.8, 0.5, 1.2)
        assert prof(-1e9) == pytest.approx(0.0, abs=1e-12)
        assert prof(prof.junction_time) == pytest.approx(1.0, abs=1e-12)
        assert prof(prof.terminal_time + 100.0) == pytest.approx(2.0, abs=1e-12)

    def test_below_minimal_rejected(self):
        with pytest.raises(DomainError):
            build_profile(0.5, 0.5, 1.2)

    @pytest.mark.parametrize("k", [1.2, 1.4])
    def test_spectral_class_flips_at_oscillation_threshold(self, k):
        # at k = 1.4 the window ends before the slow oscillation shows, so
        # the sign count alone would call both profiles monotone
        h_osc = oscillation_threshold(k)
        for h, inside in ((h_osc * (1.0 - 1e-6), True), (h_osc * (1.0 + 1e-6), False)):
            c, _ = minimal_speed(h, k)
            assert build_profile(c, h, k).in_region_Dkappa is inside

    def test_small_delay_above_step_floor_passes(self):
        # dt = c h/16 = 2.2e-5, where the residual is round-off, 6.9e-7
        c, _ = minimal_speed(3e-4, 1.2)
        assert build_profile(c, 3e-4, 1.2).residual_max <= 1e-6

    @pytest.mark.parametrize("h", [2.0, 6.0])
    def test_step_independent_at_a_shared_node(self, h):
        # the raw RK4 values moved by 1.5e-6 (h = 2) and 4.0e-5 (h = 6) here
        c, _ = minimal_speed(h, 1.2)
        base = build_profile(c, h, 1.2)
        m = round(c * h / base.grid_step)
        i = round((base.terminal_time - 1.0) / base.grid_step)
        phis = []
        for f in (1, 2, 4):
            prof = build_profile(c, h, 1.2, grid_step=c * h / (f * m))
            assert round(c * h / prof.grid_step) == f * m
            assert prof.t[f * i] == pytest.approx(base.t[i], abs=1e-12)
            phis.append(prof.phi[f * i])
        assert np.max(np.abs(np.diff(phis))) <= 1e-10

    @pytest.mark.parametrize("h", [0.0, 1.0])
    @pytest.mark.parametrize("kw", [
        dict(grid_step=0.0), dict(grid_step=-0.01), dict(grid_step=np.nan),
        dict(t_max=0.0), dict(t_max=-1.0), dict(t_max=np.nan),
    ])
    def test_nonpositive_step_or_t_max_refused(self, h, kw):
        with pytest.raises(DomainError, match="must be positive"):
            build_profile(minimal_speed(h, 1.2)[0], h, 1.2, **kw)

    # the last three are full windows between the floor of t_max-cut windows,
    # 4.3e-6, and that of full ones, which used to be computed in full
    # (0.1-4 s) and then fail the residual gate
    @pytest.mark.parametrize("h,grid_step", [(1e-6, None), (0.0, 4e-6), (0.5, 4e-6),
                                             (0.0, 1.5e-5), (2e-4, None), (0.5, 1.5e-5)])
    def test_step_below_floor_refused_before_integrating(self, h, grid_step,
                                                         monkeypatch):
        def no_integration(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(toyfront, "_delay_rk4", no_integration)
        c, _ = minimal_speed(h, 1.2)
        with pytest.raises(DomainError, match="below"):
            build_profile(c, h, 1.2, grid_step=grid_step)

    def test_long_delay_window_refused_before_allocating(self):
        # c h = 1e4 at step 1e-3: 2e7 history half-steps and weights, ~0.8 GB
        # allocated before the profile was found not finite
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="profile grid .* would exceed"):
                build_profile(2e4, 0.5, 1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_roundoff_failure_asks_for_a_larger_step(self):
        # t_max cuts the window, so the step is above its floor; the residual,
        # ~2 eps/dt^2, is round-off and a smaller step would only add to it
        c, _ = minimal_speed(0.5, 1.2)
        with pytest.raises(AccuracyError, match="too fine.*larger grid_step") as err:
            build_profile(c, 0.5, 1.2, t_max=0.5, grid_step=8e-6)
        assert "smaller" not in str(err.value)

    # steps just above the floor whose round-off still fails the 1e-6 gate
    # (residuals 1.5e-5 and 2.1e-6)
    @pytest.mark.parametrize("h,grid_step", [(0.0, 6e-6), (2e-4, 1.45e-5)])
    def test_residual_above_tolerance_refused(self, h, grid_step):
        c, _ = minimal_speed(h, 1.2)
        with pytest.raises(AccuracyError, match="residual"):
            build_profile(c, h, 1.2, t_max=0.5, grid_step=grid_step)

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_t_max_ends_the_window(self, h):
        # the window stops at the first node past t_max, on the same nodes
        c, _ = minimal_speed(h, 1.2)
        full, cut = build_profile(c, h, 1.2), build_profile(c, h, 1.2, t_max=2.0)
        assert 2.0 <= cut.terminal_time < 2.0 + cut.grid_step < full.terminal_time
        assert np.array_equal(cut.phi, full.phi[: len(cut.phi)])

    # p rounds to 1, so the tail's (1 - p) e^{lambda1 (t + ch)} was 0 * inf:
    # these returned profiles of NaN, which passed every gate
    @pytest.mark.parametrize("c", [50.0, 100.0])
    def test_non_finite_profile_refused(self, c):
        with pytest.raises(AccuracyError, match="not finite"):
            build_profile(c, 0.5, 1.2)

    @pytest.mark.parametrize("h", [0.0, 2.0])
    def test_tail_roots_solved_once(self, h, monkeypatch):
        # the amplitude and the tail share one roots_at_zero solve
        calls = []
        solve = chareq.roots_at_zero

        def counted(*args):
            calls.append(args)
            return solve(*args)

        c = minimal_speed(h, 1.2)[0] * 1.01
        monkeypatch.setattr(chareq, "roots_at_zero", counted)
        build_profile(c, h, 1.2)
        assert len(calls) == 1


@st.composite
def delay_pairs(draw):
    """0 <= h1 < h2 <= 8, at least 1e-9 apart, so that the speeds move by
    far more than the 4 eps relative tolerance of their root solves."""
    h1 = draw(st.floats(0.0, 8.0 - 1e-9))
    return h1, draw(st.floats(h1 + 1e-9, 8.0))


class TestMonotonicityProperties:
    """Acceptance test 09's claims over k in [1.01, 2.99], h in [0, 8]."""

    @given(delay_pairs(), st.floats(1.01, 2.99))
    def test_linear_speed_strictly_decreases(self, hs, k):
        h1, h2 = hs
        assert double_root_speed(h2, k)[0] < double_root_speed(h1, k)[0]

    @given(delay_pairs(), st.floats(1.01, 2.99))
    def test_minimal_speed_does_not_increase(self, hs, k):
        h1, h2 = hs
        assert minimal_speed(h2, k)[0] <= minimal_speed(h1, k)[0]

    @given(delay_pairs(), st.floats(1.01, 2.99), st.floats(1e-9, 2.0),
           st.floats(1e-9, 2.0))
    def test_ratio_T_increases_in_c_and_h(self, hs, k, f, g):
        # above c_sharp(h1) > c_sharp(h2), lambda1 exists at both delays
        h1, h2 = hs
        c = double_root_speed(h1, k)[0] * (1.0 + f)
        assert ratio_T(c * (1.0 + g), h1, k) > ratio_T(c, h1, k)
        assert ratio_T(c, h2, k) > ratio_T(c, h1, k)


class TestLimitQuantities:
    def test_k_15_reference_values(self):
        lq = limit_quantities(1.5)
        assert lq.w_plus == pytest.approx(0.7088, abs=5e-4)
        assert lq.rho == pytest.approx(1.3856, abs=5e-4)
        assert lq.lambda_inf == pytest.approx(0.5115, abs=5e-4)
        assert lq.mu_inf == pytest.approx(1.1031, abs=5e-4)
        assert lq.T1_inf == pytest.approx(0.4637, abs=5e-4)

    def test_k_12_reference_values(self):
        lq = limit_quantities(1.2)
        assert lq.w_plus == pytest.approx(0.3388, abs=5e-4)
        assert lq.rho == pytest.approx(0.8901, abs=5e-4)
        assert lq.lambda_inf == pytest.approx(0.3806, abs=5e-4)
        assert lq.mu_inf == pytest.approx(1.1639, abs=5e-4)
        assert lq.T1_inf == pytest.approx(0.3269, abs=5e-4)

    def test_defining_equations_hold(self):
        for k in (1.1, 1.3, 1.6, 2.5):
            lq = limit_quantities(k)
            assert abs(np.exp(-lq.w_plus) * (2 + lq.w_plus) - 2.0 / k) < 1e-12
            assert abs(np.exp(-lq.w_minus) * (2 + lq.w_minus) + 2.0) < 1e-12
            assert abs(lq.mu_inf**2 - 1 - np.exp(-lq.mu_inf * lq.rho)) < 1e-12
            assert abs(lq.mu_hat_inf**2 - 1 - np.exp(-lq.mu_hat_inf * lq.rho_hat)) < 1e-12
            if lq.lambda_hat_inf is not None:
                assert (
                    abs(lq.lambda_hat_inf**2 - 1 + k * np.exp(-lq.rho_hat * lq.lambda_hat_inf))
                    < 1e-12
                )

    def test_lambert_w_closed_forms_match_brent(self):
        rtol = 4 * np.finfo(float).eps
        for k in (1.05, 1.2, 1.5, 2.0, 2.9):
            lq = limit_quantities(k)
            w_plus = brentq(lambda w: np.exp(-w) * (2 + w) - 2 / k, 0.0, 50.0,
                            xtol=1e-15, rtol=rtol)
            w_minus = brentq(lambda w: np.exp(-w) * (2 + w) + 2, -50.0, -2.0,
                             xtol=1e-15, rtol=rtol)
            assert abs(lq.w_plus - w_plus) < 1e-14
            assert abs(lq.w_minus - w_minus) < 1e-14

    def test_hatted_branch_is_k_independent_where_shared(self):
        a, b = limit_quantities(1.2), limit_quantities(1.5)
        assert a.w_minus == b.w_minus
        assert a.rho_hat == b.rho_hat
        assert a.mu_hat_inf == b.mu_hat_inf

    def test_hatted_lambda_exists_only_for_small_k(self):
        # the scaled equation loses its real root once the linear-speed and
        # region-boundary curves intersect (k above ~1.12 for this model)
        small = limit_quantities(1.05)
        assert small.lambda_hat_inf is not None
        assert 0.0 < small.T2_inf < 1.0
        assert limit_quantities(1.2).lambda_hat_inf is None
        assert limit_quantities(1.5).T2_inf is None


def _peak_sign(a, k):
    """P(a) of oscillation_threshold: positive while c(a) lies in D_kappa."""
    _, _, mu1, c = _pushed_branch(a, k)
    return chareq._dkappa_margin(c, a / mu1, -1.0)


def _mp_transition(k, h_osc):
    """50-digit transition delay of the pushed front: chi_0 at lam, chi_kappa
    at mu and lam = T mu, plus a double root of chi_0 at lam (h_p) or a
    double negative root nu of chi_kappa (h_osc)."""
    if h_osc:
        a = brentq(_peak_sign, 0.0, _pushed_end(k)[0], args=(k,))
    else:
        a = _pushed_end(k)[0]
    _, h, mu1, c = _pushed_branch(a, k)
    with mpmath.workdps(50):
        K = mpmath.mpf(k)
        T = (3 - K) / 4
        chi = lambda z, c, h, s: z * z - c * z - 1 + s * mpmath.exp(-z * c * h)
        dchi = lambda z, c, h, s: 2 * z - c - s * c * h * mpmath.exp(-z * c * h)
        common = lambda lam, mu, c, h: [chi(lam, c, h, K), chi(mu, c, h, -1),
                                        lam - T * mu]
        if h_osc:
            nu = chareq._critical_point(c, c * h, -1.0, -1)
            system = lambda lam, mu, c, h, nu: common(lam, mu, c, h) + [
                chi(nu, c, h, -1), dchi(nu, c, h, -1)]
            start = (float(T) * mu1, mu1, c, h, nu)
        else:
            system = lambda lam, mu, c, h: common(lam, mu, c, h) + [dchi(lam, c, h, K)]
            start = (float(T) * mu1, mu1, c, h)
        return float(mpmath.findroot(system, start)[3])


class TestTransitions:
    def test_pushed_branch_premises(self):
        # for k = 1.01 ... 1.66: the closed-form bound brackets a_max, h(a)
        # rises from 0 to inf, and G and P change sign at most once on
        # (0, a_max), so each transition is one bracketed root
        for k in np.round(np.arange(1.01, 1.665, 0.01), 2):
            T = (3.0 - k) / 4.0
            a_max = brentq(lambda a: _pushed_branch(a, k)[0], 0.0,
                           np.log((T * T + k) / (1.0 - T * T)) / T, xtol=1e-300)
            a = np.linspace(0.0, a_max, 2001)[:-1]
            h = [_pushed_branch(x, k)[1] for x in a]
            assert h[0] == 0.0 and np.all(np.diff(h) > 0.0), k
            assert _pushed_branch(a_max * (1 + 1e-12), k)[1] == np.inf, k
            for f in (_pushed_slope, _peak_sign):
                signs = np.sign([f(x, k) for x in a])
                assert np.count_nonzero(np.diff(signs)) <= 1, (k, f.__name__)

    @pytest.mark.parametrize("k", [1.36, 1.4, 1.5, 1.6, 1.66])
    def test_pushed_to_pulled_against_mpmath(self, k):
        exact = _mp_transition(k, h_osc=False)
        assert abs(pushed_to_pulled_delay(k) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("k", [1.05, 1.2, 1.33, 1.4])
    def test_oscillation_threshold_against_mpmath(self, k):
        exact = _mp_transition(k, h_osc=True)
        assert abs(oscillation_threshold(k) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("k", [1.2, 1.33, 1.4, 1.5])
    def test_transitions_match_curve_sweep(self, k):
        params = ModelParams.toy(k)
        h_osc, h_p = oscillation_threshold(k), pushed_to_pulled_delay(k)
        if h_osc is not None:
            rows = sample_curves([h_osc * (1 - 1e-6), h_osc * (1 + 1e-6)], params)
            assert [r.monotone_front for r in rows] == [True, False]
        if h_p != np.inf:
            rows = sample_curves([h_p * (1 - 1e-9), h_p * (1 + 1e-9)], params)
            assert [r.regime for r in rows] == ["pushed", "pulled"]

    def test_pushed_to_pulled_at_k15(self):
        assert pushed_to_pulled_delay(1.5) == pytest.approx(0.3379, abs=1e-3)

    def test_always_pushed_at_k12(self):
        assert pushed_to_pulled_delay(1.2) == np.inf

    def test_transition_delay_collapses_near_branch_point(self):
        assert pushed_to_pulled_delay(1.66) < 0.05

    def test_oscillation_threshold_k12(self):
        assert oscillation_threshold(1.2) == pytest.approx(3.25, abs=0.02)

    def test_oscillation_threshold_absent_k15(self):
        assert oscillation_threshold(1.5) is None
