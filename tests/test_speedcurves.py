import numpy as np
import pytest
from scipy.optimize import brentq

from delayfronts import (
    AccuracyError,
    DomainError,
    ModelParams,
    c_bound_curve,
    c_kappa_curve,
    h_star,
    in_region_Dstar,
    roots_at_kappa,
    sample_curves,
)
from delayfronts.speedcurves import CSV_HEADER, curves_csv

REFERENCE_SPEEDS = {
    0.5: (0.5720, 0.6562), 1.0: (0.4270, 0.4770), 1.5: (0.3420, 0.3779),
    2.0: (0.2860, 0.3138), 2.5: (0.2458, 0.2687), 3.0: (0.2157, 0.2351),
    3.5: (0.1922, 0.2091), 4.0: (0.1733, 0.1883), 4.5: (0.1579, 0.1713),
    5.0: (0.1450, 0.1571), 5.5: (0.1340, 0.1452), 6.0: (0.1246, 0.1348),
}


class TestHStar:
    def test_closed_form_instance(self):
        # h e^{h+1} = e^2 at h = 1
        assert h_star(-np.exp(-2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_toy_value(self):
        hs = h_star(-1.0)
        assert hs == pytest.approx(0.27846, abs=1e-5)
        assert abs(hs * np.exp(hs + 1.0) - 1.0) < 1e-12

    def test_lambert_w_matches_brent(self):
        for s in (-1e-6, -0.05, -np.exp(-2.0), -0.3, -1.0, -2.5, -10.0):
            a = abs(s)
            f = lambda hh: a * hh * np.exp(hh + 1.0) - 1.0
            hi = 1.0
            while f(hi) < 0.0:
                hi *= 2.0
            oracle = brentq(f, 1e-12, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            assert abs(h_star(s) - oracle) < 1e-14

    def test_grows_as_slope_vanishes(self):
        assert h_star(-1e-6) > 8.0

    def test_rejects_nonnegative_slope(self):
        with pytest.raises(DomainError):
            h_star(0.5)


class TestCBoundCurve:
    def test_zero_at_right_endpoint(self):
        assert c_bound_curve(1.0, -1.0) == 0.0

    def test_blows_up_near_threshold(self):
        hs = h_star(-1.0)
        assert c_bound_curve(hs + 1e-8, -1.0) > 1e3

    def test_against_first_order_system_oracle(self):
        # the curve solves 1 + h g'(k) e^{-mu c h} = 0 together with
        # chi_kappa(mu) = 0; eliminate mu = (c - sqrt(c^2 + 4 + 4/h))/2
        h = 0.5

        def residual(c):
            mu = 0.5 * (c - np.sqrt(c * c + 4.0 + 4.0 / h))
            return 1.0 - h * np.exp(-mu * c * h)

        c_oracle = brentq(residual, 1e-6, 50.0, xtol=1e-13)
        assert c_bound_curve(h, -1.0) == pytest.approx(c_oracle, abs=1e-10)

    def test_domain_errors(self):
        hs = h_star(-1.0)
        for h in (hs * 0.5, 1.5):
            with pytest.raises(DomainError):
                c_bound_curve(h, -1.0)

    def test_strictly_decreasing(self):
        hs = h_star(-1.0)
        grid = np.linspace(hs * 1.001, 1.0, 200)
        vals = [c_bound_curve(h, -1.0) for h in grid]
        assert np.all(np.diff(vals) < 0)


class TestRegionDstar:
    def test_no_delay_is_always_inside(self, toy12):
        for c in (0.2, 1.0, 5.0):
            r = roots_at_kappa(c, 0.0, toy12)
            assert in_region_Dstar(0.0, c, -1.0, r.mu2)

    def test_small_delay_always_inside(self, toy12):
        rng = np.random.default_rng(5)
        hs = h_star(-1.0)
        for _ in range(20):
            h = rng.uniform(1e-3, hs)
            c = rng.uniform(0.1, 4.0)
            r = roots_at_kappa(c, h, toy12)
            assert in_region_Dstar(h, c, -1.0, r.mu2)

    def test_outside_above_bound_curve(self, toy12):
        hs = h_star(-1.0)
        h = 0.5 * (hs + 1.0)
        c = c_bound_curve(h, -1.0) * 1.05
        r = roots_at_kappa(c, h, toy12)
        assert r.in_region_Dkappa  # c_bound < c_kappa here
        assert not in_region_Dstar(h, c, -1.0, r.mu2)


class TestSampleCurves:
    def test_nondelayed_row(self, toy12):
        (row,) = sample_curves([0.0], toy12)
        assert row.c_sharp == pytest.approx(0.89443, abs=5e-5)
        assert row.c_star == pytest.approx(1.15950, abs=5e-5)
        assert row.regime == "pushed"
        assert row.c_kappa is None and row.c_bound is None
        assert row.monotone_front is True

    def test_reference_speed_columns(self, toy12):
        rows = sample_curves(sorted(REFERENCE_SPEEDS), toy12)
        for row in rows:
            cs_ref, cst_ref = REFERENCE_SPEEDS[row.h]
            assert row.c_sharp == pytest.approx(cs_ref, abs=5e-4)
            assert row.c_star == pytest.approx(cst_ref, abs=5e-4)

    def test_bound_curve_decreasing_along_grid(self, toy12):
        hs = h_star(-1.0)
        grid = np.linspace(hs * 1.01, 0.99, 30)
        rows = sample_curves(grid, toy12)
        vals = [r.c_bound for r in rows]
        assert all(v is not None for v in vals)
        assert np.all(np.diff(vals) < 0)

    def test_bound_stays_below_region_boundary(self, toy12):
        hs = h_star(-1.0)
        grid = np.linspace(hs * 1.01, 0.99, 30)
        for row in sample_curves(grid, toy12):
            assert row.c_bound < row.c_kappa

    def test_pushed_iff_above_linear_speed(self, toy12):
        rows = sample_curves(np.linspace(0.0, 6.0, 25), toy12)
        for row in rows:
            assert row.c_star >= row.c_sharp - 1e-12
            if row.regime == "pushed":
                assert row.c_star > row.c_sharp
            else:
                assert row.c_star == pytest.approx(row.c_sharp, abs=1e-10)

    def test_oscillatory_rows_lose_monotone_flag(self, toy12):
        rows = sample_curves([3.0, 4.0], toy12)
        # k = 1.2 oscillation threshold is 3.25: monotone below, not above
        assert rows[0].monotone_front is True
        assert rows[1].monotone_front is False

    def test_rejects_unsorted_grid(self, toy12):
        with pytest.raises(DomainError):
            sample_curves([1.0, 0.5], toy12)

    def test_row_failure_is_isolated(self, toy12, monkeypatch):
        import delayfronts.speedcurves as sc

        real = sc.chareq.double_root_speed

        def flaky(h, slope, **kw):
            if h == 2.0:
                raise AccuracyError("synthetic failure")
            return real(h, slope, **kw)

        monkeypatch.setattr(sc.chareq, "double_root_speed", flaky)
        rows = sample_curves([1.0, 2.0, 3.0], toy12)
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error == "AccuracyError: synthetic failure"
        assert "2,error:AccuracyError: synthetic failure," in curves_csv(rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_row_failure_propagates(self, toy12, monkeypatch, jobs):
        # only typed solver failures become error rows; a bug must surface
        import delayfronts.speedcurves as sc

        real = sc.chareq.double_root_speed

        def broken(h, slope, **kw):
            if h == 2.0:
                raise RuntimeError("synthetic bug")
            return real(h, slope, **kw)

        monkeypatch.setattr(sc.chareq, "double_root_speed", broken)
        with pytest.raises(RuntimeError, match="synthetic bug"):
            sample_curves([1.0, 2.0, 3.0], toy12, jobs=jobs)

    def test_parallel_matches_serial(self, toy12):
        grid = [0.5, 1.0, 1.5]
        serial = curves_csv(sample_curves(grid, toy12))
        parallel = curves_csv(sample_curves(grid, toy12, jobs=2))
        assert serial == parallel


class TestCsv:
    def test_header_and_formatting(self, toy12):
        text = curves_csv(sample_curves([0.0, 0.5], toy12))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0,0.894427,,,1.1595,pushed,true")

    def test_monotone_flag_is_lowercase(self):
        # k = 1.5 is pulled at these delays, where c_star is the linear speed
        rows = sample_curves([0.2, 1.0], ModelParams.toy(1.5))
        assert all(type(r.monotone_front) is bool for r in rows)
        flags = [line.rsplit(",", 1)[1] for line in curves_csv(rows).split()[1:]]
        assert flags and set(flags) <= {"true", "false"}

    def test_byte_identical_reruns(self, toy12):
        a = curves_csv(sample_curves([0.3, 0.6], toy12))
        b = curves_csv(sample_curves([0.3, 0.6], toy12))
        assert a == b
