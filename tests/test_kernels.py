import numpy as np
import pytest

from delayfronts import (
    AccuracyError,
    DomainError,
    ModelParams,
    N_kernel,
    apply_N_operator,
    build_profile,
    minimal_speed,
    psi_kernel,
    roots_at_kappa,
    theta_kernel,
)
from delayfronts.chareq import eval_char_dz
from delayfronts.kernels import _SUPPORT_DECADES, _require_region

from conftest import sample_dkappa

# the (c, h) points of the kernel benchmark at k = 1.2
SEED0_POINTS = [(0.5, 1.0), (1.0, 0.5), (0.3, 2.0), (0.2, 3.0)]
# large speeds, where mu1 dt = 0.013-0.032 at the default step
LARGE_SPEED_POINTS = [(8.0, 0.05), (5.0, 0.1), (5.0, 0.2), (4.0, 0.3), (8.0, 0.1)]


def psi_residual(grid, c, h, gk):
    """max |R| / max |psi| of R = psi'' - c psi' - psi + g'(kappa) psi(t - ch)
    on the forward nodes, by five-point stencils; windows of 2.5 steps
    around the kinks at t = 0, ch and 2ch are excluded."""
    dt, ch = grid.step, c * h
    m = round(ch / dt)
    i0 = grid.index_of_zero()
    y = grid.values[i0:]
    idx = np.arange(2, len(y) - 2)
    for kink in (0.0, ch, 2.0 * ch):
        idx = idx[np.abs(idx * dt - kink) > 2.5 * dt]
    w = [y[idx + o] for o in (-2, -1, 0, 1, 2)]
    d2 = (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) / (12.0 * dt * dt)
    d1 = (w[0] - 8.0 * w[1] + 8.0 * w[3] - w[4]) / (12.0 * dt)
    amp = y[0] - grid.jump_at_zero
    delayed = np.where(idx >= m, y[np.maximum(idx - m, 0)],
                       amp * np.exp(grid.mu1 * (idx - m) * dt))
    r = d2 - c * d1 - y[idx] + gk * delayed
    return np.max(np.abs(r)) / np.max(np.abs(grid.values))


class TestTheta:
    def test_pointwise_values(self):
        assert theta_kernel(0.0, -1.0) == 1.0
        assert theta_kernel(-0.3, -1.0) == 0.0
        mu2 = -1.7
        assert theta_kernel(1.0 / abs(mu2), mu2) == pytest.approx(np.e**-1, abs=1e-15)

    def test_vectorized(self):
        t = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(theta_kernel(t, -0.5), [0.0, 1.0, np.exp(-1.0)])

    def test_needs_negative_mu2(self):
        with pytest.raises(DomainError):
            theta_kernel(0.0, 0.3)


class TestPsi:
    def test_left_limit_closed_form(self, toy12):
        c, h = 0.5, 1.0
        grid = psi_kernel(c, h, toy12)
        r = roots_at_kappa(c, h, toy12)
        amp = -(r.mu1 - r.mu2) / eval_char_dz(r.mu1, c, h, -1.0)
        i0 = grid.index_of_zero()
        # node at 0 stores the right limit amp + 1; one step earlier the tail
        assert grid.values[i0] == pytest.approx(amp + 1.0, abs=1e-14)
        assert grid.values[i0 - 1] == pytest.approx(
            amp * np.exp(r.mu1 * grid.t[i0 - 1]), abs=1e-14
        )

    def test_unit_jump(self, toy12):
        grid = psi_kernel(0.5, 1.0, toy12)
        i0 = grid.index_of_zero()
        left = grid.values[i0 - 1] * np.exp(grid.mu1 * (0.0 - grid.t[i0 - 1]))
        assert grid.values[i0] - left == pytest.approx(1.0, abs=1e-12)
        assert grid.jump_at_zero == 1.0

    def test_no_delay_limit_vanishes_forward(self, toy12):
        grid = psi_kernel(1.0, 0.0, toy12)
        pos = grid.t > 0.0
        assert np.all(grid.values[pos] == 0.0)
        neg = grid.t < 0.0
        assert np.all(grid.values[neg] < 0.0)

    def test_all_samples_negative(self, toy12):
        # with its e^{mu1 t} and e^{mu2 t} modes projected out, psi runs to its
        # tail cutoff (T_stop lies beyond it at every one of these points)
        rng = np.random.default_rng(23)
        for c, h in [*sample_dkappa(rng, 15), *SEED0_POINTS]:
            grid = psi_kernel(c, h, toy12)
            assert grid.values.max() < 0.0, (c, h)
            t_tail = 1.2 * _SUPPORT_DECADES / abs(grid.mu3)
            assert grid.t_max >= t_tail - grid.step, (c, h)
            assert grid.window_end == "tail"

    @pytest.mark.parametrize("c,h", SEED0_POINTS)
    def test_step_independent(self, toy12, c, h):
        # at t = 1.5: 2.0e-14 at most with the modes projected out, and
        # 1.4e-12 to 4.1e-12 in the raw RK4 values
        vals = []
        for m in (200, 400, 800):
            grid = psi_kernel(c, h, toy12, step=c * h / m)
            vals.append(grid.values[np.argmin(np.abs(grid.t - 1.5))])
        assert np.max(np.abs(np.diff(vals))) < 1e-13

    @pytest.mark.parametrize("c,h", SEED0_POINTS + LARGE_SPEED_POINTS)
    def test_solves_the_delayed_equation(self, toy12, c, h):
        # 2.6e-11 to 7.6e-8 measured; a 1% error in g'(kappa) gives ~1e-2
        grid = psi_kernel(c, h, toy12)
        assert psi_residual(grid, c, h, toy12.slope_kappa) <= 1e-6

    @pytest.mark.parametrize("h", [0.0, 1.0])
    @pytest.mark.parametrize("kw", [
        dict(step=0.0), dict(step=-0.01), dict(step=np.nan),
        dict(t_max=0.0), dict(t_max=-1.0), dict(t_max=np.nan),
    ])
    def test_nonpositive_step_or_t_max_refused(self, toy12, h, kw):
        with pytest.raises(DomainError, match="must be positive"):
            psi_kernel(0.5, h, toy12, **kw)

    @pytest.mark.parametrize("c,h", [(0.5, 1.0), (0.35, 2.0), (0.2, 3.0), (1.0, 0.5)])
    def test_forward_tail_ratio_plateau(self, toy12, c, h):
        grid = psi_kernel(c, h, toy12)
        mu3 = grid.mu3
        pred = (mu3 - grid.mu2) / eval_char_dz(mu3, c, h, -1.0)
        w = grid.t >= grid.t_max - 0.35 * grid.t_max
        ratio = grid.values[w] / np.exp(mu3 * grid.t[w])
        assert np.mean(ratio) == pytest.approx(pred, rel=5e-2)

    def test_outside_region_rejected(self, toy12):
        with pytest.raises(DomainError):
            psi_kernel(2.0, 1.0, toy12)  # c above the region boundary

    # these raised MemoryError for psi's 3.3e9 nodes and N's 2.3e9-node
    # e^{mu2 t} tail; the refusal comes before either is allocated
    @pytest.mark.parametrize("kernel,c,h", [
        (psi_kernel, 1e-3, 1e-3),
        pytest.param(lambda c, h, p: N_kernel(psi_kernel(c, h, p), p), 1e-3, 1e-3,
                     id="N_kernel-0.001-0.001"),
        pytest.param(lambda c, h, p: N_kernel(psi_kernel(c, h, p), p), 1e4, 1e-6,
                     id="N_kernel-10000.0-1e-06"),
    ])
    def test_grid_over_node_cap_refused(self, toy12, kernel, c, h):
        with pytest.raises(DomainError, match="would exceed"):
            kernel(c, h, toy12)


class TestN:
    def test_no_delay_closed_form(self, toy12):
        # two-exponential convolution: -e^{mu1 t}/(mu1-mu2) backward,
        # -e^{mu2 t}/(mu1-mu2) forward, total mass 1/(mu1 mu2) = -1/2
        c = 1.0
        grid = N_kernel(psi_kernel(c, 0.0, toy12), toy12)
        mu1, mu2 = 2.0, -1.0
        expected = np.where(
            grid.t < 0.0,
            -np.exp(mu1 * grid.t) / (mu1 - mu2),
            -np.exp(mu2 * grid.t) / (mu1 - mu2),
        )
        np.testing.assert_allclose(grid.values, expected, rtol=0.0, atol=1e-15)
        assert np.trapezoid(grid.values, grid.t) == pytest.approx(-0.5, abs=1e-4)

    @pytest.mark.parametrize("c,h", SEED0_POINTS)
    def test_closed_form_before_zero(self, toy12, c, h):
        # D1 N = psi with psi = amp e^{mu1 t} on t < 0 gives N = amp e^{mu1 t}/(mu1 - mu2)
        grid = N_kernel(psi_kernel(c, h, toy12), toy12)
        r = roots_at_kappa(c, h, toy12)
        amp = -(r.mu1 - r.mu2) / eval_char_dz(r.mu1, c, h, -1.0)
        back = grid.t <= 0.0
        expected = amp * np.exp(r.mu1 * grid.t[back]) / (r.mu1 - r.mu2)
        peak = np.max(np.abs(grid.values))
        assert np.max(np.abs(grid.values[back] - expected)) <= 1e-14 * peak

    @pytest.mark.parametrize("c,h", [(0.5, 1.0), (0.2, 3.0)])
    def test_continuous_at_zero(self, toy12, c, h):
        # the value at 0 against a linear extrapolation from the right: the gap
        # is the O(dt^2) extrapolation error, so it falls fourfold as dt halves
        gaps = []
        for m in (100, 200):
            grid = N_kernel(psi_kernel(c, h, toy12, step=c * h / m), toy12)
            i0, v = grid.index_of_zero(), grid.values
            gaps.append(abs(2.0 * v[i0 + 1] - v[i0 + 2] - v[i0]) / np.max(np.abs(v)))
        assert gaps[1] < 2e-5
        assert 3.0 < gaps[0] / gaps[1] < 5.0

    @pytest.mark.parametrize("c,h", [(0.5, 1.0), (0.2, 3.0)])
    def test_defining_equation_residual_second_order(self, toy12, c, h):
        # central-difference residual of N' - mu2 N - psi inside psi's window
        residuals = []
        for m in (100, 200):
            psi = psi_kernel(c, h, toy12, step=c * h / m)
            grid = N_kernel(psi, toy12)
            j0, i0 = psi.index_of_zero(), grid.index_of_zero()
            n = len(psi.t) - j0
            v = grid.values[i0 : i0 + n]
            dv = (v[2:] - v[:-2]) / (2.0 * grid.step)
            r = dv - grid.mu2 * v[1:-1] - psi.values[j0 + 1 : j0 + n - 1]
            residuals.append(np.max(np.abs(r)) / np.max(np.abs(grid.values)))
        assert residuals[1] < 5e-6
        assert 3.0 < residuals[0] / residuals[1] < 5.0

    @pytest.mark.parametrize("c,h", SEED0_POINTS)
    def test_seed0_mass_error(self, toy12, c, h):
        # 5.5e-7 to 7.3e-7 measured; the FFT convolution gave 2.9e-6 to 4.5e-6
        grid = N_kernel(psi_kernel(c, h, toy12), toy12)
        assert abs(np.trapezoid(grid.values, grid.t) + 0.5) < 1e-6

    def test_negative_and_normalized_on_draws(self, toy12):
        rng = np.random.default_rng(29)
        for c, h in sample_dkappa(rng, 15):
            grid = N_kernel(psi_kernel(c, h, toy12), toy12)
            assert grid.values.max() < 0.0, (c, h)
            mass = np.trapezoid(grid.values, grid.t)
            assert mass == pytest.approx(-0.5, abs=1e-4), (c, h)

    def test_normalization_improves_under_refinement(self, toy12):
        c, h = 0.5, 1.0
        errs = []
        for m in (50, 100, 200):
            grid = N_kernel(psi_kernel(c, h, toy12, step=c * h / m), toy12)
            errs.append(abs(np.trapezoid(grid.values, grid.t) + 0.5))
        assert errs[0] > errs[2]  # order >= 1 overall

    @pytest.mark.parametrize("c,h", LARGE_SPEED_POINTS)
    def test_large_speed(self, toy12, c, h):
        # without the e^{mu2 t} projection psi turned positive near its tail
        # cutoff, and at (5, 0.2), (4, 0.3) and (8, 0.1) T_stop, not the tail
        # cutoff, ends the window
        grid = N_kernel(psi_kernel(c, h, toy12), toy12)
        assert abs(np.trapezoid(grid.values, grid.t) + 0.5) < 1e-5

    def test_coarse_step_raises_accuracy_error(self, toy12):
        with pytest.raises(AccuracyError, match="refine the step"):
            N_kernel(psi_kernel(0.5, 1.0, toy12, step=0.5 * 1.0 / 4.0), toy12)

    @pytest.mark.parametrize("m", [200, 800])
    def test_short_t_max_is_named_as_the_cause(self, toy12, m):
        # psi cut before its e^{mu3 t} tail: no step refinement helps
        assert psi_kernel(0.5, 1.0, toy12, t_max=0.2, step=0.5 / m).window_end == "t_max"
        with pytest.raises(AccuracyError, match="t_max = 0.2 cut psi") as err:
            N_kernel(psi_kernel(0.5, 1.0, toy12, t_max=0.2, step=0.5 / m), toy12)
        assert "refine the step" not in str(err.value)
        assert psi_kernel(0.5, 1.0, toy12, t_max=5.0, step=0.5 / m).window_end == "tail"

    @pytest.mark.parametrize("m", [200, 800])
    def test_short_T_stop_is_named_as_the_cause(self, toy12, m):
        # at (6, 0.3) T_stop = 2.86 ends psi's window long before its tail
        # cutoff (28.1), and the mass error, -0.50045, does not move with the step
        psi = psi_kernel(6.0, 0.3, toy12, step=1.8 / m)
        assert psi.window_end == "T_stop"
        with pytest.raises(AccuracyError, match=r"T_stop = 2\.86\d* cut psi") as err:
            N_kernel(psi, toy12)
        assert "refine the step" not in str(err.value)


class TestApplyN:
    def test_equilibria_are_fixed_points(self, toy12):
        c, h = 0.5, 1.0
        t = np.arange(-10.0, 10.0, c * h / 150)
        out = apply_N_operator(t, np.full_like(t, 2.0), c, h, toy12)
        np.testing.assert_allclose(out, 2.0, atol=2e-3)
        out = apply_N_operator(t, np.zeros_like(t), c, h, toy12)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_profile_is_a_fixed_point_on_window(self, toy12):
        h, k = 1.0, 1.2
        ck = 0.5  # inside the region, above the minimal speed 0.477
        prof = build_profile(ck, h, k)
        dt = prof.grid_step
        t = np.arange(-15.0, prof.terminal_time - 1.0, dt)
        vals = np.clip(prof(t), 0.0, 2.0)
        out = apply_N_operator(t, vals, ck, h, toy12)
        inner = (t > t[0] + 5.0) & (t < t[-1] - 5.0)
        assert np.max(np.abs(out[inner] - vals[inner])) < 1e-3

    def test_monotone_in_the_input(self, toy12):
        rng = np.random.default_rng(31)
        c, h = 0.5, 1.0
        t = np.arange(-8.0, 8.0, c * h / 150)
        for _ in range(20):
            lower = rng.uniform(0.0, 2.0, size=t.size)
            upper = np.clip(lower + rng.uniform(0.0, 0.5, size=t.size), 0.0, 2.0)
            upper = np.maximum(lower, upper)
            out_lo = apply_N_operator(t, lower, c, h, toy12)
            out_hi = apply_N_operator(t, upper, c, h, toy12)
            assert np.all(out_lo <= out_hi + 1e-10)

    def test_range_validation(self, toy12):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            apply_N_operator(t, np.full_like(t, 2.5), 0.5, 1.0, toy12)

    def test_non_uniform_grid_refused(self, toy12):
        t = np.linspace(0.0, 1.0, 11) ** 2
        with pytest.raises(DomainError, match="uniform"):
            apply_N_operator(t, np.ones_like(t), 0.5, 1.0, toy12)


def check_factorization(
    t_grid: np.ndarray,
    values: np.ndarray,
    c: float,
    h: float,
    params: ModelParams,
) -> float:
    """Max residual of D = D1 D2 = D2 D1 on a sampled test function.

    Derivatives by central differences, the history integral by trapezoid
    on the grid; the grid step must divide ch.  Returns the larger of the
    two composition residuals over the valid interior window.
    """
    roots = _require_region(c, h, params)
    mu2 = roots.mu2
    gk = params.slope_kappa
    t_grid = np.asarray(t_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    dt = float(t_grid[1] - t_grid[0])
    ch = c * h
    m = int(round(ch / dt)) if h > 0.0 else 0
    if h > 0.0 and abs(m * dt - ch) > 1e-9 * ch:
        raise DomainError("grid step must divide c*h")

    def d1(arr):
        out = np.full_like(arr, np.nan)
        out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dt)
        return out

    def hist(arr):
        # trapezoid of e^{-mu2 s} arr(t+s) over s in [-ch, 0]
        if m == 0:
            return np.zeros_like(arr)
        wq = np.full(m + 1, dt)
        wq[0] *= 0.5
        wq[-1] *= 0.5
        ker = wq * np.exp(-mu2 * (-ch + dt * np.arange(m + 1)))
        out = np.full_like(arr, np.nan)
        out[m:] = np.convolve(arr, ker[::-1], "valid")
        return out

    def D2(arr):
        return d1(arr) - (c - mu2) * arr - gk * np.exp(-ch * mu2) * hist(arr)

    def D1(arr):
        return d1(arr) - mu2 * arr

    def D(arr):
        out = np.full_like(arr, np.nan)
        out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / (dt * dt)
        out -= c * d1(arr) + arr
        if m == 0:
            out += gk * arr
        else:
            out[:m] = np.nan
            out[m:] += gk * arr[:-m]
        return out

    full = D(y)
    comp12 = D1(D2(y))
    comp21 = D2(D1(y))
    ok = np.isfinite(full) & np.isfinite(comp12) & np.isfinite(comp21)
    if not np.any(ok):
        raise DomainError("test function too short for the composition window")
    r12 = np.max(np.abs(full[ok] - comp12[ok]))
    r21 = np.max(np.abs(full[ok] - comp21[ok]))
    return float(max(r12, r21))


class TestFactorization:
    def test_step_not_dividing_ch_refused(self, toy12):
        t = np.arange(-3.0, 3.0, 0.5 / 200.5)
        with pytest.raises(DomainError, match="divide"):
            check_factorization(t, np.exp(0.4 * t), 0.5, 1.0, toy12)

    def test_exponential_eigenfunction(self, toy12):
        c, h = 0.5, 1.0
        dt = c * h / 200
        t = np.arange(-3.0, 3.0, dt)
        res = check_factorization(t, np.exp(0.4 * t), c, h, toy12)
        assert res < 5e-5

    def test_second_order_in_the_step(self, toy12):
        # steps c h/100 and c h/200; at h = 0 (no history integral, m = 0)
        # c h fixes no step, so 0.01 and 0.005
        for c, h, dt0 in ((0.5, 1.0, 0.005), (0.7, 0.0, 0.01)):
            residuals = []
            for dt in (dt0, dt0 / 2):
                t = np.arange(-4.0, 4.0, dt)
                residuals.append(check_factorization(t, np.sin(t), c, h, toy12))
            ratio = residuals[0] / residuals[1]
            assert 3.0 < ratio < 5.0, h

    def test_constant_function(self, toy12):
        # derivatives vanish, but the history-integral quadrature error
        # remains, so the bound matches the trapezoid scale
        c, h = 0.5, 1.0
        dt = c * h / 200
        t = np.arange(-3.0, 3.0, dt)
        res = check_factorization(t, np.ones_like(t), c, h, toy12)
        assert res < 1e-5
