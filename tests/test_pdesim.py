import tracemalloc
import warnings

import numpy as np
import pytest

from delayfronts import (
    AccuracyError,
    DomainError,
    SimConfig,
    cn_step,
    init_cauchy,
    minimal_speed,
    pdesim,
    run,
)
from delayfronts.toyfront import birth_rate


class TestConfigAndInit:
    def test_history_ring_sizes(self):
        for h, rows in ((0.5, 51), (0.0, 2)):
            st = init_cauchy(SimConfig(h=h, k=1.2, t_end=1.0))
            assert st.history.shape == (rows, 1001)
            # every row is g of the Cauchy data (the end columns enter no result)
            g0 = birth_rate(st.u, 1.2)[1:-1]
            for row in st.history:
                np.testing.assert_array_equal(row[1:-1], g0)

    def test_default_grid_has_1001_points(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0)
        assert cfg.n_points == 1001
        st = init_cauchy(cfg)
        assert st.x[0] == -25.0 and st.x[-1] == 25.0

    def test_step_initial_data(self):
        st = init_cauchy(SimConfig(h=0.5, k=1.2, t_end=1.0))
        assert st.u[st.x < 0].max() == 0.0
        assert st.u[st.x >= 0].min() == 2.0

    def test_non_integer_delay_ratio_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(h=0.505, k=1.2, t_end=1.0, dt=0.01)

    def test_non_integer_grid_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(h=0.5, k=1.2, t_end=1.0, dx=0.07)

    @pytest.mark.parametrize("times", [(50.0,), (-1.0,), (0.0, 10.5), (float("nan"),)])
    def test_snapshot_outside_run_rejected(self, times):
        with pytest.raises(DomainError, match="snapshot_times"):
            SimConfig(h=0.5, k=1.2, t_end=10.0, snapshot_times=times)

    # reversed, empty, and one interior unknown (scipy's dpttrf raises ValueError)
    @pytest.mark.parametrize("x_min, x_max", [(25.0, -25.0), (1.0, 1.0), (0.0, 0.1)])
    def test_grid_below_three_cells_rejected(self, x_min, x_max):
        with pytest.raises(DomainError, match="3 cells"):
            SimConfig(h=0.5, k=1.2, t_end=1.0, x_min=x_min, x_max=x_max)

    def test_three_cell_grid_steps(self):
        st = init_cauchy(SimConfig(h=0.5, k=1.2, t_end=1.0, x_min=0.0, x_max=0.15))
        cn_step(st)
        assert st.u.shape == (4,) and np.all(np.isfinite(st.u))

    # dx = 1e-300 passed here and made numpy raise ValueError in init_cauchy;
    # dt = 5e-324 raised OverflowError from round(h/dt)
    @pytest.mark.parametrize("grid", [dict(dx=1e-300), dict(dt=5e-324)])
    def test_grid_over_cell_cap_rejected(self, grid):
        with pytest.raises(DomainError, match="would exceed"):
            SimConfig(h=0.5, k=1.2, t_end=1.0, **grid)

    # refused as input, not blamed on the integration (AccuracyError after the
    # first step); 1e308 is finite, but its term dt/dx^2 * 1e308 = 4e308 is not
    @pytest.mark.parametrize("name", ["bc_left", "bc_right"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    def test_non_finite_dirichlet_value_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} = .* must be finite"):
            SimConfig(h=0.5, k=1.2, t_end=1.0, **{name: value})

    @pytest.mark.parametrize("name", ["bc_left", "bc_right"])
    def test_dirichlet_value_with_a_finite_term_accepted(self, name):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0, **{name: 1e307})  # the term is 4e307
        assert getattr(cfg, name) == 1e307

    @pytest.mark.parametrize("name", ["h", "t_end", "x_min", "x_max", "dx", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, name, value):
        kwargs = dict(h=0.5, k=1.2, t_end=1.0)
        kwargs[name] = value
        with pytest.raises(DomainError, match="finite"):
            SimConfig(**kwargs)


def test_path_loaded_lapack_matches_scipy_linalg():
    """pdesim's dpttrf/dpttrs, loaded from scipy's LAPACK wrapper by its path,
    solve as scipy.linalg.lapack does, bit for bit (n = 999, a CN matrix)."""
    from scipy.linalg import lapack

    rng = np.random.default_rng(19)
    d, e, b = np.full(999, 1.0 + 2.0 * 4.0 + 0.005), np.full(998, -4.0), rng.standard_normal(999)
    dpttrf, dpttrs, _ = pdesim._kernels()
    ours, ref = dpttrf(d, e), lapack.dpttrf(d, e)
    for x, y in zip(ours, ref):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(dpttrs(*ours[:2], b)[0], lapack.dpttrs(*ref[:2], b)[0])


def test_lapack_falls_back_to_scipy_linalg_without_the_wrapper_file(monkeypatch):
    import importlib.machinery

    from scipy.linalg import lapack

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    # the uncached loader: the cached one returns what it loaded first
    assert pdesim._kernels.__wrapped__()[:2] == (lapack.dpttrf, lapack.dpttrs)


def test_path_loaded_daxpy_matches_numpy_bit_for_bit():
    """y + 2x and y - x round once, with or without FMA in the kernel: the
    bits of numpy's 2*x + y and y - x, NaN, infinities, -0.0 and subnormals
    included."""
    _, _, daxpy = pdesim._kernels()
    rng = np.random.default_rng(24)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e-308, 1.7e308]
    for _ in range(20):
        x = rng.standard_normal(999) * 10.0 ** rng.integers(-320, 300, 999)
        y = rng.standard_normal(999) * 10.0 ** rng.integers(-320, 300, 999)
        x[rng.integers(0, 999, 40)] = rng.choice(special, 40)
        y[rng.integers(0, 999, 40)] = rng.choice(special, 40)
        with np.errstate(all="ignore"):
            for a, want in ((2.0, 2.0 * x + y), (-1.0, y - x)):
                got = y.copy()
                daxpy(x, got, len(x), a)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_daxpy_updates_a_row_of_a_2d_array_in_place():
    # f2py hands back an updated copy, silently, where y cannot be written in place
    _, _, daxpy = pdesim._kernels()
    levels = np.arange(30.0).reshape(3, 10)
    x = np.ones(8)
    row = levels[1, 1:-1]
    assert daxpy(x, row, 8, 2.0) is row
    np.testing.assert_array_equal(levels[1], [10.0, *np.arange(13.0, 21.0), 19.0])
    np.testing.assert_array_equal(levels[[0, 2]], np.arange(30.0).reshape(3, 10)[[0, 2]])


def test_blas_falls_back_to_scipy_linalg_without_the_wrapper_file(monkeypatch):
    import importlib.machinery

    from scipy.linalg import blas

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    assert pdesim._kernels.__wrapped__()[2] is blas.daxpy


class TestCnStep:
    def test_zero_equilibrium_is_stationary(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0, bc_right=0.0)
        st = init_cauchy(cfg)
        st.u = np.zeros_like(st.u)
        st.history[:] = birth_rate(st.u, cfg.k)
        cn_step(st)
        assert np.abs(st.u).max() == 0.0

    def test_upper_equilibrium_is_stationary(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0, bc_left=2.0)
        st = init_cauchy(cfg)
        st.u = np.full_like(st.u, 2.0)
        st.history[:] = birth_rate(st.u, cfg.k)
        cn_step(st)
        np.testing.assert_allclose(st.u, 2.0, atol=1e-13)

    def test_dirichlet_values_exact_after_every_step(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0)
        st = init_cauchy(cfg)
        assert st.u[0] == cfg.bc_left and st.u[-1] == cfg.bc_right
        for _ in range(100):
            cn_step(st)
            assert st.u[0] == cfg.bc_left and st.u[-1] == cfg.bc_right

    @pytest.mark.parametrize("bc_left, bc_right", [(0.0, 2.0), (0.5, 2.0), (2.0, 0.1)])
    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_single_step_matches_dense_solve(self, h, bc_left, bc_right):
        cfg = SimConfig(h=h, k=1.2, t_end=1.0, bc_left=bc_left, bc_right=bc_right)
        st = init_cauchy(cfg)
        u0 = st.u.copy()
        cn_step(st)
        # independent oracle: assemble the dense system A u' = B u + dt src
        # by hand (the Dirichlet rows pin the ends) and solve
        nx, dt, dx = cfg.n_points, cfg.dt, cfg.dx
        r = dt / (2 * dx * dx)
        A = np.zeros((nx, nx))
        A[0, 0] = A[-1, -1] = 1.0
        for i in range(1, nx - 1):
            A[i, i - 1] = A[i, i + 1] = -r
            A[i, i] = 1.0 + 2.0 * r + dt / 2.0
        b = np.empty(nx)
        src = birth_rate(u0, cfg.k)  # both delayed levels are the Cauchy data
        b[1:-1] = (
            r * u0[:-2]
            + (1.0 - 2.0 * r - dt / 2.0) * u0[1:-1]
            + r * u0[2:]
            + dt * src[1:-1]
        )
        b[0], b[-1] = cfg.bc_left, cfg.bc_right
        expected = np.linalg.solve(A, b)
        np.testing.assert_allclose(st.u, expected, rtol=0.0, atol=1e-14)

    def test_first_step_stays_in_invariant_box(self):
        st = init_cauchy(SimConfig(h=0.5, k=1.2, t_end=1.0))
        cn_step(st)
        assert st.u.min() >= 0.0
        assert st.u.max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_birth_rate_evaluated_once_per_step(self, h, monkeypatch):
        # run() evaluates g a block of levels per call, each level once
        rows = []

        def counted(u, k, out=None):
            rows.append(1 if np.ndim(u) == 1 else len(u))
            return birth_rate(u, k, out=out)

        monkeypatch.setattr(pdesim, "birth_rate", counted)
        run(SimConfig(h=h, k=1.2, t_end=2.0))
        assert sum(rows) == 200
        if h > 0.0:
            assert len(rows) < 200


class TestEstimateSpeed:
    def test_exact_line(self):
        t = np.linspace(0.0, 10.0, 500)
        traj = np.column_stack([t, -0.5 * t + 3.0])
        c, res, _ = pdesim._fit(traj)
        assert c == pytest.approx(0.5, abs=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_short_trajectory_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        traj = np.column_stack([t, -t])
        with pytest.raises(DomainError, match="insufficient"):
            pdesim._fit(traj)


class TestRun:
    def test_front_speed_and_bounds_h05(self):
        res = run(SimConfig(h=0.5, k=1.2, t_end=400.0))
        assert res.c_ns == pytest.approx(0.6377, abs=0.02)
        assert res.u_min >= 0.0
        assert res.u_max <= 3.0
        # front moves left; trajectory ends near the stop margin
        assert res.level_trajectory[-1, 1] <= -19.9

    def test_no_delay_speed_near_closed_form(self):
        # h = 0 steps on the extrapolated source 1.5 g(u^n) - 0.5 g(u^{n-1})
        res = run(SimConfig(h=0.0, k=1.2, t_end=400.0))
        assert res.c_ns == pytest.approx(1.1595, abs=0.02)
        assert res.u_min >= 0.0
        assert res.u_max <= 3.0

    def test_snapshots_recorded(self):
        res = run(SimConfig(h=0.5, k=1.2, t_end=2.0, snapshot_times=(0.0, 1.0)))
        assert len(res.snapshots) == 2
        assert res.snapshots[0][0] == 0.0
        assert res.snapshots[1][0] == pytest.approx(1.0, abs=1e-9)
        assert res.snapshots[1][1].shape == (1001,)

    def test_snapshots_at_block_edges_and_the_wall_stop(self):
        # level 33 opens the second 32-level block and 64 closes it; the
        # wall-stop level is the last, inside its block; a time past the
        # wall stop is never reached
        cfg = SimConfig(h=0.5, k=1.2, t_end=100.0)
        wall = round(run(cfg).t_final / cfg.dt)
        assert wall % pdesim._BLOCK
        levels = (33, 64, wall, wall + 1)
        cfg = SimConfig(h=0.5, k=1.2, t_end=100.0,
                        snapshot_times=tuple(n * cfg.dt for n in levels))
        res = run(cfg)
        _, snapshots, *_ = _reference_run(cfg)
        assert [t for t, _ in res.snapshots] == [n * cfg.dt for n in levels[:3]]
        assert [t for t, _ in snapshots] == [t for t, _ in res.snapshots]
        for (_, got), (_, want) in zip(res.snapshots, snapshots):
            assert np.array_equal(got, want)

    def test_t_final_marks_the_wall_stop(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=100.0, snapshot_times=(10.0, 100.0))
        res = run(cfg)
        assert res.t_final == res.level_trajectory[-1, 0]
        assert res.t_final < cfg.t_end - cfg.dt / 2
        assert [t for t, _ in res.snapshots] == [1000 * cfg.dt]
        full = run(SimConfig(h=0.5, k=1.2, t_end=2.0))
        assert full.t_final == 200 * cfg.dt == 2.0

    def test_clock_is_step_count_times_dt(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=20.0)
        res = run(cfg)
        t = res.level_trajectory[:, 0]
        steps = np.rint(t / cfg.dt)
        np.testing.assert_array_equal(t, steps * cfg.dt)
        t0 = res.fit_window[0]
        assert t0 == round(t0 / cfg.dt) * cfg.dt

    def test_translation_invariance(self):
        # moving the domain by whole cells past the step at x = 0 leaves the
        # discrete dynamics unchanged until boundary effects differ
        base = run(SimConfig(h=1.0, k=1.2, t_end=15.0))
        moved = run(SimConfig(h=1.0, k=1.2, t_end=15.0, x_min=-24.0, x_max=26.0))  # 20 cells
        nb, nm = len(base.level_trajectory), len(moved.level_trajectory)
        n = min(nb, nm)
        np.testing.assert_allclose(moved.level_trajectory[:n], base.level_trajectory[:n],
                                   rtol=0.0, atol=1e-10)
        assert moved.c_ns == pytest.approx(base.c_ns, abs=1e-10)

    def test_scheme_field_convergence_second_order(self):
        # smooth data kept below the birth-law kink isolate the scheme order
        fields = []
        for lev in range(3):
            f = 2**lev
            cfg = SimConfig(
                h=1.0, k=1.2, t_end=4.0, dx=0.05 / f, dt=0.01 / f,
                bc_left=0.0, bc_right=0.1,
            )
            st = init_cauchy(cfg)
            # tanh saturates to the boundary values within 1e-20 at |x| = 25
            st.u = 0.05 + 0.05 * np.tanh(st.x)
            st.history[:] = birth_rate(st.u, cfg.k)
            for _ in range(int(round(cfg.t_end / cfg.dt))):
                cn_step(st)
            fields.append(st.u)
        d01 = np.max(np.abs(fields[0][1:-1] - fields[1][::2][1:-1]))
        d12 = np.max(np.abs(fields[1][1:-1] - fields[2][::2][1:-1]))
        assert d01 / d12 == pytest.approx(4.0, rel=0.15)

    @pytest.mark.slow
    def test_all_table_rows_within_three_percent(self):
        rows = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
        for h in rows:
            c_star, _ = minimal_speed(h, 1.2)
            c_ns = run(SimConfig(h=h, k=1.2, t_end=400.0)).c_ns
            assert abs(c_ns - c_star) / c_star < 0.031, h

    @pytest.mark.slow
    def test_speed_stable_under_refinement(self):
        # the gap to the analytic minimal speed is transient-dominated at
        # this domain size; the measured speed itself is grid-converged
        coarse = run(SimConfig(h=1.0, k=1.2, t_end=400.0)).c_ns
        fine = run(SimConfig(h=1.0, k=1.2, t_end=400.0, dx=0.025, dt=0.005)).c_ns
        assert abs(coarse - fine) < 2e-4
        c_star, _ = minimal_speed(1.0, 1.2)
        assert abs(coarse - c_star) / c_star < 0.031


def test_run_holds_no_block_sized_temporaries():
    """Beyond its g ring and its block of levels, run() holds ~90 KB at its
    traced peak at h = 2, t_end = 5 (500 steps): the grid, the factors, the
    step row and the crossing cells, ~28 bytes a level.  A block-sized
    temporary (250 KB) would show: g of a chunk before it entered the ring
    and the gathered ring rows where the delayed sources wrap took ~555 KB.
    The run at h = 0.5 stops at the wall after 3,196 steps (~167 KB): a
    record of crossing cells sized for t_end/dt, 40,000 levels, would add
    ~960 KB."""
    for cfg in (SimConfig(h=2.0, k=1.2, t_end=5.0), SimConfig(h=0.5, k=1.2, t_end=400.0)):
        run(cfg)  # the first run maps the BLAS wrapper
        tracemalloc.start()
        try:
            steps = round(run(cfg).t_final / cfg.dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ring = (cfg.delay_steps + 1) * cfg.n_points * 8
        block = pdesim._BLOCK * cfg.n_points * 8
        assert peak - ring - block < 110_000 + 40 * steps, steps


def test_run_of_no_step_has_too_little_data():
    # t_end/dt rounds to 0: the empty crossing record concatenates, and the
    # fit refuses its empty trajectory
    with pytest.raises(DomainError, match="insufficient data"):
        run(SimConfig(h=0.5, k=1.2, t_end=0.004))


@pytest.mark.parametrize("n_rows", [1, 2, 7, 51])
def test_ring_runs_cover_the_ring_rows_in_order(n_rows):
    for count in range(1, n_rows + 1):
        for firsts in [(f,) for f in range(-n_rows, 2 * n_rows)] + [
                (f - 3, f - 2) for f in range(2 * n_rows)] + [(f, f - 1) for f in range(n_rows)]:
            runs = pdesim._ring_runs(n_rows, count, *firsts)
            assert [r[0] for r in runs] == [0, *(r[1] for r in runs[:-1])] and runs[-1][1] == count
            for j0, j1, slices in runs:
                assert len(slices) == len(firsts)
                for f, rows in zip(firsts, slices):
                    assert list(range(n_rows))[rows] == [(f + j) % n_rows for j in range(j0, j1)]


def _reference_run(cfg: SimConfig):
    """run() as a plain loop checking after every step: cn_step, then the
    extrema, the snapshot, the level crossing and the wall test.
    Returns (trajectory, snapshots, u_min, u_max, t_final)."""
    st = init_cauchy(cfg)
    snap_steps = {round(ts / cfg.dt) for ts in cfg.snapshot_times}
    snapshots = [(0.0, st.u.copy())] if 0 in snap_steps else []
    traj = []
    u_min, u_max = float(st.u.min()), float(st.u.max())
    for n in range(1, round(cfg.t_end / cfg.dt) + 1):
        cn_step(st)
        u, x = st.u, st.x
        u_min, u_max = min(u_min, float(u.min())), max(u_max, float(u.max()))
        if n in snap_steps:
            snapshots.append((st.t, u.copy()))
        xl = _crossing(x, u, pdesim._LEVEL)
        if xl is not None:
            traj.append((st.t, xl))
            if xl <= cfg.x_min + pdesim._STOP_MARGIN:
                break
    return np.array(traj).reshape(-1, 2), snapshots, u_min, u_max, st.t


def _crossing(x, u, level):
    """Leftmost linear-interpolated crossing of u = level, None if absent."""
    s = u - level
    crossed = s[:-1] * s[1:] <= 0.0
    i = int(np.argmax(crossed))
    if not crossed[i]:
        return None
    du = u[i + 1] - u[i]
    return float(x[i] if du == 0.0 else x[i] + (x[i + 1] - x[i]) * (level - u[i]) / du)


def _bad_from(level: int, value: float):
    """birth_rate that returns value for every level from `level` on; run()
    and cn_step evaluate each level once, in order, so the rows are counted.
    Given out, it writes there, as birth_rate does."""
    seen = [0]

    def bad(u, k, out=None):
        g = birth_rate(u, k, out=out)
        rows = g.reshape(-1, g.shape[-1])
        first = seen[0] + 1
        seen[0] += len(rows)
        rows[max(level - first, 0):] = value
        return g

    return bad


class TestBlockedRun:
    # block ends (every 32 levels) meet neither h/dt, nor t_end/dt, nor the wall
    # stop; chunks of 7 and 20 steps do not divide a block; the last two runs
    # hold non-default Dirichlet values, which _delayed_sources writes per chunk
    @pytest.mark.parametrize("kwargs", [
        dict(h=0.0, t_end=60.0),
        dict(h=0.01, t_end=60.0),
        dict(h=0.07, t_end=60.0),
        dict(h=0.5, t_end=60.0, snapshot_times=(0.0, 20.0)),
        dict(h=1.37, t_end=100.0, snapshot_times=(10.0, 95.0)),
        dict(h=2.0, t_end=30.03),
        dict(h=0.2, t_end=60.0),
        dict(h=0.5, t_end=60.0, bc_left=0.25, bc_right=1.75, snapshot_times=(0.0, 12.34)),
        dict(h=0.0, t_end=40.01, bc_left=-0.2, bc_right=1.9, snapshot_times=(3.33, 19.99)),
    ])
    def test_run_equals_a_check_after_every_step(self, kwargs):
        cfg = SimConfig(k=1.2, **kwargs)
        n_steps, m = round(cfg.t_end / cfg.dt), cfg.delay_steps
        assert n_steps % pdesim._BLOCK and (m <= 1 or m % pdesim._BLOCK)
        res = run(cfg)
        assert round(res.t_final / cfg.dt) % pdesim._BLOCK
        traj, snapshots, u_min, u_max, t_final = _reference_run(cfg)
        assert np.array_equal(res.level_trajectory, traj)
        assert res.t_final == t_final
        assert res.u_min == u_min and res.u_max == u_max
        assert [t for t, _ in res.snapshots] == [t for t, _ in snapshots]
        for (_, got), (_, want) in zip(res.snapshots, snapshots):
            assert np.array_equal(got, want)
        assert (res.c_ns, res.fit_residual, res.fit_window) == pdesim._fit(traj)
        i0 = len(traj) // 2
        assert res.fit_window == (traj[i0, 0], traj[-1, 0])

    def test_run_equals_a_check_after_every_step_with_ties_at_the_level(self, monkeypatch):
        # every level rounded to eighths, so the first node not below 1 is
        # often exactly 1: run() must count a crossing there as the
        # per-step check does
        steps = pdesim._steps

        def coarse_steps(u, levels, factor):
            for row in levels:
                steps(u, row[None], factor)
                np.round(row * 8.0, out=row)
                row /= 8.0
                u = row

        monkeypatch.setattr(pdesim, "_steps", coarse_steps)
        cfg = SimConfig(h=0.5, k=1.2, t_end=3.0)
        res = run(cfg)
        traj = _reference_run(cfg)[0]
        assert len(traj) == round(cfg.t_end / cfg.dt)
        assert np.array_equal(res.level_trajectory, traj)

    # the first non-finite level inside a block (301 of levels 289-320 at h = 0,
    # 337 of 321-352 at h = 0.5), first in one (321) and last in one (352);
    # row is its place in its block
    @pytest.mark.parametrize("h, first_bad, row", [
        pytest.param(h, first_bad, row, id=f"{h}-{first_bad}")
        for h, first_bad, row in [(0.0, 301, 12), (0.5, 337, 16), (0.5, 321, 0), (0.5, 352, 31)]
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_raises_at_the_first_bad_level(self, h, first_bad, row, value,
                                                             monkeypatch):
        assert (first_bad - 1) % pdesim._BLOCK == row
        cfg = SimConfig(h=h, k=1.2, t_end=60.0)
        # g of level L first enters the step to level L + max(h/dt, 1)
        level = first_bad - max(cfg.delay_steps, 1)
        message = f"non-finite field after step to t={first_bad * cfg.dt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(pdesim, "birth_rate", _bad_from(level, value))
            with pytest.raises(AccuracyError) as reference:
                _reference_run(cfg)
            monkeypatch.setattr(pdesim, "birth_rate", _bad_from(level, value))
            with pytest.raises(AccuracyError) as blocked:
                run(cfg)
        assert str(reference.value) == str(blocked.value) == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_wall_stop_before_the_first_non_finite_level_returns(self, value, monkeypatch):
        # the first bad level follows the wall stop in its block: next to it,
        # or last in the block (+inf alone there for value = inf, which would
        # show in u_max)
        cfg = SimConfig(h=0.5, k=1.2, t_end=100.0)
        m = cfg.delay_steps
        clean = run(cfg)
        wall = round(clean.t_final / cfg.dt)
        block_end = -(-wall // pdesim._BLOCK) * pdesim._BLOCK
        assert wall + 1 < block_end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for first_bad in (wall + 1, block_end):
                monkeypatch.setattr(pdesim, "birth_rate", _bad_from(first_bad - m, value))
                res = run(cfg)
                assert res.t_final == clean.t_final
                assert np.array_equal(res.level_trajectory, clean.level_trajectory)
                assert (res.c_ns, res.u_min, res.u_max) == (clean.c_ns, clean.u_min, clean.u_max)
            monkeypatch.setattr(pdesim, "birth_rate", _bad_from(wall - m, value))
            with pytest.raises(AccuracyError, match=f"t={wall * cfg.dt}$"):
                run(cfg)

    def test_level_crossings_match_the_scalar_rule(self):
        # the rows run() passes: finite, starting below the level.  Rows
        # without a crossing, ties at the level and a crossing in the last
        # cell, next to random rows; every cell i is a cell of the row
        rng = np.random.default_rng(3)
        x = np.linspace(-1.0, 1.0, 9)
        u = np.array([np.zeros(9), np.r_[0.0, 1.0, 1.0, np.full(6, 2.0)], np.r_[np.zeros(8), 2.0],
                      np.r_[0.0, 0.5, 1.0, 0.5, np.full(5, 2.0)],
                      *np.c_[rng.uniform(0.0, 1.0, 20), rng.uniform(0.0, 2.0, (20, 8))],
                      *np.c_[np.zeros(20), rng.choice([0.0, 1.0, 2.0], (20, 8))]])
        i, lo, hi = pdesim._level_cells(u, 1.0)
        assert np.all((0 <= i) & (i < len(x) - 1))
        crossed = hi >= 1.0
        xl = pdesim._interpolate(x, i[crossed], lo[crossed], hi[crossed], 1.0)
        want = [_crossing(x, row, 1.0) for row in u]
        assert crossed.tolist() == [w is not None for w in want]
        assert xl.tolist() == [w for w in want if w is not None]

    # the tracked level is crossed from below, so run() needs u < 1 at x_min
    @pytest.mark.parametrize("bc_left, x_min", [(1.0, -25.0), (2.0, -25.0), (1.5, 1.0)])
    def test_bc_left_at_or_above_the_level_refused_before_any_step(self, bc_left, x_min,
                                                                    monkeypatch):
        cfg = SimConfig(h=0.5, k=1.2, t_end=10.0, x_min=x_min, bc_left=bc_left)

        def no_steps(config):
            raise AssertionError("init_cauchy called")

        monkeypatch.setattr(pdesim, "init_cauchy", no_steps)
        with pytest.raises(DomainError, match="bc_left"):
            run(cfg)

    def test_run_restores_the_floating_point_error_state(self, monkeypatch):
        # run() ignores floating-point errors while it steps, and only then
        cfg = SimConfig(h=0.5, k=1.2, t_end=2.0)
        with np.errstate(all="warn"):
            before = np.geterr()
            run(cfg)
            assert np.geterr() == before
            monkeypatch.setattr(pdesim, "birth_rate", _bad_from(100, float("nan")))
            with pytest.raises(AccuracyError, match="non-finite field"):
                run(cfg)
            assert np.geterr() == before
