import numpy as np
import pytest

from delayfronts import (
    DomainError,
    SimConfig,
    cn_step,
    estimate_speed,
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
            # every row is g of the Cauchy data (the end columns are unused)
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

    def test_single_step_matches_dense_solve(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=1.0)
        st = init_cauchy(cfg)
        u0 = st.u.copy()
        cn_step(st)
        # independent oracle: assemble the dense system by hand and solve
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
        np.testing.assert_allclose(st.u, expected, atol=1e-11)

    def test_first_step_stays_in_invariant_box(self):
        st = init_cauchy(SimConfig(h=0.5, k=1.2, t_end=1.0))
        cn_step(st)
        assert st.u.min() >= -1e-12
        assert st.u.max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_birth_rate_evaluated_once_per_step(self, h, monkeypatch):
        calls = []

        def counted(u, k):
            calls.append(1)
            return birth_rate(u, k)

        monkeypatch.setattr(pdesim, "birth_rate", counted)
        run(SimConfig(h=h, k=1.2, t_end=2.0))
        assert len(calls) == 200


class TestEstimateSpeed:
    def test_exact_line(self):
        t = np.linspace(0.0, 10.0, 500)
        traj = np.column_stack([t, -0.5 * t + 3.0])
        c, res = estimate_speed(traj)
        assert c == pytest.approx(0.5, abs=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_short_trajectory_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        traj = np.column_stack([t, -t])
        with pytest.raises(DomainError, match="insufficient"):
            estimate_speed(traj)

    def test_window_fraction_domain(self):
        t = np.linspace(0.0, 10.0, 500)
        traj = np.column_stack([t, -t])
        with pytest.raises(DomainError):
            estimate_speed(traj, window_fraction=1.5)


class TestRun:
    def test_front_speed_and_bounds_h05(self):
        res = run(SimConfig(h=0.5, k=1.2, t_end=400.0))
        assert res.c_ns == pytest.approx(0.6377, abs=0.02)
        assert res.u_min >= -1e-12  # round-off below the invariant box
        assert res.u_max <= 3.0
        # front moves left; trajectory ends near the stop margin
        assert res.level_trajectory[-1, 1] <= -19.9

    def test_no_delay_speed_near_closed_form(self):
        res = run(SimConfig(h=0.0, k=1.2, t_end=400.0))
        assert res.c_ns == pytest.approx(1.1595, abs=0.02)

    def test_snapshots_recorded(self):
        res = run(SimConfig(h=0.5, k=1.2, t_end=2.0, snapshot_times=(0.0, 1.0)))
        assert len(res.snapshots) == 2
        assert res.snapshots[0][0] == 0.0
        assert res.snapshots[1][0] == pytest.approx(1.0, abs=1e-9)
        assert res.snapshots[1][1].shape == (1001,)

    def test_clock_is_step_count_times_dt(self):
        cfg = SimConfig(h=0.5, k=1.2, t_end=20.0)
        res = run(cfg)
        t = res.level_trajectory[:, 0]
        steps = np.rint(t / cfg.dt)
        np.testing.assert_array_equal(t, steps * cfg.dt)
        t0 = res.fit_window[0]
        assert t0 == round(t0 / cfg.dt) * cfg.dt

    def test_translation_invariance(self):
        # shifting the initial interface by whole cells translates the
        # discrete dynamics exactly until boundary effects differ
        base = run(SimConfig(h=1.0, k=1.2, t_end=15.0, stop_margin=0.0))
        shift = 20  # cells = 1.0 length unit
        moved = run(
            SimConfig(h=1.0, k=1.2, t_end=15.0, stop_margin=0.0, step_location=-1.0)
        )
        nb, nm = len(base.level_trajectory), len(moved.level_trajectory)
        n = min(nb, nm)
        dxs = moved.level_trajectory[:n, 1] - base.level_trajectory[:n, 1]
        np.testing.assert_allclose(dxs, -1.0, atol=1e-10)
        assert moved.c_ns == pytest.approx(base.c_ns, abs=1e-10)

    def test_scheme_field_convergence_second_order(self):
        # smooth data kept below the birth-law kink isolate the scheme order
        fields = []
        for lev in range(3):
            f = 2**lev
            cfg = SimConfig(
                h=1.0, k=1.2, t_end=4.0, dx=0.05 / f, dt=0.01 / f,
                bc_left=0.0, bc_right=0.1, stop_margin=0.0,
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