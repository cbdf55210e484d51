"""Direct simulation of the delayed reaction-diffusion equation.

Crank-Nicolson in time and second-order central differences in space for

    u_t = u_xx - u + g(u(t - h, x)),

with the piecewise-linear birth law, Dirichlet values pinned at both ends,
and the delayed source read from a ring of stored time levels.  The front
position is tracked as the leftmost crossing of a fixed level and its
asymptotic speed fitted on the trailing part of the trajectory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import diags_array
from scipy.sparse.linalg import splu

from .errors import AccuracyError, DomainError
from .toyfront import birth_rate

__all__ = [
    "SimConfig",
    "SimState",
    "SimResult",
    "init_cauchy",
    "cn_step",
    "run",
    "estimate_speed",
]


@dataclass(frozen=True)
class SimConfig:
    """Grid, delay and tracking parameters of one run.

    Defaults reproduce the reference discretization: domain [-25, 25],
    dx = 0.05, dt = 0.01, Dirichlet values 0 and 2, level-1 front tracking.
    h/dt and (x_max - x_min)/dx must be integers.  step_location shifts the
    initial step interface (x < step_location -> 0, else 2); snapshot_times
    requests stored copies of the field at those times.
    """

    h: float
    k: float
    t_end: float
    x_min: float = -25.0
    x_max: float = 25.0
    dx: float = 0.05
    dt: float = 0.01
    bc_left: float = 0.0
    bc_right: float = 2.0
    level: float = 1.0
    step_location: float = 0.0
    stop_margin: float = 5.0
    window_fraction: float = 0.5
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 1.0 < self.k < 3.0:
            raise DomainError(f"k must lie in (1, 3), got {self.k}")
        if self.h < 0.0 or self.dt <= 0.0 or self.dx <= 0.0 or self.t_end <= 0.0:
            raise DomainError("h >= 0 and dx, dt, t_end > 0 required")
        m = self.h / self.dt
        if abs(m - round(m)) > 1e-9:
            raise DomainError(f"h/dt = {m} is not an integer")
        nx = (self.x_max - self.x_min) / self.dx
        if abs(nx - round(nx)) > 1e-9:
            raise DomainError("(x_max - x_min)/dx is not an integer")

    @property
    def delay_steps(self) -> int:
        return int(round(self.h / self.dt))

    @property
    def n_points(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1


@dataclass
class SimState:
    """Mutable integration state; single-threaded use only."""

    config: SimConfig
    x: np.ndarray
    u: np.ndarray
    t: float
    history: deque  # levels u(t - h) ... u(t), oldest first
    lu: object = field(repr=False)
    prev_source: np.ndarray | None = field(default=None, repr=False)
    step_count: int = 0


@dataclass
class SimResult:
    snapshots: list[tuple[float, np.ndarray]]
    level_trajectory: np.ndarray  # columns (t, x_level)
    c_ns: float
    fit_window: tuple[float, float]
    fit_residual: float
    u_min: float
    u_max: float


def _assemble(config: SimConfig):
    nx = config.n_points
    r = config.dt / (2.0 * config.dx * config.dx)
    main = np.full(nx, 1.0 + 2.0 * r + config.dt / 2.0)
    main[0] = main[-1] = 1.0
    lower = np.full(nx - 1, -r)
    upper = np.full(nx - 1, -r)
    lower[-1] = 0.0  # Dirichlet row nx-1
    upper[0] = 0.0  # Dirichlet row 0
    return diags_array([lower, main, upper], offsets=[-1, 0, 1], format="csc")


def init_cauchy(config: SimConfig) -> SimState:
    """Step-function Cauchy data held constant over the delay interval.

    The history ring holds h/dt + 1 identical levels (one at h = 0) and the
    state clock starts at 0.
    """
    x = config.x_min + config.dx * np.arange(config.n_points)
    u = np.where(x < config.step_location, 0.0, 2.0)
    u[0] = config.bc_left
    u[-1] = config.bc_right
    history = deque(u.copy() for _ in range(config.delay_steps + 1))
    return SimState(
        config=config,
        x=x,
        u=u,
        t=0.0,
        history=history,
        lu=splu(_assemble(config)),
    )


def cn_step(state: SimState) -> SimState:
    """Advance one Crank-Nicolson step.

    Diffusion and the linear decay are averaged across the step; the delayed
    source is averaged between the stored levels at t - h and t + dt - h
    (both in the ring for h > 0).  At h = 0 the source at t + dt is not yet
    known, so a two-step extrapolation 1.5 g(u^n) - 0.5 g(u^{n-1}) stands in
    (still second order; the very first step is plain explicit).  The
    tridiagonal solve reuses a precomputed sparse LU (forward elimination /
    back substitution).
    """
    cfg = state.config
    m = cfg.delay_steps
    r = cfg.dt / (2.0 * cfg.dx * cfg.dx)
    u = state.u
    if m >= 1:
        src = 0.5 * (
            birth_rate(state.history[0], cfg.k) + birth_rate(state.history[1], cfg.k)
        )
    else:
        g_now = birth_rate(u, cfg.k)
        if state.prev_source is None:
            src = g_now
        else:
            src = 1.5 * g_now - 0.5 * state.prev_source
        state.prev_source = g_now
    b = np.empty_like(u)
    b[1:-1] = (
        r * u[:-2]
        + (1.0 - 2.0 * r - cfg.dt / 2.0) * u[1:-1]
        + r * u[2:]
        + cfg.dt * src[1:-1]
    )
    b[0] = cfg.bc_left
    b[-1] = cfg.bc_right
    new = state.lu.solve(b)
    if not np.all(np.isfinite(new)):
        raise AccuracyError(f"non-finite field after step to t={state.t + cfg.dt}")
    state.u = new
    state.t += cfg.dt
    state.step_count += 1
    if m >= 1:
        state.history.popleft()
        state.history.append(new.copy())
    else:
        state.history[0] = new
    return state


def _level_crossing(x: np.ndarray, u: np.ndarray, level: float) -> float | None:
    """Leftmost linear-interpolated crossing of u = level, None if absent."""
    s = u - level
    idx = np.nonzero(s[:-1] * s[1:] <= 0.0)[0]
    for i in idx:
        du = u[i + 1] - u[i]
        if du != 0.0:
            return float(x[i] + (x[i + 1] - x[i]) * (level - u[i]) / du)
        return float(x[i])
    return None


def run(config: SimConfig) -> SimResult:
    """Integrate to t_end or until the tracked level nears the left boundary.

    The trajectory of the level crossing is recorded every step; the run
    stops early once the crossing comes within stop_margin of x_min so the
    Dirichlet wall cannot contaminate the speed fit.  Snapshots are taken at
    the requested times (rounded to the step grid).
    """
    state = init_cauchy(config)
    snap_steps = {int(round(ts / config.dt)): ts for ts in config.snapshot_times}
    snapshots: list[tuple[float, np.ndarray]] = []
    if 0 in snap_steps:
        snapshots.append((0.0, state.u.copy()))
    times, positions = [], []
    n_steps = int(round(config.t_end / config.dt))
    u_min, u_max = float(state.u.min()), float(state.u.max())
    for n in range(1, n_steps + 1):
        cn_step(state)
        u_min = min(u_min, float(state.u.min()))
        u_max = max(u_max, float(state.u.max()))
        if n in snap_steps:
            snapshots.append((state.t, state.u.copy()))
        xl = _level_crossing(state.x, state.u, config.level)
        if xl is not None:
            times.append(state.t)
            positions.append(xl)
            if xl <= config.x_min + config.stop_margin:
                break
    traj = np.column_stack([times, positions]) if times else np.empty((0, 2))
    c_ns, residual, window = _fit(traj, config.window_fraction)
    return SimResult(
        snapshots=snapshots,
        level_trajectory=traj,
        c_ns=c_ns,
        fit_window=window,
        fit_residual=residual,
        u_min=u_min,
        u_max=u_max,
    )


def _fit(traj: np.ndarray, window_fraction: float):
    if len(traj) < 100:
        raise DomainError(
            f"insufficient data: {len(traj)} trajectory points, need >= 100 in the window"
        )
    i0 = int(len(traj) * (1.0 - window_fraction))
    if len(traj) - i0 < 100:
        raise DomainError("insufficient data: fit window holds fewer than 100 points")
    tt, xx = traj[i0:, 0], traj[i0:, 1]
    A = np.column_stack([tt, np.ones_like(tt)])
    coef, *_ = np.linalg.lstsq(A, xx, rcond=None)
    rms = float(np.sqrt(np.mean((xx - A @ coef) ** 2)))
    return abs(float(coef[0])), rms, (float(tt[0]), float(tt[-1]))


def estimate_speed(
    level_trajectory: np.ndarray, window_fraction: float = 0.5
) -> tuple[float, float]:
    """Least-squares speed magnitude over the trailing window of a trajectory.

    Returns (c_ns, fit_residual) where the residual is the RMS deviation
    from the fitted line.
    """
    if not 0.0 < window_fraction < 1.0:
        raise DomainError("window_fraction must lie in (0, 1)")
    traj = np.asarray(level_trajectory, dtype=float)
    c_ns, rms, _ = _fit(traj, window_fraction)
    return c_ns, rms
