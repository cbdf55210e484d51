"""Direct simulation of the delayed reaction-diffusion equation.

Crank-Nicolson in time and second-order central differences in space for

    u_t = u_xx - u + g(u(t - h, x)),

with the piecewise-linear birth law, exact Dirichlet values at both ends,
and the delayed source read from a ring of stored g(u) levels.  The
interior Crank-Nicolson matrices satisfy A + B = 2I, so each step solves
A (u^{n+1} + u^n) = 2 u^n + f by one LAPACK pttrs on A (factored once by
pttrf) and subtracts u^n; f, dt times the delayed source with the
Dirichlet terms 2r bc at its ends, comes a chunk of steps at a time.  The
front is the leftmost crossing of u = 1 = kappa/2 from below (run() needs
bc_left < 1), its speed fitted on the trailing half of the trajectory.

One loop, _steps, takes the steps for run() and cn_step() alike: per
step two BLAS daxpy calls (+ 2 u^n, - u^n) and the solve, on a row that
already holds the rest of its right-hand side.  run() is blocked in time and
calls it once per chunk of steps.  The delayed sources, g of the new levels
(each level still evaluated once), the finiteness check, the extrema and
the cells of the level crossings are done in bulk on blocks of up to 32
levels, with the same results as checking after every step; that bulk work
runs over whole rows, which numpy does faster than over strided interior
views, and allocates no block-sized temporaries: g goes straight into the
ring, and the crossings are interpolated once, at the end of the run.

The LAPACK and BLAS kernels come from scipy's compiled wrappers, loaded by
_kernels on the first init_cauchy() or step, not at import: commands that
never simulate do not map them.
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import chareq
from .errors import AccuracyError, DomainError
from .toyfront import birth_rate

__all__ = [
    "SimConfig",
    "SimState",
    "SimResult",
    "init_cauchy",
    "cn_step",
    "run",
]

_LEVEL = 1.0  # the tracked level, kappa/2
_STOP_MARGIN = 5.0  # run() stops once the level is this close to x_min
# SimConfig refuses grids whose g ring and block of levels, max(h/dt, _BLOCK)
# + 1 rows of n_points floats, would hold more cells than this (400 MB)
_MAX_CELLS = 50_000_000


def _scipy_linalg_extension(name: str):
    """The compiled module scipy.linalg.<name>, loaded by its path, as the
    scipy.linalg package costs ~0.3 s to import (find_spec imports nothing);
    None where that file is absent."""
    linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg." + name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


@functools.cache
def _kernels():
    """(dpttrf, dpttrs, daxpy), the simulator's compiled kernels, loaded on
    first use: LAPACK dpttrf and dpttrs from scipy's LAPACK wrapper, and
    BLAS daxpy(x, y, n, a), y <- a x + y in place on a contiguous float64 y,
    from its BLAS wrapper.  Both wrappers are loaded by path, so an import
    that never simulates maps neither of them nor the OpenBLAS they load;
    scipy.linalg.lapack and scipy.linalg.blas serve where those files are
    absent.  Nothing else in this module calls into scipy."""
    flapack = _scipy_linalg_extension("_flapack")
    if flapack is None:
        from scipy.linalg import lapack as flapack
    fblas = _scipy_linalg_extension("_fblas")
    if fblas is None:
        from scipy.linalg import blas as fblas
    return flapack.dpttrf, flapack.dpttrs, fblas.daxpy


@dataclass(frozen=True)
class SimConfig:
    """The problem, its grid and the snapshot times of one run.

    Defaults reproduce the reference discretization: domain [-25, 25],
    dx = 0.05, dt = 0.01, Dirichlet values 0 and 2.
    h/dt and (x_max - x_min)/dx must be integers, the latter at least 3.
    The Dirichlet values and their terms dt/dx^2 bc must be finite; run()
    also needs bc_left below the tracked level 1.
    The step of the Cauchy data sits at x = 0; snapshot_times, within
    [0, t_end], request copies of the field.
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
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        chareq._check_k(self.k)
        grid = (self.h, self.t_end, self.x_min, self.x_max, self.dx, self.dt)
        if not (np.all(np.isfinite(grid)) and self.h >= 0.0
                and min(self.dx, self.dt, self.t_end) > 0.0):
            raise DomainError("finite grid with h >= 0 and dx, dt, t_end > 0 required")
        m, nx = self.h / self.dt, (self.x_max - self.x_min) / self.dx
        if not (max(m, _BLOCK) + 1) * (abs(nx) + 1) <= _MAX_CELLS:
            raise DomainError(f"a grid of h/dt = {m:.3g} delay steps and {nx:.3g} cells "
                              f"would exceed {_MAX_CELLS:.0e} stored values")
        if abs(m - round(m)) > 1e-9:
            raise DomainError(f"h/dt = {m} is not an integer")
        if abs(nx - round(nx)) > 1e-9:
            raise DomainError("(x_max - x_min)/dx is not an integer")
        if round(nx) < 3:  # scipy's dpttrf wrapper fails on one interior unknown
            raise DomainError(f"x_max - x_min must span at least 3 cells, got {round(nx)}")
        if not all(0.0 <= ts <= self.t_end for ts in self.snapshot_times):
            raise DomainError(f"snapshot_times must lie in [0, t_end = {self.t_end}]")
        for name in ("bc_left", "bc_right"):
            bc = getattr(self, name)
            # the Dirichlet term 2r bc of each step's right-hand side, as
            # _delayed_sources computes it: not finite for a NaN or infinite bc
            if not math.isfinite(self.dt / (self.dx * self.dx) * bc):
                raise DomainError(f"{name} = {bc} and its Dirichlet term dt/dx^2 * {name} "
                                  f"must be finite")

    @property
    def delay_steps(self) -> int:
        return int(round(self.h / self.dt))

    @property
    def n_points(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1


@dataclass
class SimState:
    """Mutable integration state; single-threaded use only.

    history is the ring of source levels g(u^n), level n in row
    n % len(history); it holds h/dt + 1 rows (two at h = 0).  factor holds
    the pttrf factors (d, e) of the interior Crank-Nicolson matrix.
    """

    config: SimConfig
    x: np.ndarray
    u: np.ndarray
    history: np.ndarray
    factor: tuple[np.ndarray, np.ndarray] = field(repr=False)
    step_count: int = 0

    @property
    def t(self) -> float:
        return self.step_count * self.config.dt


@dataclass
class SimResult:
    """What run() returns.  t_final is the time of the last step taken:
    t_end to the step grid, or at least one step short of it when the run
    stopped at the left wall; snapshot times past it were never reached."""

    snapshots: list[tuple[float, np.ndarray]]
    level_trajectory: np.ndarray  # columns (t, x_level)
    c_ns: float
    fit_window: tuple[float, float]
    fit_residual: float
    u_min: float
    u_max: float
    t_final: float


def init_cauchy(config: SimConfig) -> SimState:
    """Step-function Cauchy data (0 for x < 0, else 2) held constant over
    the delay interval.

    Every row of the g(u) ring holds the source of the initial data, and the
    state clock starts at 0.
    """
    x = config.x_min + config.dx * np.arange(config.n_points)
    u = np.where(x < 0.0, 0.0, 2.0)
    # 0 and 2 are equilibria, fixed points of g, so this is also g(u); what
    # the end columns of the ring hold enters no result
    history = np.tile(u, (max(config.delay_steps, 1) + 1, 1))
    u[0], u[-1] = config.bc_left, config.bc_right
    r = config.dt / (2.0 * config.dx * config.dx)
    n = config.n_points - 2
    dpttrf, _, _ = _kernels()
    d, e, info = dpttrf(np.full(n, 1.0 + 2.0 * r + config.dt / 2.0), np.full(n - 1, -r))
    if info != 0:
        raise AccuracyError(f"pttrf failed on the Crank-Nicolson matrix (info={info})")
    return SimState(config=config, x=x, u=u, history=history, factor=(d, e))


# levels run() keeps and checks at once: on the 12 table runs 32 took ~3-5%
# less time than 16 and as much memory; 64 saved nothing more and added
# ~0.8 MB of peak RSS
_BLOCK = 32


def _ring_runs(n_rows: int, count: int, *firsts: int):
    """Cut j = 0, ..., count - 1 into runs over which the ring rows of the
    levels first + j are contiguous, for each first: a list of (j0, j1,
    [one slice of ring rows per first]), a single run unless some of them
    wrap around the end of the ring.  count must not exceed n_rows."""
    starts = [f % n_rows for f in firsts]
    if max(starts) + count <= n_rows:
        return [(0, count, [slice(i, i + count) for i in starts])]
    cuts = sorted({0, count, *(n_rows - i for i in starts if n_rows - i < count)})
    return [(j0, j1, [slice((i + j0) % n_rows, (i + j0) % n_rows + j1 - j0) for i in starts])
            for j0, j1 in zip(cuts, cuts[1:])]


def _delayed_sources(state: SimState, first: int, out: np.ndarray) -> None:
    """The right-hand side but 2 u^n of steps first, first + 1, ..., written
    into the interior of a whole row of out each: dt times the delayed
    source plus the Dirichlet terms 2r bc in its first and last entries.
    The end columns of out get the Dirichlet values.  The ring must hold
    every level they read.

    The arithmetic runs over whole ring rows, contiguous in memory: over 32
    rows numpy adds them ~5x and scales them ~4x faster than their strided
    interiors.  The end columns it computes are then overwritten.  Where
    the rows read wrap around the end of the ring, each run of them is
    added in place, with no gathered copies.
    """
    cfg, g, count = state.config, state.history, len(out)
    m = cfg.delay_steps
    if m >= 1:
        for j0, j1, (a, b) in _ring_runs(len(g), count, first - m, first - m + 1):
            np.add(g[a], g[b], out=out[j0:j1])
        out *= 0.5 * cfg.dt  # the bits of * 0.5, then * dt: halving is exact
    else:
        for j0, j1, (a, b) in _ring_runs(len(g), count, first, first - 1):
            np.subtract(1.5 * g[a], 0.5 * g[b], out=out[j0:j1])
        out *= cfg.dt
    out[:, 1] += cfg.dt / (cfg.dx * cfg.dx) * cfg.bc_left  # 2r bc, r = dt/(2 dx^2)
    out[:, -2] += cfg.dt / (cfg.dx * cfg.dx) * cfg.bc_right
    out[:, 0], out[:, -1] = cfg.bc_left, cfg.bc_right


def _steps(u: np.ndarray, levels: np.ndarray, factor: tuple[np.ndarray, np.ndarray]) -> None:
    """Crank-Nicolson steps from the level u through the rows of levels, the
    interior of each row holding on entry its step's right-hand side but
    2 u^n (as _delayed_sources writes it).

    A + B = 2I on the interior, so one pttrs solve on init_cauchy's factors
    of A gives u^{n+1} + u^n = A^{-1}(2 u^n + source): in the new row's
    interior, BLAS daxpy adds 2 u^n, the sum is solved for in place, and
    daxpy subtracts u^n.  2 u^n and -u^n are exact, so each add rounds once,
    to the bits of numpy's 2 u^n + source and sum - u^n.  u must not be a
    row of levels.  The end columns of levels are not written; they hold
    the Dirichlet values _delayed_sources put there.
    """
    d, e = factor
    _, dpttrs, daxpy = _kernels()
    n = len(u) - 2
    prev = u[1:-1]
    for b in levels[:, 1:-1]:
        daxpy(prev, b, n, 2.0)
        dpttrs(d, e, b, 1)
        daxpy(prev, b, n, -1.0)
        prev = b


def cn_step(state: SimState) -> SimState:
    """Advance one Crank-Nicolson step.

    Diffusion and the linear decay are averaged across the step; the delayed
    source is averaged between the stored levels g(u) at t - h and t + dt - h
    (both in the ring for h > 0).  At h = 0 the source at t + dt is not yet
    known, so a two-step extrapolation 1.5 g(u^n) - 0.5 g(u^{n-1}) stands in
    (still second order; on the first step both levels are the Cauchy data).
    _delayed_sources writes the right-hand side into the new level's interior
    and the exact Dirichlet values into its end nodes, and _steps takes the
    step there.  A non-finite new level raises AccuracyError, and g of the
    new level is evaluated once, straight into the ring row no longer
    needed.
    run() takes the same steps through _steps, a block of levels at a time.
    """
    cfg, n = state.config, state.step_count
    new = np.empty((1, len(state.u)))
    _delayed_sources(state, n, new)
    _steps(state.u, new, state.factor)
    if not np.all(np.isfinite(new)):
        raise AccuracyError(f"non-finite field after step to t={(n + 1) * cfg.dt}")
    birth_rate(new[0], cfg.k, out=state.history[(n + 1) % len(state.history)])
    state.u = new[0]
    state.step_count = n + 1
    return state


def _level_cells(u: np.ndarray, level: float):
    """The cell i of the leftmost crossing of u = level in each row of u and
    the values lo = u[i] and hi = u[i + 1] around it, for finite rows whose
    first value lies below the level: i + 1 is the first node not below it,
    and a row crosses exactly where hi >= level (a row all below takes cell
    0).  _interpolate places the crossing.
    """
    i = np.maximum((u < level).argmin(axis=1) - 1, 0)  # whole rows: faster than the [:, 1:] view
    rows = np.arange(len(u))
    return i, u[rows, i], u[rows, i + 1]


def _interpolate(x: np.ndarray, i: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: float):
    """The linear-interpolated crossings of u = level in the cells i, from
    the values lo = u[i] and hi = u[i + 1] of _level_cells.  On a crossed
    row lo < level <= hi, so (level - lo)/(hi - lo) lies in (0, 1] and the
    interpolant is not left of x[i]; on the other rows it is junk."""
    return x[i] + (x[i + 1] - x[i]) * (level - lo) / (hi - lo)


def run(config: SimConfig) -> SimResult:
    """Integrate to t_end or until the tracked level nears the left boundary.

    The trajectory of the level crossing is recorded every step; the run
    stops early once the crossing comes within _STOP_MARGIN of x_min so the
    Dirichlet wall cannot contaminate the speed fit on its trailing half.
    Snapshots are taken at the requested times (rounded to the step grid)
    up to t_final.  The level is crossed from below, so bc_left, u at
    x_min, must lie below 1: DomainError refuses it before any step.

    _march takes the steps a block of levels at a time and keeps only the
    cell of each level's crossing and the two values around it; the
    trajectory is interpolated from them once, here, after the g ring and
    the block are freed.  Every result equals that of checking after each
    step.
    """
    if not config.bc_left < _LEVEL:
        raise DomainError(f"run() needs bc_left < {_LEVEL}, the tracked level, got {config.bc_left}")
    x, snapshots, cells, u_min, u_max, n_done = _march(config)
    i, lo, hi = np.concatenate(cells, axis=1)
    del cells
    found = np.flatnonzero(hi >= _LEVEL)  # level found + 1 crosses
    # the record goes before _interpolate's temporaries come: ~73 bytes a level, not ~125
    i, lo, hi = i[found].astype(np.intp), lo[found], hi[found]
    traj = np.column_stack([(found + 1) * config.dt, _interpolate(x, i, lo, hi, _LEVEL)])
    c_ns, residual, window = _fit(traj)
    return SimResult(
        snapshots=snapshots,
        level_trajectory=traj,
        c_ns=c_ns,
        fit_window=window,
        fit_residual=residual,
        u_min=u_min,
        u_max=u_max,
        t_final=n_done * config.dt,
    )


def _march(config: SimConfig):
    """run()'s steps: (x, snapshots, cells, u_min, u_max, steps done),
    cells a list of 3-row float arrays, one per block after an empty first
    one, whose columns hold i, lo and hi of _level_cells for levels 1, 2,
    ... in order; a level crosses where hi >= 1.  The list grows with the
    steps taken.

    The levels of up to _BLOCK steps are kept, and everything but the steps
    themselves is done on the block: finiteness, extrema, the cells of the
    level crossings and the wall test, which ends the run at the first level
    that hits.  The step from level n reads g up to level n + 1 - h/dt (n at
    h = 0), so the delayed sources of max(h/dt, 1) steps are known at once:
    they are written into the whole rows of the levels those steps make,
    Dirichlet values included, the steps taken there (_steps, as in
    cn_step), and then g of their levels is written straight into the ring
    rows of levels no later step reads, in chunks of that many steps (at
    most _BLOCK).  Each level's g is evaluated once.  An interpolated
    crossing is not left of its cell's left end, so a block is interpolated
    for the wall test only when a crossed cell starts within _STOP_MARGIN of
    x_min.
    """
    state = init_cauchy(config)
    g, u, x = state.history, state.u, state.x
    dt, chunk = config.dt, min(max(config.delay_steps, 1), _BLOCK)
    snap_steps = sorted({int(round(ts / config.dt)) for ts in config.snapshot_times})
    snapshots = [(0.0, u)] if 0 in snap_steps else []
    cells = [np.empty((3, 0))]  # so that a run of no step concatenates
    n_steps = int(round(config.t_end / config.dt))
    u_min, u_max = float(u.min()), float(u.max())
    wall = config.x_min + _STOP_MARGIN
    wall_cell = int(np.searchsorted(x, wall, side="right")) - 1  # the last i with x[i] <= wall
    # the step into a chunk's first row starts from u: the initial data on
    # the first step, then a copy of the chunk before's last level in prev
    levels, prev = np.empty((_BLOCK, config.n_points)), np.empty(config.n_points)
    n0 = 0  # steps done before the block
    with np.errstate(all="ignore"):  # steps past a non-finite level; raised below
        while n0 < n_steps:
            block = levels[: min(_BLOCK, n_steps - n0)]  # levels n0 + 1, n0 + 2, ...
            for j0 in range(0, len(block), chunk):
                part = block[j0:j0 + chunk]
                _delayed_sources(state, n0 + j0, part)
                _steps(u, part, state.factor)
                np.copyto(prev, part[-1])  # a later chunk's sources may overwrite this row
                u = prev
                for a, b, (rows,) in _ring_runs(len(g), len(part), n0 + j0 + 1):
                    birth_rate(part[a:b], config.k, out=g[rows])
            least, most = float(block.min()), float(block.max())
            if math.isfinite(least) and math.isfinite(most):
                bad = len(block)
            else:
                bad = int(np.argmin(np.isfinite(block).all(axis=1)))
            i, lo, hi = _level_cells(block[:bad], _LEVEL)
            crossed = hi >= _LEVEL
            hit = ()
            if i.min(initial=wall_cell + 1, where=crossed) <= wall_cell:
                xl = _interpolate(x, i, lo, hi, _LEVEL)
                hit = np.flatnonzero(crossed & (xl <= wall))
            if not len(hit) and bad < len(block):
                raise AccuracyError(f"non-finite field after step to t={(n0 + bad + 1) * dt}")
            done = int(hit[0]) + 1 if len(hit) else len(block)
            if done < len(block):
                least, most = float(block[:done].min()), float(block[:done].max())
            u_min, u_max = min(u_min, least), max(u_max, most)
            for n in snap_steps[bisect.bisect_right(snap_steps, n0):
                                bisect.bisect_right(snap_steps, n0 + done)]:
                snapshots.append((n * dt, block[n - n0 - 1].copy()))
            cells.append(np.array((i[:done], lo[:done], hi[:done])))
            n0 += done
            if len(hit):
                break
    return x, snapshots, cells, u_min, u_max, n0


def _fit(traj: np.ndarray):
    """The line through the trailing half of (t, x) rows: (|slope|, RMS residual, window)."""
    i0 = len(traj) // 2
    if len(traj) - i0 < 100:
        raise DomainError(f"insufficient data: the fit window holds {len(traj) - i0} of "
                          f"{len(traj)} trajectory points, need >= 100")
    tt, xx = traj[i0:, 0], traj[i0:, 1]
    A = np.column_stack([tt, np.ones_like(tt)])
    coef, *_ = np.linalg.lstsq(A, xx, rcond=None)
    rms = float(np.sqrt(np.mean((xx - A @ coef) ** 2)))
    return abs(float(coef[0])), rms, (float(tt[0]), float(tt[-1]))

