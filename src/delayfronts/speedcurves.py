"""Critical speed curves and region boundaries in the (h, c) plane.

Four curves organize the phase diagram: the linear speed c_sharp(h) (double
root at the zero state), the region boundary c_kappa(h) (double negative
root at the positive state, defined above the delay threshold h_star), the
closed-form bound c_bound(h) on which the comparison condition degenerates,
and the minimal speed c_star(h) of the piecewise-linear model.  This module
evaluates them on grids and emits the sweep as CSV rows.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import chareq, toyfront
from .chareq import ModelParams, h_star
from .errors import AccuracyError, DomainError

__all__ = [
    "SpeedCurveSample",
    "h_star",
    "c_bound_curve",
    "in_region_Dstar",
    "sample_curves",
    "curves_csv",
]

CSV_HEADER = "h,c_sharp,c_kappa,c_bound,c_star,regime,monotone_front"


@dataclass(frozen=True)
class SpeedCurveSample:
    """One h-row of the phase diagram sweep.

    Absent curves (c_kappa below h_star, c_bound outside its interval) are
    None; error carries a per-row failure message instead of aborting a
    sweep.
    """

    h: float
    c_sharp: float | None = None
    c_kappa: float | None = None
    c_bound: float | None = None
    c_star: float | None = None
    regime: str | None = None
    monotone_front: bool | None = None
    error: str | None = None


def c_bound_curve(h: float, slope_kappa: float) -> float:
    """The decreasing bound curve on (h_star, 1/|slope_kappa|].

        c(h) = -ln(h |g'(kappa)|) / sqrt(h (1 + h + ln(h |g'(kappa)|)))

    It blows up at h_star+ and vanishes at h = 1/|g'(kappa)|.
    """
    a = abs(slope_kappa)
    if not slope_kappa < 0.0:
        raise DomainError("slope_kappa must be negative")
    hs = h_star(slope_kappa)
    h_hat = 1.0 / a
    if not hs < h <= h_hat:
        raise DomainError(
            f"c_bound_curve is defined on ({hs:.6g}, {h_hat:.6g}], got h={h}"
        )
    ln = np.log(h * a)
    if h == h_hat:
        return 0.0
    return -ln / np.sqrt(h * (1.0 + h + ln))


def in_region_Dstar(h: float, c: float, slope_kappa: float, mu2: float) -> bool:
    """Comparison condition 1 + h*g'(kappa)*exp(-mu2*c*h) > 0.

    mu2 must be the negative root returned by roots_at_kappa at (c, h).
    Holds automatically for every c when h <= h_star.
    """
    return 1.0 + h * slope_kappa * np.exp(-mu2 * c * h) > 0.0


def _one_sample(h: float, params: ModelParams) -> SpeedCurveSample:
    hs = h_star(params.slope_kappa)
    h_hat = 1.0 / abs(params.slope_kappa)
    c_sharp, _ = chareq.double_root_speed(h, params.slope_zero)
    c_kappa = chareq.c_kappa_curve(h, params) if h > hs else None
    c_bound = c_bound_curve(h, params.slope_kappa) if hs < h <= h_hat else None
    c_star, regime = toyfront.minimal_speed(h, params.slope_zero)
    monotone = bool(h <= hs or (c_kappa is not None and c_star <= c_kappa))
    return SpeedCurveSample(
        h=h,
        c_sharp=c_sharp,
        c_kappa=c_kappa,
        c_bound=c_bound,
        c_star=c_star,
        regime=regime,
        monotone_front=monotone,
    )


def sample_curves(h_grid, params: ModelParams, jobs: int = 1) -> list[SpeedCurveSample]:
    """Evaluate all defined curves on an ascending h-grid.

    Rows fail independently: a DomainError or AccuracyError on one h is
    recorded, with its type, in that row's error field and the sweep
    continues; any other exception propagates.  jobs > 1 fans the rows out
    to a process pool; the output order always follows the grid.
    """
    h_grid = list(h_grid)
    if any(b < a for a, b in zip(h_grid[:-1], h_grid[1:])):
        raise DomainError("h_grid must be ascending")
    if any(h < 0.0 for h in h_grid):
        raise DomainError("delays must be nonnegative")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_one_sample, h, params) for h in h_grid]
            return [_guarded(h, fut.result) for h, fut in zip(h_grid, futures)]
    return [_guarded(h, lambda: _one_sample(h, params)) for h in h_grid]


def _guarded(h: float, row) -> SpeedCurveSample:
    """row(), or an error row naming the type of a solver failure."""
    try:
        return row()
    except (DomainError, AccuracyError) as exc:
        return SpeedCurveSample(h=h, error=f"{type(exc).__name__}: {exc}")


def _fmt(v) -> str:
    """Six significant digits for floats; empty for None; true/false for bools."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def curves_csv(samples) -> str:
    """Render sweep rows in the fixed 6-significant-digit CSV format."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for s in samples:
        if s.error is not None:
            buf.write(f"{_fmt(s.h)},error:{s.error},,,,,\n")
            continue
        buf.write(
            ",".join(
                _fmt(v)
                for v in (
                    s.h,
                    s.c_sharp,
                    s.c_kappa,
                    s.c_bound,
                    s.c_star,
                    s.regime,
                    s.monotone_front,
                )
            )
            + "\n"
        )
    return buf.getvalue()
