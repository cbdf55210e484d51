"""Critical speed curves and region boundaries in the (h, c) plane.

Four curves organize the phase diagram: the linear speed c_sharp(h) (double
root at the zero state), the region boundary c_kappa(h) (double negative
root at the positive state, defined above the delay threshold h_star), the
closed-form bound c_bound(h) on which the comparison condition degenerates,
and the minimal speed c_star(h) of the piecewise-linear model.  This module
evaluates them on grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chareq, toyfront
from .chareq import ModelParams, h_star
from .errors import AccuracyError, DomainError

__all__ = [
    "SpeedCurveSample",
    "h_star",
    "c_bound_curve",
    "sample_curves",
]


@dataclass(frozen=True)
class SpeedCurveSample:
    """One h-row of the phase diagram sweep.

    Absent curves (c_kappa below h_star, c_bound outside its interval) are
    None; monotone_front says whether c_star lies in D_kappa, the class
    build_profile reports; error carries a per-row failure message instead
    of aborting a sweep.
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


def _one_sample(h: float, params: ModelParams) -> SpeedCurveSample:
    hs = h_star(params.slope_kappa)
    h_hat = 1.0 / abs(params.slope_kappa)
    c_star, regime = toyfront.minimal_speed(h, params.slope_zero)
    # a pulled minimal speed is double_root_speed's own return value
    c_sharp = c_star if regime == "pulled" else chareq.double_root_speed(h, params.slope_zero)[0]
    c_kappa = chareq.c_kappa_curve(h, params) if h > hs else None
    c_bound = c_bound_curve(h, params.slope_kappa) if hs < h <= h_hat else None
    monotone = chareq._dkappa_margin(c_star, c_star * h, params.slope_kappa) > 0.0
    return SpeedCurveSample(
        h=h,
        c_sharp=c_sharp,
        c_kappa=c_kappa,
        c_bound=c_bound,
        c_star=c_star,
        regime=regime,
        monotone_front=monotone,
    )


def sample_curves(h_grid, params: ModelParams) -> list[SpeedCurveSample]:
    """Evaluate all defined curves on an ascending h-grid.

    Rows fail independently: a DomainError or AccuracyError on one h is
    recorded, with its type, in that row's error field and the sweep
    continues; any other exception propagates.
    """
    h_grid = list(h_grid)
    if any(b < a for a, b in zip(h_grid[:-1], h_grid[1:])):
        raise DomainError("h_grid must be ascending")
    if any(h < 0.0 for h in h_grid):
        raise DomainError("delays must be nonnegative")
    samples = []
    for h in h_grid:
        try:
            samples.append(_one_sample(h, params))
        except (DomainError, AccuracyError) as exc:
            samples.append(SpeedCurveSample(h=h, error=f"{type(exc).__name__}: {exc}"))
    return samples
