"""Characteristic quasi-polynomials of the delayed profile equation.

The traveling-wave ansatz u(t, x) = phi(x + c t) for

    u_t = u_xx - u + g(u(t - h, x))

linearized at an equilibrium gives exponential solutions e^{z t} whose
exponents are the zeros of

    chi(z) = z^2 - c z - 1 + s * exp(-z c h),

where s is the slope of g at the equilibrium.  Everything in this module
is about locating those zeros: the two positive roots at the unstable
state (s > 1), the three real roots at the positive state (s < 0), the
double-root systems that define the critical speed curves, and a contour
count certifying that no complex zero sneaks to the right of the real
ones.

The real turning points of chi are Lambert W closed forms (_critical_point).
They bracket the real roots, decide whether those exist, and give the
linear speed as the zero of chi at its minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

from .errors import AccuracyError, DomainError

__all__ = [
    "ModelParams",
    "RootsAtZero",
    "RootsAtKappa",
    "eval_char",
    "eval_char_dz",
    "roots_at_zero",
    "roots_at_kappa",
    "double_root_speed",
    "h_star",
    "c_kappa_curve",
    "count_zeros_rectangle",
]

# Bracketed roots are bisected to this x-tolerance, then Newton-polished.
_XTOL = 1e-13
_RTOL = 4 * np.finfo(float).eps
_NEWTON_POLISH = 3


@dataclass(frozen=True)
class ModelParams:
    """Slopes and equilibria of the birth law.

    slope_zero is g'(0) (must exceed 1 for the monostable setting),
    slope_kappa is g'(kappa) < 0, kappa the positive equilibrium and
    theta_junction the maximum point of the piecewise birth law.  The
    piecewise-linear model is the instance (k, 2, -1, 1) with k in (1, 3).
    """

    slope_zero: float
    slope_kappa: float = -1.0
    kappa: float = 2.0
    theta_junction: float = 1.0

    def __post_init__(self) -> None:
        if not self.slope_zero > 1.0:
            raise DomainError(f"slope_zero must exceed 1, got {self.slope_zero}")
        if not self.slope_kappa < 0.0:
            raise DomainError(f"slope_kappa must be negative, got {self.slope_kappa}")
        if not 0.0 < self.theta_junction < self.kappa:
            raise DomainError("theta_junction must lie in (0, kappa)")

    @classmethod
    def toy(cls, k: float) -> "ModelParams":
        """The piecewise-linear model: g(u) = k*u below 1, 4 - u above."""
        if not 1.0 < k < 3.0:
            raise DomainError(f"toy model needs k in (1, 3), got {k}")
        return cls(slope_zero=k, slope_kappa=-1.0, kappa=2.0, theta_junction=1.0)


@dataclass(frozen=True)
class RootsAtZero:
    """Positive real roots at the zero state: lambda2 <= lambda1 when they exist."""

    lambda1: float
    lambda2: float
    exists: bool


@dataclass(frozen=True)
class RootsAtKappa:
    """Real roots at the positive state: mu3 <= mu2 < 0 < mu1.

    mu2/mu3 are None outside the three-real-roots region (and the
    quadratic h = 0 case never has mu3).
    """

    mu1: float
    mu2: float | None
    mu3: float | None
    in_region_Dkappa: bool


def eval_char(z, c, h, slope, constant_shift=-1.0):
    """Evaluate z**2 - c*z + constant_shift + slope*exp(-z*c*h).

    Accepts scalars or arrays, real or complex.
    """
    z = np.asarray(z)
    out = z * z - c * z + constant_shift + slope * np.exp(-z * c * h)
    return out[()] if out.ndim == 0 else out


def eval_char_dz(z, c, h, slope):
    """d/dz of eval_char (the constant shift drops out)."""
    z = np.asarray(z)
    out = 2.0 * z - c - slope * c * h * np.exp(-z * c * h)
    return out[()] if out.ndim == 0 else out


def _polish(z: float, c: float, h: float, slope: float) -> float:
    for _ in range(_NEWTON_POLISH):
        d = eval_char_dz(z, c, h, slope)
        if d == 0.0:
            break
        z -= eval_char(z, c, h, slope) / d
    return z


def _critical_point(c: float, tau: float, s: float, branch: int) -> float | None:
    """A zero of chi' on the given Lambert W branch, in closed form.

    chi'(z) = 2z - c - s tau e^{-z tau} = 0 with tau = c h and y = z - c/2
    reads (tau y) e^{tau y} = X = s tau^2/2 e^{-c tau/2}, so
    z = c/2 + W_branch(X)/tau.  Branch 0 with s > 0 is the minimum of
    chi on the positive axis; branch -1 with s < 0 is its peak on the
    left, which exists only for X >= -1/e (None otherwise).  When X
    underflows, W_{-1} comes from L = ln|X| by Newton on w + ln(-w) = L.
    """
    if tau == 0.0:
        return 0.5 * c
    X = 0.5 * s * tau * tau * math.exp(-0.5 * c * tau)
    if branch == -1 and abs(X) < np.finfo(float).tiny:
        L = math.log(0.5 * abs(s) * tau * tau) - 0.5 * c * tau
        w = L - math.log(-L)
        for _ in range(4):
            w -= (w + math.log(-w) - L) / (1.0 + 1.0 / w)
    elif branch == -1 and X < -1.0 / math.e:
        return None
    else:
        w = lambertw(X, branch).real
    return 0.5 * c + w / tau


def roots_at_zero(c: float, h: float, params: ModelParams) -> RootsAtZero:
    """Both positive roots of the characteristic function at the zero state.

    chi is convex on the real axis; its minimum (a Lambert W closed form)
    decides existence and, when it dips below zero, separates the two
    roots.  chi > z^2 - c z - 1 puts both below the larger root of that
    quadratic, the upper bracket.
    """
    if c <= 0.0:
        raise DomainError("wave speed must be positive")
    k = params.slope_zero
    zmin = _critical_point(c, c * h, k, 0)
    fmin = eval_char(zmin, c, h, k)
    if fmin > 0.0:
        return RootsAtZero(np.nan, np.nan, exists=False)
    if fmin == 0.0:
        lam = _polish(zmin, c, h, k)
        return RootsAtZero(lam, lam, exists=True)
    f = lambda z: eval_char(z, c, h, k)
    # relative margin on the upper bracket: chi(zmax) is exponentially small
    # but positive, and the bare evaluation can lose its sign to cancellation
    hi = 0.5 * (c + np.sqrt(c * c + 4.0)) * (1.0 + 1e-6) + 1e-9
    lam2 = brentq(f, 1e-14, zmin, xtol=_XTOL, rtol=_RTOL)
    lam1 = brentq(f, zmin, hi, xtol=_XTOL, rtol=_RTOL)
    return RootsAtZero(_polish(lam1, c, h, k), _polish(lam2, c, h, k), exists=True)


def roots_at_kappa(c: float, h: float, params: ModelParams) -> RootsAtKappa:
    """Real roots at the positive equilibrium.

    mu1 always exists (chi_kappa(0) < 0 < chi_kappa(+inf)); the two negative
    roots exist exactly when the peak of chi_kappa on the negative axis (a
    Lambert W closed form) rises above zero.  At h = 0 the function is a
    quadratic, mu3 is reported absent and the region flag is True for
    every c.
    """
    if c <= 0.0:
        raise DomainError("wave speed must be positive")
    s = params.slope_kappa
    lo = 0.5 * (c + np.sqrt(c * c + 4.0))
    hi = 0.5 * (c + np.sqrt(c * c + 4.0 * (1.0 - s)))
    # margins beat the cancellation noise of z^2 - cz - 1 near its root
    mu1 = brentq(
        lambda z: eval_char(z, c, h, s),
        lo * (1.0 - 1e-6) - 1e-9,
        hi * (1.0 + 1e-6) + 1e-9,
        xtol=_XTOL,
        rtol=_RTOL,
    )
    mu1 = _polish(mu1, c, h, s)
    if h == 0.0:
        mu2 = 0.5 * (c - np.sqrt(c * c + 4.0 * (1.0 - s)))
        return RootsAtKappa(mu1, mu2, None, in_region_Dkappa=True)
    # without a peak left of 0, chi_kappa rises through chi_kappa(0) < 0
    zpk = _critical_point(c, c * h, s, -1)
    if zpk is None or zpk >= 0.0 or eval_char(zpk, c, h, s) <= 0.0:
        return RootsAtKappa(mu1, None, None, in_region_Dkappa=False)
    f = lambda z: eval_char(z, c, h, s)
    mu2 = brentq(f, zpk, -1e-15, xtol=_XTOL, rtol=_RTOL)
    lo = zpk
    while f(lo) > 0.0:
        lo = 2.0 * lo if lo < -1.0 else lo - 1.0
    mu3 = brentq(f, lo, zpk, xtol=_XTOL, rtol=_RTOL)
    return RootsAtKappa(mu1, _polish(mu2, c, h, s), _polish(mu3, c, h, s), True)


def double_root_speed(h: float, slope: float) -> tuple[float, float]:
    """Speed c at which the characteristic function has a double positive root.

    Returns (c, z_double).  The minimum of chi over z, F(c) = chi(z_min(c); c)
    with z_min the Lambert W critical point, strictly decreases in c from
    slope - 1 > 0 at c = 0 to below zero at the non-delayed speed
    2*sqrt(slope-1); one brentq on that bracket finds its zero.  At h = 0
    the closed form c = 2*sqrt(slope-1), z = sqrt(slope-1) is returned.
    """
    if not slope > 1.0:
        raise DomainError("double_root_speed needs slope > 1")
    if h < 0.0:
        raise DomainError("delay must be nonnegative")
    c0 = 2.0 * math.sqrt(slope - 1.0)
    if h == 0.0:
        return c0, 0.5 * c0
    F = lambda c: eval_char(_critical_point(c, c * h, slope, 0), c, h, slope)
    # to rounding: minimal_speed probes 1e-12 (relative) above this speed
    c = brentq(F, 1e-9, c0, xtol=1e-300, rtol=_RTOL)
    return c, _critical_point(c, c * h, slope, 0)


def h_star(slope_kappa: float) -> float:
    """Delay threshold: the unique h with |slope_kappa| * h * e^(h+1) = 1.

    In closed form h = W0(1 / (|slope_kappa| e)), W0 the principal branch
    of the Lambert W function.
    """
    if not slope_kappa < 0.0:
        raise DomainError("slope_kappa must be negative")
    return float(lambertw(1.0 / (abs(slope_kappa) * np.e)).real)


def c_kappa_curve(h: float, params: ModelParams) -> float:
    """Upper boundary of the three-real-roots region for h > h_star.

    Solves the implicit relation

        (2 + S) / (e c^2 h^2 |g'(kappa)|) = exp((S - c^2 h)/2),
        S = sqrt(c^4 h^2 + 4 c^2 h^2 + 4),

    in log form by bracketed bisection in c.  The returned speed agrees with
    the double-negative-root system chi_kappa(mu) = chi_kappa'(mu) = 0 to
    well below the 1e-10 contract (the tests cross-check this).
    """
    a = abs(params.slope_kappa)
    hs = h_star(params.slope_kappa)
    if h <= hs:
        raise DomainError(f"c_kappa_curve is defined for h > h_star = {hs:.6g}")

    def G(c):
        S = np.sqrt(c**4 * h * h + 4.0 * c * c * h * h + 4.0)
        return np.log((2.0 + S) / (np.e * c * c * h * h * a)) - (S - c * c * h) / 2.0

    lo, hi = 1e-9, 1.0
    while G(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise AccuracyError("no upper bracket for the c_kappa relation")
    return brentq(G, lo, hi, xtol=1e-14, rtol=_RTOL)


# -- contour certification ---------------------------------------------------

_MIN_MODULUS = 1e-9
_MAX_NUDGES = 5
_NUDGE = 1e-6


class _ContourThroughZero(Exception):
    pass


def _edge_integral(c, h, slope, a, b, tol):
    """Adaptive trapezoid of chi'/chi along the segment [a, b].

    Intervals are bisected until the local two-panel estimate settles; the
    per-interval budget is proportional to arclength.  Evaluations run in
    numpy batches off a worklist.  Raises _ContourThroughZero if |chi| dips
    below the minimum-modulus threshold at any node.
    """

    def f(z):
        E = np.exp(-z * c * h)
        chi = z * z - c * z - 1.0 + slope * E
        if np.min(np.abs(chi)) < _MIN_MODULUS:
            raise _ContourThroughZero
        return (2.0 * z - c - slope * c * h * E) / chi

    total_len = abs(b - a)
    az = np.array([a], dtype=complex)
    bz = np.array([b], dtype=complex)
    fa = f(az)
    fb = f(bz)
    coarse = 0.5 * (fa + fb) * (bz - az)
    acc = 0.0 + 0.0j
    for _ in range(52):
        mid = 0.5 * (az + bz)
        fm = f(mid)
        left = 0.5 * (fa + fm) * (mid - az)
        right = 0.5 * (fm + fb) * (bz - mid)
        fine = left + right
        budget = tol * np.abs(bz - az) / total_len
        done = np.abs(fine - coarse) <= budget
        acc += np.sum(fine[done])
        if np.all(done):
            return acc
        keep = ~done
        az = np.concatenate([az[keep], mid[keep]])
        bz = np.concatenate([mid[keep], bz[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
    # depth exhausted: accept the remaining fine estimates
    return acc + np.sum(0.5 * (fa + fb) * (bz - az))


def count_zeros_rectangle(
    c: float,
    h: float,
    slope: float,
    re_lo: float,
    re_hi: float,
    im_max: float,
) -> int:
    """Number of characteristic zeros inside a rectangle, by winding count.

    Integrates chi'/chi around [re_lo, re_hi] x [-im_max, im_max]
    counterclockwise with adaptive trapezoid panels and divides by 2*pi*i.
    The quadrature tolerance tightens until the pre-rounding value sits
    within 1e-3 of an integer.  If a zero lies on (or hugs) the contour the
    rectangle is widened by 1e-6 steps, a bounded number of times.
    """
    if not (re_lo < re_hi and im_max > 0.0):
        raise DomainError("degenerate rectangle")
    for nudge in range(_MAX_NUDGES + 1):
        lo = re_lo - nudge * _NUDGE
        hi = re_hi + nudge * _NUDGE
        corners = [
            complex(lo, -im_max),
            complex(hi, -im_max),
            complex(hi, im_max),
            complex(lo, im_max),
            complex(lo, -im_max),
        ]
        tol = 2e-4
        try:
            for _ in range(4):
                total = sum(
                    _edge_integral(c, h, slope, a, b, tol)
                    for a, b in zip(corners[:-1], corners[1:])
                )
                w = total / (2j * np.pi)
                n = round(w.real)
                if abs(w.real - n) <= 1e-3 and abs(w.imag) <= 1e-3 and n >= 0:
                    return int(n)
                tol /= 10.0
            raise AccuracyError(
                f"winding number failed to settle near an integer (got {w})"
            )
        except _ContourThroughZero:
            continue
    raise AccuracyError("a characteristic zero sits on the contour after max nudges")
