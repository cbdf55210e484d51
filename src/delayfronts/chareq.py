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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar
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


def roots_at_zero(c: float, h: float, params: ModelParams) -> RootsAtZero:
    """Both positive roots of the characteristic function at the zero state.

    For c above the critical speed the function dips below zero between the
    two roots, so the minimum over (0, zmax) decides existence and brackets
    both.  chi > z^2 - c z - 1 gives the upper bound zmax.
    """
    if c <= 0.0:
        raise DomainError("wave speed must be positive")
    k = params.slope_zero
    zmax = 0.5 * (c + np.sqrt(c * c + 4.0))
    res = minimize_scalar(
        lambda z: eval_char(z, c, h, k),
        bounds=(1e-12, zmax),
        method="bounded",
        options={"xatol": 1e-14},
    )
    if res.fun > 0.0:
        return RootsAtZero(np.nan, np.nan, exists=False)
    f = lambda z: eval_char(z, c, h, k)
    if res.fun == 0.0:
        lam = _polish(res.x, c, h, k)
        return RootsAtZero(lam, lam, exists=True)
    # relative margin on the upper bracket: chi(zmax) is exponentially small
    # but positive, and the bare evaluation can lose its sign to cancellation
    hi = zmax * (1.0 + 1e-6) + 1e-9
    lam2 = brentq(f, 1e-14, res.x, xtol=_XTOL, rtol=_RTOL)
    lam1 = brentq(f, res.x, hi, xtol=_XTOL, rtol=_RTOL)
    return RootsAtZero(_polish(lam1, c, h, k), _polish(lam2, c, h, k), exists=True)


def _negative_axis_bound(c: float, h: float, s: float) -> float:
    """L such that chi_kappa < 0 on (-inf, -L]: no negative root lies beyond.

    Any root needs |s| e^{|z| c h} <= z^2 + c|z| + 1, so iterating
    L <- (ln((L^2 + cL + 1)/|s|) + 2)/(ch) lands above every root with an
    e^2 margin, and the exponential stays finite there by construction.
    """
    a = abs(s)
    ch = c * h
    L = 20.0
    for _ in range(100):
        nxt = max(1e-6, (np.log((L * L + c * L + 1.0) / a) + 2.0) / ch)
        if abs(nxt - L) < 1e-9 * L:
            break
        L = nxt
    return L


def _negative_axis_peak(c: float, h: float, s: float) -> tuple[float, float]:
    """Location and value of the maximum of chi_kappa on the negative axis.

    A coarse grid over the certified root interval seeds a bounded
    refinement; chi_kappa has at most one interior local maximum there
    (its second derivative changes sign once), so the grid argmax brackets
    the true peak.
    """
    L = _negative_axis_bound(c, h, s)
    zs = np.linspace(-L, -1e-12, 4000)
    vals = eval_char(zs, c, h, s)
    i = int(np.argmax(vals))
    lo = zs[max(i - 2, 0)]
    hi = zs[min(i + 2, len(zs) - 1)]
    res = minimize_scalar(
        lambda z: -eval_char(z, c, h, s),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    if -res.fun < vals[i]:
        return float(zs[i]), float(vals[i])
    return float(res.x), float(-res.fun)


def roots_at_kappa(c: float, h: float, params: ModelParams) -> RootsAtKappa:
    """Real roots at the positive equilibrium.

    mu1 always exists (chi_kappa(0) < 0 < chi_kappa(+inf)); the two negative
    roots exist exactly when the bump of chi_kappa on the negative axis rises
    above zero.  At h = 0 the function is a quadratic, mu3 is reported absent
    and the region flag is True for every c.
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
    zpk, fpk = _negative_axis_peak(c, h, s)
    if fpk <= 0.0:
        return RootsAtKappa(mu1, None, None, in_region_Dkappa=False)
    f = lambda z: eval_char(z, c, h, s)
    mu2 = brentq(f, zpk, -1e-15, xtol=_XTOL, rtol=_RTOL)
    lo = zpk
    while f(lo) > 0.0:
        lo = 2.0 * lo if lo < -1.0 else lo - 1.0
    mu3 = brentq(f, lo, zpk, xtol=_XTOL, rtol=_RTOL)
    return RootsAtKappa(mu1, _polish(mu2, c, h, s), _polish(mu3, c, h, s), True)


def double_root_speed(h: float, slope: float, tol: float = 1e-12) -> tuple[float, float]:
    """Speed c at which the characteristic function has a double positive root.

    Returns (c, z_double).  Solves chi = chi_z = 0 by a two-dimensional
    Newton iteration with analytic Jacobian, continued in h from the closed
    form c = 2*sqrt(slope-1), z = sqrt(slope-1) at h = 0 in steps of 0.05.
    Falls back to a nested bisection (outer on c, inner on the sign of
    min chi) if Newton strays.
    """
    if not slope > 1.0:
        raise DomainError("double_root_speed needs slope > 1")
    if h < 0.0:
        raise DomainError("delay must be nonnegative")
    c = 2.0 * np.sqrt(slope - 1.0)
    z = np.sqrt(slope - 1.0)
    if h == 0.0:
        return c, z
    n_steps = max(1, int(np.ceil(h / 0.05)))
    for i in range(1, n_steps + 1):
        hi = h * i / n_steps
        z, c, ok = _newton_double_root(z, c, hi, slope, tol)
        if not ok:
            return _bisect_double_root(hi if hi == h else h, slope, tol)
    return c, z


def _newton_double_root(z, c, h, slope, tol):
    for _ in range(60):
        E = np.exp(-z * c * h)
        f1 = z * z - c * z - 1.0 + slope * E
        f2 = 2.0 * z - c - slope * c * h * E
        j11 = f2
        j12 = -z - slope * z * h * E
        j21 = 2.0 + slope * (c * h) ** 2 * E
        j22 = -1.0 - slope * h * E + slope * c * z * h * h * E
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not np.isfinite(det):
            return z, c, False
        dz = (-f1 * j22 + f2 * j12) / det
        dc = (-j11 * f2 + j21 * f1) / det
        z += dz
        c += dc
        if z <= 0.0 or c <= 0.0:
            return z, c, False
        if abs(f1) < tol and abs(f2) < tol and abs(dz) + abs(dc) < 1e-14:
            return z, c, True
    return z, c, False


def _bisect_double_root(h, slope, tol):
    """Outer bisection on c of the sign of min_z chi; robust, slower."""

    def min_chi(c):
        zmax = 0.5 * (c + np.sqrt(c * c + 4.0))
        res = minimize_scalar(
            lambda z: eval_char(z, c, h, slope),
            bounds=(1e-12, zmax),
            method="bounded",
            options={"xatol": 1e-14},
        )
        return res.fun, res.x

    lo, hi = 1e-8, 2.0 * np.sqrt(slope - 1.0)
    while min_chi(hi)[0] > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise AccuracyError("double-root bisection found no bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if min_chi(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    c = hi
    return c, min_chi(c)[1]


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
