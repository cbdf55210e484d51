"""Characteristic quasi-polynomials of the delayed profile equation.

The traveling-wave ansatz u(t, x) = phi(x + c t) for

    u_t = u_xx - u + g(u(t - h, x))

linearized at an equilibrium gives exponential solutions e^{z t} whose
exponents are the zeros of

    chi(z) = z^2 - c z - 1 + s * exp(-z c h),

where s is the slope of g at the equilibrium.  Everything in this module
is about locating those zeros: the two positive roots at the unstable
state (s > 1), the three real roots at the positive state (s < 0), the
double-root systems that define the critical speed curves, and a count
certifying that no complex zero sneaks to the right of the real ones.
That count covers the half-plane Re z > re_lo and reads only the line
Re z = re_lo: the signs of Im chi at the sign changes of Re chi there
(Stepan's formula for a retarded quasi-polynomial).

The real turning points of chi are Lambert W closed forms (_critical_point).
They bracket the real roots, decide whether those exist, and give the
linear speed as the zero of chi at its minimum.  W0 (_lambertw) and W_{-1}
(_lambertw_m1, of ln|z|, which cannot underflow) are one iteration each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

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
    "count_zeros_right_of",
]

# Roots of chi are solved to this x-tolerance, then Newton-polished (_chi_root).
_XTOL = 1e-13
_RTOL = float(4 * np.finfo(float).eps)  # a Python float keeps _brent's roots floats
_NEWTON_POLISH = 3
# roots_at_kappa refuses 0 < c h below this: |mu3| ~ 2 ln(1/(ch))/(ch), and a
# scan of c h in 0.01-decade steps down from 1e-23 (c = 1e-6, 1 and 10,
# k = 1.2) first failed at 1.5e-151, where the mu3 bracket search overflows
# exp; the floor keeps a margin of 80 decades.
_TAU_FLOOR = 1e-70
# double_root_speed refuses delays above this: its speed falls like ln(h)/h,
# Brent needs ~log2(h) + 52 halvings from c0 to reach it, and its 100 steps
# ran out from h ~ 6e27 on (slopes in (1, 3)).
_H_MAX = 1e20
# the root finders refuse speeds above this: rounding of c tau = c^2 h in
# _dkappa_margin grows like eps c^2 h against a margin term of -2h, so exp
# overflows once eps c^2 ~ 2 (c ~ 1e8); a scan of roots_at_kappa over h in
# 1e-12-1e30 (0.1 decades) and c in 0.005-decade steps first failed at
# c = 1.48e8 (h = 1.6e10), and roots_at_zero at c = 1e12 (h <= 0.01).
_C_MAX = 1e7


def _check_k(k: float) -> None:
    """The piecewise-linear model's slope domain, shared by every entry point."""
    if not 1.0 < k < 3.0:
        raise DomainError(f"k must lie in (1, 3), got {k}")


def _check_h(h: float) -> None:
    """The delay domain: finite h >= 0 (NaN is refused too)."""
    if not 0.0 <= h < math.inf:
        raise DomainError(f"delay must be finite and >= 0, got {h}")


def _check_c_h(c: float, h: float) -> None:
    """The (c, h) domain of the root finders: 0 < c <= _C_MAX, finite h >= 0."""
    if not 0.0 < c <= _C_MAX:
        raise DomainError(f"wave speed must lie in (0, {_C_MAX:g}], got {c}")
    _check_h(h)


@dataclass(frozen=True)
class ModelParams:
    """Slopes and equilibria of the piecewise-linear birth law g(u) = k*u
    below 1, 4 - u above: slope_zero = g'(0) = k in (1, 3), and the fixed
    slope_kappa = g'(kappa) = -1 at the positive equilibrium kappa = 2.
    """

    slope_zero: float
    slope_kappa: ClassVar[float] = -1.0
    kappa: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        _check_k(self.slope_zero)

    @classmethod
    def toy(cls, k: float) -> "ModelParams":
        """The piecewise-linear model with slope k."""
        return cls(k)


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


def eval_char(z, c, h, slope):
    """Evaluate z**2 - c*z - 1 + slope*exp(-z*c*h).

    Accepts scalars or arrays, real or complex.
    """
    z = np.asarray(z)
    out = z * z - c * z - 1.0 + slope * np.exp(-z * c * h)
    return out[()] if out.ndim == 0 else out


def eval_char_dz(z, c, h, slope):
    """d/dz of eval_char."""
    z = np.asarray(z)
    out = 2.0 * z - c - slope * c * h * np.exp(-z * c * h)
    return out[()] if out.ndim == 0 else out


def _brent(f, a: float, b: float, args: tuple, xtol: float) -> float:
    """Brent's method (Brent 1973, ch. 4) as scipy's C brentq, line for line, with
    rtol = _RTOL, so its roots are scipy's to the bit.  No sign change on
    [a, b], a NaN value of f or 100 steps without convergence raise AccuracyError.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre, *args)), float(f(xcur, *args))
    if fpre != fpre or fcur != fcur:
        raise AccuracyError(f"root solve: f is NaN at an end of [{xpre!r}, {xcur!r}]")
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise AccuracyError(f"root solve: no sign change on [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN: a bisection
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur, *args))
        if fcur != fcur:
            raise AccuracyError(f"root solve: f is NaN at x = {xcur!r}")
    raise AccuracyError(f"root solve: no convergence in 100 steps near x = {xcur!r}")


def _root(f, a: float, b: float, args=(), xtol: float = 1e-300) -> float:
    """The root of f bracketed by [a, b], to xtol (default: the last bits)."""
    return _brent(f, a, b, args, float(xtol))


def _chi_root(a: float, b: float, c: float, h: float, slope: float) -> float:
    """The root of chi bracketed by [a, b], to _XTOL, then Newton-polished:
    a step ten times longer than that tolerance (chi' ~ 0 at a near-double
    root) would leave the bracketed root, so it ends the polish."""
    z = _root(eval_char, a, b, args=(c, h, slope), xtol=_XTOL)
    for _ in range(_NEWTON_POLISH):
        d = eval_char_dz(z, c, h, slope)
        if d == 0.0:
            break
        step = eval_char(z, c, h, slope) / d
        if abs(step) > 10.0 * (_XTOL + _RTOL * abs(z)):
            break
        z -= step
    return z


# Real Lambert W (Corless et al. 1996), one function per branch.  Each iterates
# until its step is within 4e-16 |w| or stops shrinking: rounding noise held
# W_{-1}'s step above the first test at ~1 in 100,000 arguments.
def _lambertw(z: float) -> float:
    """W0(z) for z >= 0: Halley's iteration from log1p(z) below 3 and from
    ln z - ln ln z above, arranged with e^{-w} (w >= 0), which cannot overflow.
    """
    z = float(z)  # numpy scalars would make each step several times slower
    if z == 0.0 or not z < math.inf:
        return z
    w = math.log1p(z) if z < 3.0 else (L := math.log(z)) - math.log(L)
    last = math.inf
    for _ in range(100):
        wewz = w - z * math.exp(-w)
        step = wewz / (w + 1.0 - (w + 2.0) * wewz / (2.0 * w + 2.0))
        w -= step
        if not 4e-16 * abs(w) < abs(step) < last:
            return w
        last = abs(step)
    return math.nan


def _lambertw_m1(L: float) -> float:
    """W_{-1}(z) at z = -e^L (L <= -1), so z may underflow: Newton's iteration on
    w + ln(-w) = L from the branch-point series -1 - sqrt(2 (1 + e z)), with
    1 + e z = -expm1(L + 1), for L > -1.4 and from L - ln(-L) below.
    """
    L = float(L)
    w = -1.0 - math.sqrt(-2.0 * math.expm1(L + 1.0)) if L > -1.4 else L - math.log(-L)
    last = math.inf
    for _ in range(100):
        if w == -1.0:  # the branch point, where the step is 0/0
            return w
        wn = w * (1.0 + L - math.log(-w)) / (1.0 + w)
        step, w = abs(wn - w), wn
        if not 4e-16 * abs(w) < step < last:
            return w
        last = step
    return math.nan


def _critical_point(c: float, tau: float, s: float, branch: int) -> float | None:
    """A zero of chi' on the given Lambert W branch, in closed form.

    chi'(z) = 2z - c - s tau e^{-z tau} = 0 with tau = c h and y = z - c/2
    reads (tau y) e^{tau y} = X = s tau^2/2 e^{-c tau/2}, so
    z = c/2 + W_branch(X)/tau.  Branch 0 with s > 0 is the minimum of
    chi on the positive axis; branch -1 with s < 0 is its peak on the
    left, which exists only for X >= -1/e, that is L = ln|X| <= -1 (None
    otherwise).  W_{-1} takes L = ln(|s| tau^2/2) - c tau/2, which does not
    underflow where X does.
    """
    if tau == 0.0:
        return 0.5 * c
    if branch == 0:
        return 0.5 * c + _lambertw(0.5 * s * tau * tau * math.exp(-0.5 * c * tau)) / tau
    L = math.log(0.5 * abs(s) * tau * tau) - 0.5 * c * tau
    return None if L > -1.0 else 0.5 * c + _lambertw_m1(L) / tau


def roots_at_zero(c: float, h: float, params: ModelParams) -> RootsAtZero:
    """Both positive roots of the characteristic function at the zero state.

    chi is convex on the real axis; its minimum (a Lambert W closed form)
    decides existence and, when it dips below zero, separates the two
    roots.  chi > z^2 - c z - 1 puts both below the larger root of that
    quadratic, the upper bracket.  lambda2 below 1e-14 raises DomainError.
    """
    _check_c_h(c, h)
    k = params.slope_zero
    zmin = _critical_point(c, c * h, k, 0)
    fmin = eval_char(zmin, c, h, k)
    if fmin > 0.0:
        return RootsAtZero(np.nan, np.nan, exists=False)
    # relative margin on the upper bracket: chi(zmax) is exponentially small
    # but positive, and the bare evaluation can lose its sign to cancellation
    hi = 0.5 * (c + np.sqrt(c * c + 4.0)) * (1.0 + 1e-6) + 1e-9
    if eval_char(1e-14, c, h, k) < 0.0:
        raise DomainError(f"lambda2 lies below 1e-14 at c h = {c * h:.3g}")
    lam2 = _chi_root(1e-14, zmin, c, h, k)
    return RootsAtZero(_chi_root(zmin, hi, c, h, k), lam2, exists=True)


def _mu1(c: float, h: float, s: float) -> float:
    """mu1 of roots_at_kappa alone, for callers that need no negative root."""
    lo = 0.5 * (c + np.sqrt(c * c + 4.0))
    hi = 0.5 * (c + np.sqrt(c * c + 4.0 * (1.0 - s)))
    # margins beat the cancellation noise of z^2 - cz - 1 near its root
    return _chi_root(lo * (1.0 - 1e-6) - 1e-9, hi * (1.0 + 1e-6) + 1e-9, c, h, s)


def _dkappa_margin(c: float, tau: float, s: float) -> float:
    """Positive iff chi (slope s < 0, tau = c h) has two negative roots: D_kappa.

    That is, chi has a peak left of 0 and is positive there.  At the peak
    z = c/2 + w/tau (_critical_point) chi' = 0 makes chi(z) =
    (w^2 + 2w)/tau^2 - 1 - c^2/4, positive iff w < w* = -1 - S/2 with
    S = 2 sqrt(1 + tau^2 (1 + c^2/4)); as w e^w falls on w <= -1, iff
    s tau^2/2 e^{-c tau/2} > w* e^{w*}, which fails too without a peak or
    with one at z >= 0.  Scaled: (2 + S) e^{(c tau - S)/2} > e |s| tau^2,
    finite for all tau >= 0 and 4/e (inside) at tau = 0.  The exponent is
    taken as c tau - S = -4 (1 + tau^2)/(c tau + S), which does not cancel
    where c tau is large (near h_star).
    """
    S = 2.0 * math.sqrt(1.0 + tau * tau * (1.0 + 0.25 * c * c))
    return ((2.0 + S) * math.exp(-2.0 * (1.0 + tau * tau) / (c * tau + S))
            - math.e * abs(s) * tau * tau)


def roots_at_kappa(c: float, h: float, params: ModelParams) -> RootsAtKappa:
    """Real roots at the positive equilibrium.

    mu1 always exists (chi_kappa(0) < 0 < chi_kappa(+inf)); the two negative
    roots exist exactly when _dkappa_margin is positive, and chi_kappa's
    peak on the negative axis (a Lambert W closed form) separates them.
    At h = 0 the function is a quadratic, mu3 is reported absent and the
    region flag is True for every c.  0 < c h < 1e-70 raises DomainError.
    """
    _check_c_h(c, h)
    s = params.slope_kappa
    mu1 = _mu1(c, h, s)
    if h == 0.0:
        mu2 = 0.5 * (c - np.sqrt(c * c + 4.0 * (1.0 - s)))
        return RootsAtKappa(mu1, mu2, None, in_region_Dkappa=True)
    if c * h < _TAU_FLOOR:
        raise DomainError(f"c*h = {c * h!r} is below {_TAU_FLOOR:g}: mu3 overflows")
    if _dkappa_margin(c, c * h, s) <= 0.0:
        return RootsAtKappa(mu1, None, None, in_region_Dkappa=False)
    f = lambda z: eval_char(z, c, h, s)
    zpk = _critical_point(c, c * h, s, -1)
    if f(zpk) <= 0.0:
        # the margin is positive by rounding alone: one double root at the peak
        return RootsAtKappa(mu1, zpk, zpk, True)
    # step away from the peak by 1/tau, 2/tau, 4/tau, ...: e^{-z tau} grows by
    # e, e^2, e^4, ... over its value at the peak, so the first negative chi
    # comes before exp overflows
    d = 1.0 / (c * h)
    while f(zpk - d) > 0.0:
        d *= 2.0
    lo = zpk - d
    # chi <= z^2 - c z - 1 - |s| on z < 0, so mu2 <= q, that quadratic's
    # negative root; bracketing from q keeps Brent's steps few when zpk lies
    # decades further left (tiny c h)
    q = 0.5 * (c - math.sqrt(c * c + 4.0 * (1.0 + abs(s))))
    if f(q) >= 0.0:
        mu2 = _chi_root(q, -1e-15, c, h, s)
    else:
        a = 2.0 * q
        while a > zpk and f(a) <= 0.0:
            a *= 2.0
        mu2 = _chi_root(max(a, zpk), q, c, h, s)
    return RootsAtKappa(mu1, mu2, _chi_root(lo, zpk, c, h, s), True)


def double_root_speed(h: float, slope: float) -> tuple[float, float]:
    """Speed c at which the characteristic function has a double positive root.

    Returns (c, z_double).  The minimum of chi over z, F(c) = chi(z_min(c); c)
    with z_min the Lambert W critical point, strictly decreases in c from
    slope - 1 > 0 at c = 0 to below zero at the non-delayed speed
    c0 = 2*sqrt(slope-1); one Brent solve (_root) on it finds its zero.  At
    h = 0, and at delays so small that F(c0) rounds to >= 0 (0 < h < ~2e-17
    for some slopes), the speed is c0 to rounding and the closed form
    c = c0, z = c0/2 is returned.  Delays above 1e20 raise DomainError.
    """
    if not slope > 1.0:
        raise DomainError("double_root_speed needs slope > 1")
    _check_h(h)
    if h > _H_MAX:
        raise DomainError(f"delay must be at most {_H_MAX:g}, got {h:g}")
    c0 = 2.0 * math.sqrt(slope - 1.0)
    F = lambda c: eval_char(_critical_point(c, c * h, slope, 0), c, h, slope)
    if h == 0.0 or F(c0) >= 0.0:
        return c0, 0.5 * c0
    c = _root(F, 0.0, c0)
    return c, _critical_point(c, c * h, slope, 0)


def h_star(slope_kappa: float) -> float:
    """Delay threshold: the unique h with |slope_kappa| * h * e^(h+1) = 1.

    In closed form h = W0(1 / (|slope_kappa| e)), W0 the principal branch
    of the Lambert W function, which _lambertw computes to within 1.3 ulps;
    the rounding of its argument can add about one more.
    """
    if not slope_kappa < 0.0:
        raise DomainError("slope_kappa must be negative")
    return _lambertw(1.0 / (abs(slope_kappa) * math.e))


def c_kappa_curve(h: float, params: ModelParams) -> float:
    """Upper boundary of the three-real-roots region for h > h_star.

    There chi_kappa has a double root z < 0; with a = |g'(kappa)| = 1 and
    y = -c h z, chi = chi' = 0 reads F(y) = a (y - 2) e^y + y/h - 2 = 0 and
    c = sqrt(2y / (a e^y - 1/h)) / h.  F is convex (F'' = a y e^y) with
    F(0) < 0 < F(3), so one solve on the fixed bracket [0, 3] finds its
    only root for every finite h, and c h -> rho_hat of limit_quantities as
    h -> inf.  As c ~ (h - h_star)^(-1/2), the rounding of y reaches it as
    ~eps/(h/h_star - 1): the relative error is below 1e-10 from
    h = h_star (1 + 1e-6) on, and below 2e-8 down to h_star (1 + 1e-9).
    """
    _check_h(h)
    hs = h_star(params.slope_kappa)
    if h <= hs:
        raise DomainError(f"c_kappa_curve is defined for h > h_star = {hs:.6g}")
    a = abs(params.slope_kappa)
    y = _root(lambda y: a * (y - 2.0) * math.exp(y) + y / h - 2.0, 0.0, 3.0)
    return math.sqrt(2.0 * y / (a * math.exp(y) - 1.0 / h)) / h


# -- root counting on a vertical line ----------------------------------------

_MIN_MODULUS = 1e-9
_MAX_NUDGES = 5
_NUDGE = 1e-6
# count_zeros_right_of refuses more monotone pieces of R' than this, about
# (c h / pi) sqrt(A + |B|): at (c, h, s) = (1, 2, -1) a piece cost 50-60 us
# from 699 to 38,118 pieces (x86-64 Xeon, Python 3.11, scipy 1.17), so the
# cap is ~5-6 s of work.
_MAX_PIECES = 100_000


def _flips(f, x):
    """Roots of f at its sign changes between the sorted nodes x (f monotone
    between neighbours), with f's sign, as +-1, just left of each."""
    pos = f(x) > 0.0
    i = np.flatnonzero(pos[:-1] != pos[1:])
    roots = [_root(f, x[j], x[j + 1]) for j in i]
    return np.array(roots), np.where(pos[i], 1.0, -1.0)


def count_zeros_right_of(c: float, h: float, slope: float, re_lo: float) -> int:
    """Number of characteristic zeros with Re z > re_lo, by Stepan's formula.

    On the line z = re_lo + i w, chi = R(w) + i S(w) with tau = c h,
    A = re_lo^2 - c re_lo - 1, B = s e^{-re_lo tau},
    R = A - w^2 + B cos(w tau) and S = (2 re_lo - c) w - B sin(w tau).
    arg chi turns by pi (1 - N) as w runs over (0, inf), so
    N = 1 - sum_k sgn R(rho_k - 0) sgn S(rho_k) over the sign changes
    0 < rho_1 < rho_2 < ... of R (Stepan 1989), all below sqrt(A + |B|).
    R'' = -2 - B tau^2 cos(w tau) vanishes in closed form; R' is monotone
    between those zeros and R between the bracketed zeros of R', so every
    rho_k is bracketed with certainty.  A zero on (or hugging) the line
    moves it left by 1e-6 steps, a bounded number of times.  Past
    r + 1, r = (c + sqrt(c^2 + 4(1 + |B|)))/2, |z^2 - c z - 1| > |B|
    leaves no zero and the answer is 0.  (c, h) outside _check_c_h, a
    slope or re_lo that is not finite, an overflowing e^{-re_lo tau} or over
    _MAX_PIECES monotone pieces raise DomainError.
    """
    _check_c_h(c, h)
    if not (math.isfinite(slope) and math.isfinite(re_lo)):
        raise DomainError(f"slope and re_lo must be finite, got {slope} and {re_lo}")
    tau = c * h
    try:
        E = math.exp(-(re_lo - _MAX_NUDGES * _NUDGE) * tau)
    except OverflowError:
        raise DomainError(f"e^(-re_lo c h) overflows at re_lo c h = {re_lo * tau:.4g}") from None
    if re_lo >= 1.0 + 0.5 * (c + math.sqrt(c * c + 4.0 * (1.0 + abs(slope) * E))):
        return 0
    for nudge in range(_MAX_NUDGES + 1):
        lo = re_lo - nudge * _NUDGE
        A = lo * lo - c * lo - 1.0
        B = slope * math.exp(-lo * tau)
        tol = _MIN_MODULUS * (1.0 + abs(A) + abs(B))
        if abs(A + B) < tol:
            continue
        top = math.sqrt(max(A + abs(B), 0.0)) + 1.0
        turns = np.empty(0)
        if abs(B) * tau * tau >= 2.0:
            n = top * tau / math.pi
            if n > _MAX_PIECES:
                raise DomainError(f"~{n:.3g} monotone pieces of R' exceed {_MAX_PIECES}")
            # R'' = 0 where w tau = 2 pi j +- acos(-2 / (B tau^2))
            j = 2.0 * math.pi * np.arange(math.ceil(0.5 * n) + 2)
            th = math.acos(-2.0 / (B * tau * tau))
            turns = np.concatenate([j + th, j - th]) / tau
        nodes = np.unique(np.clip(np.append(turns, [0.0, top]), 0.0, top))
        dR = lambda w: -2.0 * w - B * tau * np.sin(w * tau)
        nodes = np.union1d(nodes, _flips(dR, nodes)[0])
        rho, left = _flips(lambda w: A - w * w + B * np.cos(w * tau), nodes)
        S = (2.0 * lo - c) * rho - B * np.sin(rho * tau)
        if np.any(np.abs(S) < tol):
            continue
        return int(1.0 - np.sum(left * np.sign(S)))
    raise AccuracyError("a characteristic zero sits on the line after max nudges")
