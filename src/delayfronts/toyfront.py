"""Explicit wavefronts of the piecewise-linear model.

The birth law g(u) = k*u on [0, 1), 4 - u on [1, inf) (slope k in (1, 3),
positive equilibrium 2) admits closed-form front profiles: a two-exponential
tail up to the junction phi(-c h) = 1 and a delayed linear continuation
beyond it.  Killing the unstable mode of the continuation fixes the tail
amplitude p and, at the minimal speed, the selection equation

    lambda1(c) / mu1(c) = (3 - k) / 4

whose root (when it exists) is the pushed minimal speed.  This module
computes the minimal speed, the amplitude, full profiles with structural
diagnostics, the pushed-to-pulled and oscillation thresholds in the delay,
and the large-delay limit quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

from . import chareq
from .chareq import ModelParams, h_star
from .errors import AccuracyError, DomainError

__all__ = [
    "ToyQuantities",
    "WaveProfile",
    "LimitQuantities",
    "birth_rate",
    "nondelay_minimal_speed",
    "ratio_T",
    "minimal_speed",
    "amplitude_p",
    "build_profile",
    "limit_quantities",
    "pushed_to_pulled_delay",
    "oscillation_threshold",
    "junction_derivative",
    "fit_tail_exponent",
]

_EPS = np.finfo(float).eps
# forward integration halts once rounding noise in the unstable direction
# could reach this size
_UNSTABLE_TOL = 1e-8
_CRITICAL_GAP = 1e-8
_SEARCH_CAP = 20.0


def birth_rate(u, k: float):
    """The piecewise-linear birth law (discontinuous at u = 1)."""
    u = np.asarray(u)
    out = np.where(u < 1.0, k * u, 4.0 - u)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class ToyQuantities:
    """The selection ratio and its target at one (c, h, k).

    The front at speed c is admissible iff ratio_T >= target, with equality
    exactly at the pushed minimal speed.
    """

    k: float
    ratio_T: float
    target: float

    @classmethod
    def at(cls, c: float, h: float, k: float) -> "ToyQuantities":
        return cls(k=k, ratio_T=ratio_T(c, h, k), target=(3.0 - k) / 4.0)


def nondelay_minimal_speed(k: float) -> tuple[float, str]:
    """Minimal speed of the non-delayed model.

    (1+k)/sqrt(2(3-k)) with a pushed front for k in (1, 5/3]; the linear
    value 2*sqrt(k-1) with a pulled front for k above 5/3.
    """
    if not 1.0 < k < 3.0:
        raise DomainError(f"k must lie in (1, 3), got {k}")
    if k <= 5.0 / 3.0:
        return (1.0 + k) / math.sqrt(2.0 * (3.0 - k)), "pushed"
    return 2.0 * math.sqrt(k - 1.0), "pulled"


def ratio_T(c: float, h: float, k: float) -> float:
    """lambda1(c, h) / mu1(c, h); increasing in both c and h."""
    params = ModelParams.toy(k)
    r0 = chareq.roots_at_zero(c, h, params)
    if not r0.exists:
        raise DomainError(f"c={c} is below the linear speed at h={h}")
    rk = chareq.roots_at_kappa(c, h, params)
    return r0.lambda1 / rk.mu1


def minimal_speed(h: float, k: float) -> tuple[float, str]:
    """Minimal wavefront speed of the delayed model and its regime.

    If the selection ratio at the linear speed is at most (3-k)/4 the
    selection equation has a root above c_sharp (unique, the ratio being
    increasing) and the front is pushed; otherwise the linear speed is
    minimal and the front is pulled.
    """
    if h < 0.0:
        raise DomainError("delay must be nonnegative")
    params = ModelParams.toy(k)
    c_sharp, _ = chareq.double_root_speed(h, k)
    target = (3.0 - k) / 4.0
    t0 = ratio_T(c_sharp * (1.0 + 1e-12), h, k)
    if t0 > target:
        return c_sharp, "pulled"
    hi = max(2.0 * c_sharp, 1.0)
    while ratio_T(hi, h, k) < target:
        hi *= 2.0
        if hi > 1e8:
            raise AccuracyError("selection equation bracket not found")
    c_star = brentq(
        lambda c: ratio_T(c, h, k) - target,
        c_sharp * (1.0 + 1e-12),
        hi,
        xtol=1e-13,
        rtol=4 * _EPS,
    )
    return c_star, "pushed"


def amplitude_p(c: float, h: float, k: float) -> float:
    """Amplitude of the slow tail mode of the normalized profile.

        p = [(4 lam1/mu1 - (3-k)) / (1+k)] * (mu1 - lam2) / (lam1 - lam2)

    Zero exactly at the pushed minimal speed; negative below it, which means
    no wavefront and raises.  Near the linear speed lam1 -> lam2 makes the
    formula 0/0-like, so a small gap is refused outright.
    """
    params = ModelParams.toy(k)
    r0 = chareq.roots_at_zero(c, h, params)
    if not r0.exists:
        raise DomainError(f"c={c} is below the linear speed at h={h}")
    lam1, lam2 = r0.lambda1, r0.lambda2
    if abs(lam1 - lam2) < _CRITICAL_GAP:
        # 0/0-adjacent: the critical profile takes a different functional
        # form, which this builder deliberately does not extrapolate
        raise DomainError("too close to critical: lambda1 - lambda2 under 1e-8")
    mu1 = chareq.roots_at_kappa(c, h, params).mu1
    p = (4.0 * lam1 / mu1 - (3.0 - k)) / (1.0 + k) * (mu1 - lam2) / (lam1 - lam2)
    if p < -1e-12:
        raise DomainError(
            f"speed below minimal: amplitude p={p:.3e} < 0, no wavefront"
        )
    # exactly zero at the pushed minimal speed; sub-1e-12 values are rounding
    return p if p >= 1e-12 else 0.0


def junction_derivative(c: float, h: float, k: float) -> float:
    """Closed-form profile slope at the junction, (1+k) phi'(-ch) =
    (3-k)(mu1 - lam1 - lam2) + 4 lam1 lam2 / mu1.  Positive for every
    admissible speed."""
    params = ModelParams.toy(k)
    r0 = chareq.roots_at_zero(c, h, params)
    if not r0.exists:
        raise DomainError(f"c={c} is below the linear speed at h={h}")
    lam1, lam2 = r0.lambda1, r0.lambda2
    mu1 = chareq.roots_at_kappa(c, h, params).mu1
    return ((3.0 - k) * (mu1 - lam1 - lam2) + 4.0 * lam1 * lam2 / mu1) / (1.0 + k)


@dataclass
class WaveProfile:
    """A front profile: analytic two-exponential tail plus numeric continuation.

    The tail p*e^{lam2(t+ch)} + (1-p)*e^{lam1(t+ch)} holds for t <= 0 with
    the normalization phi(-ch) = 1; the numeric segment continues the
    delayed linear equation phi'' - c phi' - phi + 4 - phi(t-ch) = 0 on
    [0, terminal_time] by one-step RK4 with Hermite-interpolated delayed
    values.  classification is "oscillatory" when phi - 2 changes sign more
    than once on the numeric segment.  residual_max is the worst scaled
    equation residual |R|/(1+|phi|) from independent five-point stencils
    (windows of 2.5 steps around the derivative kinks at t = 0, ch, 2ch are
    excluded; the analytic tail satisfies the equation identically).
    """

    c: float
    h: float
    k: float
    p: float
    lambda1: float
    lambda2: float
    mu1: float
    junction_time: float
    grid_step: float
    t: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)
    terminal_time: float
    residual_max: float
    classification: str
    sign_changes: int
    settle_window: tuple[float, float]
    settle_offset: float

    def tail(self, t):
        """Analytic tail phi(t) for t <= 0."""
        s = np.asarray(t) + self.c * self.h
        out = self.p * np.exp(self.lambda2 * s) + (1.0 - self.p) * np.exp(
            self.lambda1 * s
        )
        return out[()] if out.ndim == 0 else out

    def tail_deriv(self, t):
        s = np.asarray(t) + self.c * self.h
        out = self.p * self.lambda2 * np.exp(self.lambda2 * s) + (
            1.0 - self.p
        ) * self.lambda1 * np.exp(self.lambda1 * s)
        return out[()] if out.ndim == 0 else out

    def __call__(self, t):
        """Profile value anywhere: tail, linear interpolation, or the limit 2."""
        t = np.asarray(t, dtype=float)
        out = np.where(
            t <= 0.0,
            self.tail(np.minimum(t, 0.0)),
            np.interp(t, self.t, self.phi, right=2.0),
        )
        return out[()] if out.ndim == 0 else out


def _delay_rk4(coef, const, w, a0, b0, dt, n, m, history, halt=None):
    """Method of steps for a delayed linear 2x2 system by classical RK4.

    Integrates a' = p a + q b, b' = r b + s a + const + w a(t - m dt), with
    (p, q, s, r) = coef, from (a0, b0) at t = 0 over n steps of dt; m = 0
    means no delay (the last term reads a(t)).  While t - m dt < 0 the
    delayed value is history(x) = a(x dt) for the step offset x <= 0; the
    caller scales x by dt so that it fixes the rounding of its own history.
    After that, a(t - m dt) is read from the stored nodes (a, a') by cubic
    Hermite interpolation.  x = 0 is reached from the left (the k4 stage of
    step m - 1 reads history(0)) and then from the right (the k1 stage of
    step m reads node 0), so a jump of a at t = 0 is seen correctly.

    halt(i, a_i), if given, is called after each step with the new node and
    ends the integration there when it returns True.  Returns the node
    values of a and a' (n + 1 of each, or up to the halting node).
    """
    # plain floats: the same IEEE arithmetic as numpy scalars, done faster
    p, q, s, r = (float(x) for x in coef)
    const, w, dt = float(const), float(w), float(dt)
    av, bv = float(a0), float(b0)
    a, da = [av], [p * av + q * bv]
    half, sixth, herm = 0.5 * dt, dt / 6.0, 0.125 * dt
    for i in range(n):
        # delayed values at the start, the midpoint and the end of the step
        j = i - m
        if m and j < 0:
            d1, d2, d4 = float(history(j)), float(history(j + 0.5)), float(history(j + 1))
        elif m:
            d1, d4 = a[j], a[j + 1]
            d2 = 0.5 * d1 + herm * da[j] + 0.5 * d4 - herm * da[j + 1]
        k1a = da[i]
        k1b = r * bv + s * av + const + w * (av if m == 0 else d1)
        a2, b2 = av + half * k1a, bv + half * k1b
        k2a = p * a2 + q * b2
        k2b = r * b2 + s * a2 + const + w * (a2 if m == 0 else d2)
        a3, b3 = av + half * k2a, bv + half * k2b
        k3a = p * a3 + q * b3
        k3b = r * b3 + s * a3 + const + w * (a3 if m == 0 else d2)
        a4, b4 = av + dt * k3a, bv + dt * k3b
        k4a = p * a4 + q * b4
        k4b = r * b4 + s * a4 + const + w * (a4 if m == 0 else d4)
        av += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        bv += sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        a.append(av)
        da.append(p * av + q * bv)
        if halt is not None and halt(i + 1, av):
            break
    return np.array(a), np.array(da)


def build_profile(
    c: float,
    h: float,
    k: float,
    t_max: float | None = None,
    grid_step: float | None = None,
) -> WaveProfile:
    """Construct the wavefront profile at speed c >= minimal_speed(h, k).

    The continuation runs to T_stop = min(t_max, ln(1e-8/eps)/mu1): past
    that point rounding noise amplified along the unstable mode e^{mu1 t}
    could exceed 1e-8.  The default step ch/m satisfies
    step <= 1e-3 * max(1, 1/c); a user grid_step is snapped to the nearest
    exact divisor of ch.  Structural guarantees (checked, not assumed):
    phi < 3 everywhere, phi > 1 after the junction, scaled residual at or
    below 1e-6.
    """
    p = amplitude_p(c, h, k)
    params = ModelParams.toy(k)
    r0 = chareq.roots_at_zero(c, h, params)
    lam1, lam2 = r0.lambda1, r0.lambda2
    mu1 = chareq.roots_at_kappa(c, h, params).mu1
    ch = c * h

    if h > 0.0:
        target = grid_step if grid_step else 1e-3 * max(1.0, 1.0 / c)
        m = max(16, int(np.ceil(ch / target)))
        dt = ch / m
    else:
        dt = grid_step if grid_step else 1e-3 * max(1.0, 1.0 / c)
        m = 0
    T_stop = np.log(_UNSTABLE_TOL / _EPS) / mu1
    if t_max is not None:
        T_stop = min(T_stop, t_max)
    n = max(int(np.ceil(T_stop / dt)), 8)

    one_minus_p = 1.0 - p

    def tail(s):
        return p * np.exp(lam2 * (s + ch)) + one_minus_p * np.exp(lam1 * (s + ch))

    def tail_d(s):
        return p * lam2 * np.exp(lam2 * (s + ch)) + one_minus_p * lam1 * np.exp(
            lam1 * (s + ch)
        )

    # phi' = v, v' = c v + phi - 4 + phi(t - ch), the tail as history
    phi, v = _delay_rk4(
        (0.0, 1.0, 1.0, c), -4.0, 1.0, tail(0.0), tail_d(0.0), dt, n, m,
        lambda x: tail(x * dt),
    )
    t = dt * np.arange(n + 1)

    residual_max = _profile_residual(t, phi, c, h, k, m, dt, tail)
    if residual_max > 1e-6:
        raise AccuracyError(
            f"profile residual {residual_max:.2e} above 1e-6; use a smaller grid_step"
        )
    if phi.max() >= 3.0 or tail(0.0) >= 3.0:
        raise AccuracyError("profile exceeded the a priori bound 3")
    interior = phi[1:] if h == 0.0 else phi  # h = 0 puts the junction at t = 0
    if np.any(interior <= 1.0):
        raise AccuracyError(
            "structural violation: continuation dipped to 1; no glued wavefront"
        )

    sgn = np.sign(phi - 2.0)
    nz = sgn != 0.0
    changes = int(np.sum(sgn[:-1][nz[:-1] & nz[1:]] * sgn[1:][nz[:-1] & nz[1:]] < 0.0))
    classification = "oscillatory" if changes > 1 else "monotone"
    win = t >= 0.5 * t[-1]
    settle = float(np.min(np.abs(phi[win] - 2.0)))

    return WaveProfile(
        c=c,
        h=h,
        k=k,
        p=p,
        lambda1=lam1,
        lambda2=lam2,
        mu1=mu1,
        junction_time=-ch,
        grid_step=dt,
        t=t,
        phi=phi,
        dphi=v,
        terminal_time=t[-1],
        residual_max=residual_max,
        classification=classification,
        sign_changes=changes,
        settle_window=(0.5 * t[-1], t[-1]),
        settle_offset=settle,
    )


def _profile_residual(t, phi, c, h, k, m, dt, tail):
    """Worst scaled residual of the profile equation by five-point stencils."""
    n = len(t) - 1
    ch = c * h
    kinks = (0.0, ch, 2.0 * ch) if h > 0.0 else (0.0,)
    idx = np.arange(2, n - 1)
    ti = t[idx]
    ok = np.ones(len(idx), dtype=bool)
    for tk in kinks:
        ok &= np.abs(ti - tk) > 2.5 * dt
    idx = idx[ok]
    if idx.size == 0:
        return 0.0
    w = np.stack([phi[idx + o] for o in (-2, -1, 0, 1, 2)])
    d2 = (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) / (12.0 * dt * dt)
    d1 = (w[0] - 8.0 * w[1] + 8.0 * w[3] - w[4]) / (12.0 * dt)
    if h == 0.0:
        dly = phi[idx]
    else:
        dly = np.where(idx >= m, phi[np.maximum(idx - m, 0)], tail((idx - m) * dt))
    r = d2 - c * d1 - phi[idx] + 4.0 - dly
    return float(np.max(np.abs(r) / (1.0 + np.abs(phi[idx]))))


def fit_tail_exponent(profile: WaveProfile, rel_floor: float = 1e-9) -> float:
    """Least-squares decay exponent of log phi over a far-tail window.

    The window is pushed left until the subdominant tail mode is below
    rel_floor relative, so the fitted slope isolates the dominant exponent:
    lambda1 for the pushed profile (p = 0), lambda2 above the minimal speed.
    """
    ch = profile.c * profile.h
    lam1, lam2, p = profile.lambda1, profile.lambda2, profile.p
    if p == 0.0:
        left = -ch - 10.0
    else:
        # (1-p)/p * e^{(lam1-lam2) s} <= rel_floor at the window's right edge
        s_hi = min(0.0, np.log(rel_floor * p / max(1.0 - p, _EPS)) / (lam1 - lam2))
        left = s_hi - ch - 10.0
    ts = np.linspace(left, left + 10.0, 200)
    ys = np.log(profile.tail(ts))
    slope = np.polyfit(ts, ys, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class LimitQuantities:
    """Large-delay limits of the selection ratios.

    Along the linear-speed curve the products c*h converge, and the scaled
    characteristic equations below pin the limiting roots:

        e^{-w+}(2 + w+) = 2/k,   rho  = sqrt(w+(2 + w+)),
        lambda_inf = sqrt(1 + 1/rho^2) - 1/rho,
        mu_inf^2 - 1 = e^{-mu_inf rho}                    (positive root),

    and along the region boundary with rho_hat = sqrt(w-(2 + w-)),
    e^{-w-}(2 + w-) = -2:

        lambda_hat_inf^2 - 1 + k e^{-rho_hat lambda_hat_inf} = 0,
        mu_hat_inf^2 - 1 = e^{-mu_hat_inf rho_hat}          (positive root).

    The lambda_hat equation has no real root once the linear-speed and
    region-boundary curves intersect (for the piecewise model, k above
    about 1.12); lambda_hat_inf and T2_inf are then None.
    """

    w_plus: float
    rho: float
    lambda_inf: float
    mu_inf: float
    T1_inf: float
    w_minus: float
    rho_hat: float
    lambda_hat_inf: float | None
    mu_hat_inf: float
    T2_inf: float | None


def limit_quantities(k: float) -> LimitQuantities:
    if not 1.0 < k < 3.0:
        raise DomainError(f"k must lie in (1, 3), got {k}")
    rtol = 4 * _EPS
    # e^{-w}(2 + w) = a  <=>  -(2 + w) e^{-(2 + w)} = -a / e^2: the positive
    # w_plus on the W_{-1} branch, the w_minus below -2 on W0
    w_plus = float(-2.0 - lambertw(-2.0 / (k * np.e**2), -1).real)
    rho = math.sqrt(w_plus * (2.0 + w_plus))
    lambda_inf = math.sqrt(1.0 + 1.0 / rho**2) - 1.0 / rho
    mu_inf = brentq(
        lambda mq: mq * mq - 1.0 - np.exp(-mq * rho), 1.0, 50.0, xtol=1e-15, rtol=rtol
    )
    w_minus = float(-2.0 - lambertw(2.0 / np.e**2).real)
    rho_hat = math.sqrt(w_minus * (2.0 + w_minus))
    mu_hat = brentq(
        lambda mq: mq * mq - 1.0 - np.exp(-mq * rho_hat),
        1.0,
        50.0,
        xtol=1e-15,
        rtol=rtol,
    )
    # f_hat is chi at c = 0, delay product rho_hat: its minimum is closed-form
    f_hat = lambda z: z * z - 1.0 + k * np.exp(-rho_hat * z)
    z_min = chareq._critical_point(0.0, rho_hat, k, 0)
    lambda_hat: float | None = None
    if f_hat(z_min) <= 0.0:
        lambda_hat = brentq(f_hat, z_min, 1.0, xtol=1e-15, rtol=rtol)
    return LimitQuantities(
        w_plus=w_plus,
        rho=rho,
        lambda_inf=lambda_inf,
        mu_inf=mu_inf,
        T1_inf=lambda_inf / mu_inf,
        w_minus=w_minus,
        rho_hat=rho_hat,
        lambda_hat_inf=lambda_hat,
        mu_hat_inf=mu_hat,
        T2_inf=(lambda_hat / mu_hat) if lambda_hat is not None else None,
    )


def _T1(h: float, k: float) -> float:
    """Selection ratio along the linear-speed curve (lambda1 is the double root)."""
    c_sharp, z_dbl = chareq.double_root_speed(h, k)
    mu1 = chareq.roots_at_kappa(c_sharp, h, ModelParams.toy(k)).mu1
    return z_dbl / mu1


def pushed_to_pulled_delay(k: float) -> float:
    """Smallest delay at which the minimal front stops being pushed.

    Found by bisecting T1(h) = (3-k)/4 (T1 is numerically increasing);
    +inf when even the large-delay limit T1_inf stays below the target,
    so the front is pushed for every delay.
    """
    if not 1.0 < k < 5.0 / 3.0:
        raise DomainError("pushed_to_pulled_delay needs k in (1, 5/3)")
    target = (3.0 - k) / 4.0
    if limit_quantities(k).T1_inf < target:
        return math.inf
    lo, hi = 1e-9, 0.5
    while _T1(hi, k) < target:
        lo = hi
        hi *= 2.0
        if hi > _SEARCH_CAP:
            return math.inf
    return brentq(lambda h: _T1(h, k) - target, lo, hi, xtol=1e-6)


def _T2(h: float, k: float) -> float | None:
    """Selection ratio along the region boundary; None past the curve crossing."""
    params = ModelParams.toy(k)
    ck = chareq.c_kappa_curve(h, params)
    r0 = chareq.roots_at_zero(ck, h, params)
    if not r0.exists:
        return None
    return r0.lambda1 / chareq.roots_at_kappa(ck, h, params).mu1


def oscillation_threshold(k: float, cap: float = _SEARCH_CAP) -> float | None:
    """Delay beyond which the minimal front oscillates around the equilibrium.

    Solves T2(h) = (3-k)/4 along the region boundary, scanning h upward
    from just above h_star.  Returns None when no crossing exists below the
    cap (either T2 never reaches the target or the boundary curve crosses
    the linear-speed curve first).
    """
    if not 1.0 < k < 5.0 / 3.0:
        raise DomainError("oscillation_threshold needs k in (1, 5/3)")
    hs = h_star(-1.0)
    target = (3.0 - k) / 4.0
    h = hs * 1.02
    v = _T2(h, k)
    if v is None or v <= target:
        return None
    step = 0.1
    while h < cap:
        h2 = min(h + step, cap)
        v2 = _T2(h2, k)
        if v2 is None:
            return None
        if v2 <= target:
            return brentq(lambda x: _T2(x, k) - target, h, h2, xtol=1e-9)
        h = h2
    return None
