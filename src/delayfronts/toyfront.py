"""Explicit wavefronts of the piecewise-linear model.

The birth law g(u) = k*u on [0, 1), 4 - u on [1, inf) (slope k in (1, 3),
positive equilibrium 2) admits closed-form front profiles: a two-exponential
tail up to the junction phi(-c h) = 1 and a delayed linear continuation
beyond it.  Killing the unstable mode of the continuation fixes the tail
amplitude p and, at the minimal speed, the selection equation

    lambda1(c) / mu1(c) = (3 - k) / 4

whose root (when it exists) is the pushed minimal speed.  This module
computes the minimal speed (one bracketed root of a convex function of
q = c mu1), the amplitude, full profiles with structural diagnostics, the
pushed-to-pulled and oscillation thresholds in the delay, and the
large-delay limit quantities.

With a = q h = c h mu1 the selection equation is linear in q:
q(a) = [T^2 (1 + e^{-a}) + k e^{-Ta} - 1] / (T (1 - T)), T = (3-k)/4, with
h = a/q, mu1 = sqrt(1 + q + e^{-a}), c = q/mu1.  As a runs over (0, a_max),
a_max < ln((T^2 + k)/(1 - T^2))/T the zero of q, h rises from 0 to inf.
Each threshold is one root in a: of G(a) = mu1 chi_0'(T mu1) (pushed while
G > 0) or of P(a), with the sign of chi_kappa at its negative-axis peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chareq
from .chareq import ModelParams
from .errors import AccuracyError, DomainError

__all__ = [
    "WaveProfile",
    "LimitQuantities",
    "birth_rate",
    "ratio_T",
    "minimal_speed",
    "amplitude_p",
    "build_profile",
    "limit_quantities",
    "pushed_to_pulled_delay",
    "oscillation_threshold",
]

_EPS = np.finfo(float).eps
# _stop_time: the unstable mode is projected out, but past where it has grown
# by this over eps its seed outgrows a decaying tail such as psi's
_UNSTABLE_TOL = 1e-8
_CRITICAL_GAP = 1e-8
# build_profile's residual gate and the smallest steps that can pass it: the
# five-point phi'' sums phi values over 12 dt^2, so its round-off is of order
# eps/(12 dt^2).  Measured residual * dt^2: 1.30-3.2 eps on 240 full windows
# (k = 1.05-2.99, h = 0-6, two speeds each, dt from 1.3e-5 to the default),
# so none passes below _DT_FLOOR_FULL = 1.7e-5; down to 0.11 eps on windows
# t_max cuts to a few nodes (passing at dt = 8e-6), and below _DT_FLOOR =
# 4.3e-6 even those fail.  A failing residual under _ROUNDOFF_MAX eps/dt^2
# is round-off, which a finer step only raises.
_RESIDUAL_TOL = 1e-6
_ROUNDOFF_MAX = 8.0
_DT_FLOOR = math.sqrt(_EPS / (12.0 * _RESIDUAL_TOL))
_DT_FLOOR_FULL = math.sqrt(1.29 * _EPS / _RESIDUAL_TOL)


def birth_rate(u, k: float, out=None):
    """The piecewise-linear birth law (discontinuous at u = 1): k u below 1,
    4 - u elsewhere (NaN included), as a float array, or a scalar for a
    scalar u.  Given out, a float64 array of u's shape that does not
    overlap u, the values are written there and out is returned.

    4 - u is written everywhere and k u over it where u < 1: the bits of
    np.where(u < 1, k u, 4 - u) without its three temporaries.
    """
    u = np.asarray(u)
    given = out is not None
    out = np.subtract(4.0, u, out=out if given else np.empty(u.shape))
    np.multiply(u, k, out=out, where=u < 1.0)
    return out if given or out.ndim else out[()]


def _tail_roots(c: float, h: float, k: float) -> tuple[float, float, float]:
    """(lambda1, lambda2, mu1) at speed c; DomainError below the linear speed."""
    r0 = chareq.roots_at_zero(c, h, ModelParams.toy(k))
    if not r0.exists:
        raise DomainError(f"c={c} is below the linear speed at h={h}")
    return r0.lambda1, r0.lambda2, chareq._mu1(c, h, -1.0)  # g'(kappa) = -1


def ratio_T(c: float, h: float, k: float) -> float:
    """lambda1(c, h) / mu1(c, h); increasing in both c and h."""
    lam1, _, mu1 = _tail_roots(c, h, k)
    return lam1 / mu1


def minimal_speed(h: float, k: float) -> tuple[float, str]:
    """Minimal wavefront speed of the delayed model and its regime.

    With q = c mu1, chi_kappa(mu1) = 0 reads mu1^2 = 1 + q + e^{-qh}, and
    putting lambda = T mu1 (T = (3-k)/4) into chi_0 leaves one equation in q:

        F(q) = T^2 (1 + q + e^{-qh}) - T q - 1 + k e^{-T q h} = 0.

    F is convex (F'' = T^2 h^2 (e^{-qh} + k e^{-Tqh}) >= 0), positive at
    F(0) = 2T^2 + k - 1 and F(q) <= F(0) - T(1-T) q, so its one root lies in
    (0, 2F(0)/(T(1-T))), where one Brent solve (chareq._root) finds it; then
    mu1 = sqrt(1 + q + e^{-qh}) and c = q/mu1.  If chi_0 rises at T mu1,
    that zero is lambda1 and solves the selection equation: the front is
    pushed at speed c.  Otherwise it is lambda2, no speed solves the
    selection equation, and the linear speed is minimal (pulled).
    """
    chareq._check_h(h)
    chareq._check_k(k)
    T = (3.0 - k) / 4.0
    F0 = 2.0 * T * T + k - 1.0
    F = lambda q: (
        T * T * (1.0 + q + math.exp(-q * h)) - T * q - 1.0 + k * math.exp(-T * q * h)
    )
    q = chareq._root(F, 0.0, 2.0 * F0 / (T * (1.0 - T)))
    mu1 = math.sqrt(1.0 + q + math.exp(-q * h))
    c = q / mu1
    if chareq.eval_char_dz(T * mu1, c, h, k) > 0.0:
        return c, "pushed"
    return chareq.double_root_speed(h, k)[0], "pulled"


def amplitude_p(c: float, h: float, k: float) -> float:
    """Amplitude of the slow tail mode of the normalized profile.

        p = [s / (1+k)] * (mu1 - lam2) / (lam1 - lam2),  s = 4 lam1/mu1 - (3-k)

    s is zero at the pushed minimal speed and negative below it (no
    wavefront: raises); |s| <= 4e-12, i.e. |ratio_T - T| <= 1e-12, is
    rounding and gives p = 0.0, before the second factor can amplify it.
    As lam1 -> lam2 the formula turns 0/0-like: a gap under 1e-8 is refused.
    """
    return _amplitude(k, *_tail_roots(c, h, k))


def _amplitude(k: float, lam1: float, lam2: float, mu1: float) -> float:
    """amplitude_p from the tail roots at c."""
    if abs(lam1 - lam2) < _CRITICAL_GAP:
        # 0/0-adjacent: the critical profile takes a different functional
        # form, which this builder deliberately does not extrapolate
        raise DomainError("too close to critical: lambda1 - lambda2 under 1e-8")
    s = 4.0 * lam1 / mu1 - (3.0 - k)
    if s < -4e-12:
        raise DomainError(
            f"speed below minimal: selection factor {s:.3e} < 0, no wavefront"
        )
    if s <= 4e-12:
        return 0.0
    return s / (1.0 + k) * (mu1 - lam2) / (lam1 - lam2)


def _tail(t, ch, p, lam1, lam2, order=0):
    """d^order/dt^order of the tail p e^{lam2 (t+ch)} + (1-p) e^{lam1 (t+ch)}."""
    s = np.asarray(t) + ch  # a numpy scalar for scalar t
    return p * lam2**order * np.exp(lam2 * s) + (1 - p) * lam1**order * np.exp(lam1 * s)


@dataclass
class WaveProfile:
    """A front profile: analytic two-exponential tail plus numeric continuation.

    The tail p*e^{lam2(t+ch)} + (1-p)*e^{lam1(t+ch)} holds for t <= 0 with
    the normalization phi(-ch) = 1; the numeric segment continues the
    delayed linear equation phi'' - c phi' - phi + 4 - phi(t-ch) = 0 on
    [0, terminal_time] by one-step RK4 with Hermite-interpolated delayed
    values, its e^{mu1 t} mode projected out of phi and dphi (h = 0: closed form).
    in_region_Dkappa is True when chi_kappa has two negative roots
    at c (chareq._dkappa_margin > 0), and classification is read from it:
    "monotone" inside D_kappa, "oscillatory" outside it, where phi - 2
    changes sign without end, however slowly.  settle_offset is the least
    |phi - 2| on the trailing half of the numeric segment.  residual_max is
    the worst scaled equation residual |R|/(1+|phi|) from independent
    five-point stencils (windows of 2.5 steps around the derivative kinks at
    t = 0, ch, 2ch are excluded; the analytic tail satisfies the equation
    identically).
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
    in_region_Dkappa: bool
    settle_offset: float

    @property
    def classification(self) -> str:
        """The spectral class: "monotone" inside D_kappa, else "oscillatory"."""
        return "monotone" if self.in_region_Dkappa else "oscillatory"

    def tail(self, t):
        """Analytic tail phi(t) for t <= 0."""
        return _tail(t, self.c * self.h, self.p, self.lambda1, self.lambda2)

    def tail_deriv(self, t):
        return _tail(t, self.c * self.h, self.p, self.lambda1, self.lambda2, 1)

    def __call__(self, t):
        """Profile value anywhere: tail, linear interpolation, or the limit 2."""
        t = np.asarray(t, dtype=float)
        out = np.where(
            t <= 0.0,
            self.tail(np.minimum(t, 0.0)),
            np.interp(t, self.t, self.phi, right=2.0),
        )
        return out[()] if out.ndim == 0 else out


def _delay_rk4(r, s, const, w, a0, b0, dt, n, m, history):
    """Method of steps for a scalar delayed linear equation by classical RK4.

    Integrates a'' = r a' + s a + const + w a(t - m dt), m >= 1, in (a, b = a')
    from (a0, b0) at t = 0 over n steps of dt.  history holds a at the 2m + 1
    half steps -m dt, (-m + 1/2) dt, ..., 0, read while t - m dt < 0.  After
    that, a(t - m dt) is read from the stored nodes (a, a') by cubic Hermite
    interpolation.  t - m dt = 0 is reached from the left (the k4 stage of
    step m - 1 reads history[2m]) and then from the right (the k1 stage of
    step m reads node 0), so a jump of a at t = 0 is seen correctly.  Returns
    the node values of a and a', n + 1 of each.
    """
    # plain floats: the same IEEE arithmetic as numpy scalars, done faster
    r, s, const, w, dt = (float(x) for x in (r, s, const, w, dt))
    history = np.asarray(history, dtype=float).tolist()
    av, bv = float(a0), float(b0)
    a, b = [av], [bv]
    half, sixth, herm = 0.5 * dt, dt / 6.0, 0.125 * dt
    for i in range(n):
        # delayed values at the start, the midpoint and the end of the step
        j = i - m
        if j < 0:
            d1, d2, d4 = history[2 * i : 2 * i + 3]
        else:
            d1, d4 = a[j], a[j + 1]
            d2 = 0.5 * d1 + herm * b[j] + 0.5 * d4 - herm * b[j + 1]
        k1 = r * bv + s * av + const + w * d1
        a2, b2 = av + half * bv, bv + half * k1
        k2 = r * b2 + s * a2 + const + w * d2
        a3, b3 = av + half * b2, bv + half * k2
        k3 = r * b3 + s * a3 + const + w * d2
        a4, b4 = av + dt * b3, bv + dt * k3
        k4 = r * b4 + s * a4 + const + w * d4
        av += sixth * (bv + 2.0 * b2 + 2.0 * b3 + b4)
        bv += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a.append(av)
        b.append(bv)
    return np.array(a), np.array(b)


def _mode_part(y, dy, c, h, lam, dt, m, left=None):
    """The e^{lam t} part of y, a solution of y'' = c y' + y + y(t - ch), the
    linearization at kappa (g'(kappa) = -1), for a real root lam of its chi,
    on the nodes i dt (ch = m dt): a/chi'(lam), where the bilinear form
    (Hale & Verduyn Lunel 1993, ch. 7)

        a(t) = (lam - c) y + y' + int_{t-ch}^t e^{-lam (u - t + ch)} y(u) du

    obeys a' = lam a, is chi'(lam) e^{lam t} on that mode and 0 on the others.
    Over the nodes the integral is the trapezoid with the Euler-Maclaurin end
    correction, fourth order where y is C^1 with its kinks on nodes.  Before
    node 0 it is `left`; without it a' = lam a carries a back over [0, ch)
    from t = ch, and a run shorter than ch keeps its mode.
    """
    i = np.arange(len(y))
    lo = np.maximum(i - m, 0)
    w = np.exp(-lam * dt * np.arange(m, -1, -1))  # the weight at u = t - l dt
    wl, g = w[i - lo], dy - lam * y
    window = dt * (np.convolve(y, w)[: len(y)] - 0.5 * (w[0] * y + wl * y[lo]))
    window -= dt * dt / 12.0 * (w[0] * g - wl * g[lo])
    a = (lam - c) * y + dy + (window if left is None else window + left)
    if left is None:
        a[:m] = a[m] * np.exp(lam * dt * np.arange(-m, 0)) if len(y) > m else 0.0
    return a / chareq.eval_char_dz(lam, c, h, -1.0)


def _stop_time(mu1: float) -> float:
    """T_stop, the latest end of the profile's and psi's windows: where a
    rounding-size seed of e^{mu1 t} has grown to _UNSTABLE_TOL."""
    return np.log(_UNSTABLE_TOL / _EPS) / mu1


# psi, N and profile grids are refused above this many nodes, before
# allocation: peak memory measured 32 bytes per psi node and 53-56 per N node
# (1.3-7.2 million nodes at (c, h) = (0.05, 0.05) and (0.03, 0.03), k = 1.2)
# and 140 per profile node (0.1-0.5 million at c = 1, h = 0.5), so <= 1.4 GB
_MAX_NODES = 10_000_000


def _check_nodes(name: str, span: float, dt: float) -> None:
    """DomainError when a grid of step dt over span would exceed _MAX_NODES."""
    if not span <= _MAX_NODES * dt:
        raise DomainError(f"the {name} grid of step {dt:.3g} over {span:.4g} would exceed "
                          f"{_MAX_NODES:.0e} nodes; use a larger step or a shorter t_max")


def _check_positive(**values):
    """DomainError unless each value is None or > 0 (NaN is refused too)."""
    for name, x in values.items():
        if x is not None and not x > 0.0:
            raise DomainError(f"{name} must be positive, got {x}")


def build_profile(
    c: float,
    h: float,
    k: float,
    t_max: float | None = None,
    grid_step: float | None = None,
) -> WaveProfile:
    """Construct the wavefront profile at speed c >= minimal_speed(h, k).

    The continuation runs to T_stop = min(t_max, ln(1e-8/eps)/mu1).  What
    rounding and RK4's O(dt^4) truncation error seed in the unstable mode
    e^{mu1 t} is projected out of phi and phi' (_mode_part), in closed form
    at h = 0.  The default step ch/m satisfies step <= 1e-3 * max(1, 1/c); a
    user grid_step is snapped to the nearest exact divisor of ch.  Structural
    guarantees (checked on the projected phi): phi < 3 everywhere, phi > 1
    after the junction, scaled residual at or below 1e-6.  A grid_step or
    t_max that is not positive, or a step too fine for the residual check
    (below _DT_FLOOR_FULL on a full window, _DT_FLOOR on one t_max cuts), is
    a DomainError.
    """
    _check_positive(t_max=t_max, grid_step=grid_step)
    lam1, lam2, mu1 = _tail_roots(c, h, k)
    p = _amplitude(k, lam1, lam2, mu1)
    ch = c * h

    target = grid_step if grid_step else 1e-3 * max(1.0, 1.0 / c)
    m = max(16, int(np.ceil(ch / target))) if h > 0.0 else 0
    dt = ch / m if m else target
    T_stop = _stop_time(mu1)
    floor = _DT_FLOOR_FULL if t_max is None or t_max >= T_stop else _DT_FLOOR
    if dt < floor:
        raise DomainError(f"profile step {dt:.3g} is below the floor {floor:.2g}, "
                          "where round-off alone fails the residual check")
    if t_max is not None:
        T_stop = min(T_stop, t_max)
    _check_nodes("profile", T_stop + 2.0 * ch, dt)  # t and the 2m + 1 history half-steps
    n = max(int(np.ceil(T_stop / dt)), 8)
    t = dt * np.arange(n + 1)

    tail = lambda s: _tail(s, ch, p, lam1, lam2)
    # an overflowing tail (p rounded to 1 leaves 0 * inf) is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        phi0, v0 = tail(0.0), _tail(0.0, ch, p, lam1, lam2, 1)
        if m:
            # phi' = v, v' = c v + phi - 4 + phi(t - ch), the tail as history
            phi, v = _delay_rk4(c, 1.0, -4.0, 1.0, phi0, v0, dt, n, m,
                                tail(0.5 * np.arange(-2 * m, 1) * dt))
            # phi - 2 solves y'' = c y' + y + y(t - ch)
            mode = _mode_part(phi - 2.0, v, c, h, mu1, dt, m)
            phi, v = phi - mode, v - mu1 * mode
        else:
            # phi - 2 solves y'' = c y' + 2 y: without e^{mu1 t}, B e^{(c - mu1) t}
            B = (mu1 * (phi0 - 2.0) - v0) / (2.0 * mu1 - c)
            decay = B * np.exp((c - mu1) * t)
            phi, v = 2.0 + decay, (c - mu1) * decay

    # every gate below also fails on NaN
    bad = np.count_nonzero(~np.isfinite(phi))
    if bad:
        raise AccuracyError(
            f"profile is not finite at {bad} of {n + 1} nodes: lambda1 c h = "
            f"{lam1 * ch:.4g}, and the tail's e^(lambda1 (t + ch)) overflows above ~709"
        )
    residual_max = _profile_residual(t, phi, c, h, m, dt, tail)
    if not residual_max <= _RESIDUAL_TOL:
        advice = ("the step is too fine: this is round-off, use a larger grid_step"
                  if residual_max * dt * dt < _ROUNDOFF_MAX * _EPS else "use a smaller grid_step")
        raise AccuracyError(f"profile residual {residual_max:.2e} above 1e-6; {advice}")
    if not (phi.max() < 3.0 and phi0 < 3.0):
        raise AccuracyError("profile exceeded the a priori bound 3")
    interior = phi[1:] if h == 0.0 else phi  # h = 0 puts the junction at t = 0
    if not np.all(interior > 1.0):
        raise AccuracyError(
            "structural violation: continuation dipped to 1; no glued wavefront"
        )

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
        in_region_Dkappa=chareq._dkappa_margin(c, ch, -1.0) > 0.0,
        settle_offset=float(np.min(np.abs(phi[t >= 0.5 * t[-1]] - 2.0))),
    )


def _profile_residual(t, phi, c, h, m, dt, tail):
    """Worst scaled residual of the profile equation by five-point stencils."""
    n = len(t) - 1
    ch = c * h
    kinks = (0.0, ch, 2.0 * ch)
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
    dly = np.where(idx >= m, phi[np.maximum(idx - m, 0)], tail(np.minimum(idx - m, 0) * dt))
    r = d2 - c * d1 - phi[idx] + 4.0 - dly
    return float(np.max(np.abs(r) / (1.0 + np.abs(phi[idx]))))


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
    chareq._check_k(k)
    # e^{-w}(2 + w) = a  <=>  -(2 + w) e^{-(2 + w)} = -a / e^2: the positive
    # w_plus on W_{-1} (of -e^L, L = ln(2/k) - 2), the w_minus below -2 on W0
    w_plus = -2.0 - chareq._lambertw_m1(math.log(2.0 / k) - 2.0)
    rho = math.sqrt(w_plus * (2.0 + w_plus))
    lambda_inf = math.sqrt(1.0 + 1.0 / rho**2) - 1.0 / rho
    # the positive root of mu^2 - 1 = e^{-mu r}
    mu_of = lambda r: chareq._root(lambda x: x * x - 1.0 - np.exp(-x * r), 1.0, 50.0)
    w_minus = -2.0 - chareq._lambertw(2.0 / np.e**2)
    rho_hat = math.sqrt(w_minus * (2.0 + w_minus))
    mu_inf, mu_hat = mu_of(rho), mu_of(rho_hat)
    # f_hat is chi at c = 0, delay product rho_hat: its minimum is closed-form
    f_hat = lambda z: z * z - 1.0 + k * np.exp(-rho_hat * z)
    z_min = chareq._critical_point(0.0, rho_hat, k, 0)
    lambda_hat: float | None = None
    if f_hat(z_min) <= 0.0:
        lambda_hat = chareq._root(f_hat, z_min, 1.0)
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


def _pushed_branch(a: float, k: float) -> tuple[float, float, float, float]:
    """(q, h, mu1, c) at a = c h mu1 on the pushed candidate curve; h = inf at q = 0."""
    T = (3.0 - k) / 4.0
    q = (T * T * (1.0 + math.exp(-a)) + k * math.exp(-T * a) - 1.0) / (T * (1.0 - T))
    mu1 = math.sqrt(1.0 + q + math.exp(-a))
    return q, (a / q if q > 0.0 else math.inf), mu1, q / mu1


def _pushed_slope(a: float, k: float) -> float:
    """G(a) = mu1 chi_0'(T mu1): positive while the front is pushed."""
    T = (3.0 - k) / 4.0
    q = _pushed_branch(a, k)[0]
    return 2.0 * T * (1.0 + q + math.exp(-a)) - q - k * a * math.exp(-T * a)


def _pushed_end(k: float) -> tuple[float, bool]:
    """(a_p, True) at the one sign change of G on (0, a_max), else (a_max, False);
    G(0+) > 0 for k < 5/3, and q's zero a_max is bracketed in closed form."""
    if not 1.0 < k < 5.0 / 3.0:
        raise DomainError("the pushed-branch thresholds need k in (1, 5/3)")
    T = (3.0 - k) / 4.0
    bound = math.log((T * T + k) / (1.0 - T * T)) / T
    a_max = chareq._root(lambda a: _pushed_branch(a, k)[0], 0.0, bound)
    if _pushed_slope(a_max, k) >= 0.0:
        return a_max, False
    return chareq._root(_pushed_slope, 0.0, a_max, args=(k,)), True


def pushed_to_pulled_delay(k: float) -> float:
    """Smallest delay at which the minimal front stops being pushed: h(a_p),
    or +inf when G keeps its sign and the front is pushed for every delay."""
    a, pulled = _pushed_end(k)
    return _pushed_branch(a, k)[1] if pulled else math.inf


def oscillation_threshold(k: float) -> float | None:
    """Delay beyond which the minimal front oscillates around the equilibrium.

    h at the one root of P on (0, a_end), a_end = a_p or a_max (P(0) = 4/e);
    None when P(a_end) > 0: the front turns pulled, or stays pushed for
    every delay, inside D_kappa.
    """
    def P(a):  # positive while c lies in D_kappa
        _, _, mu1, c = _pushed_branch(a, k)
        return chareq._dkappa_margin(c, a / mu1, -1.0)

    a_end = _pushed_end(k)[0]
    if P(a_end) > 0.0:
        return None
    return _pushed_branch(chareq._root(P, 0.0, a_end), k)[1]
