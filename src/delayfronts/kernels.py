"""Fundamental solutions of the linearization at the positive equilibrium.

With three real characteristic roots mu3 <= mu2 < 0 < mu1 the second-order
delayed operator

    (D y)(t) = y'' - c y' - y + g'(kappa) y(t - ch)

factors into first-order pieces D = D1 D2 = D2 D1 with

    (D1 y)(t) = y' - mu2 y,
    (D2 y)(t) = y' - (c - mu2) y
                - g'(kappa) e^{-ch mu2} * int_{-ch}^0 e^{-mu2 s} y(t+s) ds.

Their fundamental solutions are theta(t) = e^{mu2 t} (t >= 0) and the jump
kernel psi (negative, exponentially decaying both ways).  The convolution
N = psi * theta (negative, total mass 1/(g'(kappa)-1)) inverts D and drives
the monotone fixed-point operator of the front construction; it is computed
from its defining equation D1 N = psi, in closed form outside psi's forward
window and by one cumulative trapezoid inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chareq
from .chareq import ModelParams
from .errors import AccuracyError, DomainError
from .toyfront import (_check_nodes, _check_positive, _delay_rk4, _mode_part, _stop_time,
                       birth_rate)

__all__ = [
    "KernelGrid",
    "theta_kernel",
    "psi_kernel",
    "N_kernel",
    "apply_N_operator",
]

_SUPPORT_DECADES = 23.03  # e^-23.03 < 1e-10
_RELATIVE_FLOOR = 1e-13


@dataclass
class KernelGrid:
    """Uniform samples of a kernel, plus the jump size at t = 0.

    For psi the node at t = 0 stores the right limit and jump_at_zero is 1;
    N carries jump 0.  window_end says what ended psi's forward window:
    "t_max" (the caller's), "T_stop" (the unstable-mode rule,
    toyfront._stop_time) or "tail" (its e^{mu3 t} tail cutoff, and at h = 0,
    where psi vanishes past 0); it is None on N grids.
    """

    t: np.ndarray
    values: np.ndarray
    step: float
    jump_at_zero: float
    mu1: float
    mu2: float
    mu3: float | None
    window_end: str | None = None

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def index_of_zero(self) -> int:
        return int(np.searchsorted(self.t, 0.0))


def theta_kernel(t, mu2: float):
    """Fundamental solution of D1: e^{mu2 t} for t >= 0, zero before."""
    if not mu2 < 0.0:
        raise DomainError("mu2 must be negative")
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 0.0, np.exp(mu2 * np.where(t >= 0.0, t, 0.0)), 0.0)
    return out[()] if out.ndim == 0 else out


def _require_region(c: float, h: float, params: ModelParams) -> chareq.RootsAtKappa:
    roots = chareq.roots_at_kappa(c, h, params)
    if not roots.in_region_Dkappa:
        raise DomainError(
            f"(h={h}, c={c}) lies outside the three-real-roots region"
        )
    return roots


def psi_kernel(
    c: float,
    h: float,
    params: ModelParams,
    t_max: float | None = None,
    step: float | None = None,
) -> KernelGrid:
    """Fundamental solution of D2 on a uniform grid of step ch/m.

    For t < 0 the closed form amp e^{mu1 t}, amp = -(mu1-mu2)/chi'(mu1); past
    the unit jump at 0, psi solves D y = 0 from psi(0+) = 1 + amp, by RK4 in
    (psi, psi') (toyfront._delay_rk4).  mu2 is a root of chi, and psi'(0+),
    read from D2 psi(0+) = 0, sets psi's e^{mu2 t} part to zero.  What
    rounding and RK4 seed in e^{mu1 t} and e^{mu2 t} is projected out
    (toyfront._mode_part).  The window ends at min(t_max, tail cutoff,
    T_stop), and window_end names which; a step or t_max that is not
    positive is a DomainError.
    All samples are strictly negative (checked; the h = 0 limit, identically
    zero for t > 0, is exempt).
    """
    _check_positive(t_max=t_max, step=step)
    roots = _require_region(c, h, params)
    mu1, mu2, mu3 = roots.mu1, roots.mu2, roots.mu3
    gk = params.slope_kappa
    amp = -(mu1 - mu2) / chareq.eval_char_dz(mu1, c, h, gk)

    if h == 0.0:
        # chi'(mu1) = mu1 - mu2 for the quadratic, so psi(0+) = 0 and the
        # forward solution of y' = mu1 y vanishes identically
        dt, T_pos = (step if step else 0.005), (t_max if t_max else 1.0)
        _check_nodes("psi", _SUPPORT_DECADES / mu1 + T_pos, dt)
        n_neg = int(np.ceil(_SUPPORT_DECADES / mu1 / dt))
        n_pos = max(int(np.ceil(T_pos / dt)), 2)
        t = dt * np.arange(-n_neg, n_pos + 1)
        vals = np.where(t < 0.0, amp * np.exp(mu1 * t), 0.0)
        return KernelGrid(t, vals, dt, 1.0, mu1, mu2, None, "tail")

    ch = c * h
    T_tail, T_stop = 1.2 * _SUPPORT_DECADES / abs(mu3), _stop_time(mu1)
    T_end = min(T_tail, T_stop)
    T_pos = T_end if t_max is None else min(t_max, T_end)
    # psi's nodes and the 2m + 1 half steps of its history, at dt ~ min(step, ch/4)
    _check_nodes("psi", _SUPPORT_DECADES / mu1 + T_pos + 2.0 * ch,
                 ch / 200 if step is None else min(step, ch / 4))
    m = 200 if step is None else max(4, int(round(ch / step)))
    dt = ch / m
    n_pos = max(int(np.ceil(T_pos / dt)), 2)
    n_neg = int(np.ceil(_SUPPORT_DECADES / mu1 / dt))

    # the history amp e^{mu1 u}, u < 0, adds amp e^{lam (s - ch)} int_0^r
    # e^{(lam - mu1) v} dv to the bilinear form of the mode e^{lam t}
    s = dt * np.arange(n_pos + 1)
    r = np.maximum(ch - s, 0.0)
    left = {lam: amp * np.exp(lam * (s - ch)) * span
            for lam, span in ((mu1, r), (mu2, np.expm1((mu2 - mu1) * r) / (mu2 - mu1)))}
    psi0 = 1.0 + amp
    # y'' = c y' + y - g'(kappa) y(t - ch), and no e^{mu2 t} part at 0+
    y, dy = _delay_rk4(
        c, 1.0, 0.0, -gk, psi0, (c - mu2) * psi0 + gk * left[mu2][0], dt, n_pos, m,
        amp * np.exp(mu1 * (0.5 * np.arange(-2 * m, 1)) * dt),
    )
    y = y - sum(_mode_part(y, dy, c, h, lam, dt, m, left[lam]) for lam in left)

    t_neg = -dt * np.arange(n_neg, 0, -1)
    t = np.concatenate([t_neg, s])
    vals = np.concatenate([amp * np.exp(mu1 * t_neg), y])
    if np.any(vals >= 0.0):
        raise AccuracyError(
            "psi kernel lost strict negativity; refine the step"
        )
    end = "t_max" if T_pos < T_end else "T_stop" if T_stop < T_tail else "tail"
    return KernelGrid(t, vals, dt, 1.0, mu1, mu2, mu3, end)


def N_kernel(psi: KernelGrid, params: ModelParams) -> KernelGrid:
    """The convolution N = psi * theta on the grid of psi (from psi_kernel).

    N is the solution of D1 N = N' - mu2 N = psi that vanishes at -inf,
    continuous at 0 where psi jumps.  Before 0, psi = amp e^{mu1 t} with
    amp its left limit, so N = amp e^{mu1 t}/(mu1 - mu2) exactly.  On psi's
    forward window [0, T], N(t) = e^{mu2 t} (N(0) + int_0^t e^{-mu2 s}
    psi(s) ds), one cumulative trapezoid (second order in the step).  Past
    T, psi = a e^{mu3 t} (amplitude matched at its last sample; zero at
    h = 0), and N = e^{mu2 (t-T)} (N(T) - A) + A e^{mu3 (t-T)} with
    A = psi(T)/(mu3 - mu2), carried on until the e^{mu2 t} mode has decayed
    by e^{-23}.  The result is trimmed where it falls below 1e-13 of the
    peak, must stay strictly negative, and its trapezoid mass must
    reproduce 1/(g'(kappa)-1) to 1e-4 (AccuracyError otherwise).
    """
    dt, mu1, mu2 = psi.step, psi.mu1, psi.mu2
    n_neg = psi.index_of_zero()
    t_neg, s, fwd = psi.t[:n_neg], psi.t[n_neg:], psi.values[n_neg:]
    amp = fwd[0] - psi.jump_at_zero
    N_neg = amp * np.exp(mu1 * t_neg) / (mu1 - mu2)
    _check_nodes("N", len(psi.t) * dt + _SUPPORT_DECADES / abs(mu2), dt)
    f = np.exp(-mu2 * s) * fwd
    integral = dt * (np.cumsum(f) - 0.5 * (f[0] + f))
    N_fwd = np.exp(mu2 * s) * (amp / (mu1 - mu2) + integral)
    s_tail = dt * np.arange(1, int(np.ceil(_SUPPORT_DECADES / abs(mu2) / dt)) + 1)
    N_tail = N_fwd[-1] * np.exp(mu2 * s_tail)
    if psi.mu3 is not None:  # h > 0; at h = 0 psi vanishes past 0
        A = fwd[-1] / (psi.mu3 - mu2)
        N_tail += A * (np.exp(psi.mu3 * s_tail) - np.exp(mu2 * s_tail))
    t = np.concatenate([psi.t, s[-1] + s_tail])
    conv = np.concatenate([N_neg, N_fwd, N_tail])
    floor = _RELATIVE_FLOOR * np.max(np.abs(conv))
    keep = np.abs(conv) >= floor
    i0 = int(np.argmax(keep))
    i1 = len(keep) - int(np.argmax(keep[::-1]))
    t, conv = t[i0:i1], conv[i0:i1]
    if np.any(conv >= 0.0):
        raise AccuracyError("N kernel lost strict negativity; refine the step")
    mass = float(np.trapezoid(conv, t))
    expected = 1.0 / (params.slope_kappa - 1.0)
    if abs(mass - expected) > 1e-4:
        end = psi.window_end
        cause = ("refine the step" if end == "tail" else
                 f"{end} = {psi.t_max:.6g} cut psi before its e^(mu3 t) tail; "
                 + ("raise t_max" if end == "t_max" else "a finer step does not help"))
        raise AccuracyError(f"N normalization off: {mass:.6f} vs {expected:.6f}; {cause}")
    return KernelGrid(t, conv, dt, 0.0, mu1, mu2, psi.mu3)


def apply_N_operator(
    t_grid: np.ndarray,
    values: np.ndarray,
    c: float,
    h: float,
    params: ModelParams,
) -> np.ndarray:
    """The monotone integral operator of the front construction.

    Maps a sampled function with range inside [0, kappa] to

        (N_op f)(t) = int N(t - s) [g'(kappa) f(s - ch) - g(f(s - ch))] ds

    on the same grid, extending f by its boundary values outside the window
    (legitimate for bounded inputs).  Because N < 0 and the bracket is
    nonpositive, the output again lies in [0, kappa], and f <= g pointwise
    implies N_op f <= N_op g.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.min() < -1e-12 or values.max() > params.kappa + 1e-12:
        raise DomainError("input samples must lie in [0, kappa]")
    dt = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), dt, rtol=0.0, atol=1e-9 * dt):
        raise DomainError("input grid must be uniform")
    kern = N_kernel(psi_kernel(c, h, params, step=dt), params)
    dt = kern.step
    ch = c * h
    shift = int(round(ch / dt))
    # f(s - ch) on an extended grid covering the kernel support both ways
    pad = len(kern.t)
    ext = np.concatenate(
        [np.full(pad + shift, values[0]), values, np.full(pad, values[-1])]
    )
    w = params.slope_kappa * ext - birth_rate(ext, params.slope_zero)
    n = len(w) + len(kern.values) - 1  # zero-padded: a linear, not circular, convolution
    full = np.fft.irfft(np.fft.rfft(w, n) * np.fft.rfft(kern.values, n), n) * dt
    # index bookkeeping: ext[i] is f at t_grid[0] + (i - pad - shift) dt,
    # so w's sample j sits at time t0 + (j - pad) dt after the delay shift;
    # conv index n corresponds to time t0 + (n - pad - n_neg_kernel) dt
    n_neg = kern.index_of_zero()
    start = pad + n_neg
    out = full[start : start + len(values)]
    return np.clip(out, 0.0, params.kappa)
