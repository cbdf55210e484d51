"""Numerical laboratory for traveling fronts of the delayed monostable
reaction-diffusion equation u_t = u_xx - u + g(u(t-h, x)).

Subpackages: chareq (characteristic quasi-polynomial roots and critical
speeds), speedcurves (phase-diagram curves over the delay), toyfront
(explicit fronts of the piecewise-linear model), kernels (fundamental
solutions and the monotone front operator), pdesim (Crank-Nicolson
simulation), cli (command-line surface).
"""

__version__ = "0.1.0"

from .chareq import (
    ModelParams,
    RootsAtKappa,
    RootsAtZero,
    c_kappa_curve,
    count_zeros_right_of,
    double_root_speed,
    eval_char,
    h_star,
    roots_at_kappa,
    roots_at_zero,
)
from .errors import AccuracyError, DomainError
from .kernels import KernelGrid, N_kernel, apply_N_operator, psi_kernel, theta_kernel
from .pdesim import SimConfig, SimResult, init_cauchy, cn_step, run
from .speedcurves import SpeedCurveSample, c_bound_curve, sample_curves
from .toyfront import (
    LimitQuantities,
    WaveProfile,
    amplitude_p,
    build_profile,
    limit_quantities,
    minimal_speed,
    oscillation_threshold,
    pushed_to_pulled_delay,
    ratio_T,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "DomainError",
    "ModelParams",
    "RootsAtKappa",
    "RootsAtZero",
    "KernelGrid",
    "LimitQuantities",
    "SimConfig",
    "SimResult",
    "SpeedCurveSample",
    "WaveProfile",
    "amplitude_p",
    "apply_N_operator",
    "build_profile",
    "c_bound_curve",
    "c_kappa_curve",
    "cn_step",
    "count_zeros_right_of",
    "double_root_speed",
    "eval_char",
    "h_star",
    "init_cauchy",
    "limit_quantities",
    "minimal_speed",
    "N_kernel",
    "oscillation_threshold",
    "psi_kernel",
    "pushed_to_pulled_delay",
    "ratio_T",
    "roots_at_kappa",
    "roots_at_zero",
    "run",
    "sample_curves",
    "theta_kernel",
]
