import importlib
import math

import pytest

from delayfronts import DomainError, ModelParams, SimConfig, toyfront
from conftest import nondelay_minimal_speed

# The public surface.  A name that only tests call belongs in the tests, so
# adding one here should come with a command, a package caller or a README
# example that uses it.
PUBLIC = {
    "delayfronts": [
        "__version__", "AccuracyError", "DomainError", "ModelParams", "RootsAtKappa",
        "RootsAtZero", "KernelGrid", "LimitQuantities", "SimConfig", "SimResult",
        "SpeedCurveSample", "WaveProfile", "amplitude_p", "apply_N_operator", "build_profile",
        "c_bound_curve", "c_kappa_curve", "cn_step", "count_zeros_right_of",
        "double_root_speed", "eval_char", "h_star", "init_cauchy", "limit_quantities",
        "minimal_speed", "N_kernel", "oscillation_threshold", "psi_kernel",
        "pushed_to_pulled_delay", "ratio_T", "roots_at_kappa", "roots_at_zero", "run",
        "sample_curves", "theta_kernel",
    ],
    "delayfronts.chareq": [
        "ModelParams", "RootsAtZero", "RootsAtKappa", "eval_char", "eval_char_dz",
        "roots_at_zero", "roots_at_kappa", "double_root_speed", "h_star", "c_kappa_curve",
        "count_zeros_right_of",
    ],
    "delayfronts.toyfront": [
        "WaveProfile", "LimitQuantities", "birth_rate", "ratio_T", "minimal_speed",
        "amplitude_p", "build_profile", "limit_quantities", "pushed_to_pulled_delay",
        "oscillation_threshold",
    ],
    "delayfronts.kernels": [
        "KernelGrid", "theta_kernel", "psi_kernel", "N_kernel", "apply_N_operator",
    ],
    "delayfronts.pdesim": [
        "SimConfig", "SimState", "SimResult", "init_cauchy", "cn_step", "run",
    ],
    "delayfronts.speedcurves": [
        "SpeedCurveSample", "h_star", "c_bound_curve", "sample_curves",
    ],
}


# bench/tracer.py resolves every exported name with getattr
@pytest.mark.parametrize("module", list(PUBLIC))
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", list(PUBLIC))
def test_public_names_are_pinned(module):
    assert importlib.import_module(module).__all__ == PUBLIC[module]


@pytest.mark.parametrize("k", [1.0, 3.0, math.nan])
@pytest.mark.parametrize("entry", [
    ModelParams.toy,
    lambda k: SimConfig(h=0.5, k=k, t_end=1.0),
    nondelay_minimal_speed,
    lambda k: toyfront.minimal_speed(0.5, k),
    toyfront.limit_quantities,
], ids=["ModelParams.toy", "SimConfig", "nondelay_minimal_speed", "minimal_speed",
        "limit_quantities"])
def test_k_domain_checked_with_one_message(entry, k):
    with pytest.raises(DomainError, match=r"^k must lie in \(1, 3\), got "):
        entry(k)
