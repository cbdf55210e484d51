import math

import numpy as np
import pytest
from hypothesis import settings

from delayfronts import ModelParams, c_kappa_curve, chareq, h_star

# reproducible examples and no per-example deadline on a loaded host
settings.register_profile("delayfronts", derandomize=True, deadline=None)
settings.load_profile("delayfronts")


@pytest.fixture(scope="session")
def toy12() -> ModelParams:
    return ModelParams.toy(1.2)


def sample_dkappa(rng: np.random.Generator, n: int):
    """Random (h, c) pairs from a representative box inside the
    three-real-roots region: h in [0.1, 3], c in [0.2, min(2.5, 0.8 c_kappa)].
    The 0.8 margin keeps the double-root pinch at the boundary away."""
    params = ModelParams.toy(1.2)
    hs = h_star(-1.0)
    out = []
    while len(out) < n:
        h = rng.uniform(0.1, 3.0)
        c_cap = 2.5 if h <= hs else min(2.5, 0.8 * c_kappa_curve(h, params))
        if c_cap <= 0.2:
            continue
        out.append((float(rng.uniform(0.2, c_cap)), float(h)))
    return out


def nondelay_minimal_speed(k: float) -> tuple[float, str]:
    """Minimal speed of the non-delayed model, the h = 0 oracle of minimal_speed.

    (1+k)/sqrt(2(3-k)) with a pushed front for k in (1, 5/3]; the linear
    value 2*sqrt(k-1) with a pulled front for k above 5/3.
    """
    chareq._check_k(k)
    if k <= 5.0 / 3.0:
        return (1.0 + k) / math.sqrt(2.0 * (3.0 - k)), "pushed"
    return 2.0 * math.sqrt(k - 1.0), "pulled"
