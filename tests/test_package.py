import importlib
import math

import pytest

from delayfronts import DomainError, ModelParams, SimConfig, toyfront


# bench/tracer.py resolves every exported name with getattr
@pytest.mark.parametrize("module", ["delayfronts", "delayfronts.chareq", "delayfronts.toyfront",
                                    "delayfronts.kernels", "delayfronts.pdesim",
                                    "delayfronts.speedcurves"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("k", [1.0, 3.0, math.nan])
@pytest.mark.parametrize("entry", [
    ModelParams.toy,
    lambda k: SimConfig(h=0.5, k=k, t_end=1.0),
    toyfront.nondelay_minimal_speed,
    lambda k: toyfront.minimal_speed(0.5, k),
    toyfront.limit_quantities,
], ids=["ModelParams.toy", "SimConfig", "nondelay_minimal_speed", "minimal_speed",
        "limit_quantities"])
def test_k_domain_checked_with_one_message(entry, k):
    with pytest.raises(DomainError, match=r"^k must lie in \(1, 3\), got "):
        entry(k)
