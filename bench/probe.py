"""Machine-speed probe: a reference slice timed every PROBE_INTERVAL_S.

The benchmark shares its host: the same pass takes up to ~45% longer when
other tenants are busy, in swings that last from under a second to minutes.
While a timed span runs, a SIGALRM every PROBE_INTERVAL_S runs one reference
slice, fixed float-to-text formatting that does not touch the package, and
times it.  The slices' own time is taken out of the span; their mean time gauges
how fast the machine ran over the span.  A span scaled by
REF_SLICE_S / (mean slice time) is the time it would have taken at the
machine's usual speed.  See NOTES.md, "Machine speed".

Imports only the standard library's signal and time, so a fresh interpreter
can load it before the package to time its import.
"""

import signal
import time

PROBE_INTERVAL_S = 0.02
# One reference slice formats these 700 floats of 17 significant digits.
# Of the slices tried (a pure-Python integer loop, a numpy gather over 8 MB,
# small numpy arithmetic, banded solves, mixes), this one tracked the
# machine's speed as the package's commands feel it most closely.
REF_VALUES = [(i * 0.6180339887498949) % 1.0 for i in range(1, 701)]
# A slice's usual time inside a pass on the 2.1 GHz Xeon the bounds were set on.
REF_SLICE_S = 0.7e-3


def reference_slice() -> float:
    """Time (s) of one reference slice."""
    t0 = time.perf_counter()
    ",".join(f"{v:.17g}" for v in REF_VALUES)
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager: samples slices while its block runs.

    ``samples`` holds the slice times and ``spent`` the time taken by the
    signal handler in all, slices included.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old_handler = None

    def _slice(self, signum, frame) -> None:
        if self._busy:  # a slow machine: the next tick came during this slice
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(reference_slice())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)


def scaled(elapsed: float, samples: list[float], spent: float) -> float:
    """A span of `elapsed` s, probed, without its slices and at the usual speed."""
    if not samples:
        raise RuntimeError("the speed probe took no sample")
    return (elapsed - spent) * REF_SLICE_S / (sum(samples) / len(samples))
