"""Call tracing for the benchmark, installed from outside the package.

The tracer wraps the public functions of the delayfronts modules and
records, per function, the call count, the inclusive time and the self
time (the span minus the spans of wrapped functions it called).  Several
modules bind functions by value at import time (``from .toyfront import
birth_rate`` in pdesim and kernels, ``from .chareq import h_star`` in
speedcurves and toyfront, and the package re-exports), so every module
attribute that holds a traced function is patched, each with its own
wrapper that also counts the calls made through that binding.
``uninstall`` restores every original.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("chareq", "toyfront", "kernels", "pdesim", "speedcurves", "cli")

# The characteristic function is the arithmetic primitive inside every root
# solve (~10^5 calls per sweep pass); its time stays in the self time of the
# solver that calls it.
SKIP = {"chareq.eval_char", "chareq.eval_char_dz"}


def traced_functions() -> dict:
    """Map "<module>.<fn>" to the original function object.

    Public means listed in the module's __all__ and defined there; the cli
    module has no __all__ and exposes ``main``.
    """
    out = {}
    for short in MODULES:
        mod = sys.modules[f"delayfronts.{short}"]
        for name in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, name)
            key = f"{short}.{name}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and key not in SKIP:
                out[key] = fn
    return out


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "delayfronts" or n.startswith("delayfronts.")) and m is not None]


class Tracer:
    def __init__(self):
        self.functions = traced_functions()
        self._by_id = {id(fn): key for key, fn in self.functions.items()}
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "toyfront.minimal_speed": (lambda: self.calls["toyfront.ratio_T"],
                                       self._after_minimal_speed),
            "pdesim.cn_step": (None, self._after_cn_step),
        }
        self.reset()

    def reset(self) -> None:
        """Zero every counter; called before each traced pass."""
        self.calls: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.pushed_solves = 0
        self.ratio_T_in_pushed = 0
        self.cells = 0
        self._stack = [0.0]

    def _after_minimal_speed(self, result, ratio_T_before) -> None:
        if result[1] == "pushed":
            self.pushed_solves += 1
            self.ratio_T_in_pushed += self.calls["toyfront.ratio_T"] - ratio_T_before

    def _after_cn_step(self, state, _) -> None:
        self.cells += int(state.u.size)

    def _wrap(self, key: str, binding: str, fn):
        perf = time.perf_counter
        before, after = self._hooks.get(key, (None, None))

        def wrapper(*args, **kwargs):
            token = before() if before else None
            stack = self._stack
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf() - t0
                child = stack.pop()
                stack[-1] += span
                self.self_s[key] += span - child
                self.incl_s[key] += span
                self.calls[key] += 1
                self.binding_calls[binding] += 1
            if after:
                after(result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def bindings(self) -> list[tuple[object, str, str]]:
        """(module, attribute, key) for every attribute holding a traced original."""
        out = []
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                key = self._by_id.get(id(val))
                if key is not None and val is self.functions[key]:
                    out.append((mod, attr, key))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod, attr, key in self.bindings():
            binding = f"{mod.__name__.rpartition('.')[2]}.{attr}"
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(key, binding, original))
            self._patched.append((mod, attr, original))

    def uninstall(self) -> int:
        """Restore every original; returns the number of bindings restored."""
        n = len(self._patched)
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return n

    # -- self-test -----------------------------------------------------------

    def check_installed(self) -> list[str]:
        """Problems with the patch: a binding left unwrapped or a wrapper lost."""
        problems = [f"unpatched binding {mod.__name__}.{attr}"
                    for mod, attr, _ in self.bindings()]
        for mod, attr, original in self._patched:
            if getattr(getattr(mod, attr), "__wrapped__", None) is not original:
                problems.append(f"binding {mod.__name__}.{attr} lost its wrapper")
        return problems

    def check_restored(self, n_bindings: int) -> list[str]:
        """Problems after uninstall: a wrapper left behind or an original lost."""
        problems = [f"wrapper left on {mod.__name__}.{attr}"
                    for mod in _package_modules()
                    for attr, val in vars(mod).items()
                    if id(getattr(val, "__wrapped__", None)) in self._by_id]
        found = len(self.bindings())
        if found != n_bindings:
            problems.append(f"{found} original bindings after restore, {n_bindings} before")
        return problems
