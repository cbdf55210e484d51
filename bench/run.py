"""The delayfronts benchmark: one workload in one fresh process.

    python3 bench/run.py --workload {sweep,table,point} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  Each pass drives ``delayfronts.cli.main(argv)`` in-process
over the workload's commands; passes repeat until ``--seconds`` is spent
(at least two, so the outputs of two passes can be compared byte for
byte).  Every pass's outputs are checked.  Untraced passes and the
set-up interpreters are timed under a machine-speed probe and scaled to the
machine's usual speed (probe.py).  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` the per-layer metrics
from wrapped package functions.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  See NOTES.md.
"""

from __future__ import annotations

import os

THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import REF_SLICE_S, SpeedProbe, reference_slice, scaled  # noqa: E402
from tracer import Tracer, traced_functions  # noqa: E402
from workloads import WORKLOADS, Checks, digest, manifest_check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # fresh interpreters timed for setup_s
IMPORTTIME_REPS = 3  # fresh interpreters run under -X importtime
IMPORT_MODULES = ("numpy", "scipy.optimize", "scipy.signal", "scipy.sparse.linalg",
                  "delayfronts.cli")
MIN_PASSES = 2

# Functions each workload must call (tracer self-test), and through which
# by-value bindings.  Their union is the set of per-function metrics.
EXPECTED = {
    "sweep": {
        "functions": ["chareq.roots_at_zero", "chareq.roots_at_kappa",
                      "chareq.double_root_speed", "chareq.h_star", "chareq.c_kappa_curve",
                      "toyfront.ratio_T", "toyfront.minimal_speed",
                      "speedcurves.c_bound_curve", "speedcurves.sample_curves",
                      "speedcurves.curves_csv", "cli.main"],
        "bindings": ["speedcurves.h_star"],
    },
    "table": {
        "functions": ["chareq.roots_at_zero", "chareq.roots_at_kappa",
                      "chareq.double_root_speed", "toyfront.ratio_T",
                      "toyfront.minimal_speed", "toyfront.birth_rate",
                      "pdesim.init_cauchy", "pdesim.cn_step", "pdesim.run", "cli.main"],
        "bindings": ["pdesim.birth_rate"],
    },
    "point": {
        "functions": ["chareq.roots_at_zero", "chareq.roots_at_kappa",
                      "chareq.double_root_speed", "toyfront.ratio_T",
                      "toyfront.minimal_speed", "toyfront.amplitude_p",
                      "toyfront.build_profile", "toyfront.birth_rate",
                      "kernels.theta_kernel", "kernels.psi_kernel", "kernels.N_kernel",
                      "pdesim.init_cauchy", "pdesim.cn_step", "pdesim.run", "cli.main"],
        "bindings": ["pdesim.birth_rate"],
    },
}
LAYERS = ("chareq", "toyfront", "kernels", "pdesim", "speedcurves", "cli")


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_cmd(*flags: str) -> list[str]:
    code = "import delayfronts.cli, sys; sys.stdout.write(delayfronts.cli.__file__)"
    return [sys.executable, *flags, "-c", code]


def _check_import_path(stdout: str) -> None:
    if not Path(stdout).resolve().is_relative_to(SRC):
        _fail(f"delayfronts imported from {stdout}, not from {SRC}")


SETUP_CHILD = """\
import sys
sys.path.insert(0, {bench!r})
from probe import SpeedProbe
with SpeedProbe() as probe:
    import delayfronts.cli
import json
json.dump({{"file": delayfronts.cli.__file__, "samples": probe.samples,
           "spent": probe.spent}}, sys.stdout)
"""


def measure_setup() -> list[tuple[float, float]]:
    """Wall time from a fresh interpreter to `import delayfronts.cli` done.

    Returns (scaled, unscaled) per interpreter.  The child runs the speed
    probe over its import; the interpreter's own start-up, before the probe
    is loaded, is scaled with the rest.  The benchmark's own import, made
    first, has compiled the bytecode.
    """
    code = SETUP_CHILD.format(bench=str(Path(__file__).resolve().parent))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"import failed:\n{proc.stderr}")
        child = json.loads(proc.stdout)
        _check_import_path(child["file"])
        times.append((scaled(dt, child["samples"], child["spent"]), dt - child["spent"]))
    return times


def measure_importtime() -> dict[str, float]:
    """Median cumulative import time (s) of each IMPORT_MODULES entry."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run(_import_cmd("-X", "importtime"), env=_subprocess_env(),
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"import failed:\n{proc.stderr}")
        first: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                first.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for m in IMPORT_MODULES:
            samples[m].append(first.get(m, 0.0))  # 0: no longer imported at start-up
    return {m: statistics.median(v) for m, v in samples.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "reference_loop_ms_start": reference_loop_ms(),
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def reference_loop_ms() -> float:
    """Mean of 100 reference slices (ms): the machine's speed now.

    Printed with the environment, not a metric.  On a shared host it moves
    with the load of other tenants, and so do all the times measured here.
    """
    return statistics.fmean(reference_slice() for _ in range(100)) * 1e3


class Runner:
    """Runs passes of one workload and tallies commands and checks."""

    def __init__(self, workload, work_dir: Path, probe: SpeedProbe | None = None):
        self.workload = workload
        self.work_dir = work_dir
        self.probe = probe
        self.unscaled: list[float] = []  # wall time of each probed pass, without slices
        self.slice_means: list[float] = []  # mean slice time of each probed pass
        self.checks = Checks()
        self.commands_run = 0
        self.commands_failed = 0
        self.first_digest: dict | None = None
        self.bytes_written = 0  # by the first checked pass
        # tracer self-test findings: reported, but they do not make the
        # program's outputs incorrect
        self.tracer_problems: list[str] = []

    @staticmethod
    def _command(argv: list[str]):
        import delayfronts.cli as cli  # looked up per call: the tracer patches main

        try:
            return cli.main(argv)
        except Exception:  # an unexpected crash counts as a failed command
            traceback.print_exc()
            return None

    def one_pass(self, tracer=None) -> float:
        """Run the workload's commands once, then check and hash their outputs."""
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)
        argvs = [cmd.argv + ["--out", str(self.work_dir / cmd.name)]
                 for cmd in self.workload.commands]
        if tracer:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            if self.probe:
                with self.probe:
                    codes = [self._command(argv) for argv in argvs]
                    elapsed = time.perf_counter() - t0
                self.unscaled.append(elapsed - self.probe.spent)
                self.slice_means.append(statistics.fmean(self.probe.samples))
                elapsed = scaled(elapsed, self.probe.samples, self.probe.spent)
            else:
                codes = [self._command(argv) for argv in argvs]
                elapsed = time.perf_counter() - t0
            problems = tracer.check_installed() if tracer else []
        finally:
            if tracer:
                n_restored = tracer.uninstall()
        if tracer:
            self.tracer_problems += problems + tracer.check_restored(n_restored)
        self.commands_run += len(codes)
        self.commands_failed += sum(code != 0 for code in codes)
        if any(code != 0 for code in codes):
            return elapsed
        self.workload.check(self.work_dir, self.checks)
        digests = {}
        for cmd in self.workload.commands:
            out = self.work_dir / cmd.name
            manifest_check(out, self.checks, cmd.name)
            digests[cmd.name] = digest(out)
        if self.first_digest is None:
            self.first_digest = digests
            self.bytes_written = sum(p.stat().st_size for p in self.work_dir.rglob("*")
                                     if p.is_file())
        else:
            for name, d in digests.items():
                same = d == self.first_digest[name]
                self.checks.check(same, f"{name}: outputs differ between passes")
        return elapsed

    @property
    def attempted(self) -> int:
        return self.commands_run + self.checks.attempted

    @property
    def failed(self) -> int:
        return self.commands_failed + len(self.checks.failures)


def run_passes(runner: Runner, seconds: float, tracer=None) -> tuple[list, list]:
    """Passes until `seconds` would be overrun, at least MIN_PASSES in all.

    Without a tracer every pass is timed.  With one, passes alternate
    untraced / traced, starting untraced, and at least one is traced, so
    untraced pass i runs just before traced pass i.
    Returns (untraced times, [(traced time, tracer snapshot)]).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            traced.append((runner.one_pass(tracer), snapshot(tracer)))
        else:
            plain.append(runner.one_pass())
        enough = len(plain) + len(traced) >= MIN_PASSES and (tracer is None or traced)
        typical = statistics.median(plain + [t for t, _ in traced])
        if enough and time.perf_counter() - start + typical > seconds:
            break
    return plain, traced


def after_warmup(times: list[float]) -> list[float]:
    """The first pass warms caches; it is dropped when three or more ran."""
    return times[1:] if len(times) >= 3 else times


def snapshot(tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "binding_calls": dict(tracer.binding_calls),
        "self_s": dict(tracer.self_s),
        "incl_s": dict(tracer.incl_s),
        "pushed_solves": tracer.pushed_solves,
        "ratio_T_in_pushed": tracer.ratio_T_in_pushed,
        "cells": tracer.cells,
    }


def reported_functions() -> list[str]:
    seen = []
    for spec in EXPECTED.values():
        seen += [f for f in spec["functions"] if f not in seen]
    return sorted(seen, key=lambda f: (LAYERS.index(f.split(".")[0]), f))


def per_layer_metrics(workload, runner: Runner, plain: list, passes: list,
                      imports: dict) -> dict:
    """Per-layer metrics from the traced passes, after the tracer self-test."""
    problems = runner.tracer_problems
    last = passes[0][1]
    problems += [f"call counts of traced pass {i} differ from pass 0"
                 for i, (_, p) in enumerate(passes[1:], 1) if p["calls"] != last["calls"]]
    expected = EXPECTED[workload.name]
    problems += [f"{fn} never called" for fn in expected["functions"]
                 if not last["calls"].get(fn)]
    problems += [f"binding {b} never called" for b in expected["bindings"]
                 if not last["binding_calls"].get(b)]
    known = traced_functions()
    problems += [f"{fn} is not a traced function" for fn in reported_functions()
                 if fn not in known]

    def med(get) -> float:
        return statistics.median(get(p) for _, p in passes)

    m: dict[str, tuple[float, str]] = {}
    for fn in reported_functions():
        m[f"{fn}.calls"] = (last["calls"].get(fn, 0), "count")
        m[f"{fn}.self_s"] = (med(lambda p: p["self_s"].get(fn, 0.0)), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda p: sum(
            (v for k, v in p["self_s"].items() if k.startswith(layer + ".")), 0.0)), "s")
    calls = last["calls"]
    m["toyfront.ratio_T_per_solve"] = (
        last["ratio_T_in_pushed"] / last["pushed_solves"] if last["pushed_solves"] else 0.0,
        "count")
    n_kernel_cmds = sum(cmd.argv[0] == "kernel" for cmd in workload.commands)
    m["kernels.psi_per_kernel_cmd"] = (
        calls.get("kernels.psi_kernel", 0) / n_kernel_cmds if n_kernel_cmds else 0.0, "count")
    m["pdesim.cell_steps_per_s"] = (med(
        lambda p: p["cells"] / p["incl_s"]["pdesim.run"] if p["cells"] else 0.0), "1/s")
    steps = calls.get("pdesim.cn_step", 0)
    m["pdesim.birth_rate_per_step"] = (
        last["binding_calls"].get("pdesim.birth_rate", 0) / steps if steps else 0.0, "count")
    m["pdesim.c_ns_gap"] = (runner.checks.c_ns_gap or 0.0, "1")
    m["cli.bytes_written"] = (runner.bytes_written, "B")
    m["trace.traced_wall_s"] = (statistics.median(t for t, _ in passes), "s")
    m["trace.untraced_wall_s"] = (statistics.median(after_warmup(plain)), "s")
    # paired with the untraced pass just before: adjacent passes see nearly
    # the same machine speed, which drifts over tens of seconds
    m["trace.overhead_s"] = (statistics.median(t - plain[i] for i, (t, _) in enumerate(passes)),
                             "s")
    for mod, secs in imports.items():
        m[f"import.{mod}_s"] = (secs, "s")
    m["trace.selftest_problems"] = (len(problems), "count")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "delayfronts" / "cli.py").is_file():
        _fail(f"no delayfronts package under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = environment(args.seed)
    import delayfronts.cli

    _check_import_path(delayfronts.cli.__file__)
    setup = [] if args.trace else measure_setup()
    imports = measure_importtime() if args.trace else {}
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(workload, work_dir, None if args.trace else SpeedProbe())
    try:
        plain, passes = run_passes(runner, args.seconds, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = os.getloadavg()
    env["reference_loop_ms_end"] = reference_loop_ms()

    if args.trace:
        metrics = per_layer_metrics(workload, runner, plain, passes, imports)
    else:
        plain = after_warmup(plain)
        q1, wall, q3 = quartiles(plain)
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for failure in runner.checks.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    for problem in runner.tracer_problems:
        print(f"bench: tracer self-test: {problem}", file=sys.stderr)
    print(f"workload = {workload.name} (why: bench/NOTES.md)")
    for key, val in env.items():
        print(f"env.{key} = {val}")
    print(f"commands = {[' '.join(c.argv) for c in workload.commands]}")
    if not args.trace:
        print(f"passes = {len(plain)} (wall_s q1 {q1:.4f} median {wall:.4f} q3 {q3:.4f})")
        raw = quartiles(after_warmup(runner.unscaled))
        print(f"unscaled pass wall time = q1 {raw[0]:.4f} median {raw[1]:.4f} q3 {raw[2]:.4f} s")
        print(f"reference slice per pass = "
              f"{[round(s * 1e3, 4) for s in after_warmup(runner.slice_means)]} ms "
              f"(nominal {REF_SLICE_S * 1e3:g} ms)")
        print(f"setup_s samples = {[round(s, 4) for s, _ in setup]} "
              f"(unscaled {[round(u, 4) for _, u in setup]})")
    else:
        print(f"passes = {len(plain)} untraced, {len(passes)} traced")
    print(f"error_rate = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} commands and checks)")
    if runner.checks.c_ns_gap is not None:
        print(f"c_ns_gap = {runner.checks.c_ns_gap:.6g}")
    for name, (val, unit) in metrics.items():
        print(f"{name} = {val:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
