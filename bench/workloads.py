"""Workload inputs, command lists and output checks.

A workload is a list of CLI commands (one "pass") built from the seed, plus
the checks run on the files each pass writes.  Seed 0 uses the README and
acceptance-suite parameters, so the pinned reference values apply to it;
other seeds draw nearby parameters from numpy's default generator.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Pinned reference values of tests/test_acceptance.py (k = 1.2):
# h -> (c_sharp, c_star), and h -> simulated speed c_ns.
SPEED_TABLE = {
    0.5: (0.5720, 0.6562), 1.0: (0.4270, 0.4770), 1.5: (0.3420, 0.3779),
    2.0: (0.2860, 0.3138), 2.5: (0.2458, 0.2687), 3.0: (0.2157, 0.2351),
    3.5: (0.1922, 0.2091), 4.0: (0.1733, 0.1883), 4.5: (0.1579, 0.1713),
    5.0: (0.1450, 0.1571), 5.5: (0.1340, 0.1452), 6.0: (0.1246, 0.1348),
}
SIM_ROWS = {0.5: 0.6377, 2.0: 0.3165, 4.0: 0.1892, 6.0: 0.1346}
SPEED_TOL = 5e-4
SIM_TOL = 0.02
CNS_GATE = 0.031  # relative |c_ns - c_star| / c_star, as in tests/test_pdesim.py
RESIDUAL_MAX = 1e-6
MASS_TOL = 1e-4
K_POINT = 1.2
H_SIM = 0.5
PROFILE_HS = (0.0, 0.5, 2.0, 6.0)
KERNEL_POINTS = ((0.5, 1.0), (1.0, 0.5), (0.3, 2.0), (0.2, 3.0))  # (c, h) in D_kappa


@dataclass
class Command:
    name: str  # output directory of the command
    argv: list[str]  # without --out


@dataclass
class Checks:
    """Tally of output checks, and the speed gap found while checking."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    c_ns_gap: float | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _f(s: str) -> float:
    return float(s) if s else float("nan")  # absent curves are empty cells


class Workload:
    """Base: ``commands`` is one pass; ``check`` inspects its outputs."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        """Reference values computed with the package, outside any timing."""

    def check(self, out: Path, checks: Checks) -> None:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        if seed == 0:
            self.ks = (1.2, 1.5)
        else:
            self.ks = (round(float(self.rng.uniform(1.15, 1.25)), 6),
                       round(float(self.rng.uniform(1.45, 1.55)), 6))
        self.commands = [Command(f"curves_k{k}", ["curves", "--k", str(k), "--jobs", "1"])
                         for k in self.ks]

    def prepare(self) -> None:
        from delayfronts.toyfront import pushed_to_pulled_delay

        self.h_flip = {k: pushed_to_pulled_delay(k) for k in self.ks}

    def check(self, out: Path, checks: Checks) -> None:
        for cmd, k in zip(self.commands, self.ks):
            rows = _rows(out / cmd.name / "curves.csv")
            tag = f"curves k={k}"
            checks.check(len(rows) == 121, f"{tag}: {len(rows)} rows, expected 121")
            errors = [r["h"] for r in rows if r["c_sharp"].startswith("error:")]
            checks.check(not errors, f"{tag}: error rows at h={errors}")
            if errors:
                continue
            h = np.array([_f(r["h"]) for r in rows])
            cs = np.array([_f(r["c_sharp"]) for r in rows])
            cst = np.array([_f(r["c_star"]) for r in rows])
            checks.check(bool(np.all(cst >= cs)), f"{tag}: c_star < c_sharp")
            checks.check(bool(np.all(np.diff(cs) < 0)), f"{tag}: c_sharp not decreasing")
            checks.check(bool(np.all(np.diff(cst) < 0)), f"{tag}: c_star not decreasing")
            pushed = np.array([r["regime"] == "pushed" for r in rows])
            checks.check(bool(np.all(pushed == (h < self.h_flip[k]))),
                         f"{tag}: regime flip differs from pushed_to_pulled_delay="
                         f"{self.h_flip[k]}")
            if self.seed == 0 and k == 1.2:
                for href, (cs_ref, cst_ref) in SPEED_TABLE.items():
                    i = int(np.argmin(np.abs(h - href)))
                    checks.check(abs(cs[i] - cs_ref) <= SPEED_TOL and
                                 abs(cst[i] - cst_ref) <= SPEED_TOL,
                                 f"{tag}: h={href} ({cs[i]}, {cst[i]}) vs "
                                 f"({cs_ref}, {cst_ref})")


class Table(Workload):
    name = "table"

    def __init__(self, seed: int):
        super().__init__(seed)
        base = 0.5 * np.arange(1, 13)
        if seed == 0:
            self.hs = [float(h) for h in base]
        else:
            # whole multiples of dt = 0.01, within 0.1 of the reference rows
            jitter = self.rng.integers(-10, 11, size=base.size) / 100.0
            self.hs = [round(float(h), 2) for h in base + jitter]
        rows = ",".join(f"{h:g}" for h in self.hs)
        self.commands = [Command("table", ["table", "--k", str(K_POINT), "--t-end", "400",
                                           "--rows", rows, "--jobs", "1"])]

    def check(self, out: Path, checks: Checks) -> None:
        rows = _rows(out / "table" / "table.csv")
        checks.check(len(rows) == len(self.hs), f"table: {len(rows)} rows")
        gaps = []
        for r, h in zip(rows, self.hs):
            hv, cs, cst, cns = (_f(r[c]) for c in ("h", "c_sharp", "c_star", "c_ns"))
            checks.check(abs(hv - h) < 1e-9, f"table: row h={hv}, expected {h}")
            gap = abs(cns - cst) / cst
            gaps.append(gap)
            checks.check(gap < CNS_GATE, f"table h={h}: |c_ns-c_star|/c_star={gap:.4f}")
            if self.seed == 0:
                cs_ref, cst_ref = SPEED_TABLE[h]
                checks.check(abs(cst - cst_ref) <= SPEED_TOL and abs(cs - cs_ref) <= SPEED_TOL,
                             f"table h={h}: ({cs}, {cst}) vs ({cs_ref}, {cst_ref})")
                if h in SIM_ROWS:
                    checks.check(abs(cns - SIM_ROWS[h]) <= SIM_TOL,
                                 f"table h={h}: c_ns={cns} vs {SIM_ROWS[h]}")
        checks.c_ns_gap = max(gaps) if gaps else None


class Point(Workload):
    name = "point"

    def _kernel_points(self) -> list[tuple[float, float]]:
        """Seed 0: the reference points.  Other seeds: each reference point
        with c and h scaled by factors drawn from U(0.97, 1.03), redrawn
        until it lies in D_kappa.  Points drawn over the whole of D_kappa
        (as tests/conftest.sample_dkappa does) made a pass's kernel time
        range over 0.63-1.23 s from seed to seed; see NOTES.md."""
        if self.seed == 0:
            return list(KERNEL_POINTS)
        from delayfronts import ModelParams, roots_at_kappa

        params = ModelParams.toy(K_POINT)
        out = []
        for c0, h0 in KERNEL_POINTS:
            while True:
                c, h = (round(float(v * self.rng.uniform(0.97, 1.03)), 4) for v in (c0, h0))
                if roots_at_kappa(c, h, params).in_region_Dkappa:
                    break
            out.append((c, h))
        return out

    def prepare(self) -> None:
        from delayfronts.toyfront import minimal_speed

        self.kernel_points = self._kernel_points()
        self.c_star_sim = minimal_speed(H_SIM, K_POINT)[0]
        k = str(K_POINT)
        self.commands = (
            [Command(f"profile_h{h:g}", ["profile", "--k", k, "--h", f"{h:g}"])
             for h in PROFILE_HS]
            + [Command(f"kernel_c{c:g}_h{h:g}",
                       ["kernel", "--k", k, "--c", f"{c:g}", "--h", f"{h:g}"])
               for c, h in self.kernel_points]
            + [Command("simulate", ["simulate", "--k", k, "--h", f"{H_SIM:g}",
                                    "--snapshots", "0,20"])]
        )

    def check(self, out: Path, checks: Checks) -> None:
        for cmd in self.commands:
            d = out / cmd.name
            if cmd.argv[0] == "profile":
                res = json.loads((d / "profile.json").read_text())["residual_max"]
                checks.check(res <= RESIDUAL_MAX, f"{cmd.name}: residual_max={res}")
            elif cmd.argv[0] == "kernel":
                rows = _rows(d / "n.csv")
                t = np.array([float(r["t"]) for r in rows])
                v = np.array([float(r["value"]) for r in rows])
                mass = float(np.trapezoid(v, t))
                checks.check(abs(mass + 0.5) <= MASS_TOL, f"{cmd.name}: mass={mass}")
            else:
                c_ns = json.loads((d / "result.json").read_text())["c_ns"]
                gap = abs(c_ns - self.c_star_sim) / self.c_star_sim
                checks.check(gap < CNS_GATE, f"simulate: |c_ns-c*|/c*={gap:.4f}")
                if self.seed == 0:
                    checks.check(abs(c_ns - SIM_ROWS[H_SIM]) <= SIM_TOL,
                                 f"simulate: c_ns={c_ns} vs {SIM_ROWS[H_SIM]}")
                checks.c_ns_gap = gap


WORKLOADS = {w.name: w for w in (Sweep, Table, Point)}


def manifest_check(out_dir: Path, checks: Checks, name: str) -> None:
    """manifest.json lists exactly the data files the command wrote."""
    listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    present = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    checks.check(sorted(listed) == present, f"{name}: manifest lists {listed}, found {present}")


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file of one command's output directory.

    ``duration_seconds`` is dropped from manifest.json before hashing: it is
    wall-clock time, the one field that breaks the README's byte-identical
    promise.
    """
    out = {}
    for p in sorted(out_dir.iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("duration_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[p.name] = hashlib.sha256(data).hexdigest()
    return out
