"""Command-line interface with reproducible file-based outputs.

Subcommands: roots, curves, toy, profile, kernel, simulate, table.  Numeric
output is fixed at six significant digits so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 domain error, 2 accuracy
error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, chareq, kernels, pdesim, speedcurves, toyfront
from .chareq import ModelParams
from .errors import AccuracyError, DomainError
from .speedcurves import _fmt


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, not argparse's default 2
        raise UsageError(message)


def _print_kv(pairs) -> None:
    for key, val in pairs:
        print(f"{key}={_fmt(val)}")


class _Manifest:
    """Collects outputs of one command and lands manifest.json at the end."""

    def __init__(self, command: str, params: dict, out_dir: str):
        self.command = command
        self.params = {k: v for k, v in params.items() if not callable(v)}
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []

    def write_text(self, name: str, text: str) -> None:
        (self.dir / name).write_text(text)
        self.outputs.append(name)

    def write_csv(self, name: str, header: str, *columns) -> None:
        """Write equal-length columns as CSV rows under a header line.

        Float columns get six significant digits, the cells _fmt writes;
        other columns (integers) are written with str.
        """
        cells = []
        for col in columns:
            col = np.asarray(col)
            fmt = "{:.6g}".format if col.dtype.kind == "f" else str
            cells.append(map(fmt, col.tolist()))
        self.write_text(name, "\n".join([header, *map(",".join, zip(*cells))]) + "\n")

    def finalize(self) -> None:
        doc = {
            "command": self.command,
            "parameters": self.params,
            "version": __version__,
            "outputs": self.outputs,
        }
        (self.dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _cmd_roots(args) -> int:
    params = ModelParams.toy(args.k)
    r0 = chareq.roots_at_zero(args.c, args.h, params)
    rk = chareq.roots_at_kappa(args.c, args.h, params)
    _print_kv(
        [
            ("lambda1", r0.lambda1 if r0.exists else None),
            ("lambda2", r0.lambda2 if r0.exists else None),
            ("lambda_exists", r0.exists),
            ("mu1", rk.mu1),
            ("mu2", rk.mu2),
            ("mu3", rk.mu3),
            ("in_region_Dkappa", rk.in_region_Dkappa),
        ]
    )
    return 0


def _cmd_curves(args) -> int:
    params = ModelParams.toy(args.k)
    n = int(round((args.h_max - args.h_min) / args.h_step))
    grid = [args.h_min + i * args.h_step for i in range(n + 1)]
    man = _Manifest("curves", vars(args), args.out)
    samples = speedcurves.sample_curves(grid, params, jobs=args.jobs)
    man.write_text("curves.csv", speedcurves.curves_csv(samples))
    man.finalize()
    return 0


def _cmd_toy(args) -> int:
    pairs = []
    c_sharp, _ = chareq.double_root_speed(args.h, args.k)
    c_star, regime = toyfront.minimal_speed(args.h, args.k)
    pairs += [("h", args.h), ("c_sharp", c_sharp), ("c_star", c_star), ("regime", regime)]
    if regime == "pushed":
        tq = toyfront.ToyQuantities.at(c_star, args.h, args.k)
        pairs += [("ratio_T", tq.ratio_T), ("target", tq.target)]
    if args.transitions:
        pairs.append(("h_pushed_to_pulled", toyfront.pushed_to_pulled_delay(args.k)))
        pairs.append(("h_oscillation", toyfront.oscillation_threshold(args.k)))
    if args.limits:
        lq = toyfront.limit_quantities(args.k)
        pairs += [
            ("w_plus", lq.w_plus),
            ("rho", lq.rho),
            ("lambda_inf", lq.lambda_inf),
            ("mu_inf", lq.mu_inf),
            ("T1_inf", lq.T1_inf),
            ("w_minus", lq.w_minus),
            ("rho_hat", lq.rho_hat),
            ("lambda_hat_inf", lq.lambda_hat_inf),
            ("mu_hat_inf", lq.mu_hat_inf),
            ("T2_inf", lq.T2_inf),
        ]
    _print_kv(pairs)
    return 0


def _cmd_profile(args) -> int:
    c = args.c
    if c is None:
        c, _ = toyfront.minimal_speed(args.h, args.k)
    prof = toyfront.build_profile(c, args.h, args.k, t_max=args.t_max,
                                  grid_step=args.grid_step)
    man = _Manifest("profile", vars(args), args.out)
    tail_t = np.arange(-prof.c * prof.h - 10.0, 0.0, prof.grid_step)
    man.write_csv("profile.csv", "t,phi,dphi",
                  np.concatenate([tail_t, prof.t]),
                  np.concatenate([prof.tail(tail_t), prof.phi]),
                  np.concatenate([prof.tail_deriv(tail_t), prof.dphi]))
    header = {
        "c": prof.c,
        "h": prof.h,
        "k": prof.k,
        "p": prof.p,
        "lambda1": prof.lambda1,
        "lambda2": prof.lambda2,
        "classification": prof.classification,
        "residual_max": prof.residual_max,
    }
    man.write_text("profile.json", json.dumps(header, indent=2) + "\n")
    man.finalize()
    return 0


def _cmd_kernel(args) -> int:
    params = ModelParams.toy(args.k)
    man = _Manifest("kernel", vars(args), args.out)
    psi = kernels.psi_kernel(args.c, args.h, params, t_max=args.t_max,
                             step=args.step)
    nker = kernels._convolve_theta(psi, params)
    theta_vals = kernels.theta_kernel(nker.t, psi.mu2)
    for name, grid_t, grid_v in (
        ("psi.csv", psi.t, psi.values),
        ("theta.csv", nker.t, theta_vals),
        ("n.csv", nker.t, nker.values),
    ):
        man.write_csv(name, "t,value", grid_t, grid_v)
    man.finalize()
    return 0


def _cmd_simulate(args) -> int:
    snaps = tuple(float(s) for s in args.snapshots.split(",")) if args.snapshots else ()
    cfg = pdesim.SimConfig(
        h=args.h, k=args.k, t_end=args.t_end, x_min=args.x_min, x_max=args.x_max,
        dx=args.dx, dt=args.dt, snapshot_times=snaps,
    )
    res = pdesim.run(cfg)
    man = _Manifest("simulate", vars(args), args.out)
    man.write_csv("trajectory.csv", "t,x_level", *res.level_trajectory.T)
    x = cfg.x_min + cfg.dx * np.arange(cfg.n_points)
    for t_snap, u in res.snapshots:
        man.write_csv(f"snapshot_t{_fmt(t_snap)}.csv", "x,u", x, u)
    man.write_text(
        "result.json",
        json.dumps(
            {
                "c_ns": res.c_ns,
                "fit_window": list(res.fit_window),
                "fit_residual": res.fit_residual,
                "u_min": res.u_min,
                "u_max": res.u_max,
            },
            indent=2,
        )
        + "\n",
    )
    man.finalize()
    return 0


def _table_row(h: float, k: float, t_end: float) -> tuple:
    c_sharp, _ = chareq.double_root_speed(h, k)
    c_star, _ = toyfront.minimal_speed(h, k)
    cfg = pdesim.SimConfig(h=h, k=k, t_end=t_end)
    c_ns = pdesim.run(cfg).c_ns
    return h, c_sharp, c_star, c_ns


def _cmd_table(args) -> int:
    rows = [float(s) for s in args.rows.split(",")]
    man = _Manifest("table", vars(args), args.out)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = [pool.submit(_table_row, h, args.k, args.t_end) for h in rows]
            results = [f.result() for f in futs]
    else:
        results = [_table_row(h, args.k, args.t_end) for h in rows]
    man.write_csv("table.csv", "h,c_sharp,c_star,c_ns", *zip(*results))
    man.finalize()
    return 0


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="delayfronts",
                     description="Traveling-front laboratory for the delayed "
                                 "monostable reaction-diffusion equation")
    parser.add_argument("--seed", help=argparse.SUPPRESS)
    parser.add_argument("--config", help="key=value file supplying defaults "
                                         "(explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="characteristic roots at one (c, h)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("curves", help="speed-curve sweep over a delay grid")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--h-min", type=float, default=0.0)
    p.add_argument("--h-max", type=float, default=6.0)
    p.add_argument("--h-step", type=float, default=0.05)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_curves)

    p = sub.add_parser("toy", help="minimal speed, transitions and limits")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--limits", action="store_true")
    p.add_argument("--transitions", action="store_true")
    p.set_defaults(fn=_cmd_toy)

    p = sub.add_parser("profile", help="build and export a front profile")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--c", type=float, default=None,
                   help="wave speed (default: the minimal speed)")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("kernel", help="fundamental-solution grids psi, theta, N")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("simulate", help="one Cauchy-problem run")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t-end", type=float, default=400.0)
    p.add_argument("--x-min", type=float, default=-25.0)
    p.add_argument("--x-max", type=float, default=25.0)
    p.add_argument("--dx", type=float, default=0.05)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--snapshots", default="",
                   help="comma-separated times at which to store the field")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("table", help="speed comparison table (runs simulations)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rows", default="0.5,1,1.5,2,2.5,3,3.5,4,4.5,5,5.5,6",
                   help="comma-separated delays")
    p.add_argument("--t-end", type=float, default=400.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_table)
    return parser, sub.choices


def _apply_config(path: Path, commands: dict) -> None:
    """Make config-file entries the defaults of the options they name.

    An entry key = value fills --key (underscores read as dashes) in every
    subcommand that has it, so flags given on the command line, in any
    spelling, still win over the file, and argparse converts the string
    through the option's type.  Switches take true or false.
    """
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        for sp in commands.values():
            action = sp._option_string_actions.get(flag)
            if action is None:
                continue
            if action.nargs == 0:
                if val.lower() not in ("true", "false"):
                    raise UsageError(f"config entry {key} must be true or false")
                action.default = val.lower() == "true"
            else:
                action.default = val
            action.required = False


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        # --config is honoured anywhere on the line, before the full parse
        pre = _Parser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        known, argv = pre.parse_known_args(argv)
        if known.config is not None:
            _apply_config(Path(known.config), commands)
        args = parser.parse_args(argv)
        if args.seed is not None:
            raise UsageError("--seed is not accepted: every command is deterministic")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
