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


_MAX_STEPS = 1_000_000  # of a curves grid; at ~0.16 ms a row that is ~3 min


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, not argparse's default 2
        raise UsageError(message)


def _fmt(v) -> str:
    """Six significant digits for floats; empty for None; true/false for bools.

    numpy's bool_ and floating scalars count as bools and floats.
    """
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{v:.6g}"
    return str(v)


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list option; a bad entry is a usage error."""
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _print_kv(pairs) -> None:
    for key, val in pairs:
        print(f"{key}={_fmt(val)}")


# A float column is rendered by array operations into _CELL bytes a cell:
# sign, "0.000", d0 . d1 . d2 . d3 . d4 . d5 and "e+XX".  Bytes a cell does
# not use are NUL, deleted once the file is assembled.
_CELL = 21
_ROWS = 4096  # rows assembled at a time
_POW10 = np.array([float(10**k) for k in range(23)])  # exact in binary64
_DIGITS3 = np.array([b"%03d" % i for i in range(1000)]).view(np.uint8).reshape(1000, 3).T.copy()
_TRAILING_ZEROS3 = np.array([3 - len((b"%03d" % i).rstrip(b"0")) for i in range(1000)], np.int8)
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_SIX = np.arange(6, dtype=np.int8)[:, None]


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a 10^(5 - e) for |5 - e| <= 22: one correctly rounded product or quotient."""
    k = 5 - e
    p = _POW10.take(np.abs(k))
    m = a / p
    return np.multiply(a, p, out=m, where=k >= 0)


def _float_cells(col: np.ndarray) -> np.ndarray:
    """The cells "{:.6g}".format(v) of a float column, as (_CELL, n) NUL-padded bytes.

    For 1e-16 <= |x| < 1e27, m = |x| 10^(5 - e) with e = floor(log10|x|) is
    one correctly rounded operation on exact numbers, so within 5.9e-11 of
    its exact value: unless that lies within 1e-8 of a tie, rounding m to an
    integer gives the six digits of Python's correctly rounded formatting.
    log10 errs by a few ulps at most, so where e is one off, |x| is within
    a few ulps of a power of ten and m within 1e-8 of 1e5 or 1e6: there
    rounding, with the carry of 1e6 to 1e5, gives the same digits.
    Near-ties, NaN, infinities and |x| outside that range are formatted by
    Python one at a time; zeros get the digits 000000.  The sign, "0.000"
    prefix and exponent planes are computed only when some cell is negative,
    lies in [1e-4, 1) or takes scientific notation; otherwise they stay NUL.
    """
    x = np.asarray(col, dtype=np.float64)
    a = np.abs(x)
    scalable = (a >= 1e-16) & (a < 1e27)  # False for NaN
    s = np.where(scalable, a, 1.0)
    e = np.floor(np.log10(s)).astype(np.int32)
    m = _scaled(s, e)
    n = np.rint(m).astype(np.int32)
    carry = n == 1_000_000
    n[carry] = 100_000
    e += carry
    zero = a == 0.0
    n[zero] = 0  # s = 1 gave every unscalable cell e = 0
    slow = np.flatnonzero(~zero & (~scalable | (np.abs(m - np.floor(m) - 0.5) < 1e-8)))
    hi, lo = np.divmod(n, 1000)
    # the index of the last nonzero digit (-1 for zero)
    last = 5 - np.where(lo == 0, 3 + _TRAILING_ZEROS3[hi], _TRAILING_ZEROS3[lo])
    sci = (e < -4) | (e >= 6)
    point = np.where(sci, 0, e).astype(np.int8)  # the digit the point follows
    out = np.zeros((_CELL, x.size), np.uint8)
    neg = np.signbit(x)
    if neg.any():
        out[0] = neg * np.uint8(ord("-"))
    if (point < 0).any():
        out[1:6] = (np.arange(5)[:, None] < np.where(point < 0, 1 - point, 0)) * _PREFIX
    out[6:12:2] = _DIGITS3.take(hi, axis=1)
    out[12:17:2] = _DIGITS3.take(lo, axis=1)
    out[6:17:2] *= _SIX <= np.maximum(last, point)  # trailing zeros after the point go
    out[7:17:2] = (_SIX[:5] == point) & (last > point)  # and a bare point
    out[7:17:2] *= np.uint8(ord("."))
    if sci.any():
        ae = np.abs(e).astype(np.uint8)
        out[17] = ord("e")
        out[18] = np.where(e < 0, ord("-"), ord("+"))
        out[19] = ae // 10 + ord("0")
        out[20] = ae % 10 + ord("0")
        out[17:21] *= sci
    if slow.size:
        text = ["{:.6g}".format(v).encode() for v in x[slow].tolist()]
        out[:, slow] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL).T
    return out


def _open(path: Path):
    """Open an output file for writing; a path that cannot be opened is a usage error."""
    try:
        return open(path, "wb")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length columns as CSV rows under a header line; each
    cell has the bytes _fmt gives it.

    A table of float arrays only is rendered by array arithmetic
    (_float_cells): each value scaled by an exact power of ten and rounded
    to six digits, which gives Python's correctly rounded digits.  Cells
    the arithmetic cannot decide exactly (within 1e-8 of a rounding tie,
    NaN, infinities, |x| outside [1e-16, 1e27)) are formatted by Python.
    For each _ROWS rows, every column becomes a block of NUL-padded cells
    that keeps only the byte planes some cell of it uses; the blocks are
    stacked between rows of separators, transposed into rows once, and
    the pads deleted, so only NULs are dropped early.  Row chunks keep
    every temporary small.  Any other table (curves.csv and table.csv
    mix numbers, error strings, None and bools) is written by joining
    the _fmt cells of each row.
    """
    with _open(path) as fh:
        fh.write(header.encode() + b"\n")
        if all(isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns):
            seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
            for i in range(0, len(columns[0]), _ROWS):
                stack = []
                for col, sep in zip(columns, seps):
                    cells = _float_cells(col[i:i + _ROWS])
                    cells = cells[cells.any(axis=1)]  # only the byte planes some cell uses
                    stack += [cells, np.full((1, cells.shape[1]), sep, np.uint8)]
                fh.write(np.vstack(stack).T.tobytes().translate(None, b"\0"))
        else:
            rows = (",".join(map(_fmt, row)) + "\n" for row in zip(*columns))
            fh.write("".join(rows).encode())


def _write_outputs(args, outputs: dict) -> None:
    """Make --out, write each output in order, then manifest.json listing them.

    An output is name -> (header, *columns) for a CSV, name -> dict for a
    JSON document.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out}: {exc.strerror}") from None
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if not callable(v)},
        "version": __version__,
        "outputs": list(outputs),
    }
    for name, body in {**outputs, "manifest.json": manifest}.items():
        if isinstance(body, dict):
            with _open(out / name) as fh:
                fh.write((json.dumps(body, indent=2) + "\n").encode())
        else:
            _write_csv(out / name, *body)


def _cmd_roots(args) -> None:
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


def _cmd_curves(args) -> dict:
    params = ModelParams.toy(args.k)
    if not (np.isfinite([args.h_min, args.h_max, args.h_step]).all()
            and args.h_step > 0.0 and args.h_max >= args.h_min):
        raise UsageError("curves needs finite --h-min <= --h-max and --h-step > 0")
    steps = (args.h_max - args.h_min) / args.h_step  # inf on overflow
    if not steps <= _MAX_STEPS:
        raise DomainError(f"a curves grid of {steps:.3g} steps is over the cap {_MAX_STEPS:.0e}")
    # the last grid point not past h_max, allowing for rounding in steps
    grid = [args.h_min + i * args.h_step for i in range(int(steps + 1e-9) + 1)]
    samples = speedcurves.sample_curves(grid, params)
    # a failed row keeps only h; its error goes in the c_sharp cell, as in table.csv
    rows = [(s.h, s.c_sharp if s.error is None else f"error:{s.error}", s.c_kappa,
             s.c_bound, s.c_star, s.regime, s.monotone_front) for s in samples]
    return {"curves.csv": ("h,c_sharp,c_kappa,c_bound,c_star,regime,monotone_front",
                           *zip(*rows))}


def _cmd_toy(args) -> None:
    ModelParams.toy(args.k)  # refuse k as every other command does
    pairs = []
    c_sharp, _ = chareq.double_root_speed(args.h, args.k)
    c_star, regime = toyfront.minimal_speed(args.h, args.k)
    pairs += [("h", args.h), ("c_sharp", c_sharp), ("c_star", c_star), ("regime", regime)]
    if regime == "pushed":
        pairs += [("ratio_T", toyfront.ratio_T(c_star, args.h, args.k)),
                  ("target", (3.0 - args.k) / 4.0)]
    if args.transitions:
        pairs.append(("h_pushed_to_pulled", toyfront.pushed_to_pulled_delay(args.k)))
        pairs.append(("h_oscillation", toyfront.oscillation_threshold(args.k)))
    if args.limits:
        pairs += vars(toyfront.limit_quantities(args.k)).items()  # in field order
    _print_kv(pairs)


def _cmd_profile(args) -> dict:
    c = args.c
    if c is None:
        c, _ = toyfront.minimal_speed(args.h, args.k)
    prof = toyfront.build_profile(c, args.h, args.k, t_max=args.t_max,
                                  grid_step=args.grid_step)
    tail_t = np.arange(-prof.c * prof.h - 10.0, 0.0, prof.grid_step)
    return {
        "profile.csv": ("t,phi,dphi",
                        np.concatenate([tail_t, prof.t]),
                        np.concatenate([prof.tail(tail_t), prof.phi]),
                        np.concatenate([prof.tail_deriv(tail_t), prof.dphi])),
        "profile.json": {
            "c": prof.c,
            "h": prof.h,
            "k": prof.k,
            "p": prof.p,
            "lambda1": prof.lambda1,
            "lambda2": prof.lambda2,
            "classification": prof.classification,
            "in_region_Dkappa": prof.in_region_Dkappa,
            "residual_max": prof.residual_max,
        },
    }


def _cmd_kernel(args) -> dict:
    params = ModelParams.toy(args.k)
    psi = kernels.psi_kernel(args.c, args.h, params, t_max=args.t_max,
                             step=args.step)
    nker = kernels.N_kernel(psi, params)
    return {
        "psi.csv": ("t,value", psi.t, psi.values),
        "theta.csv": ("t,value", nker.t, kernels.theta_kernel(nker.t, psi.mu2)),
        "n.csv": ("t,value", nker.t, nker.values),
    }


def _cmd_simulate(args) -> dict:
    snaps = _floats(args.snapshots, "--snapshots") if args.snapshots else ()
    cfg = pdesim.SimConfig(
        h=args.h, k=args.k, t_end=args.t_end, x_min=args.x_min, x_max=args.x_max,
        dx=args.dx, dt=args.dt, snapshot_times=snaps,
    )
    named = {}  # file name -> (step, time) of the first snapshot given it
    for ts in snaps:
        n = round(ts / cfg.dt)
        name = f"snapshot_t{_fmt(n * cfg.dt)}.csv"
        n0, ts0 = named.setdefault(name, (n, ts))
        if n0 != n:
            raise UsageError(f"--snapshots {ts0!r} and {ts!r} fall on different steps "
                             f"but would both be written to {name}")
    res = pdesim.run(cfg)
    for ts in snaps:
        if round(ts / cfg.dt) * cfg.dt > res.t_final:
            print(f"simulate: no snapshot at t={_fmt(ts)}: the run stopped at the "
                  f"left wall at t={_fmt(res.t_final)}", file=sys.stderr)
    outputs = {"trajectory.csv": ("t,x_level", *res.level_trajectory.T)}
    x = cfg.x_min + cfg.dx * np.arange(cfg.n_points)
    for t_snap, u in res.snapshots:
        outputs[f"snapshot_t{_fmt(t_snap)}.csv"] = ("x,u", x, u)
    outputs["result.json"] = {
        "c_ns": res.c_ns,
        "fit_window": list(res.fit_window),
        "fit_residual": res.fit_residual,
        "u_min": res.u_min,
        "u_max": res.u_max,
        "t_final": res.t_final,
    }
    return outputs


def _table_row(h: float, k: float, t_end: float) -> tuple:
    """(h, c_sharp, c_star, c_ns); a DomainError or AccuracyError becomes
    (h, "error:<Type>: <msg>", None, None), as in curves.csv."""
    try:
        c_sharp, _ = chareq.double_root_speed(h, k)
        c_star, _ = toyfront.minimal_speed(h, k)
        c_ns = pdesim.run(pdesim.SimConfig(h=h, k=k, t_end=t_end)).c_ns
    except (DomainError, AccuracyError) as exc:
        return h, f"error:{type(exc).__name__}: {exc}", None, None
    return h, c_sharp, c_star, c_ns


def _cmd_table(args) -> dict:
    rows = _floats(args.rows, "--rows")
    ModelParams.toy(args.k)  # one bad k would fail every row
    results = [_table_row(h, args.k, args.t_end) for h in rows]
    return {"table.csv": ("h,c_sharp,c_star,c_ns", *zip(*results))}


def _build_parser() -> tuple[_Parser, dict]:
    # no abbreviations: a shortened --config would slip past main's pre-parse
    parser = _Parser(prog="delayfronts", allow_abbrev=False,
                     description="Traveling-front laboratory for the delayed "
                                 "monostable reaction-diffusion equation")
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
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: rows always run in-process")
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
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: rows always run in-process")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_table)
    return parser, sub.choices


def _apply_config(path: Path, commands: dict) -> None:
    """Make config-file entries the defaults of the options they name.

    An entry key = value fills --key (underscores read as dashes) in every
    subcommand that has it, so flags given on the command line, in any
    spelling, still win over the file, and argparse converts the string
    through the option's type.  Switches take true or false.  A key that is
    an option of no subcommand is a usage error; one file can serve several
    commands, so a key that only some of them have is not.  A file that
    cannot be read as UTF-8 text is a usage error too.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        actions = [sp._option_string_actions[flag] for sp in commands.values()
                   if flag in sp._option_string_actions]
        if not actions:
            raise UsageError(f"config key {key!r} is an option of no command")
        for action in actions:
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
        # argparse would set an unknown option before the command aside and
        # report its value as an invalid command, so name the option here
        for tok in argv:
            if tok in commands or tok == "--":
                break
            flag = tok.split("=", 1)[0]
            if (tok.startswith("-") and flag not in parser._option_string_actions
                    and not parser._negative_number_matcher.match(tok)):
                raise UsageError(f"unrecognized option {flag} before the command")
        if known.config is not None:
            _apply_config(Path(known.config), commands)
        args = parser.parse_args(argv)
        outputs = args.fn(args)  # None from the commands that print
        if outputs is not None:
            _write_outputs(args, outputs)
        return 0
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
