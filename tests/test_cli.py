import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from delayfronts import AccuracyError, cli, double_root_speed, kernels, pdesim, toyfront
from delayfronts.cli import _fmt, _write_csv, main


def parse_kv(output: str) -> dict:
    out = {}
    for line in output.strip().split("\n"):
        key, val = line.split("=", 1)
        out[key] = val
    return out


def assert_manifest_lists(out: Path, names: list[str]) -> None:
    """manifest.json lists names, in write order, and they are the files present."""
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == sorted(names)


class TestRoots:
    def test_nondelayed_closed_forms(self, capsys):
        assert main(["roots", "--k", "1.2", "--c", "1", "--h", "0"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["lambda1"]) == pytest.approx(0.72361, abs=1e-5)
        assert float(kv["lambda2"]) == pytest.approx(0.27639, abs=1e-5)
        assert float(kv["mu1"]) == pytest.approx(2.0, abs=1e-9)
        assert float(kv["mu2"]) == pytest.approx(-1.0, abs=1e-9)
        assert kv["mu3"] == ""
        assert kv["in_region_Dkappa"] == "true"

    def test_tiny_delay_product_is_domain_error(self, capsys):
        assert main(["roots", "--k", "1.5", "--c", "0.5", "--h", "1e-150"]) == 1
        assert "domain error" in capsys.readouterr().err

    def test_delay_product_at_the_floor_prints_in_full(self, capsys):
        # printed to 3 digits, c h = 9.999999999999998e-71 read "1e-70 is below 1e-70"
        assert main(["roots", "--k", "1.2", "--c", "10", "--h", "1e-71"]) == 1
        assert "c*h = 9.999999999999998e-71 is below 1e-70" in capsys.readouterr().err

    def test_lambda2_below_lower_bracket_is_domain_error(self, capsys):
        assert main(["roots", "--k", "1.01", "--c", "1", "--h", "1e12"]) == 1
        assert "lambda2 lies below" in capsys.readouterr().err

    def test_small_speed_tiny_delay_solves_mu2(self, capsys):
        # c h = 1e-18: mu2 was bracketed from the peak near -1e20 and ran out of steps
        assert main(["roots", "--k", "1.2", "--c", "1e-6", "--h", "1e-12"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["mu2"]) == pytest.approx(-1.41421, abs=1e-5)
        assert kv["in_region_Dkappa"] == "true"


class TestToy:
    def test_minimal_speed_row(self, capsys):
        assert main(["toy", "--k", "1.2", "--h", "0.5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["c_star"]) == pytest.approx(0.6562, abs=5e-4)
        assert kv["regime"] == "pushed"
        assert kv["ratio_T"] == kv["target"] == "0.45"

    def test_limits(self, capsys):
        assert main(["toy", "--k", "1.5", "--limits"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["T1_inf"]) == pytest.approx(0.4637, abs=5e-4)
        assert kv["lambda_hat_inf"] == ""  # no real root at this k

    def test_transitions(self, capsys):
        assert main(["toy", "--k", "1.5", "--transitions"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["h_pushed_to_pulled"]) == pytest.approx(0.3379, abs=1e-3)
        assert kv["h_oscillation"] == ""

    @pytest.mark.parametrize("k,h_p,h_osc", [("1.36", "20.1276", "1.94062"),
                                             ("1.4", "1.86943", "1.75969")])
    def test_transitions_past_former_scan_limits(self, capsys, k, h_p, h_osc):
        # h_p beyond h = 20, and a pushed speed that leaves D_kappa in a
        # window narrower than a 0.1 step in h
        assert main(["toy", "--k", k, "--transitions"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert (kv["h_pushed_to_pulled"], kv["h_oscillation"]) == (h_p, h_osc)

    def test_tiny_delay_is_the_nondelayed_speed(self, capsys):
        # F(2 sqrt(k-1)) rounds to >= 0 here, which left brentq without a bracket
        assert main(["toy", "--k", "2.071565817361361", "--h", "1e-20"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["c_sharp"] == kv["c_star"] == "2.07033"
        assert kv["regime"] == "pulled"


class TestCurves:
    def test_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["curves", "--k", "1.2", "--h-min", "0", "--h-max", "1",
                "--h-step", "0.5", "--out", str(out)]
        assert main(args) == 0
        csv_text = (out / "curves.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "h,c_sharp,c_kappa,c_bound,c_star,regime,monotone_front"
        assert len(lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "curves"
        assert manifest["outputs"] == ["curves.csv"]
        assert manifest["version"] == "0.1.0"
        assert manifest["parameters"]["k"] == 1.2

    def test_header_and_formatting(self, tmp_path):
        argv = ["curves", "--k", "1.2", "--h-max", "0.5", "--h-step", "0.5"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "curves.csv").read_text().split("\n")
        assert lines[0] == "h,c_sharp,c_kappa,c_bound,c_star,regime,monotone_front"
        assert lines[1].startswith("0,0.894427,,,1.1595,pushed,true")

    def test_monotone_flag_is_lowercase(self, tmp_path):
        # k = 1.5 is pulled at these delays, where c_star is the linear speed
        argv = ["curves", "--k", "1.5", "--h-min", "0.2", "--h-max", "1", "--h-step", "0.8"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "curves.csv").read_text().split()[1:]
        flags = [line.rsplit(",", 1)[1] for line in rows]
        assert len(flags) == 2 and set(flags) <= {"true", "false"}

    def test_error_row(self, tmp_path, monkeypatch):
        from delayfronts import speedcurves

        real = speedcurves.chareq.double_root_speed

        def flaky(h, slope):
            if h == 0.5:
                raise AccuracyError("synthetic failure")
            return real(h, slope)

        monkeypatch.setattr(speedcurves.chareq, "double_root_speed", flaky)
        argv = ["curves", "--k", "1.2", "--h-max", "1", "--h-step", "0.5"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "curves.csv").read_text().split("\n")
        assert lines[2] == "0.5,error:AccuracyError: synthetic failure,,,,,"
        assert lines[1].startswith("0,0.894427,") and lines[3].startswith("1,0.426991,")

    def test_rows_past_the_delay_cap_are_error_rows(self, tmp_path):
        # c_kappa_curve is finite for every finite h; double_root_speed refuses h > 1e20
        argv = ["curves", "--k", "1.5", "--h-min", "0", "--h-max", "1e21",
                "--h-step", "1e19", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = (tmp_path / "curves.csv").read_text().splitlines()[1:]
        assert len(rows) == 101
        hs = [float(r.split(",")[0]) for r in rows]
        errors = [h for h, r in zip(hs, rows) if ",error:DomainError: delay must be at most" in r]
        assert errors == [h for h in hs if h > 1e20]
        assert len(errors) == sum(",error:" in r for r in rows) == 90

    # 0.13 / 0.05 = 2.6 steps ends at 0.1, not 0.15; 6 / 0.05 and 0.3 / 0.1
    # fall just below an integer number of steps, which still counts
    @pytest.mark.parametrize("h_min, h_max, h_step, n_rows", [
        ("0", "0.13", "0.05", 3), ("0", "6", "0.05", 121), ("0", "0.3", "0.1", 4),
        ("0.1", "0.1", "0.05", 1),
    ])
    def test_grid_stops_at_h_max(self, tmp_path, h_min, h_max, h_step, n_rows):
        assert main(["curves", "--k", "1.2", "--h-min", h_min, "--h-max", h_max,
                     "--h-step", h_step, "--out", str(tmp_path)]) == 0
        hs = [float(r.split(",")[0]) for r in (tmp_path / "curves.csv").read_text().split()[1:]]
        assert len(hs) == n_rows and hs[0] == float(h_min)
        assert max(hs) <= float(h_max) * (1 + 1e-12)

    def test_jobs_accepted_and_ignored(self, tmp_path):
        # rows always run in-process; --jobs only stays parseable
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            args = ["curves", "--k", "1.5", "--h-max", "1", "--h-step", "0.25",
                    "--jobs", jobs, "--out", str(out)]
            assert main(args) == 0
            texts.append((out / "curves.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_byte_identical_reruns(self, tmp_path):
        for argv in (
            ["curves", "--k", "1.2", "--h-max", "0.6", "--h-step", "0.3"],
            ["profile", "--k", "1.2", "--h", "0.5"],
            ["kernel", "--k", "1.2", "--c", "0.5", "--h", "1"],
            ["simulate", "--k", "1.2", "--h", "0.5", "--t-end", "10", "--snapshots", "0,5"],
        ):
            out = tmp_path / argv[0]
            files = []
            for _ in range(2):
                assert main(argv + ["--out", str(out)]) == 0
                files.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert "manifest.json" in files[0], argv[0]
            assert files[0] == files[1], argv[0]


class TestFmt:
    @pytest.mark.parametrize("value, text", [
        (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
        (2.0 / 3.0, "0.666667"), (np.float64(2.0 / 3.0), "0.666667"),
        (np.float32(0.1), "0.1"), (np.float32(2.0 / 3.0), "0.666667"),
        (None, ""), (7, "7"), (np.int64(7), "7"), ("error:E: m", "error:E: m"),
    ])
    def test_numpy_scalars_format_like_python_ones(self, value, text):
        assert _fmt(value) == text


class TestWriteCsv:
    def test_cells_match_fmt(self, tmp_path):
        floats = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e-300,
                  123456.5, 1e16]
        ints = [0, -1, 7, 42, 10**7, 123456789, -5, 1]
        _write_csv(tmp_path / "edge.csv", "x,n", np.array(floats), np.array(ints))
        expected = "x,n\n" + "".join(f"{_fmt(x)},{_fmt(n)}\n" for x, n in zip(floats, ints))
        assert (tmp_path / "edge.csv").read_text() == expected

    def test_error_cell_leaves_other_cells_alone(self, tmp_path):
        # numpy would turn this column into strings and print 0.123456789 whole
        _write_csv(tmp_path / "mixed.csv", "h,v,w", (0.5, 1.0), (0.123456789, "error:E: m"),
                   (2.0 / 3.0, None))
        text = (tmp_path / "mixed.csv").read_text()
        assert text == "h,v,w\n0.5,0.123457,0.666667\n1,error:E: m,\n"


class TestFloatColumns:
    """A float column written by _write_csv, byte for byte "{:.6g}" of each cell."""

    @staticmethod
    def check(tmp_path, x):
        x = np.asarray(x, dtype=np.float64)
        _write_csv(tmp_path / "x.csv", "x", x)
        text = (tmp_path / "x.csv").read_text()
        want = ["x", *map("{:.6g}".format, x.tolist()), ""]
        if text != "\n".join(want):  # the lines that differ, only on failure
            got = text.split("\n")
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
            assert len(got) == len(want) and not bad, [(x[i - 1], got[i]) for i in bad[:5]]

    @pytest.mark.slow
    def test_random_bit_patterns(self, tmp_path):
        # both signs, subnormals, infinities and NaNs (~500 each) included
        bits = np.random.default_rng(21).integers(0, 2**64, 10**6, dtype=np.uint64)
        x = np.concatenate([bits.view(np.float64), [np.nan, -np.nan, 4.9e-322, -2.2e-308]])
        self.check(tmp_path, x)

    @pytest.mark.slow
    def test_log_uniform(self, tmp_path):
        rng = np.random.default_rng(22)
        self.check(tmp_path, rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-20, 20, 10**6))

    @pytest.mark.slow
    def test_ties_at_the_sixth_digit(self, tmp_path):
        n = np.arange(10**5, 10**6, dtype=np.float64)
        self.check(tmp_path, n + 0.5)
        self.check(tmp_path, np.arange(1000005, 10**7, 10, dtype=np.float64))
        m = np.arange(10**4, 10**5, dtype=np.float64)
        self.check(tmp_path, np.concatenate([m + 0.25, m + 0.75, -(m + 0.75) / 2**10]))

    def test_carries_and_special_values(self, tmp_path):
        # each power of ten 1e-16..1e27, where log10 may round across it, and its
        # 1- and 2-ulp neighbours on both sides, in both signs
        tens = np.array([float(f"1e{k}") for k in range(-16, 28)])
        up, down = np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)
        near = np.concatenate([tens, up, np.nextafter(up, np.inf), down, np.nextafter(down, 0.0)])
        self.check(tmp_path, [
            9.999995e-5, 9.9999949e-5, 9.9999951e-5, 999999.5, 999999.49999, 99999.95,
            0.0099999951, 9999995.0, 1e-5, 1e-4, 1e5, 1e6, 1e-16, 9.99999e26, 1e27,
            0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1.7976931348623157e308,
            *near, *-near,
        ])

    @staticmethod
    def marked_column():
        t = np.random.default_rng(27).standard_normal(9000)  # three _ROWS chunks
        t[10] = -0.0  # == 0.0, but prints "-0"
        t.view(np.uint64)[20] = 0x7FF8_0000_0000_0001  # a NaN with a payload
        t.view(np.uint64)[8000] = 0xFFF8_0000_0000_0000  # a negative NaN
        return t

    def test_signed_zero_and_nan_payloads_across_chunks(self, tmp_path):
        t = self.marked_column()
        self.check(tmp_path, t)
        assert b"\n-0\n" in (tmp_path / "x.csv").read_bytes()

    @pytest.mark.parametrize("view", [lambda t: np.vstack([t, -t]).T[:, 0],  # every other float
                                      lambda t: t[:0]], ids=["strided", "empty"])
    def test_strided_and_empty_columns(self, tmp_path, view):
        self.check(tmp_path, view(self.marked_column()))


class TestBytePlanes:
    """Chunks and columns whose cells use different sets of byte planes (sign,
    "0.000" prefix, digits and points, exponent) keep the _fmt bytes."""

    @staticmethod
    def chunk(rng, kind, n):
        if kind == "fixed":  # positive, point >= 0, no exponent
            return rng.uniform(1.0, 1e5, n)
        if kind == "negative":
            return -rng.uniform(1.0, 1e3, n)
        if kind == "below_one":  # [1e-4, 1): a "0.000" prefix
            return 10.0 ** rng.uniform(-4.0, 0.0, n)
        if kind == "mixed":
            return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, 3.0, n)
        # "exponent" and "python": mostly scientific notation
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 30.0, n)
        if kind == "python":  # cells formatted by Python one at a time
            x[:8] = [np.nan, np.inf, -np.inf, 123456.5, 5e-324, -2.2e-310, 1e27, -3e300]
        return x

    def test_plane_sets_change_between_chunks_and_columns(self, tmp_path):
        rng = np.random.default_rng(30)
        n = cli._ROWS
        kinds = [("fixed", "fixed", "fixed"),  # no sign, prefix or exponent plane
                 ("negative", "below_one", "mixed"),
                 ("exponent", "python", "python")]
        columns = [np.concatenate([self.chunk(rng, row[j], n) for row in kinds])[:-1000]
                   for j in range(3)]
        # b.csv's columns run on past a.csv's last, partial chunk: the first
        # with a positive fixed tail, the others with negative ones.  Nothing
        # of a.csv's chunks may carry over into b.csv's
        extended = [np.concatenate([columns[0], self.chunk(rng, "fixed", 2000)])]
        extended += [np.concatenate([c, self.chunk(rng, "negative", 2000)]) for c in columns[1:]]
        for name, cols in (("a.csv", columns), ("b.csv", extended)):
            _write_csv(tmp_path / name, "t,u,v", *cols)
            rows = zip(*(map(_fmt, col) for col in cols))
            want = "\n".join(["t,u,v", *map(",".join, rows)]) + "\n"
            assert (tmp_path / name).read_text() == want, name


class TestCsvBytes:
    """Every CLI CSV equals the per-cell _fmt rendering of the same columns."""

    POINT = ([["profile", "--k", "1.2", "--h", h] for h in ("0", "0.5", "2", "6")]
             + [["kernel", "--k", "1.2", "--c", c, "--h", h]
                for c, h in (("0.5", "1"), ("1", "0.5"), ("0.3", "2"), ("0.2", "3"))]
             + [["simulate", "--k", "1.2", "--h", "0.5", "--snapshots", "0,20"]])

    def test_point_commands(self, tmp_path, monkeypatch):
        expected = {}

        def with_oracle(path, header, *columns):
            rows = zip(*(map(_fmt, col) for col in columns))
            expected[path] = "\n".join([header, *map(",".join, rows)]) + "\n"
            _write_csv(path, header, *columns)

        monkeypatch.setattr(cli, "_write_csv", with_oracle)
        for i, argv in enumerate(self.POINT):
            assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        assert len(expected) == 19
        for path, text in expected.items():
            assert path.read_bytes() == text.encode(), path.name

    @pytest.mark.parametrize("argv, name, sha256", [
        (["curves", "--k", "1.2"], "curves.csv",
         "ecbdabbff78b5d49805f7013193cc34ab6e4b840f6fec62d67a1a2c5b0361327"),
        (["table", "--k", "1.2", "--rows", "0.5,2"], "table.csv",
         "0ad37cff0bac3e48f6a8ad942f7d084b868746524c6ff8b0a0854138e5b6e185"),
        (["curves", "--k", "1.5"], "curves.csv",  # pulled rows
         "cc744d08e04684f808a1b6a0865c677d4a82a975b72f9e8ece39e5c4fa270424"),
        (["table", "--k", "1.2", "--rows", "0.5,-1"], "table.csv",  # an error row
         "86515412e052aaf52b9164da8cc49f37e59fb667c3a799bec764d0e55470be0a"),
        # the simulator's last bits, which run() and cn_step() could move together
        *[(["simulate", "--k", "1.2", "--h", "0.5", "--snapshots", "0,20"], name, sha256)
          for name, sha256 in [
              ("trajectory.csv",
               "90817ea707306e0272d463c7131cc8f3186db6dd592e77173799892317eb262a"),
              ("snapshot_t20.csv",
               "a795cfe6008d18391fb7149031971f7b96eac6e6079a3aad8830315089b664ca"),
              ("snapshot_t0.csv",
               "9b4dc8bc9cfd7012e16a9e6328e93d93ead934b598612dedce43a21ea836ec76")]],
    ])
    def test_mixed_columns_keep_their_bytes(self, tmp_path, argv, name, sha256):
        # digests of the files as the per-cell string-joining writer wrote them
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256


class TestProfileKernelSimulate:
    def test_profile_outputs(self, tmp_path):
        out = tmp_path / "prof"
        assert main(["profile", "--k", "1.2", "--h", "0.5", "--out", str(out)]) == 0
        header = json.loads((out / "profile.json").read_text())
        assert header["classification"] == "monotone"
        assert header["in_region_Dkappa"] is True
        assert header["c"] == pytest.approx(0.6561, abs=1e-3)
        body = (out / "profile.csv").read_text().strip().split("\n")
        assert body[0] == "t,phi,dphi"
        assert len(body) > 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"profile.csv", "profile.json"}

    def test_kernel_outputs(self, tmp_path):
        out = tmp_path / "ker"
        args = ["kernel", "--k", "1.2", "--c", "0.5", "--h", "1", "--out", str(out)]
        assert main(args) == 0
        for name in ("psi.csv", "theta.csv", "n.csv"):
            text = (out / name).read_text()
            assert text.startswith("t,value\n")
        psi_rows = (out / "psi.csv").read_text().strip().split("\n")[1:]
        values = [float(r.split(",")[1]) for r in psi_rows]
        assert max(values) < 0.0
        assert_manifest_lists(out, ["psi.csv", "theta.csv", "n.csv"])

    def test_kernel_computes_psi_once(self, tmp_path, monkeypatch):
        calls = []
        psi_kernel = kernels.psi_kernel

        def counted(*args, **kwargs):
            calls.append(args)
            return psi_kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, "psi_kernel", counted)
        args = ["kernel", "--k", "1.2", "--c", "0.5", "--h", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        assert len(calls) == 1

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "sim"
        args = ["simulate", "--k", "1.2", "--h", "0.5", "--t-end", "40",
                "--snapshots", "0,20", "--out", str(out)]
        assert main(args) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["c_ns"] == pytest.approx(0.6377, abs=0.02)
        assert (out / "snapshot_t0.csv").exists()
        assert (out / "snapshot_t20.csv").exists()
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "t,x_level"
        assert_manifest_lists(
            out, ["trajectory.csv", "snapshot_t0.csv", "snapshot_t20.csv", "result.json"])

    def test_simulate_names_snapshots_past_the_wall_stop(self, tmp_path, capsys):
        out = tmp_path / "sim"
        args = ["simulate", "--k", "1.2", "--h", "0.5", "--t-end", "100",
                "--snapshots", "10,100", "--out", str(out)]
        assert main(args) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["t_final"] == pytest.approx(31.96, abs=1e-9)
        err = capsys.readouterr().err.splitlines()
        assert err == ["simulate: no snapshot at t=100: the run stopped at the "
                       "left wall at t=31.96"]
        assert sorted(p.name for p in out.glob("snapshot_*")) == ["snapshot_t10.csv"]

    # 100.0001 and 100.0002 both print as 100: the second snapshot overwrote
    # the first and manifest.json listed snapshot_t100.csv twice
    def test_simulate_refuses_snapshots_sharing_a_file_name(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_run(cfg):
            raise AssertionError("ran")

        monkeypatch.setattr(pdesim, "run", no_run)
        out = tmp_path / "sim"
        assert main(["simulate", "--k", "1.2", "--h", "0", "--dt", "1e-4",
                     "--t-end", "100.0003", "--snapshots", "100.0001,100.0002",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "snapshot_t100.csv" in err
        assert "100.0001" in err and "100.0002" in err
        assert not out.exists()

    def test_table_single_row(self, tmp_path):
        out = tmp_path / "tab"
        args = ["table", "--k", "1.2", "--rows", "0.5", "--out", str(out)]
        assert main(args) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")
        assert lines[0] == "h,c_sharp,c_star,c_ns"
        h, cs, cst, cns = (float(v) for v in lines[1].split(","))
        assert cs == pytest.approx(0.5720, abs=5e-4)
        assert cst == pytest.approx(0.6562, abs=5e-4)
        assert cns == pytest.approx(0.6377, abs=0.02)

    @pytest.mark.parametrize("bad", [
        ["--t-end", "10", "--snapshots", "50"],
        ["--x-min", "25", "--x-max", "-25"],
        ["--x-min", "0", "--x-max", "0.1"],
        ["--t-end", "inf"],
    ])
    def test_simulate_rejects_bad_grid(self, tmp_path, capsys, bad):
        args = ["simulate", "--k", "1.2", "--h", "0.5", *bad, "--out", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("domain error:")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("bad", [
        ["kernel", "--c", "0.5", "--h", "1", "--step", "0"],
        ["kernel", "--c", "0.5", "--h", "1", "--step", "nan"],
        ["kernel", "--c", "0.5", "--h", "1", "--t-max", "-1"],
        ["profile", "--h", "1", "--grid-step", "-0.01"],
        ["profile", "--h", "1", "--t-max", "nan"],
    ])
    def test_nonpositive_step_or_t_max_is_domain_error(self, tmp_path, capsys, bad):
        assert main([*bad, "--k", "1.2", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("domain error:")
        assert not (tmp_path / "psi.csv").exists()
        assert not (tmp_path / "profile.csv").exists()

    def test_table_jobs_accepted_and_ignored(self, tmp_path, monkeypatch):
        # rows always run in-process, in row order; --jobs only stays parseable
        seen = []

        def run(cfg):
            seen.append(cfg.h)
            return SimpleNamespace(c_ns=0.5)

        monkeypatch.setattr(pdesim, "run", run)
        base = ["table", "--k", "1.2", "--rows", "0.5,1", "--t-end", "60"]
        texts = []
        for jobs in ("1", "2"):
            assert main([*base, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
            texts.append((tmp_path / jobs / "table.csv").read_bytes())
        assert texts[0] == texts[1]
        assert seen == [0.5, 1.0, 0.5, 1.0]

    def test_table_row_failure_is_isolated(self, tmp_path, monkeypatch):
        def flaky(cfg):
            if cfg.h == 1.0:
                raise AccuracyError("synthetic failure")
            return SimpleNamespace(c_ns=0.123456789)

        monkeypatch.setattr(pdesim, "run", flaky)
        out = tmp_path / "tab"
        assert main(["table", "--k", "1.2", "--rows", "0.5,1", "--out", str(out)]) == 0
        lines = (out / "table.csv").read_text().split("\n")
        c_sharp, c_star = double_root_speed(0.5, 1.2)[0], toyfront.minimal_speed(0.5, 1.2)[0]
        assert lines[1] == f"0.5,{_fmt(c_sharp)},{_fmt(c_star)},0.123457"
        assert lines[2] == "1,error:AccuracyError: synthetic failure,,"
        assert json.loads((out / "manifest.json").read_text())["outputs"] == ["table.csv"]

    def test_table_unexpected_failure_propagates(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(pdesim, "run", broken)
        with pytest.raises(RuntimeError, match="synthetic bug"):
            main(["table", "--k", "1.2", "--rows", "0.5", "--out", str(tmp_path)])


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.2\nh = 0.5\n")
        assert main(["--config", str(cfg), "toy"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["c_star"]) == pytest.approx(0.6562, abs=5e-4)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.2\nh = 6\n")
        assert main(["--config", str(cfg), "toy", "--h", "0.5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["h"]) == 0.5

    def test_equals_form_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.5\n")
        assert main(["--config", str(cfg), "toy", "--k=1.2", "--h", "0.5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["c_star"]) == pytest.approx(0.6562, abs=5e-4)

    def test_unknown_keys_are_ignored_for_other_commands(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1.2\ndx = 0.05\nlimits = true\n")
        assert main(["--config", str(cfg), "toy", "--h", "0"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert "T1_inf" in kv  # limits=true applied

    # only the full --config spelling is read, so a shortened one is refused
    # by name (argparse set it aside and blamed its value: "invalid choice")
    @pytest.mark.parametrize("flag, name", [("--conf", "run.cfg"), ("--con", "missing.cfg")])
    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys, flag, name):
        (tmp_path / "run.cfg").write_text("k = 1.2\nh = 0.5\n")
        assert main([flag, str(tmp_path / name), "toy", "--k", "1.2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:") and flag in err
        assert name not in err and "Traceback" not in err

    def test_missing_config_file_is_usage_error(self):
        assert main(["--config", "/nonexistent.cfg", "toy", "--k", "1.2"]) == 3

    def test_comment_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# k = 3.5\nk = 1.2\n")
        assert main(["--config", str(cfg), "toy", "--h", "0.5"]) == 0
        assert float(parse_kv(capsys.readouterr().out)["c_star"]) == pytest.approx(
            0.6562, abs=5e-4)

    @pytest.mark.parametrize("text, key", [("k = 1.2\nt_ed = 100\n", "t_ed"),
                                           ("seed = 3\n", "seed")])
    def test_key_of_no_command_is_usage_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "toy", "--k", "1.2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:") and repr(key) in err

    @pytest.mark.parametrize("text", ["k 1.2\n", "k = 1.2\nlimits = yes\n"])
    def test_malformed_entry_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "toy", "--k", "1.2"]) == 3
        assert capsys.readouterr().err.startswith("usage error:")


class TestUnusablePaths:
    """An --out or --config path that cannot be used is a usage error that
    names it, not a traceback."""

    @staticmethod
    def assert_usage_error(argv, path, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(path) in err
        assert "Traceback" not in err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        self.assert_usage_error(["profile", "--k", "1.2", "--h", "0.5", "--out", str(out)],
                                out, capsys)

    def test_out_below_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub"
        self.assert_usage_error(["profile", "--k", "1.2", "--h", "0.5", "--out", str(out)],
                                out, capsys)

    def test_output_file_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "profile.csv").mkdir()
        self.assert_usage_error(["profile", "--k", "1.2", "--h", "0.5", "--out", str(tmp_path)],
                                tmp_path / "profile.csv", capsys)

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.assert_usage_error(["toy", "--k", "1.2", "--config", str(tmp_path)], tmp_path, capsys)

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 1.2\n\xff\xfe\n")
        self.assert_usage_error(["toy", "--k", "1.2", "--config", str(cfg)], cfg, capsys)


class TestExitCodes:
    def test_seed_rejected(self, capsys):
        # no command takes --seed, before the command or after it
        for argv in (["--seed", "7", "toy", "--k", "1.2"], ["toy", "--k", "1.2", "--seed", "7"]):
            assert main(argv) == 3
            assert "--seed" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["toy", "--k", "1.2", "--bogus"]) == 3

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 3

    def test_domain_error_exit_code(self, capsys, tmp_path):
        # c below the region boundary requirement for kernels
        out = tmp_path / "out"
        assert main(["kernel", "--k", "1.2", "--c", "2.5", "--h", "1", "--out", str(out)]) == 1
        assert "domain error" in capsys.readouterr().err
        assert not out.exists()  # psi_kernel raises before the output directory is made

    # main makes --out only once a command has computed all its outputs;
    # curves and table once made it before failing
    @pytest.mark.parametrize("argv, message", [
        (["curves", "--k", "1.2", "--h-min", "-1", "--h-max", "-0.9"],
         "delays must be nonnegative"),
        (["table", "--k", "5", "--rows", "0.5"], "k must lie in (1, 3)"),
        (["table", "--k", "1.2", "--rows", "0.5", "--t-end", "nan"], "finite grid"),
        (["profile", "--k", "1.2", "--c", "0.1", "--h", "0.5"], "below the linear speed"),
        (["simulate", "--k", "1.2", "--h", "0.5", "--x-min", "25", "--x-max", "-25"],
         "must span at least 3 cells"),
    ], ids=["curves", "table", "table_t_end", "profile", "simulate"])
    def test_failing_command_leaves_no_output_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_accuracy_error_exit_code(self, capsys, tmp_path):
        # a grid step far too coarse for the normalization contract
        assert main(["kernel", "--k", "1.2", "--c", "0.5", "--h", "1",
                     "--step", "0.125", "--out", str(tmp_path)]) == 2
        assert "accuracy error" in capsys.readouterr().err

    def test_kernel_short_t_max_is_accuracy_error_naming_t_max(self, capsys, tmp_path):
        assert main(["kernel", "--k", "1.2", "--c", "0.5", "--h", "1",
                     "--t-max", "0.2", "--out", str(tmp_path)]) == 2
        assert "t_max = 0.2 cut psi" in capsys.readouterr().err

    def test_profile_step_below_floor_is_domain_error(self, capsys, tmp_path,
                                                      monkeypatch):
        # refused before the RK4 loop: at dt = c h/16 it would need ~1e8 nodes
        def no_integration(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(toyfront, "_delay_rk4", no_integration)
        assert main(["profile", "--k", "1.2", "--h", "1e-6", "--out", str(tmp_path)]) == 1
        assert "below" in capsys.readouterr().err

    def test_invalid_k_is_domain_error(self, capsys):
        # below 3.5, toy said "double_root_speed needs slope > 1"
        for k in ("0.5", "1", "nan", "3.5"):
            assert main(["toy", "--k", k]) == 1
            assert "k must lie in (1, 3), got" in capsys.readouterr().err, k

    def test_transitions_of_an_always_pulled_k_is_domain_error(self, capsys):
        assert main(["toy", "--k", "1.7", "--transitions"]) == 1
        assert "pushed-branch thresholds" in capsys.readouterr().err

    # p rounds to 1 at these speeds: the profile was NaN and exited 0
    @pytest.mark.parametrize("c", ["50", "100"])
    def test_non_finite_profile_is_accuracy_error(self, tmp_path, capsys, c):
        out = tmp_path / "out"
        assert main(["profile", "--k", "1.2", "--h", "0.5", "--c", c,
                     "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    # these raised scipy's ValueError, numpy's MemoryError (237 TiB) and
    # numpy's "Maximum allowed size exceeded", and the profile's 2e7-node
    # history exited 2 after ~2 s; all are refused before any large allocation
    @pytest.mark.parametrize("argv", [
        ["roots", "--c", "1e300", "--h", "1"],
        ["kernel", "--c", "1e-5", "--h", "1e-5"],
        ["simulate", "--h", "0.5", "--dx", "1e-300"],
        ["profile", "--h", "0.5", "--c", "2e4"],
    ])
    def test_overflowing_input_is_domain_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--k", "1.2", *([] if argv[0] == "roots" else
                                             ["--out", str(out)])]) == 1
        assert capsys.readouterr().err.startswith("domain error:")
        assert not out.exists()

    # these raised scipy's untyped ValueError out of a root solve
    @pytest.mark.parametrize("argv", [
        ["roots", "--c", "nan", "--h", "1"],
        ["roots", "--c", "inf", "--h", "1"],
        ["roots", "--c", "1", "--h", "nan"],
        ["profile", "--h", "nan"],
        ["profile", "--h", "1", "--c", "inf"],
        ["kernel", "--c", "0.5", "--h", "inf"],
        ["kernel", "--c", "nan", "--h", "1"],
    ])
    def test_non_finite_speed_or_delay_is_domain_error(self, tmp_path, capsys, argv):
        out = [] if argv[0] == "roots" else ["--out", str(tmp_path)]
        assert main([*argv, "--k", "1.2", *out]) == 1
        assert capsys.readouterr().err.startswith("domain error:")

    # these raised ZeroDivisionError or ValueError, and a negative step or
    # a reversed grid exited 0 with a header-only curves.csv
    @pytest.mark.parametrize("argv", [
        ["curves", "--h-step", "0"],
        ["curves", "--h-step", "nan"],
        ["curves", "--h-min", "nan"],
        ["curves", "--h-step", "-0.05"],
        ["curves", "--h-min", "2", "--h-max", "1"],
        ["table", "--rows", "a"],
        ["table", "--rows", "0.5,,1"],
        ["simulate", "--h", "0.5", "--snapshots", "x"],
    ])
    def test_bad_grid_or_list_argument_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--k", "1.2", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    # a 1e-300 step built a list of 6e300 rows until memory ran out; a step
    # of 5e-324 made the row count infinite and raised OverflowError
    @pytest.mark.parametrize("h_step", ["1e-300", "5e-324"])
    def test_curves_grid_over_the_step_cap_is_domain_error(self, tmp_path, capsys, h_step):
        out = tmp_path / "out"
        assert main(["curves", "--k", "1.2", "--h-step", h_step, "--out", str(out)]) == 1
        assert "steps is over the cap" in capsys.readouterr().err
        assert not out.exists()


class TestImportCost:
    def test_cli_import_loads_no_scipy_signal(self):
        # scipy.signal (with scipy.stats) was about half of the import time
        src = Path(kernels.__file__).resolve().parent.parent
        code = "import delayfronts.cli, sys; assert 'scipy.signal' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(src)})

    # brentq, lambertw and dpttrf/dpttrs were all the package took from these;
    # with them the import took ~0.8 s, without ~0.2 s
    @pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special", "scipy.linalg"])
    def test_cli_import_loads_no_scipy_solver_package(self, module):
        src = Path(kernels.__file__).resolve().parent.parent
        code = f"import delayfronts.cli, sys; assert {module!r} not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(src)})

    # LAPACK dpttrf/dpttrs and BLAS daxpy are loaded on the first simulation:
    # mapping scipy's wrappers at import added ~2.6 MB (LAPACK) and ~1.3 MB
    # (BLAS) of peak RSS to commands that never simulate; so is mmap, which
    # only the g ring uses
    def test_blas_wrapper_loads_on_the_first_run_only(self, tmp_path):
        src = Path(kernels.__file__).resolve().parent.parent
        out = str(tmp_path)
        code = ("import delayfronts.cli, sys\n"
                "from delayfronts import SimConfig, run\n"
                f"for argv in ({['curves', '--k', '1.2', '--h-max', '0.5', '--out', out]!r},\n"
                "             ['roots', '--k', '1.2', '--c', '1', '--h', '0.5'],\n"
                "             ['toy', '--k', '1.2', '--h', '0.5', '--transitions'],\n"
                f"             {['profile', '--k', '1.2', '--h', '0.5', '--out', out]!r},\n"
                f"             {['kernel', '--k', '1.2', '--c', '0.5', '--h', '1', '--out', out]!r}):\n"
                "    assert delayfronts.cli.main(argv) == 0, argv\n"
                "scipy = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
                "assert not scipy, scipy\n"
                "assert 'mmap' not in sys.modules\n"
                "run(SimConfig(h=0.5, k=1.2, t_end=5.0))\n"
                "assert 'mmap' in sys.modules\n"
                "assert 'scipy.linalg._flapack' in sys.modules\n"
                "assert 'scipy.linalg._fblas' in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(src)})
