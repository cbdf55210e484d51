import json

import numpy as np
import pytest

from delayfronts import kernels
from delayfronts.cli import _Manifest, main
from delayfronts.speedcurves import _fmt


def parse_kv(output: str) -> dict:
    out = {}
    for line in output.strip().split("\n"):
        key, val = line.split("=", 1)
        out[key] = val
    return out


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


class TestToy:
    def test_minimal_speed_row(self, capsys):
        assert main(["toy", "--k", "1.2", "--h", "0.5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["c_star"]) == pytest.approx(0.6562, abs=5e-4)
        assert kv["regime"] == "pushed"

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


class TestWriteCsv:
    def test_cells_match_fmt(self, tmp_path):
        floats = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e-300,
                  123456.5, 1e16]
        ints = [0, -1, 7, 42, 10**7, 123456789, -5, 1]
        man = _Manifest("test", {}, str(tmp_path))
        man.write_csv("edge.csv", "x,n", np.array(floats), np.array(ints))
        expected = "x,n\n" + "".join(f"{_fmt(x)},{_fmt(n)}\n" for x, n in zip(floats, ints))
        assert (tmp_path / "edge.csv").read_text() == expected
        assert man.outputs == ["edge.csv"]


class TestProfileKernelSimulate:
    def test_profile_outputs(self, tmp_path):
        out = tmp_path / "prof"
        assert main(["profile", "--k", "1.2", "--h", "0.5", "--out", str(out)]) == 0
        header = json.loads((out / "profile.json").read_text())
        assert header["classification"] == "monotone"
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

    def test_missing_config_file_is_usage_error(self):
        assert main(["--config", "/nonexistent.cfg", "toy", "--k", "1.2"]) == 3


class TestExitCodes:
    def test_seed_rejected(self, capsys):
        assert main(["--seed", "7", "toy", "--k", "1.2"]) == 3
        assert "deterministic" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["toy", "--k", "1.2", "--bogus"]) == 3

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 3

    def test_domain_error_exit_code(self, capsys):
        # c below the region boundary requirement for kernels
        assert main(["kernel", "--k", "1.2", "--c", "2.5", "--h", "1",
                     "--out", "/tmp/df-domain-err"]) == 1
        assert "domain error" in capsys.readouterr().err

    def test_accuracy_error_exit_code(self, capsys, tmp_path):
        # a grid step far too coarse for the normalization contract
        assert main(["kernel", "--k", "1.2", "--c", "0.5", "--h", "1",
                     "--step", "0.125", "--out", str(tmp_path)]) == 2
        assert "accuracy error" in capsys.readouterr().err

    def test_invalid_k_is_domain_error(self, capsys):
        assert main(["toy", "--k", "3.5"]) == 1
