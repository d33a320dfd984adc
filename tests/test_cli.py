import json
import os

import numpy as np
import pytest

from mgt_spectral.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--tau", "0.1", "--beta", "1")
        assert code == 0
        assert "m1 = 3.125" in out
        assert "m2 = 3.2000000000000002" in out
        assert "SubCritical" in out
        assert "C1 = -253" in out

    def test_conservative_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--tau", "1", "--beta", "1")
        assert code == 2
        assert "dissipative" in err.lower()

    def test_supercritical_message(self, capsys):
        code, out, _ = run(capsys, "classify", "--tau", "0.5", "--beta", "1")
        assert code == 0
        assert "SuperCritical" in out
        assert "conjugate pair for all |xi| > 0" in out
        assert "m1 = absent" in out

    def test_all_bounds_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--tau", "0.1", "--beta", "1",
                           "--dim", "3", "--j", "0", "--all-bounds")
        assert code == 0
        assert "applicable exponent" in out

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2

    def test_wave_speed_rescaling(self, capsys):
        # c=2 folds into beta -> 4*beta
        code, out, _ = run(capsys, "classify", "--tau", "0.1", "--beta", "0.25", "--c", "2")
        assert code == 0
        assert "m1 = 3.125" in out


class TestAtlas:
    def test_csv_columns_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.csv"
        code, _, _ = run(capsys, "atlas", "--tau", "0.5", "--beta", "1",
                         "--k-min", "0", "--k-max", "1", "--k-count", "3",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# mgt-spectral")
        assert lines[2] == "k,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3,pattern"
        first = lines[3].split(",")
        assert float(first[1]) == pytest.approx(-2.0)
        assert first[8 - 1] == "RealWithDouble"

    def test_byte_reproducibility(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "atlas", "--tau", "0.1", "--beta", "1",
                             "--k-min", "0", "--k-max", "3", "--k-count", "50",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "atlas", "--tau", "0.1", "--beta", "1",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 3

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "atlas", "--tau", "0.1", "--beta", "1",
                         "--k-min", "5", "--k-max", "1", "--k-count", "10")
        assert code == 2


class TestMode:
    def test_zero_data_columns(self, capsys):
        code, out, _ = run(capsys, "mode", "--tau", "0.1", "--beta", "1", "--k", "1",
                           "--t-min", "0", "--t-max", "1", "--t-count", "3",
                           "--data", "u0:zero,u1:zero,u2:zero")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0] == "t,re_u,im_u,v_sq,energy,lyap"
        for row in rows[1:]:
            vals = [float(x) for x in row.split(",")]
            assert vals[1:] == [0.0] * 5

    def test_equilibrium_mode(self, capsys):
        code, out, _ = run(capsys, "mode", "--tau", "0.1", "--beta", "1", "--k", "0",
                           "--t-min", "0", "--t-max", "5", "--t-count", "6",
                           "--data", "u0:gaussian:1:1,u1:zero,u2:zero")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
        assert all(float(r[1]) == pytest.approx(1.0) for r in rows)

    def test_lyapunov_column_weighted_monotone(self, capsys):
        code, out, _ = run(capsys, "mode", "--tau", "0.1", "--beta", "1", "--k", "1",
                           "--t-min", "0", "--t-max", "10", "--t-count", "41",
                           "--data", "u0:gaussian:1:1,u1:gaussian:1:1,u2:gaussian:1:1")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
        lyap = np.array([float(r[5]) for r in rows])
        assert np.all(np.diff(lyap) <= 1e-12)  # decaying along the trajectory


class TestDecay:
    def test_json_summary_within_bound(self, capsys):
        code, out, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                           "--dim", "3", "--j", "0",
                           "--data", "u0:zero,u1:zero,u2:gaussian:1:1",
                           "--t-min", "100", "--t-max", "1000", "--t-count", "7",
                           "--quad-tol", "1e-9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "WITHIN_BOUND"
        assert payload["bound_exponent"] == pytest.approx(-0.25)
        assert abs(payload["fitted_slope"] + 0.25) < 0.05
        assert len(payload["rows"]) == 7

    def test_csv_plus_json_files(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                         "--dim", "1", "--j", "0",
                         "--data", "u0:gaussian:1:1,u1:zero,u2:zero",
                         "--t-min", "1", "--t-max", "10", "--t-count", "4",
                         "--quad-tol", "1e-9", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[2] == "t,norm,bound_value"
        assert os.path.exists(str(out_path) + ".json")
        payload = json.loads((tmp_path / "curve.csv.json").read_text())
        assert payload["dim"] == 1

    def test_bad_quad_tol(self, capsys):
        code, _, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                         "--quad-tol", "2.0")
        assert code == 2

    def test_bad_data_string(self, capsys):
        code, _, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                         "--data", "u0:whatever")
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.1\nbeta = 1.0\n# comment\ndim = 3\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert "m1 = 3.125" in out

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.5\nbeta = 1.0\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfg),
                           "--tau", "0.1")
        assert code == 0
        assert "SubCritical" in out

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau 0.5\n")
        code, _, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 2

    def test_missing_config(self, capsys):
        code, _, _ = run(capsys, "classify", "--config", "/no/such/file")
        assert code == 2


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "0.1", "--beta", "1", "--quick")
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out

    def test_near_conservative_still_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "0.9999", "--beta", "1", "--quick")
        assert code == 0
        assert "min_gamma5" in out

    @pytest.mark.parametrize("argv, config", [
        (["--beta", "3", "--c", "2"], ""),
        (["--tau", "0.1"], ""),
        (["--c", "2"], ""),
        ([], "beta = 3\n"),
        ([], "c = 2\n"),
    ])
    def test_partial_parameters_rejected(self, capsys, tmp_path, argv, config):
        # a model parameter without tau and beta is bad input, not the default point
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = [*argv, "--config", str(cfg)]
        code, out, err = run(capsys, "verify", "--quick", *argv)
        assert code == 2
        assert out == ""
        assert "both --tau and --beta are required" in err

    def test_wave_speed_reaches_the_header(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 2\n")
        code, out, _ = run(capsys, "verify", "--quick", "--tau", "0.3", "--beta", "0.375",
                           "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == ("mgt-spectral 0.1.0 verify "
                                       "(tau=0.29999999999999999, beta=1.5, quick=True)")


class TestWaveSpeed:
    """--c folds into the damping only: --c 2 --beta b is --beta 4b, byte for byte."""

    @pytest.mark.parametrize("command, extra", [
        ("atlas", ["--k-min", "0", "--k-max", "4", "--k-count", "60"]),
        ("mode", ["--k", "1.3", "--t-max", "5", "--t-count", "21",
                  "--data", "u0:gaussian:1:1,u1:mfgaussian:1:1,u2:zero"]),
    ])
    @pytest.mark.parametrize("beta", [0.25, 0.3])
    def test_c_equals_beta_rescaling(self, capsys, command, extra, beta):
        code_c, out_c, _ = run(capsys, command, "--tau", "0.1", "--beta", repr(beta),
                               "--c", "2", *extra)
        code_b, out_b, _ = run(capsys, command, "--tau", "0.1", "--beta", repr(4 * beta),
                               *extra)
        assert code_c == code_b == 0
        assert out_c == out_b
