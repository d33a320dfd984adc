import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgt_spectral.cli import _COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--tau", "0.1", "--beta", "1")
        assert code == 0
        assert "m1 = 3.125" in out
        assert "m2 = 3.1999999999999997" in out
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
        code, out, err = run(capsys, "atlas", "--tau", "0.1", "--beta", "1", "--k-min", "-1")
        assert (code, out, err) == (2, "", "error: --k-min must be >= 0, got -1.0\n")


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

    def test_help_states_the_root_contract(self, capsys):
        code, out, _ = run_exit(capsys, "mode", "--help")
        assert code == 0
        assert ("The roots are backward accurate: exact for a cubic within TOL_RESIDUAL of the "
                "input or, in the confluent windows, one whose k^2 and tau/beta lie within "
                "TOL_BOUNDARY and TOL_CRITICAL of it (see mgt_spectral.eigenvalues' triple "
                "root).") in " ".join(out.split())


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

    def test_json_summary_reports_quadrature_diagnostics(self, capsys):
        code, out, _ = run(capsys, "decay", "--tau", "0.965", "--beta", "1", "--dim", "3",
                           "--t-min", "100", "--t-max", "10000", "--t-count", "5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for name in ("quad_nodes", "quad_error", "k_max", "tail_bound"):
            assert len(payload[name]) == 5, name
        assert all(e + b <= payload["quad_tol"]
                   for e, b in zip(payload["quad_error"], payload["tail_bound"]))
        assert max(payload["quad_nodes"]) <= 5000

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

    @pytest.mark.parametrize("command", ["mode", "decay"])
    @pytest.mark.parametrize("spec", ["u0:gaussian:1:1:7", "u0:zero:5:abc", "u0:zero:1",
                                      "u1:gaussian:abc", "u2:mfgaussian:1:x",
                                      "u0:gaussian,u0:zero"])
    def test_extra_or_malformed_data_fields_exit_2(self, capsys, command, spec):
        code, out, err = run(capsys, command, "--tau", "0.1", "--beta", "1",
                             "--t-count", "3", "--data", spec)
        assert code == 2 and out == ""
        assert "--data" in err and spec.split(":")[0] in err


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
        # the sample counts of the seeded draw stream, one per suite that draws or sweeps
        for count in ("n=1000", "n=20", "n=5", "pairs=3", "combos=2"):
            assert f" {count} " in out

    def test_near_conservative_still_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "0.9999", "--beta", "1", "--quick")
        assert code == 0
        assert "min_gamma5" in out

    @pytest.mark.parametrize("argv, config", [
        (["--beta", "3"], ""),
        (["--tau", "0.1"], ""),
        ([], "beta = 3\n"),
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

    def test_config_point_reaches_the_header(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.5\n")
        code, out, _ = run(capsys, "verify", "--quick", "--tau", "0.3", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == ("mgt-spectral 0.1.0 verify "
                                       "(tau=0.29999999999999999, beta=1.5, quick=True)")

    def test_help_describes_the_command_and_its_optional_point(self, capsys):
        code, out, _ = run_exit(capsys, "verify", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "(required)" not in text
        assert ("run the full numerical invariant suite; gronwall_margin (as its first pair) "
                "and theorem_bounds use tau, beta") in text
        for flag in ("--tau TAU relaxation time, 0 < tau < beta", "--beta BETA damping coefficient"):
            assert (f"{flag} (optional, given together; default (0.1, 1); used only by "
                    "gronwall_margin and theorem_bounds)") in text


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_subcommand_help_opens_with_its_summary(capsys, command):
    from mgt_spectral.cli import _build_parser
    summary = _build_parser()[1][command].description
    listing = " ".join(run_exit(capsys, "--help")[1].split())
    code, out, _ = run_exit(capsys, command, "--help")
    assert code == 0
    assert summary and summary in listing  # the same line as in the `mgt --help` list
    assert " ".join(out.split("\n\n")[1].split()) == summary
    text = " ".join(out.split())
    point = "(optional, given together" if command == "verify" else "(required)"
    assert point in text
    grid = {"atlas": ("k", "frequencies"), "mode": ("t", "times"), "decay": ("t", "times")}
    if command in grid:  # the grid options name their nodes in the plural
        v, nodes = grid[command]
        assert f"--{v}-count {v.upper()}_COUNT number of {nodes} (default:" in text
        assert f"--no-{v}-log log-spaced {nodes} (default:" in text


@pytest.mark.parametrize("argv, config, message", [
    *[pytest.param([cmd, "--c", "2"], "", "unrecognized arguments: --c 2", id=f"{cmd}-flag-c")
      for cmd in _COMMANDS],
    *[pytest.param([cmd], "c = 2\n", f"unknown config key 'c' for mgt {cmd}", id=f"{cmd}-config-c")
      for cmd in _COMMANDS],
    pytest.param(["mode", "--data", "u0:momentfree"], "", "unknown profile type 'momentfree'",
                 id="mode-momentfree"),
    pytest.param(["decay", "--data", "u0:momentfree:1:1"], "", "unknown profile type 'momentfree'",
                 id="decay-momentfree"),
])
def test_removed_spellings_exit_2(capsys, tmp_path, monkeypatch, argv, config, message):
    # the wave speed is normalized to one, and mfgaussian is the one moment-free type;
    # --c is no prefix of --config either, so a config file named 2 is never read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "2").write_text("tau = 0.5\nbeta = 1\n")
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", "run.cfg"]
    code, out, err = run_exit(capsys, argv[0], "--tau", "0.1", "--beta", "0.25", *argv[1:])
    assert (code, out) == (2, "")
    assert message in err


def run_exit(capsys, *argv):
    """run(), also for argparse errors, which leave main through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# a value for every long option but --config (True: a store_true flag), and the
# settings every run of the command starts from unless the option itself is tested
_OPTION_VALUES = {
    "classify": {"dim": "1", "j": "1", "all_bounds": True},
    "atlas": {"k_min": "0.25", "k_max": "2", "k_count": "7", "k_log": True},
    "mode": {"k": "1.3", "t_min": "0.25", "t_max": "4", "t_count": "6", "t_log": True,
             "data": "u0:zero,u1:gaussian:1:1,u2:zero"},
    "decay": {"dim": "1", "j": "1", "t_min": "200", "t_max": "2000", "t_count": "4",
              "t_log": True, "data": "u0:zero,u1:zero,u2:gaussian:1:1", "quad_tol": "1e-7",
              "v_norm": True, "format": "json"},
    "verify": {"quick": True},
}
_COMMON_VALUES = {"tau": "0.2", "beta": "1.5", "out": "result.txt"}
_BASE = {"classify": {}, "atlas": {"k_min": "0.5", "k_count": "5"},
         "mode": {"t_min": "0.5", "t_count": "5"},
         "decay": {"t_count": "3", "quad_tol": "1e-6"}, "verify": {}}


def _flag_tokens(key, value):
    flag = "--" + key.replace("_", "-")
    return [flag] if value is True else [flag, value]


def _config_line(key, value):
    return f"{key} = {'true' if value is True else value}\n"


def _stub_suites(monkeypatch):
    from mgt_spectral import Check, verify
    for name in ("spectrum", "oracle", "energy", "gronwall", "lemmas", "theorem_bounds"):
        monkeypatch.setattr(verify, f"_suite_{name}", lambda *a: [Check("stub", 0.0, 1.0)])


@pytest.mark.parametrize("command, key", [
    (command, key) for command, values in _OPTION_VALUES.items()
    for key in [*_COMMON_VALUES, *values]])
def test_config_value_acts_as_its_flag(capsys, tmp_path, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    _stub_suites(monkeypatch)
    value = {**_COMMON_VALUES, **_OPTION_VALUES[command]}[key]
    base = {"tau": "0.1", "beta": "1", **_BASE[command]}
    base.pop(key, None)
    argv = [command] + [tok for k, v in base.items() for tok in _flag_tokens(k, v)]

    def outcome(*extra):
        result = run_exit(capsys, *argv, *extra)
        files = {f.name: f.read_text() for f in sorted(tmp_path.iterdir()) if f.name != "run.cfg"}
        for name in files:
            (tmp_path / name).unlink()
        return result[0], result[1], files

    by_flag = outcome(*_flag_tokens(key, value))
    (tmp_path / "run.cfg").write_text(_config_line(key, value))
    by_config = outcome("--config", "run.cfg")
    assert by_flag[0] == 0
    assert by_config == by_flag
    if key == "out":
        assert by_flag[1] == "" and "result.txt" in by_flag[2]


def test_every_option_is_covered():
    from mgt_spectral.cli import _build_parser
    _, subs = _build_parser()
    for command, sp in subs.items():
        keys = {a.dest for a in sp._actions if a.option_strings} - {"help", "config"}
        assert keys == {*_COMMON_VALUES, *_OPTION_VALUES[command]}, command


class TestRepeatedCalls:
    """main builds its parser once a process; a config gets a parser of its own."""

    ARGV = [["classify", "--tau", "0.1", "--beta", "1"], ["atlas", "--tau", "0.1", "--beta", "1"],
            ["mode", "--tau", "0.1", "--beta", "1"]]

    def test_no_cyclic_garbage(self, capsys):
        import gc

        for argv in self.ARGV:
            run(capsys, *argv)
        for argv in self.ARGV:
            gc.collect()
            gc.disable()
            try:
                run(capsys, *argv)
                assert gc.collect() == 0, argv[0]
            finally:
                gc.enable()

    def test_config_defaults_do_not_outlive_their_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.1\nbeta = 1\nk_count = 5\n")
        rows = lambda out: [ln for ln in out.splitlines() if not ln.startswith(("#", "k,"))]
        assert len(rows(run(capsys, "atlas", "--config", str(cfg))[1])) == 5
        assert len(rows(run(capsys, "atlas", "--tau", "0.1", "--beta", "1")[1])) == 201


class TestConfigErrors:
    def test_unknown_key_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.1\nbeta = 1\nk_cont = 3\n")
        code, out, err = run_exit(capsys, "atlas", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "k_cont" in err

    def test_config_key_is_not_a_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config = {cfg}\n")
        code, _, err = run_exit(capsys, "classify", "--tau", "0.1", "--beta", "1",
                                "--config", str(cfg))
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("command, key, value", [
        ("decay", "format", "xml"),
        ("atlas", "k_count", "x"),
        ("mode", "k", "x"),
        ("classify", "dim", "1.5"),
    ])
    def test_bad_value_fails_as_its_flag(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_config_line(key, value))
        base = [command, "--tau", "0.1", "--beta", "1"]
        by_flag = run_exit(capsys, *base, *_flag_tokens(key, value))
        by_config = run_exit(capsys, *base, "--config", str(cfg))
        assert by_flag[0] == 2
        assert by_config == by_flag

    def test_bad_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_log = maybe\n")
        code, out, err = run_exit(capsys, "decay", "--tau", "0.1", "--beta", "1",
                                  "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "t_log" in err and "maybe" in err

    def test_t_log_false_turns_off_the_decay_log_grid(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_log = false\n")
        code, out, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1", "--t-count", "3",
                           "--quad-tol", "1e-6", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert "t_log=False" in lines[1].split()
        assert [float(ln.split(",")[0]) for ln in lines[3:6]] == [100.0, 5050.0, 10000.0]

    def test_no_t_log_equals_t_log_false_in_a_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_log = false\n")
        base = ["decay", "--tau", "0.1", "--beta", "1", "--t-count", "3", "--quad-tol", "1e-6"]
        by_flag = run_exit(capsys, *base, "--no-t-log")
        by_config = run_exit(capsys, *base, "--config", str(cfg))
        assert by_flag[0] == 0
        assert by_flag == by_config
        assert "t_log=False" in by_flag[1].splitlines()[1].split()


class TestHeader:
    @pytest.mark.parametrize("command", ["classify", "atlas", "mode", "decay"])
    def test_line_2_lists_every_setting(self, capsys, command):
        from mgt_spectral.cli import _build_parser
        _, subs = _build_parser()
        code, out, _ = run(capsys, command, "--tau", "0.1", "--beta", "1",
                           *(["--t-count", "3", "--quad-tol", "1e-6"] if command == "decay" else []))
        assert code == 0
        fields = dict(f.split("=", 1) for f in out.splitlines()[1][2:].split(" "))
        settings = {a.dest for a in subs[command]._actions if a.option_strings}
        assert set(fields) == settings - {"help", "config", "out"}
        assert fields["tau"] == "0.10000000000000001" and fields["beta"] == "1"


class TestPathsAndExits:
    def test_numerical_failure_exits_4(self, capsys):
        code, out, err = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                             "--quad-tol", "1e-300", "--t-count", "3")
        assert code == 4
        assert out == ""
        # a target below the rounding of the value fails on the first pass
        assert err.startswith("numerical failure: target 5.000e-301 lies below the rounding floor ")

    def test_overflowing_data_exits_4_with_one_line(self, capsys):
        # the norm's |u|^2 overflows; no RuntimeWarning precedes the typed failure
        code, out, err = run(capsys, "decay", "--tau", "0.1", "--beta", "1", "--t-count", "3",
                             "--data", "u0:gaussian:1:1e300,u1:zero,u2:zero")
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: integrand or its error estimate is not finite")
        assert err.count("\n") == 1

    def test_decay_csv_then_json_summary_on_stdout(self, capsys):
        code, out, _ = run(capsys, "decay", "--tau", "0.1", "--beta", "1",
                           "--t-count", "3", "--quad-tol", "1e-6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# mgt-spectral 0.1.0 decay"
        assert lines[2] == "t,norm,bound_value"
        assert len(lines[3].split(",")) == 3 and len(lines[5].split(",")) == 3
        summary = json.loads("\n".join(lines[6:]))
        assert summary["n_times"] == 3
        assert summary["verdict"] == "WITHIN_BOUND"

    def test_stdout_write_error_exits_3(self, capsys, monkeypatch, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FullStdout:
            def write(self, text):
                raise OSError(28, "No space left on device")

            def fileno(self):
                return fd

        monkeypatch.setattr("sys.stdout", FullStdout())
        code, _, err = run(capsys, "classify", "--tau", "0.1", "--beta", "1")
        assert code == 3
        assert err == "i/o failure: [Errno 28] No space left on device\n"
        # the descriptor now leads to devnull, where the flush at exit cannot fail
        os.write(fd, b"unwritten")
        os.close(fd)
        assert (tmp_path / "stdout").read_bytes() == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_device_on_stdout_exits_3(self, unbuffered):
        # a real process: a block-buffered stdout still holds the bytes at exit
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, "-m", "mgt_spectral", "classify", "--tau", "0.1", "--beta", "1"]
        with open("/dev/full", "w") as full:
            res = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                                 timeout=120)
        assert res.returncode == 3
        assert res.stderr == "i/o failure: [Errno 28] No space left on device\n"

    def test_one_point_grid(self, capsys):
        code, out, _ = run(capsys, "atlas", "--tau", "0.1", "--beta", "1",
                           "--k-min", "0.5", "--k-count", "1")
        assert code == 0
        rows = out.splitlines()[3:]
        assert len(rows) == 1
        assert rows[0].split(",")[0] == "0.5"

    def test_suite_error_is_a_failed_suite(self, capsys, monkeypatch):
        from mgt_spectral import QuadratureFailure, verify
        _stub_suites(monkeypatch)

        def broken(quick):
            raise QuadratureFailure("ratio not stable")

        monkeypatch.setattr(verify, "_suite_lemmas", broken)
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        assert "[FAIL] integral_lemmas: QuadratureFailure: ratio not stable" in out.splitlines()
        assert out.count("[PASS]") == 5
        assert out.splitlines()[-1] == "verify: FAILURES detected"

    def test_lemma_error_over_its_target_fails_the_suite(self, capsys, monkeypatch):
        import dataclasses

        from mgt_spectral import decay, verify
        lemmas, check = verify._suite_lemmas, decay.integral_lemma_check
        _stub_suites(monkeypatch)
        monkeypatch.setattr(verify, "_suite_lemmas", lemmas)

        def over_target(dim, j, c, time_grid):
            rep = check(dim, j, c, time_grid)
            s = rep.series["sine_low"]
            over = dataclasses.replace(s, quad_error=np.where(s.times == 1e4, 2.0 * s.quad_tol,
                                                              s.quad_error))
            return dataclasses.replace(rep, series={**rep.series, "sine_low": over})

        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 0 and "[PASS] integral_lemmas: combos=2 max_ratio=1.048" in out
        monkeypatch.setattr(decay, "integral_lemma_check", over_target)
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        assert "[FAIL] integral_lemmas: combos=2 max_ratio=1.048" in out.splitlines()
        assert out.splitlines()[-1] == "verify: FAILURES detected"

    @pytest.mark.parametrize("name, factor", [("plain", 1.001), ("sine_low", np.nan)])
    def test_lemma_value_over_its_bound_fails_the_suite(self, capsys, monkeypatch, name, factor):
        import dataclasses

        from mgt_spectral import decay, verify
        lemmas, quadratures = verify._suite_lemmas, decay._lemma_quadratures
        _stub_suites(monkeypatch)
        monkeypatch.setattr(verify, "_suite_lemmas", lemmas)

        def scaled(*args):
            quads = quadratures(*args)
            quad, tol, bound = quads[name]
            return {**quads, name: (dataclasses.replace(quad, value=quad.value * factor), tol,
                                    bound)}

        monkeypatch.setattr(decay, "_lemma_quadratures", scaled)
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        line = next(ln for ln in out.splitlines() if "integral_lemmas" in ln)
        assert line.startswith("[FAIL] integral_lemmas: combos=2 max_ratio=")
        # one check per combo of --quick, each naming its combo and worst time
        assert line.count(f" {name}_bound_excess=") == 2
        assert "(dim=1,j=0,t=0)" in line and "(dim=3,j=0,t=0)" in line
        assert out.count("[PASS]") == 5
        assert out.splitlines()[-1] == "verify: FAILURES detected"

    @pytest.mark.parametrize("command, extra", [
        ("mode", []), ("decay", []), ("decay", ["--no-t-log"])])
    def test_negative_time_grid_names_the_option(self, capsys, command, extra):
        code, out, err = run(capsys, command, "--tau", "0.1", "--beta", "1",
                             "--t-min", "-1", *extra)
        assert code == 2
        assert out == ""
        assert err == "error: --t-min must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("k", ["-1", "nan", "inf"])
    def test_mode_rejects_a_bad_frequency(self, capsys, k):
        code, out, err = run(capsys, "mode", "--tau", "0.1", "--beta", "1", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error: frequency magnitude must be finite and >= 0")


EXTREME_COMMANDS = (["classify"], ["atlas", "--k-max", "1", "--k-count", "3"],
                    ["mode", "--t-count", "3"], ["decay", "--t-count", "3"], ["verify", "--quick"])


class TestExtremeParameters:
    """Points past the float range of the thresholds, weights and roots, which
    validate rejects, and the corners of the range it accepts.  Under the
    error::RuntimeWarning filter a warning would surface here as an exception."""

    @pytest.mark.parametrize("argv", EXTREME_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("tau, beta", [("1e-200", "1"), ("1e-160", "1"), ("1e100", "1e200"),
                                           ("0.5", "1e160"), ("1e-300", "1e-299"), ("1", "1e78")])
    def test_outside_the_range_exits_2_with_one_line(self, capsys, argv, tau, beta):
        code, out, err = run(capsys, *argv, "--tau", tau, "--beta", beta)
        assert (code, out) == (2, "")
        assert err.startswith("error: parameters must lie in [1e-25, 1e+25]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", EXTREME_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("tau, beta", [("1e-25", "2e-25"), ("1e-25", "1e-5"), ("1e-20", "1"),
                                           ("1e5", "1e25"), ("5e24", "1e25")])
    def test_corners_of_the_range_run(self, capsys, argv, tau, beta):
        # verify's FAILs here are theorem_bounds verdicts of the decay fit, not errors
        code, out, err = run(capsys, *argv, "--tau", tau, "--beta", beta)
        assert code == 0 or (argv[0], code) == ("verify", 1)
        assert out and err == ""

    def test_small_ratio_thresholds(self, capsys):
        # m1 -> 4/beta^2 as tau/beta -> 0, where -c1 - sqrt(c2) cancels
        code, out, _ = run(capsys, "classify", "--tau", "1e-17", "--beta", "1")
        assert code == 0
        assert "m1 = 4 (sqrt(m1) = 2)" in out


class TestOracleNegativeControl:
    """A closed form that is off by 1e-5 must fail the oracle suite and verify."""

    @pytest.fixture
    def skewed_kernel(self, monkeypatch):
        from mgt_spectral import mode_solver
        exact = mode_solver._propagate
        monkeypatch.setattr(mode_solver, "_propagate",
                            lambda *a, **kw: exact(*a, **kw) * (1.0 + 1e-5))

    def test_suite_fails(self, skewed_kernel):
        from mgt_spectral import verify
        n, mismatch = verify._suite_oracle(np.random.default_rng(20240817), 20)
        assert not mismatch.passed
        assert mismatch.value > mismatch.bound == 1e-6

    def test_verify_exits_1(self, capsys, skewed_kernel):
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        assert any(line.startswith("[FAIL] oracle_equivalence:") for line in out.splitlines())
