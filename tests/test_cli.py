"""Command line surface: subcommands, artifact files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochpath
from blochpath.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from blochpath.evolve import MAX_STEPS


class TestExamples:
    def test_example_writes_artifacts(self, tmp_path, capsys):
        ret = main(["example", "3", "--steps", "300", "--out", str(tmp_path)])
        assert ret == EXIT_OK
        assert (tmp_path / "example3_trajectory.csv").exists()
        assert (tmp_path / "example3_report.json").exists()
        out = capsys.readouterr().out
        assert "example3" in out

    def test_example_t_end_override(self, tmp_path):
        ret = main(["example", "3", "--t-end", "0.5", "--steps", "100",
                    "--out", str(tmp_path)])
        assert ret == EXIT_OK
        payload = json.loads((tmp_path / "example3_report.json").read_text())
        assert payload["t_span"] == [0.0, 0.5]

    def test_unknown_example_number_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["example", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestTable2:
    def test_prints_and_writes_the_table(self, tmp_path, capsys):
        ret = main(["table2", "--steps", "400", "--out", str(tmp_path)])
        assert ret == EXIT_OK
        assert (tmp_path / "table2.csv").exists()
        out = capsys.readouterr().out
        for name in ("example1", "example2", "example3", "example4"):
            assert name in out


class TestSweepAlpha:
    def test_stdout_csv(self, capsys):
        ret = main(["sweep-alpha", "--theta-ab", "1.5707963267948966",
                    "--points", "5"])
        assert ret == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,s,t_ab,delta_e,eta_ge,eta_se"
        assert len(lines) == 6

    def test_file_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            ret = main(["sweep-alpha", "--theta-ab", "1.2", "--points", "41",
                        "--out", str(path)])
            assert ret == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_the_file_output(self, tmp_path, capsys):
        argv = ["sweep-alpha", "--theta-ab", "1.2", "--points", "41"]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == EXIT_OK
        assert stdout.encode() == (tmp_path / "a.csv").read_bytes()

    def test_out_of_range_theta(self, capsys):
        ret = main(["sweep-alpha", "--theta-ab", "4.0", "--points", "5"])
        assert ret == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_point_count_over_the_cap(self, capsys):
        ret = main(["sweep-alpha", "--theta-ab", "1.0", "--points",
                    str(MAX_STEPS + 1)])
        assert ret == EXIT_CONFIG
        assert str(MAX_STEPS) in capsys.readouterr().err


class TestPhaseProfiles:
    def test_stdout_csv(self, capsys):
        ret = main(["phase-profiles", "--profile", "log", "--phi0", "1.0",
                    "--phidot0", "1.0", "--omega0", "1.0", "--points", "20"])
        assert ret == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,phi,phi_dot,eta_se_trace_zero,eta_se_trace_nonzero"
        assert len(lines) == 21

    def test_stdout_matches_the_file_output(self, tmp_path, capsys):
        argv = ["phase-profiles", "--profile", "exp", "--phi0", "0.5",
                "--phidot0", "0.3", "--omega0", "1.1", "--points", "33"]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "p.csv")]) == EXIT_OK
        assert stdout.encode() == (tmp_path / "p.csv").read_bytes()

    def test_point_count_over_the_cap(self, capsys):
        ret = main(["phase-profiles", "--profile", "linear", "--phi0", "0.0",
                    "--phidot0", "1.0", "--omega0", "1.0", "--points",
                    str(MAX_STEPS + 1)])
        assert ret == EXIT_CONFIG
        assert str(MAX_STEPS) in capsys.readouterr().err

    def test_log_profile_needs_positive_phi0(self, capsys):
        ret = main(["phase-profiles", "--profile", "log", "--phi0", "-1.0",
                    "--phidot0", "1.0", "--omega0", "1.0"])
        assert ret == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestReport:
    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "scenario": "example1",
            "n_steps": 80,
            "outputs": ["report"],
        }))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_OK
        payload = json.loads((tmp_path / "example1_report.json").read_text())
        assert payload["classification"] == "GeodesicUnwasteful"

    def test_missing_config_file(self, tmp_path, capsys):
        ret = main(["report", "--config", str(tmp_path / "nope.json")])
        assert ret == EXIT_CONFIG
        assert capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["report", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "example1", "mystery": 1}))
        assert main(["report", "--config", str(cfg)]) == EXIT_CONFIG

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "still.json"
        cfg.write_text(json.dumps({
            "scenario": "custom",
            "field": {"h0": 0.0, "h": [0.0, 0.0, 0.0]},
            "n_steps": 50,
            "outputs": ["report"],
        }))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_NUMERICAL
        assert "numerical error" in capsys.readouterr().err


def _custom(psi0):
    return {"scenario": "custom", "field": {"h": [0.0, 0.0, 1.0]},
            "psi0": psi0, "n_steps": 50}


_SWEEP = ["sweep-alpha", "--theta-ab", "1.2", "--points", "9"]
_PROFILE = ["phase-profiles", "--profile", "log", "--points", "9"]


class TestConfigBoundary:
    @pytest.mark.parametrize("config, code", [
        ({"scenario": "example3", "parameters": {"gamma": "abc"}}, EXIT_CONFIG),
        ('{"scenario": "example3", "parameters": {"gamma": NaN}}', EXIT_CONFIG),
        ({"scenario": "example3", "t_span": [0]}, EXIT_CONFIG),
        ({"scenario": "example3", "t_span": [0, "x"]}, EXIT_CONFIG),
        ({"scenario": "example3", "t_span": [0, 1, 2]}, EXIT_CONFIG),
        ({"scenario": "example3", "n_steps": 2.5}, EXIT_CONFIG),
        (_custom([[1.0, 0.0], [1.0, 0.0]]), EXIT_CONFIG),
        (_custom({"bloch": [1.0, 0.0, 1.0]}), EXIT_CONFIG),
        ({"scenario": "example3", "parameters": {"gamma": 1e300},
          "n_steps": 50, "outputs": ["report"]}, EXIT_NUMERICAL),
        ({"scenario": "custom", "field": {"h": [1.0, 0.0, 0.0]},
          "t_span": [0, 1e6]}, EXIT_CONFIG),
        ({"scenario": "example3", "n_steps": 1e12}, EXIT_CONFIG),
        (_SWEEP + ["--energy", "nan"], EXIT_CONFIG),
        (_SWEEP + ["--energy", "inf"], EXIT_CONFIG),
        (_SWEEP + ["--energy", "5e-309"], EXIT_NUMERICAL),
        (_PROFILE + ["--phi0", "nan", "--phidot0", "1", "--omega0", "1"],
         EXIT_CONFIG),
        (_PROFILE + ["--phi0", "1", "--phidot0", "1", "--omega0", "nan"],
         EXIT_CONFIG),
        (_PROFILE + ["--phi0", "1", "--phidot0", "1", "--omega0", "1",
                     "--t-end", "nan"], EXIT_CONFIG),
        (["phase-profiles", "--profile", "exp", "--phi0", "0", "--phidot0",
          "800", "--omega0", "1"], EXIT_NUMERICAL),
    ], ids=["gamma_not_a_number", "gamma_nan", "t_span_one_value",
            "t_span_not_a_number", "t_span_three_values", "n_steps_fractional",
            "psi0_unnormalised", "psi0_bloch_unnormalised", "gamma_overflow",
            "t_span_over_step_cap", "n_steps_over_cap", "sweep_energy_nan",
            "sweep_energy_inf", "sweep_travel_time_overflow", "profile_phi0_nan",
            "profile_omega0_nan", "profile_t_end_nan", "profile_exp_overflow"])
    def test_exit_code_without_traceback(self, tmp_path, capsys, config, code):
        # a list is a sweep command line; anything else is a report config
        if isinstance(config, list):
            argv = config + ["--out", str(tmp_path / "table.csv")]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(config if isinstance(config, str)
                           else json.dumps(config))
            argv = ["report", "--config", str(cfg), "--out", str(tmp_path)]
        ret = main(argv)
        err = capsys.readouterr().err
        assert ret == code
        assert "Traceback" not in err
        assert err.startswith("config error" if code == EXIT_CONFIG
                              else "numerical error")
        assert not (tmp_path / "example3_report.json").exists()
        assert not (tmp_path / "table.csv").exists()

    def test_integral_float_step_count_is_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenario": "example3", "n_steps": 80.0,
                                   "outputs": ["report"]}))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_OK
        payload = json.loads((tmp_path / "example3_report.json").read_text())
        assert payload["n_steps"] == 80


class TestProcessInvocation:
    def test_module_execution(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "blochpath", "example", "1", "--steps",
             "60", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "example1_report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["phase-profiles", "--profile", "exp", "--phi0", "0", "--phidot0",
         "800", "--omega0", "1"],
        ["sweep-alpha", "--theta-ab", "1.2", "--points", "9", "--energy",
         "5e-309"],
    ], ids=["profile_exp_overflow", "sweep_travel_time_overflow"])
    def test_overflow_prints_only_the_error(self, argv):
        # numpy's RuntimeWarnings would print ahead of the typed error
        package_root = Path(blochpath.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_root), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "blochpath", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines()[0].startswith("numerical error")
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("argv", [["-c", "import blochpath"],
                                      ["-m", "blochpath", "--help"]])
    def test_cold_start_imports_no_scipy(self, argv):
        # every module a fresh interpreter imports is listed by -X importtime
        package_root = Path(blochpath.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_root), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "blochpath.evolve" in imported
        assert not [m for m in imported
                    if m == "scipy" or m.startswith("scipy.")]

    def test_console_script_help(self, tmp_path):
        # The suite runs from source, so no installer has put a `blochpath`
        # launcher on PATH, and one that is there may belong to another
        # checkout.  Write the launcher pip writes for the entry point that
        # pyproject.toml declares, and run it against the package under test.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["blochpath"]
        module, attr = entry.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "blochpath"
        launcher.write_text(f"#!{sys.executable}\n"
                            "import sys\n"
                            f"from {module} import {attr}\n"
                            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)
        package_root = Path(blochpath.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            filter(None, [str(bindir), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_root), env.get("PYTHONPATH")]))

        proc = subprocess.run(["blochpath", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for sub in ("example", "sweep-alpha", "phase-profiles", "report",
                    "table2"):
            assert sub in proc.stdout
