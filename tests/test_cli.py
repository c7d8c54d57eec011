"""Command line surface: subcommands, artifact files, exit codes."""

import contextlib
import csv
import errno
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochpath
from blochpath import (EfficiencyReport, FieldSpec, ReportRow, ScenarioConfig, ShapeError,
                       SuboptimalStationary, TimeGrid, Trajectory, UzdinFamily)
from blochpath.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_NUMERICAL, EXIT_OK, main
from blochpath.evolve import MAX_STEPS
from blochpath.core import _ArrayField
from blochpath.scenarios import SCENARIOS
from exact_paths import fixed_axis_bloch

PACKAGE_ROOT = Path(blochpath.__file__).resolve().parents[1]


def _child_env(*paths) -> dict:
    """This process's environment for a child interpreter, with ``paths`` and
    then the package under test ahead of any inherited PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*map(str, paths), str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


_REQUIRED = inspect.Parameter.empty
_FIELD = [("h0", _REQUIRED), ("h", _REQUIRED), ("t_span", (0.0, 1.0))]

#: every record's constructor parameters, in order, with their defaults
RECORD_PARAMETERS = {
    FieldSpec: _FIELD,
    _ArrayField: [("rows", _REQUIRED), ("t_span", _REQUIRED)],
    UzdinFamily: [("m_state", _REQUIRED), ("m_dot", _REQUIRED), ("phase_dot", None),
                  ("t_span", (0.0, 1.0))],
    SuboptimalStationary: [("alpha", _REQUIRED), ("a_hat", _REQUIRED), ("b_hat", _REQUIRED),
                           ("E", 1.0)],
    TimeGrid: [("t_start", _REQUIRED), ("t_end", _REQUIRED), ("n_steps", _REQUIRED)],
    Trajectory: [(name, _REQUIRED) for name in (
        "grid", "times", "states", "bloch", "h0_half", "h_half", "delta_e", "s_accum", "s0")],
    EfficiencyReport: [(name, _REQUIRED) for name in (
        "eta_ge_t", "eta_se_t", "eta_ge_bar", "eta_se_bar", "eta_he", "classification",
        "mean_length_loss", "mean_energy_loss", "s_total", "s0_total")],
    ScenarioConfig: [("scenario", _REQUIRED), ("parameters", None), ("t_span", (0.0, 1.0)),
                     ("n_steps", None),
                     ("outputs", ("trajectory", "efficiency", "curvature", "report")),
                     ("field", None), ("psi0", None)],
    ReportRow: [(name, _REQUIRED) for name in (
        "scenario", "eta_ge_bar", "eta_se_bar", "eta_he", "classification")],
}


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

    def test_small_separation_sweep_is_geodesic_at_half_pi(self, capsys):
        # at theta_ab = 1e-6 an arccos closed form lost the digits of the arc
        # and put eta_ge at 1.00018 for alpha = pi/4
        ret = main(["sweep-alpha", "--theta-ab", "1e-6", "--points", "5"])
        out, err = capsys.readouterr()
        assert ret == EXIT_OK
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        for row in rows:
            assert 0.0 < float(row["eta_ge"]) <= 1.0
            assert 0.0 < float(row["eta_se"]) <= 1.0
        assert float(rows[2]["alpha"]) == pytest.approx(math.pi / 2, rel=1e-14)
        assert float(rows[2]["eta_ge"]) == 1.0


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

    def test_a_cell_past_the_largest_15_digit_float_is_an_error(self, capsys):
        # '%.15g' rounds this finite phi up to 1.79769313486232e+308, which
        # reads back as inf
        argv = ["phase-profiles", "--profile", "linear", "--phidot0", "0",
                "--omega0", "1", "--points", "2", "--phi0"]
        assert main(argv + ["1.7976931348623151e+308"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(
            "numerical error: sweep column 'phi' is not finite")
        assert main(argv + ["1.797693134862315e+308"]) == EXIT_OK
        assert "1.79769313486231e+308" in capsys.readouterr().out

    def test_a_log_profile_leaving_its_domain_is_a_config_error(self, capsys):
        # also at an omega0 whose square overflows
        for omega0 in ("1", "1e300"):
            ret = main(["phase-profiles", "--profile", "log", "--phi0", "1",
                        "--phidot0=-1", "--omega0", omega0, "--t-end", "2"])
            assert ret == EXIT_CONFIG
            assert "log profile leaves its domain" in capsys.readouterr().err

    def test_log_profile_needs_positive_phi0(self, capsys):
        for omega0 in ("1.0", "1e300"):
            ret = main(["phase-profiles", "--profile", "log", "--phi0", "-1.0",
                        "--phidot0", "1.0", "--omega0", omega0])
            assert ret == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err


class TestUnusableOut:
    """An --out that cannot be written is a configuration error (exit 2)
    naming the path, in every subcommand that writes."""

    SWEEP = ["sweep-alpha", "--theta-ab", "1.2", "--points", "5"]

    @pytest.mark.parametrize("case", ["example_file", "sweep_missing_parent",
                                      "sweep_directory", "table2_file"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, case):
        existing = tmp_path / "taken"
        existing.write_text("")
        argv, target = {
            "example_file": (["example", "3", "--steps", "20"], existing),
            "sweep_missing_parent": (self.SWEEP, tmp_path / "missing" / "x.csv"),
            "sweep_directory": (self.SWEEP, tmp_path),
            "table2_file": (["table2", "--steps", "20"], existing),
        }[case]
        assert main(argv + ["--out", str(target)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output")
        assert str(target) in err
        assert "Traceback" not in err
        assert existing.read_text() == ""

    def test_a_report_that_writes_nothing_leaves_its_out_alone(self, tmp_path, capsys):
        existing = tmp_path / "taken"
        existing.write_text("")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scenario": "example3", "n_steps": 20, "outputs": []}))
        assert main(["report", "--config", str(config), "--out", str(existing)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("example3") and err == ""
        assert existing.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "taken"]

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["table2", "example", "report",
                                         "sweep-alpha", "phase-profiles"])
    def test_a_closed_stdout_pipe_exits_2_naming_stdout(self, tmp_path, command,
                                                        unbuffered):
        # the pipe's reading end is closed before the child starts, so a
        # write to stdout fails, as under `| head -c 10`; with a buffered
        # stdout what is still in the buffer must not fail again at
        # interpreter exit
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scenario": "example1", "n_steps": 20,
                                      "outputs": ["report"]}))
        argv = {
            "table2": ["table2", "--steps", "20"],
            "example": ["example", "1", "--steps", "20", "--out", str(tmp_path)],
            "report": ["report", "--config", str(config), "--out", str(tmp_path)],
            "sweep-alpha": ["sweep-alpha", "--theta-ab", "1.2", "--points", "20000"],
            "phase-profiles": ["phase-profiles", "--profile", "log", "--phi0", "1",
                               "--phidot0", "2", "--omega0", "1"],
        }[command]
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "blochpath", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=env)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == ("config error: cannot write output '<stdout>': "
                               f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


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

    @pytest.mark.parametrize("t_start", [1e5, 1e6])
    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_a_far_start_runs_as_a_start_at_zero(self, tmp_path, number, t_start):
        # the line integrals run over offsets from t_start, so no digits of
        # the interval widths are lost to the start's magnitude
        def report(t_span, out):
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(json.dumps({"scenario": f"example{number}", "t_span": t_span,
                                       "outputs": ["report"]}))
            assert main(["report", "--config", str(cfg), "--out", str(tmp_path / out)]) \
                == EXIT_OK
            return json.loads((tmp_path / out / f"example{number}_report.json").read_text())

        far = report([t_start, t_start + 1.0], "far")
        assert far["t_span"] == [t_start, t_start + 1.0]
        if number in (1, 3):  # constant fields: the run does not depend on t_start
            near = report([0.0, 1.0], "near")
            assert far["classification"] == near["classification"]
            for key in ("eta_ge_bar", "eta_se_bar", "eta_he", "s_total", "s0_total",
                        "mean_length_loss", "mean_energy_loss"):
                assert far[key] == pytest.approx(near[key], rel=1e-15, abs=1e-15), key

    def test_missing_config_file(self, tmp_path, capsys):
        ret = main(["report", "--config", str(tmp_path / "nope.json")])
        assert ret == EXIT_CONFIG
        assert capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["report", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", [
        b'{"scenario": "example3", "label": "\xff\xfe"}',
        b'{"scenario": "example3", "parameters": {"gamma": '
        + b"[" * 100000 + b"]" * 100000 + b"}}",
    ], ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_config_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        assert main(["report", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config {str(cfg)!r}: ")

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

    def test_eigenstate_reaches_the_singular_evolution_error(self, tmp_path, capsys):
        # dE is exactly 0 along the field, so the path has no length and
        # the efficiencies stop the run before the curvature layer would
        cfg = tmp_path / "eigen.json"
        cfg.write_text(json.dumps({
            "scenario": "custom",
            "field": {"h0": 0.0, "h": [0.0, 0.0, 1.0]},
            "psi0": {"bloch": [0.0, 0.0, 1.0]},
        }))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_NUMERICAL
        assert "path length 0.0 too short" in capsys.readouterr().err

    def test_eigenstate_report_only_writes_no_report(self, tmp_path, capsys):
        cfg = tmp_path / "eigen.json"
        cfg.write_text(json.dumps({
            "scenario": "custom",
            "field": {"h0": 0.0, "h": [0.0, 0.0, 1.0]},
            "psi0": {"bloch": [0.0, 0.0, 1.0]},
            "outputs": ["report"],
        }))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical error: path length 0.0 too short")
        assert "Traceback" not in err
        assert not (tmp_path / "custom_report.json").exists()

    def test_short_geodesic_is_labelled_geodesic(self, tmp_path):
        # over 1e-9 the arccos of the endpoint overlap rounded s0 to 0
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({
            "scenario": "custom",
            "field": {"h0": 0.0, "h": [1.0, 0.0, 0.0]},
            "psi0": {"bloch": [0.0, 0.0, 1.0]},
            "t_span": [0.0, 1e-9],
        }))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) \
            == EXIT_OK
        payload = json.loads((tmp_path / "custom_report.json").read_text())
        assert payload["eta_ge_bar"] == 1.0
        assert payload["classification"] == "GeodesicUnwasteful"


    @pytest.mark.parametrize("alpha, theta_ab, label", [
        (math.pi / 2, 1e-6, "GeodesicUnwasteful"),
        (math.pi / 2, 3.1415, "GeodesicUnwasteful"),
        (math.pi / 2, math.pi - 1e-6, "GeodesicUnwasteful"),
        (1.0, 1e-6, "GeodesicWasteful"),
    ])
    def test_stationary_family_runs_at_the_ends_of_its_domain(
            self, tmp_path, capsys, alpha, theta_ab, label):
        # the arccos axis and angle used to end these runs in exit 3
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps({"scenario": "suboptimal_family",
                                   "parameters": {"alpha": alpha, "theta_ab": theta_ab}}))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "suboptimal_family_report.json").read_text())
        assert payload["classification"] == label
        assert payload["eta_ge_bar"] <= 1.0


def _custom(psi0):
    return {"scenario": "custom", "field": {"h": [0.0, 0.0, 1.0]},
            "psi0": psi0, "n_steps": 50}


def _family(**params):
    return {"scenario": "suboptimal_family", "n_steps": 50,
            "parameters": {"alpha": 1.0, "theta_ab": 1.2, **params}}


#: outside alpha in (0, pi), E > 0 and theta_ab in [1e-6, pi - 1e-6]
_FAMILY_OUT_OF_DOMAIN = [("alpha", 0.0), ("alpha", 3.2), ("E", 0.0), ("E", -2.0),
                         ("theta_ab", 0.0), ("theta_ab", 1e-7),
                         ("theta_ab", 3.14159265358979), ("theta_ab", -1.0),
                         ("theta_ab", 4.0)]
#: a valid run whose default grid of 2000 steps per unit time exceeds the cap
_SLOW_AND_LONG = {"scenario": "custom", "field": {"h": [1e-3, 0.0, 0.0]},
                  "t_span": [0, 6000]}
_SWEEP = ["sweep-alpha", "--theta-ab", "1.2", "--points", "9"]
_PROFILE = ["phase-profiles", "--profile", "log", "--points", "9"]
#: configs that ``report`` refuses with exit 2, by id: the file's text or
#: JSON object, and the message naming the fault
_CONFIG_ERRORS = {
    "invalid_json": (
        "not json", "cannot read config 'c.json': Expecting value: line 1 column 1 (char 0)"),
    "gamma_not_a_number": ({"scenario": "example3", "parameters": {"gamma": "abc"}},
                           "parameter 'gamma' must be real numbers, got 'abc'"),
    "unknown_key": ({"scenario": "example3", "colour": "red"},
                    "unknown config keys ['colour']"),
    "t_span_one_value": ({"scenario": "example3", "t_span": [0]},
                         "t_span must be two numbers [t_start, t_end], got [0]"),
    "n_steps_one": ({"scenario": "example3", "n_steps": 1},
                    "n_steps must be an integer from 2 to 10000000, got 1"),
    "unknown_scenario": ({"scenario": "example9"},
                         "unknown scenario 'example9'; expected one of ('example1', "
                         "'example2', 'example3', 'example4', 'suboptimal_family', 'custom')"),
    "missing_scenario": ({"parameters": {"gamma": 1.0}}, "config is missing the 'scenario' key"),
    "unknown_parameter": ({"scenario": "example3", "parameters": {"delta": 1.0}},
                          "unknown parameter(s) ['delta'] for scenario 'example3'"),
    "reversed_span": ({"scenario": "example3", "t_span": [1, 0]},
                      "t_end (0.0) must exceed t_start (1.0)"),
    "custom_without_field": ({"scenario": "custom"}, "custom scenario needs a 'field' mapping"),
    "unknown_field_key": ({"scenario": "custom", "field": {"h": [0, 0, 1], "colour": 1}},
                          "unknown field keys ['colour']"),
    "unknown_psi0_key": ({"scenario": "custom", "field": {"h": [0, 0, 1]},
                          "psi0": {"bloch": [1, 0, 0], "phase": 0.5}},
                         "unknown psi0 keys ['phase']"),
    "config_an_array": ([{"scenario": "example3"}], "config must be a JSON object"),
    "config_a_number": ("3", "config must be a JSON object"),
    "config_a_string": ('"example3"', "config must be a JSON object"),
}


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
        *[(_family(**{name: value}), EXIT_CONFIG)
          for name, value in _FAMILY_OUT_OF_DOMAIN],
        ('{"scenario": "custom", "field": {"h": [1, 0, 0]}, '
         '"parameters": {"x": NaN, "y": "abc"}}', EXIT_CONFIG),
        ({"scenario": "example3", "parameters": {"gamma": 10**400}}, EXIT_CONFIG),
        ({"scenario": "example3", "t_span": [0, 10**400]}, EXIT_CONFIG),
        ({"scenario": "custom", "field": {"h": ["1", "0", "0"]}}, EXIT_CONFIG),
        ({"scenario": "custom", "field": {"h": [True, False, False]}}, EXIT_CONFIG),
        (_custom({"bloch": [False, False, True]}), EXIT_CONFIG),
        ({"scenario": "custom", "field": {"h": [True, 0, 0]}}, EXIT_CONFIG),
        ({"scenario": "custom", "field": {"h": [1.0, 0.0, 0.0]},
          "psi0": {"bloch": [True, 0, 0]}, "n_steps": 50}, EXIT_CONFIG),
        (_SLOW_AND_LONG, EXIT_CONFIG),
    ], ids=["gamma_not_a_number", "gamma_nan", "t_span_one_value",
            "t_span_not_a_number", "t_span_three_values", "n_steps_fractional",
            "psi0_unnormalised", "psi0_bloch_unnormalised", "gamma_overflow",
            "t_span_over_step_cap", "n_steps_over_cap", "sweep_energy_nan",
            "sweep_energy_inf", "sweep_travel_time_overflow", "profile_phi0_nan",
            "profile_omega0_nan", "profile_t_end_nan", "profile_exp_overflow",
            *[f"family_{name}_{value}" for name, value in _FAMILY_OUT_OF_DOMAIN],
            "custom_parameters", "gamma_huge_integer", "t_span_huge_integer",
            "field_h_strings", "field_h_bools", "psi0_bloch_bools",
            "field_h_bool_entry", "psi0_bloch_bool_entry", "slow_and_long"])
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
        assert not list(tmp_path.glob("*_report.json"))
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ({**_custom({"bloch": [1, 0, 0]}), "field": {"h": [0, 0, 1], "ho": 0.5}},
         "unknown field keys ['ho']"),
        ({**_custom(None), "field": {"times": [0, 1], "h": [[0, 0, 1]] * 2,
                                     "h_0": [0, 0]}},
         "unknown field keys ['h_0']"),
        (_custom({"bloch": [1, 0, 0], "phase": 0.5}), "unknown psi0 keys ['phase']"),
        (_custom({"Bloch": [1, 0, 0]}), "unknown psi0 keys ['Bloch']"),
        ({"scenario": "example1", "outputs": "report"},
         "outputs must be a list of names, got 'report'"),
        ({"scenario": "example1", "parameters": []}, "parameters must be a mapping, got []"),
        ({"scenario": "example3", "psi0": {"bloch": [1, 0, 0]}, "field": {"h": [1, 0, 0]},
          "outputs": ["report"]},
         "scenario 'example3' does not read ['field', 'psi0']; only 'custom' does"),
        ({"scenario": "suboptimal_family", "parameters": {"alpha": 1, "theta_ab": 1},
          "psi0": {"bloch": [1, 0, 0]}},
         "scenario 'suboptimal_family' does not read ['psi0']; only 'custom' does"),
        ({"scenario": "example3", "outputs": ["curvature"]},
         "outputs ['curvature'] are columns of the 'trajectory' file, "
         "which is not asked for"),
        ({"scenario": "example1", "outputs": ["report", "efficiency", "curvature"]},
         "outputs ['curvature', 'efficiency'] are columns of the 'trajectory' file, "
         "which is not asked for"),
    ], ids=["field_h0_misspelt", "table_h0_misspelt", "psi0_extra_key",
            "psi0_bloch_misspelt", "outputs_a_string", "parameters_a_list",
            "field_and_psi0_for_a_builtin", "psi0_for_the_family",
            "curvature_without_trajectory", "columns_without_trajectory"])
    def test_a_misspelt_key_is_named(self, tmp_path, capsys, config, message):
        # a key the run would ignore is refused, not run with its default
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*_report.json"))

    def test_step_cap_of_the_default_grid_names_n_steps(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(_SLOW_AND_LONG))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "n_steps" in err and "6000" in err and "10000000" in err
        assert "got 10000001" not in err

    def test_integral_float_step_count_is_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenario": "example3", "n_steps": 80.0,
                                   "outputs": ["report"]}))
        ret = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert ret == EXIT_OK
        payload = json.loads((tmp_path / "example3_report.json").read_text())
        assert payload["n_steps"] == 80


#: parameter names each scenario is fuzzed with; "x" is never a valid one
_FUZZ_NAMES = {"example1": ["omega0", "varphi0", "theta0", "x"],
               "example2": ["omega0", "nu0", "Omega0", "varphi0", "theta0", "phi0"],
               "example3": ["gamma"], "example4": ["gamma"],
               "suboptimal_family": ["alpha", "theta_ab", "E"], "custom": ["x"]}
_EXTREMES = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-9, 3.2, 1e9, 1e300, -1e300,
             math.nan, math.inf, -math.inf, 10**400]
_VALUES = st.floats(-4.0, 4.0) | st.one_of(st.sampled_from(_EXTREMES), st.floats(),
                                           st.booleans(), st.text(max_size=2))
_REALS = st.floats(-3.0, 3.0) | st.sampled_from(_EXTREMES)
_ROW = st.lists(_REALS, min_size=3, max_size=3)


def _table(n):
    return st.fixed_dictionaries(
        {"times": st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n).map(sorted),
         "h": st.lists(_ROW, min_size=n, max_size=n)},
        optional={"h0": st.lists(_REALS, min_size=n, max_size=n)})


_FIELDS = st.one_of(
    st.fixed_dictionaries({"h": _ROW}, optional={"h0": _REALS}),
    st.integers(1, 4).flatmap(_table))
_PSI0 = st.one_of(
    st.sampled_from([[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]],
                     {"bloch": [0.0, 0.6, 0.8]}, {"bloch": [0.0, 0.0, -1.0]}]),
    st.lists(st.lists(_REALS, min_size=2, max_size=2), min_size=2, max_size=2),
    st.fixed_dictionaries({"bloch": _ROW}))
#: mostly [start, start + length] with a positive length, sometimes not
_T_SPANS = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-9, 5.0) | _REALS).map(
    lambda span: [span[0], span[0] + span[1]])


def _report_configs(scenario):
    drawn = {"scenario": st.just(scenario), "t_span": _T_SPANS,
             "n_steps": st.integers(1, 40),
             "parameters": st.fixed_dictionaries(
                 {}, optional=dict.fromkeys(_FUZZ_NAMES[scenario], _VALUES))}
    if scenario == "custom":
        drawn["field"] = _FIELDS
    return st.fixed_dictionaries(drawn, optional={"psi0": _PSI0})


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


class TestConfigFuzz:
    @given(config=st.sampled_from(SCENARIOS).flatmap(_report_configs))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_every_config_ends_in_a_report_or_a_typed_error(self, tmp_path_factory,
                                                            config):
        out = tmp_path_factory.mktemp("fuzz")
        cfg = out / "run.json"
        cfg.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            ret = main(["report", "--config", str(cfg), "--out", str(out)])
        assert ret in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ERROR)
        assert "Traceback" not in stderr.getvalue()
        written = out / f"{config['scenario']}_report.json"
        assert written.exists() == (ret == EXIT_OK)
        if ret == EXIT_OK:
            report = json.loads(written.read_text())
            assert all(math.isfinite(x) for x in _numbers(report))
            for key in ("eta_ge_bar", "eta_se_bar", "eta_he"):
                assert 0.0 <= report[key] <= 1.0


#: argv spellings of numbers: huge, tiny, negative, NaN and inf among them
_ARGV_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "1.2", "3.1415926",
                     "3.14159265358979", "1e-6", "1e-7", "5e-324", "1e-300",
                     "2.5e-309", "1e9", "1e300", "-1e300", "1e308",
                     "1.7976931348623151e+308", "nan", "inf", "-inf"]),
    st.floats(0.0, 4.0).map(repr), st.floats(-10.0, 10.0).map(repr),
    st.floats().map(repr))


def _option(flag, value, joined):
    # "--flag -1e300" is a usage error (exit 2): argparse reads the value
    # as an option; "--flag=-1e300" passes it through
    return [f"{flag}={value}"] if joined else [flag, value]


@st.composite
def _csv_argv(draw):
    joined = draw(st.booleans())
    if draw(st.booleans()):
        argv = ["sweep-alpha", *_option("--theta-ab", draw(_ARGV_NUMBERS), joined)]
        if draw(st.booleans()):
            argv += _option("--energy", draw(_ARGV_NUMBERS), joined)
    else:
        argv = ["phase-profiles", "--profile",
                draw(st.sampled_from(["log", "linear", "exp"]))]
        for flag in ("--phi0", "--phidot0", "--omega0"):
            argv += _option(flag, draw(_ARGV_NUMBERS), joined)
        if draw(st.booleans()):
            argv += _option("--t-end", draw(_ARGV_NUMBERS), joined)
    argv += ["--points", str(draw(st.integers(0, 50)))]
    return argv, draw(st.sampled_from(["stdout", "file", "directory",
                                       "missing_parent"]))


#: --t-end spellings: non-finite, negative, zero, subnormal and huge ones
#: (the last past the 10**7-step cap of the default grid, so rejected before
#: anything is allocated) and ordinary spans, on which the default grid of
#: 2000 steps per unit time stays small
_T_ENDS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "0", "-0", "5e-324",
                     "1e-300", "1e300", "1e308"]),
    st.floats(1e-3, 1.5).map(repr))


@st.composite
def _run_argv(draw):
    joined = draw(st.booleans())
    if draw(st.booleans()):
        argv = ["example", str(draw(st.integers(1, 4))),
                *_option("--t-end", draw(_T_ENDS), joined)]
    else:
        argv = ["table2"]
    steps = draw(st.one_of(st.none(), st.integers(-5, 50)))
    if steps is not None:
        argv += _option("--steps", str(steps), joined)
    # example's --out defaults to the working directory, so it is always given
    targets = ["file", "directory", "missing_parent", "fresh_directory"]
    return argv, draw(st.sampled_from(targets + (["none"] if argv[0] == "table2" else [])))


class TestArgvFuzz:
    @given(case=_csv_argv())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_every_csv_command_ends_in_a_documented_exit(self, tmp_path_factory,
                                                         case):
        argv, target = case
        out = tmp_path_factory.mktemp("argv")
        path = {"stdout": None, "file": out / "table.csv", "directory": out,
                "missing_parent": out / "missing" / "table.csv"}[target]
        if path is not None:
            argv = argv + ["--out", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                ret = main(argv)
            except SystemExit as exc:
                ret = exc.code
        assert ret in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ERROR)
        assert "Traceback" not in stderr.getvalue()
        if ret != EXIT_OK:
            return
        text = stdout.getvalue() if path is None else path.read_text()
        header, *rows = list(csv.reader(io.StringIO(text)))
        assert rows
        for row in rows:
            cells = dict(zip(header, map(float, row)))
            assert all(math.isfinite(v) for v in cells.values())
            assert all(0.0 <= v <= 1.0 for name, v in cells.items()
                       if name.startswith("eta"))


    @given(case=_run_argv())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_every_run_command_ends_in_a_documented_exit(self, tmp_path_factory, case):
        argv, target = case
        out = tmp_path_factory.mktemp("argv")
        (out / "file").write_text("")
        path = {"none": None, "file": out / "file", "directory": out,
                "missing_parent": out / "missing" / "run",
                "fresh_directory": out / "fresh"}[target]
        if path is not None:
            argv = argv + ["--out", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                ret = main(argv)
            except SystemExit as exc:
                ret = exc.code
        assert ret in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ERROR)
        assert "Traceback" not in stderr.getvalue()
        if ret != EXIT_OK:
            return
        if argv[0] == "table2":
            rows = stdout.getvalue().splitlines()[1:]
            assert len(rows) == 4
            etas = [float(x) for row in rows for x in row.split()[1:4]]
            assert all(0.0 <= x <= 1.0 for x in etas)
            names = [f"example{k}" for k in range(1, 5)] if path is not None else []
        else:
            names = [f"example{argv[1]}"]
        for name in names:
            report = json.loads((path / f"{name}_report.json").read_text())
            assert all(math.isfinite(x) for x in _numbers(report))
            for key in ("eta_ge_bar", "eta_se_bar", "eta_he"):
                assert 0.0 <= report[key] <= 1.0


def _constant_run(tmp_path, h0, h, t_span=(0.0, 1.0), n_steps=None,
                  bloch=(0.0, 0.0, 1.0), outputs=("report",)):
    """``report`` on a constant ``custom`` field: the exit code and the
    report JSON, or None when the run failed."""
    config = {"scenario": "custom", "field": {"h0": h0, "h": list(h)},
              "psi0": {"bloch": list(bloch)}, "t_span": list(t_span),
              "outputs": list(outputs)}
    if n_steps is not None:
        config["n_steps"] = n_steps
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    report = tmp_path / "custom_report.json"
    report.unlink(missing_ok=True)
    code = main(["report", "--config", str(path), "--out", str(tmp_path)])
    return code, json.loads(report.read_text()) if code == EXIT_OK else None


def _ramp_run(tmp_path, h0, start, end, n_steps=None, bloch=(0.0, 0.0, 1.0)):
    """The exit code of ``report`` on a two-knot ``custom`` table on [0, 1]
    from ``h = start`` to ``end`` at a constant ``h0``: a field that varies
    in time, which RK4 propagates."""
    config = {"scenario": "custom", "psi0": {"bloch": list(bloch)}, "outputs": ["report"],
              "field": {"times": [0.0, 1.0], "h0": [h0, h0], "h": [list(start), list(end)]}}
    if n_steps is not None:
        config["n_steps"] = n_steps
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return main(["report", "--config", str(path), "--out", str(tmp_path)])


class TestDomain:
    """The valid domain the README states, both sides of each boundary."""

    @pytest.mark.parametrize("c", [2.0**-20, 0.25, 8.0, 2.0**20])
    def test_power_of_two_rescaling_leaves_the_report_bit_for_bit(self, tmp_path,
                                                                   capsys, c):
        # (h0, h, t_span) -> (c h0, c h, t_span / c) is exact for powers of two
        def run(c):
            code, report = _constant_run(tmp_path, c * 0.3, [c * 0.4, c * 0.2, c * 0.9],
                                         (0.25 / c, 1.75 / c), 300, (0.6, 0.0, 0.8))
            assert code == EXIT_OK
            return {key: report[key] for key in (
                "eta_ge_bar", "eta_se_bar", "eta_he", "classification",
                "mean_energy_loss", "mean_length_loss", "s_total", "s0_total")}

        assert run(c) == run(1.0)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("magnitude, code", [(990.0, EXIT_OK), (992.0, EXIT_NUMERICAL),
                                                 (1000.0, EXIT_NUMERICAL)])
    def test_default_grid_takes_a_field_up_to_the_rk4_step_bound(self, tmp_path, capsys,
                                                                  magnitude, code):
        # 2000 steps per unit time: |h| dt up to 0.4955 runs, 0.496 and 0.5 drift
        assert _ramp_run(tmp_path, 0.0, (magnitude, 0.0, 0.0),
                         (magnitude + 1.0, 0.0, 0.0)) == code
        err = capsys.readouterr().err
        assert err == "" if code == EXIT_OK else \
            re.fullmatch(r"numerical error: norm drift \S+ in step 0; reduce dt\n", err)

    @pytest.mark.parametrize("share", [-0.999, -0.6, -0.2, 0.0, 0.3, 0.7, 0.999])
    @pytest.mark.parametrize("bloch", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.6, 0.0, -0.8)])
    def test_the_stated_step_rule_is_sufficient(self, tmp_path, share, bloch):
        # (|h0| + |h|) dt reaches 0.49 at t = 1, any split between h0 and |h|,
        # any state that is not an eigenstate of h along x
        total = 0.49 * 2000
        h0 = share * total
        top = total - abs(h0)
        assert _ramp_run(tmp_path, h0, (top - 1.0, 0.0, 0.0), (top, 0.0, 0.0),
                         bloch=bloch) == EXIT_OK

    def test_the_stated_step_count_is_the_remedy(self, tmp_path):
        ramp = (991.0, 0.0, 0.0), (992.0, 0.0, 0.0)
        assert _ramp_run(tmp_path, 0.0, *ramp) == EXIT_NUMERICAL
        n_steps = math.ceil((0.0 + 992.0) * 1.0 / 0.49)
        assert _ramp_run(tmp_path, 0.0, *ramp, n_steps=n_steps) == EXIT_OK

    def test_a_field_one_ulp_from_constant_keeps_the_step_bound(self, tmp_path, capsys):
        # only a field whose samples share their bits is propagated exactly
        assert _constant_run(tmp_path, 0.0, (1000.0, 0.0, 0.0))[0] == EXIT_OK
        assert capsys.readouterr().err == ""
        ulp = np.nextafter(1000.0, np.inf)
        assert _ramp_run(tmp_path, 0.0, (1000.0, 0.0, 0.0), (ulp, 0.0, 0.0)) \
            == EXIT_NUMERICAL
        assert re.fullmatch(r"numerical error: norm drift \S+ in step 0; reduce dt\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("h0, h, bloch, n_steps", [
        # about the RK4 step bound on the default grid, |h| dt = 0.4955 to 0.5,
        # which a constant field does not have
        *((0.0, (m, 0.0, 0.0), (0.0, 0.0, 1.0), None) for m in (991.0, 992.0, 1000.0)),
        # (|h0| + |h|) dt = 0.49, any split between h0 and |h|, any state
        # that is not an eigenstate of h along x
        *((share * 980.0, (980.0 - abs(share) * 980.0, 0.0, 0.0), bloch, None)
          for share in (-0.999, -0.6, -0.2, 0.0, 0.3, 0.7, 0.999)
          for bloch in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.6, 0.0, -0.8))),
        (0.0, (992.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.ceil(992.0 / 0.49)),
        (0.0, (1e4, 0.0, 0.0), (0.0, 0.0, 1.0), None),
        (-3e3, (4.8e3, -6e3, 6.4e3), (0.6, 0.0, -0.8), None),
    ])
    def test_strong_constant_fields_precess_exactly(self, tmp_path, capsys, h0, h, bloch,
                                                    n_steps):
        # no step bound: the error is about eps |h| T at any |h| dt
        code, _ = _constant_run(tmp_path, h0, h, n_steps=n_steps, bloch=bloch,
                                outputs=["report", "trajectory"])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        with open(tmp_path / "custom_trajectory.csv", newline="") as f:
            got = np.array([[float(row[k]) for k in ("a_x", "a_y", "a_z")]
                            for row in csv.DictReader(f)])
        # the grid's own times: the CSV's 15 digits would cost |h| 1e-15
        times = TimeGrid(0.0, 1.0, len(got) - 1).times
        norm = np.linalg.norm(h)
        exact = fixed_axis_bloch(bloch, np.array(h) / norm, norm * times)
        assert np.max(np.abs(got - exact)) <= 1e-14 + 1e-15 * norm

    def test_a_short_span_of_two_steps_runs(self, tmp_path, capsys):
        # the h = 1 run on [0, 1], scaled by 1000: its default grid has 2 steps
        code, report = _constant_run(tmp_path, 0.0, [1000.0, 0.0, 0.0], (0.0, 1e-3))
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert report["classification"] == "GeodesicUnwasteful"

    @pytest.mark.parametrize("c", [1.0, 2.0**20, 2.0**-20])
    def test_a_path_within_tol_s_exits_3_at_every_scale(self, tmp_path, capsys, c):
        code, _ = _constant_run(tmp_path, 0.0, [c * 1e-10, 0.0, 0.0], (0.0, 1.0 / c), 1000)
        assert code == EXIT_NUMERICAL
        assert re.fullmatch(r"numerical error: path length \S+ too short for a ratio\n",
                            capsys.readouterr().err)

    def test_more_travel_is_the_remedy_for_tol_s(self, tmp_path):
        code, report = _constant_run(tmp_path, 0.0, [1e-10, 0.0, 0.0], (0.0, 1e4), 100)
        assert code == EXIT_OK
        assert report["s_total"] > 1e-9


class TestProcessInvocation:
    def test_module_execution(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "blochpath", "example", "1", "--steps",
             "60", "--out", str(tmp_path)],
            capture_output=True, text=True, env=_child_env())
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
        proc = subprocess.run([sys.executable, "-m", "blochpath", *argv],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines()[0].startswith("numerical error")
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("phidot0, omega0, etas", [
        ("0", "1e-200", "1,1"), ("1", "1e-300", "2e-300,1e-300"), ("1", "1e300", "1,1"),
        ("1.2e308", "1.7e308", "0.94299033358289,0.70751508101882"),
    ], ids=["omega0_squared_underflows_to_0", "tiny_ratios", "omega0_squared_overflows",
            "hypot_past_the_float_range"])
    def test_float_edge_phase_profiles_take_any_finite_omega0(self, phidot0, omega0, etas):
        # the closed forms read c = |omega0|, so omega0^2 leaving the float
        # range changes nothing, and c and |phidot|/2 near its top are taken at
        # a quarter; -W error turns any numpy warning into a failure
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "blochpath", "phase-profiles", "--profile",
             "linear", "--phi0", "0", "--phidot0", phidot0, "--omega0", omega0,
             "--t-end", "1", "--points", "3"], capture_output=True, text=True,
            env=_child_env())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith("," + etas) for row in rows)

    @pytest.mark.parametrize("argv", [["-c", "import blochpath; blochpath.FieldSpec"],
                                      ["-m", "blochpath", *_SWEEP]])
    def test_cold_start_imports_no_scipy(self, argv):
        # the records are plain classes and named tuples, so no dataclasses
        imported = _imported_modules(argv)
        assert "blochpath.evolve" in imported
        assert not [m for m in imported
                    if m == "scipy" or m.startswith("scipy.")]
        assert "dataclasses" not in imported

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["sweep-alpha", "--theta-ab", "1.2", "--points", "9"],
        ["phase-profiles", "--profile", "linear", "--phi0", "0.5", "--phidot0",
         "1", "--omega0", "1", "--points", "9"],
        ["table2", "--steps", "20"],
    ], ids=["help", "sweep_alpha", "phase_profiles", "table2"])
    def test_commands_without_json_files_import_no_json(self, argv):
        # only a config read or a report written loads json, and only a
        # command that computes loads the numeric modules
        imported = _imported_modules(["-m", "blochpath", *argv])
        assert ("blochpath.evolve" in imported) == (argv != ["--help"])
        assert "json" not in imported

    @pytest.mark.parametrize("argv, config, code, err", [
        (["--help"], None, EXIT_OK, None),
        (["sweep-alpha", "--theta-ab", "1.2"], None, EXIT_CONFIG,
         "blochpath sweep-alpha: error: the following arguments are required: --points"),
        *[(["report", "--config", "c.json"], config, EXIT_CONFIG, f"config error: {message}")
          for config, message in _CONFIG_ERRORS.values()],
    ], ids=["help", "usage_error", *_CONFIG_ERRORS])
    def test_help_usage_and_config_errors_import_no_numpy(self, tmp_path, argv, config,
                                                          code, err):
        if config is not None:
            (tmp_path / "c.json").write_text(
                config if isinstance(config, str) else json.dumps(config))
        imported = _imported_modules(["-m", "blochpath", *argv], code, err, cwd=tmp_path)
        assert "blochpath.cli" in imported
        assert not [m for m in imported if m == "numpy" or m.startswith("numpy.")]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_import_leaves_the_collector_as_it_found_it(self, enabled):
        # a collection may start only once the last module is in, when the
        # collector is running again; the child collects first, so that the
        # few objects made before the pause cannot start one.  The freeze
        # count is compared with the child's own: an interpreter may start
        # with objects frozen (375 on CPython 3.12.1)
        code = (f"import gc, sys\ngc.collect()\ngc.{'enable' if enabled else 'disable'}()\n"
                "starts = []\n"
                "gc.callbacks.append(lambda phase, info: phase == 'start' and\n"
                "                    starts.append('blochpath.scenarios' in sys.modules))\n"
                "frozen = gc.get_freeze_count()\n"
                "import blochpath\nblochpath.FieldSpec\n"
                "print(gc.isenabled(), gc.get_freeze_count() - frozen, all(starts),\n"
                "      'numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{enabled} 0 True True\n", "")

    def test_import_starts_no_collection_after_the_pause(self):
        # with nothing frozen, import moves the objects it made to the oldest
        # generation, so the allocations after it start no young collection.
        # CPython 3.12's collections freeze the immortal objects they meet,
        # so the child thaws them after its own collection
        code = ("import gc\ngc.collect()\ngc.unfreeze()\n"
                "starts = []\n"
                "gc.callbacks.append(lambda phase, info: phase == 'start' and\n"
                "                    starts.append(info['generation']))\n"
                "import blochpath\nblochpath.FieldSpec\n"
                "for _ in range(10_000):\n"
                "    [None]\n"
                "print(starts, gc.isenabled(), gc.get_freeze_count())\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] True 0\n", "")

    def test_load_compiles_no_annotation(self):
        # the records' modules evaluate their annotations, so typing.NamedTuple
        # compiles no string annotation into a ForwardRef (28 calls before)
        code = ("import builtins\n"
                "strings, compile = [], builtins.compile\n"
                "builtins.compile = lambda source, *args, **kwargs: (\n"
                "    isinstance(source, str) and strings.append(source),\n"
                "    compile(source, *args, **kwargs))[1]\n"
                "import blochpath\nblochpath.FieldSpec\n"
                "print(strings)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_import_keeps_what_the_host_froze(self):
        # thawing would thaw the host's objects too, so import leaves them be
        code = ("import gc\ngc.freeze()\n"
                "frozen = gc.get_freeze_count()\n"
                "import blochpath\nblochpath.FieldSpec\n"
                "print(frozen > 0, gc.get_freeze_count() - frozen)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True 0\n", "")

    @pytest.mark.parametrize("record,parameters", list(RECORD_PARAMETERS.items()),
                             ids=[r.__name__ for r in RECORD_PARAMETERS])
    def test_record_constructors_keep_their_parameters(self, record, parameters):
        params = inspect.signature(record).parameters.values()
        assert [(p.name, p.default) for p in params] == parameters
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    @pytest.mark.parametrize("make,derived", [
        (lambda: TimeGrid(0.0, 1.0, 10), []),
        (lambda: SuboptimalStationary(1.0, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
         ["theta_ab", "n_hat", "phi", "t_ab"]),
        (lambda: EfficiencyReport(*range(10)), []),
        (lambda: ReportRow("example1", 1.0, 1.0, 1.0, "geodesic_unwasteful"), []),
    ], ids=["TimeGrid", "SuboptimalStationary", "EfficiencyReport", "ReportRow"])
    def test_frozen_records_refuse_assignment(self, make, derived):
        record = make()
        for name in [name for name, _ in RECORD_PARAMETERS[type(record)]] + derived:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before

    def test_any_other_library_error_exits_4(self, monkeypatch, capsys):
        # neither a ConfigError nor a NumericalError: no known input reaches
        # this exit through the CLI's own checks, so the run is made to raise
        def run_report(config, out_dir=None):
            raise ShapeError("rows of length 3 expected")

        monkeypatch.setattr(blochpath.scenarios, "run_report", run_report)
        assert main(["example", "1"]) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: rows of length 3 expected\n")

    def test_console_script_help(self, tmp_path):
        proc = subprocess.run([_launcher(tmp_path), "--help"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        for sub in ("example", "sweep-alpha", "phase-profiles", "report",
                    "table2"):
            assert sub in proc.stdout

    def test_main_leaves_the_host_collector_alone(self, tmp_path):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        out = tmp_path / "sweep.csv"
        assert main(["sweep-alpha", "--theta-ab", "1.2", "--points", "50",
                     "--out", str(out)]) == EXIT_OK
        assert out.stat().st_size > 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    @pytest.mark.parametrize("entry", ["module", "console_script"])
    def test_process_entries_freeze_the_import_heap(self, tmp_path, capsys, entry):
        argv = ["table2", "--steps", "20"]
        code = main(argv)
        want = capsys.readouterr().out
        command = ([sys.executable, "-m", "blochpath"] if entry == "module"
                   else [_launcher(tmp_path)])
        proc = subprocess.run([*command, *argv], capture_output=True, text=True,
                              env=_child_env(_freeze_probe(tmp_path)))
        assert (proc.returncode, proc.stdout) == (code, want)
        assert _frozen_by_the_child(proc.stderr) > 0

    def test_process_entry_leaves_nothing_young_after_a_start_up_freeze(self, tmp_path):
        # CPython 3.12 starts with objects frozen, which the import pause must
        # not thaw; the entry freezes the numeric load itself, so no collection
        # walks it, whatever was frozen at start-up
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "gc.freeze()\n"
            "young = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules\n"
            "    and young.append(sum(map(len, map(gc.get_objects, range(info['generation'] + 1))))))\n"
            "atexit.register(lambda: sys.stderr.write(f\"{'numpy' in sys.modules} {young}\\n\"))\n")
        proc = subprocess.run([sys.executable, "-m", "blochpath", "table2", "--steps", "20"],
                              capture_output=True, text=True, env=_child_env(probe))
        loaded, young = proc.stderr.split(" ", 1)
        assert (proc.returncode, loaded) == (0, "True")
        assert max(json.loads(young), default=0) < 5000

    def test_importing_the_module_entry_freezes_nothing(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", "import blochpath.__main__"],
                              capture_output=True, text=True,
                              env=_child_env(_freeze_probe(tmp_path)))
        assert proc.returncode == 0
        assert _frozen_by_the_child(proc.stderr) == 0


def _launcher(tmp_path) -> str:
    """The launcher pip writes for the ``blochpath`` entry point that
    pyproject.toml declares, written under ``tmp_path``.

    The suite runs from source, so no installer has put a launcher on PATH,
    and one that is there may belong to another checkout.  The table is read
    without tomllib, which Python 3.10 lacks."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entry = re.search(r'^blochpath\s*=\s*"(.+)"', scripts, re.M).group(1)
    module, attr = entry.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir(exist_ok=True)
    launcher = bindir / "blochpath"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)
    return str(launcher)


def _imported_modules(argv, code=EXIT_OK, err=None, cwd=None) -> list:
    """Every module a fresh interpreter run with ``argv`` in ``cwd`` imports,
    as ``-X importtime`` lists them; the run must exit with ``code`` and
    write to stderr nothing else, or ``err`` as its last line."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd,
                          capture_output=True, text=True, env=_child_env())
    lines = proc.stderr.splitlines()
    rest = [line for line in lines if not line.startswith("import time:")]
    assert (proc.returncode, rest[-1:]) == (code, [err] if err else [])
    return [line.rsplit("|", 1)[-1].strip()
            for line in lines if line.startswith("import time:")]


def _freeze_probe(tmp_path) -> Path:
    """A directory whose ``sitecustomize`` has a child write, at exit, how
    many objects its collector holds frozen at site start-up and at exit."""
    probe = tmp_path / "probe"
    probe.mkdir(exist_ok=True)
    (probe / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "_start = gc.get_freeze_count()\n"
        "atexit.register(lambda: sys.stderr.write(\n"
        "    f'frozen at start: {_start}, at exit: {gc.get_freeze_count()}\\n'))\n")
    return probe


def _frozen_by_the_child(stderr: str) -> int:
    """How many more objects the child held frozen at exit than at start-up,
    from the probe's line, which must be all the child wrote to stderr."""
    start, end = re.fullmatch(r"frozen at start: (\d+), at exit: (\d+)\n", stderr).groups()
    return int(end) - int(start)
