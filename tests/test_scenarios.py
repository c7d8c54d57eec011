"""Scenario registry, artifact emission, sweeps, and golden files.

The byte goldens under ``tests/golden`` were written on x86-64 with Python
3.11.7 and numpy 2.4.6 (SIMD baseline ``X86_V2``; ``X86_V3``, ``X86_V4``,
``AVX512_ICL`` and ``AVX512_SPR`` found) and the default kernel of its
scipy-openblas (SkylakeX on that CPU).  No product goes through BLAS, so
the kernel does not matter; the array ``sin``/``cos``/``exp``/``arctan2``
follow the SIMD dispatch, so on a CPU without AVX-512 a golden cell can
move in its last bits.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import scenarios
from blochpath import (
    ConfigError,
    NumericalError,
    ScenarioConfig,
    ShapeError,
    build_scenario,
    run_report,
    schrodinger_evolve,
    speed_efficiency_tracezero,
    sweep_alpha,
    sweep_phase_profiles,
    table_rows,
)
from blochpath.evolve import MAX_STEPS
from blochpath.families import _orbit
from blochpath.scenarios import write_csv, write_json
from csv_reference import csv_module_bytes

GOLDEN = Path(__file__).parent / "golden"


def read_csv_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_payload_close(got: dict, want: dict, rel=1e-9):
    assert set(got) == set(want)
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float):
            assert g == pytest.approx(w, rel=rel, abs=1e-12), key
        elif isinstance(w, list) and w and isinstance(w[0], float):
            assert g == pytest.approx(w, rel=rel, abs=1e-12), key
        else:
            assert g == w, key


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="example9")

    def test_unknown_output(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="example1", outputs=("plots",))

    def test_step_count(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="example1", n_steps=1)

    @pytest.mark.parametrize("steps", [
        "3", np.nan, np.inf, True, 5.7, MAX_STEPS + 1])
    def test_step_count_is_an_integral_real_in_range(self, steps):
        with pytest.raises(ConfigError, match="n_steps"):
            ScenarioConfig(scenario="example1", n_steps=steps)

    def test_integral_float_step_count_is_stored_as_an_int(self):
        cfg = ScenarioConfig(scenario="example1", n_steps=40.0)
        assert cfg.n_steps == 40 and type(cfg.n_steps) is int
        assert build_scenario(cfg)[2].n_steps == 40

    def test_from_dict_round_trip_and_unknown_keys(self):
        cfg = ScenarioConfig.from_dict({
            "scenario": "example3",
            "parameters": {"gamma": 2.0},
            "t_span": [0.0, 0.5],
            "n_steps": 100,
        })
        assert cfg.scenario == "example3"
        assert cfg.parameters == {"gamma": 2.0}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "example1", "mystery": 1})

    def test_custom_keys_are_checked_on_the_config_and_kept_from_later_edits(self):
        field, psi0 = {"h": [0.0, 0.0, 1.0]}, {"bloch": [1.0, 0.0, 0.0]}
        cfg = ScenarioConfig(scenario="custom", field=field, psi0=psi0)
        field["colour"], psi0["phase"] = 1, 0.5
        assert (cfg.field, cfg.psi0) == ({"h": [0.0, 0.0, 1.0]}, {"bloch": [1.0, 0.0, 0.0]})
        with pytest.raises(ConfigError, match=r"unknown field keys \['colour'\]"):
            ScenarioConfig(scenario="custom", field=field)
        with pytest.raises(ConfigError, match=r"unknown psi0 keys \['phase'\]"):
            ScenarioConfig(scenario="custom", field=cfg.field, psi0=psi0)

    def test_missing_required_parameter_is_named(self):
        with pytest.raises(ConfigError, match="alpha"):
            build_scenario(ScenarioConfig(scenario="suboptimal_family",
                                          parameters={"theta_ab": 1.0}))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            build_scenario(ScenarioConfig(scenario="example3", parameters={"gamm": 1.0}))

    def test_nu0_alias(self, tmp_path):
        cfg = ScenarioConfig(scenario="example2",
                             parameters={"Omega0": 0.2}, outputs=("report",),
                             n_steps=50)
        run_report(cfg, out_dir=tmp_path)
        payload = json.loads((tmp_path / "example2_report.json").read_text())
        assert payload["parameters"]["nu0"] == 0.2
        with pytest.raises(ConfigError):
            build_scenario(ScenarioConfig(
                scenario="example2",
                parameters={"Omega0": 0.2, "nu0": 0.1}))


class TestBuilders:
    def test_example1_defaults(self):
        field, psi0, grid = build_scenario(ScenarioConfig(scenario="example1"))
        h0, h = field.sample([0.0])
        assert np.allclose(h[0], [0.0, 0.5, 0.0], atol=1e-15)
        assert h0[0] == 0.0
        assert np.allclose(psi0, [1.0, 0.0])
        assert grid.n_steps == 2000
        assert (grid.t_start, grid.t_end) == (0.0, 1.0)

    def test_example3_defaults(self):
        field, psi0, grid = build_scenario(ScenarioConfig(scenario="example3"))
        assert np.allclose(field.sample([0.7])[1][0], [0.0, 0.0, 1.0])
        assert np.allclose(psi0, [np.sqrt(3) / 2, 0.5])

    def test_example4_starts_on_the_prescribed_path(self):
        _, psi0, _ = build_scenario(ScenarioConfig(scenario="example4"))
        assert np.allclose(psi0, [np.sqrt(3) / 2, 0.5], atol=1e-12)

    def test_suboptimal_family_grid_covers_travel_time(self):
        cfg = ScenarioConfig(scenario="suboptimal_family",
                             parameters={"alpha": np.pi / 4,
                                         "theta_ab": np.pi / 2})
        _, _, grid = build_scenario(cfg)
        assert grid.t_end == pytest.approx(
            _orbit(np.pi / 4, np.pi / 2)[1] / (2.0 * 1.0), abs=1e-12)

    def test_suboptimal_family_geometry_is_derived_once(self, monkeypatch):
        from blochpath import families

        calls = {"suboptimal_axis": 0, "_orbit": 0, "endpoint_angle": 0}
        for name in calls:
            def counted(*args, _fn=getattr(families, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(families, name, counted)
        cfg = ScenarioConfig(scenario="suboptimal_family", n_steps=50,
                             parameters={"alpha": 1.1, "theta_ab": 0.9})
        schrodinger_evolve(*build_scenario(cfg))
        # the axis computes the separation once more on its own
        assert calls == {"suboptimal_axis": 1, "_orbit": 1, "endpoint_angle": 2}

    def test_custom_constant_field(self):
        cfg = ScenarioConfig(scenario="custom", n_steps=100, parameters={},
                             field={"h0": 0.0, "h": [0.0, 0.0, 1.0]},
                             psi0=[[np.sqrt(3) / 2, 0.0], [0.5, 0.0]])
        field, psi0, _ = build_scenario(cfg)
        assert np.allclose(field.sample([0.3])[1][0], [0.0, 0.0, 1.0])
        assert np.allclose(psi0, [np.sqrt(3) / 2, 0.5])

    def test_custom_table_field_interpolates(self):
        cfg = ScenarioConfig(scenario="custom", n_steps=10, field={
            "times": [0.0, 1.0],
            "h0": [0.0, 1.0],
            "h": [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]],
        })
        field, psi0, _ = build_scenario(cfg)
        h0, h = field.sample([0.25, 0.5])
        assert h0[0] == pytest.approx(0.25)
        assert np.allclose(h[1], [0.0, 0.0, 2.0])
        assert np.allclose(psi0, [1.0, 0.0])

    def test_custom_bloch_initial_state(self):
        cfg = ScenarioConfig(scenario="custom", n_steps=10,
                             field={"h0": 0.0, "h": [0.0, 0.0, 1.0]},
                             psi0={"bloch": [0.0, 0.0, -1.0]})
        _, psi0, _ = build_scenario(cfg)
        assert abs(psi0[0]) < 1e-12

    def test_custom_field_validation(self):
        with pytest.raises(ConfigError):
            build_scenario(ScenarioConfig(scenario="custom",
                                          field={"h0": 0.0}))
        with pytest.raises(ConfigError):
            build_scenario(ScenarioConfig(scenario="custom",
                                          field={"h0": 0.0, "h": [1.0, 0.0]}))
        with pytest.raises(ConfigError):
            build_scenario(ScenarioConfig(scenario="custom"))
        table = {"times": [0.0, 0.5, 1.0], "h": [[0.0, 0.0, 1.0]] * 3}
        for field, psi0, message in [
                ({"h": [0.0, math.nan, 1.0]}, None, "field 'h' must be finite numbers"),
                ({**table, "h": [[0.0, 0.0, 1.0]] * 2}, None,
                 "field table shapes do not line up with 'times'"),
                ({"times": [0.0], "h": [[0.0, 0.0, 1.0]]}, None,
                 "'times' must be strictly increasing, length >= 2"),
                ({**table, "times": [0.0, 0.5, 0.5]}, None,
                 "'times' must be strictly increasing, length >= 2"),
                ({"h": [0.0, 0.0, 1.0]}, [1.0, 0.0],
                 "psi0 must be [[re0, im0], [re1, im1]] or {'bloch': [...]}")]:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                build_scenario(ScenarioConfig(scenario="custom", field=field, psi0=psi0))


class TestGoldenFiles:
    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_reports_match_golden(self, tmp_path, number):
        run_report(ScenarioConfig(scenario=f"example{number}",
                                  outputs=("report",)), out_dir=tmp_path)
        got = json.loads(
            (tmp_path / f"example{number}_report.json").read_text())
        want = json.loads(
            (GOLDEN / f"example{number}_report.json").read_text())
        assert_payload_close(got, want)

    def test_coarse_trajectory_matches_golden(self, tmp_path):
        run_report(ScenarioConfig(scenario="example3", n_steps=8),
                   out_dir=tmp_path)
        got_head, got_rows = read_csv_table(tmp_path / "example3_trajectory.csv")
        want_head, want_rows = read_csv_table(GOLDEN / "example3_trajectory_n8.csv")
        assert got_head == want_head
        assert len(got_rows) == len(want_rows) == 9
        for got_row, want_row in zip(got_rows, want_rows):
            for g, w in zip(got_row, want_row):
                assert float(g) == pytest.approx(float(w), abs=1e-12)

    def test_sweep_alpha_csv_matches_golden_bytes(self, tmp_path):
        write_csv(tmp_path / "sweep.csv", sweep_alpha(1.2, 9))
        assert (tmp_path / "sweep.csv").read_bytes() \
            == (GOLDEN / "sweep_alpha_theta1.2_n9.csv").read_bytes()

    def test_phased_example2_trajectory_matches_golden_bytes(self, tmp_path):
        # a geodesic: this kappa_bloch column is rounding noise about 0, which
        # any change to the closed form's order of operations moves
        run_report(ScenarioConfig(
            scenario="example2", t_span=(0.2, 2.0), n_steps=40,
            parameters={"omega0": 1.7, "nu0": 0.4, "varphi0": 0.3},
            outputs=("trajectory", "efficiency", "curvature")), out_dir=tmp_path)
        assert (tmp_path / "example2_trajectory.csv").read_bytes() \
            == (GOLDEN / "example2_phased_trajectory_n40.csv").read_bytes()

    def test_example4_trajectory_matches_golden_bytes(self, tmp_path):
        # the batched prescribed-path drive; kappa_bloch's dh/dt is taken
        # from its node and midpoint samples
        run_report(ScenarioConfig(scenario="example4", parameters={"gamma": 1.7},
                                  t_span=(0.1, 0.9), n_steps=40), out_dir=tmp_path)
        assert (tmp_path / "example4_trajectory.csv").read_bytes() \
            == (GOLDEN / "example4_gamma1.7_trajectory_n40.csv").read_bytes()

    def test_tabulated_trajectory_matches_golden_bytes(self, tmp_path):
        # np.interp over whole time arrays; kappa_bloch's dh/dt is taken
        # from the table's node and midpoint samples
        knots = np.linspace(0.0, 1.2, 9)
        table = {"times": knots.tolist(),
                 "h": np.stack([0.8 + 0.3 * np.sin(3.0 * knots),
                                0.4 * np.cos(2.0 * knots),
                                0.5 - 0.6 * knots], axis=1).tolist(),
                 "h0": (0.2 * np.cos(4.0 * knots)).tolist()}
        run_report(ScenarioConfig(scenario="custom", field=table,
                                  psi0={"bloch": [0.0, 0.6, 0.8]},
                                  t_span=(0.05, 1.1), n_steps=40), out_dir=tmp_path)
        assert (tmp_path / "custom_trajectory.csv").read_bytes() \
            == (GOLDEN / "custom_tabulated_trajectory_n40.csv").read_bytes()

    def test_example2_report_documents_the_closed_form(self, tmp_path):
        run_report(ScenarioConfig(scenario="example2", outputs=("report",),
                                  n_steps=50), out_dir=tmp_path)
        payload = json.loads((tmp_path / "example2_report.json").read_text())
        assert payload["notes"]
        assert any("0.87" in note for note in payload["notes"])


class TestArtifacts:
    def test_run_report_writes_both_files(self, tmp_path):
        row = run_report(ScenarioConfig(scenario="example3", n_steps=100),
                         out_dir=tmp_path)
        assert (tmp_path / "example3_trajectory.csv").exists()
        assert (tmp_path / "example3_report.json").exists()
        assert row.scenario == "example3"
        head, rows = read_csv_table(tmp_path / "example3_trajectory.csv")
        assert head == ["t", "a_x", "a_y", "a_z", "delta_e", "s", "s0",
                        "eta_ge", "eta_se", "kappa_bloch"]
        assert len(rows) == 101

    def test_output_selection_skips_files(self, tmp_path):
        run_report(ScenarioConfig(scenario="example1", n_steps=50,
                                  outputs=("report",)), out_dir=tmp_path)
        assert not (tmp_path / "example1_trajectory.csv").exists()
        assert (tmp_path / "example1_report.json").exists()

    def test_a_run_that_writes_nothing_touches_no_directory(self, tmp_path):
        row = run_report(ScenarioConfig(scenario="example3", n_steps=50, outputs=()),
                         out_dir=tmp_path / "missing" / "runs")
        assert row.scenario == "example3"
        assert list(tmp_path.iterdir()) == []

    def test_a_run_that_writes_nothing_needs_no_out_dir(self, tmp_path):
        config = ScenarioConfig(scenario="example3", outputs=())
        assert run_report(config, out_dir=None) == run_report(config, out_dir=tmp_path)

    @pytest.mark.parametrize("out_dir", [None, 123, b"x"], ids=["None", "int", "bytes"])
    def test_an_out_dir_that_is_not_a_path_fails_before_the_run(self, monkeypatch, out_dir):
        monkeypatch.setattr(scenarios, "_build", lambda config: pytest.fail("built"))
        config = ScenarioConfig(scenario="example3", n_steps=20, outputs=("report",))
        with pytest.raises(ConfigError, match="str or os.PathLike"):
            run_report(config, out_dir=out_dir)
        if out_dir is not None:  # None asks table_rows for no files
            with pytest.raises(ConfigError, match="str or os.PathLike"):
                table_rows(out_dir=out_dir)

    @pytest.mark.parametrize("write", [write_csv, write_json])
    def test_a_writer_path_that_is_not_a_path_is_a_config_error(self, write):
        with pytest.raises(ConfigError, match="str or os.PathLike"):
            write(None, {"x": [1.0]})

    def test_an_int_path_is_not_opened_as_a_file_descriptor(self):
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(ConfigError, match="str or os.PathLike"):
                write_csv(write_end, {"x": [1.0]})
            os.fstat(write_end)  # still open
        finally:
            os.close(read_end)
            with contextlib.suppress(OSError):
                os.close(write_end)

    @pytest.mark.parametrize("one_shot", [lambda names: (n for n in names), iter],
                             ids=["generator", "iterator"])
    def test_one_shot_outputs_are_read_once(self, tmp_path, one_shot):
        cfg = ScenarioConfig(scenario="example1", n_steps=50,
                             outputs=one_shot(["trajectory", "report"]))
        assert cfg.outputs == ("trajectory", "report")
        run_report(cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "example1_report.json", "example1_trajectory.csv"]
        with pytest.raises(ConfigError, match="columns of the 'trajectory' file"):
            ScenarioConfig(scenario="example1", outputs=one_shot(["efficiency"]))

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        cfg = ScenarioConfig(scenario="example3", n_steps=200)
        a, b = tmp_path / "a", tmp_path / "b"
        run_report(cfg, out_dir=a)
        run_report(cfg, out_dir=b)
        for name in ("example3_trajectory.csv", "example3_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_csv_writer_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"x": np.array([np.sqrt(3) / 2]),
                         "y": np.array([1.0])})
        raw = path.read_bytes()
        assert b"\r\n" in raw
        assert b"0.866025403784439" in raw
        assert raw.decode().splitlines()[0] == "x,y"

    def test_csv_writer_takes_an_open_stream(self, tmp_path):
        columns = {"x": np.linspace(0.0, 1.0, 7), "y": np.arange(7.0) / 3.0}
        path = tmp_path / "t.csv"
        write_csv(path, columns)
        stream = io.StringIO(newline="")
        write_csv(stream, columns)
        assert not stream.closed
        assert stream.getvalue().encode() == path.read_bytes()

    @pytest.mark.parametrize("target", ["stream", "path"])
    def test_csv_columns_of_different_lengths_are_a_shape_error(self, tmp_path, target):
        stream, path = io.StringIO(newline=""), tmp_path / "t.csv"
        with pytest.raises(ShapeError, match="differ in length"):
            write_csv(stream if target == "stream" else path,
                      {"a": [1.0, 2.0, 3.0], "b": [4.0]})
        assert stream.getvalue() == ""
        assert not path.exists()

    @given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_csv_bytes_equal_the_csv_module(self, floats, seed):
        # any float, plus rows past one write chunk of random magnitudes
        rng = np.random.default_rng(seed)
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2e-308,
                   1e300, -1e-300, 1.0 / 3.0]
        n = len(floats) + len(special) + 2100
        columns = {
            "x": np.concatenate([floats, special, rng.normal(size=2100)]),
            "y": 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1, 1], n),
            "k": np.arange(n),
        }
        stream = io.StringIO(newline="")
        write_csv(stream, columns)
        assert stream.getvalue().encode("utf-8") == csv_module_bytes(columns)

    @pytest.mark.parametrize("columns", [
        {name: np.linspace(0.0, 1.0, 3) * k for k, name in enumerate(
            ["plain", "quoted,head", 'say "hi"', "two\nlines", "cr\rx", "", " pad ",
             "η"])},
        {"": np.array([0.5, -1.0])},
    ], ids=["awkward_names", "lone_empty_name"])
    def test_csv_names_are_quoted_as_the_csv_module_does(self, tmp_path, columns):
        stream, path = io.StringIO(newline=""), tmp_path / "t.csv"
        write_csv(stream, columns)
        write_csv(path, columns)
        assert stream.getvalue().encode("utf-8") == path.read_bytes() \
            == csv_module_bytes(columns)

    def test_json_writer_format(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": 2})
        raw = path.read_text()
        assert raw.endswith("\n")
        assert raw.index('"a"') < raw.index('"b"')

    def test_table_rows_csv(self, tmp_path):
        rows = table_rows(out_dir=tmp_path, n_steps=150)
        assert [r.scenario for r in rows] == [
            "example1", "example2", "example3", "example4"]
        head, body = read_csv_table(tmp_path / "table2.csv")
        assert head == ["scenario", "eta_ge_bar", "eta_se_bar", "eta_he",
                        "classification"]
        assert len(body) == 4
        assert body[0][4] == "GeodesicUnwasteful"
        # byte for byte what a csv.writer with .15g floats renders
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(head)
        for r in rows:
            writer.writerow([r.scenario, f"{r.eta_ge_bar:.15g}",
                             f"{r.eta_se_bar:.15g}", f"{r.eta_he:.15g}",
                             r.classification])
        assert (tmp_path / "table2.csv").read_bytes() \
            == expected.getvalue().encode("utf-8")


class TestSweepAlpha:
    def test_quarter_turn_grid(self):
        table = sweep_alpha(np.pi / 2, 5)
        assert list(table) == ["alpha", "s", "t_ab", "delta_e", "eta_ge",
                               "eta_se"]
        assert table["alpha"][0] == pytest.approx(1e-6)
        assert table["alpha"][-1] == pytest.approx(np.pi - 1e-6)
        # interior point is exactly pi/2: geodesic row
        assert table["alpha"][2] == pytest.approx(np.pi / 2, abs=1e-15)
        assert table["s"][2] == pytest.approx(np.pi / 2, abs=1e-12)
        assert table["eta_ge"][2] == pytest.approx(1.0, abs=1e-12)
        assert table["eta_se"][2] == pytest.approx(1.0, abs=1e-12)

    def test_extrema_sit_nearest_the_geodesic_plane(self):
        table = sweep_alpha(2.0, 21)
        nearest = int(np.argmin(np.abs(table["alpha"] - np.pi / 2)))
        assert int(np.argmin(table["s"])) == nearest
        assert int(np.argmax(table["eta_ge"])) == nearest

    def test_speed_column_is_the_orbit_radius(self):
        table = sweep_alpha(1.2, 9, E=2.5)
        expected = [_orbit(a, 1.2)[0] for a in table["alpha"]]
        assert np.allclose(table["eta_se"], expected, atol=1e-12)

    def test_antipodal_limit(self):
        table = sweep_alpha(np.pi - 1e-6, 9)
        assert np.max(np.abs(table["s"] - np.pi)) < 1e-4

    @given(gap=st.floats(-6.0, np.log10(np.pi / 2)), near_pi=st.booleans(),
           half=st.integers(1, 200), energy=st.floats(1e-3, 1e3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_efficiencies_stay_in_bounds_over_the_whole_domain(self, gap, near_pi,
                                                               half, energy):
        theta = float(np.clip(np.pi - 10.0 ** gap if near_pi else 10.0 ** gap,
                              1e-6, np.pi - 1e-6))
        table = sweep_alpha(theta, 2 * half + 1, E=energy)
        assert np.all(table["eta_ge"] <= 1.0) and np.all(table["eta_se"] <= 1.0)
        assert table["alpha"][half] == pytest.approx(np.pi / 2, rel=1e-15)
        assert table["eta_ge"][half] == 1.0
        assert table["s"][half] == theta

    def test_validation(self):
        with pytest.raises(ConfigError):
            sweep_alpha(np.pi / 2, 2)
        with pytest.raises(ConfigError):
            sweep_alpha(4.0, 5)
        with pytest.raises(ConfigError):
            sweep_alpha(np.pi / 2, 5, E=0.0)

    @pytest.mark.parametrize("points", ["5", 5.7, np.nan, np.inf, True, 2,
                                        MAX_STEPS + 1])
    def test_point_count_is_an_integral_real_in_range(self, points):
        with pytest.raises(ConfigError, match="alpha points"):
            sweep_alpha(1.2, points)

    def test_integral_float_point_count(self):
        table = sweep_alpha(1.2, 5.0)
        assert table["alpha"].tolist() == sweep_alpha(1.2, 5)["alpha"].tolist()

    def test_float_edge_an_overflowing_travel_time_is_a_numerical_error(self):
        # phi / (2 E) at a subnormal E overflows; no warning comes before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="sweep column 't_ab' is not finite"):
                sweep_alpha(1.2, 9, E=5e-309)


class TestPhaseProfiles:
    def test_columns_and_t0_agreement(self):
        tables = {p: sweep_phase_profiles(p, 1.0, 1.0, 1.0, t_end=5.0,
                                          n_points=101)
                  for p in ("log", "linear", "exp")}
        for table in tables.values():
            assert list(table) == ["t", "phi", "phi_dot",
                                   "eta_se_trace_zero",
                                   "eta_se_trace_nonzero"]
        # equal initial slopes mean equal initial efficiencies
        for table in tables.values():
            assert table["eta_se_trace_zero"][0] \
                == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-12)
        zeros = [t["eta_se_trace_zero"][0] for t in tables.values()]
        assert np.ptp(zeros) < 1e-15

    def test_log_profile_values_and_monotonicity(self):
        table = sweep_phase_profiles("log", 2.0, 1.5, 1.0, t_end=8.0,
                                     n_points=200)
        t = table["t"]
        assert np.allclose(table["phi"],
                           2.0 * np.log1p((1.5 / 2.0) * t), atol=1e-12)
        assert np.all(np.diff(table["eta_se_trace_zero"]) > 0.0)
        assert table["eta_se_trace_zero"][-1] > 0.99

    def test_linear_profile_is_constant(self):
        table = sweep_phase_profiles("linear", 1.0, 1.0, 1.0, n_points=50)
        expected = speed_efficiency_tracezero(1.0, 1.0)
        assert np.allclose(table["eta_se_trace_zero"], expected, atol=1e-12)

    def test_exp_profile_decays(self):
        table = sweep_phase_profiles("exp", 1.0, 1.0, 1.0, t_end=5.0,
                                     n_points=50)
        assert table["eta_se_trace_zero"][-1] < 0.05
        assert np.all(table["eta_se_trace_nonzero"]
                      <= table["eta_se_trace_zero"] + 1e-12)

    def test_validation(self):
        # a config error is reported before an overflowing omega0
        for omega0 in (1.0, 1e300):
            with pytest.raises(ConfigError):
                sweep_phase_profiles("log", 0.0, 1.0, omega0)
            with pytest.raises(ConfigError):
                sweep_phase_profiles("cubic", 1.0, 1.0, omega0)
            with pytest.raises(ConfigError):
                sweep_phase_profiles("linear", 1.0, 1.0, omega0, n_points=1)
            with pytest.raises(ConfigError,
                               match="^log profile leaves its domain before t_end$"):
                sweep_phase_profiles("log", 1.0, -1.0, omega0, t_end=2.0)

    @pytest.mark.parametrize("points", ["5", 5.7, np.nan, np.inf, True, None])
    def test_point_count_is_an_integral_real(self, points):
        with pytest.raises(ConfigError, match="time points"):
            sweep_phase_profiles("linear", 1.0, 1.0, 1.0, n_points=points)
