"""Output checker: compares every op's output with its reference.

A check yields comparisons ``(label, actual, expected, atol, rtol)``, or
``(label, actual, expected)`` for an exact comparison.  ``judge`` turns them
into a verdict.  ``perturb`` shifts the expected values (numbers by a
relative and absolute 1e-4, integers such as exit codes by one, strings by a
suffix), which must turn every op into a failure: the smoke self-check uses
it to show that no check passes vacuously.  Nothing here runs inside a timed
interval.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref
from workloads import axis_table

PERTURB = 1e-4

#: defaults of the built-in scenarios, as documented by the library
DEFAULTS = {"example1": {"omega0": 1.0, "varphi0": 0.0, "theta0": 0.0},
            "example2": {"omega0": 1.0, "nu0": 0.1},
            "example3": {"gamma": 1.0}, "example4": {"gamma": 1.0}}

ROW = re.compile(r"^(\w+): eta_ge_bar=(\S+) eta_se_bar=(\S+) eta_he=(\S+) (\w+)$")

PASS, ERROR, WRONG = "pass", "error", "wrong"


def _shift(value, perturb, numeric):
    """The expected value moved off by ``perturb``; booleans and lists
    compared exactly stay as they are."""
    if not perturb or isinstance(value, bool):
        return value
    if numeric:
        return np.asarray(value, dtype=float) * (1.0 + perturb) + perturb
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, int):
        return value + 1
    return value


def judge(comparisons, perturb=0.0) -> tuple[str, str, float]:
    """``(status, detail, endpoint_err)`` for one op's comparisons."""
    endpoint_err = 0.0
    for label, actual, expected, *tol in comparisons:
        expected = _shift(expected, perturb, numeric=bool(tol))
        if not tol:
            if actual != expected:
                return WRONG, f"{label}: got {actual!r}, want {expected!r}", endpoint_err
            continue
        atol, rtol = tol
        a = np.asarray(actual, dtype=float)
        e = np.asarray(expected, dtype=float)
        if a.shape != e.shape:
            return WRONG, f"{label}: shape {a.shape}, want {e.shape}", endpoint_err
        dev = np.abs(a - e)
        if label == "endpoint":
            endpoint_err = max(endpoint_err, float(np.max(dev)))
        bad = ~(dev <= atol + rtol * np.abs(e))
        if np.any(bad):
            k = int(np.argmax(bad.ravel()))
            return (WRONG, f"{label}: got {a.ravel()[k]!r}, want {e.ravel()[k]!r}",
                    endpoint_err)
    return PASS, "", endpoint_err


# ------------------------------------------------------------ references


def reference_for(kind: str, p: dict, n_steps: int | None = None) -> dict:
    """Exact path and trapezoid averages of one scenario or callable op."""
    if kind == "suboptimal_family":
        sub = ref.suboptimal(p["alpha"], p["theta_ab"], p["E"])
        t1 = sub["t_ab"]
    else:
        sub, t1 = None, p.get("t_end", 1.0)
    t = ref.grid(0.0, t1, n_steps)
    one = np.ones_like(t)
    const = None
    if kind == "example1":
        const = (0.0, ref.example1_field(p["omega0"], p["varphi0"]),
                 ref.example1_start(p["theta0"], p["varphi0"]))
    elif kind == "example3":
        const = (0.0, np.array([0.0, 0.0, p["gamma"]]), ref.EXAMPLE3_START)
    elif kind == "suboptimal_family":
        const = (0.0, sub["h"], sub["a0"])
    elif kind == "custom_const":
        const = (p["h0"], np.asarray(p["h"]), ref.unit(p["bloch"]))
    if const is not None:
        h0, h, a0 = const
        bloch = ref.constant_path(t, a0, h)
        out = ref.averages(t, bloch, h0 * one, np.tile(h, (len(t), 1)))
        out.update(bloch=bloch, kappa=ref.constant_kappa(a0, h), sub=sub)
    elif kind == "example2":
        out = ref.example2_averages(t, p["omega0"], p["nu0"])
    elif kind == "example4":
        out = ref.example4_averages(t, p["gamma"])
    elif kind == "tabulated":
        knots, mag, trace = axis_table(p)
        out = ref.fixed_axis_averages(
            t, ref.unit(p["bloch"]), np.asarray(p["axis"]), np.interp(t, knots, mag),
            ref.piecewise_linear_integral(t, knots, mag), np.interp(t, knots, trace))
    elif kind in ("callable_axis", "callable_geodesic"):
        w, ph = p["w"], p["ph"]
        mag = p["c0"] + p["c1"] * np.sin(w * t + ph)
        integral = p["c0"] * t - p["c1"] / w * (np.cos(w * t + ph) - math.cos(ph))
        out = ref.fixed_axis_averages(t, ref.unit(p["bloch"]), np.asarray(p["axis"]),
                                      mag, integral, p["d0"] * np.cos(w * t))
    elif kind == "callable_rotating":
        out = ref.rotating_averages(t, ref.unit(p["bloch"]), p["b"], p["w"], p["bz"],
                                    p["d0"] * one)
    else:
        raise ValueError(f"no reference for {kind!r}")
    out["t"] = t
    return out


def row_checks(row: dict, r: dict, atol=1e-8) -> list:
    return [(name, row[name], r[name], atol, 0.0)
            for name in ("eta_ge_bar", "eta_se_bar", "eta_he")]


def closed_form_checks(kind: str, p: dict, r: dict, report: dict) -> list:
    """Closed forms that do not go through the trapezoid averages."""
    if kind == "suboptimal_family":
        sub = r["sub"]
        return [("arc length", report["s_total"], sub["arc"], 0.0, 1e-8),
                ("eta_se of the family", report["eta_se_bar"], sub["eta_se"], 1e-9, 0.0),
                ("t_ab", report["t_span"][1], sub["t_ab"], 0.0, 1e-12)]
    if kind == "example2":
        return [("phased eta_se", report["eta_se_bar"],
                 ref.example2_eta_se(p["omega0"], p["nu0"]), 1e-9, 0.0)]
    return []


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def artifact_checks(kind: str, p: dict, out_dir: Path, scenario: str,
                    row: dict | None = None) -> list:
    """Report JSON and trajectory CSV of a ``run_report`` op."""
    report = json.loads((out_dir / f"{scenario}_report.json").read_text())
    n = report["n_steps"]
    r = reference_for(kind, p, n)
    t = r["t"]
    # the grid follows the reported span: a span of exactly k/2000 can round
    # either way, and the span itself is checked against the reference below
    checks = [("n_steps", n, ref.n_steps_for(*report["t_span"])),
              ("t_span", report["t_span"], [0.0, t[-1]], 0.0, 1e-12),
              ("s_total", report["s_total"], r["s_total"], 1e-12, 1e-8),
              ("s0_total", report["s0_total"], r["s0_total"], 1e-7, 0.0)]
    checks += row_checks(report, r)
    checks += closed_form_checks(kind, p, r, report)
    if row is not None:
        checks += row_checks(row, r)
    header, data = _read_csv(out_dir / f"{scenario}_trajectory.csv")
    want = ["t", "a_x", "a_y", "a_z", "delta_e", "s", "s0", "eta_ge", "eta_se", "kappa_bloch"]
    checks.append(("csv header", header, want))
    if header == want and data.shape == (len(t), len(want)):
        cols = dict(zip(header, data.T))
        checks += [("t", cols["t"], t, 1e-12, 0.0),
                   ("endpoint", data[-1, 1:4], r["bloch"][-1], 1e-8, 0.0),
                   ("bloch path", data[:, 1:4], r["bloch"], 1e-8, 0.0),
                   ("delta_e", cols["delta_e"], r["delta_e"], 1e-9, 0.0),
                   ("s", cols["s"], r["s"], 1e-12, 1e-8),
                   ("s0", cols["s0"], r["s0"], 1e-6, 0.0),
                   ("eta_ge", cols["eta_ge"], r["eta_ge"], 1e-6, 0.0),
                   ("eta_se", cols["eta_se"], r["eta_se"], 1e-9, 0.0)]
        if "kappa" in r:
            checks.append(("kappa_bloch", cols["kappa_bloch"],
                           np.full(len(t), r["kappa"]), 1e-9, 1e-6))
    else:
        checks.append(("csv shape", data.shape, (len(t), len(want))))
    return checks


def golden_checks(root: Path, scenario: str, report: dict) -> list:
    """Compare a report payload with the repo's golden file (rel 1e-9)."""
    want = json.loads((root / "tests" / "golden" / f"{scenario}_report.json").read_text())
    checks = [("golden keys", sorted(report), sorted(want))]
    for key, w in want.items():
        g = report.get(key)
        if isinstance(w, float) or (isinstance(w, list) and w and isinstance(w[0], float)):
            checks.append((f"golden {key}", g, w, 1e-12, 1e-9))
        elif isinstance(w, dict):
            checks += [(f"golden {key}.{k}", (g or {}).get(k), v, 1e-12, 1e-9)
                       for k, v in w.items()]
        else:
            checks.append((f"golden {key}", g, w))
    return checks


# ------------------------------------------------------------ in-process ops


def check_inprocess(workload: str, op: dict, out: dict, root: Path) -> list:
    kind = op["kind"]
    if kind == "golden":
        scenario = op["scenario"]
        if workload == "const_artifacts":
            report = json.loads((out["dir"] / f"{scenario}_report.json").read_text())
            return (golden_checks(root, scenario, report)
                    + artifact_checks(scenario, DEFAULTS[scenario], out["dir"], scenario,
                                      out["row"]))
        return _golden_row_checks(root, scenario, out["row"])
    if kind in ("example1", "example3", "suboptimal_family", "custom_const"):
        scenario = "custom" if kind == "custom_const" else kind
        return artifact_checks(kind, op, out["dir"], scenario, out["row"])
    if kind in ("example2", "example4", "tabulated"):
        r = reference_for(kind, op)
        # RK4 is only third order on steps that straddle a knot of the table
        atol = 1e-6 if kind == "tabulated" else 1e-8
        return row_checks(out["row"], r, atol) + closed_form_checks(kind, op, r, out["row"])
    if kind.startswith("callable"):
        r = reference_for(kind, op)
        return ([("n_steps", out["n_steps"], ref.n_steps_for(0.0, op["t_end"])),
                 ("endpoint", out["bloch_end"], r["bloch"][-1], 1e-8, 0.0),
                 ("s_total", out["s_total"], r["s_total"], 1e-12, 1e-8)]
                + row_checks(out, r))
    if kind == "sweep_alpha":
        return table_checks(out["path"], ref.sweep_alpha_table(op["theta_ab"], op["points"],
                                                               op["E"]))
    if kind == "phase_profiles":
        return table_checks(out["path"], ref.phase_profile_table(
            op["profile"], op["phi0"], op["phidot0"], op["omega0"], op["t_end"], op["points"]))
    raise ValueError(kind)


def _golden_row_checks(root: Path, scenario: str, row: dict, atol=None) -> list:
    want = json.loads((root / "tests" / "golden" / f"{scenario}_report.json").read_text())
    checks = [("classification", row["classification"], want["classification"])]
    for name in ("eta_ge_bar", "eta_se_bar", "eta_he"):
        checks.append((f"golden {name}", row[name], want[name],
                       *((atol, 0.0) if atol else (1e-12, 1e-9))))
    return checks


def table_checks(path: Path, want: dict) -> list:
    header, data = _read_csv(path)
    checks = [("csv header", header, list(want))]
    if header == list(want) and data.shape[0] == len(want[header[0]]):
        checks += [(name, data[:, k], want[name], 1e-13, 1e-10)
                   for k, name in enumerate(header)]
    else:
        checks.append(("csv rows", data.shape[0], len(next(iter(want.values())))))
    return checks


# ------------------------------------------------------------ CLI ops


def check_cli(op: dict, out: dict, root: Path) -> list:
    """Exit code, clean stderr, and the output the command documents."""
    checks = [("exit code", out["code"], out["expected"]),
              ("traceback on stderr", "Traceback" in out["stderr"], False),
              ("guard", "perfbench guard" in out["stderr"], False)]
    if out["code"] != out["expected"] or out["expected"] != 0:
        if out["expected"] == 2:
            checks.append(("config error message", "config error" in out["stderr"], True))
        return checks
    kind, op_dir = op["kind"], out["dir"]
    if kind in ("cli_example", "cli_report"):
        if kind == "cli_example":
            scenario = f"example{op['number']}"
            rkind, params = scenario, {**DEFAULTS[scenario], "t_end": op["t_end"]}
        else:
            rkind, params = op["scenario"], op
            scenario = "custom" if rkind == "custom_const" else rkind
        m = ROW.match(out["stdout"].strip())
        checks.append(("stdout row", bool(m), True))
        if m:
            row = {"eta_ge_bar": float(m[2]), "eta_se_bar": float(m[3]), "eta_he": float(m[4])}
            report = json.loads((op_dir / f"{scenario}_report.json").read_text())
            checks += [("row scenario", m[1], scenario),
                       ("row classification", m[5], report["classification"])]
            checks += row_checks(row, report, atol=6e-7)
        checks += artifact_checks(rkind, params, op_dir, scenario)
    elif kind == "cli_table2":
        lines = out["stdout"].strip().splitlines()[1:]
        checks.append(("table2 rows", len(lines), 4))
        for line in lines[:4]:
            name, ge, se, he, label = line.split()
            checks += [("table2 scenario", name in DEFAULTS, True)]
            if name in DEFAULTS:
                checks += _golden_row_checks(
                    root, name, {"eta_ge_bar": float(ge), "eta_se_bar": float(se),
                                 "eta_he": float(he), "classification": label}, atol=6e-7)
    elif kind == "cli_sweep_alpha":
        checks += table_checks(op_dir / "sweep.csv", ref.sweep_alpha_table(
            op["theta_ab"], op["points"], op["E"]))
    elif kind == "cli_phase_profiles":
        checks += table_checks(op_dir / "profile.csv", ref.phase_profile_table(
            op["profile"], op["phi0"], op["phidot0"], op["omega0"], op["t_end"], op["points"]))
    return checks
