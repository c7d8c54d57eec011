"""Seeded, fixed operation lists for the four workloads.

An op is a JSON-able dict with ``id``, ``kind`` and the kind's inputs.  The
list depends only on the workload, the seed and ``--seconds``: the op count
is ``max(MIN_OPS, round(seconds * RATE))`` with the nominal rates below, so
every run of a seed executes the same ops in the same order and every count
repeats exactly.  Kinds follow a fixed rotation.  Each kind's op sizes (time
span, sweep points) are the midpoints of equal strata of a continuous range
in seeded order, so every seed has the same spread of sizes; its other
inputs (field parameters, directions, states) are stratified random draws.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spec import MIN_OPS
import reference as ref

#: nominal ops per second of ``--seconds`` at the seed commit
RATE = {"const_artifacts": 7.0, "driven_summary": 12.0,
        "closed_form_sweeps": 4.0, "cli_cold": 0.7}

ROTATION = {
    "const_artifacts": ("example1", "example3", "suboptimal_family", "custom_const"),
    "driven_summary": ("example2", "tabulated", "callable_axis", "example4",
                       "callable_geodesic", "callable_rotating"),
    "closed_form_sweeps": ("sweep_alpha", "phase_profiles"),
    "cli_cold": ("cli_example", "cli_report", "cli_sweep_alpha", "cli_malformed",
                 "cli_phase_profiles", "cli_table2", "cli_malformed"),
}

#: every tenth in-process report op runs a built-in scenario with default
#: parameters, checked against the repo's golden report
GOLDEN = {"const_artifacts": ("example1", "example3"),
          "driven_summary": ("example2", "example4")}

#: malformed configs in the order they are used (documented exit code 2)
MALFORMED = ("not_json", "gamma_not_a_number", "unknown_key", "t_span_one_value",
             "n_steps_one", "unknown_scenario", "missing_scenario",
             "unknown_parameter", "reversed_span", "custom_without_field")

PROFILES = ("log", "linear", "exp")

#: time span of the constant-field report ops (2000 steps per unit time)
SPAN = (0.35, 1.05)


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds * RATE[workload]))


class _Draw:
    """Stratified draws: ``m`` values of a parameter cover ``m`` equal
    strata of its range once each, in seeded order."""

    def __init__(self, rng, m: int):
        self.rng, self.m = rng, m

    def uniform(self, lo, hi) -> np.ndarray:
        u = (self.rng.permutation(self.m) + self.rng.random(self.m)) / self.m
        return lo + (hi - lo) * u

    def ladder(self, lo, hi) -> np.ndarray:
        """Op sizes: the midpoints of the ``m`` strata, in seeded order, so
        that every seed has the same spread of sizes."""
        return lo + (hi - lo) * (self.rng.permutation(self.m) + 0.5) / self.m

    def direction(self) -> np.ndarray:
        z = self.uniform(-1.0, 1.0)
        phi = self.uniform(0.0, 2.0 * math.pi)
        r = np.sqrt(1.0 - z * z)
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _example1(d, scale):
    return [{"omega0": w, "varphi0": v, "theta0": th, "t_end": t} for w, v, th, t in zip(
        d.uniform(0.5, 2.5), d.uniform(0, 2 * math.pi), d.uniform(0, math.pi),
        d.ladder(*SPAN) * scale)]


def _example3(d, scale):
    return [{"gamma": g, "t_end": t} for g, t in zip(d.uniform(0.5, 3.0),
                                                    d.ladder(*SPAN) * scale)]


def _suboptimal(d, scale):
    out = []
    for a, th, t in zip(d.uniform(0.15, math.pi - 0.15), d.uniform(0.3, 2.8),
                        d.ladder(*SPAN) * scale):
        # E is chosen so that the family's travel time t_ab is the drawn span
        phi = 2.0 * ref.suboptimal(a, th, 1.0)["t_ab"]
        out.append({"alpha": a, "theta_ab": th, "E": phi / (2.0 * t)})
    return out


def _custom_const(d, scale):
    return [{"h": (n * m).tolist(), "h0": h0, "bloch": a.tolist(), "t_end": t}
            for n, m, h0, a, t in zip(d.direction(), d.uniform(0.5, 3.0), d.uniform(-1, 1),
                                      d.direction(), d.ladder(*SPAN) * scale)]


def _example2(d, scale):
    return [{"omega0": w, "nu0": nu, "t_end": t} for w, nu, t in zip(
        d.uniform(0.5, 2.0), d.uniform(0.05, 0.5), d.ladder(0.15, 0.6) * scale)]


def _example4(d, scale):
    return [{"gamma": g, "t_end": t} for g, t in zip(d.uniform(0.5, 3.0),
                                                    d.ladder(0.15, 0.65) * scale)]


def _axis_drive(d, scale, geodesic=False, t_range=(0.75, 3.0)):
    """Fixed axis, magnitude ``c0 + c1 sin(w t + ph)``, trace ``d0 cos(w t)``."""
    out = []
    for n, a, c0, ratio, w, ph, d0, t in zip(
            d.direction(), d.direction(), d.uniform(0.5, 2.0), d.uniform(0.1, 0.9),
            d.uniform(1.0, 6.0), d.uniform(0, 2 * math.pi), d.uniform(-0.5, 0.5),
            d.ladder(*t_range) * scale):
        if geodesic:
            a = ref.unit(a - (a @ n) * n)
        out.append({"axis": n.tolist(), "bloch": a.tolist(), "c0": c0, "c1": ratio * c0,
                    "w": w, "ph": ph, "d0": d0, "t_end": t})
    return out


def _tabulated(d, scale):
    ops = _axis_drive(d, scale, t_range=(0.5, 2.0))
    for op, knots in zip(ops, d.uniform(20, 61)):
        op["knots"] = int(knots)
    return ops


def _rotating(d, scale):
    return [{"b": b, "bz": bz, "w": w, "d0": d0, "bloch": a.tolist(), "t_end": t}
            for b, bz, w, d0, a, t in zip(
                d.uniform(0.5, 2.0), d.uniform(-1.0, 1.0), d.uniform(1.0, 6.0),
                d.uniform(-0.5, 0.5), d.direction(), d.ladder(0.75, 3.0) * scale)]


def _sweep_alpha(d, scale):
    return [{"theta_ab": th, "E": e, "points": int(p)} for th, e, p in zip(
        d.uniform(0.2, 2.9), d.uniform(0.5, 2.0), d.ladder(6000, 12000) * scale)]


def _phase_profiles(d, scale):
    return [{"profile": PROFILES[i % 3], "phi0": p0, "phidot0": pd, "omega0": w,
             "t_end": t, "points": int(n)} for i, (p0, pd, w, t, n) in enumerate(zip(
                 d.uniform(0.2, 2.0), d.uniform(0.1, 1.0), d.uniform(0.5, 2.0),
                 d.uniform(1.0, 5.0), d.ladder(30000, 60000) * scale))]


def _cli_example(d, scale):
    return [{"number": i % 4 + 1, "t_end": t} for i, t in enumerate(d.ladder(0.5, 1.5) * scale)]


_REPORT_SCENARIOS = ("example3", "suboptimal_family", "custom_const", "example1")


def _cli_report(d, scale):
    pools = {"example3": _example3(d, scale), "suboptimal_family": _suboptimal(d, scale),
             "custom_const": _custom_const(d, scale), "example1": _example1(d, scale)}
    return [{"scenario": _REPORT_SCENARIOS[i % 4], **pools[_REPORT_SCENARIOS[i % 4]][i]}
            for i in range(d.m)]


def _cli_sweep_alpha(d, scale):
    return [{"theta_ab": th, "E": e, "points": int(p)} for th, e, p in zip(
        d.uniform(0.2, 2.9), d.uniform(0.5, 2.0), d.ladder(2000, 10000) * scale)]


def _cli_phase_profiles(d, scale):
    ops = _phase_profiles(d, scale)
    for op, n in zip(ops, d.ladder(501, 10000) * scale):
        op["points"] = int(n)
    return ops


def _cli_malformed(d, scale):
    return [{"malformed": MALFORMED[i % len(MALFORMED)], "gamma": g}
            for i, g in enumerate(d.uniform(0.5, 3.0))]


def _cli_table2(d, scale):
    return [{} for _ in range(d.m)]


_DRAW = {
    "example1": _example1, "example3": _example3, "suboptimal_family": _suboptimal,
    "custom_const": _custom_const, "example2": _example2, "example4": _example4,
    "tabulated": _tabulated, "callable_axis": _axis_drive,
    "callable_geodesic": lambda d, s: _axis_drive(d, s, geodesic=True),
    "callable_rotating": _rotating, "sweep_alpha": _sweep_alpha,
    "phase_profiles": _phase_profiles, "cli_example": _cli_example,
    "cli_report": _cli_report, "cli_sweep_alpha": _cli_sweep_alpha,
    "cli_phase_profiles": _cli_phase_profiles, "cli_malformed": _cli_malformed,
    "cli_table2": _cli_table2,
}


def _build(workload, kinds, seed, scale):
    """``kinds[i]`` is the kind of op ``i``; inputs are drawn per kind."""
    rng = np.random.default_rng([seed, list(ROTATION).index(workload)])
    pools = {}
    for kind in dict.fromkeys(k for k in kinds if k != "golden"):
        pools[kind] = iter(_DRAW[kind](_Draw(rng, kinds.count(kind)), scale))
    ops, n_golden = [], 0
    for i, kind in enumerate(kinds):
        if kind == "golden":
            op = {"kind": "golden", "scenario": GOLDEN[workload][n_golden % 2]}
            n_golden += 1
        else:
            op = {"kind": kind, **next(pools[kind])}
        ops.append({"id": i, **op})
    return json.loads(json.dumps(ops))  # plain Python floats, as a config file holds


def _kinds(workload, n):
    rotation = ROTATION[workload]
    kinds = [rotation[i % len(rotation)] for i in range(n)]
    if workload in GOLDEN:
        kinds = ["golden" if i % 10 == 9 else k for i, k in enumerate(kinds)]
    return kinds


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The timed op list of one run."""
    return _build(workload, _kinds(workload, op_count(workload, seconds)), seed, 1.0)


def smoke_ops(workload: str, seed: int) -> list[dict]:
    """One small op of every kind, plus one golden op: the self-check's list."""
    kinds = list(dict.fromkeys(ROTATION[workload]))
    if workload in GOLDEN:
        kinds.append("golden")
    return _build(workload, kinds, seed, 0.05)


def warmup_ops(workload: str) -> list[dict]:
    """One small op of every kind, run before timing and discarded."""
    kinds = list(dict.fromkeys(ROTATION[workload]))
    return _build(workload, kinds, 0, 0.05)


def axis_table(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots, field magnitudes and trace values of a tabulated op."""
    knots = np.linspace(0.0, op["t_end"], op["knots"])
    return (knots, op["c0"] + op["c1"] * np.sin(op["w"] * knots + op["ph"]),
            op["d0"] * np.cos(op["w"] * knots))


def scenario_config(op) -> dict:
    """The ``ScenarioConfig`` fields of a report op, as a JSON config."""
    kind = op["scenario"] if op["kind"] in ("golden", "cli_report") else op["kind"]
    if op["kind"] == "golden":
        return {"scenario": kind}
    span = [0.0, op.get("t_end", 1.0)]
    if kind == "custom_const":
        return {"scenario": "custom", "field": {"h": op["h"], "h0": op["h0"]},
                "psi0": {"bloch": op["bloch"]}, "t_span": span}
    if kind == "tabulated":
        knots, mag, trace = axis_table(op)
        return {"scenario": "custom", "psi0": {"bloch": op["bloch"]}, "t_span": span,
                "field": {"times": knots.tolist(), "h": np.outer(mag, op["axis"]).tolist(),
                          "h0": trace.tolist()}}
    names = {"example1": ("omega0", "varphi0", "theta0"), "example2": ("omega0", "nu0"),
             "example3": ("gamma",), "example4": ("gamma",),
             "suboptimal_family": ("alpha", "theta_ab", "E")}[kind]
    return {"scenario": kind, "parameters": {n: op[n] for n in names}, "t_span": span}
