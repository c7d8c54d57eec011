"""One benchmark process: set up, run the timed ops, then check them.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src``.  The worker imports and guards blochpath, generates the
op list, warms up one op of every kind, prints ``READY`` and waits until
``run.py`` closes its standard input; ``run.py`` times set-up up to that line
and calibrates meanwhile.  With ``--phase setup`` it stops there.  Otherwise
it runs the timed pass (and, with ``--phase trace``, the same ops
again under the tracer), checks every output outside the timed region, and
prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import reference as ref
import workloads
from trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GUARD_DIR = HERE / "childguard"


def guard(path) -> None:
    """Refuse to measure a blochpath that is not this checkout's."""
    real = os.path.realpath(path)
    if not real.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"blochpath resolves to {real}, not under {SRC}")


def child_env() -> dict:
    """Environment of every child: this checkout's src, and the guard that
    checks at exit where blochpath was loaded from."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join([str(GUARD_DIR), str(SRC)])
    env["PERFBENCH_SRC"] = str(SRC)
    return env


# ------------------------------------------------------------ in-process ops


class CallCounter:
    def __init__(self):
        self.calls = 0


def user_callables(op, counter=None):
    """The scalar Python callables a library user would pass to FieldSpec."""
    if op["kind"] == "callable_rotating":
        b, w, bz, d0 = op["b"], op["w"], op["bz"], op["d0"]

        def h(t):
            return np.array([b * math.cos(w * t), b * math.sin(w * t), bz])

        def h0(t):
            return d0
    else:
        axis = np.array(op["axis"])
        c0, c1, w, ph, d0 = op["c0"], op["c1"], op["w"], op["ph"], op["d0"]

        def h(t):
            return (c0 + c1 * math.sin(w * t + ph)) * axis

        def h0(t):
            return d0 * math.cos(w * t)
    if counter is not None:
        plain = h

        def h(t):
            counter.calls += 1
            return plain(t)
    return h0, h


def prepare_inprocess(workload, op, bp, counter=None):
    """A call ``f(out_path)`` that runs one op through the public API."""
    sc, kind = bp.scenarios, op["kind"]
    if kind.startswith("callable"):
        h0, h = user_callables(op, counter)
        psi0, span = ref.state_of(op["bloch"]), (0.0, op["t_end"])

        def call(out):
            traj = bp.schrodinger_evolve(bp.FieldSpec(h0=h0, h=h, t_span=span), psi0)
            report = bp.efficiency_report(traj)
            return {"n_steps": traj.grid.n_steps, "bloch_end": traj.bloch[-1].copy(),
                    "s_total": report.s_total, "eta_ge_bar": report.eta_ge_bar,
                    "eta_se_bar": report.eta_se_bar, "eta_he": report.eta_he}
        return call
    if kind == "sweep_alpha":
        def call(out):
            table = sc.sweep_alpha(op["theta_ab"], op["points"], op["E"])
            sc.write_csv(out.with_suffix(".csv"), table)
            return {"path": out.with_suffix(".csv")}
        return call
    if kind == "phase_profiles":
        def call(out):
            table = sc.sweep_phase_profiles(op["profile"], op["phi0"], op["phidot0"],
                                            op["omega0"], t_end=op["t_end"],
                                            n_points=op["points"])
            sc.write_csv(out.with_suffix(".csv"), table)
            return {"path": out.with_suffix(".csv")}
        return call
    config = workloads.scenario_config(op)
    if workload == "driven_summary":
        config["outputs"] = ()

    def call(out):
        return {"row": sc.run_report(sc.ScenarioConfig(**config), out_dir=out), "dir": out}
    return call


def timed_pass(calls, run_dir: Path, tracer: Tracer | None = None):
    """Run every op once, in order; failed ops are timed like the rest.
    Returns op durations, outputs, and the calibration points around them."""
    run_dir.mkdir(parents=True)
    kernel = run_dir / "kernel.csv"
    gc.collect()
    durations, outputs, points = [], [], [calibrate.point(kernel)]
    for i, call in enumerate(calls):
        out = run_dir / f"op{i:04d}"
        span = tracer.op_span(i) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            try:
                result = call(out)
            except Exception as exc:  # a failed op is counted, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
        durations.append(time.perf_counter() - t0)
        outputs.append(result)
        points.append(calibrate.point(kernel))
    return durations, outputs, points


def row_dict(row) -> dict:
    return {"eta_ge_bar": row.eta_ge_bar, "eta_se_bar": row.eta_se_bar,
            "eta_he": row.eta_he, "classification": row.classification}


def verdict_inprocess(workload, op, out, perturb=0.0):
    if "error" in out:
        return checks.ERROR, out["error"], 0.0
    if "row" in out:
        out = {**out, "row": row_dict(out["row"])}
    try:
        comparisons = checks.check_inprocess(workload, op, out, ROOT)
    except (OSError, ValueError, KeyError) as exc:
        return checks.WRONG, f"output unreadable: {type(exc).__name__}: {exc}", 0.0
    return checks.judge(comparisons, perturb)


# ------------------------------------------------------------ CLI ops


MALFORMED_TEXT = {
    "not_json": lambda g: '{"scenario": "example3", "parameters": {"gamma": ',
    "gamma_not_a_number": lambda g: {"scenario": "example3", "parameters": {"gamma": "abc"}},
    "unknown_key": lambda g: {"scenario": "example3", "parameters": {"gamma": g},
                              "colour": "red"},
    "t_span_one_value": lambda g: {"scenario": "example3", "parameters": {"gamma": g},
                                   "t_span": [0]},
    "n_steps_one": lambda g: {"scenario": "example3", "parameters": {"gamma": g},
                              "n_steps": 1},
    "unknown_scenario": lambda g: {"scenario": "example9", "parameters": {"gamma": g}},
    "missing_scenario": lambda g: {"parameters": {"gamma": g}},
    "unknown_parameter": lambda g: {"scenario": "example3",
                                    "parameters": {"gamma": g, "delta": 1.0}},
    "reversed_span": lambda g: {"scenario": "example3", "parameters": {"gamma": g},
                                "t_span": [1.0, 0.0]},
    "custom_without_field": lambda g: {"scenario": "custom"},
}


def cli_argv(op, op_dir: Path) -> tuple[list[str], int]:
    """Write the op's inputs into ``op_dir``; return its argv and exit code."""
    op_dir.mkdir(parents=True)
    kind = op["kind"]
    if kind == "cli_example":
        return (["example", str(op["number"]), "--t-end", repr(op["t_end"]),
                 "--out", str(op_dir)], 0)
    if kind in ("cli_report", "cli_malformed"):
        if kind == "cli_report":
            body, code = workloads.scenario_config(op), 0
        else:
            body, code = MALFORMED_TEXT[op["malformed"]](op["gamma"]), 2
        path = op_dir / "config.json"
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        return ["report", "--config", str(path), "--out", str(op_dir)], code
    if kind == "cli_sweep_alpha":
        return (["sweep-alpha", "--theta-ab", repr(op["theta_ab"]), "--points",
                 str(op["points"]), "--energy", repr(op["E"]), "--out",
                 str(op_dir / "sweep.csv")], 0)
    if kind == "cli_phase_profiles":
        return (["phase-profiles", "--profile", op["profile"], "--phi0", repr(op["phi0"]),
                 "--phidot0", repr(op["phidot0"]), "--omega0", repr(op["omega0"]),
                 "--t-end", repr(op["t_end"]), "--points", str(op["points"]),
                 "--out", str(op_dir / "profile.csv")], 0)
    if kind == "cli_table2":
        return ["table2"], 0
    raise ValueError(kind)


def run_child(argv, op_dir: Path, env) -> dict:
    """One ``python -m blochpath`` child; returns exit code, time and peak RSS."""
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "blochpath", *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=op_dir)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": seconds, "rss_kb": usage.ru_maxrss}


def cli_pass(prepared, env, run_dir: Path):
    """Like ``timed_pass``, one child at a time, calibrated by interpreter
    start."""
    durations, outputs, points = [], [], [calibrate.child_point(env, run_dir)]
    for argv, code, op_dir in prepared:
        child = run_child(argv, op_dir, env)
        durations.append(child["seconds"])
        outputs.append({**child, "expected": code, "dir": op_dir})
        points.append(calibrate.child_point(env, run_dir))
    return durations, outputs, points


def verdict_cli(op, out, perturb=0.0):
    stdout = (out["dir"] / "stdout").read_text(errors="replace")
    stderr = (out["dir"] / "stderr").read_text(errors="replace")
    if not perturb and (out["code"] != out["expected"] or "Traceback" in stderr):
        last = stderr.strip().splitlines()[-1:] or [""]
        return (checks.ERROR, f"exit {out['code']}, want {out['expected']}: {last[0]}", 0.0)
    try:
        comparisons = checks.check_cli(op, {**out, "stdout": stdout, "stderr": stderr}, ROOT)
    except (OSError, ValueError, KeyError) as exc:
        return checks.WRONG, f"output unreadable: {type(exc).__name__}: {exc}", 0.0
    return checks.judge(comparisons, perturb)


def cli_prepare(ops, base: Path) -> list[tuple[list[str], int, Path]]:
    return [(*cli_argv(op, base / f"op{i:04d}"), base / f"op{i:04d}")
            for i, op in enumerate(ops)]


def cli_main_calls(prepared, bp):
    """Calls for ``timed_pass`` that run ``blochpath.cli.main(argv)`` in this
    process, over an argv list; the child run reports each op's failure."""
    def call(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                bp.cli.main(argv)
            except SystemExit:
                pass
        return {}
    return [lambda out, argv=argv: call(argv) for argv, _, _ in prepared]


# ------------------------------------------------------------ run


def scaled_ms(durations, points, ref_ms=calibrate.KERNEL_REF_MS) -> list[float]:
    """Op times in reference-machine milliseconds (see calibrate.py)."""
    factors = calibrate.local_factors(points, len(durations), ref_ms)
    return [1000.0 * d * f for d, f in zip(durations, factors)]


def versions() -> dict:
    scipy_spec = importlib.util.find_spec("scipy")
    scipy_version = None
    if scipy_spec is not None:
        import scipy
        scipy_version = scipy.__version__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.ROTATION)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--dir", required=True, help="empty directory for this process")
    args = parser.parse_args(argv)
    run_dir, workload = Path(args.dir), args.workload
    cli = workload == "cli_cold"
    ref_ms = calibrate.CHILD_REF_MS if cli else calibrate.KERNEL_REF_MS

    import blochpath as bp
    guard(bp.__file__)
    if cli:
        # compiles every module a `python -m blochpath` child loads
        importlib.import_module("blochpath.__main__")

    ops = (workloads.smoke_ops(workload, args.seed) if args.smoke
           else workloads.make_ops(workload, args.seed, args.seconds))
    warm = workloads.warmup_ops(workload)
    if cli:
        env = child_env()
        prepared = cli_prepare(ops, run_dir / "timed")
        # warm the page and bytecode caches that every fresh child then finds
        timed_pass(cli_main_calls(cli_prepare(warm, run_dir / "warm-cli"), bp), run_dir / "warm")
    else:
        calls = [prepare_inprocess(workload, op, bp) for op in ops]
        timed_pass([prepare_inprocess(workload, op, bp) for op in warm], run_dir / "warm")
    print("READY", flush=True)
    sys.stdin.read()  # idle while run.py takes the calibration point after set-up
    if args.phase == "setup":
        return 0

    if cli:
        durations, outputs, points = cli_pass(prepared, env, run_dir)
        peak_kb = max(o["rss_kb"] for o in outputs)
    else:
        durations, outputs, points = timed_pass(calls, run_dir / "timed")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"workload": workload, "seed": args.seed, "info": versions(),
              "raw_ms": [1000.0 * d for d in durations], "calibration_s": points,
              "durations_ms": scaled_ms(durations, points, ref_ms),
              "peak_rss_mb": peak_kb / 1024.0}

    if args.phase == "trace":
        tracer = Tracer()
        if cli:
            # the layers of a child are timed in-process, so the overhead is
            # traced minus untraced in-process cli.main over the same argv list
            untraced, _, untraced_points = timed_pass(
                cli_main_calls(cli_prepare(ops, run_dir / "inproc-untraced"), bp),
                run_dir / "untraced")
            base_ms = scaled_ms(untraced, untraced_points)
            traced_calls = cli_main_calls(cli_prepare(ops, run_dir / "inproc-traced"), bp)
        else:
            base_ms = result["durations_ms"]
            counter = CallCounter()
            traced_calls = [prepare_inprocess(workload, op, bp, counter) for op in ops]
        with tracer.installed(bp):
            traced, _, traced_points = timed_pass(traced_calls, run_dir / "traced", tracer)
        scale = calibrate.factor(statistics.median(traced_points))
        layers = tracer.layer_metrics(len(ops), scale)
        layers["evolve.user_callable_calls"] = 0 if cli else counter.calls
        layers["trace.overhead_ms"] = (statistics.median(scaled_ms(traced, traced_points))
                                       - statistics.median(base_ms))
        result["layers"] = layers
        report_op = next((s[4] for s in tracer.spans if s[0] == "scenarios.run_report"), None)
        if report_op is not None:
            result["span_check"] = [v * scale for v in tracer.op_breakdown(report_op)]
        result["spans"] = tracer.spans

    verdicts = []
    for op, out in zip(ops, outputs):
        verdicts.append(verdict_cli(op, out) if cli else verdict_inprocess(workload, op, out))
    statuses = [v[0] for v in verdicts]
    result.update(
        attempted=len(ops), passed=statuses.count(checks.PASS),
        errors=statuses.count(checks.ERROR), wrong=statuses.count(checks.WRONG),
        endpoint_err_max=max(v[2] for v in verdicts),
        failures=[{"id": op["id"], "kind": op["kind"], "status": s, "detail": d}
                  for op, (s, d, _) in zip(ops, verdicts) if s != checks.PASS],
        exit_mismatches=sum(1 for o in outputs if cli and o["code"] != o["expected"]))
    if args.smoke:
        result["still_pass_when_perturbed"] = [
            op["id"] for op, out, v in zip(ops, outputs, verdicts)
            if v[0] == checks.PASS and (
                verdict_cli(op, out, checks.PERTURB) if cli
                else verdict_inprocess(workload, op, out, checks.PERTURB))[0] == checks.PASS]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
