"""Smoke self-check of the benchmark (tiny grids and op counts, no timing bound).

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --smoke`` untraced and traced, then checks:

* every end-to-end and every per-layer metric is emitted with its unit;
* the checker fails every op whose reference values are perturbed, so no
  check passes vacuously;
* in the traced run, the layer self times of one report op add up to the
  op's span within ``trace.overhead_ms`` (plus 0.5 ms of timer slack).

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"
SEED = 1
SLACK_MS = 0.5


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_units(result: dict, metrics) -> list[str]:
    got = result["metrics"]
    problems = [f"missing {m['name']}" for m in metrics if m["name"] not in got]
    problems += [f"{m['name']} has unit {got[m['name']]['unit']!r}"
                 for m in metrics if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    return problems


def check_workload(workload: str) -> list[str]:
    problems = check_units(run(workload, 0), spec.END_TO_END)
    untraced = json.loads((OUT / f"{workload}-seed{SEED}.json").read_text())
    if untraced["still_pass_when_perturbed"]:
        problems.append(f"ops {untraced['still_pass_when_perturbed']} pass a perturbed check")
    if untraced["passed"] == 0:
        problems.append("no op passed, so the perturbation check proved nothing")

    traced_result = run(workload, 1)
    problems += check_units(traced_result, spec.PER_LAYER)
    traced = json.loads((OUT / f"{workload}-seed{SEED}-trace.json").read_text())
    if "span_check" in traced:
        span_ms, layers_ms = traced["span_check"]
        overhead = abs(traced_result["metrics"]["trace.overhead_ms"]["value"])
        if not -SLACK_MS <= span_ms - layers_ms <= overhead + SLACK_MS:
            problems.append(f"report op span {span_ms:.3f} ms, layer self times "
                            f"{layers_ms:.3f} ms, overhead {overhead:.3f} ms")
    elif workload != "closed_form_sweeps":
        problems.append("traced run recorded no report op")
    return problems


def main() -> int:
    failed = False
    for workload in (w["name"] for w in spec.WORKLOADS):
        try:
            problems = check_workload(workload)
        except (AssertionError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        if not problems:
            print(f"ok   {workload}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
