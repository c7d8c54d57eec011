"""Benchmark of blochpath: seeded workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>   # every workload, then BENCHMARK.json
    python3 perfbench/selfcheck.py                       # smoke self-check

Run from the root of a checkout.  Each metric is printed as
``<workload>/<metric> <value> <unit>``; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``correct`` is false when any op returned output that
disagrees with its reference; ops that raise or exit with the wrong code
count in ``failed``.  Workers, children and artifacts live under
``.bench_out/`` in the checkout; a run removes its artifacts when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 3
#: fresh interpreters per import probe; import.* metrics are medians
IMPORT_SAMPLES = 3
#: a run that takes longer than this is abandoned without a result
RUN_TIMEOUT_S = 170

UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}


class BenchError(RuntimeError):
    pass


def child_cal(env) -> float:
    """A steadier ``calibrate.child_point`` for one-off scaling: the median
    of three."""
    return statistics.median(calibrate.child_point(env, ROOT) for _ in range(3))


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Worker:
    """A ``worker.py`` process; ``ready()`` returns its set-up time.

    Set-up is a fresh interpreter importing blochpath, so it is scaled like a
    child op, by ``child_cal`` taken just before the worker starts
    and just after it is ready.  The worker waits on its standard input
    meanwhile, so nothing else runs on the pinned CPU."""

    def __init__(self, args, workload: str, phase: str, run_dir: Path):
        run_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--phase", phase, "--dir", str(run_dir)]
        if args.smoke:
            cmd.append("--smoke")
        self.env = worker_env()
        self.before = child_cal(self.env)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.PIPE,
                                     env=self.env, cwd=ROOT, text=True,
                                     start_new_session=True)

    def ready(self) -> float:
        """Set-up time in reference-machine seconds (see calibrate.py)."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                seconds = time.perf_counter() - self.start
                after = child_cal(self.env)
                self.proc.stdin.close()  # lets the worker go on
                return seconds * calibrate.factor(0.5 * (self.before + after),
                                                  calibrate.CHILD_REF_MS)
        raise BenchError(f"worker exited during set-up (code {self.proc.wait()})")

    def result(self) -> dict:
        out = self.proc.stdout.read()
        self.proc.wait(timeout=RUN_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        for line in reversed(out.splitlines()):
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise BenchError("worker printed no result")

    def stop(self) -> None:
        """Kill the worker and any child it runs, then reap the worker."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def tail(durations_ms) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and which it is."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(result: dict, setup_s: float) -> dict:
    durations = result["durations_ms"]
    value, pct = tail(durations)
    result["tail_percentile"] = pct
    return {"op_ms_p50": statistics.median(durations),
            "op_ms_tail": value,
            "ops_per_s": result["passed"] / (1e-3 * sum(durations)),
            "success_ratio": result["passed"] / result["attempted"],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"]}


# ------------------------------------------------------------ import probes


def _child_scale(env, before: float) -> float:
    """Scale of a child that ran after the calibration point ``before``."""
    return calibrate.factor(0.5 * (before + child_cal(env)),
                            calibrate.CHILD_REF_MS)


def _wall(argv, env) -> float:
    """Wall time of one child, in reference-machine seconds."""
    before = child_cal(env)
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    return seconds * _child_scale(env, before)


def _package_ms(importtime: str, package: str, field: int) -> float:
    """Sum an ``-X importtime`` column over ``package`` and its submodules,
    counting nested entries once: field 1 is self time, field 2 cumulative."""
    entries = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            entries.append((len(m[3]) // 2, m[4], int(m[field])))
    total, stack = 0, []
    for level, name, micros in reversed(entries):  # parents come first
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = any(n == package or n.startswith(package + ".") for _, n in stack)
        mine = name == package or name.startswith(package + ".")
        if mine and (field == 1 or not inside):
            total += micros
        stack.append((level, name))
    return total / 1000.0


def import_probes() -> dict:
    """Import costs from fresh interpreters with warm caches, scaled by
    interpreter start like every child op."""
    import worker
    env = worker.child_env()
    exe = sys.executable
    interp, wall, numpy_ms, scipy_ms, self_ms = [], [], [], [], []
    for _ in range(IMPORT_SAMPLES):
        interp.append(_wall([exe, "-c", "pass"], env))
        wall.append(_wall([exe, "-c", "import blochpath"], env))
        before = child_cal(env)
        proc = subprocess.run([exe, "-X", "importtime", "-c", "import blochpath"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        scale = _child_scale(env, before)
        numpy_ms.append(scale * _package_ms(proc.stderr, "numpy", 2))
        scipy_ms.append(scale * _package_ms(proc.stderr, "scipy", 2))
        self_ms.append(scale * _package_ms(proc.stderr, "blochpath", 1))
    return {"import.interp_ms": 1000.0 * statistics.median(interp),
            "import.numpy_ms": statistics.median(numpy_ms),
            "import.scipy_ms": statistics.median(scipy_ms),
            "import.blochpath_self_ms": statistics.median(self_ms),
            "import.blochpath_ms": 1000.0 * statistics.median(wall)}


# ------------------------------------------------------------ one workload


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_workload(args, workload: str, trace: bool) -> tuple[dict, dict]:
    """``(metrics, worker result)`` of one run."""
    run_dir = OUT / f"run-{workload}-{args.seed}-{os.getpid()}"
    workers = []
    run_dir.mkdir(parents=True)
    try:
        if trace:
            probes = import_probes()
            workers.append(Worker(args, workload, "trace", run_dir / "main"))
            workers[-1].ready()
            result = workers[-1].result()
            values = {**probes, **result["layers"],
                      "cli.exit_mismatches": result["exit_mismatches"],
                      "evolve.endpoint_err_max": result["endpoint_err_max"]}
            metrics = {m["name"]: values[m["name"]] for m in spec.PER_LAYER}
        else:
            setups = []
            for i in range(SETUP_SAMPLES):
                last = i == SETUP_SAMPLES - 1
                workers.append(Worker(args, workload, "run" if last else "setup",
                                      run_dir / ("main" if last else f"setup{i}")))
                setups.append(workers[-1].ready())
                if not last:
                    workers[-1].proc.wait()
            result = workers[-1].result()
            result["setup_samples_s"] = setups
            metrics = end_to_end(result, statistics.median(setups))
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    result["git_sha"] = git_sha()
    name = f"{workload}-seed{args.seed}{'-trace' if trace else ''}.json"
    (OUT / name).write_text(json.dumps(result))
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny op of every kind (used by selfcheck.py)")
    args = parser.parse_args(argv)

    if not (SRC / "blochpath" / "__init__.py").is_file():
        print(f"run.py: no blochpath source under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its workers and removes its artifacts
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and every process it starts, so calibration
    # points and ops run on the same CPU (see calibrate.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = ([w["name"] for w in spec.WORKLOADS] if args.workload == "all"
             else [args.workload])
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            metrics, result = run_workload(args, workload, bool(args.trace))
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            print(f"run.py: {workload}: {exc}", file=sys.stderr)
            return 1
        print(f"{workload}: info " + json.dumps({**result["info"], "git_sha": result["git_sha"]}))
        if not args.trace:
            print(f"{workload}: op_ms_tail is p{result['tail_percentile']:.1f} "
                  f"of {result['attempted']} ops")
        for failure in result["failures"]:
            print(f"{workload}: op {failure['id']} ({failure['kind']}) "
                  f"{failure['status']}: {failure['detail']}")
        for name, value in metrics.items():
            print(f"{workload}/{name} {value:.6g} {UNITS[name]}")
        key = (lambda n: f"{workload}/{n}") if len(names) > 1 else (lambda n: n)
        summary["metrics"].update({key(n): {"value": v, "unit": UNITS[n]}
                                   for n, v in metrics.items()})
        summary["correct"] &= result["wrong"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["errors"] + result["wrong"]
    if args.workload == "all":
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
