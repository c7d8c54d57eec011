"""Paired benchmark runs of two revisions, written as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --base REV --head REV --workload W --seed S \\
        --pairs N --label L [--scratch DIR]

Run from the root of the repository.  Each revision is exported with ``git
archive`` into its own checkout, ``<scratch>/base`` and ``<scratch>/head``:
two names of one length, so the paths are of equal length, since the length
of a source path moves the timings.  Both checkouts have their bytecode
compiled first.  Each pair then runs the checkout's own, unchanged
``perfbench/run.py --workload W --seed S --trace 0`` once on each side, back
to back: base first in even pairs, head first in odd ones.  The run length is
the checkout's own ``perfbench/spec.RUN_SECONDS``, ``run.py``'s default.

The file keeps every run: its end-to-end metrics, its outcome, and the median
raw op time of each op kind (``raw_ms_median_by_kind``, from
``.bench_out/<W>-seed<S>.json`` and ``perfbench/workloads.make_ops``).  Its
``summary`` has, per workload and seed and per end-to-end metric of
``BENCHMARK.json``, both sides' medians, the base's inclusive quartiles, the
relative change, how many pairs the head won and whether the change is
within the metric's bound.  Running the tool again with the same label and
revisions adds runs to the file and recomputes the summary; the other keys
are kept, and ``what``, ``notes`` and ``in_process`` are written by hand.
Base and head are called ``parent`` and ``change`` in the file.  A failed run
stops the tool before it writes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

KINDS = ("import json, sys; sys.path.insert(0, 'perfbench'); import spec, workloads; "
         "print(json.dumps([op['kind'] for op in workloads.make_ops(sys.argv[1], "
         "int(sys.argv[2]), spec.RUN_SECONDS)]))")


def checkout(rev: str, path: Path) -> str:
    """Export ``rev`` into the empty directory ``path``; its full commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    path.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=path, check=True)
    return sha


def run_once(root: Path, workload: str, seed: int, kinds: list) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its result line and op medians by kind."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"returncode": proc.returncode, "correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "wall_s": round(wall, 1), "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    raw = json.loads((root / ".bench_out" / f"{workload}-seed{seed}.json").read_text())["raw_ms"]
    by_kind = {}
    for kind, ms in zip(kinds, raw):
        by_kind.setdefault(kind, []).append(ms)
    return {"returncode": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw_ms_median_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
            "wall_s": round(wall, 1)}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per ``"<workload> seed <s>"``: each metric's medians, quartiles and verdict."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r for r in mine}
        entry = {"pairs": len(pairs)}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            base = [side[p, "parent"]["metrics"][name] for p in pairs]
            head = [side[p, "change"]["metrics"][name] for p in pairs]
            b_med, h_med = statistics.median(base), statistics.median(head)
            q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                         if len(base) > 1 else (b_med, b_med, b_med))
            rel = (h_med - b_med) / b_med if b_med else 0.0
            won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
            entry[name] = {"parent_median": b_med, "change_median": h_med,
                           "parent_q1": q1, "parent_q3": q3, "change_vs_parent": rel,
                           "better": m["better"], "change_won": f"{won} of {len(pairs)}",
                           "bound": m["bound"],
                           "within_bound": (rel if lower else -rel) <= m["bound"]}
        entry["correct_every_run"] = all(r["correct"] for r in mine)
        entry["failed_ops"] = {s: sorted({r["failed"] for r in mine if r["side"] == s})
                               for s in ("parent", "change")}
        summary[f"{key[0]} seed {key[1]}"] = entry
    return summary


def machine() -> str:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return (f"{os.cpu_count()}-CPU {platform.machine()} ({model}), Python "
            f"{platform.python_version()}, numpy {numpy}; perfbench pins itself and its "
            "children to one CPU")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="revision timed as the parent")
    parser.add_argument("--head", required=True, help="revision timed as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--scratch", help="empty directory for the two checkouts "
                        "(default: a new temporary directory)")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench_pairs_")).resolve()
    try:
        return _pairs(parser, args, scratch)
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)


def _pairs(parser, args, scratch: Path) -> int:
    roots = {"parent": scratch / "base", "change": scratch / "head"}  # equal lengths
    if any(p.exists() for p in roots.values()):
        parser.error(f"{scratch} already holds a base or head checkout")
    shas = {side: checkout(rev, roots[side])
            for side, rev in (("parent", args.base), ("change", args.head))}
    end_to_end = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    kinds = {side: json.loads(subprocess.run(
        [sys.executable, "-c", KINDS, args.workload, str(args.seed)],
        cwd=root, check=True, capture_output=True, text=True).stdout)
        for side, root in roots.items()}

    out = Path(f"BENCH_{args.label}.json")
    bench = json.loads(out.read_text()) if out.exists() else {
        "what": "", "machine": machine(),
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0",
        "method": "parent and change are git-archive checkouts of the two revisions at "
                  "paths of equal length, bytecode compiled first; each pair runs both "
                  "sides back to back, parent first in even pairs and change first in odd "
                  "pairs; metrics are the end-to-end values run.py prints; quartiles are "
                  "inclusive; made by tools/bench_pairs.py",
        "revisions": shas,
        "claim": {"metric": "none", "met": None,
                  "no_regression": "every end-to-end metric on every workload within its "
                                   "BENCHMARK.json bound; see summary.*.*.within_bound"},
        "summary": {}, "runs": []}
    if bench.get("revisions", shas) != shas:
        parser.error(f"{out} compares {bench['revisions']}, not {shas}")

    runs = bench["runs"]
    start = 1 + max((r["pair"] for r in runs
                     if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=-1)
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(roots[side], args.workload, args.seed, kinds[side])
            runs.append({"workload": args.workload, "seed": args.seed, "pair": pair,
                         "side": side, "first": order[0], **run})
            print(f"{args.workload} seed {args.seed} pair {pair} {side}: "
                  f"{json.dumps(run['metrics'])}", flush=True)
            if run["returncode"]:
                print(run["stderr"], file=sys.stderr)
                return 1
    bench["summary"] = summarize(runs, end_to_end)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
