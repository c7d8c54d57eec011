"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.installed`` replaces the module attributes that callers look up
(``blochpath.scenarios.run_report``, ``blochpath.evolve.sample_field`` and so
on) with timing wrappers and restores them afterwards; the program's source is
not touched.  Spans (name, start, end, parent, op id, error) are kept in
memory.  Counts are taken at the same boundaries, outside the timed span.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP, ERROR = range(6)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _first_column_length(args, kwargs):
    return len(next(iter(_arg(args, kwargs, 1, "columns").values())))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = None

    def _targets(self, bp):
        sc, ev = bp.scenarios, bp.evolve
        counts = self.counts

        def add(key, value):
            counts[key] += value

        def file_size(args, kwargs):
            add("artifact_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

        def write_csv_done(args, kwargs, _):
            add("csv_rows", _first_column_length(args, kwargs))
            file_size(args, kwargs)

        targets = [
            (sc, "table_rows", "scenarios.table_rows", None, None),
            (sc, "run_report", "scenarios.run_report", None, None),
            (sc, "sweep_alpha", "scenarios.sweep_alpha",
             lambda a, k: add("sweep_points", int(_arg(a, k, 1, "n_points"))), None),
            (sc, "sweep_phase_profiles", "scenarios.sweep_phase_profiles", None, None),
            (sc, "write_csv", "scenarios.write_csv", None, write_csv_done),
            (sc, "write_json", "scenarios.write_json", None,
             lambda a, k, _: file_size(a, k)),
            (sc, "schrodinger_evolve", "evolve.schrodinger_evolve", None,
             lambda a, k, traj: add("steps", traj.grid.n_steps)),
            (bp, "schrodinger_evolve", "evolve.schrodinger_evolve", None,
             lambda a, k, traj: add("steps", traj.grid.n_steps)),
            (ev, "sample_field", "evolve.sample_field",
             lambda a, k: add("field_samples", len(_arg(a, k, 1, "times"))), None),
            (sc, "efficiency_report", "efficiency.efficiency_report", None, None),
            (bp, "efficiency_report", "efficiency.efficiency_report", None, None),
            (sc, "curvature_bloch_profile", "curvature.bloch_profile",
             lambda a, k: add("curvature_nodes", _arg(a, k, 0, "traj").n_nodes), None),
        ]
        cli = sys.modules.get("blochpath.cli")  # loaded only by the CLI workload
        if cli is not None:
            targets.append((cli, "main", "cli.main", None, None))
        return targets

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, bp):
        saved = []
        try:
            for module, attr, name, before, after in self._targets(bp):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, before, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def op_span(self, op_id, name="op"):
        """Root span of one op; spans recorded inside carry its id."""
        self.op = op_id
        span = [name, time.perf_counter(), 0.0, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, n_ops: int, scale: float = 1.0) -> dict:
        """Per-layer metrics: times are self times per op of the run, in ms,
        multiplied by ``scale`` (the machine-speed calibration)."""
        total, own, errors, calls = defaultdict(float), defaultdict(float), Counter(), Counter()
        for s, own_s in zip(self.spans, self.self_times()):
            total[s[NAME]] += s[END] - s[START]
            own[s[NAME]] += own_s
            calls[s[NAME]] += 1
            errors[s[NAME]] += s[ERROR] is not None
        c = self.counts

        def per_op(seconds):
            return 1000.0 * scale * seconds / n_ops

        def rate(count, seconds):
            return count / (scale * seconds) if seconds > 0 else 0.0

        evolved = calls["evolve.schrodinger_evolve"] - errors["evolve.schrodinger_evolve"]
        rejected = errors["efficiency.efficiency_report"]
        return {
            "cli.main_ms": per_op(total["cli.main"]),
            "scenarios.run_report_self_ms": per_op(own["scenarios.run_report"]
                                                   + own["scenarios.table_rows"]),
            "scenarios.write_csv_ms": per_op(total["scenarios.write_csv"]),
            "scenarios.csv_rows": c["csv_rows"],
            "scenarios.artifact_bytes": c["artifact_bytes"],
            "scenarios.write_json_ms": per_op(total["scenarios.write_json"]),
            "scenarios.sweep_alpha_ms": per_op(total["scenarios.sweep_alpha"]),
            "scenarios.sweep_points_per_s": rate(c["sweep_points"],
                                                 total["scenarios.sweep_alpha"]),
            "scenarios.sweep_phase_profiles_ms": per_op(total["scenarios.sweep_phase_profiles"]),
            "evolve.sample_field_ms": per_op(total["evolve.sample_field"]),
            "evolve.field_samples": c["field_samples"],
            "evolve.propagate_self_ms": per_op(own["evolve.schrodinger_evolve"]),
            "evolve.steps": c["steps"],
            "evolve.steps_per_s": rate(c["steps"], own["evolve.schrodinger_evolve"]),
            "efficiency.report_ms": per_op(own["efficiency.efficiency_report"]),
            "efficiency.rejected_ops": rejected,
            "efficiency.useful_ratio": (evolved - rejected) / evolved if evolved else 0.0,
            "curvature.bloch_profile_ms": per_op(total["curvature.bloch_profile"]),
            "curvature.nodes": c["curvature_nodes"],
            "curvature.nodes_per_s": rate(c["curvature_nodes"], total["curvature.bloch_profile"]),
        }

    def op_breakdown(self, op_id) -> tuple[float, float]:
        """``(root span, sum of the layer self times inside it)`` in ms."""
        own = self.self_times()
        root, layers = 0.0, 0.0
        for s, own_s in zip(self.spans, own):
            if s[OP] != op_id:
                continue
            if s[PARENT] is None:
                root = s[END] - s[START]
            else:
                layers += own_s
        return 1000.0 * root, 1000.0 * layers
