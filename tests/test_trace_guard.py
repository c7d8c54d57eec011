"""The benchmark tracer still finds and times every layer it wraps.

``perfbench/trace.py`` replaces module attributes of blochpath (the names
``run_report``, ``schrodinger_evolve``, ``sample_field``,
``curvature_bloch_profile``, ``write_csv`` and so on) with timing wrappers.
A refactor that renames one of them, or stops calling it through that
name, would silently empty a per-layer metric; this test catches it.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import blochpath
from blochpath import scenarios

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def load_trace_module():
    # loaded from its path: the module's name, ``trace``, is also a stdlib one
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_record_error_free_spans(tmp_path):
    trace = load_trace_module()
    tracer = trace.Tracer()
    with tracer.installed(blochpath):
        scenarios.run_report(
            scenarios.ScenarioConfig(scenario="example3", n_steps=20),
            out_dir=tmp_path)
        scenarios.write_csv(tmp_path / "sweep.csv",
                            scenarios.sweep_alpha(1.2, 9))
    errors = {}
    for span in tracer.spans:
        errors.setdefault(span[trace.NAME], []).append(span[trace.ERROR])
    for name in ("curvature.bloch_profile", "evolve.sample_field",
                 "efficiency.efficiency_report", "scenarios.write_csv"):
        assert errors.get(name), f"no {name} span recorded"
        assert errors[name] == [None] * len(errors[name]), name


def test_batched_fields_sample_once_per_evolve(tmp_path):
    # example2 is a prescribed-path drive, the custom one a table; both are
    # sampled in one batch per evolve, and curvature takes dh/dt from those
    # samples, with no field call of its own
    trace = load_trace_module()
    tracer = trace.Tracer()
    n_steps = 20
    configs = [
        scenarios.ScenarioConfig(scenario="example2", n_steps=n_steps),
        scenarios.ScenarioConfig(scenario="custom", n_steps=n_steps, field={
            "times": [0.0, 0.4, 1.0], "h0": [0.1, -0.3, 0.2],
            "h": [[1.0, 0.0, 0.2], [0.4, 0.6, 0.0], [0.1, 0.2, 0.9]]},
            psi0={"bloch": [0.0, 0.6, 0.8]}),
    ]
    with tracer.installed(blochpath):
        for config in configs:
            scenarios.run_report(config, out_dir=tmp_path)
    names = [span[trace.NAME] for span in tracer.spans]
    samples = [span for span in tracer.spans
               if span[trace.NAME] == "evolve.sample_field"]
    assert [span[trace.ERROR] for span in samples] == [None, None]
    assert names.count("evolve.schrodinger_evolve") == 2
    assert names.count("curvature.bloch_profile") == 2
    assert tracer.counts["field_samples"] == 2 * (2 * n_steps + 1)
    for span in samples:
        assert tracer.spans[span[trace.PARENT]][trace.NAME] \
            == "evolve.schrodinger_evolve"


def test_scalar_callable_field_is_sampled_in_one_traced_span():
    # the benchmark's callable ops: a FieldSpec of scalar Python callables
    # run through the package-level schrodinger_evolve and efficiency_report
    trace = load_trace_module()
    tracer = trace.Tracer()
    n_steps = 30
    calls = []

    def h(t):
        calls.append(t)
        return np.array([1.0 + 0.2 * math.sin(3.0 * t), 0.0, 0.4])

    field = blochpath.FieldSpec(h0=lambda t: 0.1 * math.cos(t), h=h, t_span=(0.0, 0.6))
    with tracer.installed(blochpath):
        traj = blochpath.schrodinger_evolve(field, np.array([1.0, 0.0], dtype=complex),
                                            blochpath.TimeGrid(0.0, 0.6, n_steps))
        blochpath.efficiency_report(traj)
    samples = [span for span in tracer.spans
               if span[trace.NAME] == "evolve.sample_field"]
    assert [span[trace.ERROR] for span in samples] == [None]
    assert tracer.spans[samples[0][trace.PARENT]][trace.NAME] \
        == "evolve.schrodinger_evolve"
    assert tracer.counts["field_samples"] == 2 * n_steps + 1 == len(calls)
