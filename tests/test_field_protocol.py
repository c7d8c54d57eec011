"""The field-sampling protocol: call contract, batched checks, pinned bytes.

``FieldSpec.sample`` evaluates a whole time array.  Scalar user callables
are still called once per sample, in time order, with a numpy float64;
tabulated and prescribed-path fields are evaluated in batches and must give
the same bits, and the same typed errors, as one sample at a time.
"""

from pathlib import Path

import numpy as np
import pytest

from blochpath import (
    FieldError,
    FieldSpec,
    NormalizationError,
    PreconditionError,
    ScenarioConfig,
    ShapeError,
    TimeGrid,
    UzdinFamily,
    build_scenario,
    curvature_bloch_profile,
    run_report,
    sample_field,
    schrodinger_evolve,
    uzdin_optimal,
    uzdin_suboptimal,
)
from blochpath.scenarios import write_csv

GOLDEN = Path(__file__).parent / "golden"
PSI0 = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
#: eleven samples; every failing case below first fails at TIMES[6] = 0.6
TIMES = np.linspace(0.0, 1.0, 11)


def names_first_failure(exc_info):
    assert f"t = {TIMES[6]!r}" in str(exc_info.value) \
        or f"m({TIMES[6]!r})" in str(exc_info.value)


class Recorder:
    """Scalar callable that records every argument it receives."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, t):
        self.args.append(t)
        return self.fn(t)


def great_circle(t):
    return np.array([np.cos(t), np.sin(t)], dtype=complex)


def great_circle_dot(t):
    return np.array([-np.sin(t), np.cos(t)], dtype=complex)


class TestCallableContract:
    def recorders(self):
        return (Recorder(lambda t: 0.3 * np.cos(2.0 * t)),
                Recorder(lambda t: np.array([1.0 + 0.2 * np.sin(3.0 * t),
                                             0.4, -0.1])))

    def test_evolve_calls_each_callable_once_per_sample(self):
        h0, h = self.recorders()
        grid = TimeGrid(0.2, 1.1, 25)
        schrodinger_evolve(FieldSpec(h0=h0, h=h, t_span=(0.2, 1.1)), PSI0, grid)
        for rec in (h0, h):
            assert len(rec.args) == 2 * grid.n_steps + 1
            assert all(type(t) is np.float64 for t in rec.args)
            assert np.array_equal(rec.args, grid.half_times)
            assert np.all(np.diff(rec.args) > 0.0)

    def test_curvature_central_difference_adds_two_h_calls_per_node(self):
        h0, h = self.recorders()
        field = FieldSpec(h0=h0, h=h, t_span=(0.2, 1.1))
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.2, 1.1, 25))
        n0, n = len(h0.args), len(h.args)
        curvature_bloch_profile(traj, field)
        assert len(h0.args) == n0
        assert len(h.args) == n + 2 * traj.n_nodes
        extra = h.args[n:]
        assert all(type(t) is np.float64 for t in extra)
        assert np.array_equal(extra[0::2], traj.times + traj.grid.dt)
        assert np.array_equal(extra[1::2], traj.times - traj.grid.dt)

    def test_constant_fields_broadcast(self):
        h0, h = sample_field(FieldSpec(h0=0.25, h=[0.0, 0.5, 0.0]), TIMES)
        assert np.array_equal(h0, np.full(11, 0.25))
        assert np.array_equal(h, np.tile([0.0, 0.5, 0.0], (11, 1)))
        assert np.array_equal(FieldSpec(h0=0.0, h=[1.0, 0.0, 0.0])
                              .sample_h_dot(TIMES, 1e-6), np.zeros((11, 3)))


def batched_fields():
    """One field of every batched kind."""
    phased = UzdinFamily(m_state=great_circle, phase=lambda t: 0.4 * t * t,
                         variant="trace_nonzero")
    tabulated, _, _ = build_scenario(ScenarioConfig(scenario="custom", field={
        "times": [0.0, 0.3, 0.7, 1.0],
        "h": [[1.0, 0.0, 0.2], [0.5, 0.4, 0.0], [0.2, 0.1, 0.9], [0.0, 1.0, 0.3]],
        "h0": [0.1, -0.2, 0.3, 0.0]}))
    return [uzdin_optimal(UzdinFamily(m_state=great_circle)),
            uzdin_suboptimal(phased), tabulated]


@pytest.mark.parametrize("field", batched_fields(),
                         ids=["uzdin_optimal", "uzdin_trace_nonzero", "tabulated"])
def test_batched_rows_equal_single_samples(field):
    times = np.linspace(0.05, 0.95, 7)
    h0, h = field.sample(times)
    h_dot = field.sample_h_dot(times, step=1e-4)
    for k, t in enumerate(times):
        one_h0, one_h = field.sample([t])
        assert h0[k] == one_h0[0]
        assert np.array_equal(h[k], one_h[0])
        assert np.array_equal(h_dot[k], field.sample_h_dot([t], step=1e-4)[0])


def scalar_reference(fam, variant, t):
    """One sample of a prescribed-path drive in scalar arithmetic: numpy
    complex scalars, ``np.outer`` and ``abs(c) ** 2``."""
    m = np.asarray(fam.m_state(t), dtype=complex)
    md = np.asarray(fam.m_dot(t), dtype=complex)
    matrix = 1j * (np.outer(md, m.conj()) - np.outer(m, md.conj()))
    h = np.array([0.5 * (matrix[0, 1] + matrix[1, 0]).real,
                  0.5 * (matrix[1, 0] - matrix[0, 1]).imag,
                  0.5 * (matrix[0, 0].real - matrix[1, 1].real)])
    if variant == "optimal":
        return 0.0, h
    cross = np.conj(m[0]) * m[1]
    a_m = np.array([2.0 * cross.real, 2.0 * cross.imag,
                    abs(m[0]) ** 2 - abs(m[1]) ** 2])
    phase_dot = float(fam.phase_dot(t))
    h0 = 0.5 * phase_dot if variant == "trace_nonzero" else 0.0
    return h0, h + 0.5 * phase_dot * a_m


@pytest.mark.parametrize("variant", ["optimal", "trace_nonzero", "trace_zero"])
def test_batched_path_drive_rounds_as_scalar_arithmetic(variant):
    # thousands of rows, so that the rare rows where an array complex
    # multiply, abs or square rounds differently from the scalar one show
    rng = np.random.default_rng(["optimal", "trace_nonzero", "trace_zero"].index(variant))
    for _ in range(3):
        omega0, nu0, varphi0, theta0 = rng.uniform(0.2, 3.0, 4)
        field, _, grid = build_scenario(ScenarioConfig(
            scenario="example2", t_span=(0.0, 1.0), n_steps=1000, parameters={
                "omega0": omega0, "nu0": nu0, "varphi0": varphi0, "theta0": theta0}))
        fam = field.family
        fam.variant = variant
        field = uzdin_optimal(fam) if variant == "optimal" else uzdin_suboptimal(fam)
        h0, h = field.sample(grid.half_times)
        for k, t in enumerate(grid.half_times):
            want_h0, want_h = scalar_reference(fam, variant, t)
            assert h0[k] == want_h0
            assert np.array_equal(h[k], want_h), (k, h[k] - want_h)


class TestBatchedChecks:
    """Each batched check keeps its error type and tolerance and names the
    first failing time."""

    def test_gauge(self):
        def spinning(t):
            gamma = 3.0 * (t - 0.55) ** 2 if t > 0.55 else 0.0
            return np.exp(1j * gamma) * great_circle(t)

        field = uzdin_optimal(UzdinFamily(m_state=spinning))
        with pytest.raises(PreconditionError) as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    @staticmethod
    def scaled(excess):
        return lambda t: (1.0 + (excess if t > 0.55 else 0.0)) * great_circle(t)

    def test_path_normalization(self):
        # |m|^2 - 1 = 4e-11 is inside the path's tolerance of 1e-10 ...
        sample_field(uzdin_optimal(UzdinFamily(m_state=self.scaled(2e-11),
                                               m_dot=great_circle_dot)), TIMES)
        # ... and 4e-10 is not
        with pytest.raises(NormalizationError) as exc:
            sample_field(uzdin_optimal(UzdinFamily(m_state=self.scaled(2e-10),
                                                   m_dot=great_circle_dot)), TIMES)
        names_first_failure(exc)

    def test_bloch_map_normalization(self):
        # the phase term's Bloch map holds the path to 1e-12
        fam = UzdinFamily(m_state=self.scaled(2e-11), m_dot=great_circle_dot,
                          phase_dot=lambda t: 0.5, variant="trace_zero")
        with pytest.raises(NormalizationError, match="state norm") as exc:
            sample_field(uzdin_suboptimal(fam), TIMES)
        names_first_failure(exc)

    def test_hermiticity_rejects_nan(self):
        # a NaN derivative is named as such before any check compares it
        def m_dot(t):
            return great_circle_dot(t) * (np.nan if t > 0.55 else 1.0)

        field = uzdin_optimal(UzdinFamily(m_state=great_circle, m_dot=m_dot))
        with pytest.raises(FieldError, match="m_dot returned non-finite") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    @pytest.mark.parametrize("name", ["m_state", "phase_dot"])
    def test_non_finite_path_rows_are_named(self, name):
        def late_nan(value):
            return lambda t: value(t) * (np.nan if t > 0.55 else 1.0)

        callables = {"m_state": great_circle, "m_dot": great_circle_dot,
                     "phase_dot": lambda t: 0.5}
        callables[name] = late_nan(callables[name])
        field = uzdin_suboptimal(UzdinFamily(**callables, variant="trace_zero"))
        with pytest.raises(FieldError, match=f"{name} returned non-finite") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    @pytest.mark.parametrize("gamma", [1e4, 1e6])
    def test_hermiticity_tolerance_scales_with_the_path_speed(self, gamma):
        # the Hermiticity defect of i(|dm><m| - |m><dm|) is rounding of
        # size eps |dm/dt|; with gamma t_end = 10 every run traces one path
        def report(g):
            return run_report(ScenarioConfig(
                scenario="example4", parameters={"gamma": g}, t_span=(0.0, 10.0 / g),
                n_steps=2000, outputs=()))

        fast, slow = report(gamma), report(1.0)
        assert fast.eta_ge_bar == pytest.approx(slow.eta_ge_bar, abs=1e-12)
        assert fast.classification == slow.classification == "NongeodesicUnwasteful"

    @pytest.mark.parametrize("where", ["h", "h0", "m_state"])
    def test_raising_callable(self, where):
        def fail_late(value):
            def fn(t):
                if t > 0.55:
                    raise ValueError("boom")
                return value(t)
            return fn

        if where == "m_state":
            field = uzdin_optimal(UzdinFamily(m_state=fail_late(great_circle)))
        elif where == "h":
            field = FieldSpec(h0=0.0, h=fail_late(lambda t: np.ones(3)))
        else:
            field = FieldSpec(h0=fail_late(lambda t: 0.0), h=np.ones(3))
        with pytest.raises(FieldError, match="boom") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    def test_nan_returning_callable(self):
        field = FieldSpec(h0=0.0, h=lambda t: np.full(3, np.nan if t > 0.55 else 1.0))
        with pytest.raises(FieldError, match="non-finite") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    @pytest.mark.parametrize("value", [1.0, [1.0, 0.0]], ids=["scalar", "two_vector"])
    def test_h_of_wrong_shape_is_never_broadcast(self, value):
        with pytest.raises(ShapeError):
            sample_field(FieldSpec(h0=0.0, h=lambda t: value), TIMES)
        with pytest.raises(ShapeError):
            FieldSpec(h0=0.0, h=value)

    def test_path_of_wrong_shape(self):
        field = uzdin_optimal(UzdinFamily(m_state=lambda t: np.ones(3) / np.sqrt(3)))
        with pytest.raises(ShapeError):
            sample_field(field, TIMES)


def transported_path(t):
    """Parallel-transported path at polar angle 0.4 + 1.3 t and azimuth
    0.2 + 2.1 t: the global phase cancels <m|dm/dt>."""
    theta, phi = 0.4 + 1.3 * t, 0.2 + 2.1 * t
    gamma = -1.05 * (t - np.sin(theta) / 1.3)
    return np.exp(1j * gamma) * np.array([np.cos(0.5 * theta),
                                          np.exp(1j * phi) * np.sin(0.5 * theta)])


def test_finite_difference_uzdin_drive_matches_golden_bytes(tmp_path):
    # m_dot, phase_dot and h_dot all come from central differences
    fam = UzdinFamily(m_state=transported_path,
                      phase=lambda t: 0.4 * t + 0.3 * np.sin(2.0 * t),
                      variant="trace_zero", t_span=(0.1, 0.8))
    field = uzdin_suboptimal(fam)
    traj = schrodinger_evolve(field, transported_path(0.1), TimeGrid(0.1, 0.8, 30))
    write_csv(tmp_path / "uzdin.csv", {
        "t": traj.times, "h0": traj.h0_nodes, "h_x": traj.h_nodes[:, 0],
        "h_y": traj.h_nodes[:, 1], "h_z": traj.h_nodes[:, 2],
        "re_c0": traj.states[:, 0].real, "im_c0": traj.states[:, 0].imag,
        "re_c1": traj.states[:, 1].real, "im_c1": traj.states[:, 1].imag,
        "kappa_bloch": curvature_bloch_profile(traj, field)})
    assert (tmp_path / "uzdin.csv").read_bytes() \
        == (GOLDEN / "uzdin_fd_trace_zero_n30.csv").read_bytes()

