"""Every public numeric function at the edges of the float range, under
warnings-as-errors.

The library owns its floating-point policy: its own arithmetic runs under
``core._quiet_fp`` and every call ends in a finite value or a typed
:class:`BlochPathError`, while a user's callable is never quieted.  Each test
here calls public functions of ``blochpath.__all__`` at magnitudes ``10^k``,
``k`` in [-300, 300], each taken as the power of two ``2^m`` nearest it, or at
1.7e308, under ``warnings.simplefilter("error")``: a bare ``RuntimeWarning``
fails the test.

The oracle is the exact power-of-two scale relation, a metamorphic relation
(Chen, Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).  Scaling
a field by ``2^m`` is exact, and the library takes the rows that could
overflow or underflow scaled by a power of two, as Blue's norm does (ACM TOMS
4 (1978) 15), so a function homogeneous of degree ``d`` in the field returns
``2^(d m)`` times its unscaled value, bit for bit; a run of ``2^m h(2^m t)``
on ``[0, T / 2^m]`` traces the same path, with the same curvature and
efficiencies.  Where the scaled value passes the float range, the call must
raise a typed error; so must the unscaled one where the scaled one does,
unless the test names the error that the scale alone may cause.  The
unscaled draws are short dyadic numbers and unit vectors, so that no
intermediate of theirs is near either end of the float range.
"""

import fractions
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    BlochPathError,
    Classification,
    DegenerateEndpointsError,
    FieldError,
    FieldSpec,
    IntegrationError,
    NormalizationError,
    NumericalError,
    RangeError,
    ScenarioConfig,
    SuboptimalStationary,
    TimeGrid,
    UzdinFamily,
    build_scenario,
    classify,
    curvature_bloch,
    curvature_bloch_profile,
    curvature_expectation_profile,
    curvature_numeric_profile,
    efficiency_report,
    endpoint_angle,
    energy_uncertainty,
    fubini_study_distance,
    geodesic_efficiency_profile,
    hybrid_efficiency,
    parallel_transport,
    pauli_compose,
    run_report,
    schrodinger_evolve,
    spectral_norm,
    speed_efficiency_profile,
    speed_efficiency_tracenonzero,
    speed_efficiency_tracezero,
    state_from_bloch,
    suboptimal_axis,
    suboptimal_hamiltonian,
    sweep_alpha,
    sweep_phase_profiles,
    uzdin_optimal,
    uzdin_suboptimal,
    write_csv,
)
from csv_reference import csv_module_bytes
from test_cli import _child_env

#: the largest finite magnitude drawn, 0.95 of the largest double
TOP = 1.7e308

#: ``m`` of the power of two ``2^m`` nearest ``10^k``, ``k`` in [-300, 300]
powers = st.integers(-300, 300).map(lambda k: round(k * math.log2(10)))
#: multiples of 1/256 in [-4, 4]: exact, and far from both ends of the range
dyadics = st.integers(-1024, 1024).map(lambda n: n / 256.0)
positive_dyadics = st.integers(1, 1024).map(lambda n: n / 256.0)
rows = st.lists(dyadics, min_size=3, max_size=3).map(np.array)
angles = st.floats(0.0, 2.0 * np.pi)


def unit_vector(polar, azimuth):
    return np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                     np.cos(polar)])


units = st.builds(unit_vector, angles, angles)


def outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under warnings-as-errors, or the typed error it
    raises; any other exception, a ``RuntimeWarning`` among them, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs)
        except BlochPathError as exc:
            return exc


def assert_scaled(got, want, m, degree=1, may_raise=()):
    """``got`` is ``want`` times ``2^(degree m)`` bit for bit, where ``want`` is
    a value: a number, an array, a tuple or a dict of them, each entry with
    its own degree where ``degree`` is a dict (``None`` for an entry that is
    no number).  Where ``want`` is a typed error, ``got`` is one of its
    class; where ``got`` alone is, it is one of ``may_raise``."""
    if degree is None:
        return
    if isinstance(want, BlochPathError):
        assert isinstance(got, (type(want), *may_raise)), (got, want)
        return
    if isinstance(got, BlochPathError):
        assert isinstance(got, may_raise), (got, m)
        return
    if isinstance(want, dict):
        assert list(got) == list(want)
        for name in want:
            assert_scaled(got[name], want[name], m, degree.get(name, 0))
    elif isinstance(want, tuple):
        for name, g, w in zip(getattr(want, "_fields", range(len(want))), got, want):
            d = degree if not isinstance(degree, dict) else degree.get(name, 0)
            assert_scaled(g, w, m, d)
    elif isinstance(want, (str, Classification)):
        assert got == want
    else:
        expect = np.asarray(want) * 2.0 ** (degree * m)
        assert np.array_equal(got, expect), (got, expect, m, degree)


class TestCoreMaps:
    @given(a=units, h0=dyadics, h=st.lists(rows, min_size=1, max_size=3).map(np.array),
           m=powers)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_float_edge_norms_angles_and_matrices_scale_exactly(self, a, h0, h, m):
        s = 2.0**m
        h0 = np.full(len(h), h0)
        assert_scaled(outcome(energy_uncertainty, a, s * h), outcome(energy_uncertainty, a, h), m)
        assert_scaled(outcome(spectral_norm, s * h0, s * h), outcome(spectral_norm, h0, h), m)
        assert_scaled(outcome(pauli_compose, s * h0, s * h), outcome(pauli_compose, h0, h), m)
        assert_scaled(outcome(fubini_study_distance, s * h, a),
                      outcome(fubini_study_distance, h, a), m, 0)
        assert_scaled(outcome(fubini_study_distance, a, s * h[0]),
                      outcome(fubini_study_distance, a, h[0]), m, 0)
        assert_scaled(outcome(endpoint_angle, s * h[0], a), outcome(endpoint_angle, h[0], a),
                      m, 0)
        got = outcome(state_from_bloch, s * a)
        assert isinstance(got, NormalizationError) if m else got.shape == (2,)
        got = outcome(suboptimal_axis, 1.0, s * a, [1.0, 0.0, 0.0])
        assert isinstance(got, NormalizationError) if m else \
            isinstance(got, DegenerateEndpointsError) or got.shape == (3,)

    @pytest.mark.parametrize("fn, args", [
        (energy_uncertainty, ([0.6, 0.0, 0.8], [TOP, 5.1e307, -8.5e307])),
        (spectral_norm, (TOP, [TOP, 5.1e307, -8.5e307])),
        (pauli_compose, (TOP, [TOP, 5.1e307, -8.5e307])),
    ], ids=["energy_uncertainty", "spectral_norm", "pauli_compose"])
    def test_float_edge_a_result_past_the_float_range_is_a_numerical_error(self, fn, args):
        # |a x h| is 1.9e308, |h0| + |h| is 3.7e308 and h0 - h_z is 2.6e308: past
        # the largest double, so inf, and no numpy warning ahead of the error
        assert isinstance(outcome(fn, *args), NumericalError)

    def test_float_edge_directions_and_states_at_the_top_of_the_range(self):
        a, h = np.array([0.6, 0.0, 0.8]), np.array([TOP, 5.1e307, -8.5e307])
        assert outcome(fubini_study_distance, h, a) == fubini_study_distance(h / TOP, a)
        assert isinstance(outcome(state_from_bloch, TOP * a), NormalizationError)


class TestCurvatureBloch:
    @given(a=units, h=rows, h_dot=rows, m=powers, q=st.integers(-40, 40))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_float_edge_kappa_is_kept_by_any_change_of_time_unit(self, a, h, h_dot, m, q):
        # (2^m h, 4^m dh/dt) is a change of time unit; the largest entry of the
        # unscaled h is put in [1/2, 1), where the library takes a far row, and
        # dh/dt follows h while 4^m keeps it finite and normal: past that, the
        # unscaled dh/dt is 2^(j - 2m) dh/dt, a rate of either extreme.  Every
        # power is a product, so a twin taken as it is, |m| <= 151 here, and
        # one taken scaled round alike
        if h.any():
            h = np.ldexp(h, -np.frexp(np.abs(h).max())[1])
        j = min(max(2 * m + q, -1000), 1000)
        want = outcome(curvature_bloch, a, h, np.ldexp(h_dot, j - 2 * m))
        got = outcome(curvature_bloch, a, np.ldexp(h, m), np.ldexp(h_dot, j))
        assert_scaled(got, want, m, 0)
        if not isinstance(want, BlochPathError):
            assert np.isfinite(want) and want >= 0.0


def polar_drive(omega, nu, theta0, s):
    """The constant-longitude path of angular rate ``s omega``, with the phase
    rate ``s nu``: every product of ``s`` with a time is exact."""
    w, phase = s * omega, np.exp(0.3j)

    def m(t):
        th = theta0 + w * t
        return np.stack([np.cos(0.5 * th) + 0j, phase * np.sin(0.5 * th)], axis=-1)

    def m_dot(t):
        th = theta0 + w * t
        return 0.5 * w * np.stack([-np.sin(0.5 * th) + 0j, phase * np.cos(0.5 * th)], axis=-1)

    return UzdinFamily(m, m_dot, lambda t: np.full(np.shape(t), s * nu))


def field_of(kind, s, h0, h, h1):
    """The field of ``kind`` at scale ``s``: ``s h0`` and ``s h``, constant;
    ``s (h + h1 sin(s t))`` from a callable; or a Uzdin drive on the path of
    rate ``s |h|``, with phase rate ``s h0``."""
    if kind == "constant":
        return FieldSpec(h0=s * h0, h=s * h)
    if kind == "callable":
        return FieldSpec(h0=s * h0, h=lambda t: s * (h + h1 * np.sin(s * t)))
    fam = polar_drive(float(np.abs(h).sum()) or 1.0, h0, 0.4, s)
    return uzdin_optimal(fam) if kind == "optimal" else uzdin_suboptimal(fam, kind)


#: the degree of each trajectory entry in the field's scale; the grid is no number
TRAJECTORY_DEGREES = {"grid": None, "times": -1, "h0_half": 1, "h_half": 1, "delta_e": 1}
#: what a run at scale 2^m may raise where the unscaled one does not: a
#: constant |h|^2 past the float range in exp(-itH)
RUN_ERRORS = (IntegrationError,)


class TestRuns:
    @pytest.mark.parametrize("kind", ["constant", "callable", "optimal", "trace_nonzero",
                                      "trace_zero"])
    @given(a=units, h0=dyadics, h=rows, h1=rows, m=powers)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_float_edge_a_run_traces_the_same_path_at_any_field_scale(self, kind, a, h0, h,
                                                                      h1, m):
        def run(s):
            grid = TimeGrid(0.0, 0.25 / s, 24)
            return outcome(schrodinger_evolve, field_of(kind, s, h0, h, h1),
                           state_from_bloch(a), grid)

        want, got = run(1.0), run(2.0**m)
        assert_scaled(got, want, m, TRAJECTORY_DEGREES, RUN_ERRORS)
        if isinstance(want, BlochPathError) or isinstance(got, BlochPathError):
            return
        for fn in (curvature_expectation_profile, curvature_numeric_profile,
                   efficiency_report, geodesic_efficiency_profile, speed_efficiency_profile,
                   parallel_transport, curvature_bloch_profile):
            assert_scaled(outcome(fn, got), outcome(fn, want), m, 0)

    @pytest.mark.parametrize("m", [-3, 5])
    def test_float_edge_a_curvature_profile_is_its_twins_bit_for_bit(self, m):
        # trig drives h + h1 sin(t) on [0, 1] at 2000 steps, whose samples
        # round, and their twins 2^m h(2^m t) on [0, 2^-m]: the same states,
        # and the same curvature
        rng = np.random.default_rng(11)
        for _ in range(6):
            h0 = rng.integers(-512, 513) / 256.0
            h, h1 = rng.integers(-384, 385, size=(2, 3)) / 256.0
            a = state_from_bloch(unit_vector(*rng.uniform(0.0, np.pi, 2)))
            want, got = (curvature_bloch_profile(schrodinger_evolve(
                field_of("callable", s, h0, h, h1), a, TimeGrid(0.0, 1.0 / s, 2000)))
                for s in (1.0, 2.0**m))
            differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert differ.size == 0, differ

    @pytest.mark.parametrize("field, span, rate", [
        (lambda t: np.array([1.0, 0.3, t]), 1e-168, [0.0, 0.0, 1.0]),
        (1e-40 * np.array([1.0, 0.3, -0.5]), 1e-296, [0.0, 0.0, 0.0]),
    ], ids=["driven", "stationary"])
    def test_float_edge_a_tiny_rotation_per_step_keeps_the_curvature(self, field, span, rate):
        # |h| dt is about 5e-170, then 6e-338, while h and dh/dt are well inside
        # the float range: taken in the step's time unit alone, h would be of
        # the size of h dt and dh/dt of (dh/dt) dt^2, which underflow, dropping
        # the rotation term, then the field.  kappa^2 is the closed form of the
        # exact rate, to the stencil's rounding
        traj = outcome(schrodinger_evolve, FieldSpec(0.0, field),
                       state_from_bloch([0.0, 0.6, 0.8]), TimeGrid(0.0, span, 20))
        want = outcome(curvature_bloch, traj.bloch, traj.h_nodes, rate)
        assert np.all(want > 0.0)
        assert outcome(curvature_bloch_profile, traj) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["constant", "callable", "optimal", "trace_nonzero",
                                      "trace_zero"])
    def test_float_edge_a_run_near_the_top_of_the_range(self, kind):
        # fields of about 1e307 on a span of 1.5e-309: a constant one squares |h|
        # in exp(-itH); every other run, and every function of it, ends in a
        # finite value or a typed error, and the curvature in a value, whose
        # rates dh/dt and dDh/dt pass the float range where kappa^2 does not
        field = field_of(kind, TOP / 8, 0.5, np.array([0.5, 0.15, -0.25]),
                         np.array([0.2, 0.1, 0.0]))
        traj = outcome(schrodinger_evolve, field, state_from_bloch(unit_vector(1.0, 0.5)),
                       TimeGrid(0.0, 0.25 / TOP, 24))
        assert isinstance(traj, IntegrationError) == (kind == "constant")
        if kind == "constant":
            return
        assert all_finite(traj)
        # the twin at field scale 1 on [0, 1/32]: TOP / 8 is no power of two and
        # the step, 6e-311, is subnormal, so its curvature is the twin's to rounding
        twin = schrodinger_evolve(field_of(kind, 1.0, 0.5, np.array([0.5, 0.15, -0.25]),
                                           np.array([0.2, 0.1, 0.0])),
                                  state_from_bloch(unit_vector(1.0, 0.5)),
                                  TimeGrid(0.0, 1.0 / 32.0, 24))
        for fn in (curvature_bloch_profile, curvature_expectation_profile,
                   curvature_numeric_profile):
            assert outcome(fn, traj) == pytest.approx(fn(twin), rel=1e-6), fn
        for fn in (efficiency_report, geodesic_efficiency_profile, speed_efficiency_profile,
                   parallel_transport):
            got = outcome(fn, traj)
            assert isinstance(got, BlochPathError) or all_finite(got), fn


def all_finite(value) -> bool:
    """Whether every number of ``value``, an array or a record of them, is finite."""
    if isinstance(value, tuple):
        return all(all_finite(v) for v in value if not isinstance(v, (str, TimeGrid)))
    return bool(np.isfinite(value).all())


class TestClosedForms:
    @given(c2=positive_dyadics, phidot=dyadics, k=st.integers(-300, 300))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_float_edge_speed_efficiencies_are_scale_free(self, c2, phidot, k):
        j = round(k * math.log2(10) / 2)  # cdot_sq at 10^k, phidot at its root
        for form in (speed_efficiency_tracezero, speed_efficiency_tracenonzero):
            assert_scaled(outcome(form, np.ldexp(c2, 2 * j), np.ldexp(phidot, j)),
                          outcome(form, c2, phidot), j, 0)

    @given(x=st.integers(0, 256).map(lambda n: n / 256.0),
           y=st.integers(0, 256).map(lambda n: n / 256.0), m=powers)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_float_edge_factors_scale_or_are_out_of_range(self, x, y, m):
        got, label = outcome(hybrid_efficiency, 2.0**m * x, y), outcome(classify, 2.0**m * x, y)
        if 2.0**m * x > 1.0:
            assert isinstance(got, RangeError) and isinstance(label, RangeError)
        else:
            assert got == 2.0**m * hybrid_efficiency(x, y)
            assert isinstance(label, Classification)

    @given(alpha=st.floats(0.05, 3.1), theta=st.floats(0.05, 3.1), E=positive_dyadics,
           m=powers)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_float_edge_the_stationary_family_scales_its_travel_time(self, alpha, theta, E,
                                                                     m):
        a, b = np.array([0.0, 0.0, 1.0]), unit_vector(theta, 0.0)
        want = outcome(SuboptimalStationary, alpha, a, b, E)
        got = outcome(SuboptimalStationary, alpha, a, b, 2.0**m * E)
        assert got.t_ab == 2.0**-m * want.t_ab
        assert np.array_equal(got.n_hat, want.n_hat) and got.phi == want.phi
        field = suboptimal_hamiltonian(got)
        assert np.array_equal(field.h, 2.0**m * suboptimal_hamiltonian(want).h)
        assert_scaled(outcome(sweep_alpha, theta, 7, 2.0**m * E), outcome(sweep_alpha, theta, 7, E),
                      m, {"t_ab": -1, "delta_e": 1})

    def test_float_edge_a_travel_time_below_the_normal_range_keeps_its_value(self):
        # 2 E is past the largest double, and t_ab = phi / (2 E) is subnormal:
        # the double nearest the quotient, not 0.  phi / 2 is t_ab at E = 1
        a, b = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
        pairs = [(outcome(SuboptimalStationary, 1.0, a, b, TOP).t_ab,
                  SuboptimalStationary(1.0, a, b).t_ab)]
        pairs += zip(outcome(sweep_alpha, 1.2, 3, TOP)["t_ab"], sweep_alpha(1.2, 3)["t_ab"])
        for got, half_phi in pairs:
            exact = fractions.Fraction(float(half_phi)) / fractions.Fraction(TOP)
            assert 0.0 < got == float(exact)

    @pytest.mark.parametrize("profile", ["linear", "exp", "log"])
    @given(phi0=positive_dyadics, phidot0=dyadics, omega0=dyadics, m=powers)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_float_edge_phase_profiles_scale_with_their_rates(self, profile, phi0, phidot0,
                                                              omega0, m):
        s = 2.0**m
        want = outcome(sweep_phase_profiles, profile, phi0, phidot0, omega0, 1.0, 9)
        got = outcome(sweep_phase_profiles, profile, phi0, s * phidot0, s * omega0, 1.0 / s, 9)
        assert_scaled(got, want, m, {"t": -1, "phi_dot": 1})


def report_config(kind, s, h0, h, bloch):
    """A ``custom`` config at scale ``s``: a constant field, or a two-knot table."""
    if kind == "constant":
        field = {"h": list(s * h), "h0": s * h0}
    else:
        field = {"times": [0.0, 0.25 / s], "h": [list(s * h), list(s * h[::-1])],
                 "h0": [0.0, s * h0]}
    return ScenarioConfig("custom", t_span=(0.0, 0.25 / s), n_steps=24, field=field,
                          psi0={"bloch": list(bloch)})


class TestArtifacts:
    @pytest.mark.parametrize("kind", ["constant", "table"])
    @given(a=units, h0=dyadics, h=rows, m=powers)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_float_edge_a_report_at_any_field_scale(self, tmp_path_factory, kind, a, h0, h, m):
        # the row and report values are the unscaled ones; the trajectory file is
        # csv.writer's, with the times scaled by 2^-m and the dispersion by 2^m
        out, s = tmp_path_factory.mktemp("report"), 2.0**m
        want = outcome(run_report, report_config(kind, 1.0, h0, h, a), out / "want")
        got = outcome(run_report, report_config(kind, s, h0, h, a), out / "got")
        assert_scaled(got, want, m, 0, RUN_ERRORS)
        if isinstance(want, BlochPathError) or isinstance(got, BlochPathError):
            return
        report, scaled = (json.loads((out / d / "custom_report.json").read_text())
                          for d in ("want", "got"))
        for key in ("eta_ge_bar", "eta_se_bar", "eta_he", "classification", "s_total",
                    "s0_total"):
            assert scaled[key] == report[key], key
        traj = schrodinger_evolve(*build_scenario(report_config(kind, 1.0, h0, h, a)))
        effs = efficiency_report(traj)
        columns = {"t": traj.times * 2.0**-m, "a_x": traj.bloch[:, 0],
                   "a_y": traj.bloch[:, 1], "a_z": traj.bloch[:, 2],
                   "delta_e": traj.delta_e * s, "s": traj.s_accum, "s0": traj.s0,
                   "eta_ge": effs.eta_ge_t, "eta_se": effs.eta_se_t,
                   "kappa_bloch": curvature_bloch_profile(traj)}
        assert (out / "got" / "custom_trajectory.csv").read_bytes() == \
            csv_module_bytes(columns)

    @given(values=st.lists(st.tuples(dyadics, powers), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_float_edge_csv_cells_at_any_magnitude(self, tmp_path_factory, values):
        column = np.array([x * 2.0**m for x, m in values] + [TOP, -TOP, 5e-324])
        path = tmp_path_factory.mktemp("csv") / "cells.csv"
        assert outcome(write_csv, path, {"x": column, "y": column[::-1]}) is None
        assert path.read_bytes() == csv_module_bytes({"x": column, "y": column[::-1]})


class TestUserCallables:
    """The policy never quiets a user's warning: a callable runs outside
    ``core._quiet_fp``, so its own overflow is raised or recorded as the
    caller's warning filter says."""

    @staticmethod
    def overflowing(t):
        return np.array([np.float64(1e200) * np.float64(1e200 * t), 0.0, 1.0])

    def test_float_edge_a_users_overflow_under_error_is_a_field_error(self):
        field = FieldSpec(h0=0.0, h=self.overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match=r"field evaluation failed at t = 0\.125: "
                                                 r"overflow encountered"):
                schrodinger_evolve(field, [1.0, 0.0], TimeGrid(0.0, 1.0, 4))

    def test_float_edge_a_users_overflow_under_always_is_recorded(self):
        field = FieldSpec(h0=0.0, h=self.overflowing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FieldError, match=r"non-finite values at t = 0\.125"):
                schrodinger_evolve(field, [1.0, 0.0], TimeGrid(0.0, 1.0, 4))
        assert [w.category for w in caught] and all(w.category is RuntimeWarning
                                                     for w in caught)
        assert "overflow" in str(caught[0].message)


#: command lines at the float edge, and the exit each must end in: 0, 2 for a
#: config past the float range, or 3 for a value past it
CLI_CASES = {
    "report_top_field": (["report", "--config", "{cfg}"], {
        "scenario": "custom", "field": {"h": [TOP, 5.1e307, -8.5e307], "h0": TOP},
        "outputs": ["report"]}, 3),
    "report_weak_field": (["report", "--config", "{cfg}"], {
        "scenario": "custom", "field": {"h": [1e-300, 0.0, 0.0]}, "t_span": [0.0, 1e300],
        "n_steps": 64, "psi0": {"bloch": [0.0, 0.6, 0.8]}}, 0),
    "report_strong_drive": (["report", "--config", "{cfg}"], {
        "scenario": "example2", "parameters": {"omega0": 1e300, "nu0": 1e299},
        "t_span": [0.0, 1e-300], "n_steps": 64, "outputs": ["report"]}, 0),
    "family_top_energy": (["report", "--config", "{cfg}"], {
        "scenario": "suboptimal_family", "n_steps": 16,
        "parameters": {"alpha": 1.0, "theta_ab": 1.2, "E": TOP}}, 3),
    "family_tiny_energy": (["report", "--config", "{cfg}"], {
        "scenario": "suboptimal_family", "n_steps": 16,
        "parameters": {"alpha": 1.0, "theta_ab": 1.2, "E": 5e-324}}, 3),
    "span_past_the_float_range": (["report", "--config", "{cfg}"], {
        "scenario": "custom", "field": {"h": [1.0, 0.0, 0.0]}, "t_span": [-TOP, TOP],
        "n_steps": 8}, 2),
    "psi0_past_the_float_range": (["report", "--config", "{cfg}"], {
        "scenario": "custom", "field": {"h": [1.0, 0.0, 0.0]}, "psi0": [[1e200, 0.0], [0.0, 0.0]],
        "n_steps": 8}, 2),
    "sweep_top_energy": (["sweep-alpha", "--theta-ab", "1.2", "--points", "5", "--energy",
                          "1.7e308"], None, 0),
    "sweep_tiny_energy": (["sweep-alpha", "--theta-ab", "1.2", "--points", "5", "--energy",
                           "5e-309"], None, 3),
    "phase_profiles_top": (["phase-profiles", "--profile", "linear", "--phi0", "0.7",
                            "--phidot0", "1.2e308", "--omega0", "1.7e308", "--t-end", "1"],
                           None, 0),
    "phase_profiles_exp_overflow": (["phase-profiles", "--profile", "exp", "--phi0", "0",
                                     "--phidot0", "800", "--omega0", "1"], None, 3),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_float_edge_cli_children_under_warnings_as_errors(tmp_path, case):
    # no errstate of the CLI's own: what the library leaves unquieted would be
    # a traceback here, and exit 1
    argv, config, code = CLI_CASES[case]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = [arg.format(cfg=tmp_path / "run.json") for arg in argv] + \
            ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "blochpath", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
