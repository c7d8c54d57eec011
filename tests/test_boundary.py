"""Invalid arguments at the library's boundary end as typed errors.

Every argument below, array or real-valued (``h0``, ``alpha``, ``theta_ab``,
``E``, ``cdot_sq``, a phase rate, a sweep's settings), grid
endpoints, step and point counts and averaged factors included, is read
by the one rule for what counts as a number; a string, ``None``, a complex
scalar, an arbitrary object, a bool (alone or in a list) or an integer
beyond 64 bits must raise a :class:`BlochPathError`, never a bare
``TypeError``, ``ValueError`` or ``OverflowError``.  Sampled derivatives
pass the same finiteness check as sampled fields.  A number in an error
message prints as a plain float, whatever numpy's version.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import config, core

from blochpath import (
    BlochPathError,
    ConfigError,
    FieldError,
    FieldSpec,
    NormalizationError,
    NumericalError,
    PreconditionError,
    RangeError,
    ShapeError,
    SuboptimalStationary,
    TimeGrid,
    UzdinFamily,
    classify,
    curvature_bloch,
    curvature_bloch_profile,
    endpoint_angle,
    energy_uncertainty,
    fubini_study_distance,
    hybrid_efficiency,
    pauli_compose,
    sample_field,
    schrodinger_evolve,
    spectral_norm,
    speed_efficiency_tracenonzero,
    speed_efficiency_tracezero,
    state_from_bloch,
    suboptimal_axis,
    sweep_alpha,
    sweep_phase_profiles,
    uzdin_optimal,
    uzdin_suboptimal,
)

BAD = ["x", None, 1j, object(), True, 10**400]
BAD_IDS = ["str", "None", "complex", "object", "bool", "huge_int"]

Z = [0.0, 0.0, 1.0]
X = [1.0, 0.0, 0.0]
FIELD = FieldSpec(h0=0.0, h=[1.0, 0.0, 0.0])
PSI0 = np.array([1.0, 0.0], dtype=complex)

CALLS = {
    "state_from_bloch": lambda v: state_from_bloch(v),
    "fubini_study_distance.a": lambda v: fubini_study_distance(v, X),
    "fubini_study_distance.b": lambda v: fubini_study_distance(X, v),
    "endpoint_angle.a": lambda v: endpoint_angle(v, X),
    "endpoint_angle.b": lambda v: endpoint_angle(Z, v),
    "energy_uncertainty.a": lambda v: energy_uncertainty(v, X),
    "energy_uncertainty.h": lambda v: energy_uncertainty(Z, v),
    "curvature_bloch.a": lambda v: curvature_bloch(v, X, Z),
    "curvature_bloch.h": lambda v: curvature_bloch(Z, v, Z),
    "curvature_bloch.h_dot": lambda v: curvature_bloch(Z, X, v),
    "schrodinger_evolve.psi0": lambda v: schrodinger_evolve(FIELD, v),
    "FieldSpec.h": lambda v: FieldSpec(0.0, v),
    "suboptimal_axis.a": lambda v: suboptimal_axis(1.0, v, X),
    "suboptimal_axis.b": lambda v: suboptimal_axis(1.0, Z, v),
    "SuboptimalStationary.a_hat": lambda v: SuboptimalStationary(1.0, v, X),
    "SuboptimalStationary.b_hat": lambda v: SuboptimalStationary(1.0, Z, v),
    "pauli_compose.h0": lambda v: pauli_compose(v, X),
    "spectral_norm.h0": lambda v: spectral_norm(v, X),
    "speed_efficiency_tracezero.cdot_sq": lambda v: speed_efficiency_tracezero(v, 0.5),
    "speed_efficiency_tracenonzero.cdot_sq":
        lambda v: speed_efficiency_tracenonzero(v, 0.5),
    "speed_efficiency_tracezero.phidot": lambda v: speed_efficiency_tracezero(1.0, v),
    "speed_efficiency_tracenonzero.phidot":
        lambda v: speed_efficiency_tracenonzero(1.0, v),
    "suboptimal_axis.alpha": lambda v: suboptimal_axis(v, Z, X),
    "SuboptimalStationary.alpha": lambda v: SuboptimalStationary(v, Z, X),
    "SuboptimalStationary.E": lambda v: SuboptimalStationary(1.0, Z, X, E=v),
    "sweep_alpha.theta_ab": lambda v: sweep_alpha(v, 5),
    "sweep_alpha.E": lambda v: sweep_alpha(1.0, 5, E=v),
    "sweep_alpha.n_points": lambda v: sweep_alpha(1.0, v),
    "sweep_phase_profiles.phi0": lambda v: sweep_phase_profiles("linear", v, 0.5, 1.0),
    "sweep_phase_profiles.phidot0":
        lambda v: sweep_phase_profiles("linear", 0.5, v, 1.0),
    "sweep_phase_profiles.omega0":
        lambda v: sweep_phase_profiles("linear", 0.5, 0.5, v),
    "sweep_phase_profiles.t_end":
        lambda v: sweep_phase_profiles("linear", 0.5, 0.5, 1.0, t_end=v),
    "FieldSpec.h0": lambda v: FieldSpec(v, X),
    "TimeGrid.t_start": lambda v: TimeGrid(v, 1.0, 10),
    "TimeGrid.t_end": lambda v: TimeGrid(0.0, v, 10),
    "TimeGrid.n_steps": lambda v: TimeGrid(0.0, 1.0, v),
    "sample_field.times": lambda v: sample_field(FIELD, v),
    "hybrid_efficiency.eta_ge_bar": lambda v: hybrid_efficiency(v, 0.5),
    "hybrid_efficiency.eta_se_bar": lambda v: hybrid_efficiency(0.5, v),
    "classify.eta_ge_bar": lambda v: classify(v, 0.5),
    "classify.eta_se_bar": lambda v: classify(0.5, v),
}


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", list(CALLS))
def test_only_typed_errors_escape(name, value):
    with pytest.raises(BlochPathError):
        CALLS[name](value)


#: the real-valued arguments, named by the last part of a ``CALLS`` key
REAL_ARGUMENTS = ("h0", "cdot_sq", "alpha", "theta_ab", "E", "phidot",
                  "phi0", "phidot0", "omega0")


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", [name for name in CALLS
                                  if name.rsplit(".", 1)[-1] in REAL_ARGUMENTS])
def test_non_numbers_in_real_arguments_are_a_config_error(name, value):
    with pytest.raises(ConfigError, match="must be real numbers"):
        CALLS[name](value)


@pytest.mark.parametrize("value", ["x", [1.0, "y", 0.0], object(), [[1, 0], [0, 1], "z"],
                                   [True, 0.0, 0.0], (0.0, np.True_, 0.0)],
                         ids=["str", "str_entry", "object", "ragged", "bool_entry",
                              "numpy_bool_entry"])
def test_unconvertible_arrays_are_a_config_error(value):
    for convert in (state_from_bloch,
                    lambda v: schrodinger_evolve(FIELD, v),
                    lambda v: FieldSpec(0.0, v)):
        with pytest.raises(ConfigError, match="must be (real|complex) numbers"):
            convert(value)


@pytest.mark.parametrize("call", [
    lambda: pauli_compose(math.nan, X),
    lambda: spectral_norm(math.nan, X),
    lambda: suboptimal_axis(math.nan, Z, X),
], ids=["pauli_compose", "spectral_norm", "suboptimal_axis"])
def test_non_finite_real_arguments_are_a_numerical_error(call):
    with pytest.raises(NumericalError, match="must be finite"):
        call()


#: endpoints that are not unit 3-vectors, the error each ends in and its message
BAD_ENDPOINTS = {
    "nan": ([math.nan, 0.0, 1.0], NumericalError, "not finite"),
    "inf": ([math.inf, 0.0, 0.0], NormalizationError, "endpoint {} has norm"),
    "zero": ([0.0, 0.0, 0.0], NormalizationError, "endpoint {} has norm"),
    "past_tol_norm": ([0.0, 0.0, 1.0 + core.TOL_NORM], NormalizationError,
                      "endpoint {} has norm"),
    "two_entries": ([0.0, 1.0], ShapeError, "expected a length-3"),
}


@pytest.mark.parametrize("kind", list(BAD_ENDPOINTS))
@pytest.mark.parametrize("name", ["suboptimal_axis.a", "suboptimal_axis.b",
                                  "SuboptimalStationary.a_hat",
                                  "SuboptimalStationary.b_hat"])
def test_endpoints_that_are_not_unit_3_vectors_are_typed_errors(name, kind):
    # the family's one endpoint check is suboptimal_axis's, which names the
    # endpoint; a NaN passes the unit rule and ends at the endpoint angle
    value, error, message = BAD_ENDPOINTS[kind]
    with pytest.raises(error, match=message.format(name.rsplit(".", 1)[-1][0])):
        CALLS[name](value)


TWO, THREE, ROWS = [1.0, 2.0], [1.0, 2.0, 3.0], np.ones((3, 3))
PAIRS, ROWS4 = np.ones((4, 2)), np.tile([0.0, 0.6, 0.8], (4, 1))


@pytest.mark.parametrize("call", [
    lambda: SuboptimalStationary(1.0, Z, X, E=TWO),
    lambda: SuboptimalStationary(np.array(TWO), Z, X),
    lambda: suboptimal_axis(TWO, Z, X),
    lambda: pauli_compose(TWO, ROWS),
    lambda: spectral_norm(TWO, ROWS),
    lambda: speed_efficiency_tracezero(TWO, THREE),
    lambda: speed_efficiency_tracenonzero(TWO, THREE),
    lambda: energy_uncertainty(np.ones((2, 3)), ROWS),
    lambda: curvature_bloch(np.ones((2, 3)), ROWS, ROWS),
    lambda: energy_uncertainty(PAIRS, ROWS4),
    lambda: spectral_norm(np.zeros(4), PAIRS),
    lambda: pauli_compose(np.zeros(4), PAIRS),
    lambda: fubini_study_distance(PAIRS, ROWS4[0]),
    lambda: curvature_bloch(ROWS4, PAIRS, ROWS4),
], ids=["SuboptimalStationary.E", "SuboptimalStationary.alpha",
        "suboptimal_axis.alpha", "pauli_compose",
        "spectral_norm", "speed_efficiency_tracezero",
        "speed_efficiency_tracenonzero", "energy_uncertainty", "curvature_bloch",
        "energy_uncertainty.pairs", "spectral_norm.pairs", "pauli_compose.pairs",
        "fubini_study_distance.pairs", "curvature_bloch.pairs"])
def test_real_arguments_of_the_wrong_shape_are_a_shape_error(call):
    # a scalar argument given as an array, arrays that do not broadcast, or
    # rows of two where 3-vectors belong
    with pytest.raises(ShapeError):
        call()


@pytest.mark.parametrize("h0", [[0.5], [0.5, 0.5]], ids=["one_entry", "two_entries"])
def test_constant_h0_must_be_a_scalar(h0):
    with pytest.raises(ShapeError, match="scalar h0"):
        FieldSpec(h0, X)


@pytest.mark.parametrize("make", [
    lambda: FieldSpec(0.0, X, h_dot=Z),
    lambda: FieldSpec(0.0, X, Z, (0.0, 1.0)),
    lambda: uzdin_optimal(great_circle_family((0.0, 1.0)), h_dot=lambda t: t),
    lambda: uzdin_suboptimal(great_circle_family((0.0, 1.0)), "trace_zero", h_dot=None),
], ids=["FieldSpec", "FieldSpec_positional", "uzdin_optimal", "uzdin_suboptimal"])
def test_a_field_takes_no_h_dot(make):
    # dh/dt is taken from the run's own samples; no derivative is passed in
    with pytest.raises(TypeError, match="h_dot|positional"):
        make()


def great_circle_family(t_span):
    def m(t):
        return np.stack([np.cos(t), np.sin(t)], axis=-1).astype(complex)

    def m_dot(t):
        return np.stack([-np.sin(t), np.cos(t)], axis=-1).astype(complex)
    return UzdinFamily(m_state=m, m_dot=m_dot, t_span=t_span)


@pytest.mark.parametrize("t_span", [(0, 1, 2), None, 1.0], ids=["three", "None", "scalar"])
@pytest.mark.parametrize("make", [lambda span: FieldSpec(0.0, X, t_span=span),
                                  lambda span: uzdin_optimal(great_circle_family(span))],
                         ids=["FieldSpec", "UzdinFamily"])
def test_a_span_that_is_not_two_numbers_is_a_config_error(make, t_span):
    # the default grid is built from the span, with the config's message
    with pytest.raises(ConfigError) as want:
        config.ScenarioConfig("example1", t_span=t_span)
    with pytest.raises(ConfigError) as got:
        schrodinger_evolve(make(t_span), PSI0)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("t_span must be two numbers [t_start, t_end], got ")


@pytest.mark.parametrize("endpoint", ["0", None, 1j, math.nan, math.inf])
def test_grid_endpoints_share_one_message(endpoint):
    for args in ((endpoint, 1.0, 10), (0.0, endpoint, 10)):
        with pytest.raises(ConfigError, match="grid endpoints must be finite"):
            TimeGrid(*args)


@pytest.mark.parametrize("factor", [math.nan, -0.1, 1.2, "x", None, 1j])
def test_classify_checks_factors_as_hybrid_efficiency_does(factor):
    for call in (classify, hybrid_efficiency):
        for args in ((factor, 0.5), (0.5, factor)):
            with pytest.raises(RangeError):
                call(*args)


def test_late_non_finite_derivative_names_its_node():
    # a NaN midpoint sample between nodes 7 and 8 enters the stencil of both
    traj = schrodinger_evolve(FieldSpec(h0=0.0, h=[1.0, 0.0, 0.2]), PSI0,
                              TimeGrid(0.0, 1.0, 10))
    h_half = traj.h_half.copy()
    h_half[15, 0] = np.nan
    with pytest.raises(FieldError, match="field derivative returned non-finite") as exc:
        curvature_bloch_profile(traj._replace(h_half=h_half))
    assert f"t = {float(traj.times[7])!r}" in str(exc.value)


def test_no_times_sample_to_empty_columns():
    h0, h = sample_field(FieldSpec(h0=0.0, h=[0.0, 0.0, 1.0]), [])
    assert h0.shape == (0,) and h.shape == (0, 3)


def _path(m, m_dot, variant="optimal"):
    """Drive of a constant prescribed path ``m`` with derivative ``m_dot``."""
    def rows(row):
        return lambda t: np.tile(np.asarray(row, dtype=complex), (len(t), 1))
    fam = UzdinFamily(m_state=rows(m), m_dot=rows(m_dot),
                      phase_dot=lambda t: np.ones_like(t))
    return uzdin_optimal(fam) if variant == "optimal" else uzdin_suboptimal(fam, variant)


TIMES = np.linspace(0.0, 1.0, 11)
MESSAGES = {
    "non_finite_sample": (FieldError, lambda: sample_field(
        FieldSpec(h0=lambda t: math.inf if t > 0.5 else 0.0, h=X), TIMES)),
    "invalid_sample": (FieldError, lambda: sample_field(
        FieldSpec(0.0, lambda t: "x"), TIMES)),
    "raising_sample": (FieldError, lambda: sample_field(
        FieldSpec(0.0, lambda t: 1 / 0), TIMES)),
    "path_norm": (NormalizationError, lambda: sample_field(
        _path([1.0, 1.0], [0.0, 0.0]), TIMES)),
    "variant_norm": (NormalizationError, lambda: sample_field(
        _path([1.0 + 1e-11, 0.0], [0.0, 0.0], "trace_zero"), TIMES)),
    "gauge": (PreconditionError, lambda: sample_field(
        _path([1.0, 0.0], [1.0, 0.0]), TIMES)),
    # products past the largest double leave NaN entries in the matrix,
    # and so non-finite rows of h
    "hermiticity": (FieldError, lambda: sample_field(
        _path([0.6, 0.8], [-1.7e308, 1.275e308]), TIMES)),
    "initial_state": (NormalizationError, lambda: schrodinger_evolve(FIELD, [2.0, 0.0])),
    "axis_endpoint": (NormalizationError, lambda: suboptimal_axis(1.0, [0.0, 0.0, 1.0001], X)),
    "family_alpha": (RangeError, lambda: SuboptimalStationary(np.float64(5.0), Z, X)),
    "family_energy": (RangeError, lambda: SuboptimalStationary(1.0, Z, X,
                                                               E=np.float64(-1.0))),
    "default_grid": (ConfigError, lambda: TimeGrid.with_density(np.float64(0.0),
                                                                np.float64(1e300))),
}


@pytest.mark.parametrize("case", list(MESSAGES))
def test_messages_print_plain_floats(case):
    error, call = MESSAGES[case]
    with np.errstate(all="ignore"), pytest.raises(error) as exc:
        call()
    assert "np." not in str(exc.value)
    assert re.search(r"\d", str(exc.value))


def _nested(depth):
    value = [1.0]
    for _ in range(depth - 1):
        value = [value]
    return value


#: values read as numbers or refused, by the config layer's rule without
#: numpy for the JSON types and by ``core._numbers`` for the others
NUMBER_CORPUS = {
    "int64_max": 2**63 - 1, "uint64_min": 2**63, "uint64_max": 2**64 - 1,
    "past_uint64": 2**64, "below_int64": -2**63 - 1, "1e30_int": 10**30,
    "nan": math.nan, "inf": math.inf, "negative_zero": -0.0, "bool": True,
    "str_number": "1.0", "str": "abc", "None": None, "list": [1.0], "dict": {},
    "fraction": Fraction(1, 2), "decimal": Decimal("1"), "complex": 1j,
    "float32": np.float32(1), "numpy_bool": np.bool_(True), "0d_array": np.array(2.5),
    "empty_list": [], "matrix": [[1, 2], [3, 4.5]], "ragged": [[1, 2], [3]],
    "ragged_depth": [[1], 2], "int64_with_uint64": [2**63, -1],
    "bool_entry": [1, True], "str_entry": [1.0, "a"], "None_entry": [1.0, None],
    "past_uint64_entry": [1.0, 2**64], "tuple_entry": [(1.0, 2.0)],
    "depth_32": _nested(32), "depth_33": _nested(33), "depth_70": _nested(70),
}


def _json_built(value):
    return type(value) in (int, float, bool, str, type(None), dict) or (
        type(value) is list and all(map(_json_built, value)))


def _verdict(read, value):
    try:
        return repr(read(value))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _numpy_rule(value):
    """What ``core._numbers`` makes of ``value`` in a scalar context."""
    arr = core._numbers(value, "x")
    return float(arr) if arr.shape == () else None


@pytest.mark.parametrize("value", NUMBER_CORPUS.values(), ids=list(NUMBER_CORPUS))
def test_the_config_number_rule_agrees_with_the_one_rule(monkeypatch, value):
    want = _verdict(_numpy_rule, value)
    calls, numbers = [], core._numbers
    monkeypatch.setattr(core, "_numbers", lambda *args: calls.append(args) or numbers(*args))
    assert _verdict(lambda v: config._number(v, "x"), value) == want
    # lists nested past 32 levels are read by numpy, like every value not
    # built of JSON types
    assert bool(calls) == (not _json_built(value) or value is NUMBER_CORPUS["depth_33"]
                           or value is NUMBER_CORPUS["depth_70"])


_LEAVES = (st.integers(-2**65, 2**65) | st.sampled_from([2**63, 2**64 - 1, 2**64, -2**63 - 1])
           | st.floats() | st.booleans() | st.text(max_size=2) | st.none())
_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=10)
_TABLES = st.integers(0, 3).flatmap(lambda n: st.lists(
    st.lists(st.floats(-3.0, 3.0) | st.integers(-5, 5), min_size=n, max_size=n), max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON | _TABLES)
def test_the_config_number_rule_agrees_on_nested_json(value):
    assert _verdict(lambda v: config._number(v, "x"), value) == _verdict(_numpy_rule, value)
