"""The field-sampling protocol: call contract, batched checks, pinned bytes.

``FieldSpec.sample`` evaluates a whole time array.  Scalar user callables
are still called once per sample, in time order, with a Python float (the
grid's double, bit for bit), and each result is read as soon as it returns,
float64 array rows by their bytes; prescribed-path callables
are called once with the whole array; tabulated and prescribed-path fields
are evaluated in batches.  Each must give the same bits, and the same typed
errors, as one sample at a time.

The byte goldens under ``tests/golden`` were written on x86-64 with Python
3.11.7 and numpy 2.4.6 (SIMD baseline ``X86_V2``; ``X86_V3``, ``X86_V4``,
``AVX512_ICL`` and ``AVX512_SPR`` found) and the default kernel of its
scipy-openblas (SkylakeX on that CPU).  No product goes through BLAS, so
the kernel does not matter; the array ``sin``/``cos``/``exp``/``arctan2``
follow the SIMD dispatch, so on a CPU without AVX-512 a golden cell can
move in its last bits.
"""

import copy
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochpath import (
    ConfigError,
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
from blochpath import core
from blochpath.core import _BLOCK, _as_vec3, _scalar
from blochpath.scenarios import write_csv
from geometry_oracles import pauli_re

GOLDEN = Path(__file__).parent / "golden"
PSI0 = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
#: eleven samples; every failing case below first fails at TIMES[6] = 0.6
TIMES = np.linspace(0.0, 1.0, 11)


def names_first_failure(exc_info):
    assert f"t = {float(TIMES[6])!r}" in str(exc_info.value) \
        or f"m({float(TIMES[6])!r})" in str(exc_info.value)


class Recorder:
    """Callable that records every argument it receives."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, t):
        self.args.append(t)
        return self.fn(t)


def great_circle(t):
    """Array path ``cos t |0> + sin t |1>``: ``(n, 2)`` rows of ``t``."""
    return np.stack([np.cos(t), np.sin(t)], axis=-1).astype(complex)


def great_circle_dot(t):
    return np.stack([-np.sin(t), np.cos(t)], axis=-1).astype(complex)


def late(t):
    """The samples of ``t`` at which the failing cases below go wrong."""
    return np.asarray(t) > 0.55


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
            assert all(type(t) is float for t in rec.args)
            assert np.array(rec.args).tobytes() == grid.half_times.tobytes()
            assert np.all(np.diff(rec.args) > 0.0)

    def test_curvature_makes_no_field_call(self):
        # dh/dt comes from the samples the run already holds
        h0, h = self.recorders()
        field = FieldSpec(h0=h0, h=h, t_span=(0.2, 1.1))
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.2, 1.1, 25))
        n0, n = len(h0.args), len(h.args)
        curvature_bloch_profile(traj)
        assert (len(h0.args), len(h.args)) == (n0, n)

    def test_default_grid_calls_the_field_only_inside_its_span(self):
        # the last sample of the default grid on [0, 0.7] is 0.7 itself, not an ulp past it
        def h(t):
            if not 0.0 <= t <= 0.7:
                raise ValueError(f"t = {t!r} is outside [0, 0.7]")
            return [0.3, 0.0, 1.0]
        traj = schrodinger_evolve(FieldSpec(h0=0.0, h=h, t_span=(0.0, 0.7)), PSI0)
        assert traj.grid.n_steps == 1400

    def test_constant_fields_broadcast(self):
        h0, h = sample_field(FieldSpec(h0=0.25, h=[0.0, 0.5, 0.0]), TIMES)
        assert np.array_equal(h0, np.full(11, 0.25))
        assert np.array_equal(h, np.tile([0.0, 0.5, 0.0], (11, 1)))


def one_at_a_time(fn, times, convert):
    """The reference loop: ``convert(fn(t))`` sample by sample, the first
    failure raised at once and named by its ``t``."""
    rows = []
    for t in times:
        try:
            rows.append(convert(fn(t)))
        except (FieldError, ShapeError):
            raise
        except Exception as exc:
            raise FieldError(f"field evaluation failed at t = {float(t)!r}: {exc}") from exc
    return np.array(rows, dtype=float)


def as_scalar(v):
    return _scalar(v, "h0")


def as_row(v):
    return _as_vec3(v, "field")


class SubFloat(float):
    pass


class SubArray(np.ndarray):
    pass


#: accepted results of a scalar ``h0`` and of a row ``h``, by kind: each
#: branch of the take-as-is check, and kinds that go through the converter
SCALAR_KINDS = {
    "float": float, "int": lambda x: int(x * 1e12), "float_subclass": SubFloat,
    "zero_d": np.array, "float32": np.float32, "float64": np.float64,
}
ROW_KINDS = {
    "array": np.array, "list": list, "tuple": tuple,
    "ints": lambda r: [int(x * 1e12) for x in r],
    "zero_ds": lambda r: [np.array(x) for x in r], "float32": lambda r: np.array(r, np.float32),
    "strided": lambda r: np.repeat(np.array(r), 2)[::2],
    "big_endian": lambda r: np.array(r, ">f8"),
    "array_subclass": lambda r: np.array(r).view(SubArray),
}
#: the kinds taken as they are: a ``float``, or a native float64 row of shape (3,)
TAKEN_AS_IS = {"float", "float_subclass", "float64", "array", "strided", "array_subclass"}


def two_or_four(t):
    """float64 arrays of lengths 2 and 4 in turn on ``TestBlockConversion``'s
    grid: each pair holds the bytes of two rows of 3."""
    return np.full(4 if round((TestBlockConversion.N - 1) * t) % 2 else 2, t)


def results_of(kinds, made):
    """A callable returning a new result for each call, cycling through
    ``made``: pairs of a kind's name and its argument."""
    calls = itertools.count()

    def fn(t):
        name, value = made[next(calls) % len(made)]
        return kinds[name](value)
    return fn


def refilled(*buffers):
    """A callable that fills and returns ``buffers`` in turn with the row
    ``(cos t, sin t, t)``."""
    ring = itertools.cycle(buffers)

    def h(t):
        out = next(ring)
        out[:] = [math.cos(t), math.sin(t), t]
        return out
    return h


def negating_the_last_list():
    """A callable returning a new list ``(cos t, sin t, t)`` at each call,
    after negating the list it returned last."""
    returned = []

    def h(t):
        if returned:
            returned[-1][:] = [-x for x in returned[-1]]
        returned.append([math.cos(t), math.sin(t), t])
        return returned[-1]
    return h


finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestBlockConversion:
    """Results are read as they return and copied into the output
    ``_BLOCK`` samples at a time, with the bits, errors and first failing
    ``t`` of one sample at a time, and no call after the first failure."""

    N = 2 * _BLOCK + 88  # more than two blocks

    @settings(max_examples=60, deadline=None)
    @given(made=st.lists(st.tuples(st.sampled_from(sorted(ROW_KINDS)),
                                   st.tuples(finite, finite, finite)), min_size=1, max_size=6),
           scalars=st.lists(st.tuples(st.sampled_from(sorted(SCALAR_KINDS)), finite),
                            min_size=1, max_size=6),
           n=st.integers(1, N))
    def test_blocks_give_the_bits_of_one_sample_at_a_time(self, made, scalars, n):
        # float64 array rows and Python floats are taken as they are, every
        # other kind through the one-sample converter
        times = np.linspace(0.0, 1.0, n)
        h0, h = FieldSpec(h0=results_of(SCALAR_KINDS, scalars),
                          h=results_of(ROW_KINDS, made)).sample(times)
        want_h0 = one_at_a_time(results_of(SCALAR_KINDS, scalars), times, as_scalar)
        want_h = one_at_a_time(results_of(ROW_KINDS, made), times, as_row)
        assert h0.tobytes() == want_h0.tobytes()
        assert h.tobytes() == want_h.tobytes()

    @pytest.mark.parametrize("where, kind", [("h0", k) for k in sorted(SCALAR_KINDS)]
                             + [("h", k) for k in sorted(ROW_KINDS)])
    def test_only_floats_and_native_float64_rows_skip_the_converter(self, where, kind,
                                                                      monkeypatch):
        kinds, value, converter = ((SCALAR_KINDS, 0.25, "_scalar") if where == "h0"
                                   else (ROW_KINDS, (0.25, -0.5, 1.0), "_as_vec3"))
        fn = results_of(kinds, [(kind, value)])
        field = FieldSpec(h0=fn, h=np.ones(3)) if where == "h0" else FieldSpec(h0=0.0, h=fn)
        calls, convert = [], getattr(core, converter)
        monkeypatch.setattr(core, converter, lambda *a: calls.append(a) or convert(*a))
        field.sample(TIMES)
        assert len(calls) == (0 if kind in TAKEN_AS_IS else len(TIMES))

    @staticmethod
    def bad_at(k, bad, good):
        calls = itertools.count()
        return lambda t: bad if next(calls) == k else good(t)

    @pytest.mark.parametrize("k", [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, N - 1])
    @pytest.mark.parametrize("bad", [[1.0, 2.0], "x", 1j, [1j, 0.0, 0.0], np.array([1.0]),
                                     True, "0.5", [True, False, True], ["0.5", "1.0", "0.25"],
                                     [True, 0.0, 0.0], [0.5, False, 0.25]],
                             ids=["two_vector", "string", "complex", "complex_row", "one_array",
                                  "bool", "numeric_string", "bools", "strings", "bool_entry",
                                  "bool_beside_reals"])
    @pytest.mark.parametrize("where", ["h0", "h"])
    def test_invalid_value_raises_as_one_sample_at_a_time(self, k, bad, where):
        times = np.linspace(0.0, 1.0, self.N)
        good, convert = ((lambda t: 0.5 * t, as_scalar) if where == "h0"
                         else (lambda t: [t, 1.0, 0.5], as_row))
        with pytest.raises((FieldError, ShapeError)) as want:
            one_at_a_time(self.bad_at(k, bad, good), times, convert)
        field = (FieldSpec(h0=self.bad_at(k, bad, good), h=np.ones(3)) if where == "h0"
                 else FieldSpec(h0=0.0, h=self.bad_at(k, bad, good)))
        with pytest.raises(want.type) as got:
            field.sample(times)
        assert str(got.value) == str(want.value)
        assert f"t = {float(times[k])!r}" in str(got.value) or isinstance(got.value, ShapeError)

    @pytest.mark.parametrize("bad", [[1.0], np.array([1.0]), [[1.0, 2.0, 3.0]],
                                     np.array([[1.0], [2.0], [3.0]]), two_or_four],
                             ids=["list", "array", "nested", "column", "two_or_four"])
    @pytest.mark.parametrize("where", ["h0", "h"])
    def test_a_block_of_wrong_shapes_is_never_broadcast(self, bad, where):
        # every sample past the first two is wrong the same way, or in turn
        # two ways whose bytes would join to rows of 3
        times = np.linspace(0.0, 1.0, self.N)
        convert, good = ((as_scalar, float) if where == "h0"
                         else (as_row, lambda t: [t, 0.0, 1.0]))

        def fn(t):
            if t <= times[1]:
                return good(t)
            return bad(t) if callable(bad) else copy.deepcopy(bad)

        with pytest.raises((FieldError, ShapeError)) as want:
            one_at_a_time(fn, times, convert)
        field = (FieldSpec(h0=fn, h=np.ones(3)) if where == "h0"
                 else FieldSpec(h0=0.0, h=fn))
        with pytest.raises(want.type) as got:
            field.sample(times)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [[1.0, 2.0], "x"])
    def test_an_earlier_invalid_value_wins_over_a_later_raise(self, bad):
        # sample 30 is invalid and the call at sample 39 would raise: the
        # invalid value raises at once, and sample 31 is never called
        def counted(calls):
            def h(t):
                calls.append(t)
                if len(calls) == 40:
                    raise ValueError("boom")
                return bad if len(calls) == 31 else [t, 0.0, 1.0]
            return h

        times = np.linspace(0.0, 1.0, self.N)
        with pytest.raises((FieldError, ShapeError)) as want:
            one_at_a_time(counted([]), times, as_row)
        calls = []
        with pytest.raises(want.type) as got:
            FieldSpec(h0=0.0, h=counted(calls)).sample(times)
        assert str(got.value) == str(want.value)
        assert "boom" not in str(got.value)
        assert len(calls) == 31

    def test_a_raise_names_its_own_sample(self):
        times = np.linspace(0.0, 1.0, self.N)
        calls = []

        def h(t):
            calls.append(t)
            if len(calls) == 300:
                raise ValueError("boom")
            return [t, 0.0, 1.0]

        with pytest.raises(FieldError, match="boom") as exc:
            FieldSpec(h0=0.0, h=h).sample(times)
        assert f"t = {float(times[299])!r}" in str(exc.value)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_no_sample_is_evaluated_after_an_invalid_one(self):
        times = np.linspace(0.0, 1.0, self.N)
        calls = []

        def h(t):
            calls.append(t)
            return [1.0, 2.0] if len(calls) == 5 else [t, 0.0, 1.0]

        with pytest.raises(ShapeError):
            FieldSpec(h0=0.0, h=h).sample(times)
        assert len(calls) == 5

    @pytest.mark.parametrize("make", [lambda: refilled(np.zeros(3)),
                                      lambda: refilled([0.0, 0.0, 0.0]),
                                      lambda: refilled(np.zeros(3), np.zeros(3)),
                                      negating_the_last_list],
                             ids=["array", "list", "ring_of_two_arrays", "edited_list"])
    def test_a_reused_output_buffer_is_read_as_it_returns(self, make):
        # a callable that refills or edits an object it has returned sees
        # each result read before the next call changes it
        times = np.linspace(0.0, 1.0, self.N)
        fresh = FieldSpec(h0=0.0, h=lambda t: [math.cos(t), math.sin(t), t]).sample(times)[1]
        got = FieldSpec(h0=0.0, h=make()).sample(times)[1]
        assert np.array_equal(got, fresh), np.abs(got - fresh).max()

    def test_memory_is_bounded_by_a_block(self):
        # results are held one block at a time, not for the whole run
        field = FieldSpec(h0=0.0, h=lambda t: np.array([math.sin(t), 0.5, t]))
        times = np.linspace(0.0, 1.0, 10**5)
        tracemalloc.start()
        try:
            h0, h = field.sample(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h0.nbytes + h.nbytes + 2**20, peak


class TestPathCallContract:
    """Every prescribed-path callable, and a table's interpolation, is called
    once per batch with the whole float64 time array."""

    @staticmethod
    def called_once_with(rec, times):
        (arg,) = rec.args
        assert type(arg) is np.ndarray and arg.dtype == np.float64
        assert np.array_equal(arg, times)

    def test_each_callable_is_called_once_with_the_full_array(self):
        recs = {"m_state": Recorder(great_circle), "m_dot": Recorder(great_circle_dot),
                "phase_dot": Recorder(lambda t: np.full(t.shape, 0.5))}
        field = uzdin_suboptimal(UzdinFamily(**recs), "trace_nonzero")
        field.sample(TIMES)
        for rec in recs.values():
            self.called_once_with(rec, TIMES)

    def test_a_table_is_read_once_per_sample_call(self):
        field, _, _ = build_scenario(ScenarioConfig(scenario="custom", field={
            "times": [0.0, 0.4, 1.0], "h": [[1.0, 0.0, 0.2], [0.5, 0.4, 0.0], [0.2, 0.1, 0.9]]}))
        field.rows = rows = Recorder(field.rows)
        field.sample(TIMES.tolist())
        self.called_once_with(rows, TIMES)
        sample_field(field, TIMES)
        assert len(rows.args) == 2


def builtin_closures(scenario, params):
    """The path closures of a built-in prescribed-path scenario, by name."""
    field, _, _ = build_scenario(ScenarioConfig(scenario=scenario, parameters=params))
    fam = field.rows.args[0]
    closures = {"m": fam.m_state, "m_dot": fam.m_dot}
    if fam.phase_dot is not None:
        closures["phase_dot"] = fam.phase_dot
    return closures


reals = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(["example2", "example4"]),
       params=st.tuples(reals, reals, reals, reals),
       times=arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-50.0, 50.0, allow_subnormal=False)))
def test_builtin_closures_equal_elementwise_calls_bit_for_bit(scenario, params, times):
    # the array closures replaced one call per sample; SIMD loops must not
    # round differently from the one-element evaluations they replaced
    omega0, nu0, varphi0, theta0 = params
    chosen = ({"omega0": omega0, "nu0": nu0, "varphi0": varphi0, "theta0": theta0}
              if scenario == "example2" else {"gamma": omega0})
    for name, fn in builtin_closures(scenario, chosen).items():
        rows = fn(times)
        assert rows.shape[0] == times.shape[0]
        for k, t in enumerate(times):
            assert rows[k].tobytes() == np.asarray(fn(t)).tobytes(), (name, t)


def batched_fields():
    """One field of every batched kind."""
    phased = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot,
                         phase_dot=lambda t: 0.8 * t)
    tabulated, _, _ = build_scenario(ScenarioConfig(scenario="custom", field={
        "times": [0.0, 0.3, 0.7, 1.0],
        "h": [[1.0, 0.0, 0.2], [0.5, 0.4, 0.0], [0.2, 0.1, 0.9], [0.0, 1.0, 0.3]],
        "h0": [0.1, -0.2, 0.3, 0.0]}))
    return [uzdin_optimal(UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)),
            uzdin_suboptimal(phased, "trace_nonzero"), tabulated]


@pytest.mark.parametrize("field", batched_fields(),
                         ids=["uzdin_optimal", "uzdin_trace_nonzero", "tabulated"])
def test_batched_rows_equal_single_samples(field):
    times = np.linspace(0.05, 0.95, 7)
    h0, h = field.sample(times)
    for k, t in enumerate(times):
        one_h0, one_h = field.sample([t])
        assert h0[k] == one_h0[0]
        assert np.array_equal(h[k], one_h[0])


every_field_kind = pytest.mark.parametrize("field", [
    FieldSpec(h0=0.2, h=[0.0, 0.0, 1.0]),
    FieldSpec(h0=lambda t: 0.1 * t, h=lambda t: [t, 0.0, 1.0]),
    *batched_fields(),
], ids=["constant", "callable", "uzdin_optimal", "uzdin_trace_nonzero", "tabulated"])


def every_sampler(field, times):
    return (lambda: sample_field(field, times), lambda: field.sample(times))


@pytest.mark.parametrize("times", [0.5, np.array(0.5), [[0.1, 0.2], [0.3, 0.4]]],
                         ids=["float", "zero_d", "two_d"])
@every_field_kind
def test_times_that_are_not_one_dimensional_are_a_shape_error(field, times):
    for sample in every_sampler(field, times):
        with pytest.raises(ShapeError, match="1-D array of times"):
            sample()


@pytest.mark.parametrize("times, message", [
    (["a", "b"], "real numbers"),
    ([1j, 2j], "real numbers"),
    (np.array([0.5, 1j]), "real numbers"),
    ([np.nan, 0.5], "nan at index 0 is not finite"),
    ([0.5, -np.inf], "-inf at index 1 is not finite"),
], ids=["strings", "complex_list", "complex_array", "nan", "inf"])
@every_field_kind
def test_times_that_are_not_finite_reals_are_a_config_error(field, times, message):
    for sample in every_sampler(field, times):
        with pytest.raises(ConfigError, match=message):
            sample()


def scalar_reference(fam, variant, t):
    """One sample of a prescribed-path drive in scalar arithmetic: the field
    ``Re <m|sigma|i dm/dt>`` and the Bloch vector ``<m|sigma|m>`` as sums of
    Python-float products (:func:`geometry_oracles.pauli_re`)."""
    m = np.asarray(fam.m_state(t), dtype=complex)
    md = np.asarray(fam.m_dot(t), dtype=complex)
    h = pauli_re(m, [1j * complex(c) for c in md])
    if variant == "optimal":
        return 0.0, h
    a_m = pauli_re(m, m)
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
        fam = field.rows.args[0]
        field = (uzdin_optimal(fam) if variant == "optimal"
                 else uzdin_suboptimal(fam, variant))
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
            gamma = np.where(late(t), 3.0 * (t - 0.55) ** 2, 0.0)
            return np.exp(1j * gamma)[..., None] * great_circle(t)

        def spinning_dot(t):
            gamma = np.where(late(t), 3.0 * (t - 0.55) ** 2, 0.0)
            gamma_dot = np.where(late(t), 6.0 * (t - 0.55), 0.0)
            return np.exp(1j * gamma)[..., None] * (
                1j * gamma_dot[..., None] * great_circle(t) + great_circle_dot(t))

        field = uzdin_optimal(UzdinFamily(m_state=spinning, m_dot=spinning_dot))
        with pytest.raises(PreconditionError) as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    @staticmethod
    def scaled(excess):
        return lambda t: (1.0 + np.where(late(t), excess, 0.0))[..., None] \
            * great_circle(t)

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
        # the phase term's Bloch map holds the path to 1e-12: norm^2 1 + 1e-11
        # passes as an optimal drive and fails as a variant
        fam = UzdinFamily(m_state=self.scaled(5e-12), m_dot=great_circle_dot,
                          phase_dot=lambda t: np.full(t.shape, 0.5))
        sample_field(uzdin_optimal(fam), TIMES)
        with pytest.raises(NormalizationError, match=r"has norm\^2 = 1\.00000000001") as exc:
            sample_field(uzdin_suboptimal(fam, "trace_zero"), TIMES)
        names_first_failure(exc)

    def test_a_variant_names_the_first_row_past_its_tolerance(self):
        # norm^2 1 + 4e-11 from t = 0.6 and 1 + 4e-10 from t = 0.8: the one
        # check, at the variant's tolerance, names t = 0.6, not the first row
        # past the optimal drive's tolerance
        def m_state(t):
            return (1.0 + np.where(t > 0.75, 2e-10, np.where(late(t), 2e-11, 0.0)))[..., None] \
                * great_circle(t)

        fam = UzdinFamily(m_state=m_state, m_dot=great_circle_dot,
                          phase_dot=lambda t: np.full(t.shape, 0.5))
        with pytest.raises(NormalizationError) as exc:
            sample_field(uzdin_suboptimal(fam, "trace_nonzero"), TIMES)
        names_first_failure(exc)

    def test_the_path_norm_is_checked_before_the_phase_is_read(self):
        def phase_dot(t):
            raise AssertionError("phase_dot read before the path norm was checked")

        fam = UzdinFamily(m_state=self.scaled(2e-11), m_dot=great_circle_dot,
                          phase_dot=phase_dot)
        with pytest.raises(NormalizationError) as exc:
            sample_field(uzdin_suboptimal(fam, "trace_zero"), TIMES)
        names_first_failure(exc)

    def test_hermiticity_rejects_nan(self):
        # a NaN derivative is named as such before any check compares it
        def m_dot(t):
            return great_circle_dot(t) * np.where(late(t), np.nan, 1.0)[..., None]

        field = uzdin_optimal(UzdinFamily(m_state=great_circle, m_dot=m_dot))
        with pytest.raises(FieldError, match="m_dot returned non-finite") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    def test_hermiticity_names_the_first_overflowing_row(self):
        # finite entries are Hermitian up to rounding of size eps |dm/dt|;
        # a derivative near the largest double overflows them to inf and NaN,
        # which leave the drive's h non-finite on those rows
        def m_dot(t):
            scale = np.where(late(t), 1.5e308, 1.0) * (1.0 + 1.0j)
            return scale[..., None] * great_circle_dot(t)

        fam = UzdinFamily(m_state=lambda t: np.exp(0.25j * np.pi) * great_circle(t),
                          m_dot=m_dot)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FieldError, match="field returned non-finite") as exc:
            sample_field(uzdin_optimal(fam), TIMES)
        names_first_failure(exc)

    @pytest.mark.parametrize("name", ["m_state", "phase_dot"])
    def test_non_finite_path_rows_are_named(self, name):
        def late_nan(value):
            def fn(t):
                rows = value(t)
                rows[late(t)] = np.nan
                return rows
            return fn

        callables = {"m_state": great_circle, "m_dot": great_circle_dot,
                     "phase_dot": lambda t: np.full(t.shape, 0.5)}
        callables[name] = late_nan(callables[name])
        field = uzdin_suboptimal(UzdinFamily(**callables), "trace_zero")
        with pytest.raises(FieldError, match=f"{name} returned non-finite") as exc:
            sample_field(field, TIMES)
        names_first_failure(exc)

    def test_complex_phase_is_not_truncated(self):
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot,
                          phase_dot=lambda t: np.full(t.shape, 0.5 + 0.1j))
        with pytest.raises(FieldError, match="phase_dot"):
            sample_field(uzdin_suboptimal(fam, "trace_zero"), TIMES)

    @pytest.mark.parametrize("gamma", [1e4, 1e6])
    def test_hermiticity_tolerance_scales_with_the_path_speed(self, gamma):
        # the gauge <m|dm/dt> of a transported path is rounding of size
        # eps |dm/dt|; with gamma t_end = 10 every run traces one path
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
                if np.any(late(t)):
                    raise ValueError("boom")
                return value(t)
            return fn

        if where == "m_state":
            field = uzdin_optimal(UzdinFamily(m_state=fail_late(great_circle),
                                              m_dot=great_circle_dot))
        elif where == "h":
            field = FieldSpec(h0=0.0, h=fail_late(lambda t: np.ones(3)))
        else:
            field = FieldSpec(h0=fail_late(lambda t: 0.0), h=np.ones(3))
        with pytest.raises(FieldError, match="boom") as exc:
            sample_field(field, TIMES)
        if where == "m_state":
            # one call on the whole array: no single sample to name
            assert "m_state" in str(exc.value)
        else:
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
        field = uzdin_optimal(UzdinFamily(m_state=lambda t: np.ones(3) / np.sqrt(3),
                                          m_dot=great_circle_dot))
        with pytest.raises(ShapeError, match="m_state"):
            sample_field(field, TIMES)


def transported_path(t):
    """Parallel-transported path at polar angle 0.4 + 1.3 t and azimuth
    0.2 + 2.1 t: the global phase cancels <m|dm/dt>."""
    theta, phi = 0.4 + 1.3 * t, 0.2 + 2.1 * t
    gamma = -1.05 * (t - np.sin(theta) / 1.3)
    return np.exp(1j * gamma)[..., None] * np.stack(
        [np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)], axis=-1)


def transported_path_dot(t):
    """Derivative of :func:`transported_path`, with the phase rate
    ``gamma' = -2.1 sin^2(theta/2)``."""
    theta, phi = 0.4 + 1.3 * t, 0.2 + 2.1 * t
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    gamma = -1.05 * (t - np.sin(theta) / 1.3)
    turn = np.stack([-0.65 * s, np.exp(1j * phi) * (2.1j * s + 0.65 * c)], axis=-1)
    return np.exp(1j * gamma)[..., None] * turn \
        + (-2.1j * s * s)[..., None] * transported_path(t)


def test_trace_zero_uzdin_drive_matches_golden_bytes(tmp_path):
    # the curvature column pins dh/dt as the stencil of the drive's node and
    # midpoint samples
    fam = UzdinFamily(m_state=transported_path, m_dot=transported_path_dot,
                      phase_dot=lambda t: 0.4 + 0.6 * np.cos(2.0 * t),
                      t_span=(0.1, 0.8))
    field = uzdin_suboptimal(fam, "trace_zero")
    traj = schrodinger_evolve(field, transported_path(0.1), TimeGrid(0.1, 0.8, 30))
    write_csv(tmp_path / "uzdin.csv", {
        "t": traj.times, "h0": traj.h0_nodes, "h_x": traj.h_nodes[:, 0],
        "h_y": traj.h_nodes[:, 1], "h_z": traj.h_nodes[:, 2],
        "re_c0": traj.states[:, 0].real, "im_c0": traj.states[:, 0].imag,
        "re_c1": traj.states[:, 1].real, "im_c1": traj.states[:, 1].imag,
        "kappa_bloch": curvature_bloch_profile(traj)})
    assert (tmp_path / "uzdin.csv").read_bytes() \
        == (GOLDEN / "uzdin_trace_zero_n30.csv").read_bytes()


#: sha256 of ``curvature_bloch_profile``'s bytes on a 40-step run and on the
#: default grid, ``dh/dt`` the stencil of the run's samples: a table and
#: ``example4``'s path drive; a change to how fields are built, or to which
#: rows the closed form scales, must not move them
CURVATURE_DIGESTS = {"table": "88d55e961bdbeebd", "path": "28e79904f5fec21e",
                     "table_default": "a88aed22a262f7ca", "path_default": "c5e0cca21ac72801"}


@pytest.mark.parametrize("kind", list(CURVATURE_DIGESTS))
def test_curvature_profile_bytes_are_pinned(kind):
    knots = np.linspace(0.0, 1.2, 9)
    table = {"times": knots.tolist(), "h0": (0.2 * np.cos(4.0 * knots)).tolist(),
             "h": np.stack([0.8 + 0.3 * np.sin(3.0 * knots), 0.4 * np.cos(2.0 * knots),
                            0.5 - 0.6 * knots], axis=1).tolist()}
    if kind.startswith("table"):
        config = ScenarioConfig(scenario="custom", field=table, t_span=(0.05, 1.1),
                                psi0={"bloch": [0.0, 0.6, 0.8]})
    else:
        config = ScenarioConfig(scenario="example4", parameters={"gamma": 1.7},
                                t_span=(0.1, 0.9))
    field, psi0, grid = build_scenario(config)
    if not kind.endswith("_default"):
        grid = TimeGrid(*field.t_span, 40)
    traj = schrodinger_evolve(field, psi0, grid)
    digest = hashlib.sha256(curvature_bloch_profile(traj).tobytes()).hexdigest()
    assert digest[:16] == CURVATURE_DIGESTS[kind]
