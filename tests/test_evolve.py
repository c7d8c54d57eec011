"""Time grids, RK4 integrators, parallel transport, path-length bookkeeping."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    ConfigError,
    FieldError,
    FieldSpec,
    IntegrationError,
    NormalizationError,
    NumericalError,
    ScenarioConfig,
    ShapeError,
    TimeGrid,
    build_scenario,
    parallel_transport,
    run_report,
    sample_field,
    schrodinger_evolve,
    state_from_bloch,
)
from blochpath.core import _pauli_re
from blochpath.evolve import MAX_STEPS, _same_rows, _trapezoid
from exact_paths import fixed_axis_bloch, fixed_axis_states, wobbling_drive
from feynman import feynman_evolve
from geometry_oracles import transport_residual
from rk4_loop import hillis_steele_rk4, sequential_rk4

PSI0 = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
SIGMA_Z_FIELD = FieldSpec(h0=0.0, h=np.array([0.0, 0.0, 1.0]))


def analytic_sigma_z(t):
    return np.array([np.sqrt(3) / 2 * np.exp(-1j * t), 0.5 * np.exp(1j * t)])


def exact_states(h0, h, psi0, times):
    """``exp(-i t (h0 + h.sigma)) psi0`` at ``t = times - times[0]``."""
    norm = np.linalg.norm(h)
    axis = np.asarray(h) / norm if norm > 0.0 else np.array([0.0, 0.0, 1.0])
    t = times - times[0]
    return fixed_axis_states(psi0, axis, norm * t, h0 * t)


class TestTimeGrid:
    def test_basic_properties(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.dt == pytest.approx(0.25)
        assert g.n_nodes == 5
        assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.half_times.shape == (9,)
        assert np.allclose(g.half_times[::2], g.times)

    @given(start=st.floats(-10.0, 10.0), length=st.floats(1e-3, 10.0),
           n=st.integers(2, 4999))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_half_times_hold_the_nodes_and_end_at_t_end(self, start, length, n):
        # no sample lies past the span, and the node samples are the run's times
        g = TimeGrid(start, start + length, n)
        assert g.half_times[-1] == g.t_end
        assert g.half_times[::2].tobytes() == g.times.tobytes()

    def test_default_density(self):
        g = TimeGrid.with_density(0.0, 1.0)
        assert g.n_steps == 2000
        assert TimeGrid.with_density(0.0, 0.5).n_steps == 1000

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 1),
        (1.0, 0.0, 10),
        (0.0, np.inf, 10),
        (np.nan, 1.0, 10),
    ])
    def test_rejects_bad_construction(self, args):
        with pytest.raises(ConfigError):
            TimeGrid(*args)

    @pytest.mark.parametrize("steps", ["3", None, np.nan, np.inf, -np.inf,
                                       True, 2.5, 1, 1.0, [3]])
    def test_step_count_must_be_an_integral_real_of_at_least_2(self, steps):
        with pytest.raises(ConfigError, match="n_steps"):
            TimeGrid(0.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [3.0, np.float64(3.0), np.int64(3)])
    def test_integral_step_count_is_stored_as_an_int(self, steps):
        grid = TimeGrid(0.0, 1.0, steps)
        assert grid.n_steps == 3 and type(grid.n_steps) is int
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, grid)
        assert traj.n_nodes == 4

    def test_step_cap_is_enforced_at_construction(self):
        # constructing a grid allocates nothing, so the cap itself is cheap
        assert TimeGrid(0.0, 1.0, MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ConfigError, match=str(MAX_STEPS)):
            TimeGrid(0.0, 1.0, MAX_STEPS + 1)
        for span in ((0.0, 1e6), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match=str(MAX_STEPS)):
                TimeGrid.with_density(*span)

    @pytest.mark.parametrize("span", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf),
                                      (-np.inf, 0.0), (np.nan, np.nan), ("0", 1.0),
                                      (0.0, None), (0.0, True), (0.0, 10**400)])
    def test_default_density_of_a_non_finite_span_is_a_config_error(self, span):
        with pytest.raises(ConfigError, match="endpoints must be finite"):
            TimeGrid.with_density(*span)


class TestFieldSampling:
    def test_samples_constants_and_callables(self):
        f = FieldSpec(h0=lambda t: 2.0 * t, h=np.array([1.0, 0.0, 0.0]))
        h0, h = sample_field(f, np.array([0.0, 0.5, 1.0]))
        assert np.allclose(h0, [0.0, 1.0, 2.0])
        assert h.shape == (3, 3)
        assert np.allclose(h[:, 0], 1.0)

    def test_non_finite_values_are_rejected(self):
        f = FieldSpec(h0=0.0,
                      h=lambda t: np.array([np.nan if t == 0.0 else 1.0,
                                            0.0, 0.0]))
        with pytest.raises(FieldError):
            sample_field(f, np.array([0.0, 1.0]))

    def test_raising_callable_is_wrapped(self):
        def bad(t):
            raise ValueError("boom")

        with pytest.raises(FieldError):
            sample_field(FieldSpec(h0=bad, h=np.zeros(3)), np.array([0.0]))


class TestSchrodingerEvolve:
    def test_matches_analytic_constant_field(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 1000))
        err = np.linalg.norm(traj.states[-1] - analytic_sigma_z(1.0))
        assert err < 1e-7

    def test_fourth_order_convergence(self):
        # a drive about a fixed axis whose magnitude varies: a constant field
        # is solved in closed form, to rounding
        axis, f, h0, turn, phase = wobbling_drive(0.0, 1.0)
        field = FieldSpec(h0=h0, h=lambda t: f(t) * axis)
        exact = fixed_axis_states(PSI0, axis, [turn(1.0)], phase(1.0))[0]
        errs = [np.linalg.norm(schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, n))
                               .states[-1] - exact) for n in (100, 200, 400)]
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e4])
    def test_constant_fields_precess_to_rounding(self, magnitude):
        # no step bound: the error of exp(-i t H) is about eps |h| t at any |h| dt
        axis = np.array([0.48, -0.6, 0.64])
        traj = schrodinger_evolve(FieldSpec(h0=0.7 * magnitude, h=magnitude * axis), PSI0)
        exact = exact_states(0.7 * magnitude, magnitude * axis, PSI0, traj.times)
        assert np.max(np.abs(traj.states - exact)) <= 1e-15 * max(1.0, 1.7 * magnitude)
        bloch = fixed_axis_bloch(traj.bloch[0], axis, magnitude * traj.times)
        assert np.max(np.abs(traj.bloch - bloch)) <= 3e-15 * max(1.0, magnitude)

    def test_renormalized_states_stay_unit(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 500))
        norms = np.einsum("ij,ij->i", traj.states.conj(), traj.states).real
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.max(np.abs(np.einsum("ij,ij->i", traj.bloch,
                                       traj.bloch) - 1.0)) < 1e-8

    def test_violent_step_raises(self):
        # a time-varying field; a constant one has no step bound
        field = FieldSpec(h0=0.0, h=lambda t: np.array([80.0 + t, 0.0, 0.0]))
        with pytest.raises(IntegrationError):
            schrodinger_evolve(field, np.array([1.0, 0.0], dtype=complex),
                               TimeGrid(0.0, 1.0, 2))

    def test_overflowing_field_raises_at_the_first_step(self):
        # the state turns into NaN, which a plain `drift > bound` lets pass
        huge = FieldSpec(h0=0.0, h=np.array([0.0, 1e300, 0.0]))
        with pytest.raises(IntegrationError, match="not finite after step 0"):
            schrodinger_evolve(huge, PSI0, TimeGrid(0.0, 1.0, 20))

    @pytest.mark.parametrize("field", [
        FieldSpec(h0=0.0, h=lambda t: np.array([1e160 * (1.0 + 0.1 * t), 0.0, 0.0])),
        FieldSpec(h0=lambda t: 1e160 * (1.0 + 0.1 * t), h=np.array([0.0, 0.0, 1.0])),
    ], ids=["h", "h0"])
    def test_float_edge_an_overflowing_varying_field_is_an_integration_error(self, field):
        # the step matrices overflow: a typed error, not a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="not finite after step 0"):
                schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 20))

    @pytest.mark.parametrize("scenario, parameters, field", [
        ("example1", {"omega0": 1e300}, None),
        ("example3", {"gamma": 1e300}, None),
        ("example4", {"gamma": 1e10}, None),
        ("custom", {}, {"times": [0.0, 1.0], "h": [[1e300, 0.0, 0.0], [1e300, 0.0, 1e300]]}),
    ], ids=["example1", "example3", "example4", "table"])
    def test_float_edge_an_overflowing_run_is_an_integration_error(self, scenario,
                                                                   parameters, field):
        config = ScenarioConfig(scenario, parameters, field=field, outputs=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="after step 0|in step 0"):
                run_report(config)

    @pytest.mark.parametrize("h0, h, size", [(0.0, (0.0, 1e300, 0.0), "1.000e+300"),
                                             (0.0, (1e160, 0.0, 0.0), "1.000e+160"),
                                             (1e200, (0.0, 6e199, 8e199), "2.000e+200")])
    def test_overflowing_stationary_field_names_its_magnitude(self, h0, h, size):
        # exp(-itH) has no step bound, so the remedy is not a smaller dt
        field = FieldSpec(h0=h0, h=np.array(h))
        with pytest.raises(IntegrationError) as err:
            schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 2000))
        assert str(err.value) == ("state norm is not finite after step 0; field magnitude "
                                  f"{size} overflows exp(-itH)")

    def test_validate_rejects_a_half_grid_of_the_wrong_length(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 20))
        assert traj.h_half.shape == (41, 3) and traj.h0_half.shape == (41,)
        assert np.shares_memory(traj.h_nodes, traj.h_half)
        for name, half in (("h_half", traj.h_half), ("h0_half", traj.h0_half)):
            for rows in (half[:-1], half[::2]):
                with pytest.raises(ShapeError, match=f"{name} has shape"):
                    traj._replace(**{name: rows}).validate()

    def test_validate_rejects_non_finite_bloch_vectors(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 20))
        bloch = traj.bloch.copy()
        bloch[5, 1] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            traj._replace(bloch=bloch).validate()

    def test_initial_state_validation(self):
        with pytest.raises(ShapeError):
            schrodinger_evolve(SIGMA_Z_FIELD, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NormalizationError):
            schrodinger_evolve(SIGMA_Z_FIELD, np.array([1.0, 1.0]))
        with pytest.raises(NormalizationError):
            schrodinger_evolve(SIGMA_Z_FIELD, np.array([np.nan, 0.0]))

    def test_trace_does_not_move_the_bloch_vector(self):
        with_trace = FieldSpec(h0=lambda t: np.sin(3.0 * t),
                               h=np.array([0.0, 0.0, 1.0]))
        grid = TimeGrid(0.0, 1.0, 1000)
        a = schrodinger_evolve(with_trace, PSI0, grid).bloch
        b = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, grid).bloch
        assert np.max(np.abs(a - b)) < 1e-9

    def test_path_length_constant_dispersion(self):
        # dE = sqrt(3)/2 throughout, so s(T) = 2 dE T exactly
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 400))
        assert traj.s_accum[-1] == pytest.approx(np.sqrt(3), abs=1e-12)
        assert traj.s_accum[0] == 0.0
        assert np.all(np.diff(traj.s_accum) >= 0.0)


coefficients = st.floats(min_value=-4.0, max_value=4.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def drives(draw):
    """``(field, psi0, grid)``: a constant, callable or tabulated drive over
    up to 2500 steps, three blocks of the propagator; block edges are drawn
    on purpose."""
    kind = draw(st.sampled_from(["constant", "callable", "tabulated"]))
    t0 = draw(st.floats(min_value=-1.0, max_value=1.0))
    steps = st.sampled_from([1023, 1024, 1025, 2048, 2049, 2500])
    grid = TimeGrid(t0, t0 + draw(st.floats(min_value=0.1, max_value=2.0)),
                    draw(steps | st.integers(min_value=2, max_value=2500)))
    c = np.array(draw(st.lists(coefficients, min_size=6, max_size=6)))
    norm = np.linalg.norm(c[:3])
    bloch = c[:3] / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
    if kind == "callable":
        field = FieldSpec(h0=lambda t: c[3] * np.cos(c[4] * t),
                          h=lambda t: np.array([c[0], c[5] * np.sin(c[1] * t),
                                                c[2] + c[4] * t]))
        return field, state_from_bloch(bloch), grid
    if kind == "constant":
        table = {"h0": float(c[3]), "h": c[3:].tolist()}
    else:
        knots = np.linspace(grid.t_start, grid.t_end, 7)
        table = {"times": knots.tolist(), "h0": (c[5] * knots).tolist(),
                 "h": np.outer(np.cos(c[4] * knots), c[:3]).tolist()}
    field, psi0, _ = build_scenario(ScenarioConfig(
        scenario="custom", field=table, psi0={"bloch": list(bloch)}))
    return field, psi0, grid


def _failing_step(run, *args):
    """``run(*args)``, or the step an :class:`IntegrationError` from it names."""
    try:
        return run(*args)
    except IntegrationError as exc:
        return int(re.search(r"step (\d+)", str(exc)).group(1))


class TestBlockedPropagator:
    @given(drives())
    @settings(max_examples=20, deadline=None)
    def test_states_match_the_sequential_loop(self, drive):
        field, psi0, grid = drive
        h0, h = sample_field(field, grid.half_times)
        if _same_rows(h0) and _same_rows(h):  # a stationary field: exp(-i t H)
            got = schrodinger_evolve(field, psi0, grid).states
            want = exact_states(h0[0], h[0], psi0, grid.times)
            assert np.max(np.abs(got - want)) <= 1e-14
            return
        want = _failing_step(sequential_rk4, field, psi0, grid)
        got = _failing_step(lambda *a: schrodinger_evolve(*a).states,
                            field, psi0, grid)
        if isinstance(want, int):
            assert got == want
        else:
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("field, step", [
        # calm for 1500 steps, then a step too long for the field (finite
        # drift) or one that overflows (non-finite norm), in the second block
        *(pytest.param(FieldSpec(h0=0.0, h=lambda t, late=late: np.array(
            [1.0 if t < 0.75 else late, 0.3, 0.0])), 1499, id=str(late))
          for late in (5e3, 1e300)),
    ])
    def test_late_block_divergence_names_the_reference_step(self, field, step):
        grid = TimeGrid(0.0, 1.0, 2000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as want:
                sequential_rk4(field, PSI0, grid)
        with pytest.raises(IntegrationError) as got:
            schrodinger_evolve(field, PSI0, grid)
        assert f"step {step};" in str(want.value)
        assert str(got.value) == str(want.value)

    def test_memory_stays_below_256_bytes_per_step(self):
        # blocks keep the step matrices and their products off the whole grid
        field = FieldSpec(h0=lambda t: 0.3 * np.sin(t),
                          h=lambda t: np.array([1.0, 0.5 * np.cos(2.0 * t), 0.2]))
        grid = TimeGrid(0.0, 3.0, 6000)
        schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 10))
        tracemalloc.start()
        try:
            schrodinger_evolve(field, PSI0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * grid.n_steps


def _switching(lo: int, hi: int, grid: TimeGrid):
    """A field constant on ``grid``'s first ``lo`` steps that changes at the
    node of step ``lo`` and again at step ``hi``."""
    t_lo, t_hi = grid.t_start + lo * grid.dt, grid.t_start + hi * grid.dt
    return FieldSpec(h0=lambda t: 0.7 if t < t_lo else -0.2,
                     h=lambda t: np.array([0.4, -1.1, 0.9] if t < t_lo else
                                          [0.5, 0.2, -1.3] if t < t_hi else
                                          [-0.8, 0.6, 0.1]))


class TestEqualSamples:
    """A field whose samples are all equal is propagated as ``exp(-i t H)``
    in closed form, and its states are held to that exponential.  A field
    whose samples differ keeps the bits of the blocked Hillis-Steele scan
    over every step's own RK4 matrix, each built through ``pauli_compose``,
    which the library's step build does not use."""

    @staticmethod
    def assert_same_bits(field, grid):
        got = schrodinger_evolve(field, PSI0, grid).states
        want = hillis_steele_rk4(field, PSI0, grid)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n_steps", [2, 3, 1023, 1024, 1025, 2049, 5000])
    @pytest.mark.parametrize("field", [
        FieldSpec(h0=0.7, h=np.array([0.4, -1.1, 0.9])),
        FieldSpec(h0=-1.3, h=[-0.0, 2.5, 0.0]),
        # a callable of one value takes the same path
        FieldSpec(h0=lambda t: 0.7, h=lambda t: np.array([0.4, -1.1, 0.9])),
    ], ids=["constant", "signed-zeros", "callable"])
    def test_constant_fields_follow_the_exponential(self, field, n_steps):
        grid = TimeGrid(0.25, 0.25 + 5e-4 * n_steps, n_steps)
        got = schrodinger_evolve(field, PSI0, grid).states
        h0, h = sample_field(field, grid.times[:1])
        assert np.max(np.abs(got - exact_states(h0[0], h[0], PSI0, grid.times))) <= 1e-14

    @pytest.mark.parametrize("n_steps, lo, hi", [
        (1025, 1024, 1025), (2049, 1024, 2000), (5000, 1024, 4999), (2049, 2048, 2049)])
    def test_fields_constant_on_the_first_block_keep_the_hillis_steele_bits(
            self, n_steps, lo, hi):
        grid = TimeGrid(0.25, 0.25 + 5e-4 * n_steps, n_steps)
        self.assert_same_bits(_switching(lo, hi, grid), grid)

    @pytest.mark.parametrize("n_steps", [2, 1025, 2049])
    def test_time_varying_fields_keep_the_hillis_steele_bits(self, n_steps):
        field = FieldSpec(h0=lambda t: 0.3 * np.sin(t),
                          h=lambda t: np.array([1.0, 0.5 * np.cos(2.0 * t), -0.0]))
        self.assert_same_bits(field, TimeGrid(0.25, 0.25 + 5e-4 * n_steps, n_steps))


class TestFeynmanEvolve:
    def test_matches_schrodinger_bloch_path(self):
        grid = TimeGrid(0.0, 1.0, 1000)
        field = FieldSpec(h0=0.0,
                          h=lambda t: np.array([np.sin(t), 0.4, np.cos(t)]))
        traj = schrodinger_evolve(field, PSI0, grid)
        a = feynman_evolve(field, traj.bloch[0], grid)
        assert np.max(np.abs(a - traj.bloch)) < 1e-6

    def test_initial_vector_validation(self):
        with pytest.raises(ShapeError):
            feynman_evolve(SIGMA_Z_FIELD, np.array([0.0, 1.0]))
        with pytest.raises(NormalizationError):
            feynman_evolve(SIGMA_Z_FIELD, np.array([0.0, 0.0, 2.0]))


class TestParallelTransport:
    def test_gauge_residual_small_after_transport(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 1000))
        m = parallel_transport(traj)
        res = transport_residual(m, traj.times)
        assert np.max(res) < 1e-6

    def test_raw_states_fail_the_gauge_check(self):
        # the dynamical phase of the untransported states is visible
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 1000))
        res = transport_residual(traj.states, traj.times)
        assert np.max(res) > 1e-2

    def test_transport_preserves_the_bloch_path(self):
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 500))
        m = parallel_transport(traj)
        bloch = _pauli_re(m, m)
        assert np.max(np.abs(bloch - traj.bloch)) < 1e-12


class TestTrapezoid:
    """The rule on a grid's nodes, over the offsets ``t - t_start``."""

    GRID = TimeGrid(0.3, 2.0, 6)

    def test_exact_on_linear_samples(self):
        x = self.GRID.times
        y = 3.0 * x - 1.0
        antiderivative = 1.5 * x**2 - x - (1.5 * x[0] ** 2 - x[0])
        assert _trapezoid(y, self.GRID) == pytest.approx(antiderivative[-1], rel=1e-14)
        assert np.allclose(_trapezoid(y, self.GRID, cumulative=True), antiderivative,
                           rtol=1e-14, atol=1e-15)

    def test_cumulative_starts_at_zero_and_ends_at_the_total(self):
        grid = TimeGrid(0.05, 30.0, 299)
        y = np.cos(3.0 * grid.times)
        running = _trapezoid(y, grid, cumulative=True)
        assert running.shape == grid.times.shape
        assert running[0] == 0.0
        assert running[-1] == pytest.approx(_trapezoid(y, grid), rel=1e-13)

    def test_complex_samples_integrate_each_part(self):
        x = self.GRID.times - self.GRID.t_start
        y = (2.0 - 1.5j) * x + 0.5j
        running = _trapezoid(y, self.GRID, cumulative=True)
        assert running.dtype == complex
        assert np.allclose(running, (1.0 - 0.75j) * x**2 + 0.5j * x,
                           rtol=1e-14, atol=1e-15)
        assert np.array_equal(running.real, _trapezoid(y.real, self.GRID, cumulative=True))
        assert np.array_equal(running.imag, _trapezoid(y.imag, self.GRID, cumulative=True))
        assert _trapezoid(y, self.GRID) == pytest.approx(running[-1], rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 17, 2001])
    def test_bitwise_equal_to_scipy(self, n):
        # scipy on the offsets from t_start, which a far t_start leaves exact
        integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(n)
        t_start = rng.uniform(-1e6, 1e6)
        grid = TimeGrid(t_start, t_start + rng.uniform(1e-3, 10.0), n)
        x = np.linspace(0.0, grid.t_end - grid.t_start, grid.n_nodes)
        for y in (rng.normal(size=n + 1), rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)):
            total = _trapezoid(y, grid)
            running = _trapezoid(y, grid, cumulative=True)
            assert total.tobytes() == integrate.trapezoid(y, x).tobytes()
            assert running.tobytes() == integrate.cumulative_trapezoid(
                y, x, initial=0.0).tobytes()

    def test_a_far_start_gives_the_bits_of_a_start_at_zero(self):
        y = np.cos(np.linspace(0.0, 3.0, 2001))
        for cumulative in (False, True):
            at_zero = _trapezoid(y, TimeGrid(0.0, 1.0, 2000), cumulative)
            for t_start in (1e5, 1e6, -1e6):
                far = _trapezoid(y, TimeGrid(t_start, t_start + 1.0, 2000), cumulative)
                assert np.asarray(far).tobytes() == np.asarray(at_zero).tobytes()
