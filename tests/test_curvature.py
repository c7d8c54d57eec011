"""Curvature coefficient: closed form, expectation form, and numeric form."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    FieldError,
    FieldSpec,
    NumericalError,
    ScenarioConfig,
    SingularEvolutionError,
    TimeGrid,
    UzdinFamily,
    build_scenario,
    curvature_bloch,
    curvature_bloch_profile,
    curvature_expectation_profile,
    curvature_numeric_profile,
    run_report,
    schrodinger_evolve,
    state_from_bloch,
    uzdin_optimal,
)
from exact_paths import fixed_axis_path
from geometry_oracles import curvature_expectation, curvature_transverse

PSI0 = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
FOUR_THIRDS = 4.0 / 3.0


class TestBlochForm:
    def test_sigma_z_gives_four_thirds(self):
        a = np.array([np.sqrt(3) / 2, 0.0, 0.5])
        h = np.array([0.0, 0.0, 1.0])
        assert curvature_bloch(a, h, np.zeros(3)) \
            == pytest.approx(FOUR_THIRDS, abs=1e-12)

    def test_profile_is_constant_for_stationary_precession(self, example3):
        prof = curvature_bloch_profile(example3.traj)
        assert np.max(np.abs(prof - FOUR_THIRDS)) < 1e-10

    def test_great_circle_drive_is_flat(self, example1):
        prof = curvature_bloch_profile(example1.traj)
        assert np.max(np.abs(prof)) < 1e-12

    def test_parallel_field_is_singular(self):
        with pytest.raises(SingularEvolutionError):
            curvature_bloch([0.0, 0.0, 1.0], [0.0, 0.0, 2.0], np.zeros(3))

    def test_nan_field_derivative_raises(self):
        # the first midpoint sample is in the stencils of nodes 0 and 1
        traj = schrodinger_evolve(FieldSpec(h0=0.0, h=[1.0, 0.0, 0.2]), PSI0,
                                  TimeGrid(0.0, 1.0, 10))
        h_half = traj.h_half.copy()
        h_half[1, 0] = np.nan
        with pytest.raises(FieldError, match="derivative returned non-finite") as exc:
            curvature_bloch_profile(traj._replace(h_half=h_half))
        assert f"t = {float(traj.times[0])!r}" in str(exc.value)

    def test_scale_invariance_for_static_fields(self):
        # a static rescaled field traces the same circle, so the
        # dimensionless coefficient must not change
        a = np.array([np.sqrt(3) / 2, 0.0, 0.5])
        h = np.array([0.0, 0.0, 1.0])
        for scale in (0.5, 2.0, 7.0):
            assert curvature_bloch(a, scale * h, np.zeros(3)) \
                == pytest.approx(FOUR_THIRDS, abs=1e-10)


def _dot(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def three_terms(a, h, h_dot):
    """The three-term closed form, summed in full and clamped at 0."""
    ah, hh = _dot(a, h), _dot(h, h)
    d = hh - ah * ah
    w = _dot(a, h_dot)[..., None] * h - ah[..., None] * h_dot
    with np.errstate(over="ignore"):  # d^3 of a large field is inf: 0 / inf
        term2 = (hh * _dot(h_dot, h_dot) - np.float_power(_dot(h, h_dot), 2)
                 - _dot(w, w)) / np.float_power(d, 3)
        term3 = 4.0 * ah * _dot(a, np.cross(h, h_dot)) / np.float_power(d, 2)
    total = 4.0 * ah * ah / d + term2 + term3
    return np.where(total < 0.0, 0.0, total)


def stationary_rows(seed: int, n: int = 400):
    """Unit Bloch vectors, fields from 1e-6 to 1e150 in size and signed-zero
    ``dh/dt`` rows; some vectors and fields have zero components of either
    sign, and some fields are perpendicular to their vector."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3))
    a[::5, 1] = -0.0
    a /= np.linalg.norm(a, axis=1)[:, None]
    h = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 150, size=(n, 1))
    h[::7, 0] = rng.choice([0.0, -0.0], size=h[::7].shape[0])
    h[::3] -= _dot(a[::3], h[::3])[:, None] * a[::3]  # a.h = 0 up to rounding
    h_dot = np.where(rng.random((n, 3)) < 0.5, 0.0, -0.0)
    return a, h, h_dot


class TestStationaryBits:
    """With ``dh/dt = 0`` the closed form returns its first term alone; the
    bits are those of the full three-term sum, whose other terms are +-0."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_derivative_rows_give_the_three_term_bits(self, seed):
        a, h, h_dot = stationary_rows(seed)
        want = three_terms(a, h, h_dot)
        assert np.array_equal(curvature_bloch(a, h, h_dot).view(np.int64),
                              want.view(np.int64))
        for k in range(0, len(a), 37):
            single = curvature_bloch(a[k], h[k], h_dot[k])
            assert np.float64(single).view(np.int64) == want[k].view(np.int64)

    def test_a_zero_derivative_broadcasts_to_every_row(self):
        a, h, _ = stationary_rows(3, 4)
        got = curvature_bloch(a[0], h[0], np.zeros((5, 3)))
        assert got.shape == (5,)
        assert np.array_equal(got, np.full(5, curvature_bloch(a[0], h[0], np.zeros(3))))

    def test_a_field_whose_square_overflows_gives_its_value(self):
        # |h|^2 = 1e400 unscaled; the true value 4e-406 rounds to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert curvature_bloch([0.0, 0.0, 1.0], [1e200, 0.0, 1e-3], np.zeros(3)) == 0.0

    def test_a_huge_driven_field_gives_its_value_without_a_warning(self):
        # a.h = 0 and a.dh/dt = |dh/dt|: the mixed term and the rotation term's
        # numerator are 0, and the parallel term, 0 here, is the whole value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature_bloch([1.0, 0.0, 0.0], [0.0, 1e150, 1e150], [1.0, 0.0, 0.0])
        assert got == 0.0

    @pytest.mark.parametrize("a, h, h_dot, true", [
        ([1.0, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200], 0.0),
        ([1.0, 0.0, 0.0], [0.0, 1e100, 0.0], [0.0, 0.0, 1e100], 1e-200),
        ([0.6, 0.8, 0.0], [1e200, 0.0, 1e200], [0.0, 0.0, 0.0], 36.0 / 41.0),
        ([1.0, 0.0, 0.0], [0.0, 1e40, 0.0], [0.0, 0.0, 1e140], 1e120),
    ], ids=["field_square_overflows", "rotation_term_overflows", "field_square_overflows_at_rest",
            "derivative_square_overflows"])
    def test_float_edge_a_large_field_gives_its_value(self, a, h, h_dot, true):
        # unscaled, |h|^2 overflows at 1e200 (h^2 - (a.h)^2 is inf - inf at rest),
        # at 1e100 the rotation term is inf / inf, and |h|^2 |dh/dt|^2 = 1e360;
        # kappa^2 is |dh/dt|^2 / |h|^4 but at rest, 1e-400 rounding to 0 in the
        # first, and 4 (a.h)^2 / D at rest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature_bloch(a, h, h_dot)
        assert abs(got - true) <= 4 * np.spacing(true)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(-500, 500), seed=st.integers(0, 2**32 - 1))
    def test_float_edge_a_change_of_time_unit_keeps_kappa(self, k, seed):
        # (h, dh/dt) -> (2^k h, 4^k dh/dt) is exact and leaves kappa^2 as it is:
        # to 1e-12 by the unscaled rounding, and to the bit between two fields
        # past 2^150, which are taken at one scale.  |k| <= 500, so that 4^k dh/dt
        # stays finite and normal; D is compared with TOL_SING h^2, at any scale
        rng = np.random.default_rng(seed)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        h, h_dot = rng.normal(size=3), rng.normal(size=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = curvature_bloch(a, h, h_dot)
            got = curvature_bloch(a, np.ldexp(h, k), np.ldexp(h_dot, 2 * k))
            big = curvature_bloch(a, np.ldexp(h, 300), np.ldexp(h_dot, 600))
            bigger = curvature_bloch(a, np.ldexp(h, 500), np.ldexp(h_dot, 1000))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert bigger == big

    def test_float_edge_a_curvature_past_the_float_range_is_a_numerical_error(self):
        # kappa^2 = |dh/dt|^2 / |h|^4 = 1e340 is inf, which passes the sign check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="past the float range"):
                curvature_bloch([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e170])

    def test_float_edge_an_overflowing_rotation_term_is_past_the_float_range(self):
        # |h|^2 |dh/dt|^2 and w.w are both inf: the rotation term's numerator is
        # inf - inf, NaN, from finite rows, where kappa^2 is about 8e600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^curvature is past the float range$"):
                curvature_bloch([0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [1e300, 0.0, 1e300])

    @pytest.mark.parametrize("scale", [1e-7, 1e-13, 1e-100, 1e-150])
    def test_float_edge_a_weak_field_keeps_its_curvature(self, scale):
        # D = h^2 - (a.h)^2 is 1e-14 at scale 1e-7, below an absolute 1e-12; the
        # rule D <= TOL_SING h^2 is scale-free, and rows past 2^-150 are scaled
        a, h, h_dot = [0.6, 0.0, 0.8], np.array([1.0, 0.3, -0.5]), np.array([0.2, -0.1, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature_bloch(a, scale * h, scale * scale * h_dot)
        assert got == pytest.approx(curvature_bloch(a, h, h_dot), rel=1e-12)
        assert got == pytest.approx(0.0857332726445151, rel=1e-14)

    def test_an_eigenstate_of_a_weak_field_is_still_singular(self):
        with pytest.raises(SingularEvolutionError):
            curvature_bloch([0.0, 0.0, 1.0], [0.0, 0.0, 1e-200], [1e-300, 0.0, 0.0])
        with pytest.raises(SingularEvolutionError):
            curvature_bloch([0.0, 0.0, 1.0], np.zeros(3), [1.0, 0.0, 0.0])

    def test_float_edge_an_overflow_is_not_a_parallel_field(self):
        # a.h = 0.6 inf and |h|^2 = inf: D = inf - inf is NaN, not a small D
        with pytest.raises(NumericalError, match="NaN"):
            curvature_bloch([0.6, 0.8, 0.0], [np.inf, 0.0, 0.0], np.zeros(3))


def errors_against_analytic(h, h_dot, t_span, steps, first=0.0):
    """``|kappa - kappa_exact|`` for each of ``steps`` at the first node from
    ``first`` on, the largest at the nodes after it but the last, and at the
    last node (columns 0, 1 and 2): the profile against the closed form fed
    the analytic ``h_dot`` on the same trajectory."""
    out = []
    for n in steps:
        field = FieldSpec(h0=0.0, h=h, t_span=t_span)
        traj = schrodinger_evolve(field, [1.0, 1.0] / np.sqrt(2.0), TimeGrid(*t_span, n))
        keep = traj.times >= first
        exact = curvature_bloch(traj.bloch[keep], traj.h_nodes[keep],
                                np.array([h_dot(t) for t in traj.times[keep]]))
        error = np.abs(curvature_bloch_profile(traj)[keep] - exact)
        out.append([error[0], np.max(error[1:-1]), error[-1]])
    return np.array(out)


def observed_order(errors):
    """``log2`` of the error ratios of successive grid doublings."""
    return np.log2(errors[:-1] / errors[1:])


class TestDerivativeFromSamples:
    """``dh/dt`` is a five-point stencil of the run's own node and midpoint
    samples: fourth order at every node, and no field call."""

    def test_a_field_defined_only_on_its_span_gets_its_curvature(self):
        # sqrt(t) raises for any t < 0; its dh/dt is infinite at t = 0
        errors = errors_against_analytic(
            lambda t: (math.sqrt(t), 0.0, 1.0), lambda t: (0.5 / math.sqrt(t), 0.0, 0.0),
            (0.0, 1.0), (100, 200, 400), first=0.25)
        assert np.all(errors[0] < 1e-7)
        assert np.all((3.8 < observed_order(errors)) & (observed_order(errors) < 4.2))

    def test_a_smooth_field_that_raises_outside_its_span_is_fourth_order(self):
        def h(t):
            if not 0.2 <= t <= 0.9:
                raise ValueError(f"t = {t} is outside the span")
            return (math.sin(3.0 * t), math.cos(2.0 * t), 1.0 + t)

        errors = errors_against_analytic(
            h, lambda t: (3.0 * math.cos(3.0 * t), -2.0 * math.sin(2.0 * t), 1.0),
            (0.2, 0.9), (50, 100, 200))  # the end nodes included
        assert np.all(errors[0] < 1e-7)
        assert np.all((3.8 < observed_order(errors)) & (observed_order(errors) < 4.2))

    def test_a_rotating_drive_is_fourth_order_at_inner_and_end_nodes(self):
        errors = errors_against_analytic(
            lambda t: (1.2 * math.cos(3.0 * t), 1.2 * math.sin(3.0 * t), 0.5),
            lambda t: (-3.6 * math.sin(3.0 * t), 3.6 * math.cos(3.0 * t), 0.0),
            (0.0, 1.0), (50, 100, 200))
        assert np.all(observed_order(errors) >= 3.8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_fewest_steps_give_finite_values(self, n):
        # two steps hold five samples, as many as the end rule reads
        field = FieldSpec(h0=0.0, h=lambda t: (1.2 * math.cos(3.0 * t),
                                               1.2 * math.sin(3.0 * t), 0.5))
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.0, 0.05, n))
        got = curvature_bloch_profile(traj)
        assert got.shape == (n + 1,) and np.all(np.isfinite(got))

    def test_a_tables_end_nodes_take_the_slope_of_their_piece(self):
        # one piece from (0, 0, 1) to (2, 0, 1): dh/dt = (2, 0, 0) everywhere,
        # also at the ends, where np.interp is constant beyond the knots
        field, psi0, grid = build_scenario(ScenarioConfig(
            scenario="custom", field={"times": [0.0, 1.0], "h": [[0.0, 0.0, 1.0],
                                                                [2.0, 0.0, 1.0]]},
            psi0={"bloch": [1.0, 0.0, 0.0]}, n_steps=100))
        traj = schrodinger_evolve(field, psi0, grid)
        got = curvature_bloch_profile(traj)
        want = curvature_bloch(traj.bloch, traj.h_nodes, [2.0, 0.0, 0.0])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert got[-1] == pytest.approx(1.063, abs=5e-4)

    @pytest.mark.parametrize("h", [[0.2, 0.5, 1.0], lambda t: [0.2, 0.5, 1.0]],
                             ids=["constant", "callable"])
    def test_a_stationary_field_has_the_bits_of_a_zero_derivative(self, h):
        field = FieldSpec(h0=0.3, h=h)
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 64))
        assert curvature_bloch_profile(traj).tobytes() \
            == curvature_bloch(traj.bloch, traj.h_nodes, np.zeros(3)).tobytes()


@st.composite
def fixed_axis_geodesics(draw):
    """A traceless drive ``h(t) = f(t) n``, ``f = A + B sin(w t + p) > 0``,
    about a unit axis ``n`` perpendicular to the initial Bloch vector, as a
    callable field, a table of ``f n`` or the optimal drive of the path
    (:func:`exact_paths.fixed_axis_path`), on a grid of 2 to 10^4 steps short
    enough for the propagator; and ``(field, psi0, grid, scale)`` with
    ``scale = 1 + max (f' / f^2)^2``, the size of the coefficient's terms.

    A trace part ``h0`` is left out: the RK4 step couples it into the Bloch
    path, which then leaves the great circle by a discretization error."""
    theta, phi, turn = (draw(st.floats(0.0, bound)) for bound in (np.pi, 2 * np.pi, 2 * np.pi))
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    u = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    a0 = np.cos(turn) * u + np.sin(turn) * np.cross(n, u)
    amp, wobble = draw(st.floats(0.2, 3.0)), draw(st.floats(0.0, 0.9))
    w, p = draw(st.floats(0.1, 8.0)), draw(st.floats(0.0, 2 * np.pi))
    b = wobble * amp
    steps = draw(st.integers(2, 10_000))
    t0 = draw(st.floats(-5.0, 5.0))
    t1 = t0 + min(draw(st.floats(0.1, 10.0)), 0.2 * steps / max(amp + b, w))

    def f(t):
        return amp + b * np.sin(w * t + p)

    psi0, grid = state_from_bloch(a0), TimeGrid(t0, t1, steps)
    kind = draw(st.sampled_from(["callable", "tabulated", "path"]))
    if kind == "callable":
        field = FieldSpec(h0=0.0, h=lambda t: f(t) * n)
    elif kind == "tabulated":
        # a table's slopes are those of f at points between its knots
        knots = np.linspace(t0, t1, draw(st.integers(2, 12)))
        field, psi0, grid = build_scenario(ScenarioConfig(
            scenario="custom", t_span=(t0, t1), n_steps=steps, psi0={"bloch": a0.tolist()},
            field={"times": knots.tolist(), "h": (f(knots)[:, None] * n).tolist()}))
    else:
        def turned(t):
            return amp * (t - t0) - b / w * (np.cos(w * t + p) - np.cos(w * t0 + p))

        m_state, m_dot = fixed_axis_path(psi0, n, f, turned)
        field = uzdin_optimal(UzdinFamily(m_state=m_state, m_dot=m_dot))
    return field, psi0, grid, 1.0 + (b * w / (amp - b) ** 2) ** 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fixed_axis_geodesics())
def test_a_fixed_axis_drive_is_flat_at_every_node(drive):
    # the paper's optimal nonstationary class: kappa^2 = 0 however f varies;
    # the stencil's dh/dt lies along n as the samples do, so only rounding is left
    field, psi0, grid, scale = drive
    kappa = curvature_bloch_profile(schrodinger_evolve(field, psi0, grid))
    assert np.all(kappa <= 16 * np.finfo(float).eps * scale)


class TestTransverseForm:
    def test_constant_transverse_field_is_flat(self):
        f = lambda t: np.array([0.0, 0.5, 0.0])
        assert curvature_transverse(f, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_rotating_field_direction_rate(self):
        nu, amp = 0.8, 0.5
        f = lambda t: amp * np.array([np.cos(nu * t), np.sin(nu * t), 0.0])
        got = curvature_transverse(f, 0.4)
        assert got == pytest.approx(nu ** 2 / amp ** 2, abs=1e-8)

    def test_prescribed_path_drive_matches_the_closed_form(self, example4):
        traj, field = example4.traj, example4.field
        closed = curvature_bloch_profile(traj)
        for k in (200, 1000, 1800):
            # the transverse formula holds only while a.h = 0
            assert abs(traj.bloch[k] @ traj.h_nodes[k]) < 1e-9
            got = curvature_transverse(lambda t: field.sample([t])[1][0],
                                       traj.times[k], fd_step=1e-5)
            assert got == pytest.approx(FOUR_THIRDS, abs=1e-6)
            assert got == pytest.approx(closed[k], abs=1e-6)


SCENARIOS = ("example1", "example2", "example3", "example4")


class TestExpectationForm:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_matches_the_per_node_reference_everywhere(self, name, request):
        traj = request.getfixturevalue(name).traj
        prof = curvature_expectation_profile(traj)
        ref = np.array([curvature_expectation(traj, k)
                        for k in range(traj.n_nodes)])
        assert np.max(np.abs(prof - ref)) < 1e-12

    def test_sigma_z_reads_four_thirds_ends_included(self, example3):
        prof = curvature_expectation_profile(example3.traj)
        assert np.max(np.abs(prof[1:-1] - FOUR_THIRDS)) < 1e-9
        # the one-sided end stencils carry a larger error
        assert np.max(np.abs(prof - FOUR_THIRDS)) < 1e-6

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_agrees_with_the_closed_form_at_interior_nodes(self, name, request):
        run = request.getfixturevalue(name)
        prof = curvature_expectation_profile(run.traj)
        closed = curvature_bloch_profile(run.traj)
        assert np.max(np.abs(prof[1:-1] - closed[1:-1])) < 1e-6

    def test_zero_dispersion_names_a_node(self):
        eigen = schrodinger_evolve(FieldSpec(h0=0.0, h=[0.0, 0.0, 1.0]),
                                   [1.0, 0.0], TimeGrid(0.0, 1.0, 16))
        with pytest.raises(SingularEvolutionError, match="at node 0;"):
            curvature_expectation_profile(eigen)

    @pytest.mark.parametrize("strength", [1e-7, 1e-13])
    def test_a_weak_precession_is_not_singular(self, tmp_path, strength):
        # dE = strength, below an absolute 1e-12 or 1e-6 on D; both methods call a
        # node singular only where dE^2 <= TOL_SING |h|^2.  The run turns by 2 rad
        # about a field orthogonal to a: a great circle, of curvature 0
        config = ScenarioConfig("custom", t_span=(0.0, 1.0 / strength), n_steps=2000,
                                field={"h": [strength, 0.0, 0.0]},
                                psi0={"bloch": [0.0, 0.6, 0.8]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = run_report(config, tmp_path)
            traj = schrodinger_evolve(*build_scenario(config))
            expectation = curvature_expectation_profile(traj)
        assert row.classification == "GeodesicUnwasteful"
        kappa = np.loadtxt(tmp_path / "custom_trajectory.csv", delimiter=",",
                           skiprows=1)[:, -1]
        assert np.max(np.abs(kappa)) <= 1e-12
        assert np.max(np.abs(expectation)) <= 1e-9

    def test_profile_beats_the_per_node_loop(self, example4):
        def best(fn, repeat):
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        traj = example4.traj
        loop = best(lambda: [curvature_expectation(traj, k)
                             for k in range(traj.n_nodes)], 2)
        profile = best(lambda: curvature_expectation_profile(traj), 5)
        assert loop > 20.0 * profile


class TestNumericForm:
    def test_sigma_z_profile(self, example3):
        prof = curvature_numeric_profile(example3.traj)
        interior = prof[10:-10]
        assert np.max(np.abs(interior - FOUR_THIRDS)) < 1e-3

    def test_geodesic_profile_is_flat(self, example1):
        prof = curvature_numeric_profile(example1.traj)
        assert np.max(np.abs(prof[10:-10])) < 1e-5

    def test_zero_motion_is_singular(self):
        still = schrodinger_evolve(FieldSpec(h0=0.0, h=np.zeros(3)), PSI0,
                                   TimeGrid(0.0, 1.0, 16))
        with pytest.raises(SingularEvolutionError):
            curvature_numeric_profile(still)


class TestDiagnosticBundle:
    def test_curvature_detects_geodesy_not_waste(self, example2, example4):
        # a wasteful drive along a great circle stays flat, while an
        # unwasteful drive along a small circle stays curved
        flat = curvature_bloch_profile(example2.traj)
        assert np.max(np.abs(flat)) < 1e-10
        assert example2.report.eta_se_bar < 0.95

        curved = curvature_bloch_profile(example4.traj)
        assert np.min(np.abs(curved)) > 1.0
        assert example4.report.eta_se_bar == pytest.approx(1.0, abs=1e-9)
