"""Curvature coefficient: closed form, expectation form, and numeric form."""

import math
import time
import warnings

import numpy as np
import pytest

from blochpath import (
    FieldError,
    FieldSpec,
    NumericalError,
    ScenarioConfig,
    SingularEvolutionError,
    TimeGrid,
    build_scenario,
    curvature_bloch,
    curvature_bloch_profile,
    curvature_expectation_profile,
    curvature_numeric_profile,
    schrodinger_evolve,
)
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
        prof = curvature_bloch_profile(example3.traj, example3.field)
        assert np.max(np.abs(prof - FOUR_THIRDS)) < 1e-10

    def test_great_circle_drive_is_flat(self, example1):
        prof = curvature_bloch_profile(example1.traj, example1.field)
        assert np.max(np.abs(prof)) < 1e-12

    def test_parallel_field_is_singular(self):
        with pytest.raises(SingularEvolutionError):
            curvature_bloch([0.0, 0.0, 1.0], [0.0, 0.0, 2.0], np.zeros(3))

    def test_nan_field_derivative_raises(self):
        field = FieldSpec(h0=0.0, h=lambda t: np.array([1.0, 0.0, 0.2]),
                          h_dot=lambda t: np.array([np.nan, 0.0, 0.0]))
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 10))
        with pytest.raises(FieldError, match="derivative returned non-finite") as exc:
            curvature_bloch_profile(traj, field)
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

    def test_an_overflowing_field_square_still_raises(self):
        # |h|^2 = inf with a.h finite: the full form gives inf * 0 = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="NaN"):
                curvature_bloch([0.0, 0.0, 1.0], [1e200, 0.0, 1e-3], np.zeros(3))

    def test_a_huge_driven_field_gives_its_value_without_a_warning(self):
        # d^3 and d^2 overflow to inf, so the field-rotation and mixed terms
        # are 0 and the parallel term, 0 here, is the whole value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature_bloch([1.0, 0.0, 0.0], [0.0, 1e150, 1e150], [1.0, 0.0, 0.0])
        assert got == 0.0


def errors_against_analytic(h, h_dot, t_span, steps, first=0.0):
    """Largest ``|kappa - kappa_exact|`` at the nodes from ``first`` on, for
    each of ``steps``: the profile of a field without ``h_dot`` against the
    closed form fed the analytic ``h_dot`` on the same trajectory."""
    out = []
    for n in steps:
        field = FieldSpec(h0=0.0, h=h, t_span=t_span)
        traj = schrodinger_evolve(field, [1.0, 1.0] / np.sqrt(2.0), TimeGrid(*t_span, n))
        keep = traj.times >= first
        exact = curvature_bloch(traj.bloch[keep], traj.h_nodes[keep],
                                np.array([h_dot(t) for t in traj.times[keep]]))
        out.append(np.max(np.abs(curvature_bloch_profile(traj, field)[keep] - exact)))
    return np.array(out)


class TestDerivativeFromSamples:
    """Without ``h_dot``, ``dh/dt`` is a difference of the run's own node and
    midpoint samples: second order, and no field call."""

    def test_a_field_defined_only_on_its_span_gets_its_curvature(self):
        # sqrt(t) raises for any t < 0; its h_dot is infinite at t = 0
        errors = errors_against_analytic(
            lambda t: (math.sqrt(t), 0.0, 1.0), lambda t: (0.5 / math.sqrt(t), 0.0, 0.0),
            (0.0, 1.0), (100, 200, 400), first=0.25)
        assert errors[0] < 1e-4
        assert np.all((3.8 < errors[:-1] / errors[1:]) & (errors[:-1] / errors[1:] < 4.2))

    def test_a_smooth_field_that_raises_outside_its_span_is_second_order(self):
        def h(t):
            if not 0.2 <= t <= 0.9:
                raise ValueError(f"t = {t} is outside the span")
            return (math.sin(3.0 * t), math.cos(2.0 * t), 1.0 + t)

        errors = errors_against_analytic(
            h, lambda t: (3.0 * math.cos(3.0 * t), -2.0 * math.sin(2.0 * t), 1.0),
            (0.2, 0.9), (100, 200, 400))  # the end nodes included
        assert errors[0] < 1e-4
        assert np.all((3.8 < errors[:-1] / errors[1:]) & (errors[:-1] / errors[1:] < 4.2))

    def test_a_tables_end_nodes_take_the_slope_of_their_piece(self):
        # one piece from (0, 0, 1) to (2, 0, 1): dh/dt = (2, 0, 0) everywhere,
        # also at the ends, where np.interp is constant beyond the knots
        field, psi0, grid = build_scenario(ScenarioConfig(
            scenario="custom", field={"times": [0.0, 1.0], "h": [[0.0, 0.0, 1.0],
                                                                [2.0, 0.0, 1.0]]},
            psi0={"bloch": [1.0, 0.0, 0.0]}, n_steps=100))
        traj = schrodinger_evolve(field, psi0, grid)
        got = curvature_bloch_profile(traj, field)
        want = curvature_bloch(traj.bloch, traj.h_nodes, [2.0, 0.0, 0.0])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert got[-1] == pytest.approx(1.063, abs=5e-4)

    @pytest.mark.parametrize("h", [[0.2, 0.5, 1.0], lambda t: [0.2, 0.5, 1.0]],
                             ids=["constant", "callable"])
    def test_a_stationary_field_has_the_bits_of_a_zero_derivative(self, h):
        field = FieldSpec(h0=0.3, h=h)
        traj = schrodinger_evolve(field, PSI0, TimeGrid(0.0, 1.0, 64))
        assert curvature_bloch_profile(traj, field).tobytes() \
            == curvature_bloch(traj.bloch, traj.h_nodes, np.zeros(3)).tobytes()


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
        closed = curvature_bloch_profile(traj, field)
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
        closed = curvature_bloch_profile(run.traj, run.field)
        assert np.max(np.abs(prof[1:-1] - closed[1:-1])) < 1e-6

    def test_zero_dispersion_names_a_node(self):
        eigen = schrodinger_evolve(FieldSpec(h0=0.0, h=[0.0, 0.0, 1.0]),
                                   [1.0, 0.0], TimeGrid(0.0, 1.0, 16))
        with pytest.raises(SingularEvolutionError, match="at node 0;"):
            curvature_expectation_profile(eigen)

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
        flat = curvature_bloch_profile(example2.traj, example2.field)
        assert np.max(np.abs(flat)) < 1e-10
        assert example2.report.eta_se_bar < 0.95

        curved = curvature_bloch_profile(example4.traj, example4.field)
        assert np.min(np.abs(curved)) > 1.0
        assert example4.report.eta_se_bar == pytest.approx(1.0, abs=1e-9)
