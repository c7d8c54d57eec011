"""Stationary one-parameter drives and prescribed-path constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    ConfigError,
    DegenerateEndpointsError,
    FieldSpec,
    NormalizationError,
    NumericalError,
    PreconditionError,
    RangeError,
    SuboptimalStationary,
    TimeGrid,
    UzdinFamily,
    arc_length_alpha,
    bloch_from_state,
    delta_e_alpha,
    endpoint_angle,
    orbit_radius,
    rodrigues_rotate,
    rotation_angle,
    schrodinger_evolve,
    state_from_bloch,
    suboptimal_axis,
    suboptimal_hamiltonian,
    travel_time,
    uzdin_optimal,
    uzdin_suboptimal,
)
from blochpath.families import TOL_DEG

# frozen oracles for alpha = pi/4, theta_AB = pi/2
PHI_PI4 = 1.9106332362490186
T_PI4 = 0.9553166181245093

alphas = st.floats(min_value=0.05, max_value=np.pi - 0.05,
                   allow_nan=False, allow_infinity=False)
thetas = st.floats(min_value=0.05, max_value=np.pi - 0.05,
                   allow_nan=False, allow_infinity=False)

Z_HAT = np.array([0.0, 0.0, 1.0])


def endpoint_pair(theta):
    return Z_HAT, np.array([np.sin(theta), 0.0, np.cos(theta)])


class TestGeometryHelpers:
    def test_rodrigues_reproduces_quarter_turn(self):
        out = rodrigues_rotate([1.0, 0.0, 0.0], Z_HAT, np.pi / 2)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_endpoint_angle_orthogonal(self):
        a, b = endpoint_pair(np.pi / 2)
        assert endpoint_angle(a, b) == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("theta", [1e-9, np.pi - 1e-9])
    def test_endpoint_angle_rejects_degenerate_pairs(self, theta):
        a, b = endpoint_pair(theta)
        with pytest.raises(DegenerateEndpointsError):
            endpoint_angle(a, b)

    @given(alpha=alphas, theta=thetas)
    @settings(max_examples=60, deadline=None)
    def test_axis_is_unit_and_equidistant(self, alpha, theta):
        a, b = endpoint_pair(theta)
        n = suboptimal_axis(alpha, a, b)
        assert abs(n @ n - 1.0) < 1e-12
        assert abs(n @ a - n @ b) < 1e-12

    @given(alpha=alphas, theta=thetas)
    @settings(max_examples=60, deadline=None)
    def test_rotation_carries_a_onto_b(self, alpha, theta):
        a, b = endpoint_pair(theta)
        n = suboptimal_axis(alpha, a, b)
        phi = rotation_angle(alpha, theta)
        assert np.allclose(rodrigues_rotate(a, n, phi), b, atol=1e-9)


class TestClosedForms:
    def test_frozen_quarter_circle_oracles(self):
        assert rotation_angle(np.pi / 4, np.pi / 2) == pytest.approx(
            PHI_PI4, abs=1e-12)
        assert travel_time(np.pi / 4, np.pi / 2, 1.0) == pytest.approx(
            T_PI4, abs=1e-12)
        assert orbit_radius(np.pi / 4, np.pi / 2) == pytest.approx(
            np.sqrt(3) / 2, abs=1e-12)
        assert delta_e_alpha(np.pi / 4, np.pi / 2, 1.0) == pytest.approx(
            np.sqrt(3) / 2, abs=1e-12)
        assert arc_length_alpha(np.pi / 4, np.pi / 2) == pytest.approx(
            np.sqrt(3) / 2 * PHI_PI4, abs=1e-12)

    def test_geodesic_plane_recovers_great_circle(self):
        theta = 1.1
        assert rotation_angle(np.pi / 2, theta) == pytest.approx(theta,
                                                                 abs=1e-12)
        assert arc_length_alpha(np.pi / 2, theta) == pytest.approx(theta,
                                                                   abs=1e-12)

    def test_rotation_angle_spans_theta_to_pi(self):
        theta = np.pi / 2
        assert rotation_angle(1e-6, theta) == pytest.approx(np.pi, abs=1e-5)
        for alpha in np.linspace(0.05, np.pi - 0.05, 30):
            phi = rotation_angle(alpha, theta)
            assert theta - 1e-12 <= phi <= np.pi + 1e-12

    def test_arc_length_never_beats_the_geodesic(self):
        for theta in (0.3, 1.0, 2.0, 3.0):
            for alpha in np.linspace(0.01, np.pi - 0.01, 25):
                assert arc_length_alpha(alpha, theta) >= theta - 1e-12

    def test_arc_length_approaches_pi_for_antipodal_endpoints(self):
        theta = np.pi - 1e-6
        for alpha in np.linspace(1e-6, np.pi - 1e-6, 9):
            assert arc_length_alpha(alpha, theta) == pytest.approx(np.pi,
                                                                   abs=1e-4)

    def test_length_time_dispersion_identity(self):
        # s = 2 dE t_AB ties the three closed forms together
        for alpha in (0.3, 1.0, 2.4):
            for energy in (0.5, 1.0, 3.0):
                s = arc_length_alpha(alpha, np.pi / 2)
                lhs = 2.0 * delta_e_alpha(alpha, np.pi / 2, energy) \
                    * travel_time(alpha, np.pi / 2, energy)
                assert lhs == pytest.approx(s, abs=1e-12)

    def test_travel_time_rejects_nonpositive_energy(self):
        with pytest.raises(RangeError):
            travel_time(np.pi / 4, np.pi / 2, 0.0)
        with pytest.raises(RangeError):
            delta_e_alpha(np.pi / 4, np.pi / 2, -1.0)


class TestStationaryFamily:
    def test_validation(self):
        a, b = endpoint_pair(np.pi / 2)
        with pytest.raises(RangeError):
            SuboptimalStationary(0.0, a, b)
        with pytest.raises(RangeError):
            SuboptimalStationary(np.pi / 4, a, b, E=0.0)
        with pytest.raises(NormalizationError):
            SuboptimalStationary(np.pi / 4, 2.0 * a, b)

    def test_derived_quantities(self):
        a, b = endpoint_pair(np.pi / 2)
        fam = SuboptimalStationary(np.pi / 4, a, b)
        assert fam.theta_ab == pytest.approx(np.pi / 2)
        assert fam.phi == pytest.approx(PHI_PI4, abs=1e-12)
        assert fam.t_ab == pytest.approx(T_PI4, abs=1e-12)
        assert abs(fam.n_hat @ fam.n_hat - 1.0) < 1e-12

    def test_constant_drive_lands_on_b(self):
        a, b = endpoint_pair(np.pi / 2)
        fam = SuboptimalStationary(np.pi / 4, a, b, E=1.0)
        field = suboptimal_hamiltonian(fam)
        grid = TimeGrid(0.0, fam.t_ab, 2000)
        traj = schrodinger_evolve(field, state_from_bloch(a), grid)
        assert np.allclose(traj.bloch[-1], b, atol=1e-8)
        h0, h = field.sample([0.0, 0.1])
        assert h0[0] == 0.0
        assert np.allclose(h[1], fam.E * fam.n_hat)


def crowded_theta(exponent, near_pi):
    """A separation ``10**exponent`` away from 0 or from pi, within the
    family's domain."""
    gap = 10.0 ** exponent
    return float(np.clip(np.pi - gap if near_pi else gap, TOL_DEG, np.pi - TOL_DEG))


crowded_thetas = st.builds(crowded_theta, st.floats(-6.0, np.log10(np.pi / 2)),
                           st.booleans())
open_alphas = st.floats(0.0, np.pi, exclude_min=True, exclude_max=True)


def frame(angles):
    """The rotation taking the z axis and the x-z plane to a frame set by
    three angles."""
    out = np.eye(3)
    for axis, angle in zip(np.eye(3), angles):
        out = np.array([rodrigues_rotate(col, axis, angle) for col in out.T]).T
    return out


class TestWholeDomain:
    """The closed forms and the construction hold from TOL_DEG to
    pi - TOL_DEG, not only away from the ends."""

    @given(alpha=open_alphas, theta=crowded_thetas,
           angles=st.tuples(*3 * [st.floats(-np.pi, np.pi)]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_construction_lands_on_b_over_the_whole_domain(self, alpha, theta, angles):
        # rotating the pair moves its angle by rounding, so the rotated pair
        # keeps off the domain's ends
        inside = float(np.clip(theta, TOL_DEG + 1e-12, np.pi - TOL_DEG - 1e-12))
        for rotation, separation in ((np.eye(3), theta), (frame(angles), inside)):
            a, b = (rotation @ v for v in endpoint_pair(separation))
            fam = SuboptimalStationary(alpha, a, b)
            assert np.max(np.abs(rodrigues_rotate(a, fam.n_hat, fam.phi) - b)) <= 1e-10
            assert abs(fam.n_hat @ (a - b)) <= 1e-12
            assert fam.theta_ab <= fam.phi <= np.pi + 1e-15

    @pytest.mark.parametrize("theta", [TOL_DEG, np.pi - TOL_DEG])
    def test_domain_is_closed(self, theta):
        a, b = endpoint_pair(theta)
        assert endpoint_angle(a, b) == theta
        SuboptimalStationary(1.0, a, b)

    @given(theta=crowded_thetas)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_half_pi_is_exactly_the_geodesic(self, theta):
        assert rotation_angle(np.pi / 2, theta) == theta
        assert arc_length_alpha(np.pi / 2, theta) == theta
        assert orbit_radius(np.pi / 2, theta) == 1.0

    @pytest.mark.parametrize("call", [
        lambda: endpoint_angle(Z_HAT, [np.nan, 0.0, 1.0]),
        lambda: suboptimal_axis(1.0, Z_HAT, [np.nan, 0.0, 0.0]),
        lambda: SuboptimalStationary(1.0, Z_HAT, np.array([np.nan, 0.0, 0.0])),
        lambda: rotation_angle(np.nan, 1.0),
        lambda: rotation_angle(1.0, np.nan),
        lambda: arc_length_alpha(np.array([0.5, np.nan]), 1.0),
        lambda: orbit_radius(1.0, np.nan),
        lambda: travel_time(1.0, np.nan, 1.0),
        lambda: delta_e_alpha(np.inf, 1.0, 1.0),
    ], ids=["endpoint_angle", "suboptimal_axis", "family", "rotation_alpha",
            "rotation_theta", "arc_length", "orbit_radius", "travel_time",
            "delta_e"])
    def test_non_finite_input_is_a_numerical_error(self, call):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="finite"):
            call()

    @pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
    def test_energy_must_be_positive_and_finite(self, energy):
        a, b = endpoint_pair(1.0)
        for call in (lambda: SuboptimalStationary(1.0, a, b, E=energy),
                     lambda: travel_time(1.0, 1.0, energy),
                     lambda: delta_e_alpha(1.0, 1.0, energy)):
            with pytest.raises(RangeError, match="positive and finite"):
                call()


def great_circle(t):
    """Array path ``cos t |0> + sin t |1>``: ``(n, 2)`` rows of ``t``."""
    return np.stack([np.cos(t), np.sin(t)], axis=-1).astype(complex)


def great_circle_dot(t):
    return np.stack([-np.sin(t), np.cos(t)], axis=-1).astype(complex)


class TestUzdinConstructions:
    def test_optimal_drive_follows_the_path_exactly(self):
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)
        field = uzdin_optimal(fam)
        assert field.sample([0.2])[0][0] == 0.0
        grid = TimeGrid(0.0, 1.0, 1000)
        traj = schrodinger_evolve(field, great_circle(0.0), grid)
        assert np.max(np.abs(traj.states - great_circle(grid.times))) < 1e-7

    def test_finite_difference_m_dot_agrees_with_analytic(self):
        fam_fd = UzdinFamily(m_state=great_circle)
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)
        f_fd, f = uzdin_optimal(fam_fd), uzdin_optimal(fam)
        times = [0.0, 0.3, 0.9]
        assert np.allclose(f_fd.sample(times)[1], f.sample(times)[1], atol=1e-5)

    def test_gauge_violation_is_detected(self):
        spinning = UzdinFamily(
            m_state=lambda t: np.exp(2j * t)[:, None] * great_circle(t))
        field = uzdin_optimal(spinning)
        with pytest.raises(PreconditionError):
            field.sample([0.5])

    def test_suboptimal_variant_validation(self):
        fam = UzdinFamily(m_state=great_circle, variant="optimal")
        with pytest.raises(ConfigError):
            uzdin_suboptimal(fam)
        fam = UzdinFamily(m_state=great_circle, variant="trace_nonzero")
        with pytest.raises(ConfigError):
            uzdin_suboptimal(fam)  # no phase supplied

    @pytest.mark.parametrize("variant,phase_scale", [
        ("trace_nonzero", 1.0),
        ("trace_zero", 0.5),
    ])
    def test_suboptimal_drives_the_phased_path(self, variant, phase_scale):
        nu = 0.4
        fam = UzdinFamily(m_state=great_circle,
                          m_dot=great_circle_dot,
                          phase=lambda t: nu * t,
                          phase_dot=lambda t: np.full(t.shape, nu),
                          variant=variant)
        field = uzdin_suboptimal(fam)
        grid = TimeGrid(0.0, 1.0, 1000)
        traj = schrodinger_evolve(field, great_circle(0.0), grid)
        expected = (np.exp(-1j * phase_scale * nu * grid.times)[:, None]
                    * great_circle(grid.times))
        assert np.max(np.abs(traj.states - expected)) < 1e-7
        if variant == "trace_nonzero":
            assert field.sample([0.3])[0][0] == pytest.approx(nu / 2.0)
        else:
            assert field.sample([0.3])[0][0] == 0.0

    def test_suboptimal_shares_the_optimal_bloch_path(self):
        fam = UzdinFamily(m_state=great_circle,
                          phase=lambda t: 0.7 * t, variant="trace_nonzero")
        grid = TimeGrid(0.0, 1.0, 800)
        t_opt = schrodinger_evolve(uzdin_optimal(
            UzdinFamily(m_state=great_circle)), great_circle(0.0), grid)
        t_sub = schrodinger_evolve(uzdin_suboptimal(fam), great_circle(0.0), grid)
        assert np.max(np.abs(t_opt.bloch - t_sub.bloch)) < 1e-8

    def test_m_at_normalization_check(self):
        fam = UzdinFamily(m_state=lambda t: np.stack(
            [1.0 + t, np.zeros_like(t)], axis=-1).astype(complex))
        with pytest.raises(NormalizationError):
            uzdin_optimal(fam).sample([0.5])
