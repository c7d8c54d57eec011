"""Stationary one-parameter drives and prescribed-path constructions."""

import warnings

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
    endpoint_angle,
    pauli_compose,
    schrodinger_evolve,
    state_from_bloch,
    suboptimal_axis,
    suboptimal_hamiltonian,
    uzdin_optimal,
    uzdin_suboptimal,
)
from blochpath.core import TOL_NORM, _bloch_rows, _dot
from blochpath.families import TOL_DEG, _orbit
from geometry_oracles import rodrigues_rotate, uzdin_drive

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
        phi = _orbit(alpha, theta)[1]
        assert np.allclose(rodrigues_rotate(a, n, phi), b, atol=1e-9)

    @pytest.mark.parametrize("alpha, a, b, name", [
        (np.pi / 2, [0.0, 0.0, 1.001], [1.0, 0.0, 0.0], "a"),
        (1.0, [0.0, 0.0, 1.0001], [1.0, 0.0, 0.0], "a"),
        (1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0001], "b"),
    ], ids=["geodesic", "tilted", "target"])
    def test_non_unit_endpoints_are_a_normalization_error(self, alpha, a, b, name):
        with pytest.raises(NormalizationError, match=f"endpoint {name} has norm"):
            suboptimal_axis(alpha, a, b)

    @pytest.mark.parametrize("entry", [1e160, 1e200, -1e300])
    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("build", [lambda a, b: suboptimal_axis(1.0, a, b),
                                       lambda a, b: SuboptimalStationary(1.0, a, b)],
                             ids=["suboptimal_axis", "SuboptimalStationary"])
    def test_an_overflowing_norm_is_a_normalization_error(self, build, name, entry):
        ends = {"a": [0.0, 0.0, 1.0], "b": [1.0, 0.0, 0.0]}
        ends[name] = [0.0, entry, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError, match=f"^endpoint {name} has norm\\^2 inf$"):
                build(ends["a"], ends["b"])


class TestClosedForms:
    """The orbit radius and rotation angle, and the arc length
    ``radius * phi``, travel time ``phi / (2E)`` and dispersion
    ``E * radius`` that ``sweep_alpha`` forms from them."""

    def test_frozen_quarter_circle_oracles(self):
        radius, phi = _orbit(np.pi / 4, np.pi / 2)
        assert phi == pytest.approx(PHI_PI4, abs=1e-12)
        assert phi / (2.0 * 1.0) == pytest.approx(T_PI4, abs=1e-12)
        assert radius == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert radius * phi == pytest.approx(np.sqrt(3) / 2 * PHI_PI4, abs=1e-12)

    def test_geodesic_plane_recovers_great_circle(self):
        theta = 1.1
        radius, phi = _orbit(np.pi / 2, theta)
        assert phi == pytest.approx(theta, abs=1e-12)
        assert radius * phi == pytest.approx(theta, abs=1e-12)

    def test_rotation_angle_spans_theta_to_pi(self):
        theta = np.pi / 2
        assert _orbit(1e-6, theta)[1] == pytest.approx(np.pi, abs=1e-5)
        for alpha in np.linspace(0.05, np.pi - 0.05, 30):
            phi = _orbit(alpha, theta)[1]
            assert theta - 1e-12 <= phi <= np.pi + 1e-12

    def test_arc_length_never_beats_the_geodesic(self):
        for theta in (0.3, 1.0, 2.0, 3.0):
            for alpha in np.linspace(0.01, np.pi - 0.01, 25):
                radius, phi = _orbit(alpha, theta)
                assert radius * phi >= theta - 1e-12

    def test_arc_length_approaches_pi_for_antipodal_endpoints(self):
        theta = np.pi - 1e-6
        for alpha in np.linspace(1e-6, np.pi - 1e-6, 9):
            radius, phi = _orbit(alpha, theta)
            assert radius * phi == pytest.approx(np.pi, abs=1e-4)

    def test_length_time_dispersion_identity(self):
        # s = 2 dE t_AB ties the three closed forms together
        for alpha in (0.3, 1.0, 2.4):
            radius, phi = _orbit(alpha, np.pi / 2)
            for energy in (0.5, 1.0, 3.0):
                lhs = 2.0 * (energy * radius) * (phi / (2.0 * energy))
                assert lhs == pytest.approx(radius * phi, abs=1e-12)


class TestStationaryFamily:
    def test_validation(self):
        a, b = endpoint_pair(np.pi / 2)
        with pytest.raises(RangeError):
            SuboptimalStationary(0.0, a, b)
        with pytest.raises(RangeError):
            SuboptimalStationary(np.pi / 4, a, b, E=0.0)
        with pytest.raises(NormalizationError):
            SuboptimalStationary(np.pi / 4, 2.0 * a, b)

    def test_endpoints_within_tol_norm_build_and_land(self):
        # |a|^2 - 1 = 9.8e-13 and |b|^2 - 1 = -9.8e-13, both inside TOL_NORM,
        # leave the axis 1.05e-12 from equidistant
        a = np.array([0.0, 0.0, 1.0 + 4.9e-13])
        b = np.array([np.sin(1.0), 0.0, np.cos(1.0)]) * (1.0 - 4.9e-13)
        fam = SuboptimalStationary(0.1, a, b)
        assert np.max(np.abs(rodrigues_rotate(a, fam.n_hat, fam.phi) - b)) <= 1e-10

    def test_derived_quantities(self):
        a, b = endpoint_pair(np.pi / 2)
        fam = SuboptimalStationary(np.pi / 4, a, b)
        assert fam.theta_ab == pytest.approx(np.pi / 2)
        assert fam.phi == pytest.approx(PHI_PI4, abs=1e-12)
        assert fam.t_ab == pytest.approx(T_PI4, abs=1e-12)
        assert abs(fam.n_hat @ fam.n_hat - 1.0) < 1e-12

    def test_float32_alpha_keeps_float64_arithmetic(self):
        a, b = endpoint_pair(1.2)
        narrow = SuboptimalStationary(np.float32(1.0), a, b)
        wide = SuboptimalStationary(float(np.float32(1.0)), a, b)
        assert (narrow.phi, narrow.t_ab) == (wide.phi, wide.t_ab)
        assert np.array_equal(narrow.n_hat, wide.n_hat)

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
#: ``|v|^2 - 1`` anywhere in ``[-TOL_NORM, TOL_NORM]``, often within 1% of an end
norm_offsets = st.floats(-TOL_NORM, TOL_NORM) | st.builds(
    lambda sign, u: sign * u * TOL_NORM, st.sampled_from([-1.0, 1.0]), st.floats(0.99, 1.0))


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

    @given(alpha=open_alphas, theta=crowded_thetas,
           angles=st.tuples(*3 * [st.floats(-np.pi, np.pi)]),
           offsets=st.tuples(norm_offsets, norm_offsets))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_near_unit_endpoints_build_and_land(self, alpha, theta, angles, offsets):
        inside = float(np.clip(theta, TOL_DEG + 1e-12, np.pi - TOL_DEG - 1e-12))
        a, b = (frame(angles) @ v * np.sqrt(1.0 + offset)
                for v, offset in zip(endpoint_pair(inside), offsets))
        if max(abs(_dot(a, a) - 1.0), abs(_dot(b, b) - 1.0)) > TOL_NORM:
            # an offset at the bound that rounding carried past it
            with pytest.raises(NormalizationError):
                SuboptimalStationary(alpha, a, b)
            return
        fam = SuboptimalStationary(alpha, a, b)
        assert np.max(np.abs(rodrigues_rotate(a, fam.n_hat, fam.phi) - b)) <= 1e-10

    @pytest.mark.parametrize("theta", [TOL_DEG, np.pi - TOL_DEG])
    def test_domain_is_closed(self, theta):
        a, b = endpoint_pair(theta)
        assert endpoint_angle(a, b) == theta
        SuboptimalStationary(1.0, a, b)

    @given(theta=crowded_thetas)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_half_pi_is_exactly_the_geodesic(self, theta):
        radius, phi = _orbit(np.pi / 2, theta)
        assert phi == theta
        assert radius * phi == theta
        assert radius == 1.0

    @pytest.mark.parametrize("call", [
        lambda: endpoint_angle(Z_HAT, [np.nan, 0.0, 1.0]),
        lambda: suboptimal_axis(1.0, Z_HAT, [np.nan, 0.0, 0.0]),
        lambda: SuboptimalStationary(1.0, Z_HAT, np.array([np.nan, 0.0, 0.0])),
    ], ids=["endpoint_angle", "suboptimal_axis", "family"])
    def test_non_finite_input_is_a_numerical_error(self, call):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="finite"):
            call()

    @pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
    def test_energy_must_be_positive_and_finite(self, energy):
        a, b = endpoint_pair(1.0)
        with pytest.raises(RangeError, match="positive and finite"):
            SuboptimalStationary(1.0, a, b, E=energy)


def great_circle(t):
    """Array path ``cos t |0> + sin t |1>``: ``(n, 2)`` rows of ``t``."""
    return np.stack([np.cos(t), np.sin(t)], axis=-1).astype(complex)


def great_circle_dot(t):
    return np.stack([-np.sin(t), np.cos(t)], axis=-1).astype(complex)


def transported_path(theta0, theta1, phi0, phi1):
    """Path at polar angle ``theta0 + theta1 t`` and azimuth ``phi0 + phi1 t``
    with the global phase ``gamma`` that cancels ``<m|dm/dt>``
    (``gamma' = -phi1 sin^2(theta/2)``), and its analytic derivative."""
    def parts(t):
        theta, phi = theta0 + theta1 * t, phi0 + phi1 * t
        gamma = -0.5 * phi1 * (t - (np.sin(theta) - np.sin(theta0)) / theta1)
        c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
        return np.exp(1j * gamma), np.exp(1j * phi), c, s

    def m_state(t):
        g, p, c, s = parts(t)
        return g[:, None] * np.stack([c + 0j, p * s], axis=-1)

    def m_dot(t):
        g, p, c, s = parts(t)
        gamma_dot = -phi1 * s * s
        return g[:, None] * np.stack([1j * gamma_dot * c - 0.5 * theta1 * s,
                                      p * (1j * (gamma_dot + phi1) * s
                                           + 0.5 * theta1 * c)], axis=-1)

    return m_state, m_dot


speeds = st.floats(min_value=0.2, max_value=3.0) | st.floats(min_value=-3.0, max_value=-0.2)
offsets = st.floats(min_value=-4.0, max_value=4.0)


class TestUzdinConstructions:
    @given(theta0=offsets, theta1=speeds, phi0=offsets, phi1=offsets,
           nu=st.tuples(offsets, offsets), n=st.integers(1, 300),
           variant=st.sampled_from(["optimal", "trace_nonzero", "trace_zero"]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_drive_equals_the_decomposed_matrix_bit_for_bit(
            self, theta0, theta1, phi0, phi1, nu, n, variant):
        m_state, m_dot = transported_path(theta0, theta1, phi0, phi1)
        fam = UzdinFamily(m_state=m_state, m_dot=m_dot,
                          phase_dot=lambda t: nu[0] + nu[1] * t)
        field = (uzdin_optimal(fam) if variant == "optimal"
                 else uzdin_suboptimal(fam, variant))
        times = np.linspace(0.0, 1.0, n)
        h0, h = field.sample(times)
        m, md = m_state(times), m_dot(times)
        matrix, defect, want = uzdin_drive(m, md)
        eps = np.finfo(float).eps
        assert np.all(defect <= 4.0 * eps * (1.0 + np.linalg.norm(md, axis=1)))
        assert np.allclose(pauli_compose(0.0, want), matrix, rtol=0.0, atol=1e-14)
        half_phase_dot = 0.5 * (nu[0] + nu[1] * times)
        if variant != "optimal":
            want = want + half_phase_dot[:, None] * _bloch_rows(m)
        assert np.array_equal(h, want)
        assert np.array_equal(h0, half_phase_dot if variant == "trace_nonzero"
                              else np.zeros(n))

    def test_optimal_drive_follows_the_path_exactly(self):
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)
        field = uzdin_optimal(fam)
        assert field.sample([0.2])[0][0] == 0.0
        grid = TimeGrid(0.0, 1.0, 1000)
        traj = schrodinger_evolve(field, great_circle(0.0), grid)
        assert np.max(np.abs(traj.states - great_circle(grid.times))) < 1e-7

    def test_gauge_violation_is_detected(self):
        spinning = UzdinFamily(
            m_state=lambda t: np.exp(2j * t)[:, None] * great_circle(t),
            m_dot=lambda t: np.exp(2j * t)[:, None]
            * (2j * great_circle(t) + great_circle_dot(t)))
        field = uzdin_optimal(spinning)
        with pytest.raises(PreconditionError):
            field.sample([0.5])

    def test_suboptimal_variant_validation(self):
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)
        with pytest.raises(ConfigError):
            uzdin_suboptimal(fam, "optimal")
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)
        with pytest.raises(ConfigError):
            uzdin_suboptimal(fam, "trace_nonzero")  # no phase_dot supplied

    @pytest.mark.parametrize("variant,phase_scale", [
        ("trace_nonzero", 1.0),
        ("trace_zero", 0.5),
    ])
    def test_suboptimal_drives_the_phased_path(self, variant, phase_scale):
        nu = 0.4
        fam = UzdinFamily(m_state=great_circle,
                          m_dot=great_circle_dot,
                          phase_dot=lambda t: np.full(t.shape, nu))
        field = uzdin_suboptimal(fam, variant)
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
        fam = UzdinFamily(m_state=great_circle, m_dot=great_circle_dot,
                          phase_dot=lambda t: np.full(t.shape, 0.7))
        grid = TimeGrid(0.0, 1.0, 800)
        t_opt = schrodinger_evolve(uzdin_optimal(
            UzdinFamily(m_state=great_circle, m_dot=great_circle_dot)),
            great_circle(0.0), grid)
        t_sub = schrodinger_evolve(uzdin_suboptimal(fam, "trace_nonzero"),
                                   great_circle(0.0), grid)
        assert np.max(np.abs(t_opt.bloch - t_sub.bloch)) < 1e-8

    def test_m_at_normalization_check(self):
        fam = UzdinFamily(m_state=lambda t: np.stack(
            [1.0 + t, np.zeros_like(t)], axis=-1).astype(complex),
            m_dot=lambda t: np.stack(
                [np.ones_like(t), np.zeros_like(t)], axis=-1).astype(complex))
        with pytest.raises(NormalizationError):
            uzdin_optimal(fam).sample([0.5])
