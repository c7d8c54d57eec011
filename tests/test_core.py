"""Pauli algebra, state/Bloch conversions, and scalar helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    FieldSpec,
    HermiticityError,
    NormalizationError,
    NumericalError,
    ShapeError,
    bloch_from_state,
    clamped_arccos,
    energy_uncertainty,
    fubini_study_distance,
    pauli_compose,
    pauli_decompose,
    spectral_norm,
    state_from_bloch,
)
from blochpath.core import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z

reals = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)


class TestPauliAlgebra:
    def test_pauli_products(self):
        assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
        assert np.allclose(PAULI_X @ PAULI_X, IDENTITY2)
        assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)

    def test_compose_matches_explicit_matrix(self):
        m = pauli_compose(0.5, np.array([1.0, 2.0, 3.0]))
        expected = np.array([[0.5 + 3.0, 1.0 - 2.0j],
                             [1.0 + 2.0j, 0.5 - 3.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_decompose_scaled_identity(self):
        h0, h = pauli_decompose(2.5 * IDENTITY2)
        assert h0 == pytest.approx(2.5, abs=1e-15)
        assert np.allclose(h, 0.0, atol=1e-15)

    @given(h0=reals, hx=reals, hy=reals, hz=reals)
    @settings(max_examples=60, deadline=None)
    def test_compose_decompose_round_trip(self, h0, hx, hy, hz):
        g0, g = pauli_decompose(pauli_compose(h0, np.array([hx, hy, hz])))
        assert g0 == pytest.approx(h0, abs=1e-12)
        assert np.allclose(g, [hx, hy, hz], atol=1e-12)

    def test_decompose_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            pauli_decompose(m)

    def test_decompose_rejects_nan_entries(self):
        with pytest.raises(HermiticityError):
            pauli_decompose([[np.nan, 0.0], [0.0, 0.0]])

    def test_decompose_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            pauli_decompose(np.eye(3))


class TestStateBlochMaps:
    def test_poles_and_equator(self):
        assert np.allclose(bloch_from_state([1.0, 0.0]), [0.0, 0.0, 1.0])
        assert np.allclose(bloch_from_state([0.0, 1.0]), [0.0, 0.0, -1.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(bloch_from_state(plus), [1.0, 0.0, 0.0], atol=1e-15)

    @given(theta=angles, phi=phases)
    @settings(max_examples=60, deadline=None)
    def test_bloch_round_trip(self, theta, phi):
        a = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        back = bloch_from_state(state_from_bloch(a))
        assert np.allclose(back, a, atol=1e-12)

    @given(theta=angles, phi=phases, chi=phases)
    @settings(max_examples=60, deadline=None)
    def test_bloch_from_state_matches_density_matrix(self, theta, phi, chi):
        psi = np.exp(1j * chi) * np.array(
            [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
        a = bloch_from_state(psi)
        rho = np.outer(psi, psi.conj())
        expected = [np.trace(rho @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)]
        assert np.allclose(a, expected, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, 2.0])
    def test_maps_reject_unnormalized_and_nan_inputs(self, value):
        with pytest.raises(NormalizationError):
            bloch_from_state([value, 0.0])
        with pytest.raises(NormalizationError):
            state_from_bloch([value, 0.0, 0.0])

    def test_state_from_bloch_south_pole(self):
        psi = state_from_bloch([0.0, 0.0, -1.0])
        assert abs(psi[0]) < 1e-12
        assert abs(abs(psi[1]) - 1.0) < 1e-12


class TestScalars:
    def test_spectral_norm_example(self):
        assert spectral_norm(-1.5, [3.0, 4.0, 0.0]) == pytest.approx(6.5)

    def test_energy_uncertainty_transverse_field(self):
        # a perpendicular to h: the full field magnitude drives motion
        assert energy_uncertainty([0.0, 0.0, 1.0], [2.0, 0.0, 0.0]) \
            == pytest.approx(2.0, abs=1e-14)

    def test_energy_uncertainty_parallel_field_vanishes(self):
        assert energy_uncertainty([0.0, 0.0, 1.0], [0.0, 0.0, 5.0]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_energy_uncertainty_near_a_strong_parallel_field(self):
        # h^2 - (a.h)^2 cancels to a negative radicand here; |a x h| does not
        a, h = [0.96695834, 0.0, 0.25493443], [7.5859375, 0.0, 2.0]
        assert energy_uncertainty(a, h) \
            == pytest.approx(abs(a[2] * h[0] - a[0] * h[2]), rel=1e-9)

    @given(theta=angles, phi=phases)
    @settings(max_examples=60, deadline=None)
    def test_dispersion_matches_matrix_variance(self, theta, phi):
        psi = np.array([np.cos(theta / 2.0),
                        np.exp(1j * phi) * np.sin(theta / 2.0)])
        a = bloch_from_state(psi)
        h0, h = -0.7, np.array([1.0, -2.0, 0.5])
        m = pauli_compose(h0, h)
        mean = np.vdot(psi, m @ psi).real
        var = np.vdot(psi, m @ (m @ psi)).real - mean ** 2
        assert energy_uncertainty(a, h) == pytest.approx(np.sqrt(var),
                                                         abs=1e-10)

    def test_clamped_arccos_clips_rounding_noise(self):
        assert clamped_arccos(1.0 + 1e-12) == 0.0
        assert clamped_arccos(-1.0 - 1e-12) == pytest.approx(np.pi)

    def test_clamped_arccos_rejects_large_excess(self):
        with pytest.raises(NumericalError):
            clamped_arccos(1.01)

    @pytest.mark.parametrize("x", [[np.nan, 0.5], np.inf, -np.inf])
    def test_clamped_arccos_rejects_non_finite_arguments(self, x):
        with pytest.raises(NumericalError, match="not finite"):
            clamped_arccos(x)

    def test_fubini_study_distance_endpoints(self):
        assert fubini_study_distance([0, 0, 1.0], [0, 0, 1.0]) == 0.0
        assert fubini_study_distance([0, 0, 1.0], [0, 0, -1.0]) \
            == pytest.approx(np.pi)
        assert fubini_study_distance([0, 0, 1.0], [1.0, 0, 0]) \
            == pytest.approx(np.pi / 2)

    @given(t1=angles, p1=phases, t2=angles, p2=phases)
    @settings(max_examples=60, deadline=None)
    def test_fubini_study_distance_matches_overlap_form(self, t1, p1, t2, p2):
        def state(t, p):
            return np.array([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)])

        sa, sb = state(t1, p1), state(t2, p2)
        overlap = min(abs(np.vdot(sa, sb)), 1.0)
        expected = 2.0 * np.arccos(overlap)
        got = fubini_study_distance(bloch_from_state(sa), bloch_from_state(sb))
        assert got == pytest.approx(expected, abs=1e-7)


class TestFieldSpec:
    def test_constant_field_has_zero_derivative(self):
        f = FieldSpec(h0=0.25, h=np.array([0.0, 0.5, 0.0]))
        assert np.allclose(f.sample([0.3])[1][0], [0.0, 0.5, 0.0])
        assert np.allclose(f.sample_h_dot([0.3], 1e-6)[0], 0.0, atol=1e-15)
        assert f.sample([1.7])[0][0] == pytest.approx(0.25)

    def test_time_dependent_field_finite_difference(self):
        f = FieldSpec(h0=0.0, h=lambda t: np.array([np.cos(t), np.sin(t), 0.0]))
        fd = f.sample_h_dot([0.4], 1e-6)[0]
        assert np.allclose(fd, [-np.sin(0.4), np.cos(0.4), 0.0], atol=1e-8)
