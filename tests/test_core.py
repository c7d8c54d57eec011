"""Pauli algebra, state/Bloch conversions, and scalar helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    FieldSpec,
    NormalizationError,
    NumericalError,
    ShapeError,
    endpoint_angle,
    energy_uncertainty,
    fubini_study_distance,
    pauli_compose,
    spectral_norm,
    state_from_bloch,
)
from blochpath.core import _bloch_rows, _cross, _norm_sq

#: the Pauli matrices sigma_x, sigma_y, sigma_z
SIGMA = (np.array([[0.0, 1.0], [1.0, 0.0]]),
         np.array([[0.0, -1.0j], [1.0j, 0.0]]),
         np.array([[1.0, 0.0], [0.0, -1.0]]))

reals = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)


class TestPauliAlgebra:
    def test_compose_matches_explicit_matrix(self):
        m = pauli_compose(0.5, np.array([1.0, 2.0, 3.0]))
        expected = np.array([[0.5 + 3.0, 1.0 - 2.0j],
                             [1.0 + 2.0j, 0.5 - 3.0]])
        assert np.allclose(m, expected, atol=1e-15)


class TestStateBlochMaps:
    def test_poles_and_equator(self):
        assert np.allclose(_bloch_rows(np.array([1.0, 0.0])), [0.0, 0.0, 1.0])
        assert np.allclose(_bloch_rows(np.array([0.0, 1.0])), [0.0, 0.0, -1.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(_bloch_rows(plus), [1.0, 0.0, 0.0], atol=1e-15)

    @given(theta=angles, phi=phases)
    @settings(max_examples=60, deadline=None)
    def test_bloch_round_trip(self, theta, phi):
        a = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        back = _bloch_rows(state_from_bloch(a))
        assert np.allclose(back, a, atol=1e-12)

    @given(theta=angles, phi=phases, chi=phases)
    @settings(max_examples=60, deadline=None)
    def test_bloch_rows_match_density_matrix(self, theta, phi, chi):
        psi = np.exp(1j * chi) * np.array(
            [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
        a = _bloch_rows(psi)
        rho = np.outer(psi, psi.conj())
        expected = [np.trace(rho @ p).real for p in SIGMA]
        assert np.allclose(a, expected, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, 2.0])
    def test_state_from_bloch_rejects_unnormalized_and_nan_inputs(self, value):
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

    @pytest.mark.parametrize("norm,args,true", [
        (spectral_norm, (1e300, [1e300, 1e300, 0.0]), 2.414213562373095e300),
        (energy_uncertainty, ([1.0, 0.0, 0.0], [0.0, 1e300, 1e300]), 1.4142135623730951e300),
        (spectral_norm, (0.0, [3.0 * 2.0**-700, 4.0 * 2.0**-700, 0.0]), 5.0 * 2.0**-700),
        (energy_uncertainty, ([1.0, 0.0, 0.0], [0.0, 1e-200, 0.0]), 1e-200),
        (spectral_norm, (0.0, [0.0, 0.0, -5e-324]), 5e-324),
        (energy_uncertainty, ([0.0, 0.0, 1.0], [5e-324, 0.0, 0.0]), 5e-324),
        (spectral_norm, (0.0, [0.0, 0.0, 0.0]), 0.0),
    ], ids=["spectral_norm", "energy_uncertainty", "spectral_norm_tiny",
            "energy_uncertainty_tiny", "spectral_norm_subnormal",
            "energy_uncertainty_subnormal", "spectral_norm_zero"])
    def test_float_edge_norms_are_finite(self, norm, args, true):
        # the squares of these entries overflow or underflow: the row is scaled
        # by a power of two before squaring and back after
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norm(*args)
        assert abs(got - true) <= 4 * np.spacing(true)

    @pytest.mark.parametrize("s", [1e77, 1e160, 1e300, 1e-78, 1e-150, 1e-300, 5e-324])
    def test_float_edge_fubini_study_distance_keeps_the_angle(self, s):
        # the squared cross product of these rows overflows or underflows: each
        # row is scaled by a power of two first, which keeps its direction
        true = 1.1071487177940904  # atan2(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fubini_study_distance([s, 2.0 * s, 0.0], [s, 0.0, 0.0])
            huge = fubini_study_distance([1e154, 0.0, 0.0], [0.6, 0.8, 0.0])
        assert abs(got - true) <= 4 * np.spacing(true)
        assert abs(huge - math.atan2(0.8, 0.6)) <= 4 * np.spacing(huge)

    @pytest.mark.parametrize("a,b", [([np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                     ([1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]),
                                     ([0.0, -np.inf, 0.0], [0.0, 0.0, 1.0])],
                             ids=["inf_a", "nan_b", "minus_inf_a"])
    def test_float_edge_fubini_study_distance_rejects_non_finite_rows(self, a, b):
        # the entries are checked before any product, so no RuntimeWarning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                fubini_study_distance(a, b)
            with pytest.raises(NumericalError, match="not finite"):
                endpoint_angle(a, b)

    @given(theta=angles, phi=phases)
    @settings(max_examples=60, deadline=None)
    def test_dispersion_matches_matrix_variance(self, theta, phi):
        psi = np.array([np.cos(theta / 2.0),
                        np.exp(1j * phi) * np.sin(theta / 2.0)])
        a = _bloch_rows(psi)
        h0, h = -0.7, np.array([1.0, -2.0, 0.5])
        m = pauli_compose(h0, h)
        mean = np.vdot(psi, m @ psi).real
        var = np.vdot(psi, m @ (m @ psi)).real - mean ** 2
        assert energy_uncertainty(a, h) == pytest.approx(np.sqrt(var),
                                                         abs=1e-10)

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
        got = fubini_study_distance(_bloch_rows(sa), _bloch_rows(sb))
        assert got == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("b", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                                   [0.0, -np.inf, 0.0]])
    def test_fubini_study_distance_rejects_non_finite_vectors(self, b):
        with pytest.raises(NumericalError, match="not finite"):
            fubini_study_distance([0.0, 0.0, 1.0], b)
        with pytest.raises(NumericalError, match="not finite"):
            fubini_study_distance([[0.0, 0.0, 1.0], b], [1.0, 0.0, 0.0])
        with pytest.raises(NumericalError, match="not finite"):
            fubini_study_distance(b, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("theta", [1e-300, 1e-12, 1e-6, np.pi - 1e-6,
                                       np.pi - 1e-12])
    def test_fubini_study_distance_keeps_relative_accuracy_at_the_ends(self, theta):
        b = [np.sin(theta), 0.0, np.cos(theta)]
        assert fubini_study_distance([0.0, 0.0, 1.0], b) \
            == pytest.approx(theta, rel=1e-15)

    def test_fubini_study_distance_is_the_angle_between_directions(self):
        assert fubini_study_distance([0.0, 0.0, 3.0], [0.5, 0.0, 0.5]) \
            == pytest.approx(np.pi / 4, rel=1e-15)

    @given(rows=st.lists(st.tuples(reals, reals, reals), min_size=1, max_size=40),
           b=st.tuples(reals, reals, reals))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_fubini_study_distance_rows_equal_single_calls(self, rows, b):
        a = np.array(rows)
        expected = np.array([fubini_study_distance(row, b) for row in a])
        assert np.array_equal(fubini_study_distance(a, b), expected)
        assert np.array_equal(fubini_study_distance(a.reshape(1, -1, 3), b),
                              expected[None])

    def test_fubini_study_distance_rows_match_a_trajectory_s0(self):
        # s0 of a run is this distance from the first node, row by row; both
        # products are summed in index order, so a row alone has the same bits
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 3))
        a /= np.linalg.norm(a, axis=1)[:, None]
        bx, by, bz = a[0].tolist()
        lengths = [math.sqrt(x * x + y * y + z * z)
                   for x, y, z in np.cross(a, a[0]).tolist()]
        dots = [x * bx + y * by + z * bz for x, y, z in a.tolist()]
        expected = np.arctan2(lengths, dots)
        assert np.array_equal(fubini_study_distance(a, a[0]), expected)
        assert [fubini_study_distance(row, a[0]) for row in a] == expected.tolist()


#: entries a kernel must carry through as the numpy function it replaces does
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan, 1e200])


def _with_specials(rng, shape):
    """Seeded normal entries of ``shape``, about a third of them replaced by
    :data:`SPECIAL` values."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    hit = rng.random(shape) < 0.35
    out[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return out


class TestKernelBits:
    """The library's spelled-out kernels give the bits of the numpy functions
    they replace, on every row: signed zeros, subnormals, infinities, NaN
    and products that overflow included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_sq_adds_the_squares_as_a_sum_does(self, seed):
        rng = np.random.default_rng(seed)
        rows = np.empty((301, 2), dtype=complex)  # no 1j * inf, which is NaN + inf j
        rows.real, rows.imag = _with_specials(rng, (301, 2)), _with_specials(rng, (301, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for r in (rows, rows[0], rows[5:9]):
                want = (r.real * r.real + r.imag * r.imag).sum(axis=-1)
                assert np.asarray(_norm_sq(r)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_gives_the_bits_of_np_cross(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _with_specials(rng, (301, 3)), _with_specials(rng, (301, 3))
        row = _with_specials(rng, (3,))
        pairs = [(a, b), (a, row), (row, a), (row, b[7]), (a[None], b[:4, None])]
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in pairs:
                got, want = _cross(x, y), np.cross(x, y)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFieldSpec:
    def test_constant_field_samples_its_constants(self):
        f = FieldSpec(h0=0.25, h=np.array([0.0, 0.5, 0.0]))
        assert np.allclose(f.sample([0.3])[1][0], [0.0, 0.5, 0.0])
        assert f.sample([1.7])[0][0] == pytest.approx(0.25)
