"""Curvature coefficient: closed form, operator form, and numeric oracle."""

import warnings

import numpy as np
import pytest

from blochpath import (
    FieldSpec,
    NumericalError,
    PreconditionError,
    SingularEvolutionError,
    TimeGrid,
    curvature_bloch,
    curvature_bloch_profile,
    curvature_expectation,
    curvature_numeric_oracle,
    curvature_numeric_profile,
    curvature_transverse,
    schrodinger_evolve,
)

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
        with pytest.raises(NumericalError, match="NaN"):
            curvature_bloch_profile(traj, field)

    def test_scale_invariance_for_static_fields(self):
        # a static rescaled field traces the same circle, so the
        # dimensionless coefficient must not change
        a = np.array([np.sqrt(3) / 2, 0.0, 0.5])
        h = np.array([0.0, 0.0, 1.0])
        for scale in (0.5, 2.0, 7.0):
            assert curvature_bloch(a, scale * h, np.zeros(3)) \
                == pytest.approx(FOUR_THIRDS, abs=1e-10)


class TestTransverseForm:
    def test_constant_transverse_field_is_flat(self):
        f = lambda t: np.array([0.0, 0.5, 0.0])
        assert curvature_transverse(f, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_rotating_field_direction_rate(self):
        nu, amp = 0.8, 0.5
        f = lambda t: amp * np.array([np.cos(nu * t), np.sin(nu * t), 0.0])
        got = curvature_transverse(f, 0.4)
        assert got == pytest.approx(nu ** 2 / amp ** 2, abs=1e-8)

    def test_orthogonality_precondition(self):
        f = lambda t: np.array([0.5, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            curvature_transverse(f, 0.0, a=[1.0, 0.0, 0.0])

    def test_vanishing_field_is_singular(self):
        with pytest.raises(SingularEvolutionError):
            curvature_transverse(lambda t: np.zeros(3), 0.0)

    def test_prescribed_path_drive_gives_four_thirds(self, example4):
        traj, field = example4.traj, example4.field
        for k in (200, 1000, 1800):
            got = curvature_transverse(lambda t: field.sample([t])[1][0],
                                       traj.times[k], a=traj.bloch[k], fd_step=1e-5)
            assert got == pytest.approx(FOUR_THIRDS, abs=1e-6)


class TestExpectationForm:
    def test_sigma_z_matches_closed_form(self, example3):
        for k in (100, 1000, 1900):
            got = curvature_expectation(example3.traj, k=k)
            assert got == pytest.approx(FOUR_THIRDS, abs=1e-9)

    def test_no_commutator_warning_for_clean_runs(self, example3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curvature_expectation(example3.traj, k=500)

    def test_endpoints_use_one_sided_differences(self, example3):
        n = example3.traj.grid.n_steps
        for k in (0, n):
            got = curvature_expectation(example3.traj, k=k)
            assert got == pytest.approx(FOUR_THIRDS, abs=1e-6)


class TestNumericOracle:
    def test_sigma_z_profile(self, example3):
        prof = curvature_numeric_profile(example3.traj)
        interior = prof[10:-10]
        assert np.max(np.abs(interior - FOUR_THIRDS)) < 1e-3

    def test_oracle_at_one_node(self, example3):
        k = example3.traj.grid.n_steps // 2
        got = curvature_numeric_oracle(example3.traj, k=k)
        assert got == pytest.approx(FOUR_THIRDS, abs=1e-3)

    def test_geodesic_profile_is_flat(self, example1):
        prof = curvature_numeric_profile(example1.traj)
        assert np.max(np.abs(prof[10:-10])) < 1e-5

    def test_boundary_node_is_rejected(self, example3):
        with pytest.raises(PreconditionError):
            curvature_numeric_oracle(example3.traj, k=0)

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
