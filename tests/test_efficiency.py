"""Geodesic/speed/hybrid efficiencies and the waste taxonomy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    Classification,
    FieldSpec,
    NumericalError,
    RangeError,
    ShapeError,
    TimeGrid,
    ZeroHamiltonianError,
    ZeroPathError,
    classify,
    curvature_expectation_profile,
    efficiency_report,
    geodesic_efficiency_profile,
    hybrid_efficiency,
    schrodinger_evolve,
    speed_efficiency_profile,
    speed_efficiency_tracenonzero,
    speed_efficiency_tracezero,
    state_from_bloch,
)
from blochpath.efficiency import TOL_EXCESS
from feynman import feynman_evolve

PSI0 = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
SIGMA_Z_FIELD = FieldSpec(h0=0.0, h=np.array([0.0, 0.0, 1.0]))

unit = st.floats(min_value=0.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False)
phidots = st.floats(min_value=-8.0, max_value=8.0,
                    allow_nan=False, allow_infinity=False)
speeds = st.floats(min_value=1e-3, max_value=16.0,
                   allow_nan=False, allow_infinity=False)


class TestGeodesicEfficiency:
    def test_constant_sigma_z_closed_form(self, example3):
        traj = example3.traj
        expected = np.arccos((1.0 + 3.0 * np.cos(2.0)) / 4.0) / np.sqrt(3.0)
        assert geodesic_efficiency_profile(traj)[traj.grid.n_steps] \
            == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.94278207655677, abs=1e-12)

    def test_initial_node_limit_convention(self, example3):
        assert geodesic_efficiency_profile(example3.traj)[0] == 1.0

    def test_geodesic_drive_scores_one_everywhere(self, example1):
        profile = geodesic_efficiency_profile(example1.traj)
        assert np.max(np.abs(profile - 1.0)) < 1e-6

    def test_zero_path_raises(self):
        still = schrodinger_evolve(FieldSpec(h0=0.0, h=np.zeros(3)), PSI0,
                                   TimeGrid(0.0, 1.0, 10))
        with pytest.raises(ZeroPathError):
            efficiency_report(still)

    def test_profile_lies_in_unit_interval(self, example3):
        profile = geodesic_efficiency_profile(example3.traj)
        assert np.all(profile >= 0.0)
        assert np.all(profile <= 1.0 + 1e-9)


def speed_profile(h0, h, psi0):
    """Node-wise speed efficiency of a short run of a constant field."""
    return speed_efficiency_profile(
        schrodinger_evolve(FieldSpec(h0=h0, h=h), psi0, TimeGrid(0.0, 1.0, 200)))


UP = np.array([1.0, 0.0], dtype=complex)


class TestSpeedEfficiency:
    def test_sigma_z_closed_form(self):
        # PSI0 sits at a = (sqrt(3)/2, 0, 1/2) and precesses about z
        assert speed_profile(0.0, [0.0, 0.0, 1.0], PSI0) \
            == pytest.approx(np.sqrt(3) / 2, abs=1e-15)

    def test_transverse_field_is_fully_efficient(self):
        assert speed_profile(0.0, [0.7, 0.0, 0.0], UP) == pytest.approx(1.0, abs=1e-15)

    def test_trace_only_wastes_everything(self):
        with pytest.raises(ZeroHamiltonianError):
            speed_profile(0.0, [0.0, 0.0, 0.0], UP)
        assert speed_profile(5.0, [0.4, 0.0, 0.0], UP) \
            == pytest.approx(0.4 / 5.4, abs=1e-12)

    def test_closed_form_examples(self):
        assert speed_efficiency_tracenonzero(1.0, 0.0) == 1.0
        assert speed_efficiency_tracezero(1.0, 0.0) == 1.0
        assert speed_efficiency_tracenonzero(1.0, 2.0) \
            == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        assert speed_efficiency_tracezero(1.0, 2.0) \
            == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert speed_efficiency_tracezero(1.0, 1.0) \
            == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-12)
        # golden-ratio curiosity of the trace-kept form at (1, 1)
        assert speed_efficiency_tracenonzero(1.0, 1.0) \
            == pytest.approx(2.0 / (1.0 + np.sqrt(5.0)), abs=1e-12)

    def test_small_phidot_expansion(self):
        # the quadratic expansion is accurate to its own quartic remainder,
        # 3 phidot^4 / 128 at cdot_sq = 1
        got = speed_efficiency_tracezero(1.0, 0.1)
        assert got == pytest.approx(1.0 - 0.1 ** 2 / 8.0, abs=3e-6)
        got = speed_efficiency_tracezero(1.0, 0.01)
        assert got == pytest.approx(1.0 - 0.01 ** 2 / 8.0, abs=1e-9)

    @pytest.mark.parametrize("form,true", [(speed_efficiency_tracezero, 2e-150),
                                           (speed_efficiency_tracenonzero, 1e-150)])
    def test_float_edge_closed_forms_are_exact(self, form, true):
        # the squares of these arguments overflow; c / r squares neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = form(1e300, 1e300)
            # phidot^2 + 4 c^2 overflows from below 2**511: the ratio is that of
            # the point scaled down by a power of two
            edge = form(2.0**1021.9, 2.0**510.95)
            scaled = form(np.ldexp(2.0**1021.9, -1100), np.ldexp(2.0**510.95, -550))
        assert abs(got - true) <= 4 * np.spacing(true)
        assert abs(edge - scaled) <= 4 * np.spacing(scaled)

    @pytest.mark.parametrize("form,args,true", [
        (speed_efficiency_tracezero, (1.0, 1e170), 2e-170),
        (speed_efficiency_tracenonzero, (1.0, 1e170), 1e-170),
        (speed_efficiency_tracezero, (1.0, 1e155), 2e-155),
        # the double nearest 1e-310 is subnormal, 9.99999999999997e-311: the
        # true value at that input
        (speed_efficiency_tracezero, (1e-310, 1e10), 1.999999999999997e-165),
    ], ids=["tracezero", "tracenonzero", "tracezero_subnormal_square", "tracezero_subnormal_c2"])
    def test_float_edge_ratios_below_the_normal_range_keep_their_digits(self, form, args, true):
        # c^2 / denom is subnormal or 0 here; the ratio c / r squares nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = form(*args)
            both = form(args[0], np.array([args[1], 0.5]))
        assert abs(got - true) <= 4 * np.spacing(true)
        assert both[0] == got and both[1] == form(args[0], 0.5)

    def test_array_broadcasting(self):
        phidot = np.linspace(-2.0, 2.0, 11)
        out = speed_efficiency_tracezero(1.0, phidot)
        assert out.shape == phidot.shape
        assert np.all(out <= 1.0)

    def test_argument_validation(self):
        with pytest.raises(RangeError):
            speed_efficiency_tracezero(-1.0, 0.5)
        with pytest.raises(ZeroHamiltonianError):
            speed_efficiency_tracenonzero(0.0, 0.0)

    @given(cdot_sq=speeds, phidot=phidots)
    @settings(max_examples=80, deadline=None)
    def test_trace_ordering(self, cdot_sq, phidot):
        lo = speed_efficiency_tracenonzero(cdot_sq, phidot)
        hi = speed_efficiency_tracezero(cdot_sq, phidot)
        assert lo <= hi + 1e-12
        assert hi <= 1.0 + 1e-12
        if phidot == 0.0:
            assert lo == hi == 1.0

    @pytest.mark.parametrize("nu,omega", [(0.4, 1.0), (1.3, 0.7)])
    @pytest.mark.parametrize("variant,form", [
        ("trace_nonzero", speed_efficiency_tracenonzero),
        ("trace_zero", speed_efficiency_tracezero),
    ], ids=["trace_nonzero", "trace_zero"])
    def test_closed_form_matches_spectral_form(self, variant, form, nu, omega):
        # drive a great circle at angular speed omega (cdot_sq = omega^2) with
        # each construction and compare the field-level ratio against the
        # closed form node by node
        from blochpath import UzdinFamily, uzdin_suboptimal

        fam = UzdinFamily(
            m_state=lambda t: np.stack([np.cos(omega * t), np.sin(omega * t)],
                                       axis=-1).astype(complex),
            m_dot=lambda t: omega * np.stack([-np.sin(omega * t), np.cos(omega * t)],
                                             axis=-1).astype(complex),
            phase_dot=lambda t: np.full(t.shape, nu))
        field = uzdin_suboptimal(fam, variant)
        expected = form(omega**2, nu)
        traj = schrodinger_evolve(field, UP, TimeGrid(0.0, 0.81, 200))
        assert speed_efficiency_profile(traj) == pytest.approx(expected, abs=1e-10)


class TestHybridEfficiency:
    def test_product_and_reductions(self):
        assert hybrid_efficiency(1.0, 1.0) == 1.0
        assert hybrid_efficiency(0.98, 1.0) == pytest.approx(0.98)
        assert hybrid_efficiency(1.0, 0.37) == pytest.approx(0.37)
        assert hybrid_efficiency(0.98, np.sqrt(3) / 2) \
            == pytest.approx(0.8487, abs=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            hybrid_efficiency(-0.1, 0.5)
        with pytest.raises(RangeError):
            hybrid_efficiency(0.5, 1.2)

    @given(ge=unit, se=unit)
    @settings(max_examples=80, deadline=None)
    def test_product_never_beats_either_factor(self, ge, se):
        he = hybrid_efficiency(ge, se)
        assert 0.0 <= he <= 1.0
        assert he <= min(ge, se) + 1e-12

    def test_clips_as_np_clip_bit_for_bit(self):
        # signed zeros, the tolerance's edges, subnormals and 0-d arrays; two
        # float32 factors multiply in float32 as np.clip's did
        rng = np.random.default_rng(75)
        edges = [0.0, -0.0, TOL_EXCESS, -TOL_EXCESS, 1.0, 1.0 + TOL_EXCESS,
                 1.0 - TOL_EXCESS, 5e-324, -5e-324]
        values = edges + [*rng.uniform(0.0, 1.0, 40), *rng.uniform(-TOL_EXCESS, TOL_EXCESS, 20),
                          *(1.0 + rng.uniform(-TOL_EXCESS, TOL_EXCESS, 20))]
        for ge in values:
            for se in [*values, np.array(-0.0), np.array(0.5)]:
                for a, b in ((ge, se), (np.array(ge), se),
                             (np.float32(ge), np.float32(se))):
                    want = float(np.clip(a, 0.0, 1.0) * np.clip(b, 0.0, 1.0))
                    got = hybrid_efficiency(a, b)
                    assert type(got) is float and got.hex() == want.hex(), (a, b)

    def test_means_violate_the_bound_where_the_product_does_not(self):
        ge, se = 0.5, 1.0
        assert hybrid_efficiency(ge, se) <= min(ge, se) + 1e-12
        assert (ge + se) / 2.0 > min(ge, se)
        assert np.sqrt(ge * se) > min(ge, se)


class TestClassifier:
    @pytest.mark.parametrize("ge,se,label", [
        (1.0, 1.0, Classification.GEODESIC_UNWASTEFUL),
        (0.9995, 0.9999, Classification.GEODESIC_UNWASTEFUL),
        (0.9, 1.0, Classification.NONGEODESIC_UNWASTEFUL),
        (1.0, 0.9, Classification.GEODESIC_WASTEFUL),
        (0.9, 0.7, Classification.MORE_WASTEFUL_THAN_NONGEODESIC),
        (0.7, 0.9, Classification.LESS_WASTEFUL_THAN_NONGEODESIC),
        (0.9, 0.9, Classification.AS_WASTEFUL_AS_NONGEODESIC),
    ])
    def test_labels(self, ge, se, label):
        assert classify(ge, se) is label

    def test_label_strings_are_stable(self):
        assert Classification.GEODESIC_UNWASTEFUL.value == "GeodesicUnwasteful"
        assert Classification.NONGEODESIC_UNWASTEFUL.value \
            == "NongeodesicUnwasteful"
        assert Classification.GEODESIC_WASTEFUL.value == "GeodesicWasteful"
        assert Classification.MORE_WASTEFUL_THAN_NONGEODESIC.value \
            == "MoreWastefulThanNongeodesic"
        assert Classification.LESS_WASTEFUL_THAN_NONGEODESIC.value \
            == "LessWastefulThanNongeodesic"
        assert Classification.AS_WASTEFUL_AS_NONGEODESIC.value \
            == "AsWastefulAsNongeodesic"

    def test_scenario_labels(self, example1, example2, example3, example4):
        assert example1.report.classification \
            is Classification.GEODESIC_UNWASTEFUL
        assert example2.report.classification \
            is Classification.GEODESIC_WASTEFUL
        assert example3.report.classification \
            is Classification.MORE_WASTEFUL_THAN_NONGEODESIC
        assert example4.report.classification \
            is Classification.NONGEODESIC_UNWASTEFUL


class TestReports:
    def test_product_law_on_scenarios(self, example1, example2, example3,
                                      example4):
        for run in (example1, example2, example3, example4):
            r = run.report
            assert r.eta_he == pytest.approx(r.eta_ge_bar * r.eta_se_bar,
                                             abs=1e-12)
            assert r.eta_he <= min(r.eta_ge_bar, r.eta_se_bar) + 1e-12
            assert np.all(r.eta_ge_t <= 1.0 + 1e-9)
            assert np.all(r.eta_se_t <= 1.0 + 1e-9)

    def test_loss_diagnostics_complement_the_averages(self, example3):
        r = example3.report
        assert r.mean_length_loss == pytest.approx(1.0 - r.eta_ge_bar,
                                                   abs=1e-12)
        assert r.mean_energy_loss == pytest.approx(1.0 - r.eta_se_bar,
                                                   abs=1e-12)

    def test_frozen_sigma_z_averages(self, example3):
        r = example3.report
        assert r.eta_ge_bar == pytest.approx(0.9832234204104251, abs=1e-9)
        assert r.eta_se_bar == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert r.eta_he == pytest.approx(0.851496459671255, abs=1e-9)

    def test_parallel_component_wastes_speed_but_not_length(self):
        # adding a field component along the (analytically known) Bloch path
        # leaves the path and geodesic efficiency alone while the speed
        # efficiency strictly drops wherever the addition is active
        def a_exact(t):
            return np.array([np.sqrt(3) / 2 * np.cos(2.0 * t),
                             np.sqrt(3) / 2 * np.sin(2.0 * t), 0.5])

        lam = 0.4
        dressed = FieldSpec(
            h0=0.0, h=lambda t: np.array([0.0, 0.0, 1.0]) + lam * a_exact(t))
        grid = TimeGrid(0.0, 1.0, 1000)
        base_traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, grid)
        dressed_traj = schrodinger_evolve(dressed, PSI0, grid)

        assert np.max(np.abs(dressed_traj.bloch - base_traj.bloch)) < 1e-8
        assert geodesic_efficiency_profile(dressed_traj)[-1] == pytest.approx(
            geodesic_efficiency_profile(base_traj)[-1], abs=1e-8)

        base = efficiency_report(base_traj)
        worse = efficiency_report(dressed_traj)
        assert np.all(worse.eta_se_t < base.eta_se_t - 1e-3)

        a_feyn = feynman_evolve(dressed, base_traj.bloch[0], grid)
        assert np.max(np.abs(a_feyn - base_traj.bloch)) < 1e-8

    @staticmethod
    def rotating_run(c):
        """Report scalars and trajectory of a scalar-callable rotating drive
        mapped by ``(h0, h, T) -> (c h0(c t), c h(c t), T / c)``."""
        field = FieldSpec(h0=lambda t: c * 0.3,
                          h=lambda t: [c * 1.2 * math.cos(2.5 * c * t),
                                       c * 1.2 * math.sin(2.5 * c * t), c * 0.4],
                          t_span=(0.0, 1.0 / c))
        traj = schrodinger_evolve(field, state_from_bloch([0.6, 0.0, 0.8]),
                                  TimeGrid(0.0, 1.0 / c, 400))
        report = efficiency_report(traj)._asdict()
        del report["eta_ge_t"], report["eta_se_t"]
        return report, traj

    @pytest.mark.parametrize("c", [2.0**-20, 0.25, 8.0, 2.0**20])
    def test_a_power_of_two_time_scale_gives_the_same_bits(self, c):
        # the efficiencies are dimensionless; scaling by 2^k rounds nowhere
        want, want_traj = self.rotating_run(1.0)
        got, traj = self.rotating_run(c)
        assert got == want
        assert traj.bloch.tobytes() == want_traj.bloch.tobytes()

    @pytest.mark.parametrize("c", [3.0, 1e-3])
    def test_any_time_scale_gives_the_same_report(self, c):
        # measured gaps: 7.2e-15 (c = 3) and 2.9e-15 (c = 1e-3), relative
        want, _ = self.rotating_run(1.0)
        got, _ = self.rotating_run(c)
        assert got["classification"] == want["classification"]
        for name, value in want.items():
            if name != "classification":
                assert got[name] == pytest.approx(value, rel=1e-14, abs=0.0), name

    def test_non_finite_efficiencies_raise_numerical_error(self):
        # NaN passes every range check; the report must not average it
        traj = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 50))
        delta_e = traj.delta_e.copy()
        delta_e[17] = np.nan
        with pytest.raises(NumericalError, match="finite"):
            efficiency_report(traj._replace(delta_e=delta_e))
        with pytest.raises(NumericalError, match="finite"):
            speed_efficiency_tracezero(np.nan, 1.0)


class TestHandBuiltTrajectory:
    """A trajectory edited after the run is checked on entry, as
    ``parallel_transport`` checks it, and a NaN length is not read as 0."""

    TRAJ = schrodinger_evolve(SIGMA_Z_FIELD, PSI0, TimeGrid(0.0, 1.0, 20))

    def test_a_short_delta_e_is_a_shape_error(self):
        traj = self.TRAJ._replace(delta_e=self.TRAJ.delta_e[:-1])
        with pytest.raises(ShapeError, match="delta_e"):
            efficiency_report(traj)

    def test_short_states_are_a_shape_error(self):
        traj = self.TRAJ._replace(states=self.TRAJ.states[:-1])
        with pytest.raises(ShapeError, match="states"):
            curvature_expectation_profile(traj)

    def test_a_nan_path_length_is_a_numerical_error(self):
        traj = self.TRAJ._replace(s_accum=np.full(self.TRAJ.n_nodes, np.nan))
        with pytest.raises(NumericalError, match="finite"):
            geodesic_efficiency_profile(traj)
        with pytest.raises(NumericalError, match="finite"):
            efficiency_report(traj)

    def test_a_geodesic_shortened_past_its_length_is_a_numerical_error(self, example1):
        # example1 runs along the geodesic, so s0 / s reads 1 / (1 - 1e-8)
        traj = example1.traj._replace(s_accum=example1.traj.s_accum * (1.0 - 1e-8))
        with pytest.raises(NumericalError, match=r"efficiency exceeds 1 by 1\.000e-08$"):
            efficiency_report(traj)

    def test_a_finite_bloch_norm_drift_is_a_numerical_error(self, example1):
        traj = example1.traj._replace(bloch=example1.traj.bloch * (1.0 + 1e-7))
        with pytest.raises(NumericalError,
                           match=r"^Bloch norm drift 2\.000e-07 exceeds 1e-08$"):
            efficiency_report(traj)
