"""blochpath: efficiency and curvature diagnostics for qubit evolutions.

Simulates single-qubit Hamiltonian dynamics on the Bloch sphere and
quantifies how efficiently an evolution uses its geometric and energetic
budget: the geodesic efficiency (path length vs geodesic distance), the
speed efficiency (energy dispersion vs spectral norm), their product, and
the curvature coefficient that vanishes exactly on geodesics.
"""

import gc

# The objects these imports create, numpy's modules among them, live until
# exit, so a collection during them would walk them for nothing: the
# collector is paused for them and left as it was found.
_collecting, _frozen = gc.isenabled(), gc.get_freeze_count()
gc.disable()
try:
    from .core import (
        FieldSpec,
        energy_uncertainty,
        fubini_study_distance,
        pauli_compose,
        spectral_norm,
        state_from_bloch,
    )
    from .curvature import (
        curvature_bloch,
        curvature_bloch_profile,
        curvature_expectation_profile,
        curvature_numeric_profile,
    )
    from .efficiency import (
        Classification,
        EfficiencyReport,
        classify,
        efficiency_report,
        geodesic_efficiency_profile,
        hybrid_efficiency,
        speed_efficiency_profile,
        speed_efficiency_tracenonzero,
        speed_efficiency_tracezero,
    )
    from .errors import (
        BlochPathError,
        ConfigError,
        DegenerateEndpointsError,
        FieldError,
        HermiticityError,
        IntegrationError,
        NormalizationError,
        NumericalError,
        PreconditionError,
        RangeError,
        ShapeError,
        SingularEvolutionError,
        ZeroHamiltonianError,
        ZeroPathError,
    )
    from .evolve import (
        TimeGrid,
        Trajectory,
        parallel_transport,
        sample_field,
        schrodinger_evolve,
    )
    from .families import (
        SuboptimalStationary,
        UzdinFamily,
        endpoint_angle,
        rodrigues_rotate,
        suboptimal_axis,
        suboptimal_hamiltonian,
        uzdin_optimal,
        uzdin_suboptimal,
    )
    from .scenarios import (
        SCENARIOS,
        ReportRow,
        ScenarioConfig,
        build_scenario,
        run_report,
        sweep_alpha,
        sweep_phase_profiles,
        table_rows,
        write_csv,
        write_json,
    )
finally:
    if _collecting:
        # the pause left every new object young, and the first allocation
        # after it would walk them all; freezing and thawing moves them to
        # the oldest generation without a walk.  Thawing also thaws what the
        # host froze, so it is done only when the host froze nothing
        if not _frozen:
            gc.freeze()
            gc.unfreeze()
        gc.enable()

__version__ = "0.1.0"
