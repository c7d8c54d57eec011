"""blochpath: efficiency and curvature diagnostics for qubit evolutions.

Simulates single-qubit Hamiltonian dynamics on the Bloch sphere and
quantifies how efficiently an evolution uses its geometric and energetic
budget: the geodesic efficiency (path length vs geodesic distance), the
speed efficiency (energy dispersion vs spectral norm), their product, and
the curvature coefficient that vanishes exactly on geodesics.
"""

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

__version__ = "0.1.0"
