"""blochpath: efficiency and curvature diagnostics for qubit evolutions.

Simulates single-qubit Hamiltonian dynamics on the Bloch sphere and
quantifies how efficiently an evolution uses its geometric and energetic
budget: the geodesic efficiency (path length vs geodesic distance), the
speed efficiency (energy dispersion vs spectral norm), their product, and
the curvature coefficient that vanishes exactly on geodesics.

It loads lazily (PEP 562): the first lookup of an export or a numeric module
imports every module, numpy with them, and binds the exports as attributes.
"""

import gc

__version__ = "0.1.0"

#: the exports, by the module that defines them
_EXPORTS = {module: tuple(names.split()) for module, names in {
    "core": "FieldSpec energy_uncertainty fubini_study_distance pauli_compose spectral_norm "
            "state_from_bloch",
    "curvature": "curvature_bloch curvature_bloch_profile curvature_expectation_profile "
                 "curvature_numeric_profile",
    "efficiency": "Classification EfficiencyReport classify efficiency_report "
                  "geodesic_efficiency_profile hybrid_efficiency speed_efficiency_profile "
                  "speed_efficiency_tracenonzero speed_efficiency_tracezero",
    "errors": "BlochPathError ConfigError DegenerateEndpointsError FieldError IntegrationError "
              "NormalizationError NumericalError PreconditionError RangeError ShapeError "
              "SingularEvolutionError ZeroHamiltonianError ZeroPathError",
    "evolve": "TimeGrid Trajectory parallel_transport sample_field schrodinger_evolve",
    "families": "SuboptimalStationary UzdinFamily endpoint_angle suboptimal_axis "
                "suboptimal_hamiltonian uzdin_optimal uzdin_suboptimal",
    "scenarios": "SCENARIOS ReportRow ScenarioConfig build_scenario run_report sweep_alpha "
                 "sweep_phase_profiles table_rows write_csv write_json",
}.items()}

__all__ = [name for names in _EXPORTS.values() for name in names]


def _load(freeze: bool = False) -> None:
    """Import every module and bind its exports here; ``freeze`` leaves all objects frozen."""
    # The objects these imports create, numpy's modules among them, live until
    # exit, so a collection during them would walk them for nothing: the
    # collector is paused for them and left as it was found.
    collecting, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    try:
        for module, names in _EXPORTS.items():
            # __import__, not importlib's, so that -X importtime lists them
            loaded = __import__(f"{__name__}.{module}", fromlist=names)
            globals().update((name, getattr(loaded, name)) for name in names)
    finally:
        # the pause left every new object young, for the next collection to walk;
        # freezing moves them out of its reach, and thawing to the oldest
        # generation, without a walk.  Thawing would thaw what the host froze too
        if freeze or collecting and not frozen:
            gc.freeze()
            if not freeze:
                gc.unfreeze()
        if collecting:
            gc.enable()


def __getattr__(name):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
