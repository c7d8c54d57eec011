"""Bloch-equation RK4 integrator: the test suite's reference propagator.

It integrates ``da/dt = 2 h(t) x a`` directly on Bloch vectors and shares
only the field sampling and the time grid with the library, so agreement
with :func:`blochpath.schrodinger_evolve` cross-checks the state-space
integration (acceptance criterion 09).
"""

import numpy as np

from blochpath import (
    FieldSpec,
    IntegrationError,
    NormalizationError,
    ShapeError,
    TimeGrid,
    sample_field,
)
from blochpath.evolve import MAX_STEP_DRIFT


def feynman_evolve(field: FieldSpec, a0,
                   grid: TimeGrid | None = None) -> np.ndarray:
    """Integrate the Bloch equation ``da/dt = 2 h(t) x a`` with RK4.

    Returns the ``(n_nodes, 3)`` Bloch path.  Independent of
    :func:`schrodinger_evolve`; useful as a cross-check of the state-space
    integration.
    """
    if grid is None:
        grid = TimeGrid.with_density(*field.t_span)
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (3,):
        raise ShapeError(f"expected a length-3 Bloch vector, got shape {a0.shape}")
    if abs(a0 @ a0 - 1.0) > 1e-10:
        raise NormalizationError("initial Bloch vector must be unit length")

    _, h_half = sample_field(field, grid.half_times)
    dt = grid.dt
    out = np.empty((grid.n_nodes, 3))
    out[0] = a0
    a = a0
    for k in range(grid.n_steps):
        h_a = h_half[2 * k]
        h_m = h_half[2 * k + 1]
        h_b = h_half[2 * k + 2]
        k1 = 2.0 * np.cross(h_a, a)
        k2 = 2.0 * np.cross(h_m, a + (0.5 * dt) * k1)
        k3 = 2.0 * np.cross(h_m, a + (0.5 * dt) * k2)
        k4 = 2.0 * np.cross(h_b, a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.sqrt(a @ a)
        if abs(norm - 1.0) > MAX_STEP_DRIFT:
            raise IntegrationError(f"Bloch norm drift in step {k}; reduce dt")
        a = a / norm
        out[k + 1] = a
    return out
