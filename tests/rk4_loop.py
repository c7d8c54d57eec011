"""Sequential RK4 on states: the test suite's step-by-step reference.

This is the per-step loop :func:`blochpath.schrodinger_evolve` once ran:
one RK4 step on the state vector at a time, renormalizing after each.  The
library now builds every step matrix at once and propagates them with a
blocked prefix product; agreement with this loop, state by state and in the
step an integration fails, checks that rewrite.
"""

import numpy as np

from blochpath import (
    FieldSpec,
    IntegrationError,
    NormalizationError,
    ShapeError,
    TimeGrid,
    pauli_compose,
    sample_field,
)
from blochpath.evolve import MAX_STEP_DRIFT, TOL_NORM0


def sequential_rk4(field: FieldSpec, psi0, grid: TimeGrid) -> np.ndarray:
    """The ``(n_nodes, 2)`` states of ``i dpsi/dt = H(t) psi``, one RK4
    step after the other."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ShapeError(f"expected a length-2 state, got shape {psi0.shape}")
    norm0 = np.sqrt(np.vdot(psi0, psi0).real)
    if not abs(norm0 - 1.0) <= TOL_NORM0:
        raise NormalizationError(f"initial state norm {norm0!r}, expected 1")

    h0_half, h_half = sample_field(field, grid.half_times)
    gen = -1j * pauli_compose(h0_half, h_half)
    dt = grid.dt

    states = np.empty((grid.n_nodes, 2), dtype=complex)
    states[0] = psi0
    y = psi0
    for k in range(grid.n_steps):
        a0 = gen[2 * k]
        am = gen[2 * k + 1]
        a1 = gen[2 * k + 2]
        k1 = a0 @ y
        k2 = am @ (y + (0.5 * dt) * k1)
        k3 = am @ (y + (0.5 * dt) * k2)
        k4 = a1 @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.sqrt(np.vdot(y, y).real)
        drift = abs(norm / (norm0 if k == 0 else 1.0) - 1.0)
        if not drift <= MAX_STEP_DRIFT:
            if not np.isfinite(drift):
                raise IntegrationError(
                    f"state norm is not finite after step {k}; reduce dt"
                )
            raise IntegrationError(
                f"norm drift {drift:.3e} in step {k}; reduce dt"
            )
        y = y / norm
        states[k + 1] = y
    return states
