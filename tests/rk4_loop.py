"""RK4 references for the propagator in :mod:`blochpath.evolve`.

:func:`sequential_rk4` is the per-step loop :func:`blochpath.schrodinger_evolve`
once ran: one RK4 step on the state vector at a time, renormalizing after
each.  The library builds every step matrix at once and propagates them with
a blocked prefix product; agreement with this loop, state by state and in
the step an integration fails, checks that rewrite.

:func:`hillis_steele_rk4` is that blocked propagator as it was before fields
with equal samples got one step matrix and its doubled powers: it builds
every step's matrix and takes their Hillis-Steele prefix products in every
block.  It forms ``-iH`` as the library once did, from
:func:`blochpath.pauli_compose` multiplied into a new array and transposed
to entry-major order, not with the library's step build, which writes the
same entries entry-major directly.  The library must give its states bit
for bit.
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
from blochpath.core import _first
from blochpath.evolve import _BLOCK, MAX_STEP_DRIFT, TOL_NORM0, _mul


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


def step_matrices(h0, h, dt) -> np.ndarray:
    """Entry-major ``(2, 2, n)`` RK4 step matrices from ``2n + 1`` node and
    midpoint samples, with ``-iH`` built through :func:`pauli_compose`."""
    gen = (-1j * pauli_compose(h0, h)).transpose(1, 2, 0).copy()
    a0, am, a1 = gen[..., :-2:2], gen[..., 1::2], gen[..., 2::2]
    eye = np.eye(2)[..., None]
    k2 = _mul(am, eye + (0.5 * dt) * a0)
    k3 = _mul(am, eye + (0.5 * dt) * k2)
    k4 = _mul(a1, eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def hillis_steele_rk4(field: FieldSpec, psi0, grid: TimeGrid) -> np.ndarray:
    """The ``(n_nodes, 2)`` states of the blocked propagator with a
    Hillis-Steele scan over every block's own step matrices."""
    h0_half, h_half = sample_field(field, grid.half_times)
    n_steps, dt = grid.n_steps, grid.dt
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = psi0
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        p, shift = step_matrices(h0_half[2 * lo:2 * hi + 1],
                                 h_half[2 * lo:2 * hi + 1], dt), 1
        while shift < hi - lo:  # P_k = M_k ... M_0
            p[..., shift:] = _mul(p[..., shift:], p[..., :-shift])
            shift *= 2
        w = _mul(p, states[lo, :, None, None])[:, 0]
        norms = np.linalg.norm(w, axis=0)
        states[lo + 1:hi + 1] = (w / norms).T
        growth = norms / np.concatenate(([np.linalg.norm(states[lo])], norms[:-1]))
        drift = np.abs(growth - 1.0)
        k = _first(~(drift <= MAX_STEP_DRIFT))
        if k is not None:
            cause = (f"norm drift {drift[k]:.3e} in step" if np.isfinite(drift[k])
                     else "state norm is not finite after step")
            raise IntegrationError(f"{cause} {lo + k}; reduce dt")
    return states
