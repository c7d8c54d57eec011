"""Curvature coefficient of a transported qubit trajectory, three ways.

The coefficient is the squared norm of the second covariant derivative of
the parallel-transported state with respect to arc length; it vanishes
exactly on geodesics.  Three equivalent evaluations are provided:

* a closed form in Bloch-space data ``(a, h, dh/dt)``;
* an expectation-value form built from the normalized dispersion operator
  ``Dh = (H - <H>) / dE`` and its transported derivative;
* a direct finite-difference evaluation of the covariant derivative,
  useful as a method-independent cross-check.

Inside this module the arc-length speed is ``v = dE`` (not the factor-2
normalization used for the path length ``s_accum`` elsewhere); the
coefficient is dimensionless either way.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import FieldSpec, _as_rows, pauli_compose
from .errors import (
    NumericalError,
    PreconditionError,
    SingularEvolutionError,
)
from .evolve import Trajectory, _trapezoid, parallel_transport

__all__ = [
    "curvature_bloch",
    "curvature_bloch_profile",
    "curvature_transverse",
    "curvature_expectation",
    "curvature_numeric_oracle",
    "curvature_numeric_profile",
]

#: dispersion denominators below this are singular (eigenstate evolution)
TOL_SING = 1e-12
#: squared-norm results may undershoot 0 by at most this
TOL_NEG = 1e-9


def _clamp_nonneg(value):
    if not np.all(value >= -TOL_NEG):
        raise NumericalError(f"curvature {float(np.min(value))!r} is NaN or "
                             "negative beyond tolerance")
    return np.where(value < 0.0, 0.0, value)[()]


def _dot(x, y):
    """Row-wise dot product over the last axis, rounded like 1-D ``x @ y``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def curvature_bloch(a, h, h_dot):
    """Closed-form curvature from Bloch-space data of a traceless field.

    Three terms: a parallel-component term ``4 (a.h)^2 / D``, a
    field-rotation term, and a mixed term, with ``D = h^2 - (a.h)^2``.
    The trace part of the Hamiltonian cannot bend the path and must be
    dropped by the caller (only ``h`` enters).  Broadcasts over ``(..., 3)``
    rows; ``float_power`` makes each row round as a lone 3-vector does.
    """
    a = _as_rows(a, "Bloch vector")
    h = _as_rows(h, "field")
    hd = _as_rows(h_dot, "field derivative")
    ah = _dot(a, h)
    hh = _dot(h, h)
    d = hh - ah * ah
    if not np.all(d > TOL_SING):
        raise SingularEvolutionError(
            "a is (anti)parallel to h; eigenstate evolutions have no "
            "arc-length parameterization"
        )
    term1 = 4.0 * ah * ah / d
    w = _dot(a, hd)[..., None] * h - ah[..., None] * hd
    term2 = (hh * _dot(hd, hd) - np.float_power(_dot(h, hd), 2)
             - _dot(w, w)) / np.float_power(d, 3)
    term3 = 4.0 * ah * _dot(a, np.cross(h, hd)) / np.float_power(d, 2)
    return _clamp_nonneg(term1 + term2 + term3)


def curvature_bloch_profile(traj: Trajectory, field: FieldSpec) -> np.ndarray:
    """Node-wise :func:`curvature_bloch` along a trajectory.

    ``dh/dt`` comes from ``field.h_dot`` when supplied, otherwise from a
    central difference with the grid spacing.
    """
    h_dot = field.sample_h_dot(traj.times, step=traj.grid.dt)
    return curvature_bloch(traj.bloch, traj.h_nodes, h_dot)


def curvature_transverse(h_perp, t: float, a=None, fd_step: float = 1e-6) -> float:
    """Curvature of a purely transverse field: ``|d(unit h)/dt|^2 / h^2``.

    Valid when the field stays orthogonal to the Bloch vector (``a.h = 0``),
    in which case the coefficient only measures how fast the field
    direction turns relative to the precession rate.  Pass ``a`` to have
    the orthogonality precondition checked.
    """
    h = np.asarray(h_perp(t), dtype=float)
    h_sq = float(h @ h)
    if h_sq <= TOL_SING:
        raise SingularEvolutionError("transverse field vanishes at this time")
    if a is not None:
        a = np.asarray(a, dtype=float)
        if abs(float(a @ h)) > 1e-9 * max(1.0, np.sqrt(h_sq)):
            raise PreconditionError(
                "field is not orthogonal to the Bloch vector; use "
                "curvature_bloch for the general case"
            )
    plus = np.asarray(h_perp(t + fd_step), dtype=float)
    minus = np.asarray(h_perp(t - fd_step), dtype=float)
    unit_dot = (plus / np.linalg.norm(plus) - minus / np.linalg.norm(minus)) \
        / (2.0 * fd_step)
    return _clamp_nonneg(float(unit_dot @ unit_dot) / h_sq)


def _dispersion_operator(traj: Trajectory, k: int) -> np.ndarray:
    """Matrix ``Dh = (H - <H>) / dE`` at node ``k``."""
    de = traj.delta_e[k]
    if de <= TOL_SING:
        raise SingularEvolutionError(f"dE = {de!r} at node {k}; eigenstate evolution")
    matrix = pauli_compose(traj.h0_nodes[k], traj.h_nodes[k])
    expect = traj.h0_nodes[k] + float(traj.bloch[k] @ traj.h_nodes[k])
    return (matrix - expect * np.eye(2)) / de


def curvature_expectation(traj: Trajectory, k: int = 0) -> float:
    """Curvature at node ``k`` from moments of the dispersion operator.

    Evaluates ``<Dh^4> - <Dh^2>^2 + <Dh'^2> - <Dh'>^2 + i<[Dh^2, Dh']>``
    in the state at node ``k``, where ``Dh' = (dDh/dt) / v`` and ``v = dE``.
    The time derivative uses a central difference over the neighboring
    nodes (one-sided second order at the ends, which carries a larger
    error).  The commutator expectation is purely imaginary in exact
    arithmetic; a real residual above 1e-10 flags the node with a warning.
    """
    n = traj.n_nodes
    if not 0 <= k < n:
        raise IndexError(f"node {k} outside trajectory of {n} nodes")
    dt = traj.grid.dt
    dh = _dispersion_operator(traj, k)
    if k == 0:
        ddh = (-3.0 * dh + 4.0 * _dispersion_operator(traj, 1)
               - _dispersion_operator(traj, 2)) / (2.0 * dt)
    elif k == n - 1:
        ddh = (3.0 * dh - 4.0 * _dispersion_operator(traj, n - 2)
               + _dispersion_operator(traj, n - 3)) / (2.0 * dt)
    else:
        ddh = (_dispersion_operator(traj, k + 1)
               - _dispersion_operator(traj, k - 1)) / (2.0 * dt)
    dh_prime = ddh / traj.delta_e[k]

    psi = traj.states[k]

    def expect(op: np.ndarray) -> complex:
        return complex(np.vdot(psi, op @ psi))

    dh_sq = dh @ dh
    moment4 = expect(dh_sq @ dh_sq).real
    moment2 = expect(dh_sq).real
    prime_var = expect(dh_prime @ dh_prime).real - expect(dh_prime).real ** 2
    comm = expect(dh_sq @ dh_prime - dh_prime @ dh_sq)
    if abs(comm.real) > 1e-10:
        warnings.warn(
            f"commutator expectation has real residual {comm.real:.3e} "
            f"at node {k}; finite-difference noise suspected",
            RuntimeWarning,
            stacklevel=2,
        )
    cross = (1j * comm).real
    return _clamp_nonneg(moment4 - moment2**2 + prime_var + cross)


def curvature_numeric_profile(traj: Trajectory) -> np.ndarray:
    """Direct covariant-derivative curvature at every node.

    Parallel transports the states, reparameterizes by arc length
    ``s = integral dE dt``, differentiates twice with second-order
    ``numpy.gradient`` stencils, projects out the state component, and
    returns the squared norm.  End nodes lean on one-sided stencils and are
    less accurate; exclude them when comparing against closed forms.
    """
    m = parallel_transport(traj)
    s = _trapezoid(traj.delta_e, traj.times, cumulative=True)
    if np.any(np.diff(s) <= 0.0):
        raise SingularEvolutionError(
            "arc length is not strictly increasing; dE vanishes on the grid"
        )
    tangent = np.gradient(m, s, axis=0, edge_order=2)
    tangent_prime = np.gradient(tangent, s, axis=0, edge_order=2)
    overlap = np.einsum("ij,ij->i", m.conj(), tangent_prime)
    normal = tangent_prime - overlap[:, None] * m
    return np.einsum("ij,ij->i", normal.conj(), normal).real


def curvature_numeric_oracle(traj: Trajectory, k: int) -> float:
    """Covariant-derivative curvature at node ``k``, which must be interior
    (the boundary stencils are not acceptance grade)."""
    if not 0 < k < traj.n_nodes - 1:
        raise PreconditionError("numeric curvature is only trusted at interior nodes")
    return float(curvature_numeric_profile(traj)[k])
