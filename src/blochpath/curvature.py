"""Curvature coefficient of a transported qubit trajectory, three ways.

The coefficient is the squared norm of the second covariant derivative of
the parallel-transported state with respect to arc length; it vanishes
exactly on geodesics.  Three equivalent profiles, each one broadcast over
every node of a trajectory, are provided:

* :func:`curvature_bloch_profile`, a closed form in Bloch-space data
  ``(a, h, dh/dt)`` (:func:`curvature_bloch` on any rows);
* :func:`curvature_expectation_profile`, expectation values of the
  normalized dispersion operator ``Dh = (H - <H>) / dE`` and its
  transported derivative;
* :func:`curvature_numeric_profile`, a direct finite-difference evaluation
  of the covariant derivative, a method-independent cross-check.

Inside this module the arc-length speed is ``v = dE`` (not the factor-2
normalization used for the path length ``s_accum`` elsewhere); the
coefficient is dimensionless either way.
"""

from __future__ import annotations

import numpy as np

from .core import (FieldSpec, _as_rows, _broadcast, _check_finite, _cross, _dot, _first,
                   pauli_compose)
from .errors import NumericalError, SingularEvolutionError
from .evolve import Trajectory, parallel_transport

__all__ = [
    "curvature_bloch",
    "curvature_bloch_profile",
    "curvature_expectation_profile",
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


def curvature_bloch(a, h, h_dot):
    """Closed-form curvature from Bloch-space data of a traceless field.

    Three terms: a parallel-component term ``4 (a.h)^2 / D``, a
    field-rotation term, and a mixed term, with ``D = h^2 - (a.h)^2``.
    When ``h_dot`` is all zeros (a stationary field) and ``h^2`` is finite,
    the last two are exact zeros of either sign and the first term alone
    is returned: the same bits as the sum.
    The trace part of the Hamiltonian cannot bend the path and must be
    dropped by the caller (only ``h`` enters).  Broadcasts over ``(..., 3)``
    rows; ``float_power`` makes each row round as a lone 3-vector does.
    """
    a = _as_rows(a, "Bloch vector")
    h = _as_rows(h, "field")
    hd = _as_rows(h_dot, "field derivative")
    shape = _broadcast(a, h, hd)
    ah = _dot(a, h)
    hh = _dot(h, h)
    d = hh - ah * ah
    if not np.all(d > TOL_SING):
        raise SingularEvolutionError(
            "a is (anti)parallel to h; eigenstate evolutions have no "
            "arc-length parameterization"
        )
    term1 = 4.0 * ah * ah / d
    if not hd.any() and np.isfinite(hh).all():  # term2 and term3 are +-0
        return _clamp_nonneg(np.broadcast_to(term1, shape[:-1]))
    w = _dot(a, hd)[..., None] * h - ah[..., None] * hd
    # past |h| ~ 1e51 the powers of d overflow to inf and the terms to 0
    with np.errstate(over="ignore"):
        term2 = (hh * _dot(hd, hd) - np.float_power(_dot(h, hd), 2)
                 - _dot(w, w)) / np.float_power(d, 3)
        term3 = 4.0 * ah * _dot(a, _cross(h, hd)) / np.float_power(d, 2)
    return _clamp_nonneg(term1 + term2 + term3)


def curvature_bloch_profile(traj: Trajectory, field: FieldSpec) -> np.ndarray:
    """Node-wise :func:`curvature_bloch` along a trajectory.

    ``dh/dt`` comes from ``field.h_dot`` when supplied, else, with no field
    call, from differences of the run's samples ``traj.h_half``, exact zeros
    on equal samples: ``(h(t + dt/2) - h(t - dt/2)) / dt`` at inner nodes,
    one-sided second-order ones at the ends.  A non-finite ``dh/dt`` is a
    :class:`FieldError` naming the node's time.
    """
    if field.h_dot is None:
        h, h_dot = traj.h_half, np.empty(traj.h_nodes.shape)
        h_dot[0] = 4.0 * (h[1] - h[0]) - (h[2] - h[0])
        h_dot[1:-1] = h[3::2] - h[1:-2:2]
        h_dot[-1] = 4.0 * (h[-1] - h[-2]) - (h[-1] - h[-3])
        h_dot /= traj.grid.dt
    else:
        h_dot = field.sample_h_dot(traj.times)
    _check_finite(traj.times, "field derivative", h_dot)
    return curvature_bloch(traj.bloch, traj.h_nodes, h_dot)


def curvature_expectation_profile(traj: Trajectory) -> np.ndarray:
    """Curvature at every node from moments of the dispersion operator.

    Evaluates ``<Dh^4> - <Dh^2>^2 + <Dh'^2> - <Dh'>^2 + i<[Dh^2, Dh']>``
    in the state at each node, with ``Dh = (H - <H>) / dE`` and
    ``Dh' = (dDh/dt) / v``, ``v = dE``.  Both are ``(n, 2, 2)`` stacks,
    applied to the states one operator at a time.  The time derivative is
    a central difference over the neighboring nodes (one-sided second
    order at the ends, which carries a larger error).
    A node with ``dE <= TOL_SING`` raises :class:`SingularEvolutionError`
    naming the first one.
    """
    traj.validate()
    de = traj.delta_e
    first = _first(~(de > TOL_SING))
    if first is not None:
        raise SingularEvolutionError(
            f"dE = {float(de[first])!r} at node {first}; eigenstate evolution")
    expect_h = traj.h0_nodes + _dot(traj.bloch, traj.h_nodes)
    dh = (pauli_compose(traj.h0_nodes, traj.h_nodes)
          - expect_h[:, None, None] * np.eye(2)) / de[:, None, None]
    ddh = np.empty_like(dh)
    ddh[0] = -3.0 * dh[0] + 4.0 * dh[1] - dh[2]
    ddh[1:-1] = dh[2:] - dh[:-2]
    ddh[-1] = 3.0 * dh[-1] - 4.0 * dh[-2] + dh[-3]
    dh_prime = ddh / (2.0 * traj.grid.dt) / de[:, None, None]

    psi = traj.states

    def apply(op: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", op, vec)

    def expect(vec: np.ndarray) -> np.ndarray:
        return np.einsum("ni,ni->n", psi.conj(), vec)

    dh2_psi = apply(dh, apply(dh, psi))
    prime_psi = apply(dh_prime, psi)
    moment4 = expect(apply(dh, apply(dh, dh2_psi))).real
    moment2 = expect(dh2_psi).real
    prime_var = expect(apply(dh_prime, prime_psi)).real - expect(prime_psi).real ** 2
    comm = expect(apply(dh, apply(dh, prime_psi)) - apply(dh_prime, dh2_psi))
    cross = (1j * comm).real
    return _clamp_nonneg(moment4 - moment2**2 + prime_var + cross)


def curvature_numeric_profile(traj: Trajectory) -> np.ndarray:
    """Direct covariant-derivative curvature at every node.

    Parallel transports the states, reparameterizes by arc length
    ``s = integral dE dt`` (half the stored ``s_accum``), differentiates
    twice with second-order ``numpy.gradient`` stencils, projects out the
    state component, and returns the squared norm.  End nodes lean on
    one-sided stencils and are less accurate; exclude them when comparing
    against closed forms.
    """
    m = parallel_transport(traj)
    s = 0.5 * traj.s_accum  # the trapezoid of dE bit for bit: halving is exact
    if np.any(np.diff(s) <= 0.0):
        raise SingularEvolutionError(
            "arc length is not strictly increasing; dE vanishes on the grid"
        )
    tangent = np.gradient(m, s, axis=0, edge_order=2)
    tangent_prime = np.gradient(tangent, s, axis=0, edge_order=2)
    overlap = np.einsum("ij,ij->i", m.conj(), tangent_prime)
    normal = tangent_prime - overlap[:, None] * m
    return np.einsum("ij,ij->i", normal.conj(), normal).real
