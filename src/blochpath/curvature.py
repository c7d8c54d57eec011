"""Curvature coefficient of a transported qubit trajectory, three ways.

The coefficient is the squared norm of the second covariant derivative of
the parallel-transported state with respect to arc length; it vanishes
exactly on geodesics.  Three equivalent profiles, each one broadcast over
every node of a trajectory, are provided:

* :func:`curvature_bloch_profile`, a closed form in Bloch-space data
  ``(a, h, dh/dt)``, ``dh/dt`` a stencil of the run's field samples
  (:func:`curvature_bloch` on any rows);
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

from . import _exports
from .core import (_as_rows, _broadcast, _check_finite, _cross, _dot, _first, _norms,
                   _quiet_fp, pauli_compose)
from .errors import NumericalError, SingularEvolutionError
from .evolve import Trajectory, parallel_transport

__all__ = _exports(__name__)

#: a node whose dispersion has ``dE^2 <= TOL_SING |h|^2`` is singular (an
#: eigenstate evolution): ``a`` within 1e-6 rad of ``+-h``, at any field size
TOL_SING = 1e-12
#: squared-norm results may undershoot 0 by at most this
TOL_NEG = 1e-9


def _clamp_nonneg(value):
    if not np.all(value >= -TOL_NEG):
        raise NumericalError(f"curvature {float(np.min(value))!r} is NaN or "
                             "negative beyond tolerance")
    if not np.all(value < np.inf):
        raise NumericalError("curvature is past the float range")
    return np.where(value < 0.0, 0.0, value)[()]


@_quiet_fp  # an overflow leaves a NaN or inf, which is raised as a NumericalError
def curvature_bloch(a, h, h_dot):
    """Closed-form curvature from Bloch-space data of a traceless field.

    Three terms: a parallel-component term ``4 (a.h)^2 / D``, a
    field-rotation term, and a mixed term, with ``D = h^2 - (a.h)^2``, which
    is ``dE^2`` for a unit ``a``; a row with ``D <= TOL_SING h^2`` is
    singular.  When ``h_dot`` is all zeros (a stationary field) the last two
    are exact zeros of either sign and the first term alone is returned: the
    same bits as the sum.
    The trace part of the Hamiltonian cannot bend the path and must be
    dropped by the caller (only ``h`` enters).  Broadcasts over ``(..., 3)``
    rows; ``float_power`` makes each row round as a lone 3-vector does.
    The coefficient is unchanged by ``(h, dh/dt) -> (h / 2^k, dh/dt / 4^k)``,
    as by a change of time unit: a row whose ``h^2`` lies outside
    ``[2**-300, 2**300]`` or whose ``(dh/dt)^2`` passes ``2**600`` is taken
    with the largest entry of ``h`` in ``[1/2, 1)``, where each product is of
    the size of the coefficient, so none overflows, or loses digits to
    underflow, where the coefficient does not.  A coefficient past the float
    range is a :class:`NumericalError`.
    """
    a = _as_rows(a, "Bloch vector")
    h = _as_rows(h, "field")
    hd = _as_rows(h_dot, "field derivative")
    shape, given = _broadcast(a, h, hd), (a, h, hd)
    hh, hdhd = _dot(h, h), _dot(hd, hd)
    far = ~((2.0**-300 <= hh) & (hh <= 2.0**300) & (hdhd <= 2.0**600))
    if np.any(far):  # a zero row is far too, and keeps its bits: frexp(0) is (0, 0)
        k = np.where(far, np.frexp(np.abs(h).max(axis=-1))[1], 0)
        h, hd = np.ldexp(h, -k[..., None]), np.ldexp(hd, -2 * k[..., None])
        hh, hdhd = _dot(h, h), _dot(hd, hd)
    ah = _dot(a, h)
    d = hh - ah * ah
    if np.any(d <= TOL_SING * hh):  # a NaN row is left to _clamp_nonneg
        raise SingularEvolutionError(
            "a is (anti)parallel to h; eigenstate evolutions have no "
            "arc-length parameterization"
        )
    term1 = 4.0 * ah * ah / d
    if not hd.any():  # term2 and term3 are +-0
        return _clamp_nonneg(np.broadcast_to(term1, shape[:-1]))
    w = _dot(a, hd)[..., None] * h - ah[..., None] * hd
    term2 = (hh * hdhd - np.float_power(_dot(h, hd), 2)
             - _dot(w, w)) / np.float_power(d, 3)
    term3 = 4.0 * ah * _dot(a, _cross(h, hd)) / np.float_power(d, 2)
    kappa = term1 + term2 + term3
    # finite rows whose products overflow leave inf - inf in the rotation term
    if np.isnan(kappa).any() and all(np.isfinite(x).all() for x in given):
        raise NumericalError("curvature is past the float range")
    return _clamp_nonneg(kappa)


@_quiet_fp  # a stencil past the float range is raised as a FieldError
def curvature_bloch_profile(traj: Trajectory) -> np.ndarray:
    """Node-wise :func:`curvature_bloch` along a trajectory.

    ``dh/dt`` is a fourth-order stencil of the run's own samples
    ``traj.h_half``, spaced ``dt/2`` (Fornberg, Math. Comp. 51 (1988) 699),
    with no field call: ``(8 (h(t + dt/2) - h(t - dt/2)) - (h(t + dt) - h(t - dt)))
    / (6 dt)`` at inner nodes, and the one-sided five-point rule
    ``(48 (h_1 - h_0) - 36 (h_2 - h_0) + 16 (h_3 - h_0) - 3 (h_4 - h_0)) / (6 dt)``
    on the first five samples, mirrored on the last five.  Sums of sample
    differences, they are exact zeros on equal samples.  Where the quotient by
    ``6 dt`` passes the float range, or where a field with ``|h|^2 < 2**-300``
    may have lost its digits to underflow, ``h`` and ``dh/dt`` are taken in the
    time unit ``2^e`` of the step, ``dt`` in ``[2^(e-1), 2^e)``, a change of
    time unit that keeps the coefficient: both are then of the size of
    ``h dt``, so that ``dh/dt``, which scales as ``h^2``, neither overflows
    nor underflows with a strong or weak field.  A non-finite ``dh/dt`` is a
    :class:`FieldError` naming the node's time.
    """
    # component-major, so that each term is one long loop, not one per row
    h, dh_dt = traj.h_half.T.copy(), np.empty((3, traj.n_nodes))
    dh_dt[:, 1:-1] = 8.0 * (h[:, 3::2] - h[:, 1:-2:2]) - (h[:, 4::2] - h[:, :-4:2])
    # h_k - h_0 at the first node and h_(-1) - h_(-1-k) at the last, k = 1..4
    e = (h[:, [1, 2, 3, 4, -1, -1, -1, -1]] - h[:, [0, 0, 0, 0, -2, -3, -4, -5]]).reshape(3, 2, 4)
    dh_dt[:, [0, -1]] = 48.0 * e[..., 0] - 36.0 * e[..., 1] + 16.0 * e[..., 2] - 3.0 * e[..., 3]
    field, dt = traj.h_nodes, traj.grid.dt
    rate = dh_dt / (6.0 * dt)
    if not (np.isfinite(rate).all() and (_dot(field, field) >= 2.0**-300).all()):
        # 6 dt / 2^e lies in [3, 6); no 4^-e is formed, which overflows for a subnormal dt
        unit = np.frexp(dt)[1]
        rate = np.ldexp(dh_dt / (6.0 * np.ldexp(dt, -unit)), unit)
        field = np.ldexp(field, unit)
    _check_finite(traj.times, "field derivative", rate.T)
    return curvature_bloch(traj.bloch, field, rate.T)


@_quiet_fp  # an overflow leaves a NaN or inf, which _clamp_nonneg raises
def curvature_expectation_profile(traj: Trajectory) -> np.ndarray:
    """Curvature at every node from moments of the dispersion operator.

    Evaluates ``<Dh^4> - <Dh^2>^2 + <Dh'^2> - <Dh'>^2 + i<[Dh^2, Dh']>``
    in the state at each node, with ``Dh = (H - <H>) / dE`` and
    ``Dh' = (dDh/dt) / v``, ``v = dE``.  Both are ``(n, 2, 2)`` stacks,
    applied to the states one operator at a time.  The time derivative is
    a central difference over the neighboring nodes (one-sided second
    order at the ends, which carries a larger error).
    A node with ``dE <= sqrt(TOL_SING) |h|``, the singular rule of
    :func:`curvature_bloch`, raises :class:`SingularEvolutionError` naming
    the first one.
    """
    traj.validate()
    de = traj.delta_e
    first = _first(~(de > np.sqrt(TOL_SING) * _norms(traj.h_nodes)))
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
    # dt dE, an angle, is of one size at any field scale; ddh / dt alone can overflow
    dh_prime = ddh / (2.0 * traj.grid.dt * de)[:, None, None]

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
