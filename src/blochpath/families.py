"""Hamiltonian families with known efficiency behavior.

Two constructions live here.  The stationary one-parameter family rotates an
initial Bloch vector ``a`` into a target ``b`` about the axis ``n(alpha)``;
only ``alpha = pi/2`` follows the great circle.  Its orbit radius and
rotation angle come from one closed form, which broadcasts over arrays of
``alpha`` for :func:`scenarios.sweep_alpha`.  The Uzdin construction turns a
prescribed normalized path ``|m(t)>`` into the traceless driving
Hamiltonian ``H = i|dm><m| - i|m><dm|``, plus its sub-optimal variants that
add a phase term ``phidot |m><m|`` (kept or made traceless).  No matrix is
formed: the field ``h = -Im <m|sigma|dm/dt>`` and the phase term's Bloch
vector ``<m|sigma|m>`` both come from :func:`core._pauli_re`.

A drive is a :class:`core._ArrayField` over :func:`_path_drive`: the path
callables (``m_state``, ``m_dot``, ``phase_dot``) take the whole time array
and are called once per batch; scalar callables, one call
per sample, belong to :class:`FieldSpec` only.
An array closure must give the same bits as elementwise calls would, which
the byte-pinned golden artifacts check for the built-in scenarios.
"""

import functools
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from . import _exports
from .core import (TOL_NORM, FieldSpec, _ArrayField, _as_vec3, _cross, _dot, _finite_reals,
                   _first, _Frozen, _norm_sq, _path_rows, _pauli_re, _quiet_fp, _scalar,
                   fubini_study_distance)
from .evolve import TOL_NORM0
from .errors import (ConfigError, DegenerateEndpointsError, NormalizationError,
                     NumericalError, PreconditionError, RangeError)

__all__ = _exports(__name__)

#: endpoint separations closer than this to 0 or pi are rejected
TOL_DEG = 1e-6


def endpoint_angle(a, b) -> float:
    """Angular separation ``atan2(|a x b|, a.b)``, rejected outside the
    family's domain ``[TOL_DEG, pi - TOL_DEG]``.

    (Anti)parallel endpoints leave the axis construction without a plane.
    """
    theta = fubini_study_distance(a, b)
    if not TOL_DEG <= theta <= np.pi - TOL_DEG:
        raise DegenerateEndpointsError(
            f"endpoint separation {theta!r} too close to 0 or pi"
        )
    return theta


def suboptimal_axis(alpha: float, a, b) -> np.ndarray:
    """Rotation axis ``n(alpha) = cos(alpha) m + sin(alpha) v`` carrying
    ``a`` to ``b``: ``v`` is the unit normal along ``a x b`` and ``m`` the
    unit bisector ``cos(theta/2) a + sin(theta/2) w``, with ``w`` along
    ``v x a``, so no step divides by the vanishing ``|a + b|`` near pi.
    ``|a|^2`` and ``|b|^2`` must lie within ``TOL_NORM`` of 1."""
    a = _as_vec3(a, "Bloch vector")
    b = _as_vec3(b, "Bloch vector")
    alpha = _finite_reals(alpha, "alpha", scalar=True)
    for name, (x, y, z) in (("a", a.tolist()), ("b", b.tolist())):
        # Python floats: the bits of _dot, and inf without a warning past ~1e154
        if abs((norm_sq := x * x + y * y + z * z) - 1.0) > TOL_NORM:
            raise NormalizationError(f"endpoint {name} has norm^2 {norm_sq!r}")
    half = 0.5 * endpoint_angle(a, b)
    # a x b as a x (b -+ a): the short difference keeps its relative accuracy
    normal = _cross(a, b - np.sign(_dot(a, b)) * a)
    toward = _cross(normal, a)
    bisector = np.cos(half) * a + np.sin(half) / np.sqrt(_dot(toward, toward)) * toward
    n = np.cos(alpha) * bisector + np.sin(alpha) / np.sqrt(_dot(normal, normal)) * normal
    return n / np.sqrt(_dot(n, n))


def _orbit(alpha, theta_ab):
    """Radius ``sqrt(sin^2(alpha) + cos^2(alpha) sin^2(theta/2))`` of the
    circle the Bloch vector traces about ``n(alpha)``, and the rotation angle
    ``phi = 2 atan2(sin(theta/2), sin(alpha) cos(theta/2))`` that lands on
    ``b``, from one evaluation of each sine and cosine.  ``phi`` falls from
    pi at ``alpha = 0`` to exactly ``theta_ab`` at ``alpha = pi/2``.

    The callers validate first, and on their domains the radius is at least
    ``sin(TOL_DEG/2)``; the arc length is ``radius * phi``, the travel time
    ``phi / (2E)`` and the energy dispersion ``E * radius``.
    """
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    sin_h, cos_h = np.sin(0.5 * theta_ab), np.cos(0.5 * theta_ab)
    lever = cos_a * sin_h  # a sum of squares: np.hypot is twice as slow
    radius = np.sqrt(sin_a * sin_a + lever * lever)
    # phi - theta, so that phi is exactly theta where sin(alpha) rounds to 1
    excess = np.arctan2(sin_h * cos_h * (1.0 - sin_a),
                        sin_a * (cos_h * cos_h) + sin_h * sin_h)
    return radius, theta_ab + 2.0 * excess


class SuboptimalStationary(_Frozen):
    """Stationary drive rotating ``a_hat`` into ``b_hat`` about ``n(alpha)``.

    The geometry ``theta_ab``, ``n_hat``, ``phi`` and ``t_ab`` is derived
    once, on construction, from endpoints :func:`suboptimal_axis` checks
    are unit; that a rotation by ``phi`` lands on ``b_hat`` is a tested
    property of the closed forms, not a run-time check.  All eight
    attributes are frozen.
    """

    @_quiet_fp  # a travel time past the float range is raised as a NumericalError
    def __init__(self, alpha: float, a_hat: np.ndarray, b_hat: np.ndarray,
                 E: float = 1.0):
        vars(self).update(alpha=alpha, E=E)  # kept as given
        a = _as_vec3(a_hat, "a_hat").copy()
        b = _as_vec3(b_hat, "b_hat").copy()
        alpha = _scalar(alpha, "alpha")
        if not 0.0 < alpha < np.pi:
            raise RangeError(f"alpha must lie in (0, pi), got {alpha!r}")
        if not 0.0 < (E := _scalar(E, "E")) < np.inf:
            raise RangeError(f"energy scale must be positive and finite, got {E!r}")
        axis = suboptimal_axis(alpha, a, b)
        theta_ab = endpoint_angle(a, b)
        phi = _orbit(alpha, theta_ab)[1]
        # phi / 2 is exact, and 2 E may overflow where the travel time does not
        t_ab = 0.5 * phi / E
        if not np.isfinite(t_ab):
            raise NumericalError(f"travel time phi / (2 E) at E = {E!r} is not finite")
        vars(self).update(a_hat=a, b_hat=b, theta_ab=theta_ab, n_hat=axis, phi=phi,
                          t_ab=t_ab)


def suboptimal_hamiltonian(family: SuboptimalStationary) -> FieldSpec:
    """Constant traceless field ``h = E n(alpha)`` over ``[0, t_ab]``."""
    return FieldSpec(h0=0.0, h=family.E * family.n_hat,
                     t_span=(0.0, family.t_ab))


class UzdinFamily(NamedTuple):
    """Prescribed state path ``|m(t)>``, its derivative, and optionally the
    rate ``phidot(t)`` of the phase the sub-optimal variants add.

    The callables take the whole float64 time array ``t`` of shape ``(n,)``:
    ``m_state`` and ``m_dot`` return ``(n, 2)`` complex rows and
    ``phase_dot`` ``(n,)`` reals.  Each is called once per batch.
    """

    m_state: Callable[[np.ndarray], np.ndarray]
    m_dot: Callable[[np.ndarray], np.ndarray]
    phase_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None
    t_span: Tuple[float, float] = (0.0, 1.0)


def _path_drive(fam: UzdinFamily, variant: str, times: np.ndarray):
    """``(h0, h)`` at ``times`` of ``fam``'s ``"optimal"``, ``"trace_nonzero"``
    or ``"trace_zero"`` drive: the checks and the two Pauli maps each run once
    over all rows.  The path's norm^2 must lie within ``TOL_NORM0`` of 1, or
    ``TOL_NORM`` for a variant, whose phase term maps it to a Bloch vector."""
    m = _path_rows(fam.m_state, "m_state", times, (2,), complex)
    norm = _quiet_fp(_norm_sq)(m)  # an overflow is inf, far from 1
    k = _first(np.abs(norm - 1.0) > (TOL_NORM0 if variant == "optimal" else TOL_NORM))
    if k is not None:
        raise NormalizationError(f"m({float(times[k])!r}) has norm^2 = "
                                 f"{float(norm[k])!r}")
    md = _path_rows(fam.m_dot, "m_dot", times, (2,), complex)
    phase_dot = None if variant == "optimal" else _path_rows(fam.phase_dot, "phase_dot", times)
    return _drive_rows(m, md, phase_dot, variant, times)


@_quiet_fp
def _drive_rows(m, md, phase_dot, variant: str, times: np.ndarray):
    """:func:`_path_drive` from the path's rows; no path callable runs here, and
    what overflows ends in a typed error, from sample_field for a non-finite row
    or from the propagator."""
    # the check scales with |dm/dt|, as the rounding of the products does
    gauge = np.abs(np.einsum("ij,ij->i", m.conj(), md))
    k = _first(gauge > 1e-8 * (1.0 + np.sqrt(_norm_sq(md))))
    if k is not None:
        raise PreconditionError(
            f"<m|dm/dt| = {gauge[k]:.3e} at t = {float(times[k])!r}; the path must be "
            "parallel transported (phase-fixed) before constructing the drive"
        )
    # h = -Im <m|sigma|dm/dt> = Re <m|sigma|i dm/dt>, where 1j only swaps parts;
    # a product that overflows leaves its row non-finite for sample_field to name
    h = _pauli_re(m, 1j * md)
    if variant == "optimal":
        return np.zeros(times.shape), h
    h = h + (0.5 * phase_dot)[:, None] * _pauli_re(m, m)
    h0 = 0.5 * phase_dot if variant == "trace_nonzero" else np.zeros(times.shape)
    return h0, h


def uzdin_optimal(fam: UzdinFamily) -> FieldSpec:
    """Traceless field driving ``|m(t)>`` exactly, with unit speed efficiency.

    Implements ``H(t) = i|dm><m| - i|m><dm|``.  Requires the transported
    gauge ``<m|dm/dt> = 0``; the resulting field satisfies ``a.h = 0`` along
    the path, so no energy sits in the parallel component.
    """
    return _ArrayField(functools.partial(_path_drive, fam, "optimal"), fam.t_span)


def uzdin_suboptimal(fam: UzdinFamily, variant: str) -> FieldSpec:
    """Sub-optimal drive obtained by adding the phase term ``phidot |m><m|``.

    ``variant = "trace_nonzero"`` keeps the trace (``h0 = phidot/2``) and
    drives ``exp(-i phi(t)) |m(t)>``; ``variant = "trace_zero"`` subtracts
    ``(phidot/2) I`` (so ``h0 = 0``) and drives ``exp(-i phi(t)/2) |m(t)>``.
    Both share the traceless part ``h = h_opt + (phidot/2) a_m`` and trace
    the same Bloch path as the optimal drive.
    """
    if variant not in ("trace_nonzero", "trace_zero"):
        raise ConfigError(
            f"variant must be trace_nonzero or trace_zero, got {variant!r}"
        )
    if fam.phase_dot is None:
        raise ConfigError("sub-optimal variants need phase_dot")
    return _ArrayField(functools.partial(_path_drive, fam, variant), fam.t_span)
