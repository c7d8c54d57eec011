"""Hamiltonian families with known efficiency behavior.

Two constructions live here.  The stationary one-parameter family rotates an
initial Bloch vector ``a`` into a target ``b`` about the axis ``n(alpha)``;
only ``alpha = pi/2`` follows the great circle, and its closed forms
broadcast over arrays of ``alpha``.  The Uzdin construction turns a
prescribed normalized path ``|m(t)>`` into the traceless driving
Hamiltonian ``H = i|dm><m| - i|m><dm|``, plus its sub-optimal variants that
add a phase term ``phidot |m><m|`` (kept or made traceless).

The path callables (``m_state``, ``m_dot``, ``phase``, ``phase_dot``) and a
drive's ``h_dot`` take the whole time array and are called once per batch;
scalar callables, one call per sample, belong to :class:`FieldSpec` only.
An array closure must give the same bits as elementwise calls would, which
the byte-pinned golden artifacts check for the built-in scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (TOL_HERM, TOL_NORM, FieldSpec, _as_times, _BatchedField,
                   _bloch_rows, _central_difference, _first, _hermitian_parts,
                   fubini_study_distance)
from .errors import (
    BlochPathError,
    ConfigError,
    DegenerateEndpointsError,
    FieldError,
    HermiticityError,
    NormalizationError,
    NumericalError,
    PreconditionError,
    RangeError,
    ShapeError,
)

__all__ = [
    "SuboptimalStationary",
    "UzdinFamily",
    "rodrigues_rotate",
    "endpoint_angle",
    "suboptimal_axis",
    "rotation_angle",
    "travel_time",
    "arc_length_alpha",
    "delta_e_alpha",
    "orbit_radius",
    "suboptimal_hamiltonian",
    "uzdin_optimal",
    "uzdin_suboptimal",
]

#: endpoint separations closer than this to 0 or pi are rejected
TOL_DEG = 1e-6
#: central-difference step standing in for an omitted ``m_dot`` or ``phase_dot``
FD_STEP = 1e-6


def rodrigues_rotate(v, axis, angle: float) -> np.ndarray:
    """Rotate ``v`` about the unit ``axis`` by ``angle`` (right-hand rule)."""
    v = np.asarray(v, dtype=float)
    k = np.asarray(axis, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(k, v) * s + k * (k @ v) * (1.0 - c)


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
    ``v x a``, so no step divides by the vanishing ``|a + b|`` near pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * endpoint_angle(a, b)
    # a x b as a x (b -+ a): the short difference keeps its relative accuracy
    normal = np.cross(a, b - np.sign(a @ b) * a)
    toward = np.cross(normal, a)
    bisector = np.cos(half) * a + np.sin(half) / np.linalg.norm(toward) * toward
    n = np.cos(alpha) * bisector + np.sin(alpha) / np.linalg.norm(normal) * normal
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-12:
        raise NumericalError(f"axis norm {norm!r} deviates from 1")
    return n / norm


def orbit_radius(alpha, theta_ab):
    """Radius ``sqrt(sin^2(alpha) + cos^2(alpha) sin^2(theta/2))`` of the
    circle traced by the Bloch vector while precessing about ``n(alpha)``."""
    return _orbit(alpha, theta_ab)[0]


def _orbit(alpha, theta_ab):
    """``(orbit_radius, rotation_angle)`` from one evaluation of each sine
    and cosine.  A non-finite input raises :class:`NumericalError`, a
    vanishing radius :class:`DegenerateEndpointsError`."""
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    sin_h, cos_h = np.sin(0.5 * theta_ab), np.cos(0.5 * theta_ab)
    lever = cos_a * sin_h  # a sum of squares: np.hypot is twice as slow
    radius = np.sqrt(sin_a * sin_a + lever * lever)
    if not np.isfinite(radius).all():
        raise NumericalError("alpha and theta_ab must be finite")
    if np.any(radius < 1e-12):
        raise DegenerateEndpointsError(
            "orbit radius vanishes; alpha in {0, pi} with theta_ab = 0"
        )
    # phi - theta, so that phi is exactly theta where sin(alpha) rounds to 1
    excess = np.arctan2(sin_h * cos_h * (1.0 - sin_a),
                        sin_a * (cos_h * cos_h) + sin_h * sin_h)
    return radius, theta_ab + 2.0 * excess


def rotation_angle(alpha, theta_ab):
    """Rotation angle ``phi(alpha)`` about ``n(alpha)`` that lands on ``b``.

    ``phi = 2 atan2(sin(theta/2), sin(alpha) cos(theta/2))``; decreases
    from pi at ``alpha = 0`` to exactly ``theta_ab`` at ``alpha = pi/2``.
    """
    return _orbit(alpha, theta_ab)[1]


def _check_energy(E: float) -> None:
    if not 0.0 < E < np.inf:
        raise RangeError(f"energy scale must be positive and finite, got {E!r}")


def travel_time(alpha, theta_ab, E: float):
    """Time ``phi/(2E)`` to reach the target; minimal at ``alpha = pi/2``."""
    _check_energy(E)
    return rotation_angle(alpha, theta_ab) / (2.0 * E)


def arc_length_alpha(alpha, theta_ab):
    """Fubini-Study length ``orbit_radius * phi`` of the traced arc.

    Equals ``theta_ab`` exactly at ``alpha = pi/2`` (the geodesic) and grows
    on both sides; tends to pi as ``theta_ab -> pi`` for every ``alpha``.
    """
    radius, phi = _orbit(alpha, theta_ab)
    return radius * phi


def delta_e_alpha(alpha, theta_ab, E: float):
    """Energy dispersion ``E * orbit_radius`` along the stationary orbit.

    Constant in time, so the arc length is also ``2 delta_e * travel_time``.
    """
    _check_energy(E)
    return E * orbit_radius(alpha, theta_ab)


@dataclass(frozen=True)
class SuboptimalStationary:
    """Stationary drive rotating ``a_hat`` into ``b_hat`` about ``n(alpha)``.

    Derived geometry is validated on construction: the axis is unit and
    equidistant from both endpoints, and a Rodrigues rotation by ``phi``
    actually lands on ``b_hat``.
    """

    alpha: float
    a_hat: np.ndarray
    b_hat: np.ndarray
    E: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a_hat", np.asarray(self.a_hat, dtype=float))
        object.__setattr__(self, "b_hat", np.asarray(self.b_hat, dtype=float))
        if not 0.0 < self.alpha < np.pi:
            raise RangeError(f"alpha must lie in (0, pi), got {self.alpha!r}")
        _check_energy(self.E)
        for name in ("a_hat", "b_hat"):
            v = getattr(self, name)
            if abs(v @ v - 1.0) > 1e-12:
                raise NormalizationError(f"{name} must be a unit vector")
        axis = self.n_hat
        if abs(axis @ (self.a_hat - self.b_hat)) > 1e-12:
            raise NumericalError("axis is not equidistant from the endpoints")
        landed = rodrigues_rotate(self.a_hat, axis, self.phi)
        if np.max(np.abs(landed - self.b_hat)) > 1e-10:
            raise NumericalError("rotation by phi does not reach b_hat")

    @property
    def theta_ab(self) -> float:
        return endpoint_angle(self.a_hat, self.b_hat)

    @property
    def n_hat(self) -> np.ndarray:
        return suboptimal_axis(self.alpha, self.a_hat, self.b_hat)

    @property
    def phi(self) -> float:
        return rotation_angle(self.alpha, self.theta_ab)

    @property
    def t_ab(self) -> float:
        return travel_time(self.alpha, self.theta_ab, self.E)

    @property
    def radius(self) -> float:
        return orbit_radius(self.alpha, self.theta_ab)


def suboptimal_hamiltonian(family: SuboptimalStationary) -> FieldSpec:
    """Constant traceless field ``h = E n(alpha)`` over ``[0, t_ab]``."""
    return FieldSpec(h0=0.0, h=family.E * family.n_hat,
                     t_span=(0.0, family.t_ab))


def _norm_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norms of complex rows.  They may differ from ``np.vdot`` in
    the last bit, so only a value exactly at a check's tolerance can land
    on the other side of it."""
    return (rows.real * rows.real + rows.imag * rows.imag).sum(axis=-1)


def _path_rows(fn: Callable, name: str, times: np.ndarray, row: tuple = (),
               dtype=float) -> np.ndarray:
    """``fn(times)``, called once on the whole time array, as an array of
    shape ``times.shape + row``.  Any other shape raises
    :class:`ShapeError`; an exception inside ``fn``, values that do not
    cast to ``dtype`` without loss of kind (complex to real), or a
    non-finite row raise :class:`FieldError` naming ``name`` (and the
    row's ``t``)."""
    try:
        rows = np.asarray(fn(times)).astype(dtype, casting="same_kind", copy=False)
    except BlochPathError:
        raise
    except Exception as exc:
        raise FieldError(f"{name} failed on the time array: {exc}") from exc
    if rows.shape != times.shape + row:
        raise ShapeError(f"{name} returned shape {rows.shape}, "
                         f"expected {times.shape + row}")
    k = _first(~np.isfinite(rows).all(axis=tuple(range(1, rows.ndim))))
    if k is not None:
        raise FieldError(f"{name} returned non-finite values at t = {times[k]!r}")
    return rows


@dataclass
class UzdinFamily:
    """Prescribed state path ``|m(t)>`` plus optional phase ``phi(t)``.

    The callables take the whole float64 time array ``t`` of shape ``(n,)``:
    ``m_state`` and ``m_dot`` return ``(n, 2)`` complex rows, ``phase`` and
    ``phase_dot`` ``(n,)`` reals.  Each is called once per batch.
    ``m_dot`` and ``phase_dot`` may be omitted; a central difference with
    step ``FD_STEP`` stands in, evaluating ``m_state`` or ``phase`` in one
    call on the ``2n`` interleaved times ``t + FD_STEP, t - FD_STEP``.
    ``variant`` selects which Hamiltonian the constructors below produce.
    """

    m_state: Callable[[np.ndarray], np.ndarray]
    m_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None
    phase: Optional[Callable[[np.ndarray], np.ndarray]] = None
    phase_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None
    variant: str = "optimal"
    t_span: Tuple[float, float] = (0.0, 1.0)

    def _rows(self, name: str, times, state: bool = False) -> np.ndarray:
        """Callable ``name`` at ``times``, as ``(n, 2)`` states or ``(n,)``
        reals."""
        row, dtype = ((2,), complex) if state else ((), float)
        return _path_rows(getattr(self, name), name, times, row, dtype)

    def _m_rows(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """``m`` at ``times`` as ``(n, 2)`` rows, and its squared norms."""
        m = self._rows("m_state", times, state=True)
        norm = _norm_sq(m)
        k = _first(np.abs(norm - 1.0) > 1e-10)
        if k is not None:
            raise NormalizationError(f"m({times[k]!r}) has norm^2 = {norm[k]!r}")
        return m, norm

    def _m_dot_rows(self, times) -> np.ndarray:
        if self.m_dot is not None:
            return self._rows("m_dot", times, state=True)
        return _central_difference(lambda ts: self._rows("m_state", ts, state=True),
                                   times, FD_STEP)

    def _phase_dot_rows(self, times) -> np.ndarray:
        if self.phase_dot is not None:
            return self._rows("phase_dot", times)
        if self.phase is None:
            raise ConfigError("phase derivative requested but neither "
                              "phase nor phase_dot was supplied")
        return _central_difference(lambda ts: self._rows("phase", ts), times, FD_STEP)


@dataclass
class _PathField(_BatchedField):
    """Drive of an :class:`UzdinFamily` path, sampled in batches.

    ``h0`` and ``h`` are unused.  The family's callables, and ``h_dot`` when
    given, are called once on the whole time array; the checks, outer
    products, Pauli split and Bloch map then run once over all rows.
    ``variant`` is ``"optimal"`` or the family's sub-optimal variant at
    construction.
    """

    family: Optional[UzdinFamily] = None
    variant: str = "optimal"

    def sample(self, times) -> Tuple[np.ndarray, np.ndarray]:
        times = _as_times(times)
        fam = self.family
        m, norm = fam._m_rows(times)
        md = fam._m_dot_rows(times)
        if self.variant != "optimal":
            phase_dot = fam._phase_dot_rows(times)
            k = _first(np.abs(norm - 1.0) > TOL_NORM)
            if k is not None:
                raise NormalizationError(f"state norm^2 = {norm[k]!r}, expected 1 "
                                         f"at t = {times[k]!r}")
        # both checks scale with |dm/dt|, as the rounding of the products does
        md_norm = np.sqrt(_norm_sq(md))
        gauge = np.abs(np.einsum("ij,ij->i", m.conj(), md))
        k = _first(gauge > 1e-8 * (1.0 + md_norm))
        if k is not None:
            raise PreconditionError(
                f"<m|dm/dt| = {gauge[k]:.3e} at t = {times[k]!r}; the path must be "
                "parallel transported (phase-fixed) before constructing the drive"
            )
        matrix = 1j * (md[:, :, None] * m.conj()[:, None, :]
                       - m[:, :, None] * md.conj()[:, None, :])
        defect, _, h = _hermitian_parts(matrix)
        k = _first(~(defect <= TOL_HERM * (1.0 + md_norm)))
        if k is not None:
            raise HermiticityError(f"matrix deviates from Hermiticity by "
                                   f"{defect[k]:.3e} at t = {times[k]!r}")
        if self.variant == "optimal":
            return np.zeros(times.shape), h
        h = h + (0.5 * phase_dot)[:, None] * _bloch_rows(m)
        h0 = 0.5 * phase_dot if self.variant == "trace_nonzero" else np.zeros(times.shape)
        return h0, h

    def sample_h_dot(self, times, step: float) -> np.ndarray:
        """``dh/dt`` at ``times``, shape ``(n, 3)``: one call of ``h_dot`` on
        the array when given, else a central difference of the drive."""
        if self.h_dot is None:
            return super().sample_h_dot(times, step)
        return _path_rows(self.h_dot, "h_dot", _as_times(times), (3,))


def uzdin_optimal(fam: UzdinFamily,
                  h_dot: Optional[Callable] = None) -> FieldSpec:
    """Traceless field driving ``|m(t)>`` exactly, with unit speed efficiency.

    Implements ``H(t) = i|dm><m| - i|m><dm|``.  Requires the transported
    gauge ``<m|dm/dt> = 0``; the resulting field satisfies ``a.h = 0`` along
    the path, so no energy sits in the parallel component.  ``h_dot``, when
    given, maps the time array to ``(n, 3)`` rows of ``dh/dt``.
    """
    return _PathField(h0=None, h=None, h_dot=h_dot, t_span=fam.t_span,
                      family=fam)


def uzdin_suboptimal(fam: UzdinFamily,
                     h_dot: Optional[Callable] = None) -> FieldSpec:
    """Sub-optimal drive obtained by adding the phase term ``phidot |m><m|``.

    ``variant = "trace_nonzero"`` keeps the trace (``h0 = phidot/2``) and
    drives ``exp(-i phi(t)) |m(t)>``; ``variant = "trace_zero"`` subtracts
    ``(phidot/2) I`` (so ``h0 = 0``) and drives ``exp(-i phi(t)/2) |m(t)>``.
    Both share the traceless part ``h = h_opt + (phidot/2) a_m`` and trace
    the same Bloch path as the optimal drive.
    """
    if fam.variant not in ("trace_nonzero", "trace_zero"):
        raise ConfigError(
            f"variant must be trace_nonzero or trace_zero, got {fam.variant!r}"
        )
    if fam.phase is None and fam.phase_dot is None:
        raise ConfigError("sub-optimal variants need phase or phase_dot")
    return _PathField(h0=None, h=None, h_dot=h_dot, t_span=fam.t_span,
                      family=fam, variant=fam.variant)
