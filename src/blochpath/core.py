"""Single-qubit algebra: Pauli composition, Bloch vectors, basic geometry.

Conventions used throughout the package (hbar = 1):

* a Hamiltonian is stored as the pair ``(h0, h)`` with
  ``H = h0 * I + h . sigma``, so ``h0`` is half the trace and ``h`` is the
  traceless part in the Pauli basis;
* a pure state ``psi = (c0, c1)`` maps to the Bloch vector
  ``a = (2 Re c0* c1, 2 Im c0* c1, |c0|^2 - |c1|^2)``;
* energies carry the same units as the field components.

``pauli_compose``, ``energy_uncertainty``, ``spectral_norm`` and
``fubini_study_distance`` broadcast over leading axes of ``(..., 3)`` rows.
Nothing here takes a matrix apart: the one matrix the package decomposes,
the Uzdin drive, is read off entry by entry where it is built
(``families``).  Every argument, config value and callable result is read
by one rule for what counts as a number, :func:`_numbers` (``config`` applies
it to JSON values without numpy), before shape, range and finiteness checks.
"""

from __future__ import annotations

import operator
import reprlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BlochPathError,
    ConfigError,
    FieldError,
    NormalizationError,
    NumericalError,
    ShapeError,
)

__all__ = [
    "FieldSpec",
    "pauli_compose",
    "state_from_bloch",
    "energy_uncertainty",
    "spectral_norm",
    "fubini_study_distance",
]

#: tolerance on norms of states and Bloch vectors
TOL_NORM = 1e-12
#: tolerance on Hermiticity of the Uzdin drive, relative to ``1 + |dm/dt|``
TOL_HERM = 1e-12


def _holds_bool(v) -> bool:
    """Whether ``v`` is a list or tuple with a bool at any depth, which ``np.asarray``
    would read as 0 or 1 beside numbers; one of Python reals alone is told by its types."""
    return isinstance(v, (list, tuple)) and not set(map(type, v)) <= {float, int} and any(
        isinstance(x, (bool, np.bool_)) or _holds_bool(x) for x in v)


def _numbers(v, name: str, dtype=float, error: Optional[Exception] = None) -> np.ndarray:
    """``v`` as a ``dtype`` array if ``np.asarray`` reads it as integers or
    reals (or complex numbers, for a complex ``dtype``) and it holds no
    bool, the one rule for what counts as a number; else ``error``, by
    default :class:`ConfigError`."""
    kinds, kind = ("iufc", "complex") if dtype is complex else ("iuf", "real")
    try:
        ok = (arr := np.asarray(v)).dtype.kind in kinds and not _holds_bool(v)
    except (TypeError, ValueError):  # a ragged list
        ok = False
    if not ok:
        raise error or ConfigError(f"{name} must be {kind} numbers, got {reprlib.repr(v)}")
    return arr.astype(dtype, copy=False)


def _as_state(psi) -> np.ndarray:
    vec = _numbers(psi, "state vector", complex)
    if vec.shape != (2,):
        raise ShapeError(f"expected a length-2 state vector, got shape {vec.shape}")
    return vec


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    arr = _numbers(v, name)
    if arr.shape != (3,):
        raise ShapeError(f"expected a length-3 {name}, got shape {arr.shape}")
    return arr


def _scalar(v, name: str) -> float:
    """``v`` as a float; :class:`ShapeError` unless it is one number."""
    arr = _numbers(v, name)
    if arr.shape != ():
        raise ShapeError(f"expected a scalar {name}, got shape {arr.shape}")
    return float(arr)


def _finite_reals(v, name: str, scalar: bool = False):
    """:func:`_numbers` (or :func:`_scalar`), and :class:`NumericalError`
    unless all are finite."""
    arr = _scalar(v, name) if scalar else _numbers(v, name)
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name} must be finite")
    return arr


def _broadcast(*arrays) -> tuple:
    """The common broadcast shape of ``arrays``; :class:`ShapeError` if none."""
    try:
        return np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError as exc:
        raise ShapeError(str(exc)) from None


def _as_times(times) -> np.ndarray:
    """``times`` as a float64 1-D array.  Any other shape is a
    :class:`ShapeError`; values that are not finite reals are a
    :class:`ConfigError`, as non-finite grid endpoints are."""
    arr = _numbers(times, "times")
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D array of times, got shape {arr.shape}")
    k = _first(~np.isfinite(arr))
    if k is not None:
        raise ConfigError(f"time {float(arr[k])!r} at index {k} is not finite")
    return arr


def _as_rows(v, name: str) -> np.ndarray:
    arr = _numbers(v, name)
    if arr.shape[-1:] != (3,):
        raise ShapeError(f"expected {name} rows of length 3, got shape {arr.shape}")
    return arr


def pauli_compose(h0, h) -> np.ndarray:
    """Assemble ``h0 * I + h . sigma`` as explicit 2x2 complex matrices."""
    h0 = _finite_reals(h0, "h0")
    h = _as_rows(h, "field")
    out = np.empty(_broadcast(h0, h[..., 0]) + (2, 2), dtype=complex)
    out[..., 0, 0] = h0 + h[..., 2]
    out[..., 0, 1] = h[..., 0] - 1j * h[..., 1]
    out[..., 1, 0] = h[..., 0] + 1j * h[..., 1]
    out[..., 1, 1] = h0 - h[..., 2]
    return out


def _dot(x, y):
    """Dot products of ``(..., 3)`` rows, summed in index order from elementwise
    products: the same bits for a row alone or in a stack, on any BLAS kernel."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _norm_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norms of complex 2-vector rows: the two squares added, as a sum does."""
    sq = rows.real * rows.real + rows.imag * rows.imag
    return sq[..., 0] + sq[..., 1]


def _cross(x, y):
    """``np.cross`` of broadcast ``(..., 3)`` rows: its products and differences."""
    out = np.empty(np.broadcast(x, y).shape)
    out[..., 0] = x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1]
    out[..., 1] = x[..., 2] * y[..., 0] - x[..., 0] * y[..., 2]
    out[..., 2] = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return out


def _bloch_rows(states):
    """Bloch vectors of ``(..., 2)`` states, rounded as scalar complex
    arithmetic rounds: ``conj(c0) c1`` spelled out in real parts and
    ``|c|^2`` as ``float_power(hypot, 2)`` (libm ``pow``), not as the
    array complex multiply and square, which round differently."""
    xr, xi = states[..., 0].real, -states[..., 0].imag
    yr, yi = states[..., 1].real, states[..., 1].imag
    return np.stack(
        [
            2.0 * (xr * yr - xi * yi),
            2.0 * (xr * yi + xi * yr),
            np.float_power(np.hypot(xr, xi), 2) - np.float_power(np.hypot(yr, yi), 2),
        ],
        axis=-1,
    )


def state_from_bloch(a) -> np.ndarray:
    """Pure state on the given Bloch direction, with ``c0`` real and >= 0.

    The azimuth is taken from ``atan2(a_y, a_x)``, which makes the gauge
    choice deterministic; the south pole comes out as ``(0, 1)``.
    """
    a = _as_vec3(a, "Bloch vector")
    norm = float(_dot(a, a))
    if not abs(norm - 1.0) <= TOL_NORM:
        raise NormalizationError(f"Bloch norm^2 = {norm!r}, expected 1")
    ax, ay, az = float(a[0]), float(a[1]), float(a[2])
    # branch per hemisphere so the small amplitude is recovered from the
    # transverse components rather than from a cancellation in 1 -+ a_z
    if az >= 0.0:
        c0 = np.sqrt(0.5 * (1.0 + az))
        c1 = (ax + 1j * ay) / (2.0 * c0)
    else:
        r1 = np.sqrt(0.5 * (1.0 - az))
        c0 = np.hypot(ax, ay) / (2.0 * r1)
        c1 = r1 * np.exp(1j * np.arctan2(ay, ax))
    return np.array([c0, c1], dtype=complex)


def energy_uncertainty(a, h):
    """Instantaneous energy dispersion ``|a x h|`` of a unit Bloch vector.

    Equals ``sqrt(h^2 - (a.h)^2)`` without its cancellation near a || h.
    The trace part shifts all eigenvalues equally and cannot contribute,
    so only the traceless part ``h`` of the field enters.
    """
    a = _as_rows(a, "Bloch vector")
    h = _as_rows(h, "field")
    _broadcast(a, h)
    c = _cross(a, h)
    return np.sqrt(_dot(c, c))


def spectral_norm(h0, h):
    """Spectral norm ``|h0| + |h|`` of ``h0 * I + h . sigma``."""
    h0, h = _finite_reals(h0, "h0"), _as_rows(h, "field")
    _broadcast(h0, h[..., 0])
    return np.abs(h0) + np.sqrt(_dot(h, h))


def fubini_study_distance(a, b):
    """Geodesic (Fubini-Study) distance ``atan2(|a x b|, a . b)`` between
    the directions of the rows of ``a`` and of ``b``.

    Twice ``arccos |<A|B>|`` for the pure states, without the lost digits
    of ``arccos(a . b)`` near 0 and pi, from :func:`_dot` products.  A single
    pair gives a float; a non-finite angle raises :class:`NumericalError`.
    """
    a = _as_rows(a, "Bloch vector")
    b = _as_vec3(b, "Bloch vector")
    c = _cross(a, b)
    out = np.arctan2(np.sqrt(_dot(c, c)), _dot(a, b))
    if not np.isfinite(out).all():
        raise NumericalError("Fubini-Study distance is not finite")
    return float(out) if out.ndim == 0 else out


def _first(flags) -> Optional[int]:
    """Index of the first true entry of ``flags``, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _check_finite(times: np.ndarray, what: str, *columns) -> None:
    """:class:`FieldError` at the first of ``times`` with a non-finite row."""
    finite = [np.isfinite(c) for c in columns]
    if all(f.all() for f in finite):  # rows are looked at only on a failure
        return
    rows = [f.reshape(len(times), -1).all(axis=1) for f in finite]
    k = _first(~np.logical_and.reduce(rows))
    raise FieldError(f"{what} returned non-finite values at t = {float(times[k])!r}")


#: samples of a scalar callable whose results are converted together
_BLOCK = 256


def _field_error(what: str, exc: Exception):
    """Raise ``exc``, met in a user callable, as the failure of ``what``: a
    :class:`BlochPathError` but :class:`ConfigError` as it is, else as a :class:`FieldError`."""
    if isinstance(exc, BlochPathError) and not isinstance(exc, ConfigError):
        raise exc
    raise FieldError(f"{what}: {exc}") from exc


def _plain_reals(values) -> bool:
    """Whether a block holds only float64 arrays, plain reals, or lists or tuples of
    plain reals: one ``np.array`` of it then reads no bool as 0 or 1 beside reals."""
    types = set(map(type, values))
    try:
        if not types <= {float, int, list, tuple}:  # arrays or numpy scalars among them
            return set(map(operator.attrgetter("dtype"), values)) == {np.dtype(float)}
    except AttributeError:  # mixed with Python numbers, lists or tuples
        pass
    if types <= {list, tuple}:
        types = {type(x) for value in values for x in value}
    return types <= {float, int, np.float64}


def _stack(values, row: tuple) -> np.ndarray:
    """``np.array(values)`` of :func:`_plain_reals` ``values``; when every one
    is a contiguous 1-D float64 array of length ``row``, the same rows read
    from their joined bytes, which skips ``np.array``'s per-element shape
    discovery.  A ``len`` and an ``ndim`` scan cost less than a ``shape`` one."""
    if len(row) == 1 and hasattr(values[0], "ndim") and set(map(len, values)) == set(row) \
            and set(map(operator.attrgetter("ndim"), values)) == {1}:
        try:
            return np.frombuffer(b"".join(values)).reshape(len(values), -1)
        except TypeError:  # bytes.join refuses a non-contiguous array
            pass
    return np.array(values)


def _fill(fn: Callable, times: np.ndarray, convert: Callable, out: np.ndarray) -> list:
    """Call ``fn`` at each of ``times``, as Python floats, write the converted
    results into ``out`` and return them raw.

    Several results are converted by one :func:`_stack` call when they are
    :func:`_plain_reals` stacking to float64 rows of ``out``'s shape; else
    each goes through ``convert``, which accepts, rejects and names the
    first failing ``t`` as one sample at a time does.  Values returned
    before ``fn`` raises are converted first, so an earlier invalid one wins.
    """
    values, failure = [], None
    try:
        for t in times.tolist():
            values.append(fn(t))
    except Exception as exc:
        failure = exc
    rows = None
    if len(values) > 1 and _plain_reals(values):
        try:
            rows = _stack(values, out.shape[1:])
        except Exception:  # whatever _stack rejects, ``convert`` judges below
            pass
    if rows is not None and rows.dtype == np.float64 \
            and rows.shape == (len(values),) + out.shape[1:]:
        out[:len(values)] = rows
    else:
        for k, value in enumerate(values):
            try:
                out[k] = convert(value)
            except Exception as exc:
                _field_error(f"field evaluation failed at t = {float(times[k])!r}", exc)
    if failure is not None:
        _field_error(f"field evaluation failed at t = {float(times[len(values)])!r}",
                     failure)
    return values


def _per_sample(fn: Callable, times: np.ndarray, convert: Callable,
                shape: tuple = ()) -> np.ndarray:
    """``convert(fn(t))`` for every ``t`` of ``times``, stacked.

    ``fn`` is called once per sample, in the order of ``times``, with its
    element as a Python float (the same double).  Its results are converted
    ``_BLOCK`` samples at a time (see :func:`_fill`), so every accepted
    value and every error is the one-sample-at-a-time one, except that
    after an invalid value up to a block of later samples may already have
    been evaluated.  Exceptions other than :class:`BlochPathError` surface
    as :class:`FieldError` naming the failing ``t``.

    A result is read after later calls, so ``fn`` must not change an object
    it has returned.  The first two samples are converted as they return;
    a callable that returns the same array or list for both (a reused
    output buffer) is converted that way throughout.
    """
    out = np.empty(times.shape + shape)
    head = [_fill(fn, times[k:k + 1], convert, out[k:k + 1])[0]
            for k in range(min(2, len(times)))]
    reused = len(head) == 2 and head[0] is head[1] and isinstance(head[0], (np.ndarray, list))
    size = 1 if reused else _BLOCK
    for start in range(len(head), len(times), size):
        _fill(fn, times[start:start + size], convert, out[start:start + size])
    return out


def _column(value, times: np.ndarray, rows: Optional[str] = None):
    """A constant broadcast over ``times``, or a callable sampled per sample:
    scalars, or with ``rows`` naming the quantity, checked 3-vector rows."""
    shape, convert = ((), _scalar) if rows is None else ((3,), _as_vec3)
    if callable(value):
        return _per_sample(value, times, lambda v: convert(v, rows or "h0"), shape)
    return np.broadcast_to(value, times.shape + shape).copy()


class _Frozen:
    """Base of records whose attributes ``__init__`` sets once, through
    ``__dict__``; assigning or deleting one later raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec:
    """Time-dependent control field ``H(t) = h0(t) * I + h(t) . sigma``.

    ``h0`` and ``h`` may be scalar callables of time or constants, called
    only inside the span.  ``h_dot`` is the optional analytic derivative of
    ``h`` used by curvature routines; a constant ``h`` has a zero one.

    :meth:`sample` and :meth:`sample_h_dot` evaluate a whole array of times:
    constants broadcast, and a callable is called once per sample, in time
    order, with a Python float.  Its results are converted to arrays a
    block of samples at a time (float64 array rows by their bytes), with
    the values and errors of one sample at a time; after an invalid result
    up to a block of later samples may already have been evaluated, and a
    callable must not change an object it has returned (one output buffer,
    returned at every call, is allowed).
    Two private kinds sample in batches instead, ``scenarios._TableField(knots,
    h0, h, t_span)`` and ``families._PathField(family, variant, h_dot)``; every
    kind sets the ``t_span`` and ``h_dot`` the library reads.
    """

    def __init__(self, h0: Union[Callable[[float], float], float],
                 h: Union[Callable[[float], Sequence[float]], Sequence[float]],
                 h_dot: Optional[Callable[[float], Sequence[float]]] = None,
                 t_span: Tuple[float, float] = (0.0, 1.0)):
        if not callable(h0):
            h0 = _scalar(h0, "h0")
        if not callable(h):
            h = _as_vec3(h, "field").copy()
            if h_dot is None:
                h_dot = np.zeros(3)
        self.h0, self.h, self.h_dot, self.t_span = h0, h, h_dot, t_span

    def sample(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """``(h0, h)`` at ``times``: arrays of shape ``(n,)`` and ``(n, 3)``."""
        times = _as_times(times)
        return _column(self.h0, times), _column(self.h, times, "field")

    def sample_h_dot(self, times) -> np.ndarray:
        """The analytic ``dh/dt`` at ``times``, shape ``(n, 3)``;
        :class:`ConfigError` on a field without ``h_dot``."""
        times = _as_times(times)
        if self.h_dot is None:
            raise ConfigError("the field has no h_dot to sample")
        return self._h_dot_rows(times)

    def _h_dot_rows(self, times: np.ndarray) -> np.ndarray:
        return _column(self.h_dot, times, "field derivative")

