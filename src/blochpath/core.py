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
Every map from states to Pauli vectors is one kernel, :func:`_pauli_re`
(``Re <x|sigma|y>``): the Bloch vectors of a run, and the Uzdin drive
(``families``), whose field ``Re <m|sigma|i dm/dt>`` forms no matrix.
Every argument, config value and callable result is read by one rule for
what counts as a number, :func:`_numbers` (``config`` applies it to JSON
values without numpy), before shape, range and finiteness checks.
"""

from __future__ import annotations

import functools
import reprlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import _exports
from .errors import (
    BlochPathError,
    ConfigError,
    FieldError,
    NormalizationError,
    NumericalError,
    ShapeError,
)

__all__ = _exports(__name__)

#: tolerance on norms of states and Bloch vectors
TOL_NORM = 1e-12
#: a row whose largest entry lies outside ``[1 / _WIDE, _WIDE)`` can overflow, or
#: lose digits to underflow, in a sum of squares or the squared cross product of two rows
_WIDE = 2.0**250


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


def _quiet_fp(fn: Callable) -> Callable:
    """``fn`` under ``np.errstate(all="ignore")``: for library arithmetic whose
    overflow or invalid value ends in the typed error of a finiteness check,
    which numpy's warning would only repeat ahead of it, or, under
    warnings-as-errors, replace.  It must not wrap a user's callable."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return quiet


@_quiet_fp  # an entry past the float range is inf, raised as a NumericalError
def pauli_compose(h0, h) -> np.ndarray:
    """Assemble ``h0 * I + h . sigma`` as explicit 2x2 complex matrices."""
    h0 = _finite_reals(h0, "h0")
    h = _as_rows(h, "field")
    out = np.empty(_broadcast(h0, h[..., 0]) + (2, 2), dtype=complex)
    out[..., 0, 0] = h0 + h[..., 2]
    out[..., 0, 1] = h[..., 0] - 1j * h[..., 1]
    out[..., 1, 0] = h[..., 0] + 1j * h[..., 1]
    out[..., 1, 1] = h0 - h[..., 2]
    if not np.isfinite(out).all():
        raise NumericalError("Hamiltonian entry is not finite")
    return out


def _dot(x, y):
    """Dot products of ``(..., 3)`` rows, summed in index order from elementwise
    products: the same bits for a row alone or in a stack, on any BLAS kernel."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _in_range(rows: np.ndarray):
    """``(scaled, shift)``: ``rows`` with each row whose largest entry in size lies
    outside ``[1 / _WIDE, _WIDE)`` scaled by ``2**-shift`` into ``[1/2, 1)``: exact,
    so its direction is kept.  Every other row, and a zero or non-finite one
    (``frexp`` gives its peak exponent 0), keeps its bits and gets shift 0."""
    x = np.abs(rows)
    peak = np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])
    inside = (1.0 / _WIDE <= peak) & (peak < _WIDE)
    if inside.all():
        return rows, 0
    shift = np.where(inside, 0, np.frexp(peak)[1])
    return np.ldexp(rows, -shift[..., None]), shift


def _norms(rows: np.ndarray) -> np.ndarray:
    """``sqrt(_dot(rows, rows))`` over the :func:`_in_range` rows, scaled back."""
    rows, shift = _in_range(rows)
    return np.ldexp(np.sqrt(_dot(rows, rows)), shift)


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


def _pauli_re(x, y):
    """``Re <x|sigma_k|y>`` of ``(..., 2)`` complex rows, ``k = x, y, z``: each
    entry two sums of two real products, rounded alike on every SIMD loop.
    ``_pauli_re(psi, psi)`` is the Bloch vector of ``psi``."""
    (x0, x1), (y0, y1) = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
    re00, re01 = x0.real * y0.real + x0.imag * y0.imag, x0.real * y1.real + x0.imag * y1.imag
    re10, re11 = x1.real * y0.real + x1.imag * y0.imag, x1.real * y1.real + x1.imag * y1.imag
    im01 = x0.real * y1.imag - x0.imag * y1.real
    im10 = x1.real * y0.imag - x1.imag * y0.real
    return np.stack([re01 + re10, im01 - im10, re00 - re11], axis=-1)


@_quiet_fp  # a norm^2 past the float range is inf, far from 1
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


@_quiet_fp  # a dispersion past the float range is inf, raised as a NumericalError
def energy_uncertainty(a, h):
    """Instantaneous energy dispersion ``|a x h|`` of a unit Bloch vector.

    Equals ``sqrt(h^2 - (a.h)^2)`` without its cancellation near a || h.
    The trace part shifts all eigenvalues equally and cannot contribute,
    so only the traceless part ``h`` of the field enters.
    """
    a = _as_rows(a, "Bloch vector")
    h = _as_rows(h, "field")
    _broadcast(a, h)
    out = _norms(_cross(a, h))
    if not np.isfinite(out).all():
        raise NumericalError("energy dispersion is not finite")
    return out


@_quiet_fp  # a norm past the float range is inf, raised as a NumericalError
def spectral_norm(h0, h):
    """Spectral norm ``|h0| + |h|`` of ``h0 * I + h . sigma``."""
    h0, h = _finite_reals(h0, "h0"), _as_rows(h, "field")
    _broadcast(h0, h[..., 0])
    out = np.abs(h0) + _norms(h)
    if not np.isfinite(out).all():
        raise NumericalError("spectral norm is not finite")
    return out


def fubini_study_distance(a, b):
    """Geodesic (Fubini-Study) distance ``atan2(|a x b|, a . b)`` between
    the directions of the rows of ``a`` and of ``b``.

    Twice ``arccos |<A|B>|`` for the pure states, without the lost digits
    of ``arccos(a . b)`` near 0 and pi, from :func:`_dot` products.  Only
    directions matter: a row whose entries would overflow or underflow in the
    products is first scaled by a power of two (:func:`_in_range`).  A single
    pair gives a float; a non-finite entry raises :class:`NumericalError`.
    """
    a, b = _as_rows(a, "Bloch vector"), _as_vec3(b, "Bloch vector")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalError("Fubini-Study distance is not finite")
    (a, _), (b, _) = _in_range(a), _in_range(b)
    c = _cross(a, b)
    out = np.arctan2(np.sqrt(_dot(c, c)), _dot(a, b))
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


#: samples of a scalar callable copied into the output together
_BLOCK = 1024


def _field_error(what: str, exc: Exception):
    """Raise ``exc``, met in a user callable, as the failure of ``what``: a
    :class:`BlochPathError` but :class:`ConfigError` as it is, else as a :class:`FieldError`."""
    if isinstance(exc, BlochPathError) and not isinstance(exc, ConfigError):
        raise exc
    raise FieldError(f"{what}: {exc}") from exc


def _per_sample(fn: Callable, times: np.ndarray, name: Optional[str] = None) -> np.ndarray:
    """``fn(t)`` for every ``t`` of ``times``, stacked: scalars, or with ``name``
    naming the quantity, 3-vector rows; the loop :class:`FieldSpec` describes.

    ``fn`` gets each element as a Python float, in order, and each result is
    read as it returns: a ``float``, or a native float64 ``ndarray`` of shape
    ``(3,)`` (by its bytes), as it is, else through :func:`_scalar` or
    :func:`_as_vec3`.  The first exception or invalid result raises at once,
    one other than :class:`BlochPathError` as a :class:`FieldError` naming
    its ``t``.  Results are copied out ``_BLOCK`` samples at a time.
    """
    out = np.empty(times.shape + ((3,) if name else ()))
    f8, ndarray = out.dtype, np.ndarray
    for lo in range(0, len(times), _BLOCK):
        block, rows = times[lo:lo + _BLOCK].tolist(), []
        append = rows.append
        try:
            for t in block:
                v = fn(t)
                if name:
                    if not (isinstance(v, ndarray) and v.dtype is f8 and v.shape == (3,)):
                        v = _as_vec3(v, name)
                    v = v.tobytes()
                elif not isinstance(v, float):
                    v = _scalar(v, "h0")
                append(v)
        except Exception as exc:
            _field_error(f"field evaluation failed at t = {block[len(rows)]!r}", exc)
        out[lo:lo + len(rows)] = np.frombuffer(b"".join(rows)).reshape(-1, 3) if name else rows
    return out


def _path_rows(fn: Callable, name: str, times: np.ndarray, row: tuple = (),
               dtype=float) -> np.ndarray:
    """``fn(times)`` as an array of shape ``times.shape + row``: one call on the
    whole time array, where :func:`_per_sample` makes one per sample.  Any other
    shape is a :class:`ShapeError`; an exception inside ``fn``, values that are
    not numbers of ``dtype``'s kind, or a non-finite row raise :class:`FieldError`
    naming ``name`` (and the row's ``t``)."""
    try:
        rows = _numbers(fn(times), name, dtype)
    except Exception as exc:
        _field_error(f"{name} failed on the time array", exc)
    if rows.shape != times.shape + row:
        raise ShapeError(f"{name} returned shape {rows.shape}, "
                         f"expected {times.shape + row}")
    _check_finite(times, name, rows)
    return rows


class _Frozen:
    """Base of records whose attributes ``__init__`` sets once, through
    ``__dict__``; assigning or deleting one later raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec:
    """Time-dependent control field ``H(t) = h0(t) * I + h(t) . sigma``.

    ``h0`` and ``h`` may be scalar callables of time or constants.
    ``t_span`` is the span of the default grid; a run on an explicit grid
    samples them at every time of that grid.

    :meth:`sample` evaluates a whole array of times: constants broadcast,
    and a callable is called once per sample, in time order, with a Python
    float.  Each result is read as soon as it returns, so the callable may
    reuse or change an object it has returned; the first invalid result or
    exception raises, naming its ``t``, before any later call.  A ``float``
    (numpy float64 too), or an ``ndarray`` of the native float64 dtype and
    shape ``(3,)``, is taken as it is; any other result is checked and
    converted on its own.  :func:`_per_sample` is that loop, over blocks of
    ``_BLOCK`` (1024) samples.
    The private kind :class:`_ArrayField` samples whole arrays instead; it
    sets the ``t_span`` the library reads, as this class does.
    """

    def __init__(self, h0: Union[Callable[[float], float], float],
                 h: Union[Callable[[float], Sequence[float]], Sequence[float]],
                 t_span: Tuple[float, float] = (0.0, 1.0)):
        if not callable(h0):
            h0 = _scalar(h0, "h0")
        if not callable(h):
            h = _as_vec3(h, "field").copy()
        self.h0, self.h, self.t_span = h0, h, t_span

    def sample(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """``(h0, h)`` at ``times``: arrays of shape ``(n,)`` and ``(n, 3)``."""
        times = _as_times(times)
        h0, h, n = self.h0, self.h, len(times)
        return (_per_sample(h0, times) if callable(h0) else np.full(n, h0),
                _per_sample(h, times, "field") if callable(h) else np.tile(h, (n, 1)))


class _ArrayField(FieldSpec):
    """A tabulated ``custom`` field or an Uzdin drive: ``rows(times)`` maps the
    checked time array to ``(h0, h)`` in one call."""

    def __init__(self, rows: Callable, t_span: Tuple[float, float]):
        self.rows, self.t_span = rows, t_span

    def sample(self, times) -> Tuple[np.ndarray, np.ndarray]:
        return self.rows(_as_times(times))
