"""Fixed-step integration of qubit dynamics and parallel transport.

The Schrodinger equation ``i dpsi/dt = H psi`` is integrated with classic
RK4 on a uniform grid, renormalizing after every step.  A linear RK4 step
is the matrix ``M = I + dt/6 (A0 + 2 K2 + 2 K3 + K4)`` with ``A = -iH``,
``K2 = Am (I + dt/2 A0)``, ``K3 = Am (I + dt/2 K2)``, ``K4 = A1 (I + dt K3)``.
The matrices of ``_BLOCK`` steps are built at once, entry-major (``-iH`` as
``pauli_compose``'s entries times ``-1j``), and their Hillis-Steele prefix
products ``P_k = M_k ... M_0`` (Blelloch, CMU-CS-90-190) carry the block's
first state ``y`` to every node.  Renormalizing, a scalar, commutes with
them, so the drifts ``|M_k y_k| - 1`` are the growths
``|P_k y| / |P_(k-1) y| - 1``, checked at once.  When every node and
midpoint sample of the field has the same bits (a stationary field, given
as a constant or as a callable of one value), the products are the exact
propagators ``P_k = exp(-i t_k H)``, ``t_k = (k + 1) dt``, taken in closed
form for one block (:func:`_exponentials`), and every block reuses them: a
stationary field has no step bound, and its states are exact to rounding.
Line integrals are trapezoid sums on the nodes (:func:`_trapezoid`), whose
intervals each grid forms once.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _exports
from .config import MAX_STEPS, _count, _ordered, _span
from .core import (FieldSpec, _as_state, _as_times, _check_finite, _dot, _first, _Frozen,
                   _norm_sq, _numbers, energy_uncertainty, fubini_study_distance)
from .errors import (ConfigError, IntegrationError, NormalizationError,
                     NumericalError, ShapeError)

__all__ = _exports(__name__)

#: default number of steps per unit time
STEPS_PER_UNIT = 2000
#: per-step norm drift (before renormalization) that aborts the integration
MAX_STEP_DRIFT = 1e-4
#: allowed Bloch-norm deviation on stored trajectory nodes
TOL_DRIFT = 1e-8
#: allowed deviation of an initial state's norm from 1
TOL_NORM0 = 1e-10
#: steps whose matrices and prefix products are held at once
_BLOCK = 1024


def _trapezoid(y, grid: "TimeGrid", cumulative: bool = False):
    """Trapezoid rule for samples ``y`` (real or complex) on the nodes of ``grid``.

    Returns the integral over the grid, or with ``cumulative`` the running
    integral at every node, from 0 at the first.  The intervals are those of
    the offsets ``t - t_start``, which a far ``t_start`` leaves exact.  The
    total is a pairwise sum of the interval terms and the running integral a
    sequential one, so ``cumulative[-1]`` may differ from the total in the
    last bits.
    """
    terms = grid._widths * (y[1:] + y[:-1]) / 2.0
    if cumulative:
        return np.concatenate(([0.0], np.cumsum(terms)))
    return terms.sum()


class TimeGrid(_Frozen):
    """Uniform time grid with ``n_steps`` intervals; its attributes are frozen."""

    def __init__(self, t_start: float, t_end: float, n_steps: int):
        bad = ConfigError("grid endpoints must be finite")
        ends = [_numbers(t, "grid endpoint", error=bad) for t in (t_start, t_end)]
        if not all(t.shape == () and np.isfinite(t) for t in ends):
            raise bad
        _ordered(t_start, t_end)
        vars(self).update(t_start=t_start, t_end=t_end,
                          n_steps=_count(n_steps, "n_steps"))

    @classmethod
    def with_density(cls, t_start: float, t_end: float) -> "TimeGrid":
        """Grid of ``STEPS_PER_UNIT`` steps per unit time, at least 2."""
        # the endpoints are checked before any arithmetic on them, and a
        # span too long to count fails the step cap, not int(inf)
        cls(t_start, t_end, 2)
        steps = (t_end - t_start) * STEPS_PER_UNIT
        if not steps <= MAX_STEPS:
            raise ConfigError(
                f"a span of {float(t_end - t_start)!r} at the default "
                f"{STEPS_PER_UNIT} steps per unit time exceeds the cap of "
                f"{MAX_STEPS} steps; set n_steps")
        return cls(t_start, t_end, max(2, int(np.ceil(steps))))

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    @functools.cached_property
    def _widths(self) -> np.ndarray:  # the intervals of t - t_start that _trapezoid uses
        return np.diff(np.linspace(0.0, self.t_end - self.t_start, self.n_nodes))

    @property
    def half_times(self) -> np.ndarray:
        """Nodes and midpoints interleaved: the even entries are :attr:`times` bit
        for bit, and the last is ``t_end``."""
        return np.linspace(self.t_start, self.t_end, 2 * self.n_steps + 1)


def sample_field(field: FieldSpec, times) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(h0(t), h(t))`` on an array of times with
    :meth:`FieldSpec.sample`.

    Exceptions raised inside user callables, and non-finite samples, surface
    as :class:`FieldError` naming the first failing time.
    """
    times = _as_times(times)
    h0, h = field.sample(times)
    _check_finite(times, "field", h0, h)
    return h0, h


def _bloch_of(states: np.ndarray) -> np.ndarray:
    cross = np.conj(states[:, 0]) * states[:, 1]
    return np.stack([2.0 * cross.real, 2.0 * cross.imag,
                     np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2], axis=1)


class Trajectory(NamedTuple):
    """Sampled evolution: states, Bloch path, field and derived line data.

    ``h0_half`` and ``h_half`` hold the field at ``grid.half_times``, and
    ``h0_nodes`` and ``h_nodes`` are their node rows.  ``s_accum`` is the
    Fubini-Study path length ``integral 2 dE dt`` up to each node; ``s0``
    is the geodesic distance from the initial node.
    """

    grid: TimeGrid
    times: np.ndarray
    states: np.ndarray
    bloch: np.ndarray
    h0_half: np.ndarray
    h_half: np.ndarray
    delta_e: np.ndarray
    s_accum: np.ndarray
    s0: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.times.shape[0]

    @property
    def h0_nodes(self) -> np.ndarray:
        return self.h0_half[::2]

    @property
    def h_nodes(self) -> np.ndarray:
        return self.h_half[::2]

    def validate(self) -> None:
        n = self.n_nodes
        shapes = {"times": (n,), "states": (n, 2), "bloch": (n, 3),
                  "h0_half": (2 * n - 1,), "h_half": (2 * n - 1, 3),
                  "delta_e": (n,), "s_accum": (n,), "s0": (n,)}
        for name, want in shapes.items():
            got = np.asarray(getattr(self, name)).shape
            if got != want:
                raise ShapeError(f"trajectory field {name} has shape {got}, want {want}")
        norms = _dot(self.bloch, self.bloch)
        worst = np.max(np.abs(norms - 1.0))
        if not worst <= TOL_DRIFT:
            if not np.isfinite(worst):
                raise NumericalError("Bloch norm is not finite")
            raise NumericalError(f"Bloch norm drift {worst:.3e} exceeds {TOL_DRIFT}")


def _mul(a, b):
    """``a_k @ b_k`` of entry-major ``(2, 2, n)`` and ``(2, m, n)`` stacks."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _step_matrices(h0, h, dt):
    """Entry-major RK4 step matrices from ``2n + 1`` node and midpoint samples."""
    gen = np.array([[h0 + h[:, 2], h[:, 0] - 1j * h[:, 1]],
                    [h[:, 0] + 1j * h[:, 1], h0 - h[:, 2]]], dtype=complex)
    gen *= -1j  # -iH
    a0, am, a1 = gen[..., :-2:2], gen[..., 1::2], gen[..., 2::2]
    eye = np.eye(2)[..., None]
    k2 = _mul(am, eye + (0.5 * dt) * a0)
    k3 = _mul(am, eye + (0.5 * dt) * k2)
    k4 = _mul(a1, eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _same_rows(x) -> bool:
    """Whether every sample of ``x`` has the bits of the first one."""
    bits = x.view(np.int64)
    return bool((bits == bits[0]).all())


def _exponentials(h0, h, t):
    """Entry-major ``exp(-i t_k (h0 + h.sigma))`` at the times ``t``, in closed
    form: ``exp(-i t_k h0) (cos(t_k |h|) I - i sin(t_k |h|) n.sigma)`` with
    ``n = h / |h|``.  An ``|h|`` whose square overflows gives NaN."""
    size = np.sqrt(_dot(h, h))
    n, angle = (h / size if size > 0.0 else h), t * size
    u = np.empty((2, 2, len(t)), dtype=complex)
    re, im, s = u.real, u.imag, np.sin(angle)
    re[0, 0] = re[1, 1] = np.cos(angle)
    im[0, 0], im[1, 1] = -s * n[2], s * n[2]
    re[0, 1], re[1, 0] = -s * n[1], s * n[1]
    im[0, 1] = im[1, 0] = -s * n[0]
    u *= np.exp(-1j * t * h0)
    return u


def _propagate(psi0, h0_half, h_half, dt) -> np.ndarray:
    """States on the nodes, propagated ``_BLOCK`` steps at a time."""
    n_steps = (len(h0_half) - 1) // 2
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = psi0
    carry = None
    if _same_rows(h0_half) and _same_rows(h_half):  # exp(-i t_k H), t_k = (k + 1) dt
        h0, h = h0_half[0], h_half[0]
        carry = _exponentials(h0, h, dt * np.arange(1, min(_BLOCK, n_steps) + 1))
        k = _first(~np.isfinite(carry).all(axis=(0, 1)))
        if k is not None:  # no dt helps: only a field past the float range fails
            raise IntegrationError(f"state norm is not finite after step {k}; field "
                                   f"magnitude {abs(h0) + math.hypot(*h):.3e} "
                                   "overflows exp(-itH)")
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        if carry is not None:
            p = carry[..., :hi - lo]
        else:
            p, shift = _step_matrices(h0_half[2 * lo:2 * hi + 1],
                                      h_half[2 * lo:2 * hi + 1], dt), 1
            while shift < hi - lo:  # Hillis-Steele: P_k = M_k ... M_0
                p[..., shift:] = _mul(p[..., shift:], p[..., :-shift])
                shift *= 2
        w = _mul(p, states[lo, :, None, None])[:, 0]
        norms = np.linalg.norm(w, axis=0)
        states[lo + 1:hi + 1] = (w / norms).T
        # step k's growth |M_k y_k| is |P_k y| / |P_(k-1) y|, y = states[lo]
        growth = norms / np.concatenate(([np.sqrt(_norm_sq(states[lo]))], norms[:-1]))
        drift = np.abs(growth - 1.0)
        k = _first(~(drift <= MAX_STEP_DRIFT))
        if k is not None:
            cause = (f"norm drift {drift[k]:.3e} in step" if np.isfinite(drift[k])
                     else "state norm is not finite after step")
            raise IntegrationError(f"{cause} {lo + k}; reduce dt")
    return states


def schrodinger_evolve(field: FieldSpec, psi0,
                       grid: TimeGrid | None = None) -> Trajectory:
    """Integrate ``i dpsi/dt = H(t) psi`` with RK4 on a fixed grid.

    Blocked step matrices and prefix products (see the module notes) give a
    step-by-step RK4's states to about 1e-15; the first step whose norm
    drifts by more than ``MAX_STEP_DRIFT`` raises :class:`IntegrationError`.
    A stationary field is propagated exactly, with ``exp(-i t H)``.

    Parameters
    ----------
    field : FieldSpec
        Control field; sampled once on nodes and midpoints.
    psi0 : array_like, shape (2,)
        Normalized initial state.
    grid : TimeGrid, optional
        Defaults to ``field.t_span`` with 2000 steps per unit time.
    """
    if grid is None:
        grid = TimeGrid.with_density(*_span(field.t_span))
    psi0 = _as_state(psi0)
    norm0 = np.sqrt(_norm_sq(psi0))
    if not abs(norm0 - 1.0) <= TOL_NORM0:
        raise NormalizationError(f"initial state norm {float(norm0)!r}, expected 1")

    h0_half, h_half = sample_field(field, grid.half_times)
    states = _propagate(psi0, h0_half, h_half, grid.dt)
    bloch = _bloch_of(states)
    delta_e = energy_uncertainty(bloch, h_half[::2])
    s_accum = _trapezoid(2.0 * delta_e, grid, cumulative=True)
    s0 = fubini_study_distance(bloch, bloch[0])
    traj = Trajectory(grid, grid.times, states, bloch, h0_half, h_half,
                      delta_e, s_accum, s0)
    traj.validate()
    return traj


def parallel_transport(traj: Trajectory) -> np.ndarray:
    """Phase-align the sampled states so that ``<m | dm/dt> ~ 0``.

    Multiplies each state by ``exp(i beta(t))`` with
    ``beta = integral <H> dt`` and ``<H> = h0 + a . h``, removing the
    dynamical phase accumulated along the trajectory.  The field samples
    stored on the trajectory are used.
    """
    traj.validate()
    expect_h = traj.h0_nodes + _dot(traj.bloch, traj.h_nodes)
    beta = _trapezoid(expect_h, traj.grid, cumulative=True)
    return np.exp(1j * beta)[:, None] * traj.states
