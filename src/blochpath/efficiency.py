"""Efficiency measures of a qubit evolution and the waste classifier.

Geodesic efficiency compares the geodesic distance covered so far against
the Fubini-Study length actually traced; speed efficiency compares the
energy dispersion against the spectral norm of the Hamiltonian.  Their time
averages multiply into the hybrid efficiency, which is the only two-factor
combination satisfying the obvious axioms (range, reduction when one factor
is 1, bounded by the smaller factor).
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _exports
from .core import _broadcast, _numbers, spectral_norm
from .errors import (
    NumericalError,
    RangeError,
    ZeroHamiltonianError,
    ZeroPathError,
)
from .evolve import Trajectory, _trapezoid

__all__ = _exports(__name__)

#: path lengths below this are treated as zero (0/0 anchor convention)
TOL_S = 1e-9
#: a factor within this of 1 counts as exactly 1 for classification
TOL_ONE = 1e-3
#: relative tolerance when comparing the two loss diagnostics
TOL_CMP = 1e-3
#: efficiencies may exceed 1 by at most this before the run is rejected
TOL_EXCESS = 1e-9


class Classification(str, Enum):
    """Waste taxonomy of an averaged evolution."""

    GEODESIC_UNWASTEFUL = "GeodesicUnwasteful"
    NONGEODESIC_UNWASTEFUL = "NongeodesicUnwasteful"
    GEODESIC_WASTEFUL = "GeodesicWasteful"
    MORE_WASTEFUL_THAN_NONGEODESIC = "MoreWastefulThanNongeodesic"
    LESS_WASTEFUL_THAN_NONGEODESIC = "LessWastefulThanNongeodesic"
    AS_WASTEFUL_AS_NONGEODESIC = "AsWastefulAsNongeodesic"


def _unit_ratio(value):
    """Round a float or array of efficiencies into [0, 1].

    Values above ``1 + TOL_EXCESS`` indicate quadrature trouble and raise,
    as do NaN and infinite values, which no comparison would catch.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericalError("efficiency is not a finite number")
    excess = arr.max() - 1.0 if arr.size else 0.0
    if excess > TOL_EXCESS:
        raise NumericalError(f"efficiency exceeds 1 by {excess:.3e}")
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _path_length(traj: Trajectory) -> float:
    """Total path length; :class:`ZeroPathError` when it is at most
    ``TOL_S``, where no efficiency of the run is defined."""
    s = float(traj.s_accum[-1])
    if s <= TOL_S:
        raise ZeroPathError(f"path length {s!r} too short for a ratio")
    return s


def geodesic_efficiency_profile(traj: Trajectory) -> np.ndarray:
    """Geodesic efficiency accumulated from the start node up to each node.

    At the start node (and anywhere the accumulated length is below
    ``TOL_S``) the 0/0 limit is 1: both the distance and the length vanish
    linearly with slope ``2 dE``.
    """
    out = np.ones(traj.n_nodes)
    live = ~(traj.s_accum < TOL_S)  # NaN is live, so _unit_ratio rejects it
    out[live] = traj.s0[live] / traj.s_accum[live]
    return _unit_ratio(out)


def speed_efficiency_profile(traj: Trajectory) -> np.ndarray:
    """Node-wise speed efficiency ``dE / (|h0| + |h|)`` from the trajectory's
    stored ``delta_e`` and field samples; :class:`ZeroHamiltonianError`
    where H = 0.

    Equals 1 exactly when the field is traceless and orthogonal to the
    Bloch vector; any parallel component or trace part wastes speed.
    """
    norm = spectral_norm(traj.h0_nodes, traj.h_nodes)
    if np.any(norm == 0.0):
        raise ZeroHamiltonianError("speed efficiency undefined where H = 0")
    return _unit_ratio(traj.delta_e / norm)


def _radii(c, phidot):
    """``(c, |phidot|/2, r = hypot(|phidot|/2, c))`` at a nonnegative finite ``c``, for
    the closed forms ``c / r`` and ``c / (r + |phidot|/2)``: each a quarter where ``c``
    or ``|phidot|/2`` reaches ``2**1021``, so that ``r + |phidot|/2`` is finite and the
    ratios, scaled exactly, keep their bits.  Nothing is squared."""
    half = 0.5 * np.abs(phidot)
    quarter = np.where(np.maximum(half, c) >= 2.0**1021, 0.25, 1.0)
    c, half = c * quarter, half * quarter
    r = np.hypot(half, c)
    if np.any(r == 0.0):
        raise ZeroHamiltonianError("speed efficiency undefined for H = 0")
    return c, half, r


def _closed_form(cdot_sq, phidot, trace: bool):
    """``c / (r + |phidot|/2)`` if ``trace``, else ``c / r``, of :func:`_radii` at
    ``c = sqrt(cdot_sq)``, once ``cdot_sq`` is checked nonnegative and finite."""
    c2, pd = _numbers(cdot_sq, "cdot_sq"), _numbers(phidot, "phidot")
    _broadcast(c2, pd)
    if np.any(c2 < 0.0):
        raise RangeError("cdot_sq must be nonnegative")
    if not np.isfinite(c2).all():  # before any arithmetic: inf / inf warns
        raise NumericalError(f"cdot_sq = {float(c2[~np.isfinite(c2)][0])!r} is not finite")
    c, half, r = _radii(np.sqrt(c2), pd)
    return _unit_ratio(c / (r + half) if trace else c / r)


def speed_efficiency_tracenonzero(cdot_sq, phidot):
    """Closed-form speed efficiency of the trace-keeping sub-optimal drive.

    ``sqrt(c^2) / sqrt(phidot^2/2 + c^2 + (|phidot|/2) sqrt(phidot^2 + 4c^2))``
    where ``c^2 = |dc0/dt|^2 + |dc1/dt|^2`` for the driven path amplitudes.
    With ``c = sqrt(cdot_sq)`` and ``r = hypot(|phidot|/2, c)`` the radicand is
    ``(r + |phidot|/2)^2``: the ratio is ``c / (r + |phidot|/2)``, for any shape of ``phidot``.
    """
    return _closed_form(cdot_sq, phidot, trace=True)


def speed_efficiency_tracezero(cdot_sq, phidot):
    """Closed-form speed efficiency of the traceless sub-optimal drive.

    ``sqrt(c^2) / sqrt(phidot^2/4 + c^2) = c / r``, ``r = hypot(|phidot|/2, c)`` and
    ``c = sqrt(cdot_sq)``; for small ``phidot`` it behaves as ``1 - phidot^2 / (8 c^2)``.
    """
    return _closed_form(cdot_sq, phidot, trace=False)


def _check_factors(eta_ge_bar, eta_se_bar) -> None:
    """:class:`RangeError` unless both are single numbers in
    ``[-TOL_EXCESS, 1 + TOL_EXCESS]`` (NaN is not); a Python float as it is."""
    for name, value in (("eta_ge_bar", eta_ge_bar), ("eta_se_bar", eta_se_bar)):
        bad = RangeError(f"{name} = {value!r} is not a real number in [0, 1]")
        factor = value if type(value) is float else _numbers(value, name, error=bad)
        if getattr(factor, "shape", ()) != () or not -TOL_EXCESS <= factor <= 1.0 + TOL_EXCESS:
            raise bad


def hybrid_efficiency(eta_ge_bar: float, eta_se_bar: float) -> float:
    """Product of the averaged efficiencies.

    The product is the natural combination: it stays in [0, 1], reduces to
    either factor when the other is 1, and never exceeds the smaller factor.
    Arithmetic and geometric means violate all three (see the tests).
    """
    _check_factors(eta_ge_bar, eta_se_bar)
    return float(min(max(eta_ge_bar, 0.0), 1.0) * min(max(eta_se_bar, 0.0), 1.0))


class EfficiencyReport(NamedTuple):
    """Per-node efficiency curves, their averages, and the classification."""

    eta_ge_t: np.ndarray
    eta_se_t: np.ndarray
    eta_ge_bar: float
    eta_se_bar: float
    eta_he: float
    classification: Classification
    mean_length_loss: float
    mean_energy_loss: float
    s_total: float
    s0_total: float


def classify(eta_ge_bar: float, eta_se_bar: float) -> Classification:
    """Assign the waste taxonomy label from the averaged factors.

    A factor within ``TOL_ONE`` of 1 counts as 1.  When both factors fall
    short, the relative losses ``1 - eta`` are compared with relative
    tolerance ``TOL_CMP`` to pick among the wasteful sub-cases.
    """
    _check_factors(eta_ge_bar, eta_se_bar)
    geodesic = eta_ge_bar >= 1.0 - TOL_ONE
    unwasteful = eta_se_bar >= 1.0 - TOL_ONE
    if geodesic and unwasteful:
        return Classification.GEODESIC_UNWASTEFUL
    if unwasteful:
        return Classification.NONGEODESIC_UNWASTEFUL
    if geodesic:
        return Classification.GEODESIC_WASTEFUL
    length_loss = 1.0 - eta_ge_bar
    energy_loss = 1.0 - eta_se_bar
    if abs(energy_loss - length_loss) <= TOL_CMP * max(length_loss, energy_loss):
        return Classification.AS_WASTEFUL_AS_NONGEODESIC
    if energy_loss > length_loss:
        return Classification.MORE_WASTEFUL_THAN_NONGEODESIC
    return Classification.LESS_WASTEFUL_THAN_NONGEODESIC


def efficiency_report(traj: Trajectory) -> EfficiencyReport:
    """Evaluate both efficiency curves, their trapezoid time averages, the
    product, and the label, from the trajectory's stored field samples.

    A run whose path length is at most ``TOL_S`` (an eigenstate of its
    field, say) raises :class:`ZeroPathError` before any of them.
    """
    traj.validate()
    s_total = _path_length(traj)
    ge = geodesic_efficiency_profile(traj)
    se = speed_efficiency_profile(traj)
    duration = traj.times[-1] - traj.times[0]
    ge_bar = _unit_ratio(float(_trapezoid(ge, traj.grid)) / duration)
    se_bar = _unit_ratio(float(_trapezoid(se, traj.grid)) / duration)
    return EfficiencyReport(
        eta_ge_t=ge,
        eta_se_t=se,
        eta_ge_bar=ge_bar,
        eta_se_bar=se_bar,
        eta_he=hybrid_efficiency(ge_bar, se_bar),
        classification=classify(ge_bar, se_bar),
        mean_length_loss=1.0 - ge_bar,
        mean_energy_loss=1.0 - se_bar,
        s_total=s_total,
        s0_total=float(traj.s0[-1]),
    )
