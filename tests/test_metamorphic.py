"""Metamorphic relations on trajectory quantities: a transformed drive must
give the transformed path, with no exact solution needed (Chen, Cheung and
Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).

Each case draws a three-component trigonometric drive, each entry of ``h``
being ``A0 + A1 cos(w t) + A2 sin(w t)`` with ``A`` in [-1.5, 1.5] and ``w``
in [0.5, 4], and a unit Bloch vector ``a0``.  It runs the drive and its
transform on ``N_STEPS`` steps and compares the Bloch path, ``delta_e``,
``s_accum[-1]``, ``s0`` and ``curvature_bloch_profile``.  A quantity's gap
is ``max |x - y| / max |y|``, over 1 where ``y`` is all 0; the curvature's
is over ``max(max |y|, 1)``, since a geodesic's is 0 up to rounding.
A draw whose plain run raises a typed error must raise the same type
transformed.

Tolerances: the gaps of :func:`gaps` were measured over 200 drives of
numpy's ``default_rng(0)`` (the nine amplitudes, ``w``, ``a0`` uniform on
the sphere and three Euler angles drawn in that order), and each bound is
10 times the largest gap seen, rounded up to one significant digit.
The curvature gets its own bound: its stencil divides the field's rounding
by ``dt / 2``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpath import (
    BlochPathError,
    FieldSpec,
    TimeGrid,
    curvature_bloch_profile,
    schrodinger_evolve,
    state_from_bloch,
)

#: steps of every run, on [0, 1] or its image
N_STEPS = 1000
#: the rescaling factors of time and field, by relation: a strong field and
#: two weak ones, whose dispersion lies far below any absolute bound
LAMBDAS = {"rescaling": 1e3, "rescaling_by_1e-7": 1e-7, "rescaling_by_1e-13": 1e-13}
#: the shift of the time origin
SHIFT = 1e3
#: ``(path, curvature)`` bounds; the path's covers every quantity but the
#: curvature.  Largest gaps measured: rotation 2.5e-15 and 8.3e-12,
#: rescaling 3.8e-15 and 1.1e-11.  The rescalings by 1e-7 and 1e-13 share its
#: bounds: 2.9e-15 and 7.4e-12, 3.9e-15 and 3.1e-12 over 200 drives drawn in
#: the same order, with ``a0`` a normalized normal draw
BOUNDS = {"rotation": (3e-14, 9e-11), "rescaling": (4e-14, 2e-10)}
#: the shifted field sees ``t - SHIFT`` rounded to the ulp of SHIFT, an error
#: of ``ulp(SHIFT) * rate`` in ``h`` and of ``N_STEPS`` times that in the
#: stencil's ``dh/dt``; bounds in those units (largest gaps measured 0.93
#: and 2.05), so they scale with the field's rate and not as a constant
SHIFT_BOUNDS = (10.0, 30.0)

amplitudes = st.floats(min_value=-1.5, max_value=1.5)
angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)


def trig_drive(amps, omega):
    """``h(t)``, row ``k`` of the 3 x 3 ``amps`` giving entry ``k``, and the
    bound ``omega max_k (|A1| + |A2|)`` on its rate ``|dh_k/dt|``."""
    amps = np.asarray(amps, dtype=float).reshape(3, 3)

    def h(t):
        return amps[:, 0] + amps[:, 1] * np.cos(omega * t) + amps[:, 2] * np.sin(omega * t)
    return h, omega * np.max(np.abs(amps[:, 1]) + np.abs(amps[:, 2]))


def unit_vector(polar, azimuth):
    return np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                     np.cos(polar)])


def rotation(alpha, beta, gamma):
    """``Rz(alpha) Ry(beta) Rz(gamma)``."""
    def rz(x):
        return np.array([[np.cos(x), -np.sin(x), 0.0], [np.sin(x), np.cos(x), 0.0],
                         [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(beta), 0.0, np.sin(beta)], [0.0, 1.0, 0.0],
                   [-np.sin(beta), 0.0, np.cos(beta)]])
    return rz(alpha) @ ry @ rz(gamma)


def observe(h, a0, t_start=0.0, t_end=1.0):
    """The Bloch path, ``delta_e``, ``s_accum[-1]``, ``s0`` and the curvature
    profile of ``h`` (with ``h0 = 0``) from ``a0``, or the type of the typed
    error the run raises."""
    try:
        traj = schrodinger_evolve(FieldSpec(h0=0.0, h=h), state_from_bloch(a0),
                                  TimeGrid(t_start, t_end, N_STEPS))
        return {"bloch": traj.bloch, "delta_e": traj.delta_e, "s": traj.s_accum[-1],
                "s0": traj.s0, "kappa2": curvature_bloch_profile(traj)}
    except BlochPathError as exc:
        return type(exc)


def transformed(relation, h, a0, r):
    """:func:`observe` of the drive ``h`` from ``a0`` under ``relation``,
    mapped back to the terms of the plain run: ``rotation`` by ``r``, a
    rescaling by its factor in ``LAMBDAS`` and ``shift`` by ``SHIFT``."""
    if relation == "rotation":
        got = observe(lambda t: r @ h(t), r @ a0)
        if isinstance(got, dict):
            got["bloch"] = got["bloch"] @ r
    elif relation in LAMBDAS:
        lam = LAMBDAS[relation]
        got = observe(lambda t: lam * h(lam * t), a0, 0.0, 1.0 / lam)
        if isinstance(got, dict):
            got["delta_e"] = got["delta_e"] / lam
    else:
        got = observe(lambda t: h(t - SHIFT), a0, SHIFT, SHIFT + 1.0)
    return got


def gaps(got, want):
    """The path's largest gap and the curvature's."""
    scale = {name: np.max(np.abs(want[name])) or 1.0 for name in want}
    scale["kappa2"] = max(scale["kappa2"], 1.0)
    gap = {name: float(np.max(np.abs(got[name] - want[name])) / scale[name])
           for name in want}
    return max(gap[name] for name in want if name != "kappa2"), gap["kappa2"]


def bounds(relation, rate):
    """The ``(path, curvature)`` bounds of ``relation`` for a drive of ``rate``."""
    if relation != "shift":
        return BOUNDS["rescaling" if relation in LAMBDAS else relation]
    unit = np.spacing(SHIFT) * rate
    return SHIFT_BOUNDS[0] * unit, SHIFT_BOUNDS[1] * unit * N_STEPS


@pytest.mark.parametrize("relation", ["rotation", *LAMBDAS, "shift"])
@given(amps=st.lists(amplitudes, min_size=9, max_size=9),
       omega=st.floats(min_value=0.5, max_value=4.0),
       a0=st.builds(unit_vector, angles, angles),
       euler=st.tuples(angles, angles, angles))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_a_transformed_drive_gives_the_transformed_path(relation, amps, omega, a0, euler):
    h, rate = trig_drive(amps, omega)
    base = observe(h, a0)
    got = transformed(relation, h, a0, rotation(*euler))
    if not isinstance(base, dict):
        assert got is base
        return
    (path, curvature), (path_bound, curvature_bound) = gaps(got, base), bounds(relation, rate)
    assert path <= path_bound and curvature <= curvature_bound, (path, curvature)


@pytest.mark.parametrize("relation", ["rotation", *LAMBDAS, "shift"])
def test_each_relation_can_fail(relation):
    # one amplitude of the transformed drive off by 1e-6 breaks each relation
    amps, omega = [0.3, 1.0, -0.4, 1.2, 0.1, 0.5, -0.7, 0.9, 0.2], 2.0
    a0 = unit_vector(1.0, 0.5)
    h, rate = trig_drive(amps, omega)
    wrong, _ = trig_drive([amps[0] + 1e-6, *amps[1:]], omega)
    got = transformed(relation, wrong, a0, rotation(0.3, 1.1, -0.7))
    (path, curvature), (path_bound, curvature_bound) = gaps(got, observe(h, a0)), \
        bounds(relation, rate)
    assert path > path_bound and curvature > curvature_bound
