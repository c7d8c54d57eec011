"""Exact solutions of ``i dpsi/dt = (h0(t) + h(t).sigma) psi`` that the tests
hold the propagator to.  This module imports nothing from blochpath.

A drive about a fixed unit axis, ``h(t) = f(t) n``, commutes with itself at
all times, so its propagator is ``exp(-i B(t)) exp(-i F(t) n.sigma)`` with
``F = integral f`` and ``B = integral h0``: the Bloch vector turns about
``n`` by the angle ``2 F(t)``.  A constant field is the case ``f = |h|``.
With the initial Bloch vector ``a0`` perpendicular to ``n`` the path is a
great circle, a geodesic, whatever the magnitude ``f > 0``: the paper's
optimal class of nonstationary drives, with curvature coefficient 0.
"""

import numpy as np


def fixed_axis_states(psi0, axis, turn, phase=0.0) -> np.ndarray:
    """The ``(len(turn), 2)`` states ``exp(-i phase) exp(-i turn n.sigma) psi0``
    for unit ``axis`` ``n``, at each ``turn`` ``F`` and ``phase`` ``B``."""
    nx, ny, nz = np.asarray(axis, dtype=float)
    turn = np.asarray(turn, dtype=float)[:, None, None]
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    u = np.cos(turn) * np.eye(2) - 1j * np.sin(turn) * n_sigma
    u = np.exp(-1j * np.asarray(phase))[..., None, None] * u
    return u @ np.asarray(psi0, dtype=complex)


def fixed_axis_bloch(a0, axis, turn) -> np.ndarray:
    """The ``(len(turn), 3)`` Bloch vectors of :func:`fixed_axis_states`:
    ``a0`` turned about ``axis`` by ``2 turn`` (Rodrigues)."""
    a0, k = np.asarray(a0, dtype=float), np.asarray(axis, dtype=float)
    angle = 2.0 * np.asarray(turn, dtype=float)[:, None]
    return (a0 * np.cos(angle) + np.cross(k, a0) * np.sin(angle)
            + np.outer(1.0 - np.cos(angle[:, 0]), k * (k @ a0)))


def wobbling_drive(t_start, t_end, rate=5.0):
    """A fixed-axis drive ``f(t) = 3 + 2 sin(rate t)``, ``h0(t) = cos(2 t)``:
    ``(axis, f, h0, F, B)`` with the integrals ``F`` and ``B`` from
    ``t_start``."""
    axis = np.array([0.6, 0.0, 0.8])
    return (axis,
            lambda t: 3.0 + 2.0 * np.sin(rate * t),
            lambda t: np.cos(2.0 * t),
            lambda t: 3.0 * (t - t_start) - 2.0 / rate * (np.cos(rate * t)
                                                          - np.cos(rate * t_start)),
            lambda t: 0.5 * (np.sin(2.0 * t) - np.sin(2.0 * t_start)))


def fixed_axis_path(psi0, axis, f, turn):
    """The path ``m(t) = exp(-i F(t) n.sigma) psi0`` of the drive ``f(t) n``
    and its derivative ``-i f(t) (n.sigma) m(t)``, as two callables mapping a
    time array to ``(n, 2)`` rows; ``turn`` is ``F``.  If the Bloch vector of
    ``psi0`` is perpendicular to ``n``, ``<m|dm/dt> = 0``: the path is
    parallel transported, and its optimal (Uzdin) drive is ``f(t) n``."""
    nx, ny, nz = np.asarray(axis, dtype=float)
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])

    def m_state(t):
        return fixed_axis_states(psi0, axis, turn(t))

    def m_dot(t):
        return -1j * f(t)[:, None] * (m_state(t) @ n_sigma.T)
    return m_state, m_dot
