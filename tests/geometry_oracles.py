"""Per-node and special-case geometry formulas: the suite's references.

* :func:`curvature_expectation` is the per-node loop
  :func:`blochpath.curvature_expectation_profile` once was: the dispersion
  operator of one node and its neighbors, and the moments in that node's
  state.  Agreement at every node checks the broadcast rewrite.
* :func:`curvature_transverse` is the paper's formula for a field that
  stays orthogonal to the Bloch vector, ``|d(unit h)/dt|^2 / h^2``, with a
  central difference of the user's field.
* :func:`transport_residual` measures how well
  :func:`blochpath.parallel_transport` removes the dynamical phase.
* :func:`uzdin_drive` is the Uzdin drive as the library once built it: the
  full 2x2 matrices, then their Hermiticity defect and Pauli vector.
* :func:`rodrigues_rotate` is the rotation about a unit axis that checks a
  stationary family's axis and angle carry ``a`` onto ``b``.
"""

import warnings

import numpy as np

from blochpath import SingularEvolutionError, Trajectory, pauli_compose
from blochpath.curvature import TOL_SING, _clamp_nonneg


def _dispersion_operator(traj: Trajectory, k: int) -> np.ndarray:
    """Matrix ``Dh = (H - <H>) / dE`` at node ``k``."""
    de = traj.delta_e[k]
    if de <= TOL_SING:
        raise SingularEvolutionError(f"dE = {de!r} at node {k}; eigenstate evolution")
    matrix = pauli_compose(traj.h0_nodes[k], traj.h_nodes[k])
    expect = traj.h0_nodes[k] + float(traj.bloch[k] @ traj.h_nodes[k])
    return (matrix - expect * np.eye(2)) / de


def curvature_expectation(traj: Trajectory, k: int) -> float:
    """Curvature at node ``k`` from moments of the dispersion operator.

    Evaluates ``<Dh^4> - <Dh^2>^2 + <Dh'^2> - <Dh'>^2 + i<[Dh^2, Dh']>``
    in the state at node ``k``, where ``Dh' = (dDh/dt) / v`` and ``v = dE``,
    with a central difference over the neighboring nodes (one-sided second
    order at the ends).  A real commutator residual above 1e-10 warns.
    """
    n = traj.n_nodes
    dt = traj.grid.dt
    dh = _dispersion_operator(traj, k)
    if k == 0:
        ddh = (-3.0 * dh + 4.0 * _dispersion_operator(traj, 1)
               - _dispersion_operator(traj, 2)) / (2.0 * dt)
    elif k == n - 1:
        ddh = (3.0 * dh - 4.0 * _dispersion_operator(traj, n - 2)
               + _dispersion_operator(traj, n - 3)) / (2.0 * dt)
    else:
        ddh = (_dispersion_operator(traj, k + 1)
               - _dispersion_operator(traj, k - 1)) / (2.0 * dt)
    dh_prime = ddh / traj.delta_e[k]

    psi = traj.states[k]

    def expect(op: np.ndarray) -> complex:
        return complex(np.vdot(psi, op @ psi))

    dh_sq = dh @ dh
    moment4 = expect(dh_sq @ dh_sq).real
    moment2 = expect(dh_sq).real
    prime_var = expect(dh_prime @ dh_prime).real - expect(dh_prime).real ** 2
    comm = expect(dh_sq @ dh_prime - dh_prime @ dh_sq)
    if abs(comm.real) > 1e-10:
        warnings.warn(f"commutator expectation has real residual "
                      f"{comm.real:.3e} at node {k}", RuntimeWarning)
    cross = (1j * comm).real
    return _clamp_nonneg(moment4 - moment2**2 + prime_var + cross)


def curvature_transverse(h_perp, t: float, fd_step: float = 1e-6) -> float:
    """Curvature of a purely transverse field at time ``t``.

    Valid only while the field stays orthogonal to the Bloch vector
    (``a.h = 0``), where the coefficient measures how fast the field
    direction turns relative to the precession rate.
    """
    h = np.asarray(h_perp(t), dtype=float)
    plus = np.asarray(h_perp(t + fd_step), dtype=float)
    minus = np.asarray(h_perp(t - fd_step), dtype=float)
    unit_dot = (plus / np.linalg.norm(plus) - minus / np.linalg.norm(minus)) \
        / (2.0 * fd_step)
    return float(unit_dot @ unit_dot) / float(h @ h)


def transport_residual(m_states, times) -> np.ndarray:
    """Centered-difference check ``|<m_k | dm/dt (t_k)>|`` at interior nodes.

    For a parallel-transported path this is O(dt^2).
    """
    m = np.asarray(m_states, dtype=complex)
    t = np.asarray(times, dtype=float)
    dm = (m[2:] - m[:-2]) / (t[2:] - t[:-2])[:, None]
    overlap = np.einsum("ij,ij->i", np.conj(m[1:-1]), dm)
    return np.abs(overlap)


def uzdin_drive(m, md):
    """Matrices ``i(|dm><m| - |m><dm|)`` of ``(n, 2)`` rows of the path ``m``
    and its derivative ``md``, their Hermiticity defect (the entrywise max
    of ``|H - H^dagger|``) and their Pauli vectors."""
    matrix = 1j * (md[:, :, None] * m.conj()[:, None, :]
                   - m[:, :, None] * md.conj()[:, None, :])
    defect = np.abs(matrix - np.swapaxes(matrix.conj(), -1, -2)).max(axis=(-2, -1))
    h = np.stack([0.5 * (matrix[:, 0, 1].real + matrix[:, 1, 0].real),
                  0.5 * (matrix[:, 1, 0].imag - matrix[:, 0, 1].imag),
                  0.5 * (matrix[:, 0, 0].real - matrix[:, 1, 1].real)], axis=-1)
    return matrix, defect, h


def rodrigues_rotate(v, axis, angle: float) -> np.ndarray:
    """Rotate ``v`` about the unit ``axis`` by ``angle`` (right-hand rule)."""
    v, k = np.asarray(v, dtype=float), np.asarray(axis, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(k, v) * s + k * (k @ v) * (1.0 - c)
