"""Independent references for every op the benchmark runs.

Nothing here imports blochpath.  Bloch paths come from exact solutions
(precession about a fixed axis, the rotating-frame solution of a rotating
drive, the known example2/example4 paths); the efficiency averages apply the
documented trapezoid rule on the same grid to those exact paths.
"""

from __future__ import annotations

import math

import numpy as np

STEPS_PER_UNIT = 2000
#: 0/0 anchor of the geodesic efficiency, as documented by the library
TOL_S = 1e-9


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def state_of(a) -> np.ndarray:
    """A state vector whose Bloch vector is ``a``."""
    x, y, z = unit(a)
    theta, phi = math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)
    return np.array([math.cos(0.5 * theta),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(0.5 * theta)])


def n_steps_for(t0: float, t1: float) -> int:
    return max(2, int(np.ceil((t1 - t0) * STEPS_PER_UNIT)))


def grid(t0: float, t1: float, n: int | None = None) -> np.ndarray:
    return np.linspace(t0, t1, (n or n_steps_for(t0, t1)) + 1)


def rotate(a0, axis, angle) -> np.ndarray:
    """Rodrigues rotation of ``a0`` about unit ``axis`` by each ``angle``."""
    a0 = np.asarray(a0, dtype=float)
    k = np.asarray(axis, dtype=float)
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return a0 * c + np.cross(k, a0) * s + k * (k @ a0) * (1.0 - c)


def trapz(y, t) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))


def cumtrapz(y, t) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])


def averages(t, bloch, h0, h) -> dict:
    """Trapezoid time averages of eta_GE and eta_SE along an exact path."""
    ah = np.einsum("ij,ij->i", bloch, h)
    de = np.sqrt(np.clip(np.einsum("ij,ij->i", h, h) - ah * ah, 0.0, None))
    s = cumtrapz(2.0 * de, t)
    s0 = np.arccos(np.clip(bloch @ bloch[0], -1.0, 1.0))
    ge = np.ones_like(s)
    live = s >= TOL_S
    ge[live] = np.minimum(s0[live] / s[live], 1.0)
    se = np.minimum(de / (np.abs(h0) + np.linalg.norm(h, axis=1)), 1.0)
    span = t[-1] - t[0]
    ge_bar, se_bar = trapz(ge, t) / span, trapz(se, t) / span
    return {"eta_ge_bar": ge_bar, "eta_se_bar": se_bar, "eta_he": ge_bar * se_bar,
            "s_total": float(s[-1]), "s0_total": float(s0[-1]),
            "delta_e": de, "s": s, "s0": s0, "eta_ge": ge, "eta_se": se}


# ---------------------------------------------------------------- fields


def constant_path(t, a0, h) -> np.ndarray:
    """Exact precession ``da/dt = 2 h x a`` under a constant field."""
    h = np.asarray(h, dtype=float)
    return rotate(a0, unit(h), 2.0 * np.linalg.norm(h) * (t - t[0]))


def constant_kappa(a0, h) -> float:
    """Closed-form curvature ``4 (a.h)^2 / (h^2 - (a.h)^2)`` of a constant field."""
    ah = float(np.dot(a0, h))
    return 4.0 * ah * ah / (float(np.dot(h, h)) - ah * ah)


def example1_field(omega0, varphi0):
    return np.array([-0.5 * omega0 * math.sin(varphi0), 0.5 * omega0 * math.cos(varphi0), 0.0])


def example1_start(theta0, varphi0):
    return np.array([math.sin(theta0) * math.cos(varphi0),
                     math.sin(theta0) * math.sin(varphi0), math.cos(theta0)])


EXAMPLE3_START = np.array([math.sqrt(3.0) / 2.0, 0.0, 0.5])


def suboptimal(alpha, theta_ab, energy):
    """Field, span end, arc length and eta_SE of the stationary family from
    ``a = z`` to ``b = (sin theta, 0, cos theta)``."""
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([math.sin(theta_ab), 0.0, math.cos(theta_ab)])
    bisector = (a + b) / (2.0 * math.cos(0.5 * theta_ab))
    normal = np.cross(a, b) / math.sin(theta_ab)
    axis = math.cos(alpha) * bisector + math.sin(alpha) * normal
    radius = math.sqrt(1.0 - (math.cos(alpha) * math.cos(0.5 * theta_ab)) ** 2)
    phi = 2.0 * math.acos(min(1.0, math.sin(alpha) * math.cos(0.5 * theta_ab) / radius))
    return {"h": energy * axis, "t_ab": phi / (2.0 * energy), "arc": radius * phi,
            "eta_se": radius, "a0": a, "b": b}


def example2_path(t, omega0):
    th = omega0 * t
    return np.stack([np.sin(th), np.zeros_like(th), np.cos(th)], axis=1)


def example2_eta_se(omega0, nu0) -> float:
    """The phased drive's closed form ``thetadot / (phidot + sqrt(phidot^2 + thetadot^2))``."""
    return omega0 / (nu0 + math.sqrt(nu0 * nu0 + omega0 * omega0))


def example2_averages(t, omega0, nu0) -> dict:
    bloch = example2_path(t, omega0)
    th = omega0 * t
    h = 0.5 * np.stack([nu0 * np.sin(th), omega0 * np.ones_like(th), nu0 * np.cos(th)], axis=1)
    out = averages(t, bloch, 0.5 * nu0 * np.ones_like(t), h)
    out["bloch"] = bloch
    return out


def example4_averages(t, gamma) -> dict:
    """Known example4 path: precession about z at rate 2 gamma, 60 degrees
    off the axis, driven by the transverse field ``h = a x da/dt / 2``."""
    r3 = math.sqrt(3.0)
    c, s = np.cos(2 * gamma * t), np.sin(2 * gamma * t)
    bloch = np.stack([0.5 * r3 * c, 0.5 * r3 * s, 0.5 * np.ones_like(t)], axis=1)
    velocity = np.stack([-r3 * gamma * s, r3 * gamma * c, np.zeros_like(t)], axis=1)
    out = averages(t, bloch, np.zeros_like(t), 0.5 * np.cross(bloch, velocity))
    out["bloch"] = bloch
    return out


def piecewise_linear_integral(t, knots, values) -> np.ndarray:
    """Exact integral from ``knots[0]`` of the linear interpolant of ``values``."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(knots))])
    k = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    dt = t - knots[k]
    slope = (values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
    return cum[k] + values[k] * dt + 0.5 * slope * dt * dt


def fixed_axis_averages(t, a0, axis, magnitude, magnitude_integral, h0) -> dict:
    """Drive ``h(t) = f(t) n`` about a fixed axis: the state precesses about
    ``n`` by ``2 * integral f``."""
    bloch = rotate(a0, axis, 2.0 * magnitude_integral)
    out = averages(t, bloch, h0, np.outer(magnitude, axis))
    out["bloch"] = bloch
    return out


def rotating_averages(t, a0, b, w, bz, h0) -> dict:
    """Drive ``h = (b cos wt, b sin wt, bz)``: solved in the frame rotating
    about z at rate w, where the field is constant, ``(b, 0, bz - w/2)``."""
    eff = np.array([b, 0.0, bz - 0.5 * w])
    a_rot = rotate(a0, unit(eff), 2.0 * np.linalg.norm(eff) * t)
    c, s = np.cos(w * t), np.sin(w * t)
    bloch = np.stack([c * a_rot[:, 0] - s * a_rot[:, 1],
                      s * a_rot[:, 0] + c * a_rot[:, 1], a_rot[:, 2]], axis=1)
    h = np.stack([b * c, b * s, bz * np.ones_like(t)], axis=1)
    out = averages(t, bloch, h0, h)
    out["bloch"] = bloch
    return out


# ---------------------------------------------------------------- sweeps


def sweep_alpha_table(theta_ab, n_points, energy) -> dict:
    alpha = np.linspace(0.0, math.pi, n_points)
    alpha[0], alpha[-1] = 1e-6, math.pi - 1e-6
    c = np.cos(alpha) * math.cos(0.5 * theta_ab)
    radius = np.sqrt(1.0 - c * c)
    phi = 2.0 * np.arccos(np.clip(np.sin(alpha) * math.cos(0.5 * theta_ab) / radius, -1, 1))
    arc = radius * phi
    return {"alpha": alpha, "s": arc, "t_ab": phi / (2.0 * energy),
            "delta_e": energy * radius, "eta_ge": theta_ab / arc, "eta_se": radius}


def phase_profile_table(profile, phi0, phidot0, omega0, t_end, n_points) -> dict:
    t = np.linspace(0.0, t_end, n_points)
    if profile == "linear":
        phi, phidot = phi0 + phidot0 * t, phidot0 * np.ones_like(t)
    elif profile == "exp":
        phi, phidot = phi0 + np.expm1(phidot0 * t), phidot0 * np.exp(phidot0 * t)
    else:
        phi = phi0 * np.log1p(phidot0 / phi0 * t)
        phidot = phidot0 / (1.0 + phidot0 / phi0 * t)
    c2 = omega0 * omega0
    zero = np.sqrt(c2 / (0.25 * phidot ** 2 + c2))
    nonzero = np.sqrt(c2 / (0.5 * phidot ** 2 + c2
                            + 0.5 * np.abs(phidot) * np.sqrt(phidot ** 2 + 4 * c2)))
    return {"t": t, "phi": phi, "phi_dot": phidot,
            "eta_se_trace_zero": np.minimum(zero, 1.0),
            "eta_se_trace_nonzero": np.minimum(nonzero, 1.0)}
