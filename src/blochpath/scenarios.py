"""Named scenarios, report generation, and parameter sweeps.

Four built-in scenarios exercise every regime of the efficiency taxonomy:

1. ``example1`` — constant-longitude drive along a great circle: geodesic
   and unwasteful, the reference evolution.
2. ``example2`` — same Bloch path driven with a nonzero-trace Hamiltonian:
   geodesic but wasteful.
3. ``example3`` — stationary field with the state off the field axis:
   nongeodesic and wasteful.
4. ``example4`` — the optimal drive reproducing example 3's Bloch path:
   nongeodesic but unwasteful.

``suboptimal_family`` exposes the stationary one-parameter family and
``custom`` passes a user-supplied constant or tabulated field through.
Artifacts are CSV curves (RFC 4180, 15 significant digits) and JSON
reports; identical configs produce byte-identical files.
"""

import contextlib
import csv
import io
import os
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import _exports
from .config import ALL_OUTPUTS, SCENARIOS, ScenarioConfig, _count, _finite, _resolve
from .core import FieldSpec, _ArrayField, _norm_sq, _numbers, _quiet_fp, state_from_bloch
from .csvtext import csv_rows
from .curvature import curvature_bloch_profile
from .efficiency import _radii, _unit_ratio, efficiency_report
from .errors import BlochPathError, ConfigError, NumericalError, ShapeError
from .evolve import TOL_NORM0, TimeGrid, schrodinger_evolve
from .families import (
    TOL_DEG,
    SuboptimalStationary,
    UzdinFamily,
    _orbit,
    suboptimal_hamiltonian,
    uzdin_optimal,
    uzdin_suboptimal,
)

__all__ = _exports(__name__)

#: sweep grids stay this far away from the degenerate alpha boundary
ALPHA_EPS = 1e-6


def _finite_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; :class:`ConfigError` unless it is finite numbers."""
    arr = _numbers(value, what)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{what} must be finite numbers, got {value!r}")
    return arr


class ReportRow(NamedTuple):
    """One line of the summary table."""

    scenario: str
    eta_ge_bar: float
    eta_se_bar: float
    eta_he: float
    classification: str


def _polar_path(omega0: float, theta0: float, varphi0: float):
    """Constant-longitude path ``cos(th/2)|0> + e^{i varphi0} sin(th/2)|1>``
    with ``th(t) = theta0 + omega0 t``, and its analytic derivative.

    Like every built-in path closure, both map a time array to ``(n, 2)``
    rows (a single time to one row) with the operations of a one-sample
    evaluation in the same order, so that rows match elementwise calls bit
    for bit.
    """
    phase = np.exp(1j * varphi0)

    def m(t):
        th = theta0 + omega0 * t
        return np.stack([np.cos(0.5 * th), phase * np.sin(0.5 * th)], axis=-1)

    def m_dot(t):
        th = theta0 + omega0 * t
        return 0.5 * omega0 * np.stack(
            [-np.sin(0.5 * th), phase * np.cos(0.5 * th)], axis=-1
        )

    return m, m_dot


def _build_example1(config: ScenarioConfig, p: dict):
    omega0, varphi0, theta0 = p["omega0"], p["varphi0"], p["theta0"]
    h = np.array([-0.5 * omega0 * np.sin(varphi0),
                  0.5 * omega0 * np.cos(varphi0), 0.0])
    field = FieldSpec(h0=0.0, h=h, t_span=config.t_span)
    m, _ = _polar_path(omega0, theta0, varphi0)
    return field, m(config.t_span[0])


def _build_example2(config: ScenarioConfig, p: dict):
    omega0, nu0 = p["omega0"], p["nu0"]
    varphi0, theta0, phi0 = p["varphi0"], p["theta0"], p["phi0"]
    m, m_dot = _polar_path(omega0, theta0, varphi0)
    fam = UzdinFamily(
        m_state=m,
        m_dot=m_dot,
        phase_dot=lambda t: np.full(np.shape(t), nu0),
        t_span=config.t_span,
    )
    field = uzdin_suboptimal(fam, "trace_nonzero")
    t0 = config.t_span[0]
    psi0 = np.exp(-1j * (phi0 + nu0 * t0)) * m(t0)
    return field, psi0


def _build_example3(config: ScenarioConfig, p: dict):
    gamma = p["gamma"]
    field = FieldSpec(h0=0.0, h=np.array([0.0, 0.0, gamma]), t_span=config.t_span)
    psi0 = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)
    return field, psi0


def _build_example4(config: ScenarioConfig, p: dict):
    gamma = p["gamma"]
    root3 = np.sqrt(3.0)

    def m(t):
        return np.stack([0.5 * root3 * np.exp(-0.5j * gamma * t),
                         0.5 * np.exp(1.5j * gamma * t)], axis=-1)

    def m_dot(t):
        return np.stack([-0.25j * gamma * root3 * np.exp(-0.5j * gamma * t),
                         0.75j * gamma * np.exp(1.5j * gamma * t)], axis=-1)

    fam = UzdinFamily(m_state=m, m_dot=m_dot, t_span=config.t_span)
    field = uzdin_optimal(fam)
    return field, m(config.t_span[0])


def _check_family_domain(theta_ab: float, E: float) -> None:
    """:class:`ConfigError` unless the stationary family admits theta_ab and E."""
    if not TOL_DEG <= theta_ab <= np.pi - TOL_DEG:
        raise ConfigError(f"theta_ab must lie in [{TOL_DEG:g}, pi - {TOL_DEG:g}], "
                          f"got {theta_ab!r}")
    if E <= 0.0:
        raise ConfigError("energy scale must be positive")


def _build_suboptimal_family(config: ScenarioConfig, p: dict):
    if not 0.0 < p["alpha"] < np.pi:
        raise ConfigError(f"alpha must lie in (0, pi), got {p['alpha']!r}")
    _check_family_domain(p["theta_ab"], p["E"])
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([np.sin(p["theta_ab"]), 0.0, np.cos(p["theta_ab"])])
    family = SuboptimalStationary(alpha=p["alpha"], a_hat=a, b_hat=b, E=p["E"])
    field = suboptimal_hamiltonian(family)
    return field, state_from_bloch(a)


@_quiet_fp  # an overflowing psi0 norm is inf, far from 1; no field runs here
def _build_custom(config: ScenarioConfig, p: dict):
    spec = config.field
    if "times" in spec:
        times = _finite_array(spec["times"], "field 'times'")
        h0_tab = _finite_array(spec.get("h0", np.zeros_like(times)), "field 'h0'")
        h_tab = _finite_array(spec.get("h"), "field 'h'")
        if h_tab.shape != (times.shape[0], 3) or h0_tab.shape != times.shape:
            raise ConfigError("field table shapes do not line up with 'times'")
        if times.shape[0] < 2 or np.any(times[1:] <= times[:-1]):
            raise ConfigError("'times' must be strictly increasing, length >= 2")
        # np.interp's slopes are rates, which scale as h^2: in the time unit 2^e of
        # the table's span (e clipped so that 2^-e is a normal double) they are of
        # the size of h, and keep their bits
        e = np.clip(np.frexp(0.5 * times[-1] - 0.5 * times[0])[1], -1000, 1000)
        knots = np.ldexp(times, -e)

        @_quiet_fp  # a time far beyond the knots is inf, which np.interp reads as such
        def table(t):  # linear between the knots, constant beyond them
            t = np.ldexp(t, -e)
            h = np.stack([np.interp(t, knots, col) for col in h_tab.T], axis=-1)
            return np.interp(t, knots, h0_tab), h
        field = _ArrayField(table, config.t_span)
    else:
        if "h" not in spec:
            raise ConfigError("custom field needs 'h' (and optionally 'h0')")
        h_const = _finite_array(spec["h"], "field 'h'")
        if h_const.shape != (3,):
            raise ConfigError("custom field 'h' must be a 3-vector")
        field = FieldSpec(h0=_finite(spec.get("h0", 0.0), "field 'h0'"),
                          h=h_const, t_span=config.t_span)

    if config.psi0 is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
    elif isinstance(config.psi0, dict):
        bloch = _finite_array(config.psi0.get("bloch"), "psi0 'bloch'")
        try:
            psi0 = state_from_bloch(bloch)
        except BlochPathError as exc:
            raise ConfigError(f"psi0 'bloch': {exc}") from exc
    else:
        pairs = _finite_array(config.psi0, "psi0")
        if pairs.shape != (2, 2):
            raise ConfigError("psi0 must be [[re0, im0], [re1, im1]] or {'bloch': [...]}")
        psi0 = pairs[:, 0] + 1j * pairs[:, 1]
        norm = float(np.sqrt(_norm_sq(psi0)))
        if abs(norm - 1.0) > TOL_NORM0:
            raise ConfigError(f"psi0 has norm {norm!r}, expected 1")
    return field, psi0


_BUILDERS = {
    "example1": _build_example1,
    "example2": _build_example2,
    "example3": _build_example3,
    "example4": _build_example4,
    "suboptimal_family": _build_suboptimal_family,
    "custom": _build_custom,
}


def _build(config: ScenarioConfig):
    """:func:`build_scenario` plus the resolved parameters."""
    params = _resolve(config.scenario, config.parameters)
    field, psi0 = _BUILDERS[config.scenario](config, params)
    if config.n_steps is None:
        grid = TimeGrid.with_density(*field.t_span)
    else:
        grid = TimeGrid(*field.t_span, config.n_steps)
    return field, psi0, grid, params


def build_scenario(config: ScenarioConfig):
    """Resolve a config into ``(field, psi0, grid)``.

    The grid spans the field's ``t_span``: the family's own travel time
    ``[0, t_ab]`` for ``suboptimal_family``, ``config.t_span`` for every
    other scenario.
    """
    return _build(config)[:3]


@contextlib.contextmanager
def _output(name):
    """Turn an OS error on the output called ``name`` (a missing parent, a
    file where a directory belongs, or the reverse, or a closed pipe) into
    :class:`ConfigError` naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {str(name)!r}: {exc}") from exc


def _out_path(path) -> Path:
    """``path`` as a Path if a str or os.PathLike; ``open`` reads an int as an fd."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"output path must be a str or os.PathLike, got {path!r}")
    return Path(path)


def _csv_column(name, values) -> np.ndarray:
    """``values`` as a 1-D array of numbers (numpy kind ``b``, ``i``, ``u``
    or ``f``); any other array, strings among them, is a :class:`ShapeError`
    or :class:`ConfigError` naming the column, as is a name that is not a
    string."""
    if not isinstance(name, str):
        raise ConfigError(f"CSV column name {name!r} is not a string")
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise ShapeError(f"CSV column {name!r} is not 1-D: {exc}") from None
    if arr.ndim != 1:
        raise ShapeError(f"CSV column {name!r} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ConfigError(f"CSV column {name!r} must hold numbers, "
                          f"got dtype {arr.dtype}")
    return arr


def write_csv(path, columns: dict) -> None:
    """Write named columns of numbers as RFC 4180 CSV, byte for byte as
    ``csv.writer`` with each number given as ``'%.15g'``.

    ``path`` is a file path, written as UTF-8 bytes, or an open text
    stream, which is left open.  Columns that are not 1-D arrays of
    numbers, or differ in length, raise :class:`ShapeError` or
    :class:`ConfigError` before anything is written.
    """
    stream = hasattr(path, "write")
    arrays = [_csv_column(name, values) for name, values in columns.items()]
    lengths = {name: len(a) for name, a in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        raise ShapeError(f"CSV columns differ in length: {lengths}")
    text = io.StringIO()
    try:  # csv.writer refuses a NUL before Python 3.11
        csv.writer(text).writerow(columns)
        header = text.getvalue().encode("utf-8", "surrogatepass" if stream else "strict")
    except (csv.Error, UnicodeEncodeError) as exc:
        raise ConfigError(f"CSV column names {list(columns)!r} cannot be written: "
                          f"{exc}") from None
    # a stream is named by its ``name``, such as ``'<stdout>'``
    with _output(getattr(path, "name", path) if stream else path), \
            (contextlib.nullcontext(path) if stream else open(_out_path(path), "wb")) as fh:
        write = ((lambda data: fh.write(data.decode("utf-8", "surrogatepass")))
                 if stream else fh.write)
        write(header)
        for page in csv_rows(arrays):
            write(page)


def write_json(path, payload: dict) -> None:
    import json  # here, so that the commands without JSON files skip it

    with _output(path), open(_out_path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_EXAMPLE2_NOTE = (
    "eta_se_bar follows the closed form thetadot/(phidot + sqrt(phidot^2 + "
    "thetadot^2)) = 0.904988 for omega0 = 1, nu0 = 0.1 (constant in time); "
    "a tabulated value of ~0.87 for this configuration corresponds to "
    "nu0 ~= 0.14, not 0.1."
)


def run_report(config: ScenarioConfig, out_dir=".") -> ReportRow:
    """Run a scenario end to end and emit its artifact files.

    Writes ``<scenario>_trajectory.csv`` and ``<scenario>_report.json``
    into ``out_dir``, created only then (subject to ``config.outputs``; with
    none, ``out_dir`` is not read and no directory is touched), and returns
    the summary row.
    """
    out = _out_path(out_dir) if config.outputs else None
    field, psi0, grid, params = _build(config)
    traj = schrodinger_evolve(field, psi0, grid)
    report = efficiency_report(traj)
    row = ReportRow(
        scenario=config.scenario,
        eta_ge_bar=report.eta_ge_bar,
        eta_se_bar=report.eta_se_bar,
        eta_he=report.eta_he,
        classification=report.classification.value,
    )

    outputs = set(config.outputs)
    if outputs:
        with _output(out):
            out.mkdir(parents=True, exist_ok=True)

    if "trajectory" in outputs:
        columns = {
            "t": traj.times,
            "a_x": traj.bloch[:, 0],
            "a_y": traj.bloch[:, 1],
            "a_z": traj.bloch[:, 2],
            "delta_e": traj.delta_e,
            "s": traj.s_accum,
            "s0": traj.s0,
        }
        if "efficiency" in outputs:
            columns["eta_ge"] = report.eta_ge_t
            columns["eta_se"] = report.eta_se_t
        if "curvature" in outputs:
            columns["kappa_bloch"] = curvature_bloch_profile(traj)
        write_csv(out / f"{config.scenario}_trajectory.csv", columns)

    if "report" in outputs:
        payload = {
            "scenario": config.scenario,
            "parameters": params,
            "t_span": [grid.t_start, grid.t_end],
            "n_steps": grid.n_steps,
            "eta_ge_bar": report.eta_ge_bar,
            "eta_se_bar": report.eta_se_bar,
            "eta_he": report.eta_he,
            "classification": report.classification.value,
            "mean_length_loss": report.mean_length_loss,
            "mean_energy_loss": report.mean_energy_loss,
            "s_total": report.s_total,
            "s0_total": report.s0_total,
            "notes": [_EXAMPLE2_NOTE] if config.scenario == "example2" else [],
        }
        write_json(out / f"{config.scenario}_report.json", payload)
    return row


def table_rows(out_dir=None, n_steps: Optional[int] = None) -> list[ReportRow]:
    """Run all four built-in scenarios over [0, 1] with default parameters.

    With ``out_dir`` given, per-scenario artifacts and a combined
    ``table2.csv`` are written there.
    """
    written = out_dir is not None
    rows = [run_report(ScenarioConfig(scenario=name, t_span=(0.0, 1.0), n_steps=n_steps,
                                      outputs=ALL_OUTPUTS if written else ()), out_dir)
            for name in SCENARIOS[:4]]
    if written:
        path = Path(out_dir) / "table2.csv"
        with _output(path), open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ReportRow._fields)
            writer.writerows([v if isinstance(v, str) else "%.15g" % v for v in row]
                             for row in rows)
    return rows


#: the largest magnitude whose 15-digit CSV form reads back as a finite
#: float: ``'%.15g'`` rounds the doubles above it to 1.79769313486232e+308
_CSV_MAX = 1.797693134862315e308


def _finite_columns(columns: dict) -> dict:
    """``columns`` itself; :class:`NumericalError` if an entry is not
    finite, or would not be once written with 15 significant digits."""
    for name, values in columns.items():
        if not np.all(np.abs(values) <= _CSV_MAX):
            raise NumericalError(f"sweep column {name!r} is not finite")
    return columns


@_quiet_fp  # an overflowing column is caught by _finite_columns
def sweep_alpha(theta_ab: float, n_points: int, E: float = 1.0) -> dict:
    """Closed-form sweep of the stationary family over ``alpha``.

    Returns columns ``alpha, s, t_ab, delta_e, eta_ge, eta_se`` on a uniform
    alpha grid over [0, pi] with the two endpoints nudged inside by 1e-6
    (the family is defined on the open interval).  Both efficiencies pass
    the same check as a run's: one above ``1 + TOL_EXCESS`` raises
    :class:`NumericalError`.
    """
    n_points = _count(n_points, "alpha points", least=3)
    theta_ab = _finite(theta_ab, "theta_ab")
    E = _finite(E, "energy scale")
    _check_family_domain(theta_ab, E)
    alphas = np.linspace(0.0, np.pi, n_points)
    alphas[0] = ALPHA_EPS
    alphas[-1] = np.pi - ALPHA_EPS
    # s, t_ab and delta_e from one evaluation of the radius and the angle
    radius, phi = _orbit(alphas, theta_ab)
    s = radius * phi
    return _finite_columns({
        "alpha": alphas,
        "s": s,
        "t_ab": 0.5 * phi / E,  # as the family's: 2 E may overflow
        "delta_e": E * radius,
        "eta_ge": _unit_ratio(theta_ab / s),
        "eta_se": _unit_ratio(radius),
    })


def _phase_functions(profile: str, phi0: float, phidot0: float):
    if profile == "linear":
        return (lambda t: phi0 + phidot0 * t,
                lambda t: phidot0 * np.ones_like(t))
    if profile == "exp":
        return (lambda t: phi0 + np.expm1(phidot0 * t),
                lambda t: phidot0 * np.exp(phidot0 * t))
    if profile == "log":
        if phi0 <= 0.0:
            raise ConfigError("log profile needs phi0 > 0")
        return (lambda t: phi0 * np.log1p((phidot0 / phi0) * t),
                lambda t: phidot0 / (1.0 + (phidot0 / phi0) * t))
    raise ConfigError(f"unknown profile {profile!r}; expected log, linear, or exp")


@_quiet_fp  # an overflowing phase is a non-finite column
def sweep_phase_profiles(profile: str, phi0: float, phidot0: float,
                         omega0: float, t_end: float = 5.0,
                         n_points: int = 501) -> dict:
    """Speed efficiency over time for a phase-modulated constant-speed path.

    The driven path ``cos(omega0 t)|0> + sin(omega0 t)|1>`` has the constant amplitude
    speed ``c = |omega0|``, so any finite ``omega0`` is valid.  Both sub-optimal
    variants share the phase profile and ``r = hypot(|phi_dot|/2, c)``, so both are
    emitted: ``eta_se_trace_zero`` (the traceless drive, ``c / r``) and
    ``eta_se_trace_nonzero`` (trace-keeping, ``c / (r + |phi_dot|/2)``, never the larger).
    """
    n_points = _count(n_points, "time points")
    phi0 = _finite(phi0, "phi0")
    phidot0 = _finite(phidot0, "phidot0")
    omega0 = _finite(omega0, "omega0")
    t_end = _finite(t_end, "t_end")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    phase, phase_dot = _phase_functions(profile, phi0, phidot0)
    t = np.linspace(0.0, t_end, n_points)
    if profile == "log" and 1.0 + (phidot0 / phi0) * t_end <= 0.0:
        raise ConfigError("log profile leaves its domain before t_end")
    columns = _finite_columns({"t": t, "phi": phase(t), "phi_dot": phase_dot(t)})
    c, half, r = _radii(abs(omega0), columns["phi_dot"])
    columns["eta_se_trace_zero"] = _unit_ratio(c / r)
    columns["eta_se_trace_nonzero"] = _unit_ratio(c / (r + half))
    return columns
