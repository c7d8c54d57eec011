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

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import FieldSpec, _as_times, _BatchedField, _numbers, state_from_bloch
from .csvtext import csv_rows, quote
from .curvature import curvature_bloch_profile
from .efficiency import (
    _unit_ratio,
    efficiency_report,
    speed_efficiency_tracenonzero,
    speed_efficiency_tracezero,
)
from .errors import BlochPathError, ConfigError, NumericalError, ShapeError
from .evolve import TOL_NORM0, TimeGrid, _count, schrodinger_evolve
from .families import (
    TOL_DEG,
    SuboptimalStationary,
    UzdinFamily,
    _orbit,
    suboptimal_hamiltonian,
    uzdin_optimal,
    uzdin_suboptimal,
)

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "ReportRow",
    "build_scenario",
    "run_report",
    "table_rows",
    "sweep_alpha",
    "sweep_phase_profiles",
    "write_csv",
    "write_json",
]

ALL_OUTPUTS = ("trajectory", "efficiency", "curvature", "report")

#: sweep grids stay this far away from the degenerate alpha boundary
ALPHA_EPS = 1e-6


def _finite(value, what: str, array: bool = False):
    """``value`` as a float, or with ``array`` as a float array; else :class:`ConfigError`."""
    arr = _numbers(value, what)
    if (arr.shape != () and not array) or not np.isfinite(arr).all():
        raise ConfigError(f"{what} must be {'finite numbers' if array else 'a finite number'}"
                          f", got {value!r}")
    return arr if array else float(arr)


def _known_keys(mapping: dict, allowed, what: str) -> None:
    """:class:`ConfigError` naming the keys of ``mapping`` not ``allowed``."""
    bad = set(mapping) - set(allowed)
    if bad:
        raise ConfigError(f"unknown {what} keys {sorted(bad, key=str)}")


@dataclass
class ScenarioConfig:
    """Everything needed to run one scenario.

    ``parameters`` holds named reals (which names depend on the scenario);
    ``field`` and ``psi0`` are read by the ``custom`` scenario only.
    ``n_steps = None`` means the default density of 2000 steps per unit
    time.  Malformed ``t_span``, ``n_steps``, ``parameters`` or ``outputs``,
    a ``field`` or ``psi0`` for another scenario, and ``efficiency`` or
    ``curvature`` outputs without the ``trajectory`` file they add columns
    to raise :class:`ConfigError` on construction; parameter values,
    ``field`` and ``psi0`` are checked when the scenario is built.  Either
    way no numerics have run yet.
    """

    scenario: str
    parameters: dict | None = None
    t_span: tuple[float, float] = (0.0, 1.0)
    n_steps: Optional[int] = None
    outputs: Sequence[str] = ALL_OUTPUTS
    field: dict | None = None
    psi0: object = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        params = {} if self.parameters is None else self.parameters
        if not isinstance(params, dict):
            raise ConfigError(f"parameters must be a mapping, got {params!r}")
        self.parameters = dict(params)
        try:
            start, end = self.t_span
        except (TypeError, ValueError):
            raise ConfigError(
                f"t_span must be two numbers [t_start, t_end], got {self.t_span!r}"
            ) from None
        self.t_span = (_finite(start, "t_span start"),
                       _finite(end, "t_span end"))
        if self.n_steps is not None:
            self.n_steps = _count(self.n_steps, "n_steps")
        try:
            if isinstance(self.outputs, str):
                raise TypeError
            bad = set(self.outputs) - set(ALL_OUTPUTS)
        except TypeError:
            raise ConfigError(
                f"outputs must be a list of names, got {self.outputs!r}"
            ) from None
        if bad:
            raise ConfigError(f"unknown outputs {sorted(bad)}")
        columns = {"efficiency", "curvature"} & set(self.outputs)
        if columns and "trajectory" not in self.outputs:
            raise ConfigError(f"outputs {sorted(columns)} are columns of the "
                              "'trajectory' file, which is not asked for")
        unread = [k for k in ("field", "psi0") if getattr(self, k) is not None]
        if unread and self.scenario != "custom":
            raise ConfigError(f"scenario {self.scenario!r} does not read {unread}; "
                              "only 'custom' does")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if "scenario" not in data:
            raise ConfigError("config is missing the 'scenario' key")
        _known_keys(data, [f.name for f in fields(cls)], "config")
        return cls(**data)


@dataclass(frozen=True)
class ReportRow:
    """One line of the summary table."""

    scenario: str
    eta_ge_bar: float
    eta_se_bar: float
    eta_he: float
    classification: str


def _resolve(params: dict, scenario: str, spec: dict, aliases: dict | None = None) -> dict:
    """Fill defaults, apply aliases, and reject unknown or missing keys."""
    params = dict(params)
    for alias, target in (aliases or {}).items():
        if alias in params:
            if target in params:
                raise ConfigError(
                    f"scenario {scenario!r} got both {alias!r} and {target!r}"
                )
            params[target] = params.pop(alias)
    unknown = set(params) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for scenario {scenario!r}"
        )
    out = {}
    for name, default in spec.items():
        if name in params:
            out[name] = _finite(params[name], f"parameter {name!r}")
        elif default is None:
            raise ConfigError(f"scenario {scenario!r} is missing parameter {name!r}")
        else:
            out[name] = float(default)
    return out


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


def _build_example1(config: ScenarioConfig):
    p = _resolve(config.parameters, "example1",
                 {"omega0": 1.0, "varphi0": 0.0, "theta0": 0.0})
    omega0, varphi0, theta0 = p["omega0"], p["varphi0"], p["theta0"]
    h = np.array([-0.5 * omega0 * np.sin(varphi0),
                  0.5 * omega0 * np.cos(varphi0), 0.0])
    field = FieldSpec(h0=0.0, h=h, t_span=config.t_span)
    m, _ = _polar_path(omega0, theta0, varphi0)
    return field, m(config.t_span[0]), p


def _build_example2(config: ScenarioConfig):
    p = _resolve(
        config.parameters, "example2",
        {"omega0": 1.0, "nu0": 0.1, "varphi0": 0.0, "theta0": 0.0, "phi0": 0.0},
        aliases={"Omega0": "nu0"},
    )
    omega0, nu0 = p["omega0"], p["nu0"]
    varphi0, theta0, phi0 = p["varphi0"], p["theta0"], p["phi0"]
    m, m_dot = _polar_path(omega0, theta0, varphi0)
    fam = UzdinFamily(
        m_state=m,
        m_dot=m_dot,
        phase_dot=lambda t: np.full(np.shape(t), nu0),
        t_span=config.t_span,
    )

    def h_dot(t):
        th = theta0 + omega0 * t
        rate = 0.5 * nu0 * omega0
        return np.stack([rate * np.cos(th) * np.cos(varphi0),
                         rate * np.cos(th) * np.sin(varphi0),
                         -rate * np.sin(th)], axis=-1)

    field = uzdin_suboptimal(fam, "trace_nonzero", h_dot=h_dot)
    t0 = config.t_span[0]
    psi0 = np.exp(-1j * (phi0 + nu0 * t0)) * m(t0)
    return field, psi0, p


def _build_example3(config: ScenarioConfig):
    p = _resolve(config.parameters, "example3", {"gamma": 1.0})
    gamma = p["gamma"]
    field = FieldSpec(h0=0.0, h=np.array([0.0, 0.0, gamma]), t_span=config.t_span)
    psi0 = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)
    return field, psi0, p


def _build_example4(config: ScenarioConfig):
    p = _resolve(config.parameters, "example4", {"gamma": 1.0})
    gamma = p["gamma"]
    root3 = np.sqrt(3.0)

    def m(t):
        return np.stack([0.5 * root3 * np.exp(-0.5j * gamma * t),
                         0.5 * np.exp(1.5j * gamma * t)], axis=-1)

    def m_dot(t):
        return np.stack([-0.25j * gamma * root3 * np.exp(-0.5j * gamma * t),
                         0.75j * gamma * np.exp(1.5j * gamma * t)], axis=-1)

    def h_dot(t):
        rate = 0.5 * root3 * gamma * gamma
        return np.stack([rate * np.sin(2.0 * gamma * t),
                         -rate * np.cos(2.0 * gamma * t), np.zeros(np.shape(t))],
                        axis=-1)

    fam = UzdinFamily(m_state=m, m_dot=m_dot, t_span=config.t_span)
    field = uzdin_optimal(fam, h_dot=h_dot)
    return field, m(config.t_span[0]), p


def _check_family_domain(theta_ab: float, E: float) -> None:
    """:class:`ConfigError` unless the stationary family admits theta_ab and E."""
    if not TOL_DEG <= theta_ab <= np.pi - TOL_DEG:
        raise ConfigError(f"theta_ab must lie in [{TOL_DEG:g}, pi - {TOL_DEG:g}], "
                          f"got {theta_ab!r}")
    if E <= 0.0:
        raise ConfigError("energy scale must be positive")


def _build_suboptimal_family(config: ScenarioConfig):
    p = _resolve(config.parameters, "suboptimal_family",
                 {"alpha": None, "theta_ab": None, "E": 1.0})
    if not 0.0 < p["alpha"] < np.pi:
        raise ConfigError(f"alpha must lie in (0, pi), got {p['alpha']!r}")
    _check_family_domain(p["theta_ab"], p["E"])
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([np.sin(p["theta_ab"]), 0.0, np.cos(p["theta_ab"])])
    family = SuboptimalStationary(alpha=p["alpha"], a_hat=a, b_hat=b, E=p["E"])
    field = suboptimal_hamiltonian(family)
    return field, state_from_bloch(a), p


@dataclass
class _TableField(_BatchedField):
    """Field linear between tabulated knots and constant beyond them.

    ``h0`` and ``h`` hold the table at ``knots``; each column is sampled
    with one ``np.interp`` over the whole time array.
    """

    knots: Optional[np.ndarray] = None

    def sample(self, times):
        times = _as_times(times)
        h = np.empty(times.shape + (3,))
        for i in range(3):
            h[:, i] = np.interp(times, self.knots, self.h[:, i])
        return np.interp(times, self.knots, self.h0), h


def _build_custom(config: ScenarioConfig):
    spec = config.field
    if not isinstance(spec, dict):
        raise ConfigError("custom scenario needs a 'field' mapping")
    _known_keys(spec, ("times", "h", "h0"), "field")
    if "times" in spec:
        times = _finite(spec["times"], "field 'times'", array=True)
        h0_tab = _finite(spec.get("h0", np.zeros_like(times)), "field 'h0'", array=True)
        h_tab = _finite(spec.get("h"), "field 'h'", array=True)
        if h_tab.shape != (times.shape[0], 3) or h0_tab.shape != times.shape:
            raise ConfigError("field table shapes do not line up with 'times'")
        if times.shape[0] < 2 or np.any(np.diff(times) <= 0):
            raise ConfigError("'times' must be strictly increasing, length >= 2")
        field = _TableField(h0=h0_tab, h=h_tab, t_span=config.t_span, knots=times)
    else:
        if "h" not in spec:
            raise ConfigError("custom field needs 'h' (and optionally 'h0')")
        h_const = _finite(spec["h"], "field 'h'", array=True)
        if h_const.shape != (3,):
            raise ConfigError("custom field 'h' must be a 3-vector")
        field = FieldSpec(h0=_finite(spec.get("h0", 0.0), "field 'h0'"),
                          h=h_const, t_span=config.t_span)

    if config.psi0 is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
    elif isinstance(config.psi0, dict):
        _known_keys(config.psi0, ("bloch",), "psi0")
        bloch = _finite(config.psi0.get("bloch"), "psi0 'bloch'", array=True)
        try:
            psi0 = state_from_bloch(bloch)
        except BlochPathError as exc:
            raise ConfigError(f"psi0 'bloch': {exc}") from exc
    else:
        pairs = _finite(config.psi0, "psi0", array=True)
        if pairs.shape != (2, 2):
            raise ConfigError("psi0 must be [[re0, im0], [re1, im1]] or {'bloch': [...]}")
        psi0 = pairs[:, 0] + 1j * pairs[:, 1]
        norm = float(np.sqrt(np.vdot(psi0, psi0).real))
        if abs(norm - 1.0) > TOL_NORM0:
            raise ConfigError(f"psi0 has norm {norm!r}, expected 1")
    return field, psi0, _resolve(config.parameters, "custom", {})


_BUILDERS = {
    "example1": _build_example1,
    "example2": _build_example2,
    "example3": _build_example3,
    "example4": _build_example4,
    "suboptimal_family": _build_suboptimal_family,
    "custom": _build_custom,
}

SCENARIOS = tuple(_BUILDERS)


def _build(config: ScenarioConfig):
    """:func:`build_scenario` plus the builder's resolved parameters."""
    field, psi0, params = _BUILDERS[config.scenario](config)
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


def _csv_column(name, values, path: bool) -> np.ndarray:
    """``values`` as a 1-D array of numbers or strings (numpy kind ``b``,
    ``i``, ``u``, ``f`` or ``U``); any other array is a :class:`ShapeError`
    or :class:`ConfigError` naming the column, as is a name that is not a
    string and, for a ``path``, a string holding a lone surrogate, which
    UTF-8 cannot encode."""
    if not isinstance(name, str):
        raise ConfigError(f"CSV column name {name!r} is not a string")
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise ShapeError(f"CSV column {name!r} is not 1-D: {exc}") from None
    if arr.ndim != 1:
        raise ShapeError(f"CSV column {name!r} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biufU":
        raise ConfigError(f"CSV column {name!r} must hold numbers or strings, "
                          f"got dtype {arr.dtype}")
    if path and arr.dtype.kind == "U" and _holds_surrogate(arr):
        raise ConfigError(f"CSV column {name!r} holds a lone surrogate, "
                          "which UTF-8 cannot encode")
    return arr


def _holds_surrogate(arr: np.ndarray) -> bool:
    """Whether a string array holds a code point 0xD800-0xDFFF: a UCS-4
    unit whose top bits read 0x1B in native byte order.  The units are read
    about 64 KiB at a time, so the check never holds a copy of the column."""
    step = max(1, (1 << 16) // arr.itemsize)
    native = arr.dtype.newbyteorder("=")
    return any((np.ascontiguousarray(arr[lo:lo + step], native).view(np.uint32)
                >> 11 == 0x1B).any() for lo in range(0, len(arr), step))


def write_csv(path, columns: dict) -> None:
    """Write named columns as RFC 4180 CSV, byte for byte as ``csv.writer``.

    Numbers get 15 significant digits, exactly as ``'%.15g'``; strings are
    quoted where they hold ``,``, ``"``, CR or LF, or are an empty lone
    cell.  ``path`` is a file path, written as UTF-8 bytes, or an open text
    stream, which is left open.  Columns that are not 1-D arrays of numbers
    or strings, or differ in length, raise :class:`ShapeError` or
    :class:`ConfigError` before anything is written.
    """
    stream = hasattr(path, "write")
    arrays = [_csv_column(name, values, not stream) for name, values in columns.items()]
    lengths = {name: len(a) for name, a in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        raise ShapeError(f"CSV columns differ in length: {lengths}")
    header = ",".join(quote(name, len(columns) == 1) for name in columns) + "\r\n"
    try:
        header = header.encode("utf-8", "surrogatepass" if stream else "strict")
    except UnicodeEncodeError:
        raise ConfigError(f"CSV column names {list(columns)!r} hold a lone "
                          "surrogate, which UTF-8 cannot encode") from None
    # a stream is named by its ``name``, such as ``'<stdout>'``
    with _output(getattr(path, "name", path) if stream else path), \
            (contextlib.nullcontext(path) if stream else open(path, "wb")) as fh:
        write = ((lambda data: fh.write(data.decode("utf-8", "surrogatepass")))
                 if stream else fh.write)
        write(header)
        for page in csv_rows(arrays):
            write(page)


def write_json(path, payload: dict) -> None:
    with _output(path), open(path, "w", encoding="utf-8") as fh:
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
    into ``out_dir`` (subject to ``config.outputs``) and returns the
    summary row.
    """
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

    out = Path(out_dir)
    with _output(out):
        out.mkdir(parents=True, exist_ok=True)
    outputs = set(config.outputs)

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
            columns["kappa_bloch"] = curvature_bloch_profile(traj, field)
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
    rows = []
    for name in SCENARIOS[:4]:
        config = ScenarioConfig(scenario=name, t_span=(0.0, 1.0), n_steps=n_steps)
        if out_dir is None:
            config.outputs = ()
            rows.append(run_report(config, out_dir="."))
        else:
            rows.append(run_report(config, out_dir=out_dir))
    if out_dir is not None:
        write_csv(Path(out_dir) / "table2.csv",
                  {f.name: [getattr(row, f.name) for row in rows]
                   for f in fields(ReportRow)})
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
    # arc length, travel time and dispersion from one evaluation of the
    # radius and the angle
    radius, phi = _orbit(alphas, theta_ab)
    s = radius * phi
    return _finite_columns({
        "alpha": alphas,
        "s": s,
        "t_ab": phi / (2.0 * E),
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


def sweep_phase_profiles(profile: str, phi0: float, phidot0: float,
                         omega0: float, t_end: float = 5.0,
                         n_points: int = 501) -> dict:
    """Speed efficiency over time for a phase-modulated constant-speed path.

    The driven path is ``cos(omega0 t)|0> + sin(omega0 t)|1>`` so the
    amplitude-speed term is constant, ``cdot_sq = omega0^2``.  Both
    sub-optimal variants are emitted since they share the phase profile:
    ``eta_se_trace_zero`` (the traceless drive) and ``eta_se_trace_nonzero``
    (the trace-keeping drive, always the smaller of the two).
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
    phi = phase(t)
    phidot = phase_dot(t)
    cdot_sq = omega0 * omega0
    return _finite_columns({
        "t": t,
        "phi": phi,
        "phi_dot": phidot,
        "eta_se_trace_zero": speed_efficiency_tracezero(cdot_sq, phidot),
        "eta_se_trace_nonzero": speed_efficiency_tracenonzero(cdot_sq, phidot),
    })
