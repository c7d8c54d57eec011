"""Scenario configs, checked without numpy.

``ScenarioConfig``, the names it is checked against and each scenario's
parameters import nothing numeric, so a config the CLI refuses costs no
numpy import.  Values of the JSON types are read by the rule of
:func:`core._numbers` here; any other value goes through that function.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Sequence

from .errors import ConfigError

#: largest number of grid intervals (and of sweep points) accepted
MAX_STEPS = 10**7

ALL_OUTPUTS = ("trajectory", "efficiency", "curvature", "report")

#: each scenario's parameters with their defaults (``None``: required), and
#: the aliases it takes for them
PARAMETERS = {
    "example1": ({"omega0": 1.0, "varphi0": 0.0, "theta0": 0.0}, {}),
    "example2": ({"omega0": 1.0, "nu0": 0.1, "varphi0": 0.0, "theta0": 0.0, "phi0": 0.0},
                 {"Omega0": "nu0"}),
    "example3": ({"gamma": 1.0}, {}),
    "example4": ({"gamma": 1.0}, {}),
    "suboptimal_family": ({"alpha": None, "theta_ab": None, "E": 1.0}, {}),
    "custom": ({}, {}),
}

SCENARIOS = tuple(PARAMETERS)


def _shape(v, depth: int = 0):
    """The shape of ``np.asarray(v)`` if it reads the JSON value ``v`` as
    integers or reals and ``v`` holds no bool, else ``None``; :class:`TypeError`
    for a value of other types, or lists nested past 32, which numpy reads."""
    kind = type(v)
    if kind is float or kind is int and -2**63 <= v < 2**64:
        return ()
    if kind in (bool, int, str, dict) or v is None:
        return None
    if kind is not list or depth == 32:
        raise TypeError
    shapes = {_shape(x, depth + 1) for x in v}
    if None in shapes or len(shapes) > 1:  # not numbers, or ragged
        return None
    return (len(v), *(shapes.pop() if shapes else ()))


def _number(v, name: str):
    """``v`` as a float if it is one number, ``None`` if it is numbers of
    another shape, by the rule of :func:`core._numbers`; else its :class:`ConfigError`."""
    try:
        shape = _shape(v)
    except TypeError:
        from .core import _numbers
        arr = _numbers(v, name)
        return float(arr) if arr.shape == () else None
    if shape is None:
        raise ConfigError(f"{name} must be real numbers, got {reprlib.repr(v)}")
    return float(v) if shape == () else None


def _finite(value, what: str) -> float:
    """``value`` as a float; :class:`ConfigError` unless it is one finite number."""
    number = _number(value, what)
    if number is None or not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _count(value, what: str, least: int = 2) -> int:
    """``value`` as an ``int``; :class:`ConfigError` unless it is one
    integral number from ``least`` to ``MAX_STEPS``."""
    n = _number(value, what)
    # NaN and inf fail the range before int() could raise on them
    if n is None or not least <= n <= MAX_STEPS or n != int(n):
        raise ConfigError(f"{what} must be an integer from {least} to {MAX_STEPS}, "
                          f"got {value!r}")
    return int(n)


def _span(t_span) -> tuple:
    """``t_span`` unpacked into its two ends; :class:`ConfigError` unless it holds two."""
    try:
        start, end = t_span
    except (TypeError, ValueError):
        raise ConfigError(f"t_span must be two numbers [t_start, t_end], got {t_span!r}") from None
    return start, end


def _ordered(t_start, t_end) -> None:
    """:class:`ConfigError` unless ``t_start < t_end``."""
    if t_end <= t_start:
        raise ConfigError(f"t_end ({t_end}) must exceed t_start ({t_start})")


def _known_keys(mapping: dict, allowed, what: str) -> None:
    """:class:`ConfigError` naming the keys of ``mapping`` not ``allowed``."""
    bad = set(mapping) - set(allowed)
    if bad:
        raise ConfigError(f"unknown {what} keys {sorted(bad, key=str)}")


def _resolve(scenario: str, params: dict) -> dict:
    """The scenario's parameters as finite floats: ``params`` with aliases
    applied and defaults filled in; :class:`ConfigError` for an unknown,
    missing or doubled one."""
    spec, aliases = PARAMETERS[scenario]
    params = dict(params)
    for alias, target in aliases.items():
        if alias in params:
            if target in params:
                raise ConfigError(f"scenario {scenario!r} got both {alias!r} and {target!r}")
            params[target] = params.pop(alias)
    unknown = set(params) - set(spec)
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(unknown)} for scenario {scenario!r}")
    out = {}
    for name, default in spec.items():
        if name in params:
            out[name] = _finite(params[name], f"parameter {name!r}")
        elif default is None:
            raise ConfigError(f"scenario {scenario!r} is missing parameter {name!r}")
        else:
            out[name] = float(default)
    return out


class ScenarioConfig:
    """Everything needed to run one scenario.

    ``parameters`` holds named reals (see ``PARAMETERS``); ``field`` and
    ``psi0`` are read by the ``custom`` scenario only.  ``n_steps = None``
    means 2000 steps per unit time.  Construction raises :class:`ConfigError`
    for an unknown scenario; a malformed ``t_span``, ``n_steps`` or
    ``outputs``; a ``t_span`` that does not increase (``suboptimal_family``
    runs on its own ``[0, t_ab]`` and does not read it); ``efficiency`` or
    ``curvature`` outputs without the ``trajectory`` file they are columns
    of; parameters that are not a mapping, or are unknown, missing, aliased
    twice or not finite numbers; a ``field`` or ``psi0`` for another
    scenario, and a ``custom`` one without a ``field`` mapping.  The keys
    and arrays of ``field`` and ``psi0`` and the family's domain are checked
    when the scenario is built.  Either way no numerics have run yet.
    ``outputs`` is stored as a tuple, so an iterator is read once.
    """

    #: the attributes, in the order of the constructor's parameters
    __slots__ = ("scenario", "parameters", "t_span", "n_steps", "outputs", "field", "psi0")

    def __init__(self, scenario: str, parameters: dict | None = None,
                 t_span: tuple[float, float] = (0.0, 1.0), n_steps: int | None = None,
                 outputs: Sequence[str] = ALL_OUTPUTS, field: dict | None = None,
                 psi0: object = None):
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
        params = {} if parameters is None else parameters
        if not isinstance(params, dict):
            raise ConfigError(f"parameters must be a mapping, got {params!r}")
        start, end = _span(t_span)
        t_span = (_finite(start, "t_span start"), _finite(end, "t_span end"))
        if n_steps is not None:
            n_steps = _count(n_steps, "n_steps")
        try:
            if isinstance(outputs, str):
                raise TypeError
            names = tuple(outputs)
            bad = set(names) - set(ALL_OUTPUTS)
        except TypeError:
            raise ConfigError(f"outputs must be a list of names, got {outputs!r}") from None
        if bad:
            raise ConfigError(f"unknown outputs {sorted(bad)}")
        columns = {"efficiency", "curvature"} & set(names)
        if columns and "trajectory" not in names:
            raise ConfigError(f"outputs {sorted(columns)} are columns of the "
                              "'trajectory' file, which is not asked for")
        unread = [k for k, v in (("field", field), ("psi0", psi0)) if v is not None]
        if unread and scenario != "custom":
            raise ConfigError(f"scenario {scenario!r} does not read {unread}; "
                              "only 'custom' does")
        if scenario == "custom" and not isinstance(field, dict):
            raise ConfigError("custom scenario needs a 'field' mapping")
        _resolve(scenario, params)
        if scenario != "suboptimal_family":
            _ordered(*t_span)
        self.scenario, self.parameters, self.t_span = scenario, dict(params), t_span
        self.n_steps, self.outputs, self.field, self.psi0 = n_steps, names, field, psi0

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if "scenario" not in data:
            raise ConfigError("config is missing the 'scenario' key")
        _known_keys(data, cls.__slots__, "config")
        return cls(**data)
