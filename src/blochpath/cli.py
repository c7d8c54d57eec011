"""Command line interface.

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
config files, out-of-domain parameters), 3 for numerical failures detected
during a run, 4 for any other library error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _load
from .config import ScenarioConfig
from .errors import BlochPathError, ConfigError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochpath",
        description="Efficiency and curvature diagnostics for single-qubit "
                    "Hamiltonian evolutions on the Bloch sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="run one of the four built-in scenarios")
    ex.add_argument("number", type=int, choices=(1, 2, 3, 4),
                    help="scenario number")
    ex.add_argument("--t-end", type=float, default=1.0,
                    help="end of the time interval (default 1.0)")
    ex.add_argument("--steps", type=int, default=None,
                    help="RK4 steps (default 2000 per unit time)")
    ex.add_argument("--out", default=".", help="artifact directory")

    sa = sub.add_parser("sweep-alpha",
                        help="closed-form sweep of the stationary family")
    sa.add_argument("--theta-ab", type=float, required=True,
                    help="endpoint separation in (0, pi)")
    sa.add_argument("--points", type=int, required=True, help="alpha grid size")
    sa.add_argument("--energy", type=float, default=1.0, help="field strength E")
    sa.add_argument("--out", default=None,
                    help="CSV path (default: print to stdout)")

    pp = sub.add_parser("phase-profiles",
                        help="speed efficiency under a time-dependent phase")
    pp.add_argument("--profile", required=True, choices=("log", "linear", "exp"))
    pp.add_argument("--phi0", type=float, required=True)
    pp.add_argument("--phidot0", type=float, required=True)
    pp.add_argument("--omega0", type=float, required=True)
    pp.add_argument("--t-end", type=float, default=5.0)
    pp.add_argument("--points", type=int, default=501)
    pp.add_argument("--out", default=None,
                    help="CSV path (default: print to stdout)")

    rp = sub.add_parser("report", help="run a scenario from a JSON config")
    rp.add_argument("--config", required=True, help="JSON config file")
    rp.add_argument("--out", default=".", help="artifact directory")

    t2 = sub.add_parser("table2",
                        help="run all four scenarios and print the summary table")
    t2.add_argument("--steps", type=int, default=None)
    t2.add_argument("--out", default=None,
                    help="also write per-scenario artifacts here")
    return parser


def _print_row(row) -> None:
    print(f"{row.scenario}: eta_ge_bar={row.eta_ge_bar:.6f} "
          f"eta_se_bar={row.eta_se_bar:.6f} eta_he={row.eta_he:.6f} "
          f"{row.classification}")


def _config(args):
    """The checked config that ``example`` or ``report`` runs, else ``None``."""
    if args.command == "example":
        return ScenarioConfig(scenario=f"example{args.number}", t_span=(0.0, args.t_end),
                              n_steps=args.steps)
    if args.command == "report":
        import json  # here, so that the commands without JSON files skip it

        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        return ScenarioConfig.from_dict(data)


def _run(args, config, scenarios) -> None:
    if config is not None:
        _print_row(scenarios.run_report(config, out_dir=args.out))
    elif args.command == "sweep-alpha":
        table = scenarios.sweep_alpha(args.theta_ab, args.points, args.energy)
        scenarios.write_csv(sys.stdout if args.out is None else args.out, table)
    elif args.command == "phase-profiles":
        table = scenarios.sweep_phase_profiles(
            args.profile, args.phi0, args.phidot0, args.omega0,
            t_end=args.t_end, n_points=args.points,
        )
        scenarios.write_csv(sys.stdout if args.out is None else args.out, table)
    elif args.command == "table2":
        rows = scenarios.table_rows(out_dir=args.out, n_steps=args.steps)
        header = f"{'scenario':<12} {'eta_ge_bar':>10} {'eta_se_bar':>10} " \
                 f"{'eta_he':>10}  classification"
        print(header)
        for row in rows:
            print(f"{row.scenario:<12} {row.eta_ge_bar:>10.6f} "
                  f"{row.eta_se_bar:>10.6f} {row.eta_he:>10.6f}  "
                  f"{row.classification}")


def main(argv=None) -> int:
    return _main(argv, freeze=False)


def _main(argv, freeze: bool) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
        # numpy and the numeric modules load once the checks that need no array
        # have passed: on the first lookup in the package, or here to be frozen
        if freeze:
            _load(freeze)
        from . import scenarios
        import numpy as np
        # overflow and invalid values are caught by the explicit finiteness
        # checks and reported as typed errors; numpy's warnings would only
        # repeat them on stderr ahead of the message.  Every file is written
        # under a guard naming it, so an OS error that reaches the guard here
        # came from a print to stdout or its flush.
        with np.errstate(all="ignore"), scenarios._output("<stdout>"):
            _run(args, config, scenarios)
            sys.stdout.flush()
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BlochPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        try:
            sys.stdout.flush()
        except OSError:
            # stdout cannot take what it still buffers (its reader has gone,
            # or its disk is full): point it at devnull, so that the flush at
            # interpreter exit does not fail again and turn exit 2 into 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run() -> int:
    """Process entry of ``python -m blochpath`` and the ``blochpath`` script.

    A command that computes loads the numeric modules with the collector
    off.  All imported by then lives until exit, so it is frozen out of
    every later collection before the collector runs again: nothing young is
    left to walk, whatever the interpreter froze at start-up.  The command's
    own objects are collected as usual.  :func:`main` leaves its host
    process's collector alone."""
    return _main(None, freeze=True)


if __name__ == "__main__":
    sys.exit(run())
