"""The README's quick starts run as shown, and its scenario-parameter table
matches the scenarios."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from blochpath import ConfigError, ScenarioConfig
from blochpath.cli import EXIT_OK, main
from blochpath.scenarios import SCENARIOS, _build

REPO = Path(__file__).resolve().parents[1]


def readme() -> str:
    return (REPO / "README.md").read_text(encoding="utf-8")


def quick_start() -> str:
    """The first ``python`` block of the README."""
    return re.search(r"```python\n(.*?)```", readme(), re.S).group(1)


def test_quick_start_prints_the_values_in_its_comments(tmp_path):
    code = quick_start()
    # each `print(...)  # 0.983223...` line: a trailing "..." stands for
    # the digits after those shown, anything after the first word is prose
    expected = [re.search(r"#\s*(\S+)", line).group(1)
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def cli_quick_start() -> list[list[str]]:
    """The commands of the README's CLI quick start, as argv lists without
    the program name."""
    section = readme().split("\n## Quick start (CLI)\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "blochpath" for argv in commands if argv)
    return [argv[1:] for argv in commands if argv]


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = cli_quick_start()
    # one line per subcommand; a new line needs its own check below
    assert [argv[0] for argv in commands] == [
        "table2", "example", "sweep-alpha", "phase-profiles", "report"]
    config = re.search(r"`my_run.json` holds .*?`(\{.*?\})`", readme(), re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_run.json").write_text(config + "\n", encoding="utf-8")
    for argv in commands:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
    assert (tmp_path / "runs" / "example3_trajectory.csv").exists()
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "runs" / f"{json.loads(config)['scenario']}_report.json").exists()


def parameter_table() -> dict:
    """``{scenario: ({name: default or None}, {alias: name})}`` from the
    README's scenario-parameter table; ``None`` marks a required one."""
    section = readme().split("\n| scenario | parameters |\n| --- | --- |\n", 1)[1]
    table = {}
    for line in section.split("\n\n", 1)[0].splitlines():
        scenario, cell = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        params, aliases = {}, {}
        for item in ([] if cell == "none" else cell.split(", ")):
            name, default, alias = re.fullmatch(
                r"`(\w+)`(?: = (\S+)| \(required\))(?: \(alias `(\w+)`\))?",
                item).groups()
            params[name] = None if default is None else float(default)
            if alias:
                aliases[alias] = name
        table[scenario] = params, aliases
    return table


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_parameter_table_matches_the_scenario(scenario):
    table = parameter_table()
    assert list(table) == list(SCENARIOS)
    params, aliases = table[scenario]
    field = {"h": [0.0, 0.0, 1.0]} if scenario == "custom" else None
    required = {name: 1.0 for name, default in params.items() if default is None}

    def resolved(parameters):
        return _build(ScenarioConfig(scenario=scenario, parameters=parameters,
                                     field=field))[3]

    assert resolved(required) == {name: required.get(name, default)
                                  for name, default in params.items()}
    for name in required:
        with pytest.raises(ConfigError, match=f"missing parameter {name!r}"):
            resolved({k: v for k, v in required.items() if k != name})
    for alias, name in aliases.items():
        assert resolved({**required, alias: 0.25})[name] == 0.25
