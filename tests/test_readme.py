"""The README's library quick start runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The first ``python`` block of the README."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


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
