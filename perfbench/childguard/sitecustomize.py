"""Loaded at start-up by every child the benchmark runs (its directory is on
the child's ``PYTHONPATH``).  At exit it checks that the blochpath the child
ran is the one under the checkout's ``src/`` named by ``PERFBENCH_SRC``."""

import atexit
import os
import sys


def _check_blochpath_origin():
    module = sys.modules.get("blochpath")
    src = os.environ.get("PERFBENCH_SRC")
    if module is None or src is None:
        return
    path = os.path.realpath(module.__file__)
    if not path.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"perfbench guard: blochpath loaded from {path}\n")
        sys.stderr.flush()
        os._exit(97)


atexit.register(_check_blochpath_origin)
