"""The bit-identity tests of the stationary fast paths under narrower SIMD.

numpy picks its vectorized loops at import from the CPU's features, and
``NPY_DISABLE_CPU_FEATURES`` turns dispatched features off for one process.
The fast paths for equal field samples (one RK4 step matrix and its
doubled powers) and for ``dh/dt = 0`` (the first curvature term alone)
must give the bits of the general paths whichever loops run, so their
tests are rerun in a child with AVX-512, and then also AVX2, turned off.

A feature the CPU lacks is already off, and numpy accepts a request to
disable it, so these children run on every x86-64 runner.  numpy refuses
to disable a feature of its build baseline, and on other architectures
the names are unknown (numpy warns and ignores them); so only the names
this numpy dispatches are passed on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochpath

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

TESTS = Path(__file__).resolve().parent
PACKAGE_ROOT = Path(blochpath.__file__).resolve().parents[1]
BIT_TESTS = ["test_evolve.py::TestEqualSamples", "test_curvature.py::TestStationaryBits"]

AVX2 = ["AVX512_ICL", "AVX512_SPR", "X86_V4"]
BASELINE = [*AVX2, "X86_V3"]

CHILD = """
import sys
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
off = sys.argv[1].split()
assert not any(umath.__cpu_features__[name] for name in off), off
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("features", [AVX2, BASELINE], ids=["avx2", "baseline"])
def test_bit_identity_holds_without_wider_simd(features):
    disabled = " ".join(name for name in features if name in umath.__cpu_dispatch__)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, disabled, *(str(TESTS / t) for t in BIT_TESTS)],
        cwd=TESTS, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" not in proc.stdout
