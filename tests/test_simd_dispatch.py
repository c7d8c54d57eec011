"""The bit-identity tests under narrower SIMD, and the byte goldens under
other BLAS kernels.

numpy picks its vectorized loops at import from the CPU's features, and
``NPY_DISABLE_CPU_FEATURES`` turns dispatched features off for one process.
The closed form for equal field samples (``exp(-i t H)``) must stay within
rounding of the exponential, fields constant only on the first block must
keep the bits of the blocked RK4 scan, the fast path for ``dh/dt = 0``
(the first curvature term alone) those of the general path, the
spelled-out kernels (``core._norm_sq`` and ``core._cross``) those of the
numpy functions they replace, and the Pauli map (``core._pauli_re``) those
of its products in Python floats, whichever loops run; so their tests are
rerun in a child with AVX-512, and then also AVX2, turned off.

A feature the CPU lacks is already off, and numpy accepts a request to
disable it, so these children run on every x86-64 runner.  numpy refuses
to disable a feature of its build baseline, and on other architectures
the names are unknown (numpy warns and ignores them); so only the names
this numpy dispatches are passed on.

The library sums every 3-vector product in index order, so no artifact
byte depends on the BLAS kernel.  ``OPENBLAS_CORETYPE`` selects the kernel
of a ``DYNAMIC_ARCH`` OpenBLAS, such as the scipy-openblas of numpy's
wheels, and the byte-golden tests are rerun in a child under the Haswell
and the SandyBridge kernels.  On a build without ``DYNAMIC_ARCH``, or one
that does not know the name, the variable does nothing and the child runs
the default kernel.
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
BIT_TESTS = ["test_evolve.py::TestEqualSamples", "test_curvature.py::TestStationaryBits",
             "test_core.py::TestKernelBits"]
GOLDEN_TESTS = [
    "test_scenarios.py::TestGoldenFiles::test_sweep_alpha_csv_matches_golden_bytes",
    "test_scenarios.py::TestGoldenFiles::test_phased_example2_trajectory_matches_golden_bytes",
    "test_scenarios.py::TestGoldenFiles::test_example4_trajectory_matches_golden_bytes",
    "test_scenarios.py::TestGoldenFiles::test_tabulated_trajectory_matches_golden_bytes",
    "test_field_protocol.py::test_trace_zero_uzdin_drive_matches_golden_bytes",
    "test_field_protocol.py::test_curvature_profile_bytes_are_pinned",
]

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


def assert_child_passes(tests, features=(), **env_vars):
    """Run ``tests`` in a child with the ``features`` numpy dispatches turned
    off and ``env_vars`` set; every one must pass and none be skipped."""
    disabled = " ".join(name for name in features if name in umath.__cpu_dispatch__)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, disabled, *(str(TESTS / t) for t in tests)],
        cwd=TESTS, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" not in proc.stdout


@pytest.mark.parametrize("features", [AVX2, BASELINE], ids=["avx2", "baseline"])
def test_bit_identity_holds_without_wider_simd(features):
    assert_child_passes(BIT_TESTS, features)


@pytest.mark.parametrize("core", ["Haswell", "SandyBridge"])
def test_golden_bytes_hold_on_other_blas_kernels(core):
    assert_child_passes(GOLDEN_TESTS, OPENBLAS_CORETYPE=core)
