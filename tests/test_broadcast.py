"""Batched calls of the broadcasting formulas equal their row-by-row calls.

Each formula has one implementation for single vectors and for stacks of
rows, so row ``k`` of a batched call must equal the call on row ``k`` bit
for bit, and a single vector must give a scalar back.  No product in the
package goes through BLAS, whose kernels round differently from one
another and from one row to a stack of rows.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochpath import (
    BlochPathError,
    curvature_bloch,
    energy_uncertainty,
    fubini_study_distance,
    pauli_compose,
    spectral_norm,
)
from blochpath.families import _orbit

reals = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
vectors = st.tuples(reals, reals, reals)
angles = st.floats(min_value=1e-6, max_value=np.pi - 1e-6)


@st.composite
def rows(draw):
    """``(a, h, h_dot, h0)``: unit Bloch vectors and field data, row-wise."""
    n = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(vectors, min_size=n, max_size=n)))
    norms = np.linalg.norm(a, axis=1)
    assume(np.all(norms > 1e-3))
    h = np.array(draw(st.lists(vectors, min_size=n, max_size=n)))
    h_dot = np.array(draw(st.lists(vectors, min_size=n, max_size=n)))
    h0 = np.array(draw(st.lists(reals, min_size=n, max_size=n)))
    return a / norms[:, None], h, h_dot, h0


def assert_batches_row_by_row(formula, *columns):
    """Row ``k`` of ``formula(*columns)`` equals ``formula`` on row ``k``; a
    row the formula rejects makes the batched call reject too."""
    singles = []
    for k in range(columns[0].shape[0]):
        try:
            singles.append(formula(*(c[k] for c in columns)))
        except BlochPathError:
            singles.append(None)
    if any(single is None for single in singles):
        with pytest.raises(BlochPathError):
            formula(*columns)
        return
    batch = formula(*columns)
    for k, single in enumerate(singles):
        assert np.isscalar(single)
        assert batch[k] == single


@given(rows())
@settings(max_examples=80, deadline=None)
def test_energy_uncertainty_batches_row_by_row(data):
    a, h, _, _ = data
    assert_batches_row_by_row(energy_uncertainty, a, h)


@given(rows())
@settings(max_examples=80, deadline=None)
def test_spectral_norm_batches_row_by_row(data):
    _, h, _, h0 = data
    assert_batches_row_by_row(spectral_norm, h0, h)


def test_float_edge_norms_batch_row_by_row():
    # a row scaled against overflow or underflow leaves the other rows as they
    # are alone; the last three rows keep their true norms, 1e-200, 5e-324 and 0
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    h = np.array([[0.0, 1e300, 1e300], [3.0, 4.0, 5e-324], [2.0**510, 1.0, 0.0], [7.0, 0.0, -2.0],
                  [0.0, 1e-200, 0.0], [5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]])
    true = np.array([1e-200, 5e-324, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_batches_row_by_row(energy_uncertainty, a, h)
        assert_batches_row_by_row(spectral_norm, np.array([1e300, -0.5, 1.0, 0.0, 0.0, 0.0, 0.0]), h)
        tiny = [energy_uncertainty(a, h)[4:], spectral_norm(0.0, h)[4:]]
    for got in tiny:
        assert np.all(np.abs(got - true) <= 4 * np.spacing(true))


def test_float_edge_fubini_study_distance_batches_row_by_row():
    # rows scaled against overflow or underflow leave the other rows as they are alone
    a = np.array([[1e160, 2e160, 0.0], [0.0, 0.6, 0.8], [1e-150, 2e-150, 0.0],
                  [2.0**250, 1.0, 0.0], [0.3, -0.4, 2.0**-250], [0.0, 0.0, 0.0]])
    for b in ([1.0, 0.0, 0.0], [1e-200, 0.0, 3e-200]):
        assert_batches_row_by_row(lambda rows: fubini_study_distance(rows, b), a)


@given(rows())
@settings(max_examples=80, deadline=None)
def test_curvature_batches_row_by_row(data):
    a, h, h_dot, _ = data
    assert_batches_row_by_row(curvature_bloch, a, h, h_dot)


@given(rows(), st.data())
@settings(max_examples=80, deadline=None)
def test_curvature_batches_stationary_rows_row_by_row(data, draw):
    # rows with dh/dt = 0, of either sign, take the first term alone on
    # their own; in a batch with moving rows the full three-term form runs
    a, h, h_dot, _ = data
    n = a.shape[0]
    still = np.array(draw.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    signs = np.array(draw.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                        min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    h_dot = np.where(still[:, None], signs, h_dot)
    assert_batches_row_by_row(curvature_bloch, a, h, h_dot)


@given(rows())
@settings(max_examples=40, deadline=None)
def test_pauli_compose_batches_row_by_row(data):
    _, h, _, h0 = data
    batch = pauli_compose(h0, h)
    assert batch.shape == (h.shape[0], 2, 2)
    for k in range(h.shape[0]):
        assert np.array_equal(batch[k], pauli_compose(h0[k], h[k]))


@given(alphas=st.lists(angles, min_size=1, max_size=8),
       theta=st.floats(min_value=1e-3, max_value=np.pi - 1e-3),
       energy=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_family_closed_forms_batch_point_by_point(alphas, theta, energy):
    # the orbit radius and rotation angle, and the arc length, travel time
    # and dispersion that sweep_alpha forms from them
    forms = (lambda r, phi: r, lambda r, phi: phi, lambda r, phi: r * phi,
             lambda r, phi: phi / (2.0 * energy), lambda r, phi: energy * r)
    for form in forms:
        assert_batches_row_by_row(lambda al: form(*_orbit(al, theta)), np.array(alphas))


#: calls that numpy hands to BLAS, or rounds as BLAS does
BLAS_CALLS = ("dot", "vdot", "inner", "matmul", "tensordot")


def _blas_products(path: Path) -> list[str]:
    """``path:line: what`` for each ``@``, each :data:`BLAS_CALLS` call and
    each ``linalg.norm`` call without ``axis=`` in the module at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif name == "norm" and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "linalg" \
                    and "axis" not in {k.arg for k in node.keywords}:
                found.append((node.lineno, "linalg.norm without axis"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in BLAS_CALLS:
            found.append((node.lineno, node.func.id))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_no_product_goes_through_blas():
    # every 3-vector product is core._dot's index-order sum and every norm
    # an elementwise one, so no artifact depends on the BLAS kernel
    package = Path(__file__).resolve().parents[1] / "src" / "blochpath"
    assert [hit for path in sorted(package.glob("*.py"))
            for hit in _blas_products(path)] == []
