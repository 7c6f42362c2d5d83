"""Exact linear algebra checked against sympy, an independent implementation.

sympy is a test-only tool: the module is skipped where it is not installed,
and mmmkit never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.exactq import Subspace, kernel_basis

sympy = pytest.importorskip("sympy")


@st.composite
def small_matrices(draw):
    """A width and up to six rational rows of that width, mostly integral."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    return ncols, rows


def _sympy_rows(rows):
    return [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in rows]


def _canonical(vectors):
    """sympy's RREF of the given vectors, zero rows dropped, as Fractions."""
    if not vectors:
        return ()
    reduced, pivots = sympy.Matrix(vectors).rref()
    return tuple(
        tuple(Fraction(int(e.p), int(e.q)) for e in reduced.row(i)) for i in range(len(pivots))
    )


@settings(deadline=None, max_examples=60)
@given(small_matrices())
def test_from_vectors_equals_sympy_rref(case):
    ncols, rows = case
    subspace = Subspace.from_vectors(ncols, rows)
    assert subspace.basis == _canonical(_sympy_rows(rows))
    if rows:
        assert subspace.pivots == sympy.Matrix(_sympy_rows(rows)).rref()[1]


@settings(deadline=None, max_examples=60)
@given(small_matrices())
def test_kernel_basis_equals_sympy_nullspace(case):
    ncols, rows = case
    kernel = kernel_basis(rows, ncols)
    if rows:
        null = [list(v) for v in sympy.Matrix(_sympy_rows(rows)).nullspace()]
    else:
        null = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    assert kernel.basis == _canonical(null)
