"""Exact linear algebra layer: RREF canonicity, kernels, span arithmetic."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmmkit import exactq
from mmmkit import _rowred_py
from mmmkit.errors import DimensionMismatch
from mmmkit.exactq import (
    COMPILED_CORE,
    QMatrix,
    Subspace,
    kernel_basis,
    membership,
    rref,
    solve_in_span,
    stacked_kernels,
    subspace_equal,
    subspace_intersection,
    subspace_sum,
)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return QMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_examples():
    m, pivots = rref(QMatrix.from_rows([[1, 2], [2, 4]]))
    assert m == QMatrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)

    m, pivots = rref(QMatrix.from_rows([[0, 1], [1, 0]]))
    assert m == QMatrix.from_rows([[1, 0], [0, 1]])
    assert pivots == (0, 1)

    # fractional entries are fine; the result is normalized
    m, pivots = rref(QMatrix.from_rows([[Fraction(1, 2), Fraction(3, 2)]]))
    assert m == QMatrix.from_rows([[1, 3]])


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(71)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        r, pivots = rref(m)
        again, pivots2 = rref(r)
        assert again == r
        assert pivots2 == pivots
        assert subspace_equal(
            Subspace.from_vectors(cols, m.entries),
            Subspace.from_vectors(cols, r.entries),
        )


def test_kernel_example():
    ker = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert ker.dim == 1
    assert ker.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_raw_rows_agrees_with_qmatrix():
    rng = random.Random(72)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert kernel_basis(entries, cols) == kernel_basis(QMatrix.from_rows(entries, cols))
    with pytest.raises(DimensionMismatch):
        kernel_basis([[1, 2]])


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(73)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        _, pivots = rref(m)
        ker = kernel_basis(m)
        assert len(pivots) + ker.dim == cols
        for v in ker.basis:
            assert not any(m.mul_vector(v))
        # random combinations stay inside, and membership certifies them
        combo = [Fraction(0)] * cols
        for v in ker.basis:
            c = rng.randint(-3, 3)
            combo = [a + c * b for a, b in zip(combo, v)]
        assert ker.contains(combo)


def test_subspace_canonical_equality():
    # two spanning sets of the same plane produce identical objects
    a = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 2], [1, -1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert subspace_equal(a, b)
    with pytest.raises(DimensionMismatch):
        subspace_equal(a, Subspace.zero(2))


def test_subspace_sum_intersection_dimension_formula():
    rng = random.Random(74)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        b = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for v in i.basis:
            assert a.contains(v) and b.contains(v)
        for v in a.basis:
            assert s.contains(v)


def test_coordinates_roundtrip():
    s = Subspace.from_vectors(4, [[1, 2, 0, 0], [0, 0, 1, 3]])
    coords = s.coordinates([2, 4, -1, -3])
    assert coords == (Fraction(2), Fraction(-1))
    assert membership([1, 1, 1, 1], s) is None
    with pytest.raises(DimensionMismatch):
        s.coordinates([1, 2, 3])


def test_solve_in_span():
    vectors = [[1, 0, 1], [0, 1, 1]]
    assert solve_in_span(vectors, [2, 3, 5]) == (Fraction(2), Fraction(3))
    assert solve_in_span(vectors, [0, 0, 1]) is None
    assert solve_in_span([], [0, 0]) == ()
    assert solve_in_span([], [1, 0]) is None
    # dependent spanning vectors: free coefficients come back as zero
    coeffs = solve_in_span([[1, 1], [2, 2], [1, 0]], [3, 2])
    assert coeffs is not None
    assert coeffs[1] == 0
    combo = [sum(c * v[i] for c, v in zip(coeffs, [[1, 1], [2, 2], [1, 0]])) for i in range(2)]
    assert combo == [3, 2]


def test_solve_in_span_reconstructs_target():
    rng = random.Random(75)
    for _ in range(20):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        weights = [rng.randint(-3, 3) for _ in range(k)]
        target = [sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(n)]
        coeffs = solve_in_span(vectors, target)
        assert coeffs is not None
        rebuilt = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n)]
        assert rebuilt == [Fraction(t) for t in target]


def test_cores_agree():
    """The compiled row reducer and its pure-Python twin are interchangeable."""
    if COMPILED_CORE:
        from mmmkit import _rowred
        cores = [_rowred, _rowred_py]
    else:
        cores = [_rowred_py]
    rng = random.Random(76)
    for _ in range(30):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        results = [core.rref_int([list(r) for r in entries], cols) for core in cores]
        first = results[0]
        assert tuple(first[1]) == tuple(sorted(first[1]))
        for other in results[1:]:
            assert [list(r) for r in other[0]] == [list(r) for r in first[0]]
            assert tuple(other[1]) == tuple(first[1])


def test_pure_env_var_forces_fallback():
    script = (
        "from mmmkit.exactq import COMPILED_CORE, kernel_basis, QMatrix\n"
        "ker = kernel_basis(QMatrix.from_rows([[1, 2, 3], [0, 1, 1]]))\n"
        "print(COMPILED_CORE, ker.basis)\n"
    )
    env = dict(os.environ, MMMKIT_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    flag, _, basis = out.stdout.strip().partition(" ")
    assert flag == "False"
    here = kernel_basis(QMatrix.from_rows([[1, 2, 3], [0, 1, 1]]))
    assert basis == repr(here.basis)


@st.composite
def row_blocks(draw):
    """A width and a list of integer row blocks, some empty, with zero rows
    and rows repeated inside a block and across blocks."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    blocks = draw(st.lists(st.lists(row, max_size=4), max_size=5))
    earlier = []
    for block in blocks:
        if earlier and draw(st.booleans()):
            block.append(list(draw(st.sampled_from(earlier))))
        if draw(st.booleans()):
            block.insert(draw(st.integers(0, len(block))), [0] * ncols)
        earlier += block
    return ncols, blocks


@settings(deadline=None)
@given(row_blocks())
def test_stacked_kernels_equal_the_kernel_of_every_prefix(case):
    ncols, blocks = case
    kernels = stacked_kernels(blocks, ncols)
    assert len(kernels) == len(blocks)
    for i, kernel in enumerate(kernels):
        stacked = [row for block in blocks[: i + 1] for row in block]
        assert kernel == kernel_basis(stacked, ncols)
        rank = len(rref(QMatrix(len(stacked), ncols, stacked))[1])
        assert kernel.dim == ncols - rank
        for v in kernel.basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in stacked)


@st.composite
def fraction_rows(draw):
    """A width and a list of rational rows of that width."""
    ncols = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    return ncols, rows


@settings(deadline=None)
@given(fraction_rows())
def test_kernel_of_fraction_rows_equals_the_cleared_matrix(case):
    ncols, rows = case
    common = 1
    for row in rows:
        for e in row:
            common *= e.denominator
    cleared = [[int(e * common) for e in row] for row in rows]
    assert kernel_basis(rows, ncols) == kernel_basis(cleared, ncols)


def _unit(ncols, j):
    return [1 if i == j else 0 for i in range(ncols)]


def kernel_candidates(kernel, ncols):
    """Named candidates for the kernel: itself, a proper subspace, a proper
    superspace, a wrong space of the same dimension, zero and full."""
    named = {
        "true": kernel,
        "zero": Subspace.zero(ncols),
        "full": Subspace.full(ncols),
    }
    if kernel.dim:
        named["proper subspace"] = Subspace.from_vectors(ncols, kernel.basis[1:])
    outside = [j for j in range(ncols) if not kernel.contains(_unit(ncols, j))]
    if outside:
        vectors = list(kernel.basis) + [_unit(ncols, outside[0])]
        named["proper superspace"] = Subspace.from_vectors(ncols, vectors)
    if kernel.dim and outside:
        # Swap one basis vector for a vector outside the kernel.
        vectors = list(kernel.basis[1:]) + [_unit(ncols, outside[0])]
        named["wrong, same dimension"] = Subspace.from_vectors(ncols, vectors)
    return named


@st.composite
def sparse_rows(draw):
    """A width and integer rows of that width, mostly zeros, so that both the
    certificate's shortcut and its elimination are reached."""
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    return ncols, rows


@settings(deadline=None)
@given(sparse_rows())
def test_kernel_with_any_candidate_equals_the_kernel(case):
    ncols, rows = case
    expected = kernel_basis(rows, ncols)
    candidates = kernel_candidates(expected, ncols)
    for name, candidate in candidates.items():
        assert candidate.ambient_dim == ncols
        assert kernel_basis(rows, ncols, candidate) == expected, name
    if expected.dim and expected.dim < ncols:
        assert candidates["wrong, same dimension"].dim == expected.dim
        assert candidates["wrong, same dimension"] != expected
    with pytest.raises(DimensionMismatch):
        kernel_basis(rows, ncols, Subspace.zero(ncols + 1))


def test_a_certified_candidate_is_returned_as_it_is():
    rows = [[1, 1, 0], [0, 2, 2], [1, 3, 2]]
    kernel = kernel_basis(rows, 3)
    assert kernel.basis == ((1, -1, 1),)
    assert kernel_basis(rows, 3, kernel) is kernel
    assert kernel_basis(QMatrix.from_rows(rows), candidate=kernel) is kernel


def _exact_rank(rows, ncols):
    return len(rref(QMatrix(len(rows), ncols, rows))[1]) if rows else 0


@settings(deadline=None)
@given(sparse_rows(), st.sampled_from([2, 3, 5]))
def test_rank_mod_p_is_at_most_the_rank_over_q(case, p):
    ncols, rows = case
    supports = exactq._supports(rows, ncols)
    rank_p = exactq._rank_mod_p(supports, p=p)
    assert rank_p <= _exact_rank(rows, ncols)
    for target in range(1, ncols + 1):
        assert exactq._rank_mod_p(supports, target, p) == min(rank_p, target)


@settings(deadline=None)
@given(sparse_rows())
@example((2, [[1, 1], [1, 2]]))
def test_rank_mod_the_word_size_prime_is_the_rank_of_small_rows(case):
    # Entries of at most 3 in at most 7 columns keep every minor far below
    # 2^31 - 1 (Hadamard's bound), so no rank is lost mod that prime.
    ncols, rows = case
    supports = exactq._supports(rows, ncols)
    rank = _exact_rank(rows, ncols)
    assert exactq._rank_mod_p(supports) == rank
    for target in range(1, ncols + 1):
        assert exactq._rank_mod_p(supports, target) == min(rank, target)


P = exactq.PRIME


@pytest.mark.parametrize(
    "rows, ncols",
    [
        # The only 2x2 minor is P, so the rank is 2 over Q and 1 mod P.
        ([[P, 1], [0, 1]], 2),
        # Pivots that are multiples of P, behind sparser rows ending in the
        # same columns, so only the exact elimination reaches the rank.
        ([[2 * P, 0, 1], [0, 0, 1], [0, 3 * P, 1], [1, 1, 1]], 3),
        ([[P, 1, 0, 0], [0, 1, 0, 0], [0, P, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]], 4),
    ],
)
def test_a_rank_lost_mod_p_falls_back_to_the_exact_elimination(rows, ncols, monkeypatch):
    kernel = kernel_basis(rows, ncols)
    supports = exactq._supports(rows, ncols)
    assert exactq._rank_mod_p(supports) < _exact_rank(rows, ncols) == ncols - kernel.dim
    eliminations = []
    rref_int = exactq._core.rref_int

    def counting(block, width):
        eliminations.append(len(block))
        return rref_int(block, width)

    monkeypatch.setattr(exactq._core, "rref_int", counting)
    assert kernel_basis(rows, ncols, kernel) is kernel
    assert eliminations  # certified by the exact path, not mod p


@pytest.mark.parametrize(
    "rows, ncols, candidate",
    [
        # Annihilated, but one dimension short of the kernel span(e2, e3).
        ([[1, 0, 0]], 3, [[0, 1, 0]]),
        # Annihilated and short of the kernel span(e3); the rank is lost mod P.
        ([[P, 1, 0], [0, 1, 0]], 3, []),
        # Not annihilated: the rank count alone would accept it.
        ([[P, 1], [0, 1], [1, 0]], 2, [[1, 1]]),
    ],
)
def test_a_wrong_candidate_is_rejected(rows, ncols, candidate):
    expected = kernel_basis(rows, ncols)
    wrong = Subspace.from_vectors(ncols, candidate)
    assert wrong != expected
    assert kernel_basis(rows, ncols, wrong) == expected
