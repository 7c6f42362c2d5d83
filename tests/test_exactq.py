"""Exact linear algebra layer: RREF canonicity, kernels, span arithmetic."""

import random
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmmkit import exactq
from mmmkit.errors import DimensionMismatch
from mmmkit.exactq import (
    SparseRow,
    Subspace,
    kernel_basis,
    solve_in_span,
    subspace_equal,
    subspace_intersection,
    subspace_sum,
)

from oracles import rref_dense


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_rref_examples():
    s = Subspace.from_vectors(2, [[1, 2], [2, 4]])
    assert s.basis == ((1, 2),)
    assert s.pivots == (0,)

    s = Subspace.from_vectors(2, [[0, 1], [1, 0]])
    assert s.basis == ((1, 0), (0, 1))
    assert s.pivots == (0, 1)

    # fractional entries are fine; the result is normalized
    s = Subspace.from_vectors(2, [[Fraction(1, 2), Fraction(3, 2)]])
    assert s.basis == ((1, 3),)


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(71)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        s = Subspace.from_vectors(cols, m)
        again = Subspace.from_vectors(cols, s.basis)
        assert again.basis == s.basis
        assert again.pivots == s.pivots
        assert all(s.contains(row) for row in m)
        assert all(solve_in_span(m, row) is not None for row in s.basis)


def test_kernel_example():
    ker = kernel_basis([[1, 1]], 2)
    assert ker.dim == 1
    assert ker.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_of_ragged_rows_names_both_lengths():
    # A long row used to lose its tail, a short one to raise IndexError.
    for rows, bad in ([[1, 2, 3]], 3), ([[1]], 1), ([[1, 2], [1]], 1):
        for candidate in (None, Subspace.zero(2)):
            with pytest.raises(DimensionMismatch, match=f"row length {bad} != 2 columns"):
                kernel_basis(rows, 2, candidate)


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(73)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        pivots = Subspace.from_vectors(cols, m).pivots
        ker = kernel_basis(m, cols)
        assert len(pivots) + ker.dim == cols
        for v in ker.basis:
            assert not any(sum(a * b for a, b in zip(row, v)) for row in m)
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
    assert s.coordinates([1, 1, 1, 1]) is None
    with pytest.raises(DimensionMismatch):
        s.coordinates([1, 2, 3])


@settings(deadline=None)
@given(st.data())
def test_coordinates_rebuild_the_vector_or_leave_the_span(data):
    """Coordinates c give back the vector as sum c_i basis_i; None means the
    vector raises the dimension by one.  The zero subspace has the empty
    coordinates of the zero vector only, and a vector of another length is
    refused."""
    ncols = data.draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    vectors = data.draw(st.lists(row, max_size=4))
    space = data.draw(
        st.sampled_from([Subspace.from_vectors(ncols, vectors), Subspace.zero(ncols)])
    )
    weights = data.draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
    inside = [sum(w * v[j] for w, v in zip(weights, vectors)) for j in range(ncols)]
    for probe in (inside, data.draw(row), [0] * ncols):
        coords = space.coordinates(probe)
        if coords is None:
            grown = Subspace.from_vectors(ncols, [*space.basis, probe])
            assert grown.dim == space.dim + 1
        else:
            assert len(coords) == space.dim
            rebuilt = [sum(c * b[j] for c, b in zip(coords, space.basis)) for j in range(ncols)]
            assert rebuilt == probe
        assert space.contains(probe) == (coords is not None)
    zero = Subspace.zero(ncols)
    assert zero.coordinates([0] * ncols) == ()
    assert zero.coordinates(inside) == (() if not any(inside) else None)
    for width in (ncols - 1, ncols + 1):
        with pytest.raises(DimensionMismatch, match=f"vector length {width} != ambient {ncols}"):
            space.coordinates([0] * width)


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


def _wrong_candidates(ncols, truth, before, block):
    """Subspaces other than ``truth``, the kernel of ``block`` stacked under
    rows whose kernel is ``before``: zero, the full space, ``before`` itself,
    ``truth`` with a vector dropped, added from ``before``, or both, and
    ``truth`` with a vector added that ``block`` annihilates but the rows
    before it do not."""
    outside = [v for v in before.basis if not truth.contains(v)]
    candidates = [before, Subspace.zero(ncols), Subspace.full(ncols)]
    unseen = [v for v in kernel_basis(block, ncols).basis if not before.contains(v)]
    if unseen:
        candidates.append(Subspace.from_vectors(ncols, list(truth.basis) + unseen[:1]))
    if truth.dim:
        candidates.append(Subspace.from_vectors(ncols, truth.basis[1:]))
    if outside:
        candidates.append(Subspace.from_vectors(ncols, list(truth.basis) + outside[:1]))
        if truth.dim:
            candidates.append(
                Subspace.from_vectors(ncols, list(truth.basis[1:]) + outside[:1])
            )
    return [c for c in candidates if c != truth]


def _prefix_kernels(blocks, ncols):
    """The kernel of each prefix of ``blocks``, each eliminated from scratch."""
    return [kernel_basis(rows, ncols) for rows in accumulate(blocks)]


@settings(deadline=None)
@given(row_blocks())
def test_kernel_basis_of_every_prefix_is_its_kernel_for_every_candidate(case):
    """The kernel of each prefix of a growing stack has the dimension its
    rank leaves and is annihilated by every row, and `kernel_basis` on that
    prefix gives it back for the true kernel as its candidate, returned as
    it is, and for every wrong one, inside the kernel before it or not."""
    ncols, blocks = case
    kernels = _prefix_kernels(blocks, ncols)
    for i, kernel in enumerate(kernels):
        stacked = [row for block in blocks[: i + 1] for row in block]
        rank = Subspace.from_vectors(ncols, stacked).dim
        assert kernel.dim == ncols - rank
        for v in kernel.basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in stacked)
        true = Subspace(kernel.ambient_dim, kernel.rows, kernel.pivots)
        assert kernel_basis(stacked, ncols, true) is true
        before = kernels[i - 1] if i else Subspace.full(ncols)
        for wrong in _wrong_candidates(ncols, kernel, before, blocks[i]):
            assert kernel_basis(stacked, ncols, wrong) == kernel


@settings(deadline=None)
@given(row_blocks())
def test_kernel_certificate_accepts_exactly_the_kernel_of_every_prefix(case):
    """Given the rows of each prefix as SparseRows that earlier prefixes
    have already certified their kernels with, and a candidate inside the
    kernel of the blocks before it or not, `kernel_basis` returns the
    candidate itself exactly when it is the kernel of the prefix: the rank
    is counted over Q, so the answer is exact both ways."""
    ncols, blocks = case
    kernels = _prefix_kernels(blocks, ncols)
    pairs = [[SparseRow(row) for row in block] for block in blocks]
    for i, block in enumerate(blocks):
        truth = kernels[i]
        before = kernels[i - 1] if i else Subspace.full(ncols)
        stacked = [row for earlier in pairs[: i + 1] for row in earlier]
        for candidate in [truth] + _wrong_candidates(ncols, truth, before, block):
            for j, kernel in enumerate(kernels[:i]):
                earlier = [row for rows in pairs[: j + 1] for row in rows]
                assert kernel_basis(earlier, ncols, kernel) is kernel
            certified = kernel_basis(stacked, ncols, candidate) is candidate
            assert certified == (candidate is truth)


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


#: the word-size prime 2^31 - 1: a rank counted modulo it can fall short
P = 2**31 - 1


@settings(deadline=None)
@given(sparse_rows())
@example((2, [[1, 1], [1, 1 + P]]))
@example((3, [[1, 0, 1], [1, P, 1], [0, 1, P]]))
@example((2, [[2, 0], [0, -3], [4, 6]]))
@example((3, [[6, 4, 2], [3, 0, -9], [0, 10, 4], [9, 4, -7]]))
def test_the_echelon_fed_every_row_reaches_exactly_the_rank(case):
    # The first example's only 2x2 minor is P, so modulo P its rank is 1;
    # the second's rank 3 falls to 2 modulo P.  The echelon counts over Q.
    ncols, rows = case
    pairs = exactq._sparse_pairs(rows, ncols)
    rank = Subspace.from_vectors(ncols, rows).dim
    assert exactq._echelon_reaches(pairs, rank)
    assert not exactq._echelon_reaches(pairs, rank + 1)


@pytest.mark.parametrize(
    "rows, ncols",
    [
        # Both rows start in column 0 and end in column 1, so neither count
        # certifies; the only 2x2 minor is P.
        ([[1, 1], [1, 1 + P]], 2),
        # Two first columns and one last column against rank 3: the second
        # row differs from the first by P e1.
        ([[1, 0, 1], [1, P, 1], [0, 1, P]], 3),
        # Two first columns and one last column against rank 4; the rows
        # differ in pairs by P e1 and P e2.
        ([[1, P, 0, 1], [1, 0, 0, 1], [0, 1, P, 1], [0, 1, 0, 1]], 4),
    ],
)
def test_ranks_a_word_size_prime_would_lose_certify_with_no_elimination(
    rows, ncols, monkeypatch
):
    """Each of these matrices loses rank modulo P, and its rows start and
    end in too few distinct columns, so only the echelon can certify the
    kernel; counting over Q it does, with no call to the elimination core."""
    kernel = kernel_basis(rows, ncols)
    target = ncols - kernel.dim
    pairs = exactq._sparse_pairs(rows, ncols)
    assert len({cols[0] for cols, _ in pairs}) < target
    assert len({cols[-1] for cols, _ in pairs}) < target
    eliminations = []
    rref_int = exactq._core.rref_int

    def counting(block, width):
        eliminations.append(len(block))
        return rref_int(block, width)

    monkeypatch.setattr(exactq._core, "rref_int", counting)
    assert kernel_basis(rows, ncols, kernel) is kernel
    assert eliminations == []


class _NoEchelon(Exception):
    pass


def _refuse_echelons(monkeypatch):
    def refused(rows, target):
        raise _NoEchelon

    monkeypatch.setattr(exactq, "_echelon_reaches", refused)


def test_rows_ending_in_distinct_columns_certify_without_an_echelon(monkeypatch):
    """Rows whose last nonzero columns are distinct are triangular, hence
    independent over Q, so they certify a candidate of the right dimension
    without any echelon, however large their entries.  Rows that start and
    end in too few distinct columns still need the echelon."""
    _refuse_echelons(monkeypatch)
    rows = [[P, 0, 0, 0], [1, P, 0, 0], [0, 1, 2 * P, 0], [3, 0, P, 0]]
    candidate = Subspace.from_vectors(4, [[0, 0, 0, 1]])
    assert kernel_basis(rows, 4, candidate) is candidate
    sparse = [SparseRow(row) for row in rows]
    assert kernel_basis(sparse, 4, candidate) is candidate
    with pytest.raises(_NoEchelon):
        kernel_basis(
            [[1, 1, 1, 0], [1, 0, 1, 0]],
            4,
            Subspace.from_vectors(4, [[1, 0, -1, 0], [0, 0, 0, 1]]),
        )


def test_rows_starting_in_distinct_columns_certify_without_an_echelon(monkeypatch):
    """Rows whose first nonzero columns are distinct are triangular too, so
    they certify a candidate of the right dimension without any echelon,
    though they all end in one column and their entries are large."""
    _refuse_echelons(monkeypatch)
    rows = [[P, 0, 0, 1], [0, 2 * P, 0, 1], [0, 0, P, 1]]
    candidate = Subspace.from_vectors(4, [[2, 1, 2, -2 * P]])
    assert kernel_basis(rows, 4) == candidate
    assert kernel_basis(rows, 4, candidate) is candidate
    sparse = [SparseRow(row) for row in rows]
    assert kernel_basis(sparse, 4, candidate) is candidate


@pytest.mark.parametrize(
    "rows, ncols, candidate",
    [
        # Annihilated, but one dimension short of the kernel span(e2, e3).
        ([[1, 0, 0]], 3, [[0, 1, 0]]),
        # Annihilated, but its rows have rank 2 against the 3 that the zero
        # candidate needs; they start in 2 columns and end in 1.
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


def _rank_by_fractions(rows):
    """Rank by textbook Fraction elimination, independent of the core."""
    rows = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """A width and integer rows of that width, with repeated and zero rows."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.append([2 * e for e in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return ncols, rows


@settings(deadline=None)
@given(integer_matrices(), st.data())
def test_rref_int_returns_the_canonical_primitive_rref(case, data):
    ncols, rows = case
    given_rows = [list(row) for row in rows]
    out, pivots = exactq._core.rref_int(rows, ncols)
    assert rows == given_rows  # the input is not modified
    assert len(out) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (row, p) in enumerate(zip(out, pivots)):
        assert len(row) == ncols
        assert row[p] > 0 and not any(row[:p])
        assert gcd(*row) == 1
        assert all(other[p] == 0 for j, other in enumerate(out) if j != i)
    # Same row space: every input row is the combination of the output rows
    # read off its pivot columns, and the output rank is the input rank.
    for row in rows:
        rebuilt = [Fraction(0)] * ncols
        for r, p in zip(out, pivots):
            rebuilt = [a + Fraction(row[p], r[p]) * b for a, b in zip(rebuilt, r)]
        assert rebuilt == row
    assert len(out) == _rank_by_fractions(rows)
    # Canonical: unchanged under row permutation and nonzero row scaling.
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(
        st.lists(st.integers(-5, 5).filter(bool), min_size=len(rows), max_size=len(rows))
    )
    moved = [[c * e for e in rows[i]] for c, i in zip(scales, order)]
    assert exactq._core.rref_int(moved, ncols) == (out, pivots)


@st.composite
def shaped_matrices(draw):
    """A width and integer rows of that width: square, tall or wide; dense,
    about 3 % nonzero, or of low rank as a thin matrix times a wide one;
    with entries up to 9 or up to 10^6 in size."""
    nrows, ncols = draw(
        st.sampled_from([(40, 40), (25, 20), (60, 12), (12, 60), (80, 60), (8, 8)])
    )
    bound = draw(st.sampled_from([9, 10**6]))
    shape = draw(st.sampled_from(["dense", "sparse", "low rank"]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entries(n, m, density):
        return [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(n)
        ]

    if shape == "low rank":
        rank = rng.randint(0, min(nrows, ncols) // 4)
        thin, wide = entries(nrows, rank, 1), entries(rank, ncols, 1)
        rows = [
            [sum(row[t] * wide[t][c] for t in range(rank)) for c in range(ncols)]
            for row in thin
        ]
    else:
        rows = entries(nrows, ncols, 1 if shape == "dense" else 0.03)
    return ncols, rows


@settings(deadline=None, max_examples=60)
@given(shaped_matrices())
@example((3, [[0, 0, 0], [0, 0, 0]]))
@example((3, []))
@example((0, [[], []]))
@example((2, [[1, 2], [3, 4], [5, 6], [-7, 8], [0, 0]]))
@example((3, [[0, 2, 4], [0, 0, 0], [0, -3, -6], [5, 0, 1]]))
def test_rref_int_equals_the_dense_elimination(case):
    """The sparse core returns the rows and pivots of the dense
    Gauss-Jordan elimination it replaced, entry by entry."""
    ncols, rows = case
    assert exactq._core.rref_int(rows, ncols) == rref_dense(rows, ncols)


@st.composite
def row_pairs(draw):
    """Two sparse integer rows, as ``{column: entry}`` dicts of nonzero
    entries, both nonzero at a column j."""
    entry = st.integers(-10**6, 10**6).filter(bool)
    small = st.integers(-9, 9).filter(bool)
    row = st.dictionaries(st.integers(0, 12), draw(st.sampled_from([entry, small])), max_size=8)
    r, pivot = draw(row), draw(row)
    j = draw(st.integers(0, 12))
    r[j], pivot[j] = draw(entry), draw(entry)
    return r, pivot, j


@settings(deadline=None)
@given(row_pairs())
@example(({0: 2, 1: 4}, {0: 3, 1: 6}, 0))
@example(({0: 6, 2: 4}, {0: 3, 1: 1}, 0))
def test_reduce_row_clears_its_column_by_a_positive_multiple_of_the_combination(case):
    """reduce_row(r, pivot, j) is zero at j and is a r - b pivot up to a
    positive scalar, where a and b are pivot[j] and r[j] over their gcd; it
    stores no zero entry, and when a is not 1 its content is 1."""
    r, pivot, j = case
    g = gcd(pivot[j], r[j])
    a, b = pivot[j] // g, r[j] // g
    combination = {k: a * r.get(k, 0) - b * pivot.get(k, 0) for k in {*r, *pivot}}
    combination = {k: c for k, c in combination.items() if c}
    out = exactq._core.reduce_row(dict(r), pivot, j)
    assert j not in out
    assert all(out.values())
    assert out.keys() == combination.keys()
    if out:
        k = next(iter(out))
        scale = Fraction(combination[k], out[k])
        assert scale > 0
        assert all(combination[k] == scale * c for k, c in out.items())
        if a != 1:
            assert gcd(*out.values()) == 1


@settings(deadline=None)
@given(integer_matrices(), st.data())
def test_subspace_rows_are_canonical_and_box_to_the_basis(case, data):
    ncols, rows = case
    spaces = [Subspace.from_vectors(ncols, rows), Subspace.full(ncols), Subspace.zero(ncols)]
    for s in spaces:
        assert len(s.rows) == len(s.pivots) == s.dim
        assert all(a < b for a, b in zip(s.pivots, s.pivots[1:]))
        for row, p in zip(s.rows, s.pivots):
            assert all(type(e) is int for e in row)
            assert row[p] > 0 and not any(row[:p]) and gcd(*row) == 1
        assert all(type(e) is Fraction for row in s.basis for e in row)
        assert s.basis == tuple(
            tuple(Fraction(e, row[p]) for e in row) for row, p in zip(s.rows, s.pivots)
        )
    # Equality and hashing read the integer rows and agree with the basis:
    # compare with the same space from rescaled Fraction vectors, and with
    # a space of random vectors.
    s = spaces[0]
    scales = data.draw(
        st.lists(st.integers(-4, 4).filter(bool), min_size=s.dim, max_size=s.dim)
    )
    same = Subspace.from_vectors(
        ncols, [[e * Fraction(1, c) for e in row] for c, row in zip(scales, s.basis)]
    )
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    other_rows = data.draw(st.lists(row, max_size=6))
    for t in [same, Subspace.from_vectors(ncols, other_rows)] + spaces:
        assert (s == t) == (s.basis == t.basis) == subspace_equal(s, t)
        if s == t:
            assert hash(s) == hash(t)
    assert s == same


@st.composite
def spanning_sets(draw):
    """A width, vectors of that width (ints or Fractions), and whether they
    peel, when the draw knows it: a triangular set (vector i is nonzero at
    its own column and zero at the columns of the vectors before it),
    shuffled, peels, and stops peeling once a zero vector, a repeat or a
    combination of two joins it; any other vectors may or may not."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    peels = None
    if draw(st.booleans()):
        own = draw(st.permutations(range(ncols)))[: draw(st.integers(0, ncols))]
        vectors = []
        for i, col in enumerate(own):
            v = draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for earlier in own[:i]:
                v[earlier] = 0
            v[col] = draw(entry.filter(bool))
            vectors.append(v)
        vectors = draw(st.permutations(vectors))
        spoil = draw(st.sampled_from(["none", "zero", "repeat", "combination"]))
        if spoil == "zero" or not vectors:
            vectors.append([0] * ncols)
        elif spoil == "repeat":
            vectors.append(list(draw(st.sampled_from(vectors))))
        elif spoil == "combination":
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            vectors.append([2 * x - 3 * y for x, y in zip(a, b)])
        peels = spoil == "none" and len(vectors) == len(own)
    else:
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        vectors = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        scales = draw(st.lists(st.integers(1, 4), min_size=len(vectors), max_size=len(vectors)))
        vectors = [[Fraction(e, c) for e in v] for c, v in zip(scales, vectors)]
    return ncols, vectors, peels


def _canonical_twin(ncols, vectors):
    """The span of ``vectors`` eliminated at once, through the trusted
    constructor."""
    cleared = [[int(e * lcm(*(Fraction(x).denominator for x in v))) for e in v] for v in vectors]
    return Subspace(ncols, *exactq._core.rref_int(cleared, ncols))


@settings(deadline=None)
@given(spanning_sets(), st.data())
def test_a_kept_subspace_reads_exactly_as_its_eliminated_twin(case, data):
    """Vectors that peel are kept and eliminated only when read; any others
    are eliminated at once.  Either way each read of a fresh subspace
    (rows, pivots, basis, dim, hash, equality, membership and coordinates)
    matches the twin eliminated at once, and a kept candidate gives the
    kernel routines the same kernel as its twin."""
    ncols, vectors, peels = case
    if peels is not None:
        assert exactq._peels(vectors, ncols) == peels
    kept = exactq._peels(vectors, ncols)
    twin = _canonical_twin(ncols, vectors)

    def fresh():
        return Subspace.from_vectors(ncols, vectors)

    assert (fresh()._rows is None) == kept
    assert fresh().dim == twin.dim
    assert fresh().rows == twin.rows
    assert fresh().pivots == twin.pivots
    assert fresh().basis == twin.basis
    assert hash(fresh()) == hash(twin)
    assert fresh() == twin and twin == fresh() and subspace_equal(fresh(), twin)
    entry = st.integers(-3, 3)
    weights = data.draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
    inside = [sum(w * v[j] for w, v in zip(weights, vectors)) for j in range(ncols)]
    anywhere = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
    for probe in (inside, anywhere):
        assert fresh().contains(probe) == twin.contains(probe)
        assert fresh().coordinates(probe) == twin.coordinates(probe)

    # Candidates: the drawn vectors, and the true kernel's rows with each
    # row plus the next, which still peel but are not its canonical rows.
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, max_size=5))
    kernel = kernel_basis(rows, ncols)
    shifted = [list(map(add, a, b)) for a, b in zip(kernel.rows, kernel.rows[1:])]
    shifted += kernel.rows[-1:]
    for spanning in (vectors, shifted):
        candidate = Subspace.from_vectors(ncols, spanning)
        twin = _canonical_twin(ncols, spanning)
        assert kernel_basis(rows, ncols, candidate=candidate).rows == kernel.rows
        assert kernel_basis(rows, ncols, candidate=twin).rows == kernel.rows
        pairs = exactq._sparse_pairs(rows, ncols)
        assert exactq.annihilates(pairs, candidate) == exactq.annihilates(pairs, twin)


def test_kernel_basis_checks_the_row_width_of_every_prefix():
    # A long row used to be cut to the width: the kernel of [[1, 2, 3]] in
    # two columns came back as that of [[1, 2]], spanned by (2, -1).
    for blocks, bad in ([[[1, 2, 3]]], 3), ([[[1, 0]], [[1]]], 1), ([[], [[0, 1], [1, 2, 3]]], 3):
        with pytest.raises(DimensionMismatch, match=f"row length {bad} != 2 columns"):
            _prefix_kernels(blocks, 2)
        rows = [row for block in blocks for row in block]
        with pytest.raises(DimensionMismatch, match=f"row length {bad} != 2 columns"):
            kernel_basis(rows, 2, Subspace.zero(2))


def test_a_candidate_outside_the_kernel_before_it_is_not_certified():
    # The full line used to come back for the second prefix, offered as its
    # candidate: its empty block annihilates anything, and only the block
    # before it tells that the kernel is zero.  A row that certified one
    # candidate is checked again against the next.
    zero, full = Subspace.zero(1), Subspace.full(1)
    assert _prefix_kernels([[[1]], []], 1) == [zero, zero]
    # The second prefix holds the first block's row and nothing more.
    rows = [SparseRow([1])]
    assert kernel_basis(rows, 1, zero) is zero
    assert kernel_basis(rows, 1, full) == zero


def test_kernel_basis_refuses_a_candidate_of_another_ambient_space():
    rows = [[1, 0], [0, 1]]
    for ncols in (1, 3):
        message = rf"candidate lives in Q\^{ncols}, the rows in Q\^2"
        with pytest.raises(DimensionMismatch, match=message):
            kernel_basis(rows, 2, Subspace.zero(ncols))


def test_the_conversion_passes_sparse_rows_and_converts_the_rest():
    rows = [[0, 0, 0], [Fraction(1, 2), 0, Fraction(-1, 3)], (0, 4, 0)]
    converted = exactq._sparse_pairs(rows, 3)
    assert converted == [((0, 2), (3, 0, -2)), ((1,), (0, 4, 0))]
    assert not any(type(r) is SparseRow for r in converted)
    kept = [SparseRow(row) for row in rows]
    assert kept == [((), (0, 0, 0))] + converted
    again = exactq._sparse_pairs(kept + [[1, 1, 1]], 3)
    assert again[0] is kept[1] and again[1] is kept[2]
    assert again[2] == ((0, 1, 2), (1, 1, 1))
    with pytest.raises(DimensionMismatch, match="row length 3 != 2 columns"):
        exactq._sparse_pairs(kept, 2)


def test_a_sparse_row_is_made_from_its_dense_row_alone():
    """A SparseRow takes no support from its caller, so it cannot leave a
    nonzero column out or hold a Fraction, and it certifies no wrong
    candidate."""
    with pytest.raises(TypeError):
        SparseRow((0,), (1, 1))
    r = SparseRow([Fraction(1, 2), Fraction(-1, 2)])
    assert (r.cols, r.row) == ((0, 1), (1, -1))
    truth = kernel_basis([[1, -1]], 2)
    for wrong in (Subspace.full(2), Subspace.from_vectors(2, [[1, 0]])):
        assert kernel_basis([r], 2, candidate=wrong) == truth


def _checked_rows(monkeypatch):
    """Record the rows each annihilation check multiplies out: a list that
    gains ``(candidate, row)`` for every `SparseRow` not yet in the
    candidate's memo when the check starts."""
    checked = []
    annihilates = exactq.annihilates

    def recording(rows, subspace):
        checked.extend((subspace, r) for r in rows if id(r) not in subspace._annihilated)
        return annihilates(rows, subspace)

    monkeypatch.setattr(exactq, "annihilates", recording)
    return checked


def test_a_certified_candidate_still_checks_a_new_row(monkeypatch):
    """Once rows certify K, a call with one more row checks that row alone
    against K, and returns the true kernel when it does not annihilate K;
    an equal but distinct Subspace checks every row itself."""
    ncols = 4
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 2, 1, 0]]
    bad = [0, 0, 1, 1]
    kernel = kernel_basis(rows, ncols)
    truth = kernel_basis(rows + [bad], ncols)
    assert truth != kernel
    pairs = [SparseRow(row) for row in rows]
    extra = [SparseRow(bad)]
    checked = _checked_rows(monkeypatch)

    assert kernel_basis(pairs, ncols, candidate=kernel) is kernel
    assert [r for _, r in checked] == pairs
    checked.clear()
    assert kernel_basis(pairs, ncols, candidate=kernel) is kernel
    assert checked == []
    assert kernel_basis(pairs + extra, ncols, candidate=kernel) == truth
    assert [r for _, r in checked] == extra
    # Dense rows are converted afresh on every call, so all are checked,
    # and none is kept.
    checked.clear()
    assert kernel_basis(rows + [bad], ncols, candidate=kernel) == truth
    assert len(checked) == 4

    twin = Subspace(kernel.ambient_dim, kernel.rows, kernel.pivots)
    assert twin == kernel and twin is not kernel
    checked.clear()
    assert kernel_basis(pairs + extra, ncols, candidate=twin) == truth
    assert [(c is twin, r) for c, r in checked] == [(True, r) for r in pairs + extra]


def test_dense_rows_leave_the_memo_as_it_is(monkeypatch):
    """Dense rows become new pairs on every call, so repeated calls with one
    candidate check every row each time and keep none of them; only the
    SparseRows a caller hands over are kept.  Each round checks the 3 rows
    of each of two calls."""
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 2, 1, 0]]
    kernel = kernel_basis(rows, 4)
    checked = _checked_rows(monkeypatch)
    for _ in range(3):
        assert kernel_basis(rows, 4, candidate=kernel) is kernel
        assert kernel_basis(rows[2:] + rows[:2], 4, candidate=kernel) is kernel
    assert len(checked) == 3 * 6
    assert kernel._annihilated == {}
    kept = [SparseRow(row) for row in rows]
    for _ in range(3):
        assert kernel_basis(kept + rows, 4, candidate=kernel) is kernel
    assert sorted(map(id, kernel._annihilated.values())) == sorted(map(id, kept))


@settings(deadline=None)
@given(sparse_rows(), st.data())
def test_calls_that_share_candidates_give_the_kernels_of_fresh_calls(case, data):
    """Calls that share converted rows and candidate objects, right and
    wrong, in any order, each return the kernel a fresh call computes,
    also when a call adds rows to those a candidate was checked against
    before, whether or not that candidate lies inside their kernel."""
    ncols, rows = case
    pool = [SparseRow(row) for row in rows]
    subsets = st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    kernels = [kernel_basis(rows, ncols)]
    for _ in range(2):
        kernels.append(kernel_basis([r.row for r in data.draw(subsets)], ncols))
    candidates = [Subspace.zero(ncols), Subspace.full(ncols)]
    for kernel in kernels:
        candidates += kernel_candidates(kernel, ncols).values()
    for _ in range(8):
        block = data.draw(subsets)
        candidate = data.draw(st.sampled_from(candidates))
        expected = kernel_basis([list(r.row) for r in block], ncols)
        assert kernel_basis(block, ncols, candidate=candidate) == expected
        grown = block + data.draw(subsets)
        expected = kernel_basis([list(r.row) for r in grown], ncols)
        for again in (candidate, data.draw(st.sampled_from(candidates))):
            assert kernel_basis(grown, ncols, candidate=again) == expected
