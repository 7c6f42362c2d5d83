"""Exact linear algebra layer: RREF canonicity, kernels, span arithmetic."""

import random
from fractions import Fraction
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
    stacked_kernels,
    subspace_equal,
    subspace_intersection,
    subspace_sum,
)


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


@settings(deadline=None)
@given(row_blocks())
def test_stacked_kernels_equal_the_kernel_of_every_prefix(case):
    """Without candidates, with the true kernels as candidates, and with one
    wrong candidate, inside the kernel before it or not, the result is the
    kernel of every prefix; true candidates come back as they are."""
    ncols, blocks = case
    kernels = stacked_kernels(blocks, ncols)
    assert len(kernels) == len(blocks)
    for i, kernel in enumerate(kernels):
        stacked = [row for block in blocks[: i + 1] for row in block]
        assert kernel == kernel_basis(stacked, ncols)
        rank = Subspace.from_vectors(ncols, stacked).dim
        assert kernel.dim == ncols - rank
        for v in kernel.basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in stacked)
    true = [Subspace(k.ambient_dim, k.rows, k.pivots) for k in kernels]
    returned = stacked_kernels(blocks, ncols, true)
    assert all(a is b for a, b in zip(returned, true)) and len(returned) == len(true)
    for i, truth in enumerate(kernels):
        before = kernels[i - 1] if i else Subspace.full(ncols)
        for wrong in _wrong_candidates(ncols, truth, before, blocks[i]):
            candidates = kernels[:i] + [wrong] + kernels[i + 1 :]
            assert stacked_kernels(blocks, ncols, candidates) == kernels


@settings(deadline=None)
@given(row_blocks())
def test_kernel_certificate_accepts_exactly_the_kernel_of_every_prefix(case):
    """Fed the blocks one by one, each with a candidate, inside the kernel
    of the blocks before it or not, the certificate says yes exactly when
    the candidate is the kernel of the stack so far.  Entries of at most 3
    in at most 6 columns keep every minor below 2^31 - 1, so no rank is lost
    mod that prime and the answer is exact both ways."""
    ncols, blocks = case
    kernels = stacked_kernels(blocks, ncols)
    pairs = [exactq._sparse_pairs(block, ncols) for block in blocks]
    for i, block in enumerate(blocks):
        truth = kernels[i]
        before = kernels[i - 1] if i else Subspace.full(ncols)
        for candidate in [truth] + _wrong_candidates(ncols, truth, before, block):
            certificate = exactq.KernelCertificate(ncols)
            for earlier, kernel in zip(pairs[:i], kernels):
                assert certificate.extend(earlier, kernel)
            assert certificate.extend(pairs[i], candidate) == (candidate is truth)


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


P = exactq.PRIME


def _exact_rank(rows, ncols):
    return Subspace.from_vectors(ncols, rows).dim


def _rank_mod_p(rows, ncols, p=P):
    """The rank of a `RankModP` echelon fed every row, one at a time, made
    while ``exactq.PRIME`` is ``p``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(exactq, "PRIME", p)
        echelon = exactq.RankModP()
    for cols, row in exactq._sparse_pairs(rows, ncols):
        echelon.add(cols, row)
    return echelon.rank


@settings(deadline=None)
@given(sparse_rows(), st.sampled_from([2, 3, 5]))
def test_rank_mod_p_is_at_most_the_rank_over_q(case, p):
    ncols, rows = case
    assert _rank_mod_p(rows, ncols, p) <= _exact_rank(rows, ncols)


def _dense_rank_mod_p(rows, ncols, p):
    """Rank over F_p by plain Gaussian elimination on dense rows."""
    m = [[e % p for e in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][c], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inverse
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(deadline=None)
@given(sparse_rows(), st.sampled_from([2, 3, 5]))
@example((2, [[2, 1], [0, 1]]), 2)
@example((2, [[1, 2], [0, 1]]), 2)
def test_rank_mod_p_equals_the_dense_rank_over_f_p(case, p):
    # Rows whose last entry vanishes mod p must not join as they are.
    ncols, rows = case
    assert _rank_mod_p(rows, ncols, p) == _dense_rank_mod_p(rows, ncols, p)


@settings(deadline=None)
@given(sparse_rows())
@example((2, [[1, 1], [1, 2]]))
def test_rank_mod_the_word_size_prime_is_the_rank_of_small_rows(case):
    # Entries of at most 3 in at most 7 columns keep every minor far below
    # 2^31 - 1 (Hadamard's bound), so no rank is lost mod that prime.
    ncols, rows = case
    assert _rank_mod_p(rows, ncols) == _exact_rank(rows, ncols)


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
    assert _rank_mod_p(rows, ncols) < _exact_rank(rows, ncols) == ncols - kernel.dim
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
        assert stacked_kernels([rows], ncols, [candidate])[0].rows == kernel.rows
        assert kernel_basis(rows, ncols, candidate=twin).rows == kernel.rows


def test_stacked_kernels_check_the_row_width_of_every_block():
    # A long row used to be cut to the width: the kernel of [[1, 2, 3]] in
    # two columns came back as that of [[1, 2]], spanned by (2, -1).
    for blocks, bad in ([[[1, 2, 3]]], 3), ([[[1, 0]], [[1]]], 1), ([[], [[0, 1], [1, 2, 3]]], 3):
        for candidates in (None, [Subspace.zero(2)] * len(blocks)):
            with pytest.raises(DimensionMismatch, match=f"row length {bad} != 2 columns"):
                stacked_kernels(blocks, 2, candidates)


def test_a_candidate_outside_the_kernel_before_it_is_not_certified():
    # The full line used to come back for the second prefix: its empty
    # block annihilates anything, and only the block before it, which the
    # certificate checks against every later candidate, tells that the
    # kernel is zero.
    zero, full = Subspace.zero(1), Subspace.full(1)
    assert stacked_kernels([[[1]], []], 1, [zero, full]) == [zero, zero]
    certificate = exactq.KernelCertificate(1)
    assert certificate.extend(exactq._sparse_pairs([[1]], 1), zero)
    assert not certificate.extend([], full)


def test_stacked_kernels_refuse_a_candidate_count_other_than_the_block_count():
    # Two blocks with one candidate used to return one kernel.
    blocks = [[[1, 0]], [[0, 1]]]
    for count in (0, 1, 3):
        with pytest.raises(DimensionMismatch, match=f"candidate count {count} != block count 2"):
            stacked_kernels(blocks, 2, [Subspace.zero(2)] * count)
    with pytest.raises(DimensionMismatch, match=r"candidate lives in Q\^3, the rows in Q\^2"):
        stacked_kernels(blocks, 2, [Subspace.full(2), Subspace.zero(3)])


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
    annihilates = exactq._annihilates

    def recording(rows, subspace):
        checked.extend((subspace, r) for r in rows if id(r) not in subspace._annihilated)
        return annihilates(rows, subspace)

    monkeypatch.setattr(exactq, "_annihilates", recording)
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
    SparseRows a caller hands over are kept.  Each call checks 3 rows for
    `kernel_basis`, then 2 for the first block and all 3 of the stack for
    the second."""
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 2, 1, 0]]
    kernel = kernel_basis(rows, 4)
    checked = _checked_rows(monkeypatch)
    for _ in range(3):
        assert kernel_basis(rows, 4, candidate=kernel) is kernel
        assert stacked_kernels([rows[:2], rows[2:]], 4, [kernel, kernel]) == [kernel, kernel]
    assert len(checked) == 3 * 8
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
    whether or not a second block's candidate lies inside the first
    block's kernel."""
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
        blocks = [block, data.draw(subsets)]
        expected = stacked_kernels([[list(r.row) for r in b] for b in blocks], ncols)
        pair = [candidate, data.draw(st.sampled_from(candidates))]
        assert stacked_kernels(blocks, ncols, pair) == expected
