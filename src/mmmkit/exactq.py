"""Exact rational linear algebra: RREF, kernels, canonical subspaces.

Everything is exact over the rationals.  Matrices are raw rows: lists of
ints or Fractions, all of one stated width.  Every exact elimination runs in
one core, ``_core.rref_int``, integer Gauss-Jordan elimination on Python
ints; this module clears denominators on the way in.

A subspace is known by its primitive integer RREF rows, as the core
returns them: row i is the i-th row of the rational reduced row echelon form
scaled to integer entries with content 1 and a positive pivot entry, and
rows are ordered by pivot column.  That scaling is unique, so the rows are a
canonical form: two subspaces are equal iff their rows are equal entrywise.
Pivot selection is deterministic (leftmost nonzero column, topmost
unprocessed row), so every route to the same subspace produces the same
rows.  The rows are not always stored, though.  `Subspace.from_vectors`
first runs an O(nnz) peeling test: it removes, again and again, a vector
that is the only nonzero one in some column.  A vector removed that way
takes no part in any dependency among those left, so when every vector
peels they are independent, and the subspace keeps them as they are, with
their count as its dimension.  Its rows and pivots are eliminated by the
same core on their first read, and its rational basis (pivot entries 1) is
boxed into Fractions on the first read of ``Subspace.basis``.  Vectors that
do not peel (a zero vector, a repeat, any other dependency, or simply no
column to peel at) are eliminated at once.  The annihilation check reads
whichever integer basis a subspace holds, and `subspace_equal` answers
without rows when both sides are one object, when their dimensions differ,
and when the dimension is 0 or the ambient one.

Kernels stay in the integers throughout.  Each kernel vector is built from
the primitive RREF rows with integer entries, scaled by the lcm of the pivot
entries it would divide by, and the vectors go straight into a second
integer elimination that yields the canonical rows.

`kernel_basis` takes an optional candidate K, any subspace of Q^ncols, and
returns it only when the rows certify it: (i) every row annihilates the
integer rows of K, checked exactly, so K lies in the kernel and the rank is
at most ncols - dim K, and (ii) some subset of the rows has rank at least
ncols - dim K.  Then the kernel contains K and has its dimension, so it is
K, and K's canonical rows are the ones elimination would produce.  Rows
with distinct first nonzero columns are triangular, and so are rows with
distinct last ones, hence independent over Q, so (ii) holds at once, with
no arithmetic, when the rows start in at least ncols - dim K distinct
columns or end in that many.  Otherwise (ii) is counted over Q in one
sparse integer echelon, `_echelon_reaches`, which stops as soon as the rank
is reached.  A row whose last nonzero column is new joins it without
reduction, so the sparsest row ending in each column goes first, then the
sparsest others.  The count is exact, so a candidate fails only when it is
not the kernel, and then costs the full elimination, never a wrong answer.

`kernel_basis` is the one kernel routine and the one certificate.  Both
near-primitive routes hand it each order's rows with a candidate: the
kernel route the closed-form span, whose rows always start in enough
distinct columns, and the restricted route the kernel route's answer.  An
order whose rows do not certify its candidate gets the exact kernel of its
own rows from the same call.

`kernel_basis` and `annihilates` read their rows as `(cols, row)` pairs:
an integer row with its ascending nonzero columns.  `_sparse_pairs` is the
one conversion into them.  It checks each dense row's width, clears its
denominators and finds its support, and leaves zero rows out.  A caller that hands the same rows to
many kernels, as the near-primitive degrees do, keeps them as `SparseRow`s,
pairs made once from their dense rows, which pass the conversion with only
their width checked.  A SparseRow can only be made from its dense row, so
its support is always its row's own.  The annihilation check (i),
`annihilates`, is memoised on the candidate: a Subspace keeps the
SparseRows already found to annihilate it, keyed by identity and held alive
by the memo, and checks only the others.  Pairs converted from dense rows
are new objects on every call, so they are checked and never kept.  Every
row is still checked exactly against the very subspace it certifies, once,
and a Subspace never changes, so a row checked once stays checked.  Another
Subspace, even an equal one, starts with an empty memo and checks every row
itself, so a wrong candidate is never accepted on the strength of rows
checked against a different object.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import itemgetter

from . import _core
from .errors import DimensionMismatch

#: the elimination core is pure Python; perfbench/run.py prints this flag
COMPILED_CORE = False

_ZERO = Fraction(0)

_is_int = int.__instancecheck__


def _int_row(row):
    """Scale a row by the lcm of its denominators; row scaling preserves RREF.

    An integer row is kept as it is, not copied: nothing downstream writes
    to it, and `_core.rref_int` copies what it reduces.
    """
    if all(map(_is_int, row)):  # type check at C speed, no generator
        return row
    row = [Fraction(e) for e in row]
    scale = lcm(*(e.denominator for e in row)) if row else 1
    return [int(e * scale) for e in row]


def _pair(row):
    """``(cols, row)`` of one dense row: its integer entries as a tuple and
    their ascending nonzero columns."""
    row = tuple(_int_row(row))
    return tuple(compress(range(len(row)), row)), row


class SparseRow(tuple):
    """A row kept in the form the kernel routines read: the pair
    ``(cols, row)`` of its integer entries and their nonzero columns.

    It is made from the dense row alone (ints or Fractions), so its support
    is the row's own.  Handed to many kernels, it is not converted again,
    and a Subspace that it was checked to annihilate remembers it.
    """

    __slots__ = ()

    def __new__(cls, row):
        return tuple.__new__(cls, _pair(row))

    cols = property(itemgetter(0))
    row = property(itemgetter(1))


def _sparse_pairs(rows, ncols):
    """The ``(cols, row)`` pair of every nonzero row: the one conversion that
    every kernel routine reads.

    Each dense row (ints or Fractions) is checked to have ``ncols`` entries,
    cleared of denominators and given its support, as a new pair.  A
    `SparseRow` passes as it is, once its width is checked.  Zero rows are
    left out.
    """
    out = []
    for row in rows:
        kept = type(row) is SparseRow
        width = len(row[1]) if kept else len(row)
        if width != ncols:
            raise DimensionMismatch(f"row length {width} != {ncols} columns")
        if not kept:
            row = _pair(row)
        if row[0]:
            out.append(row)
    return out


class Subspace:
    """A linear subspace of Q^n, known by its primitive integer RREF rows."""

    __slots__ = ("ambient_dim", "dim", "_vectors", "_rows", "_pivots", "_basis", "_annihilated")

    def __init__(self, ambient_dim, rows, pivots):
        # Trusted constructor: rows must already be primitive integer RREF
        # rows (content 1, positive pivots), ordered by pivot.
        self.ambient_dim = ambient_dim
        self._rows = self._vectors = tuple(tuple(row) for row in rows)
        self._pivots = tuple(pivots)
        self.dim = len(self._rows)
        self._basis = None
        self._annihilated = {}

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """The span of ``vectors``; kept as they are when they peel (see the
        module docstring), eliminated at once otherwise."""
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        vectors = list(map(_int_row, vectors))
        if not _peels(vectors, ambient_dim):
            return cls(ambient_dim, *_core.rref_int(vectors, ambient_dim))
        space = cls.__new__(cls)
        space.ambient_dim = ambient_dim
        space._vectors = tuple(map(tuple, vectors))
        space.dim = len(vectors)
        space._rows = space._pivots = space._basis = None
        space._annihilated = {}
        return space

    def _eliminate(self):
        rows, pivots = _core.rref_int(self._vectors, self.ambient_dim)
        self._rows = tuple(map(tuple, rows))
        self._pivots = tuple(pivots)

    @property
    def rows(self):
        """The canonical primitive integer RREF rows, ordered by pivot."""
        if self._rows is None:
            self._eliminate()
        return self._rows

    @property
    def pivots(self):
        if self._pivots is None:
            self._eliminate()
        return self._pivots

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim):
        rows = [[0] * ambient_dim for _ in range(ambient_dim)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls(ambient_dim, rows, range(ambient_dim))

    @property
    def basis(self):
        """The canonical rational basis: each row divided by its pivot entry."""
        if self._basis is None:
            self._basis = tuple(
                tuple(Fraction(e, row[p]) for e in row)
                for row, p in zip(self.rows, self.pivots)
            )
        return self._basis

    def coordinates(self, vector):
        """Coefficients of ``vector`` over the canonical basis, or None if outside."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(vector)} != ambient {self.ambient_dim}"
            )
        return solve_in_span(self.basis, vector)

    def contains(self, vector):
        return self.coordinates(vector) is not None

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and subspace_equal(self, other)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _peels(vectors, ncols):
    """Whether the vectors peel away one by one, each removed while it is
    the only remaining vector nonzero in some column; if so they are
    independent.

    A column's count of remaining vectors only falls, so it joins the queue
    at most once, when it reaches one, and its holders are scanned at most
    once: the test is linear in the number of nonzero entries.
    """
    columns = range(ncols)
    supports = [list(compress(columns, v)) for v in vectors]
    holders = [[] for _ in columns]
    for i, cols in enumerate(supports):
        for j in cols:
            holders[j].append(i)
    count = [len(h) for h in holders]
    ready = [j for j in columns if count[j] == 1]
    alive = [True] * len(vectors)
    left = len(vectors)
    while ready:
        for i in holders[ready.pop()]:
            if alive[i]:
                break
        else:  # its last vector peeled at another column
            continue
        alive[i] = False
        left -= 1
        for j in supports[i]:
            count[j] -= 1
            if count[j] == 1:
                ready.append(j)
    return not left


def _kernel_vectors(rows, pivots, ncols):
    """Integer kernel vectors of integer RREF rows, one per free column.

    Row i says x[p_i] = -sum_f rows[i][f] / rows[i][p_i] * x[f] over the
    free columns f.  The vector of f puts on x[f] the lcm of the pivot
    entries it divides by, so every entry stays an integer.
    """
    pivot_set = set(pivots)
    vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(row, p) for row, p in zip(rows, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in used))
        v = [0] * ncols
        v[f] = scale
        for row, p in used:
            v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    return vectors


def kernel_basis(rows, ncols, candidate=None):
    """Null space of ``rows``, each a dense row of ints/Fractions of length
    ``ncols`` or a `SparseRow`, as a canonical Subspace of Q^ncols.

    ``candidate`` is an optional Subspace of Q^ncols believed to be the
    kernel.  It is returned when the rows certify it: they annihilate it,
    and they start or end in ncols - dim K distinct columns or, fed to one
    integer echelon, the seed rows first and then the sparsest, reach that
    rank over Q.  Otherwise, which happens only when K is not the kernel,
    the kernel is eliminated, so the result is always the kernel of the
    rows.
    """
    rows = _sparse_pairs(rows, ncols)
    if candidate is not None:
        if candidate.ambient_dim != ncols:
            raise DimensionMismatch(
                f"candidate lives in Q^{candidate.ambient_dim}, the rows in Q^{ncols}"
            )
        if annihilates(rows, candidate) and _rank_reaches(rows, ncols - candidate.dim):
            return candidate
    return _kernel_of_rref(*_core.rref_int([row for _, row in rows], ncols), ncols)


def annihilates(rows, subspace):
    """Whether every ``(cols, row)`` pair is orthogonal to the integer basis
    ``subspace`` holds, its vectors as kept or its canonical rows.

    Each row reads only its own nonzero columns.  A `SparseRow` is checked
    against a subspace once: those found to annihilate it are kept in its
    memo, keyed by identity and held alive there.  Any other pair is new to
    this call and is checked without being kept, since its identity cannot
    recur.
    """
    checked = subspace._annihilated
    fresh = [r for r in rows if id(r) not in checked]
    vectors = subspace._vectors
    if any(sum(row[j] * v[j] for j in cols) for cols, row in fresh for v in vectors):
        return False
    checked.update((id(r), r) for r in fresh if type(r) is SparseRow)
    return True


def _rank_reaches(rows, target):
    """Whether the ``(cols, row)`` pairs have rank at least ``target`` over
    Q.

    Rows with distinct first nonzero columns are triangular, and so are
    rows with distinct last ones, so either set is independent over Q: when
    the rows start in at least ``target`` distinct columns, or else end in
    that many, no echelon is built.  Otherwise the rank is counted exactly
    by `_echelon_reaches`.  The sparsest row ending in each last column
    joins the echelon without reduction, so those seed rows go first, then
    the rest, sparsest first, until the rank is reached.
    """
    if (
        len({cols[0] for cols, _ in rows}) >= target
        or len({cols[-1] for cols, _ in rows}) >= target
    ):
        return True
    rows = sorted(rows, key=lambda pair: len(pair[0]))
    seeds = {}
    for pair in rows:
        seeds.setdefault(pair[0][-1], pair)
    rest = [pair for pair in rows if seeds[pair[0][-1]] is not pair]
    return _echelon_reaches([*seeds.values(), *rest], target)


def _echelon_reaches(rows, target):
    """Whether the ``(cols, row)`` pairs, taken in turn until ``target``
    rows are kept, reach rank ``target`` over Q.

    Each kept row sits under its last nonzero column, so the kept rows are
    triangular and their number is the rank of the rows taken.  A row whose
    last column is free joins as it is.  Any other row r is reduced from its
    last column down: against the kept row at column j, r becomes
    a r - b pivot, where a and b are the pivot's and r's entries at j over
    their gcd, so column j clears in the integers.  When a is not 1, r is
    divided by its content, which keeps the entries small.  The row joins
    at the first free column it meets, or vanishes.
    """
    kept = {}  # last column -> the row as added, or as a dict {column: entry}
    for cols, row in rows:
        if len(kept) >= target:
            break
        if cols[-1] not in kept:
            kept[cols[-1]] = (cols, row)
            continue
        r = {j: row[j] for j in cols}
        while r:
            j = max(r)
            pivot = kept.get(j)
            if pivot is None:
                kept[j] = r
                break
            if type(pivot) is tuple:
                pivot = kept[j] = {k: pivot[1][k] for k in pivot[0]}
            g = gcd(pivot[j], r[j])
            a, b = pivot[j] // g, r[j] // g
            if a != 1:
                r = {k: a * c for k, c in r.items()}
            for k, c in pivot.items():
                c = r.get(k, 0) - b * c
                if c:
                    r[k] = c
                else:
                    del r[k]
            if a != 1:
                content = gcd(*r.values())
                if content != 1:
                    r = {k: c // content for k, c in r.items()}
    return len(kept) >= target


def _kernel_of_rref(reduced, pivots, ncols):
    """The kernel of integer RREF rows with the given pivot columns."""
    if not pivots:
        return Subspace.full(ncols)
    return Subspace.from_vectors(ncols, _kernel_vectors(reduced, pivots, ncols))


def subspace_equal(a, b):
    """Exact subspace equality; errors out on mismatched ambient dimensions.

    The rows are compared only when the dimensions cannot decide: one
    object, different dimensions, and dimension 0 or the ambient one need
    none.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    if a is b:
        return True
    if a.dim != b.dim:
        return False
    if a.dim in (0, a.ambient_dim):
        return True
    return a.rows == b.rows


def subspace_sum(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    return Subspace.from_vectors(a.ambient_dim, a.rows + b.rows)


def subspace_intersection(a, b):
    """Intersection, computed from the kernel of the stacked-column matrix."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} != {b.ambient_dim}"
        )
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    # Columns are the integer rows of a followed by those of b; a kernel
    # vector (x, y) encodes sum(x_i a_i) = sum(y_j b_j), a point of the
    # intersection.
    cols = a.dim + b.dim
    stacked = [[r[i] for r in a.rows] + [-r[i] for r in b.rows] for i in range(n)]
    ker = kernel_basis(stacked, cols)
    vectors = []
    for kv in ker.rows:
        vec = [0] * n
        for x, row in zip(kv, a.rows):
            if x:
                for i in range(n):
                    vec[i] += x * row[i]
        vectors.append(vec)
    return Subspace.from_vectors(n, vectors)


def solve_in_span(vectors, target):
    """Express ``target`` as a linear combination of ``vectors``.

    Returns a coefficient tuple (free coefficients set to zero) or None when
    the target lies outside the span.  Used to extract explicit witnesses.
    """
    vectors = [list(v) for v in vectors]
    n = len(target)
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("span vectors and target have mixed lengths")
    k = len(vectors)
    if k == 0:
        return () if not any(target) else None
    augmented = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    rows, pivots = _core.rref_int(list(map(_int_row, augmented)), k + 1)
    if k in pivots:
        return None
    coeffs = [_ZERO] * k
    for row, p in zip(rows, pivots):
        coeffs[p] = Fraction(row[k], row[p])
    return tuple(coeffs)
