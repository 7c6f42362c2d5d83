"""Near-primitive subspaces of the BU/BSO models, three ways.

An element x of degree m >= d is near-primitive of order d when the reduced
coproduct of x has no component in H (x) H^{>=d}.  Three independent routes
compute the degree-m slice of these:

* `near_primitive_kernel` assembles the composite (id (x) proj_{>=d}) after
  the reduced coproduct as an integer matrix over the monomial basis and
  takes its kernel - pure linear algebra, no structure theory.
* `near_primitive_monomials` / `near_primitive_span` write down the closed
  monomial basis: products of power sums Q_i with m - d < |Q_i| < d,
  together with Q_m itself when m is a generator degree.
* `near_primitive_kernel_restricted` replaces the projection by its
  composite with restriction to the compact group, which detects the same
  kernel whenever the first Pontrjagin (resp. Chern) class survives the
  restriction: BSO(d) needs d >= 2, and the complex pairing matches order
  2k with BU(k), so only even orders have a restricted counterpart there.

`verify_equivalence` sweeps all three against each other and doubles as the
boundary-law check (full slice at m = d, primitives only for m >= 2d).

The reduced coproduct is graded, so the kernel matrix of order d stacks one
block B_k per degree k = |eb| of the right-hand factor, over every k >= d:

    kernel(d) = kernel(d+1) meet ker B_d,    kernel(m) = the whole slice.

The kernel route certifies each prefix kernel against its closed-form
answer, the span S_k of order k, in one downward pass over the degree's
blocks: the rows of the blocks k' >= k go to `exactq.kernel_basis` with
S_k as the candidate, the one certificate both routes share.  Its first
check, that every row annihilates S_k, puts S_k inside the kernel.  Its
second, that the rows start in at least ncols - dim S_k distinct first
nonzero columns, bounds the kernel's dimension by dim S_k, and here it
always holds, with no echelon.  Every Whitney coefficient is 1, so the row
keyed (ea, eb) has the entry prod C(gamma_i, ea_i) >= 1 at the product
gamma = ea*eb, and every other monomial x of the row is a proper
coarsening of ea*eb: some g_i of x splits as g_a (x) g_{i-a}.  Take the
smallest new part of that refinement.  Every generator split away is
larger, so ea*eb has more factors of that generator than x and as many of
each smaller one, and in the canonical order of the basis, descending lex,
it sorts first: ea*eb is the row's first nonzero column.  The monomials
with no such split, |eb| >= k, are exactly the closed form's index set, so
the distinct products number ncols - dim S_k and the count always
suffices.  Orders with no generator degree between them share one span
object, whose memo has already checked the blocks above, so the re-check
costs only where the span changes.  An order whose rows do not certify its
span gets the exact kernel of its own rows from the same call, and the
other orders keep their spans.  Either way the route returns the kernel of
its own rows, so a wrong closed form still surfaces as a monomial-basis
failure.

The rows of a degree are built once, sparse, keyed by the pair (ea, eb)
of tensor factors, straight from the packed keys that
`HopfModel.reduced_coproduct` returns for each basis monomial: ea stays
packed, and each distinct eb is decoded once, for its degree and for the
restriction.  Each row gathers its entries as ``{column: entry}`` in
ascending column order, as the basis monomials come, and no row is ever
written out dense.  Each distinct row is interned once, by value, as one
`exactq.SparseRow` of its columns and entries, and the kernel route's pass
and every restricted order hand those same objects to `exactq`: no order
converts a row again, and the certificate's annihilation memo checks each
row against each candidate once.  A certified kernel of order d has had
every row of the blocks k >= d checked against it, so the rows that the
restricted route only relabels pass its check from the memo.

The restricted route of order d sends each key (ea, eb) with |eb| >= d to
(ea, er) for every term of the restricted eb, and rows that land on one key
add up, scaled by the image coefficient: the linear map id (x) restrict
applied to the stacked blocks, summed as sparse rows; a sum equal to a row
of the degree is handed over as that row's object.  Restriction keeps a
generator, kills it or sends p_{d/2} to e^2, so it sends distinct
surviving monomials to distinct monomials with coefficient 1.  Its matrix
R_d is therefore the rows of every B_k (k >= d) whose right-hand factor
survives, relabelled, and ker R_d contains the kernel route's answer K.
The relabelled and summed rows need not start or end in enough distinct
columns to bound its dimension, but the route hands K to the same
certificate, `exactq.kernel_basis`, which returns K only when the rows
certify it (they annihilate K, and they start or end in ncols - dim K
distinct columns or a subset of them has that rank over Q, counted in an
integer echelon) and eliminates R_d in full otherwise.  The rank is exact,
so the route eliminates only where K is not ker R_d, and the result is
exactly ker R_d either way: a wrong K cannot hide a fault.

The closed-form vectors are a basis as they stand.  By Newton's identities
Q_n = +-n g_n plus products of two or more generators, so Q^lam has exactly
one support monomial of least length, g^lam, with coefficient +-prod lam_i,
and these are distinct within a slice.  `exactq.Subspace.from_vectors`
proves that independence by its O(nnz) peeling test rather than assuming it,
and keeps the vectors uneliminated: the certificate checks annihilation on
them and reads its rank target off their count, and a certified kernel is
the span object itself.  Canonical rows are eliminated only where they are
read: by `npd` and the MMM answers built on it, by failure witnesses, and
by the comparison with the primitive slice once m >= 2d; `nearprim basis`
reads only the dimension.

Everything nearprim knows about one degree m of one model lives in one
object, `_Degree`, kept for the degree asked for last: the generator-monomial
basis every route and span reads (the slice `gradedalg.slice_basis` keeps for
every caller, witnesses included), each order's closed-form
monomials, each primitive monomial as coordinates, the closed-form spans, and
the keyed rows with the kernels certified from them.  Each piece is built on
first use.  The primitive monomials themselves live in the model's memoised
integer table (`HopfModel.primitive_monomial`), which every degree shares.
The rows and kernels are rebuilt whenever the coproduct table they came from
changes, so they never outlive it.
"""

from functools import lru_cache

from .errors import DimensionMismatch, QueryError
from .exactq import SparseRow, Subspace, kernel_basis, subspace_equal
from .gradedalg import (
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    poincare_series,
    slice_basis,
    vector_to_polynomial,
)
from .hopfmodel import fibre_dimension, hopf_model, restrict, restricted_model


@lru_cache(maxsize=1)
def _delta_bar_slice(kind, max_degree, m):
    """Reduced-coproduct data of every degree-m generator monomial.

    Returns ``(basis, columns)`` where ``columns[j]`` is the packed dict
    ``{pack(ea) + (pack(eb) << shift): integer coefficient}`` that
    `HopfModel.reduced_coproduct` builds for basis monomial j, with no zero
    entry.  Kept for the latest degree, like the degree's state that reads
    it.
    """
    state = _degree(kind, max_degree, m)
    return state.basis, tuple(map(state.model.reduced_coproduct, state.basis))


class _Degree:
    """What every route reads of one degree m of one model, built lazily.

    ``basis`` lists the degree-m generator monomials in canonical order.
    ``coordinates(exp)`` reads Q^exp from the model's packed integer table
    through one index of the packed basis monomials, built once per degree;
    ``primitive(exp)``, which only `npd` reads, decodes the same entry.
    ``blocks()`` holds the reduced-coproduct matrix as sparse rows:
    ``blocks()[k]`` maps each right-hand factor eb of degree k = |eb|, an
    exponent tuple, to the pairs ``(ea, row)``, where ea is left packed as
    the model packs it and ``row`` is the `exactq.SparseRow` whose entry at
    column j is the coefficient of ea (x) eb in the reduced coproduct of
    basis monomial j.  The blocks are read straight off the packed table of
    `_delta_bar_slice`: each key splits into ea and eb with one mask and one
    shift, and each distinct eb is decoded once.  The table holds no zero
    entry, so no row is zero.  The k run from the highest down, the order
    of the kernel route's pass.  Equal rows are one SparseRow, interned by
    value when the blocks are built, and both routes hand that object to
    `exactq`.
    """

    def __init__(self, kind, max_degree, m):
        self.model = hopf_model(kind, max_degree)
        self.key = (kind, max_degree, m)
        self.m = m
        self.basis = tuple(slice_basis(self.model.generators, m))
        self._monomials = {}  # order -> closed-form monomials
        self._index = None  # packed basis monomial -> its position
        self._coordinates = {}  # exponent -> integer coordinates over basis
        # Orders with no generator degree between them admit the same
        # monomials, so the certificate and every order's span read one entry.
        self._spans = {}  # monomial set -> span
        self._columns = None  # the coproduct table the blocks came from
        self._blocks = None
        self._interned = None  # each distinct row, keyed by its value
        self._kernels = None

    # --- the closed form ---------------------------------------------------

    def monomials(self, d):
        """The closed-form monomials of order d, in canonical order."""
        monos = self._monomials.get(d)
        if monos is None:
            model, m = self.model, self.m
            prims = model.primitives
            allowed = {i for i, deg in enumerate(prims.degrees) if m - d < deg < d}
            found = enumerate_monomials(prims, m, allowed=allowed)
            if m % model.step == 0:
                top = [0] * len(prims)
                top[m // model.step - 1] = 1
                found.append(tuple(top))
            found.sort(key=lambda e: tuple(-v for v in e))
            monos = self._monomials[d] = tuple(found)
        return monos

    def primitive(self, exp):
        """A primitive monomial as a polynomial over the generators, decoded
        from the model's table."""
        model = self.model
        terms = model.primitive_monomial(exp)
        return Polynomial(model.generators, {model.unpack(k): c for k, c in terms.items()})

    def coordinates(self, exp):
        """A primitive monomial as dense integer coordinates over ``basis``,
        read from the model's integer table through the packed basis index;
        a term outside the basis is refused."""
        vec = self._coordinates.get(exp)
        if vec is None:
            model = self.model
            if self._index is None:
                self._index = {model.pack(e): j for j, e in enumerate(self.basis)}
            index = self._index
            coords = [0] * len(self.basis)
            for key, c in model.primitive_monomial(exp).items():
                j = index.get(key)
                if j is None:
                    monomial = model.generators.monomial_dict(model.unpack(key))
                    raise DimensionMismatch(f"monomial {monomial} is not in the slice basis")
                coords[j] = c
            vec = self._coordinates[exp] = tuple(coords)
        return vec

    def span(self, d):
        """The closed-form span of order d in generator-monomial coordinates."""
        monos = self.monomials(d)
        span = self._spans.get(monos)
        if span is None:
            vectors = [self.coordinates(e) for e in monos]
            span = self._spans[monos] = Subspace.from_vectors(len(self.basis), vectors)
        return span

    # --- the coproduct rows --------------------------------------------------

    def blocks(self):
        """The degree's rows grouped by |eb|, rebuilt whenever
        `_delta_bar_slice` hands back another table."""
        columns = _delta_bar_slice(*self.key)[1]
        if columns is self._columns:
            return self._blocks
        model = self.model
        shift = model.width * model.ngens
        mask = (1 << shift) - 1
        ncols = len(self.basis)
        rows = {}  # packed eb -> {packed ea: {column: entry}}, columns ascending
        for j, col in enumerate(columns):
            for key, c in col.items():
                rows.setdefault(key >> shift, {}).setdefault(key & mask, {})[j] = c
        degree_of = model.generators.degree
        interned = {}  # each distinct row, as one SparseRow
        blocks = {}
        for eb, by_ea in rows.items():
            eb = model.unpack(eb)
            pairs = []
            for ea, row in by_ea.items():
                row = SparseRow(row, row.values(), ncols)
                pairs.append((ea, interned.setdefault(row, row)))
            blocks.setdefault(degree_of(eb), {})[eb] = tuple(pairs)
        self._columns = columns
        self._blocks = dict(sorted(blocks.items(), reverse=True))
        self._interned = interned
        self._kernels = None
        return self._blocks

    def kernel(self, d):
        """The order-d kernel; the first call serves every order at once."""
        blocks = self.blocks()
        if self._kernels is None:
            self._kernels = self._prefix_kernels(blocks)
        constrained = sum(1 for k in blocks if k >= d)
        if not constrained:
            return Subspace.full(len(self.basis))
        return self._kernels[constrained - 1]

    def _prefix_kernels(self, blocks):
        """The kernel of the blocks k' >= k, for each block degree k: the
        stack of those blocks' rows handed to `exactq.kernel_basis` with the
        closed-form span S_k as its candidate (see the module docstring).
        An order whose rows do not certify S_k gets the exact kernel of its
        own stack; the others keep their span.
        """
        # A repeated row leaves the kernel as it is, so each distinct row
        # joins the stack once, in the first block that holds it.
        stack, kernels = {}, []
        for k, block in blocks.items():
            stack.update(dict.fromkeys(row for pairs in block.values() for _, row in pairs))
            kernels.append(kernel_basis(stack, len(self.basis), candidate=self.span(k)))
        return kernels

    def restricted_rows(self, d, rank):
        """The distinct rows of the order-d matrix restricted to rank ``rank``.

        Each key (ea, eb) with |eb| >= d goes to (ea, er) for every term
        cr * er of the restricted eb, and rows that share a key add up, as
        sparse rows; each eb is restricted once.  A row that restriction
        only relabels comes back as the degree's own object, and so does a
        sum equal to a row of the degree; of the other rows, the first
        object met with each value is the one returned.
        """
        kind, max_degree, _ = self.key
        rows = {}  # (ea, er) -> a degree row, or a dict {column: entry} of a sum
        for k, block in self.blocks().items():
            if k < d:
                break
            for eb, pairs in block.items():
                for er, cr in _restricted_monomial(kind, max_degree, rank, eb):
                    for ea, row in pairs:
                        kept = rows.get((ea, er))
                        if kept is None and cr == 1:
                            rows[ea, er] = row
                            continue
                        if type(kept) is not dict:
                            kept = rows[ea, er] = dict(zip(kept.cols, kept.vals)) if kept else {}
                        for j, c in zip(row.cols, row.vals):
                            kept[j] = kept.get(j, 0) + cr * c
        for key, row in rows.items():
            if type(row) is dict:
                cols = sorted(j for j, c in row.items() if c)
                row = SparseRow(cols, map(row.__getitem__, cols), len(self.basis))
                rows[key] = self._interned.get(row, row)
        return list(dict.fromkeys(rows.values()))

    def restricted_kernel(self, d, rank):
        """ker R_d, offered the order-d kernel as its candidate.

        The degree's own rows reach `exactq.kernel_basis` as the SparseRows
        interned with the blocks, so no order converts them again.
        """
        return kernel_basis(self.restricted_rows(d, rank), len(self.basis), self.kernel(d))


@lru_cache(maxsize=1)
def _degree(kind, max_degree, m):
    """The state of the degree asked for last."""
    return _Degree(kind, max_degree, m)


def _checked_degree(model, m, d):
    """The degree-m state, once (m, d) has been checked against the model."""
    if d < 1:
        raise QueryError("the order must be at least 1")
    if m < d:
        raise QueryError(f"near-primitives need degree >= order; got degree {m} < order {d}")
    if m > model.max_degree:
        raise QueryError(f"degree {m} exceeds the model bound {model.max_degree}")
    return _degree(model.kind, model.max_degree, m)


def near_primitive_kernel(model, m, d):
    """Order-d near-primitives in degree m, as a kernel computation.

    The first order asked for in a degree serves every order of that degree
    at once, certified against the closed form; the orders after it read
    the same pass.
    """
    return _checked_degree(model, m, d).kernel(d)


def near_primitive_monomials(model, m, d):
    """The closed-form basis: monomials over the admissible power sums.

    Admissible generators are the Q_i with m - d < |Q_i| < d; Q_m joins when
    m is itself a generator degree.  Returned as exponent tuples over the
    primitive alphabet, in canonical order.
    """
    return list(_checked_degree(model, m, d).monomials(d))


def near_primitive_span(model, m, d):
    """The closed-form basis as a subspace in generator-monomial coordinates."""
    return _checked_degree(model, m, d).span(d)


def restricted_pairing(kind, d):
    """The restriction rank paired with order d, or None when there is none."""
    if kind == "u":
        return d // 2 if d % 2 == 0 else None
    return d if d >= 2 else None


@lru_cache(maxsize=None)
def _restricted_monomial(kind, max_degree, rank, exp):
    model = hopf_model(kind, max_degree)
    poly = restrict(model, rank, Polynomial.from_monomial(model.generators, exp))
    return tuple(poly.terms.items())


def near_primitive_kernel_restricted(model, m, d):
    """Same kernel, detected through the compact-group restriction.

    The second tensor factor is projected to degrees >= d and then restricted
    to BU(d/2) (complex, even d) or BSO(d) (oriented, d >= 2).  Orders with
    no faithful pairing raise: odd complex orders have no matching rank, and
    BSO(1) is rationally trivial so the composite detects nothing.  The rows
    are the degree's keyed rows of the kernel route, relabelled through the
    restriction, not rebuilt from the coproduct table.  The order-d kernel
    route's answer is offered as a candidate and returned only when the
    restricted rows certify it.
    """
    state = _checked_degree(model, m, d)
    rank = restricted_pairing(model.kind, d)
    if rank is None:
        if model.kind == "u":
            raise QueryError("odd orders have no restricted pairing over the complex model")
        raise QueryError("restriction to BSO(1) kills every positive-degree class")
    return state.restricted_kernel(d, rank)


def npd(model, d, n):
    """NP_d in degree n: the restricted image of the near-primitives.

    Oriented models restrict order-d near-primitives to BSO(d); the complex
    pairing restricts order-2d near-primitives to BU(d).  The result lives in
    the degree-n monomial slice of the restricted model, and n must lie
    within the model's bound.  Below the order it is zero, and the
    restricted generators of degree at most n are the model's own, so the
    slice is sized from the model and BU(d) or BSO(d), whose alphabet grows
    with d, is not built.
    """
    if d < 1:
        raise QueryError("the rank must be positive")
    if n < 1:
        raise QueryError("the degree must be positive")
    if n > model.max_degree:
        raise QueryError(f"degree {n} exceeds the model bound {model.max_degree}")
    order = fibre_dimension(model.kind, d)
    if n < order:
        return Subspace.zero(poincare_series(model.generators, n)[n])
    ncols = len(slice_basis(restricted_model(model.kind, d).alphabet, n))
    if n % model.step != 0 or not ncols:
        return Subspace.zero(ncols)
    state = _checked_degree(model, n, order)
    vectors = [
        degree_slice_vector(restrict(model, d, state.primitive(e)), n)
        for e in state.monomials(order)
    ]
    return Subspace.from_vectors(ncols, vectors)


# --- the sweep ----------------------------------------------------------------


class SweepFailure:
    """One failed check of the sweep, at degree m and order d."""

    def __init__(self, degree, order, check, detail):
        self.degree = degree
        self.order = order
        self.check = check
        self.detail = detail


class EquivalenceReport:
    """Outcome of sweeping kernel, closed-form and restricted routes."""

    def __init__(self):
        self.checked = 0
        self.skipped_restricted = 0
        self.failures = []

    @property
    def all_passed(self):
        return not self.failures


def _difference_witness(model, m, a, b):
    """A basis vector of one subspace missing from the other, rendered."""
    for row in a.basis:
        if not b.contains(row):
            return format_poly(vector_to_polynomial(model.generators, row, m))
    for row in b.basis:
        if not a.contains(row):
            return format_poly(vector_to_polynomial(model.generators, row, m))
    return "spaces agree"


def verify_equivalence(model, max_degree):
    """Check kernel = closed form = restricted kernel over every (m, d).

    Also records the boundary laws: the kernel is the whole slice at m = d
    and exactly the (at most one-dimensional) primitive slice once m >= 2d.
    Returns an :class:`EquivalenceReport`; any counterexample carries the
    offending (m, d) and a witness vector.
    """
    if max_degree > model.max_degree:
        raise QueryError(
            f"sweep bound {max_degree} exceeds the model bound {model.max_degree}"
        )
    report = EquivalenceReport()
    step = model.step
    for m in range(step, max_degree + 1, step):
        ncols = len(slice_basis(model.generators, m))
        primitive_vec = degree_slice_vector(model.power_sum(m // step), m)
        primitive_slice = Subspace.from_vectors(ncols, [primitive_vec])
        full_slice = Subspace.full(ncols)
        for d in range(1, m + 1):
            kernel = near_primitive_kernel(model, m, d)
            span = near_primitive_span(model, m, d)
            report.checked += 1
            if not subspace_equal(kernel, span):
                report.failures.append(
                    SweepFailure(m, d, "monomial-basis", _difference_witness(model, m, kernel, span))
                )
            if restricted_pairing(model.kind, d) is not None:
                restricted = near_primitive_kernel_restricted(model, m, d)
                if not subspace_equal(kernel, restricted):
                    report.failures.append(
                        SweepFailure(
                            m, d, "restricted-kernel",
                            _difference_witness(model, m, kernel, restricted),
                        )
                    )
            else:
                report.skipped_restricted += 1
            if m == d and not subspace_equal(kernel, full_slice):
                report.failures.append(
                    SweepFailure(m, d, "full-slice-at-m=d", f"dim {kernel.dim} != {full_slice.dim}")
                )
            if m >= 2 * d and not subspace_equal(kernel, primitive_slice):
                report.failures.append(
                    SweepFailure(
                        m, d, "primitives-only-at-m>=2d",
                        _difference_witness(model, m, kernel, primitive_slice),
                    )
                )
    return report
