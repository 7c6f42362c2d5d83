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

The kernel route passes over each degree m once, from the highest block
down, and certifies each prefix kernel as the closed-form span S_k of order
k instead of eliminating it (`exactq.KernelCertificate`).  As k falls, the
window m - k < |Q_i| < k shrinks, so the closed-form monomial sets are
nested; the pass checks with a subset test that each set lies in the one
above instead of assuming it, so the blocks above, which annihilate the
larger span, annihilate S_k too.  Only the new block B_k is then checked
exactly against S_k, and its rows join one mod-p echelon kept across the
degree until the rank reaches ncols - dim S_k.  If any check fails, the
degree's blocks are eliminated exactly instead, each once against the integer
RREF rows kept from the blocks above it (`exactq.stacked_kernels`).  Either
way the route returns the kernel of its own rows, so a wrong closed form
still surfaces as a monomial-basis failure.  Only the pass of the degree
asked for last is kept, with that degree's closed-form spans, and both are
rebuilt whenever the coproduct table they came from changes.

The rows of a degree are built once, as dense integer rows keyed by the
pair (ea, eb) of tensor factors, and the kernel route's pass and every
restricted order read them.  The restricted route of order d sends each key
(ea, eb) with |eb| >= d to (ea, er) for every term of the restricted eb, and
rows that land on one key add up, scaled by the image coefficient: the
linear map id (x) restrict applied to the stacked blocks.  Restriction keeps
a generator, kills it or sends p_{d/2} to e^2, so it sends distinct
surviving monomials to distinct monomials with coefficient 1.  Its matrix
R_d is therefore the rows of every B_k (k >= d) whose right-hand factor
survives, relabelled, and ker R_d contains the kernel route's answer K.  The
route hands K to `exactq.kernel_basis` as a candidate, which returns it only
when the rows certify it (they annihilate K, and a subset of them has rank
ncols - dim K) and eliminates R_d in full otherwise.  Either way the result
is exactly ker R_d, so a wrong K cannot hide a fault; most orders need no
elimination.

Every route of a degree reads one generator-monomial basis,
`_generator_basis`, enumerated once per (kind, bound, degree), and each
order's closed-form monomials, `_closed_monomials`, enumerated once per
(kind, bound, degree, order).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import QueryError
from .exactq import (
    KernelCertificate,
    Subspace,
    kernel_basis,
    stacked_kernels,
    subspace_equal,
)
from .gradedalg import (
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    vector_to_polynomial,
)
from .hopfmodel import hopf_model, restrict, restricted_model


class NearPrimQuery:
    """A (model kind, degree, order) triple, validated on construction."""

    __slots__ = ("kind", "degree", "order")

    def __init__(self, kind, degree, order):
        if kind not in ("u", "so"):
            raise QueryError(f"unknown model kind {kind!r}")
        if order < 1:
            raise QueryError("the order must be at least 1")
        if degree < order:
            raise QueryError(
                f"near-primitives need degree >= order; got degree {degree}"
                f" < order {order}"
            )
        self.kind = kind
        self.degree = degree
        self.order = order


@lru_cache(maxsize=None)
def _generator_basis(kind, max_degree, m):
    """The degree-m generator monomials in canonical order: the one basis
    every route, span and witness of that degree reads."""
    return tuple(enumerate_monomials(hopf_model(kind, max_degree).generators, m))


@lru_cache(maxsize=None)
def _delta_bar_slice(kind, max_degree, m):
    """Reduced-coproduct data of every degree-m generator monomial.

    Returns ``(basis, columns)`` where ``columns[j]`` lists
    ``((exp_a, exp_b), integer coefficient)`` for basis monomial j.  Cached
    per (kind, bound, m); the d-sweeps reuse it across all orders.
    """
    model = hopf_model(kind, max_degree)
    basis = _generator_basis(kind, max_degree, m)
    columns = []
    for exp in basis:
        dbar = model.reduced_coproduct(Polynomial.from_monomial(model.generators, exp))
        columns.append(tuple(dbar.terms.items()))
    return basis, tuple(columns)


class _GradedSlice:
    """The reduced-coproduct matrix of one degree m, as dense integer rows.

    ``blocks[k]`` maps each right-hand factor eb of degree k = |eb| to the
    pairs ``(ea, row)``, where ``row[j]`` is the coefficient of ea (x) eb in
    the reduced coproduct of basis monomial j; zero rows are left out.  The
    rows are built once per degree and read by the kernel route's pass and
    by every restricted order.  ``degrees`` lists the k from the highest
    down, the order of that downward pass.
    """

    def __init__(self, model, key, columns, ncols, blocks):
        self.model = model
        self.key = key
        self.columns = columns
        self.ncols = ncols
        self.blocks = blocks
        self.degrees = sorted(blocks, reverse=True)
        self._kernels = None

    def kernel(self, d):
        """The order-d kernel; the first call serves every order at once."""
        if self._kernels is None:
            self._kernels = self._prefix_kernels()
        constrained = sum(1 for k in self.degrees if k >= d)
        if not constrained:
            return Subspace.full(self.ncols)
        return self._kernels[constrained - 1]

    def _prefix_kernels(self):
        """The kernel of the blocks k' >= k, for each k in ``degrees``.

        Certified against the closed form when every block passes, and
        otherwise eliminated exactly with `exactq.stacked_kernels`.
        """
        # A repeated row leaves the kernel as it is, and a row met in a block
        # above already annihilates every span certified below it.
        seen = set()
        blocks = []
        for k in self.degrees:
            fresh = []
            for pairs in self.blocks[k].values():
                for _, row in pairs:
                    if row not in seen:
                        seen.add(row)
                        fresh.append(row)
            blocks.append(fresh)
        spans = self._certified_spans(blocks)
        return spans if spans is not None else stacked_kernels(blocks, self.ncols)

    def _certified_spans(self, blocks):
        """The closed-form span S_k of order k for each block degree k, if
        the rows certify every one of them as the kernel of blocks k' >= k.

        One downward pass: S_k's monomials must lie among those of the span
        above, so the blocks above annihilate S_k too; the new block B_k
        must annihilate S_k and bring the rank of the rows so far to
        ncols - dim S_k.  Returns None at the first check that fails.
        """
        model, m = self.model, self.key[2]
        certificate = KernelCertificate(self.ncols)
        above = None  # the monomials of the span above
        spans = []
        for k, rows in zip(self.degrees, blocks):
            monos = near_primitive_monomials(model, m, k)
            if above is not None and not above.issuperset(monos):
                return None
            span = _closed_span(model, m, monos)
            if not certificate.extend(rows, span):
                return None
            above = set(monos)
            spans.append(span)
        return spans

    def restricted_rows(self, d, rank):
        """The distinct rows of the order-d matrix restricted to rank ``rank``.

        Each key (ea, eb) with |eb| >= d goes to (ea, er) for every term
        cr * er of the restricted eb, and rows that share a key add up; each
        eb is restricted once.
        """
        kind, max_degree, _ = self.key
        rows = {}
        for k in self.degrees:
            if k < d:
                break
            for eb, pairs in self.blocks[k].items():
                for er, cr in _restricted_monomial(kind, max_degree, rank, eb):
                    for ea, row in pairs:
                        image = row if cr == 1 else tuple(cr * c for c in row)
                        key = (ea, er)
                        kept = rows.get(key)
                        rows[key] = image if kept is None else tuple(map(add, kept, image))
        return list(dict.fromkeys(rows.values()))


# The slice of the degree asked for last.  It is rebuilt whenever
# _delta_bar_slice hands back another table, so it never outlives the table
# it was built from.
_current_slice = None

# The closed-form spans of the degree asked for last, keyed by monomial set:
# orders with no generator degree between them admit the same monomials, so
# the kernel certificate and every order's span read one entry.  Dropped
# when the degree changes and whenever the degree's slice is rebuilt.
_spans = (None, {})


def _graded_slice(model, m):
    """The degree-m rows grouped by |eb|; kept for the latest degree only."""
    global _current_slice, _spans
    key = (model.kind, model.max_degree, m)
    basis, columns = _delta_bar_slice(*key)
    current = _current_slice
    if current is not None and current.key == key and current.columns is columns:
        return current
    ncols = len(basis)
    rows = {}  # eb -> {ea: row}
    for j, col in enumerate(columns):
        for (ea, eb), c in col:
            by_ea = rows.get(eb)
            if by_ea is None:
                by_ea = rows[eb] = {}
            row = by_ea.get(ea)
            if row is None:
                row = by_ea[ea] = [0] * ncols
            row[j] += c
    degree_of = model.generators.degree
    blocks = {}
    for eb, by_ea in rows.items():
        pairs = tuple((ea, tuple(row)) for ea, row in by_ea.items() if any(row))
        if pairs:
            blocks.setdefault(degree_of(eb), {})[eb] = pairs
    _spans = (key, {})
    _current_slice = _GradedSlice(model, key, columns, ncols, blocks)
    return _current_slice


def near_primitive_kernel(model, m, d):
    """Order-d near-primitives in degree m, as a kernel computation.

    The first order asked for in a degree serves every order of that degree
    at once, certified against the closed form; the orders after it read
    the same pass.
    """
    NearPrimQuery(model.kind, m, d)
    if m > model.max_degree:
        raise QueryError(f"degree {m} exceeds the model bound {model.max_degree}")
    return _graded_slice(model, m).kernel(d)


def near_primitive_monomials(model, m, d):
    """The closed-form basis: monomials over the admissible power sums.

    Admissible generators are the Q_i with m - d < |Q_i| < d; Q_m joins when
    m is itself a generator degree.  Returned as exponent tuples over the
    primitive alphabet, in canonical order.
    """
    NearPrimQuery(model.kind, m, d)
    if m > model.max_degree:
        raise QueryError(f"degree {m} exceeds the model bound {model.max_degree}")
    return list(_closed_monomials(model.kind, model.max_degree, m, d))


@lru_cache(maxsize=None)
def _closed_monomials(kind, max_degree, m, d):
    """The closed-form monomials of (m, d), enumerated once per (kind, bound,
    m, d): the kernel route's pass, the span and NP_d all read them."""
    model = hopf_model(kind, max_degree)
    prims = model.primitives
    allowed = {
        i
        for i, deg in enumerate(prims.degrees)
        if m - d < deg < d
    }
    monos = enumerate_monomials(prims, m, allowed=allowed)
    if m % model.step == 0:
        top = [0] * len(prims)
        top[m // model.step - 1] = 1
        monos.append(tuple(top))
    monos.sort(key=lambda e: tuple(-v for v in e))
    return tuple(monos)


@lru_cache(maxsize=None)
def _primitive_monomial(kind, max_degree, exp):
    """A primitive monomial as dense integer coordinates over the generator
    monomials of its degree; the Newton power sums have integer coefficients."""
    model = hopf_model(kind, max_degree)
    poly = model.from_primitive_basis(Polynomial.from_monomial(model.primitives, exp))
    m = model.primitives.degree(exp)
    basis = _generator_basis(kind, max_degree, m)
    return degree_slice_vector(poly, m, basis)


def near_primitive_span(model, m, d):
    """The closed-form basis as a subspace in generator-monomial coordinates."""
    return _closed_span(model, m, near_primitive_monomials(model, m, d))


def _closed_span(model, m, monos):
    """The span of primitive monomials of degree m, read through ``_spans``."""
    global _spans
    key = (model.kind, model.max_degree, m)
    if _spans[0] != key:
        _spans = (key, {})
    cache = _spans[1]
    monos = tuple(monos)
    span = cache.get(monos)
    if span is None:
        vectors = [_primitive_monomial(model.kind, model.max_degree, e) for e in monos]
        span = cache[monos] = Subspace.from_vectors(len(_generator_basis(*key)), vectors)
    return span


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
    NearPrimQuery(model.kind, m, d)
    if m > model.max_degree:
        raise QueryError(f"degree {m} exceeds the model bound {model.max_degree}")
    rank = restricted_pairing(model.kind, d)
    if rank is None:
        if model.kind == "u":
            raise QueryError("odd orders have no restricted pairing over the complex model")
        raise QueryError("restriction to BSO(1) kills every positive-degree class")
    graded = _graded_slice(model, m)
    rows = graded.restricted_rows(d, rank)
    return kernel_basis(rows, graded.ncols, candidate=graded.kernel(d))


def npd(model, d, n):
    """NP_d in degree n: the restricted image of the near-primitives.

    Oriented models restrict order-d near-primitives to BSO(d); the complex
    pairing restricts order-2d near-primitives to BU(d).  The result lives in
    the degree-n monomial slice of the restricted model.
    """
    if d < 1:
        raise QueryError("the rank must be positive")
    if n < 1:
        raise QueryError("the degree must be positive")
    order = d if model.kind == "so" else 2 * d
    rm = restricted_model(model.kind, d)
    rbasis = enumerate_monomials(rm.alphabet, n)
    if n < order or n % model.step != 0 or not rbasis:
        return Subspace.zero(len(rbasis))
    monos = near_primitive_monomials(model, n, order)
    vectors = []
    for e in monos:
        poly = restrict(
            model, d, model.from_primitive_basis(Polynomial.from_monomial(model.primitives, e))
        )
        vectors.append(degree_slice_vector(poly, n, rbasis))
    return Subspace.from_vectors(len(rbasis), vectors)


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
    basis = _generator_basis(model.kind, model.max_degree, m)
    for row in a.basis:
        if not b.contains(row):
            poly = vector_to_polynomial(model.generators, row, basis)
            return format_poly(poly)
    for row in b.basis:
        if not a.contains(row):
            poly = vector_to_polynomial(model.generators, row, basis)
            return format_poly(poly)
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
        gen_basis = _generator_basis(model.kind, model.max_degree, m)
        primitive_vec = degree_slice_vector(model.power_sum(m // step), m, gen_basis)
        primitive_slice = Subspace.from_vectors(len(gen_basis), [primitive_vec])
        full_slice = Subspace.full(len(gen_basis))
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
