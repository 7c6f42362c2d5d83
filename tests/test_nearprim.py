"""Near-primitive slices: closed form vs kernel vs restricted detection."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod

import pytest

from mmmkit import exactq, nearprim
from mmmkit.errors import DimensionMismatch, QueryError
from mmmkit.gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    parse_poly,
    poincare_series,
)
from mmmkit.hopfmodel import fibre_dimension, hopf_model, restrict, restricted_model
from mmmkit.nearprim import (
    near_primitive_kernel,
    near_primitive_kernel_restricted,
    near_primitive_monomials,
    near_primitive_span,
    npd,
    restricted_pairing,
    verify_equivalence,
)
from mmmkit.exactq import Subspace, kernel_basis, subspace_equal

from oracles import (
    coproduct_rows_by_pairs,
    distinct_products,
    reduced_coproduct_of,
    restricted_rows_by_entries,
    tensor_by_pairs,
    tensor_sum_by_pairs,
    unpacked_coproduct,
    whitney_leading_entry,
)


def mono_names(model, monos):
    return [
        format_poly(Polynomial.from_monomial(model.primitives, e)) for e in monos
    ]


def slice_vector(model, text, m):
    poly = parse_poly(text, model.generators)
    return degree_slice_vector(poly, m)


def test_query_validation():
    model = hopf_model("so", 8)
    assert near_primitive_kernel(model, 8, 5).ambient_dim == 2
    with pytest.raises(QueryError, match="the order must be at least 1"):
        near_primitive_kernel(model, 8, 0)
    with pytest.raises(QueryError, match="got degree 4 < order 5"):
        near_primitive_kernel(model, 4, 5)
    with pytest.raises(QueryError, match="degree 12 exceeds the model bound 8"):
        near_primitive_kernel(model, 12, 4)
    with pytest.raises(QueryError, match="unknown model kind 'sp'"):
        hopf_model("sp", 8)


def test_closed_form_examples():
    ms = hopf_model("so", 16)
    assert mono_names(ms, near_primitive_monomials(ms, 8, 4)) == ["Q2"]
    for d in (5, 6, 7, 8):
        assert mono_names(ms, near_primitive_monomials(ms, 8, d)) == ["Q1^2", "Q2"]

    mu = hopf_model("u", 16)
    assert mono_names(mu, near_primitive_monomials(mu, 8, 6)) == ["Q2^2", "Q4"]
    assert mono_names(mu, near_primitive_monomials(mu, 6, 2)) == ["Q3"]
    assert mono_names(mu, near_primitive_monomials(mu, 6, 6)) == ["Q1^3", "Q1*Q2", "Q3"]


def test_kernel_equals_span_on_examples():
    ms = hopf_model("so", 16)
    for d in (4, 5, 6, 7, 8):
        kernel = near_primitive_kernel(ms, 8, d)
        assert subspace_equal(kernel, near_primitive_span(ms, 8, d))
        assert kernel.dim == (1 if d == 4 else 2)

    mu = hopf_model("u", 16)
    assert near_primitive_kernel(mu, 8, 6).dim == 2
    assert near_primitive_kernel(mu, 6, 2).dim == 1


def test_degree_eight_slice_in_generator_coordinates():
    """The order-5 slice at degree 8 is spanned by p1^2 and p2, and its
    primitive line is spanned by p2 - (1/2) p1^2."""
    ms = hopf_model("so", 16)
    kernel = near_primitive_kernel(ms, 8, 5)
    assert kernel.dim == 2
    assert kernel.contains(slice_vector(ms, "p1^2", 8))
    assert kernel.contains(slice_vector(ms, "p2", 8))

    primitive = near_primitive_kernel(ms, 8, 4)  # m >= 2d: primitives only
    assert primitive.dim == 1
    assert primitive.contains(slice_vector(ms, "p2 - 1/2*p1^2", 8))
    assert not primitive.contains(slice_vector(ms, "p2", 8))


def test_restricted_pairing_table():
    assert restricted_pairing("u", 2) == 1
    assert restricted_pairing("u", 4) == 2
    assert restricted_pairing("u", 1) is None
    assert restricted_pairing("u", 3) is None
    assert restricted_pairing("so", 1) is None
    assert restricted_pairing("so", 2) == 2
    assert restricted_pairing("so", 3) == 3


def test_restricted_kernel_orders_without_pairing():
    mu = hopf_model("u", 8)
    with pytest.raises(QueryError, match="odd orders"):
        near_primitive_kernel_restricted(mu, 6, 3)
    ms = hopf_model("so", 8)
    with pytest.raises(QueryError, match="BSO\\(1\\)"):
        near_primitive_kernel_restricted(ms, 8, 1)


def test_restricted_kernel_agrees_with_direct_kernel():
    ms = hopf_model("so", 16)
    for m, d in ((8, 2), (8, 4), (12, 5), (16, 8)):
        assert subspace_equal(
            near_primitive_kernel(ms, m, d),
            near_primitive_kernel_restricted(ms, m, d),
        )
    mu = hopf_model("u", 12)
    for m, d in ((8, 2), (8, 6), (12, 4)):
        assert subspace_equal(
            near_primitive_kernel(mu, m, d),
            near_primitive_kernel_restricted(mu, m, d),
        )


def test_npd_examples():
    mu = hopf_model("u", 12)
    bu1 = restricted_model("u", 1)
    space = npd(mu, 1, 6)
    assert space.dim == 1
    assert space.basis == ((Fraction(1),),)  # the lone monomial is c1^3
    assert enumerate_monomials(bu1.alphabet, 6) == [(3,)]

    ms = hopf_model("so", 16)
    assert npd(ms, 2, 8).dim == 1  # e^4
    assert npd(ms, 2, 6).dim == 0
    assert npd(ms, 2, 8).basis == ((Fraction(1),),)

    bu2 = restricted_model("u", 2)
    space = npd(mu, 2, 8)
    expected = degree_slice_vector(parse_poly("c1^4 - 4*c1^2*c2 + 2*c2^2", bu2.alphabet), 8)
    assert space.dim == 1
    assert space.contains(expected)

    with pytest.raises(QueryError):
        npd(mu, 0, 6)
    with pytest.raises(QueryError):
        npd(mu, 1, -2)
    # The slice below the order is sized from the model, so it must reach n.
    with pytest.raises(QueryError, match="degree 14 exceeds the model bound 12"):
        npd(mu, 9, 14)


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_npd_dimension_is_the_count_of_closed_form_monomials(kind, bound):
    """Restriction keeps the closed-form near-primitives of the fibre's
    order independent: dim NP_d in degree n is the number of closed-form
    monomials of order `fibre_dimension(kind, d)` in degree n, none below
    that order.  BSO(1) kills every positive degree, so NP_1 is 0 there."""
    model = hopf_model(kind, bound)
    for d in range(1, 13):
        order = fibre_dimension(kind, d)
        for n in range(model.step, bound + 1, model.step):
            if (kind, d) == ("so", 1) or n < order:
                expected = 0
            else:
                expected = len(near_primitive_monomials(model, n, order))
            assert npd(model, d, n).dim == expected


def test_npd_is_the_restricted_image_of_the_kernel():
    for kind, bound, d in (("so", 16, 2), ("so", 16, 3), ("u", 12, 2)):
        model = hopf_model(kind, bound)
        order = d if kind == "so" else 2 * d
        rm = restricted_model(kind, d)
        gen_basis_cache = {}
        for n in range(model.step, bound + 1, model.step):
            rbasis = enumerate_monomials(rm.alphabet, n)
            space = npd(model, d, n)
            assert space.ambient_dim == len(rbasis)
            if n < order:
                assert space.dim == 0
                continue
            kernel = near_primitive_kernel(model, n, order)
            gbasis = gen_basis_cache.setdefault(n, enumerate_monomials(model.generators, n))
            vectors = []
            for row in kernel.basis:
                poly = Polynomial(
                    model.generators,
                    {e: c for e, c in zip(gbasis, row)},
                )
                vectors.append(degree_slice_vector(restrict(model, d, poly), n))
            assert subspace_equal(space, Subspace.from_vectors(len(rbasis), vectors))


def test_dimension_counting_formula():
    """dim = (weight-m monomials in the admissible window) + 1 for Q_m."""
    for kind, bound in (("so", 20), ("u", 14)):
        model = hopf_model(kind, bound)
        for m in range(model.step, bound + 1, model.step):
            for d in range(1, m + 1):
                window = [
                    (name, deg)
                    for name, deg in zip(model.primitives.names, model.primitives.degrees)
                    if m - d < deg < d
                ]
                if window:
                    series = poincare_series(GeneratorAlphabet(window), m)
                    expected = series[m] + 1
                else:
                    expected = 1
                assert near_primitive_kernel(model, m, d).dim == expected


def test_reduced_coproduct_binomial_law():
    """On a power-sum monomial the reduced coproduct is the binomial sum over
    proper complementary exponent splits, read through the generators."""
    rng = random.Random(51)
    # Up to three factors from Q1..Q3, so the bounds reach Q3^3.
    for kind, bound in (("u", 18), ("so", 36)):
        model = hopf_model(kind, bound)
        nprim = len(model.primitives)

        def power_sums(exp):
            return model.from_primitive_basis(Polynomial.from_monomial(model.primitives, exp))

        for _ in range(8):
            f = [0] * nprim
            for _ in range(3):
                f[rng.randrange(min(3, nprim))] += rng.randint(0, 1)
            f = tuple(f)
            scaled = []
            for split in product(*(range(e + 1) for e in f)):
                if not any(split) or split == f:
                    continue
                rest = tuple(a - b for a, b in zip(f, split))
                coeff = 1
                for a, b in zip(f, split):
                    coeff *= comb(a, b)
                scaled.append((coeff, tensor_by_pairs(power_sums(split), power_sums(rest))))
            expected = tensor_sum_by_pairs(*scaled)
            assert reduced_coproduct_of(model, power_sums(f)) == expected


def test_sweep_clean_and_counts():
    ms = hopf_model("so", 16)
    report = verify_equivalence(ms, 16)
    assert report.all_passed
    assert report.checked == 4 + 8 + 12 + 16
    assert report.skipped_restricted == 4  # d = 1 for each degree
    assert near_primitive_kernel(ms, 8, 5).dim == 2

    mu = hopf_model("u", 10)
    report = verify_equivalence(mu, 10)
    assert report.all_passed
    assert report.checked == 2 + 4 + 6 + 8 + 10
    assert report.skipped_restricted == 1 + 2 + 3 + 4 + 5  # odd orders


def test_kernels_grow_with_the_order():
    for kind, bound in (("so", 16), ("u", 10)):
        model = hopf_model(kind, bound)
        for m in range(model.step, bound + 1, model.step):
            prev = None
            for d in range(1, m + 1):
                kernel = near_primitive_kernel(model, m, d)
                if prev is not None:
                    assert prev.dim <= kernel.dim
                    for row in prev.basis:
                        assert kernel.contains(row)
                prev = kernel


def test_answers_do_not_depend_on_the_order_degrees_are_asked_in():
    """Only the latest degree's state is kept.  Kernel, span, restricted
    kernel and NP_d asked for in a seeded random order, which leaves and
    revisits degrees, give the answers of a fresh ascending pass."""

    def ask(model, route, m, d):
        if route == "kernel":
            return near_primitive_kernel(model, m, d)
        if route == "span":
            return near_primitive_span(model, m, d)
        if route == "restricted":
            return near_primitive_kernel_restricted(model, m, d)
        return npd(model, d, m)

    models = [hopf_model("u", 12), hopf_model("so", 20)]
    nearprim._degree.cache_clear()
    nearprim._delta_bar_slice.cache_clear()
    fresh = {}
    for model in models:
        for m in range(model.step, model.max_degree + 1, model.step):
            for d in range(1, m + 1):
                routes = ["kernel", "span", "npd"]
                if restricted_pairing(model.kind, d) is not None:
                    routes.append("restricted")
                for route in routes:
                    fresh[model, route, m, d] = ask(model, route, m, d)
    keys = list(fresh)
    rng = random.Random(13)
    for key in rng.sample(keys, len(keys)) + rng.choices(keys, k=200):
        assert ask(*key) == fresh[key], key


def test_sweep_pinpoints_an_injected_fault(monkeypatch):
    """Corrupting one structure constant of the degree-8 coproduct slice must
    surface as failures at degree 8 and nowhere else."""
    ms = hopf_model("so", 12)
    clean = verify_equivalence(ms, 12)
    assert clean.all_passed

    original = nearprim._delta_bar_slice

    def corrupted(kind, max_degree, m):
        basis, columns = original(kind, max_degree, m)
        if m != 8:
            return basis, columns
        j = next(j for j, col in enumerate(columns) if col)
        key = next(iter(columns[j]))
        bumped = {**columns[j], key: columns[j][key] + 1}
        return basis, columns[:j] + (bumped,) + columns[j + 1:]

    monkeypatch.setattr(nearprim, "_delta_bar_slice", corrupted)
    report = verify_equivalence(ms, 12)
    assert not report.all_passed
    assert {f.degree for f in report.failures} == {8}
    assert any(f.check in ("monomial-basis", "primitives-only-at-m>=2d") for f in report.failures)

    monkeypatch.undo()
    assert verify_equivalence(ms, 12).all_passed


def test_kernel_equals_the_one_shot_kernel_of_its_rows():
    """The downward sweep gives, at every order, the kernel of all the rows
    with |eb| >= d eliminated at once."""
    for kind, bound in (("so", 16), ("u", 10)):
        model = hopf_model(kind, bound)
        for m in range(model.step, bound + 1, model.step):
            basis, columns = nearprim._delta_bar_slice(kind, bound, m)
            for d in range(1, m + 1):
                rows = {}
                for j, col in enumerate(columns):
                    for (ea, eb), c in unpacked_coproduct(model, col).items():
                        if model.generators.degree(eb) >= d:
                            rows.setdefault((ea, eb), [0] * len(basis))[j] += c
                expected = kernel_basis(list(rows.values()), len(basis))
                assert near_primitive_kernel(model, m, d) == expected


def test_sweep_pinpoints_a_fault_in_the_top_degree(monkeypatch):
    """A fault injected into the degree swept last must surface there even
    though that degree's clean kernels were the last ones computed."""
    ms = hopf_model("so", 12)
    assert verify_equivalence(ms, 12).all_passed

    original = nearprim._delta_bar_slice

    def corrupted(kind, max_degree, m):
        basis, columns = original(kind, max_degree, m)
        if m != 12:
            return basis, columns
        key = next(iter(columns[0]))
        return basis, ({**columns[0], key: columns[0][key] + 1},) + columns[1:]

    monkeypatch.setattr(nearprim, "_delta_bar_slice", corrupted)
    # Ask for the top degree first, before any other degree is touched.
    wrong = [
        d for d in range(1, 13)
        if not subspace_equal(near_primitive_kernel(ms, 12, d), near_primitive_span(ms, 12, d))
    ]
    assert wrong
    report = verify_equivalence(ms, 12)
    assert {f.degree for f in report.failures} == {12}
    assert {f.order for f in report.failures if f.check == "monomial-basis"} == set(wrong)

    monkeypatch.undo()
    assert verify_equivalence(ms, 12).all_passed


def test_restricted_kernel_equals_the_one_shot_kernel_of_its_rows():
    """The certified restricted route gives, at every order with a pairing,
    the kernel of its restricted rows eliminated at once."""
    for kind, bound in (("so", 16), ("u", 10)):
        model = hopf_model(kind, bound)
        for m in range(model.step, bound + 1, model.step):
            basis, columns = nearprim._delta_bar_slice(kind, bound, m)
            for d in range(1, m + 1):
                rank = restricted_pairing(kind, d)
                if rank is None:
                    continue
                rows = restricted_rows_by_entries(model, columns, d, rank)
                expected = kernel_basis(list(rows.values()), len(basis))
                assert near_primitive_kernel_restricted(model, m, d) == expected


@pytest.mark.parametrize("kind,bound", [("u", 14), ("so", 24)])
def test_restricted_rows_equal_the_entry_by_entry_assembly(kind, bound):
    """The restricted rows read from the degree's keyed rows are, as a set,
    the nonzero rows of the entry-by-entry assembly, and give its kernel."""
    model = hopf_model(kind, bound)
    for m in range(model.step, bound + 1, model.step):
        basis, columns = nearprim._delta_bar_slice(kind, bound, m)
        for d in range(1, m + 1):
            rank = restricted_pairing(kind, d)
            if rank is None:
                continue
            reference = restricted_rows_by_entries(model, columns, d, rank)
            rows = nearprim._degree(kind, bound, m).restricted_rows(d, rank)
            assert len(set(rows)) == len(rows)
            assert set(rows) == {tuple(row) for row in reference.values() if any(row)}
            assert near_primitive_kernel_restricted(model, m, d) == kernel_basis(
                list(reference.values()), len(basis)
            )


def test_restricted_rows_scale_and_add_up_under_a_merging_map(monkeypatch):
    """Restriction never scales or merges terms, but the row map must
    handle a linear map that does: with a stand-in that sends many eb to
    shared monomials with coefficients other than 1, the rows still match
    the entry-by-entry assembly through the same map."""
    kind, bound = "so", 16

    def merging(kind_, bound_, rank, eb):
        return (((sum(eb) % 3,), 2), ((7,), -(eb[0] + 1)), ((eb[-1],), 1))

    monkeypatch.setattr(nearprim, "_restricted_monomial", merging)
    model = hopf_model(kind, bound)
    for m in range(model.step, bound + 1, model.step):
        basis, columns = nearprim._delta_bar_slice(kind, bound, m)
        for d in range(2, m + 1):
            reference = restricted_rows_by_entries(
                model, columns, d, d, image=lambda eb: merging(kind, bound, d, eb)
            )
            rows = nearprim._degree(kind, bound, m).restricted_rows(d, d)
            assert {row for row in rows if any(row)} == {
                tuple(row) for row in reference.values() if any(row)
            }
            assert kernel_basis(rows, len(basis)) == kernel_basis(
                list(reference.values()), len(basis)
            )


def _handed_rows(monkeypatch):
    """Record the rows and candidate of every call that
    `_Degree.restricted_kernel` makes to `exactq.kernel_basis`, the latest
    last.  The kernel route's calls are not recorded: the kernel pass that
    the candidate may start runs before the scope opens."""
    handed = []
    scope = []
    kernel_basis_ = nearprim.kernel_basis
    restricted_kernel = nearprim._Degree.restricted_kernel

    def recording(rows, ncols, candidate=None):
        if scope:
            handed.append((rows, candidate))
        return kernel_basis_(rows, ncols, candidate)

    def scoped(self, d, rank):
        self.kernel(d)
        scope.append(True)
        try:
            return restricted_kernel(self, d, rank)
        finally:
            scope.pop()

    monkeypatch.setattr(nearprim, "kernel_basis", recording)
    monkeypatch.setattr(nearprim._Degree, "restricted_kernel", scoped)
    return handed


def _restricted_orders(model, bound):
    for m in range(model.step, bound + 1, model.step):
        for d in range(1, m + 1):
            rank = restricted_pairing(model.kind, d)
            if rank is not None:
                yield m, d, rank


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_the_restricted_route_hands_over_the_degrees_own_sparse_rows(monkeypatch, kind, bound):
    """Every row the restricted route hands to the certificate is the
    degree's own SparseRow, converted once when the blocks were built, and
    the rows are those of `restricted_rows`, in order."""
    model = hopf_model(kind, bound)
    handed = _handed_rows(monkeypatch)
    nearprim._degree.cache_clear()
    for m, d, rank in _restricted_orders(model, bound):
        near_primitive_kernel_restricted(model, m, d)
        rows, _ = handed.pop()
        state = nearprim._degree(kind, bound, m)
        dense = state.restricted_rows(d, rank)
        assert [r.row for r in rows] == dense
        for row, r in zip(dense, rows):
            assert type(r) is exactq.SparseRow
            assert state._sparse[id(row)] is r
            assert r.cols == tuple(j for j, c in enumerate(row) if c)


def test_restricted_rows_through_the_summing_path_give_the_same_kernels(monkeypatch):
    """A stand-in for `_restricted_monomial` that writes each term cr * er
    as 2cr * er - cr * er sends every row through the summing path, where
    the rows are new objects that `exactq` converts; the restricted rows
    and kernels stay as they were, entry by entry."""
    bounds = (("u", 14), ("so", 24))

    def restricted(kind, bound):
        model = hopf_model(kind, bound)
        out = {}
        for m, d, rank in _restricted_orders(model, bound):
            kernel = near_primitive_kernel_restricted(model, m, d)
            rows = nearprim._degree(kind, bound, m).restricted_rows(d, rank)
            out[m, d] = rows, kernel.rows, kernel.pivots
        return out

    nearprim._degree.cache_clear()
    clean = {bound: restricted(*bound) for bound in bounds}
    original = nearprim._restricted_monomial

    def summing(kind, bound, rank, eb):
        image = original(kind, bound, rank, eb)
        return tuple(t for er, cr in image for t in ((er, 2 * cr), (er, -cr)))

    monkeypatch.setattr(nearprim, "_restricted_monomial", summing)
    handed = _handed_rows(monkeypatch)
    nearprim._degree.cache_clear()
    for bound in bounds:
        assert restricted(*bound) == clean[bound]
    assert handed and not any(type(r) is exactq.SparseRow for rows, _ in handed for r in rows)
    # The converted rows are new on every call, so no memo keeps them.
    for _, candidate in handed:
        assert all(type(r) is exactq.SparseRow for r in candidate._annihilated.values())


def test_each_row_is_checked_against_each_candidate_once(monkeypatch):
    """Across the sweeps at u/24 and so/40, the annihilation checks multiply
    out each distinct (row, candidate) pair at most once, and every row the
    restricted route hands over has been checked against the candidate it
    certifies."""
    checked = []
    annihilates = exactq.annihilates

    def recording(rows, subspace):
        checked.extend((subspace, r[1]) for r in rows if id(r) not in subspace._annihilated)
        return annihilates(rows, subspace)

    monkeypatch.setattr(exactq, "annihilates", recording)
    handed = _handed_rows(monkeypatch)
    for kind, bound in (("u", 24), ("so", 40)):
        nearprim._degree.cache_clear()
        assert verify_equivalence(hopf_model(kind, bound), bound).all_passed
    pairs = [(id(subspace), row) for subspace, row in checked]
    assert len(set(pairs)) == len(pairs)
    restricted_rows = 0
    for rows, candidate in handed:
        restricted_rows += len(rows)
        assert all(id(r) in candidate._annihilated for r in rows)
    assert len(pairs) < restricted_rows


def _wrong_candidate(true, how):
    """A subspace that is not the true kernel: a proper subspace of it, the
    full slice, or a space of its dimension holding a vector outside it.
    Where the kernel is the whole slice (m = d) the zero space stands in."""
    n = true.ambient_dim
    if true.dim == n:
        return Subspace.zero(n)
    if how == "subspace":
        return Subspace.from_vectors(n, true.basis[1:])
    if how == "superspace":
        return Subspace.full(n)
    units = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    outside = next(u for u in units if not true.contains(u))
    return Subspace.from_vectors(n, list(true.basis[1:]) + [outside])


@pytest.mark.parametrize("how", ["subspace", "superspace", "same dimension"])
def test_restricted_route_ignores_a_wrong_candidate(monkeypatch, how):
    """A kernel route that hands over a wrong candidate can neither mask nor
    fake the restricted kernel: the route still returns the true kernel and
    the sweep reports the disagreement as a restricted-kernel failure."""
    ms = hopf_model("so", 12)
    truth = {
        (m, d): near_primitive_kernel_restricted(ms, m, d)
        for m in (4, 8, 12)
        for d in range(2, m + 1)
    }
    original = nearprim._Degree.kernel

    def wrong_kernel(self, d):
        return _wrong_candidate(original(self, d), how)

    monkeypatch.setattr(nearprim._Degree, "kernel", wrong_kernel)
    for (m, d), expected in truth.items():
        assert near_primitive_kernel_restricted(ms, m, d) == expected
    report = verify_equivalence(ms, 12)
    failed = {(f.degree, f.order) for f in report.failures if f.check == "restricted-kernel"}
    assert failed == set(truth)

    monkeypatch.undo()
    assert verify_equivalence(ms, 12).all_passed


# --- the kernel route's certificate against the closed form --------------------


def _one_shot_kernel(model, m, d):
    """The kernel of every row with |eb| >= d, eliminated at once."""
    basis, columns = nearprim._delta_bar_slice(model.kind, model.max_degree, m)
    rows = {}
    for j, col in enumerate(columns):
        for (ea, eb), c in unpacked_coproduct(model, col).items():
            if model.generators.degree(eb) >= d:
                rows.setdefault((ea, eb), [0] * len(basis))[j] += c
    return kernel_basis(list(rows.values()), len(basis))


def _wrong_closed_form(model, m, how):
    """An order k of degree m that is a block degree of the kernel route,
    and a wrong monomial set for it.

    * "subspace": the true set less one monomial; every check but the rank
      passes.
    * "superspace": the true set plus a monomial of the set above; it is
      nested, but the new block does not annihilate it.
    * "not nested": the true set with one monomial swapped for one outside
      the set above that the new block annihilates; only the check of the
      blocks above against it can tell.
    """
    state = nearprim._degree(model.kind, model.max_degree, m)
    above = None
    for k, block in state.blocks().items():
        true = near_primitive_monomials(model, m, k)
        rows = [row for pairs in block.values() for _, row in pairs]
        if how == "subspace" and len(true) >= 2:
            return k, true[1:]
        if how == "superspace" and above is not None:
            extra = [e for e in above if e not in true]
            if extra:
                return k, true + extra[:1]
        if how == "not nested" and above is not None:
            for e in enumerate_monomials(model.primitives, m):
                v = state.coordinates(e)
                if e not in above and not any(
                    sum(a * b for a, b in zip(row, v)) for row in rows
                ):
                    return k, true[1:] + [e]
        above = true
    raise AssertionError(f"no {how} case in degree {m}")


@pytest.mark.parametrize("how", ["subspace", "superspace", "not nested"])
def test_a_wrong_closed_form_fails_with_the_exact_kernels_witness(monkeypatch, how):
    """A wrong closed-form set at one block order must not be certified: the
    degree's kernels stay the exact ones, and the sweep reports exactly one
    monomial-basis failure there, whose witness compares the exact kernel
    with the wrong span."""
    model = hopf_model("so", 16)
    m = 16
    k, wrong = _wrong_closed_form(model, m, how)
    state = nearprim._degree("so", 16, m)
    wrong_span = Subspace.from_vectors(len(state.basis), [state.coordinates(e) for e in wrong])
    exact = {d: _one_shot_kernel(model, m, d) for d in range(1, m + 1)}
    assert exact[k] != wrong_span
    witness = nearprim._difference_witness(model, m, exact[k], wrong_span)

    original = nearprim._Degree.monomials

    def patched(self, d_):
        return tuple(wrong) if (self.m, d_) == (m, k) else original(self, d_)

    monkeypatch.setattr(nearprim._Degree, "monomials", patched)
    nearprim._degree.cache_clear()
    report = verify_equivalence(model, 16)
    assert [(f.degree, f.order, f.check, f.detail) for f in report.failures] == [
        (m, k, "monomial-basis", witness)
    ]
    for d in range(1, m + 1):
        assert near_primitive_kernel(model, m, d) == exact[d]


@pytest.mark.parametrize("kind, bound", [("u", 16), ("so", 32)])
def test_a_closed_form_one_monomial_short_eliminates_its_degree(monkeypatch, kind, bound):
    """With one monomial dropped from one order's closed form, the rows
    still annihilate the span, but their distinct first columns fall one
    short of the rank it asks for: that order's stack alone is eliminated,
    and the sweep reports one monomial-basis failure, there.  The orders
    it serves get the exact kernel of that stack; every other order of the
    degree still returns its span object."""
    model = hopf_model(kind, bound)
    m = bound
    state = nearprim._degree(kind, bound, m)
    orders = list(state.blocks())
    # The lowest order that has a monomial to drop, so that the orders
    # above it are certified first.
    k = min(d for d in orders if len(near_primitive_monomials(model, m, d)) >= 2)
    assert max(orders) > k
    wrong = near_primitive_monomials(model, m, k)[1:]
    original = nearprim._Degree.monomials

    def patched(self, d_):
        return tuple(wrong) if (self.m, d_) == (m, k) else original(self, d_)

    monkeypatch.setattr(nearprim._Degree, "monomials", patched)
    calls = _record_eliminations(monkeypatch)
    nearprim._degree.cache_clear()
    report = verify_equivalence(model, bound)
    assert [(f.degree, f.order, f.check) for f in report.failures] == [
        (m, k, "monomial-basis")
    ]
    assert _eliminated(calls, "kernel") == [m]
    assert sum(n for route, m_, n in calls if (route, m_) == ("kernel", m)) == 1
    state = nearprim._degree(kind, bound, m)
    for d in range(1, m + 1):
        kernel = near_primitive_kernel(model, m, d)
        assert kernel == _one_shot_kernel(model, m, d)
        # The block that constrains order d: the lowest block degree >= d.
        served_by = min((o for o in orders if o >= d), default=None)
        if served_by == k:
            assert kernel is not state.span(d)
        elif served_by is not None:
            assert kernel is state.span(d)


def _all_subspaces(model, bound):
    out = {}
    for m in range(model.step, bound + 1, model.step):
        for d in range(1, m + 1):
            out[m, d, "kernel"] = near_primitive_kernel(model, m, d)
            if restricted_pairing(model.kind, d) is not None:
                out[m, d, "restricted"] = near_primitive_kernel_restricted(model, m, d)
    return out


def _record_eliminations(monkeypatch):
    """Record each kernel pass and each restricted order as
    ``[route, m, eliminated]``, the latest last.

    ``route`` is "kernel" or "restricted", and ``eliminated`` counts the
    exact eliminations that build a kernel inside that call.
    """
    calls = []
    inside = []
    kernel_of_rref = exactq._kernel_of_rref
    for route, method in (("kernel", "_prefix_kernels"), ("restricted", "restricted_kernel")):

        def tracking(self, *args, route=route, wrapped=getattr(nearprim._Degree, method)):
            calls.append([route, self.m, 0])
            inside.append(calls[-1])
            try:
                return wrapped(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(nearprim._Degree, method, tracking)

    def recording(reduced, pivots, ncols):
        if inside:
            inside[-1][2] += 1
        return kernel_of_rref(reduced, pivots, ncols)

    monkeypatch.setattr(exactq, "_kernel_of_rref", recording)
    return calls


def _eliminated(calls, route):
    return sorted({m for route_, m, eliminated in calls if route_ == route and eliminated})


@pytest.mark.parametrize("kind, bound, m", [("u", 12, 12), ("so", 28, 28)])
def test_scaled_rows_certify_every_order_and_keep_every_subspace(monkeypatch, kind, bound, m):
    """Scaling every coproduct coefficient of degree m by the word-size
    prime 2^31 - 1 keeps each kernel over Q, though modulo that prime it
    loses all rank.  The certificate counts over Q, so neither route
    eliminates, in that degree or any other, and every kernel and
    restricted subspace stays as it was."""
    model = hopf_model(kind, bound)
    nearprim._degree.cache_clear()
    clean = _all_subspaces(model, bound)
    p = 2**31 - 1
    original = nearprim._delta_bar_slice

    @lru_cache(maxsize=None)
    def scaled(kind_, bound_, m_):
        basis, columns = original(kind_, bound_, m_)
        if m_ != m:
            return basis, columns
        return basis, tuple({key: p * c for key, c in col.items()} for col in columns)

    monkeypatch.setattr(nearprim, "_delta_bar_slice", scaled)
    calls = _record_eliminations(monkeypatch)
    assert verify_equivalence(model, bound).all_passed
    assert _eliminated(calls, "kernel") == []
    assert _eliminated(calls, "restricted") == []
    assert _all_subspaces(model, bound) == clean


@pytest.mark.parametrize("kind, bound, m", [("u", 12, 12), ("so", 28, 28)])
def test_an_order_the_echelon_refuses_falls_back_and_keeps_every_subspace(
    monkeypatch, kind, bound, m
):
    """Degree m has a restricted order whose rows start and end in too few
    distinct columns, so only the echelon can certify it.  Refused there,
    the route falls back to elimination, in that degree and no other; the
    kernel route counts first columns and never asks.  Every kernel and
    restricted subspace stays as it was."""
    model = hopf_model(kind, bound)
    nearprim._degree.cache_clear()
    clean = _all_subspaces(model, bound)
    calls = _record_eliminations(monkeypatch)
    echelon = exactq._echelon_reaches

    def refused_in_degree_m(rows, target):
        return calls[-1][1] != m and echelon(rows, target)

    monkeypatch.setattr(exactq, "_echelon_reaches", refused_in_degree_m)
    nearprim._degree.cache_clear()
    assert verify_equivalence(model, bound).all_passed
    assert _eliminated(calls, "kernel") == []
    assert _eliminated(calls, "restricted") == [m]
    assert _all_subspaces(model, bound) == clean


@pytest.mark.parametrize("kind, bound", [("u", 16), ("so", 28)])
def test_every_order_falls_back_and_keeps_every_subspace_entry_by_entry(
    monkeypatch, kind, bound
):
    """With the certificate refused everywhere, every order of both routes
    gets the exact kernel of its own rows from the elimination core, and
    every kernel, closed-form span and restricted kernel keeps the rows and
    pivots of the certified run, entry by entry."""
    model = hopf_model(kind, bound)

    def rows_and_pivots():
        nearprim._degree.cache_clear()
        subspaces = _all_subspaces(model, bound)
        for m, d, _ in list(subspaces):
            subspaces[m, d, "span"] = near_primitive_span(model, m, d)
        return {key: (s.rows, s.pivots) for key, s in subspaces.items()}

    certified = rows_and_pivots()
    blocks = {
        m: len(nearprim._degree(kind, bound, m).blocks())
        for m in range(model.step, bound + 1, model.step)
    }
    calls = _record_eliminations(monkeypatch)
    monkeypatch.setattr(exactq, "_rank_reaches", lambda rows, target: False)
    nearprim._degree.cache_clear()
    assert verify_equivalence(model, bound).all_passed
    assert {m for route, m, _ in calls if route == "kernel"} == set(blocks)
    assert any(route == "restricted" for route, _, _ in calls)
    for route, m, eliminated in calls:
        assert eliminated == (blocks[m] if route == "kernel" else 1)
    assert rows_and_pivots() == certified


@pytest.mark.parametrize(
    "kind, bound", [("u", 14), ("u", 16), ("u", 28), ("so", 24), ("so", 28), ("so", 48)]
)
def test_the_certificate_serves_every_degree_without_elimination(monkeypatch, kind, bound):
    """On the true closed form no degree of either route falls back to
    elimination."""
    calls = _record_eliminations(monkeypatch)
    nearprim._degree.cache_clear()
    assert verify_equivalence(hopf_model(kind, bound), bound).all_passed
    assert _eliminated(calls, "kernel") == []
    assert _eliminated(calls, "restricted") == []
    assert len([c for c in calls if c[0] == "kernel"]) == bound // hopf_model(kind, bound).step


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_the_kernel_rank_is_the_count_of_distinct_leading_products(kind, bound):
    """The fact the kernel route's certificate rests on, from the pair-by-pair
    coproduct alone, with no elimination and no echelon: each row
    (ea, eb) has one longest column, ea*eb, with entry prod C(gamma_i, ea_i),
    and in every order d the rows with |eb| >= d have exactly
    ncols - dim S_d distinct products ea*eb."""
    model = hopf_model(kind, bound)
    for m in range(model.step, bound + 1, model.step):
        ncols = len(enumerate_monomials(model.generators, m))
        rows = coproduct_rows_by_pairs(model, m)
        for (ea, eb), row in rows.items():
            longest = max(map(sum, row))
            gamma = tuple(a + b for a, b in zip(ea, eb))
            assert [g for g in row if sum(g) == longest] == [gamma]
            assert row[gamma] == whitney_leading_entry(ea, eb)
        for d in range(1, m + 1):
            closed_form = near_primitive_monomials(model, m, d)
            assert distinct_products(model.generators, rows, d) == ncols - len(closed_form)


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_the_product_is_the_first_column_of_every_coproduct_row(kind, bound):
    """In the canonical order of the degree's basis, descending lex, the
    product ea*eb is the first nonzero column of row (ea, eb): every other
    monomial of the row coarsens it, and the refinement sorts first.  So
    the distinct first columns of the rows with |eb| >= d are the distinct
    products, and they number the kernel's codimension."""
    model = hopf_model(kind, bound)
    for m in range(model.step, bound + 1, model.step):
        basis = enumerate_monomials(model.generators, m)
        assert basis == sorted(basis, reverse=True)
        position = {gamma: j for j, gamma in enumerate(basis)}
        for (ea, eb), row in coproduct_rows_by_pairs(model, m).items():
            gamma = tuple(a + b for a, b in zip(ea, eb))
            assert min(map(position.__getitem__, row)) == position[gamma]


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_the_closed_form_is_read_from_the_integer_table_without_elimination(
    monkeypatch, kind, bound
):
    """Every closed-form Q^lam read from the model's integer table equals
    its expansion through `from_primitive_basis`, term by term, as a
    polynomial and as coordinates.  Each is Newton triangular: its one
    support monomial of least length is c^lam, with coefficient
    prod((-1)^(i-1) i)^lam_i, so these are distinct within a slice and the
    vectors peel.  Building every closed-form span therefore calls the
    elimination core not once."""
    model = hopf_model(kind, bound)
    eliminations = []
    original = exactq._core.rref_int

    def recording(rows, ncols):
        eliminations.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(exactq._core, "rref_int", recording)
    nearprim._degree.cache_clear()
    for m in range(model.step, bound + 1, model.step):
        state = nearprim._degree(kind, bound, m)
        closed_form = set()
        for d in range(1, m + 1):
            monomials = state.monomials(d)
            assert state.span(d).dim == len(monomials)
            closed_form.update(monomials)
        for e in closed_form:
            expanded = model.from_primitive_basis(Polynomial.from_monomial(model.primitives, e))
            assert state.primitive(e).terms == expanded.terms
            assert state.coordinates(e) == degree_slice_vector(expanded, m)
            least = min(map(sum, expanded.terms))
            assert [g for g in expanded.terms if sum(g) == least] == [e]
            assert expanded.terms[e] == prod(((-1) ** (i - 1) * i) ** k for i, k in enumerate(e, 1))
    assert eliminations == []
    # A term off the slice is refused, as `degree_slice_vector` refuses it.
    q1 = (1,) + (0,) * (model.ngens - 1)
    with pytest.raises(DimensionMismatch, match="is not in the slice basis"):
        state.coordinates(q1)
    # Past the bound a slot could carry, so the table refuses.
    with pytest.raises(QueryError, match=f"above the model bound {bound}"):
        model.primitive_monomial((bound // model.step + 1,) + (0,) * (model.ngens - 1))
