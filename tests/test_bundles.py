"""Projective-bundle rings, fibre integration, characteristic numbers.

The expected numbers come from oracles.RankTwoOracle, a hand-rolled
four/eight-element ring model that shares nothing with the bundles module.
"""

import random
from fractions import Fraction

import pytest

from oracles import (
    RankTwoOracle,
    biproj,
    mmm_class_number,
    point_ring,
    product_bundle,
    ring_basis,
)
from mmmkit.errors import DimensionMismatch, InhomogeneousError, QueryError
from mmmkit.gradedalg import Polynomial, enumerate_monomials, parse_poly
from mmmkit.mmm import MMMAlgebra
from mmmkit.bundles import (
    hirzebruch,
    line_bundle_sum,
    mmm_number,
    product_ring,
    projective_space,
    projectivize,
    total_space_char_numbers,
    verify_motivating_identity,
)

BIDEGREES = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]


def ring_poly(ring, text):
    return parse_poly(text, ring.alphabet)


def test_point_and_projective_space_rings():
    pt = point_ring()
    assert pt.evaluate(pt.one()) == 1

    cp1 = projective_space(1)
    assert cp1.top_degree == 2
    assert ring_basis(cp1, 0) == [(0,)] and ring_basis(cp1, 2) == [(1,)]
    assert ring_basis(cp1, 4) == []
    assert cp1.evaluate(ring_poly(cp1, "h")) == 1
    assert cp1.mul(ring_poly(cp1, "h"), ring_poly(cp1, "h")).is_zero()

    cp2 = projective_space(2)
    assert cp2.evaluate(cp2.pow(ring_poly(cp2, "h"), 2)) == 1
    assert cp2.chern_class(1) == ring_poly(cp2, "3*h")
    assert cp2.chern_class(2) == ring_poly(cp2, "3*h^2")
    with pytest.raises(QueryError):
        projective_space(0)


def test_product_ring_kunneth():
    ring = product_ring(projective_space(1), projective_space(1))
    assert ring.alphabet.names == ("h1", "h2")
    assert ring.top_degree == 4
    assert len(ring_basis(ring, 2)) == 2
    assert ring.evaluate(ring_poly(ring, "h1*h2")) == 1
    assert ring.evaluate(ring_poly(ring, "h1^2")) == 0
    assert ring.mul(ring_poly(ring, "h1"), ring_poly(ring, "h1")).is_zero()
    # tangent data multiplies across factors
    assert ring.chern_class(1) == ring_poly(ring, "2*h1 + 2*h2")
    assert ring.chern_class(2) == ring_poly(ring, "4*h1*h2")


def test_poincare_duality_dimension_symmetry():
    rings = [
        projective_space(1),
        projective_space(2),
        product_ring(projective_space(1), projective_space(1)),
        hirzebruch(1).total,
        biproj(2, 1).total,
    ]
    for ring in rings:
        top = ring.top_degree
        for m in range(0, top + 1, 2):
            assert len(ring_basis(ring, m)) == len(ring_basis(ring, top - m))
        assert len(ring_basis(ring, top)) == 1
        top_poly = Polynomial.from_monomial(ring.alphabet, ring_basis(ring, top)[0])
        assert ring.evaluate(top_poly) == 1


def all_sample_bundles():
    bundles = [hirzebruch(k) for k in range(5)]
    bundles.append(product_bundle(projective_space(1)))
    bundles.extend(biproj(a, b) for a, b in ((0, 0), (1, 1), (2, 1), (-2, 2)))
    return bundles


def substitute_into(poly, target, offset):
    """``poly`` over ``target`` by generic substitution: source generator i
    goes to target generator offset + i."""
    images = [
        Polynomial.generator(target, target.names[offset + i])
        for i in range(len(poly.alphabet))
    ]
    return poly.substitute(target, images)


def random_class(rng, ring):
    """A random class of every degree up to one past the top, reduced or not."""
    terms = {}
    for m in range(0, ring.top_degree + 3, 2):
        for exp in enumerate_monomials(ring.alphabet, m):
            terms[exp] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Polynomial(ring.alphabet, terms)


def test_pullback_equals_substitution_then_reduction():
    rng = random.Random(15)
    for bundle in all_sample_bundles():
        for _ in range(5):
            x = random_class(rng, bundle.base)
            expected = bundle.total.reduce(substitute_into(x, bundle.total.alphabet, 0))
            assert bundle.pullback(x) == expected, bundle.label


def test_product_ring_rules_and_tangent_equal_substitution_then_reduction():
    factors = [
        point_ring(),
        projective_space(1),
        projective_space(2),
        hirzebruch(1).total,
        biproj(2, 1).total,
    ]
    for a in factors:
        for b in factors:
            ring = product_ring(a, b)
            alphabet, offset = ring.alphabet, len(a.alphabet)
            rules = {}
            for factor, shift in ((a, 0), (b, offset)):
                for gi, (cap, repl) in factor.rules.items():
                    image = None if repl is None else substitute_into(repl, alphabet, shift)
                    rules[shift + gi] = (cap, image)
            assert ring.rules == rules, (a, b)
            tangent = substitute_into(a.tangent_chern, alphabet, 0) * substitute_into(
                b.tangent_chern, alphabet, offset
            )
            assert ring.tangent_chern == ring.reduce(tangent), (a, b)
            assert ring.evaluate(Polynomial.from_monomial(alphabet, ring.top_monomial)) == 1


@pytest.mark.parametrize(
    "base, twists",
    [
        (projective_space(1), [(0,), (k,)]) for k in range(-2, 3)
    ]
    + [
        (projective_space(2), [(0,), (1,), (2,)]),
        (product_ring(projective_space(1), projective_space(1)), [(0, 0), (2, 1)]),
        (product_ring(projective_space(1), projective_space(1)), [(0, 0), (-2, 2)]),
    ],
)
def test_projectivize_rules_and_tangent_equal_substitution_then_reduction(base, twists):
    chern_of_v = line_bundle_sum(base, twists)
    bundle = projectivize(base, chern_of_v)
    total, r = bundle.total, len(twists)
    alphabet = total.alphabet
    one, xi = Polynomial.one(alphabet), Polynomial.generator(alphabet, "xi")
    lifted = [substitute_into(c, alphabet, 0) for c in chern_of_v]
    relation = Polynomial.zero(alphabet)
    vertical = (one + xi) ** r
    for i, c in enumerate(lifted, start=1):
        relation = relation - c * xi ** (r - i)
        vertical = vertical + c * (one + xi) ** (r - i)
    rules = {
        gi: (cap, None if repl is None else substitute_into(repl, alphabet, 0))
        for gi, (cap, repl) in base.rules.items()
    }
    rules[len(base.alphabet)] = (r, None if relation.is_zero() else relation)
    assert total.rules == rules
    assert bundle.vertical_chern == total.reduce(vertical)
    tangent = substitute_into(base.tangent_chern, alphabet, 0) * bundle.vertical_chern
    assert total.tangent_chern == total.reduce(tangent)


def test_fibre_integration_normalization_and_projection():
    rng = random.Random(81)
    for bundle in all_sample_bundles():
        total, base = bundle.total, bundle.base
        xi = Polynomial.generator(total.alphabet, total.alphabet.names[bundle.xi_index])
        assert bundle.fibre_integrate(xi) == base.one()
        assert bundle.fibre_integrate(total.one()).is_zero()
        # pi_! pi* = 0, and pi_!(pi*(a) xi) = a
        for m in range(2, base.top_degree + 1, 2):
            for exp in ring_basis(base, m):
                a = Polynomial.from_monomial(base.alphabet, exp)
                assert bundle.fibre_integrate(bundle.pullback(a)).is_zero()
                assert bundle.fibre_integrate(total.mul(bundle.pullback(a), xi)) == a
        # base-linearity on random combinations
        for _ in range(4):
            t = total.reduce(
                Polynomial(
                    total.alphabet,
                    {
                        exp: Fraction(rng.randint(-3, 3))
                        for m in range(0, total.top_degree + 1, 2)
                        for exp in ring_basis(total, m)
                    },
                )
            )
            a = Polynomial.from_monomial(base.alphabet, rng.choice(ring_basis(base, 2)))
            lhs = bundle.fibre_integrate(total.mul(bundle.pullback(a), t))
            rhs = base.mul(a, bundle.fibre_integrate(t))
            assert lhs == rhs


def test_fibre_euler_number_is_two():
    for bundle in all_sample_bundles():
        assert bundle.fibre_euler_number() == 2


def test_fibre_euler_number_is_the_rank():
    """chi(CP^{r-1}) = r: rank-3 projectivizations have fibre CP^2."""
    for base in (projective_space(1), projective_space(2)):
        bundle = projectivize(base, line_bundle_sum(base, [(0,), (1,), (2,)]))
        assert bundle.rank == 3
        assert bundle.fibre_euler_number() == 3


def test_hirzebruch_char_numbers_match_oracle():
    for k in range(5):
        oracle = RankTwoOracle((k,))
        numbers = total_space_char_numbers(hirzebruch(k))
        assert set(numbers) == {"c1^2", "c2", "p1"}
        assert numbers["c1^2"] == oracle.chern_number([1, 1]) == 8
        assert numbers["c2"] == oracle.chern_number([2]) == 4
        assert numbers["p1"] == oracle.p1_number() == 0


def test_hirzebruch_e1_matches_oracle_and_p1():
    """e_1 sharp coincides with the total space's p1-number (scalar one),
    trivially here since every F_k has signature zero."""
    for k in range(5):
        bundle = hirzebruch(k)
        oracle = RankTwoOracle((k,))
        value = mmm_number(bundle, [1])
        assert value == oracle.e_sharp([1]) == 0
        assert value == total_space_char_numbers(bundle)["p1"]


def test_trivial_bundle_two_construction_routes():
    via_twist = hirzebruch(0)
    via_product = product_bundle(projective_space(1))
    assert mmm_number(via_twist, [1]) == mmm_number(via_product, [1]) == 0
    assert total_space_char_numbers(via_twist) == total_space_char_numbers(via_product)
    assert via_twist.fibre_euler_number() == via_product.fibre_euler_number()


def test_biproj_numbers_match_oracle():
    for a, b in BIDEGREES:
        bundle = biproj(a, b)
        oracle = RankTwoOracle((a, b))
        assert mmm_number(bundle, [2]) == oracle.e_sharp([2]) == 4 * a * b
        # reported alongside, equality across fibrations deliberately unasserted
        assert mmm_number(bundle, [1, 1]) == oracle.e_sharp([1, 1]) == 0


def test_mmm_number_validation():
    bundle = hirzebruch(1)
    with pytest.raises(DimensionMismatch):
        mmm_number(bundle, [2])
    with pytest.raises(QueryError):
        mmm_number(bundle, [0])
    rank3 = projectivize(
        projective_space(1), line_bundle_sum(projective_space(1), [(0,), (0,), (1,)])
    )
    with pytest.raises(QueryError):
        mmm_number(rank3, [1])


def test_mmm_class_number_uses_aliased_algebra():
    alg = MMMAlgebra("so", 2, 8)
    for a, b in ((1, 1), (2, 1)):
        bundle = biproj(a, b)
        assert mmm_class_number(bundle, alg, alg.parse("e2")) == 4 * a * b
        assert mmm_class_number(bundle, alg, alg.parse("e1^2")) == 0
        assert mmm_class_number(bundle, alg, alg.parse("3*e2 - e1^2")) == 12 * a * b
    plain = MMMAlgebra("so", 4, 8)
    with pytest.raises(QueryError):
        mmm_class_number(bundle, plain, plain.parse("E4_1"))


def test_motivating_identity_all_bundles_all_degrees():
    for bundle in all_sample_bundles():
        top = bundle.total.top_degree
        twist = (
            tuple(int(t) for t in bundle.label.split("(")[1].split(")")[0].split(","))
            if "O(" in bundle.label or "O+O(" in bundle.label
            else None
        )
        for j in range(1, top // 4 + 1):
            report = verify_motivating_identity(bundle, j, flavor="so")
            assert report.equal, (bundle.label, "so", j)
            assert report.class_level_equal
        for j in range(1, top // 2 + 1):
            report = verify_motivating_identity(bundle, j, flavor="u")
            assert report.equal, (bundle.label, "u", j)
            if twist is not None:
                oracle = RankTwoOracle(twist)
                assert report.base_side == oracle.additive_base_side("u", j)


def test_motivating_identity_nonzero_case():
    report = verify_motivating_identity(biproj(2, 1), 3, flavor="u")
    assert report.total_side == Fraction(4, 3)
    assert report.base_side == Fraction(4, 3)
    assert report.equal


def test_motivating_identity_validation():
    bundle = hirzebruch(0)
    with pytest.raises(QueryError):
        verify_motivating_identity(bundle, 2, flavor="so")  # 4j = 8 > 4
    with pytest.raises(QueryError):
        verify_motivating_identity(bundle, 3, flavor="u")
    with pytest.raises(QueryError):
        verify_motivating_identity(bundle, 1, flavor="sp")


def test_projectivize_validation():
    cp1 = projective_space(1)
    with pytest.raises(QueryError):
        projectivize(cp1, [ring_poly(cp1, "h")])  # rank 1
    with pytest.raises(InhomogeneousError):
        projectivize(cp1, [ring_poly(cp1, "1 + h"), Polynomial.zero(cp1.alphabet)])
    with pytest.raises(DimensionMismatch):
        line_bundle_sum(cp1, [(0, 1)])
