"""MMM-class algebras: hat, the K ideal, and the invariance decision."""

import random
from fractions import Fraction
from functools import cache

import pytest

from oracles import l_class_oracle, power_sum_in_elementary
from mmmkit.errors import AlphabetMismatch, InhomogeneousError, QueryError
from mmmkit.exactq import Subspace, subspace_equal, subspace_intersection
from mmmkit.gradedalg import (
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    parse_poly,
    poly_to_terms,
    terms_to_text,
)
from mmmkit.mmm import MMMAlgebra
from mmmkit.hopfmodel import hopf_model, l_class_component, restrict

# One algebra per (flavor, d, bound) for the whole module.
mmm_algebra = cache(MMMAlgebra)


def restricted_poly(alg, text):
    return parse_poly(text, alg.restricted.alphabet)


def slice_vec(alg, x, n):
    return degree_slice_vector(x, n)


def test_algebra_shapes_and_parity():
    oriented2 = MMMAlgebra("so", 2, 8)
    assert oriented2.shift == 2
    assert oriented2.alphabet.names[:3] == ("E2_1", "E4_1", "E6_1")
    assert oriented2.display_names[:3] == ("e1", "e2", "e3")
    assert not any(oriented2.alphabet.parities)

    oriented3 = MMMAlgebra("so", 3, 13)
    assert oriented3.alphabet.names == ("E1_1", "E5_1", "E9_1", "E13_1")
    assert all(oriented3.alphabet.parities)  # odd d: all exterior

    complex1 = MMMAlgebra("u", 1, 8)
    assert complex1.shift == 2
    assert complex1.display_names == ("e1", "e2", "e3", "e4")

    oriented4 = MMMAlgebra("so", 4, 8)
    assert oriented4.display_names is None
    # cohomological degree 8 of Q[p1, e] has the three monomials p1^2, p1*e, e^2
    assert [n for n in oriented4.alphabet.names if n.startswith("E4_")] == [
        "E4_1",
        "E4_2",
        "E4_3",
    ]
    assert not any(oriented4.alphabet.parities)

    with pytest.raises(QueryError):
        MMMAlgebra("sp", 2, 8)
    with pytest.raises(QueryError):
        MMMAlgebra("so", 0, 8)
    with pytest.raises(QueryError):
        MMMAlgebra("so", 2, 0)


def test_parse_aliases_and_display():
    alg = mmm_algebra("so", 2, 10)
    assert alg.parse("e3") == alg.parse("E6_1")
    names = alg.display_names
    assert terms_to_text(poly_to_terms(alg.parse("e1*e2"), names)) == "e1*e2"
    assert terms_to_text(poly_to_terms(alg.parse("2*e2 - e1^2"), names)) == "-e1^2 + 2*e2"
    plain = mmm_algebra("so", 4, 8)
    assert plain.display_names is None
    assert format_poly(plain.parse("E4_2")) == "E4_2"


def test_hat_examples():
    alg = mmm_algebra("so", 2, 12)
    e = restricted_poly(alg, "e")
    for i in range(1, 6):
        assert alg.hat(e ** (i + 1)) == alg.parse(f"e{i}")
    assert alg.hat(e).is_zero()
    assert alg.hat(Polynomial.zero(alg.restricted.alphabet)).is_zero()

    alg4 = mmm_algebra("so", 4, 8)
    boundary = restricted_poly(alg4, "p1 + e")  # both degree 4 = d
    assert alg4.hat(boundary).is_zero()
    assert not alg4.hat(restricted_poly(alg4, "e^2")).is_zero()
    with pytest.raises(InhomogeneousError):
        alg4.hat(restricted_poly(alg4, "p1 + e^2"))  # degrees 4 and 8 mixed

    with pytest.raises(InhomogeneousError):
        alg.hat(restricted_poly(alg, "e + e^2"))
    with pytest.raises(AlphabetMismatch):
        alg.hat(alg.parse("e1"))
    with pytest.raises(QueryError):
        alg.hat(restricted_poly(alg, "e^20"))


def test_hat_sends_each_monomial_to_its_generator():
    """E<n>_<k> is the hat of the k-th canonical restricted monomial of
    cohomological degree n + shift, and hat is linear."""
    rng = random.Random(61)
    for kind, d, bound in (("so", 2, 10), ("so", 3, 13), ("u", 2, 8)):
        alg = mmm_algebra(kind, d, bound)
        for cohdeg in range(alg.shift + 1, alg.shift + bound + 1):
            monos = enumerate_monomials(alg.restricted.alphabet, cohdeg)
            if not monos:
                continue
            coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in monos]
            expected = Polynomial.zero(alg.alphabet)
            for k, (mono, c) in enumerate(zip(monos, coeffs), start=1):
                generator = alg.parse(f"E{cohdeg - alg.shift}_{k}")
                assert alg.hat(Polynomial.from_monomial(alg.restricted.alphabet, mono)) == generator
                expected = expected + c * generator
            poly = Polynomial(alg.restricted.alphabet, dict(zip(monos, coeffs)))
            assert alg.hat(poly) == expected


def test_hat_injective_on_slices():
    alg = mmm_algebra("so", 4, 8)
    for cohdeg in range(alg.shift + 1, alg.shift + alg.degree_bound + 1):
        images = []
        for mono in enumerate_monomials(alg.restricted.alphabet, cohdeg):
            img = alg.hat(Polynomial.from_monomial(alg.restricted.alphabet, mono))
            assert not img.is_zero()
            images.append(img)
        assert len({tuple(sorted(p.terms)) for p in images}) == len(images)


def test_k_ideal_generators_d3():
    alg = mmm_algebra("so", 3, 13)
    gens = alg.k_ideal_generators()
    assert gens == [
        alg.parse("1/3*E1_1"),
        alg.parse("-1/45*E5_1"),
        alg.parse("2/945*E9_1"),
        alg.parse("-1/4725*E13_1"),
    ]


def test_k_ideal_generators_d5_start_at_l2():
    """L_1 restricts to (1/3) p1, which is nonzero on BSO(5) but sits in
    degree 4 <= d, so the K generators start with the L_2 image."""
    alg = mmm_algebra("so", 5, 8)
    model = alg.model
    l1_image = restrict(model, 5, l_class_component(model, 1))
    assert l1_image == Fraction(1, 3) * restricted_poly(alg, "p1")
    gens = alg.k_ideal_generators()
    assert gens[0] == alg.parse("7/45*E3_2 - 1/45*E3_1")
    assert all(g.homogeneous_degree() >= 3 for g in gens)


def test_k_ideal_generators_d7():
    """BSO(7) keeps p1, p2, p3: L_2, L_3 restrict injectively and L_4 loses
    only its p4 term."""
    alg = mmm_algebra("so", 7, 9)
    assert alg.hat(restricted_poly(alg, "p1*p3")) == alg.parse("E9_3")
    assert alg.k_ideal_generators() == [
        alg.parse("-1/45*E1_1 + 7/45*E1_2"),
        alg.parse("2/945*E5_1 - 13/945*E5_2 + 62/945*E5_3"),
        alg.parse("-3/14175*E9_1 + 22/14175*E9_2 - 71/14175*E9_3 - 19/14175*E9_4"),
    ]


def test_k_ideal_requires_odd_oriented():
    with pytest.raises(QueryError):
        mmm_algebra("so", 2, 8).k_ideal_generators()
    with pytest.raises(QueryError):
        mmm_algebra("u", 1, 8).k_ideal_slice(2)


def test_k_ideal_slice_d3():
    alg = mmm_algebra("so", 3, 13)
    s1 = alg.k_ideal_slice(1)
    assert s1.dim == 1
    assert s1.contains(slice_vec(alg, alg.parse("E1_1"), 1))

    assert alg.k_ideal_slice(2).dim == 0  # exterior square of the lone kappa

    s5 = alg.k_ideal_slice(5)
    assert s5.dim == 1
    assert s5.contains(slice_vec(alg, alg.parse("E5_1"), 5))

    s6 = alg.k_ideal_slice(6)
    assert s6.dim == 1
    assert s6.contains(slice_vec(alg, alg.parse("E1_1*E5_1"), 6))

    with pytest.raises(QueryError):
        alg.k_ideal_slice(0)
    with pytest.raises(QueryError):
        alg.k_ideal_slice(14)  # above the bound 13


def test_k_slice_linear_part_is_kappa_span():
    """Intersecting the K slice with the generator-linear slice recovers the
    scalar span of the degree-n generators, the split used by the decision."""
    for d, bound in ((3, 13), (5, 11)):
        alg = mmm_algebra("so", d, bound)
        gens = alg.k_ideal_generators()
        for n in range(1, bound + 1):
            basis = enumerate_monomials(alg.alphabet, n)
            if not basis:
                continue
            unit_vectors = []
            for i, e in enumerate(basis):
                if sum(e) == 1:
                    v = [Fraction(0)] * len(basis)
                    v[i] = Fraction(1)
                    unit_vectors.append(v)
            linear = Subspace.from_vectors(len(basis), unit_vectors)
            kappa_vectors = [
                slice_vec(alg, g, n) for g in gens if g.homogeneous_degree() == n
            ]
            assert subspace_equal(
                subspace_intersection(alg.k_ideal_slice(n), linear),
                Subspace.from_vectors(len(basis), kappa_vectors),
            )


def test_invariant_space_oriented_two():
    alg = mmm_algebra("so", 2, 40)
    for n in range(1, 41):
        space = alg.bordism_invariant_space(n)
        if n % 4 == 2:
            assert space.dim == 1
            assert space.contains(slice_vec(alg, alg.parse(f"e{n // 2}"), n))
        else:
            assert space.dim == 0
    with pytest.raises(QueryError):
        alg.bordism_invariant_space(0)
    with pytest.raises(QueryError):
        alg.bordism_invariant_space(41)


def test_invariant_space_complex_one():
    alg = mmm_algebra("u", 1, 40)
    for n in range(2, 41, 2):
        space = alg.bordism_invariant_space(n)
        assert space.dim == 1
        assert space.contains(slice_vec(alg, alg.parse(f"e{n // 2}"), n))
    for n in range(1, 41, 2):
        assert alg.bordism_invariant_space(n).dim == 0


def test_verdict_examples_oriented_two():
    alg = mmm_algebra("so", 2, 12)

    yes = alg.is_bordism_invariant(alg.parse("e3"))
    assert yes.decision and bool(yes)
    assert yes.witness == restricted_poly(alg, "e^4")
    assert yes.correction.is_zero()

    no = alg.is_bordism_invariant(alg.parse("e2"))
    assert not no.decision
    assert no.reason == "notInNPdImage"

    square = alg.is_bordism_invariant(alg.parse("e1*e1"))
    assert not square.decision
    assert square.reason == "notPrimitive"

    assert alg.is_bordism_invariant(alg.parse("e1")).witness == restricted_poly(alg, "e^2")
    assert alg.is_bordism_invariant(alg.parse("e5")).witness == restricted_poly(alg, "e^6")


def test_verdict_trivial_cases_and_errors():
    alg = mmm_algebra("so", 2, 12)
    zero = alg.is_bordism_invariant(Polynomial.zero(alg.alphabet))
    assert zero.decision and zero.witness.is_zero() and zero.correction.is_zero()
    with pytest.raises(QueryError):
        alg.is_bordism_invariant(Polynomial.constant(alg.alphabet, 2))
    with pytest.raises(InhomogeneousError):
        alg.is_bordism_invariant(alg.parse("e1 + e2"))
    with pytest.raises(AlphabetMismatch):
        alg.is_bordism_invariant(restricted_poly(alg, "e^2"))
    with pytest.raises(QueryError):
        alg.is_bordism_invariant(alg.parse("e1^6"))  # degree 12 kept, 14 not
        alg.is_bordism_invariant(alg.parse("e1^7"))


def test_verdicts_complex_one():
    alg = mmm_algebra("u", 1, 16)
    for k in range(1, 9):
        verdict = alg.is_bordism_invariant(alg.parse(f"e{k}"))
        assert verdict.decision
        assert verdict.witness == parse_poly(f"c1^{k + 1}", alg.restricted.alphabet)
        assert verdict.correction.is_zero()
    assert alg.is_bordism_invariant(alg.parse("e1*e2")).reason == "notPrimitive"
    assert alg.is_bordism_invariant(alg.parse("e1^2 + e2")).reason == "notPrimitive"


def test_odd_d_generators_all_invariant_d3():
    """With a single restricted generator, every bare generator is the hat
    of a power-sum restriction, and the K ideal absorbs all decomposables."""
    alg = mmm_algebra("so", 3, 13)
    for name in alg.alphabet.names:
        verdict = alg.is_bordism_invariant(alg.parse(name))
        assert verdict.decision
        rebuilt = alg.hat(verdict.witness) + verdict.correction
        assert rebuilt == alg.parse(name)

    prod = alg.parse("E1_1*E5_1")
    verdict = alg.is_bordism_invariant(prod)
    assert verdict.decision
    assert verdict.witness.is_zero()
    assert verdict.correction == prod
    assert alg.hat(verdict.witness) + verdict.correction == prod


def test_odd_d_failure_is_backed_by_root_oracle():
    """At d=5, n=11 the invariant space is a proper subspace: the slice is
    spanned by p1^4, p1^2 p2, p2^2 images while NP and the L_4 generator
    only give two directions.  The oracle recomputes both directions from
    formal roots; the package must reject a vector outside their span."""
    alg = mmm_algebra("so", 5, 11)
    model = alg.model
    rbasis = enumerate_monomials(alg.restricted.alphabet, 16)
    assert len(rbasis) == 3

    def restricted_vec(poly_in_ps):
        return degree_slice_vector(restrict(model, 5, poly_in_ps), 16)

    s4 = power_sum_in_elementary("so", 4, model.generators)
    l4 = l_class_oracle(4, model.generators)[3]
    oracle_span = Subspace.from_vectors(
        3, [restricted_vec(s4), restricted_vec(l4)]
    )
    assert oracle_span.dim == 2

    p1_fourth = degree_slice_vector(restricted_poly(alg, "p1^4"), 16)
    assert not oracle_span.contains(p1_fourth)

    verdict = alg.is_bordism_invariant(alg.parse("E11_1"))
    assert not verdict.decision
    assert verdict.reason == "notInNPdImage"
    assert subspace_equal(
        alg.bordism_invariant_space(11),
        Subspace.from_vectors(
            len(enumerate_monomials(alg.alphabet, 11)),
            [
                slice_vec(alg, alg.hat(restrict(model, 5, s4)), 11),
                slice_vec(alg, alg.hat(restrict(model, 5, l4)), 11),
            ],
        ),
    )


def test_odd_d_unabsorbed_decomposable():
    """Some degree-10 decomposable at d=5 falls outside the K ideal."""
    alg = mmm_algebra("so", 5, 11)
    monos = [e for e in enumerate_monomials(alg.alphabet, 10) if sum(e) > 1]
    assert monos
    verdicts = [
        alg.is_bordism_invariant(Polynomial.from_monomial(alg.alphabet, e))
        for e in monos
    ]
    failing = [v for v in verdicts if not v.decision]
    assert failing
    assert all(v.reason == "notPrimitive" for v in failing)
    k_slice = alg.k_ideal_slice(10)
    for mono, verdict in zip(monos, verdicts):
        vec = slice_vec(alg, Polynomial.from_monomial(alg.alphabet, mono), 10)
        assert verdict.decision == k_slice.contains(vec)


def test_witness_re_expansion_across_invariant_bases():
    """Every basis class of the invariant space tests invariant, and its
    witness and correction rebuild it; odd d included, where the space is
    the smaller of the two (see the xfail below)."""
    for kind, d, bound in (
        ("so", 2, 20), ("u", 1, 12), ("so", 3, 9), ("so", 5, 20), ("so", 7, 20)
    ):
        alg = mmm_algebra(kind, d, bound)
        for n in range(1, bound + 1):
            basis = enumerate_monomials(alg.alphabet, n)
            space = alg.bordism_invariant_space(n)
            for row in space.basis:
                x = Polynomial(alg.alphabet, dict(zip(basis, row)))
                verdict = alg.is_bordism_invariant(x)
                assert verdict.decision
                assert alg.hat(verdict.witness) + verdict.correction == x


@pytest.mark.xfail(
    strict=True,
    reason="for odd d, is_bordism_invariant accepts hat(NP_d) + K_n while"
    " bordism_invariant_space adds only the linear part of K_n",
)
@pytest.mark.parametrize("d, expr", [(5, "E3_1*E3_2"), (3, "E1_1*E5_1")])
def test_odd_d_space_holds_every_class_the_test_accepts(d, expr):
    """`mmm test` and `mmm space` must agree: a class tested invariant lies
    in the invariant space of its degree.  Both classes below are proper
    products in the K ideal, so the test says yes and today's space, which
    keeps only K_n's linear part, leaves them out."""
    alg = mmm_algebra("so", d, 6)
    x = alg.parse(expr)
    assert alg.is_bordism_invariant(x).decision
    assert alg.bordism_invariant_space(6).contains(slice_vec(alg, x, 6))
