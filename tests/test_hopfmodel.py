"""Hopf algebra models: Newton primitives, coproducts, restrictions, L-class.

Reference values come from tests/oracles.py, which expands everything over
raw formal roots instead of Newton recurrences or Bernoulli numbers.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    elementary_in_power_sums,
    l_class_by_fractions,
    l_class_oracle,
    power_sum_in_elementary,
    reduced_coproduct_by_pairs,
    reduced_coproduct_of,
    restrict_by_substitution,
    tensor_by_pairs,
    tensor_sum_by_pairs,
    unpacked_coproduct,
    x_over_tanh_series,
)
from mmmkit.errors import AlphabetMismatch, QueryError
from mmmkit.gradedalg import Polynomial, enumerate_monomials, parse_poly
from mmmkit.hopfmodel import (
    MAX_DEGREE_CAP,
    bernoulli,
    hopf_model,
    l_class_component,
    l_class_components,
    restrict,
    restricted_model,
    hopf_model as _hm,
)


def gen(model, i):
    return model.generator_poly(i)


def test_model_shapes():
    mu = hopf_model("u", 12)
    assert mu.step == 2 and mu.ngens == 6
    assert mu.generators.names == ("c1", "c2", "c3", "c4", "c5", "c6")
    assert mu.generators.degrees == (2, 4, 6, 8, 10, 12)
    assert mu.primitives.degrees == mu.generators.degrees

    ms = hopf_model("so", 16)
    assert ms.step == 4 and ms.ngens == 4
    assert ms.generators.names == ("p1", "p2", "p3", "p4")
    assert ms.generators.degrees == (4, 8, 12, 16)

    assert hopf_model("u", 12) is hopf_model("u", 12)
    with pytest.raises(QueryError):
        hopf_model("sp", 8)
    with pytest.raises(QueryError):
        hopf_model("u", MAX_DEGREE_CAP + 2)


@pytest.mark.parametrize("kind,jmax", [("u", 6), ("so", 6)])
def test_power_sums_match_root_oracle(kind, jmax):
    model = hopf_model(kind, model_bound(kind, jmax))
    for j in range(1, jmax + 1):
        assert model.power_sum(j) == power_sum_in_elementary(kind, j, model.generators)


def model_bound(kind, j):
    return (2 if kind == "u" else 4) * j


def test_power_sum_frozen_values():
    m = hopf_model("u", 8)
    c1, c2, c3 = (gen(m, i) for i in (1, 2, 3))
    assert m.power_sum(1) == c1
    assert m.power_sum(2) == c1**2 - 2 * c2
    assert m.power_sum(3) == c1**3 - 3 * c1 * c2 + 3 * c3
    with pytest.raises(QueryError):
        m.power_sum(5)
    with pytest.raises(QueryError):
        m.power_sum(0)


@pytest.mark.parametrize("kind", ["u", "so"])
def test_character_leading_coefficient(kind):
    """The first-generator power in s_j / j! carries weight exactly 1/j!."""
    step = 2 if kind == "u" else 4
    model = hopf_model(kind, step * 12)
    for j in range(1, 13):
        ch = model.character_component(j)
        pure_power = tuple(j if i == 0 else 0 for i in range(model.ngens))
        assert ch.terms[pure_power] == Fraction(1, factorial(j))


def test_primitive_basis_roundtrip():
    """A class rewritten over Q1, Q2, ... by the inverse Newton oracle
    expands back to itself."""
    from mmmkit.gradedalg import enumerate_monomials

    rng = random.Random(41)
    for kind in ("u", "so"):
        model = hopf_model(kind, 16)
        inverse = [
            elementary_in_power_sums(kind, j, model.primitives)
            for j in range(1, model.ngens + 1)
        ]
        for _ in range(10):
            m = model.step * rng.randint(0, model.ngens)
            exp = rng.choice(enumerate_monomials(model.generators, m))
            x = Polynomial.from_monomial(model.generators, exp, Fraction(rng.randint(1, 5), 3))
            q = x.substitute(model.primitives, inverse)
            assert model.from_primitive_basis(q) == x
    with pytest.raises(AlphabetMismatch):
        model.from_primitive_basis(x)  # over the generator alphabet


def _coproduct(model, x):
    """delta(x) for homogeneous x: the reduced coproduct with its end terms
    x (x) 1 and 1 (x) x added back, or 1 (x) 1 for the unit."""
    one = Polynomial.one(model.generators)
    if x.homogeneous_degree() == 0:
        return tensor_by_pairs(x, one)
    return tensor_sum_by_pairs(
        (1, reduced_coproduct_of(model, x)),
        (1, tensor_by_pairs(x, one)),
        (1, tensor_by_pairs(one, x)),
    )


def test_coproduct_whitney_rule():
    m = hopf_model("u", 8)
    expected = {}
    for i in range(4):
        left = gen(m, i) if i else Polynomial.one(m.generators)
        right = gen(m, 3 - i) if 3 - i else Polynomial.one(m.generators)
        expected = tensor_sum_by_pairs((1, expected), (1, tensor_by_pairs(left, right)))
    assert _coproduct(m, gen(m, 3)) == expected


def test_reduced_coproduct_examples():
    """One monomial in, its packed reduced coproduct out."""
    m = hopf_model("u", 8)
    shift = m.width * m.ngens
    c1 = (1, 0, 0, 0)
    assert m.reduced_coproduct(c1) == {}
    assert m.reduced_coproduct((0, 1, 0, 0)) == {m.pack(c1) + (m.pack(c1) << shift): 1}
    assert m.reduced_coproduct((2, 0, 0, 0)) == {m.pack(c1) + (m.pack(c1) << shift): 2}
    assert m.reduced_coproduct((0, 0, 0, 0)) == {}
    g1, g2 = gen(m, 1), gen(m, 2)
    assert reduced_coproduct_of(m, g2) == tensor_by_pairs(g1, g1)
    assert reduced_coproduct_of(m, g1 * g1) == tensor_by_pairs(g1, 2 * g1)

    ms = hopf_model("so", 8)
    p1 = gen(ms, 1)
    assert reduced_coproduct_of(ms, p1 * p1) == tensor_by_pairs(p1, 2 * p1)


def test_reduced_coproduct_matches_the_whitney_oracle():
    """The packed table equals the pair-by-pair product of the generators'
    Whitney sums on L-class components with Fraction coefficients, summed
    monomial by monomial, and on the longest monomials of a bound whose
    exponents fill its slots.  Every single monomial is checked below."""
    model = hopf_model("so", 32)
    for k in range(1, model.ngens + 1):
        l_k = l_class_component(model, k)
        assert reduced_coproduct_of(model, l_k) == reduced_coproduct_by_pairs(model, l_k)
    model = hopf_model("u", 24)  # 12 generators: 4-bit slots
    c1, c2 = gen(model, 1), gen(model, 2)
    for x in (c1**12, c1**10 * c2, c1**11 * 3 - c1**9 * c2 * 5):
        assert reduced_coproduct_of(model, x) == reduced_coproduct_by_pairs(model, x)
    dbar = unpacked_coproduct(model, model.reduced_coproduct((12,) + (0,) * 11))
    assert dbar[(1,) + (0,) * 11, (11,) + (0,) * 11] == 12


@pytest.mark.parametrize("kind, bound", [("u", 24), ("so", 40)])
def test_each_packed_reduced_coproduct_decodes_to_the_whitney_oracle(kind, bound):
    """Every monomial's packed reduced coproduct within two bounds decodes,
    key by key, to the pair-by-pair product of the generators' Whitney sums
    and holds no zero entry."""
    model = hopf_model(kind, bound)
    for m in range(0, bound + 1, model.step):
        for exp in enumerate_monomials(model.generators, m):
            packed = model.reduced_coproduct(exp)
            assert all(packed.values())
            x = Polynomial.from_monomial(model.generators, exp)
            assert unpacked_coproduct(model, packed) == reduced_coproduct_by_pairs(model, x)


def test_reduced_coproduct_refuses_input_above_the_model_bound():
    """Above the bound a monomial can have more factors than a slot holds,
    so the table refuses it and names its degree.  ``c1**30`` at u/24 used
    to be taken on wider slots."""
    model = hopf_model("u", 24)
    c1, c2 = gen(model, 1), gen(model, 2)
    for x, degree in ((c1**13, 26), (c1**30, 60), (c1**14 * c2**8, 60), (c2**7, 28)):
        (exp,) = x.terms
        with pytest.raises(QueryError, match=f"degree {degree} is above the model bound 24"):
            model.reduced_coproduct(exp)


def test_primitives_have_zero_reduced_coproduct():
    for kind, bound in (("u", 16), ("so", 32)):
        model = hopf_model(kind, bound)
        for j in range(1, model.ngens + 1):
            assert reduced_coproduct_of(model, model.power_sum(j)) == {}


def _triple(model, tensor, expand_left):
    """Compose the coproduct once more on one leg, as a three-leg dict.

    Legal without Koszul bookkeeping because every generator is even."""
    out = {}
    for (ea, eb), c in tensor.items():
        inner_exp = ea if expand_left else eb
        inner = _coproduct(model, Polynomial.from_monomial(model.generators, inner_exp))
        for (e1, e2), c2 in inner.items():
            key = (e1, e2, eb) if expand_left else (ea, e1, e2)
            out[key] = out.get(key, Fraction(0)) + c * c2
    return {k: v for k, v in out.items() if v}


def test_coproduct_coassociative_and_counital():
    rng = random.Random(42)
    for kind, bound in (("u", 10), ("so", 20)):
        model = hopf_model(kind, bound)
        samples = [gen(model, i) for i in range(1, model.ngens + 1)]
        for _ in range(6):
            m = model.step * rng.randint(1, model.ngens)
            exp = rng.choice(enumerate_monomials(model.generators, m))
            samples.append(Polynomial.from_monomial(model.generators, exp, rng.randint(1, 3)))
        unit = model.generators.unit()
        for x in samples:
            delta = _coproduct(model, x)
            assert _triple(model, delta, True) == _triple(model, delta, False)
            # counit: apply eps to the left leg, keep the right
            collapsed = {}
            for (ea, eb), c in delta.items():
                if ea == unit:
                    collapsed[eb] = collapsed.get(eb, Fraction(0)) + c
            assert Polynomial(model.generators, collapsed) == x


def test_restriction_examples():
    mu = hopf_model("u", 12)
    bu1 = restricted_model("u", 1)
    # everything above c1 dies; the character becomes the exponential series
    for j in range(1, 7):
        image = restrict(mu, 1, mu.character_component(j))
        assert image == Polynomial.from_monomial(bu1.alphabet, (j,), Fraction(1, factorial(j)))

    ms = hopf_model("so", 16)
    bso2 = restricted_model("so", 2)
    assert bso2.alphabet.names == ("e",)
    assert bso2.alphabet.degrees == (2,)
    assert restrict(ms, 2, gen(ms, 1)) == parse_poly("e^2", bso2.alphabet)
    assert restrict(ms, 2, gen(ms, 2)).is_zero()

    bso4 = restricted_model("so", 4)
    assert bso4.alphabet.names == ("p1", "e")
    assert restrict(ms, 4, gen(ms, 2)) == parse_poly("e^2", bso4.alphabet)
    assert restrict(ms, 4, gen(ms, 3)).is_zero()

    bso3 = restricted_model("so", 3)
    assert bso3.alphabet.names == ("p1",)
    assert restrict(ms, 3, gen(ms, 1)) == parse_poly("p1", bso3.alphabet)
    assert restrict(ms, 3, gen(ms, 2)).is_zero()


def test_restriction_is_a_ring_map():
    from mmmkit.gradedalg import enumerate_monomials

    rng = random.Random(43)
    model = hopf_model("so", 16)
    for d in (2, 3, 4, 5):
        for _ in range(8):
            degs = [model.step * rng.randint(0, model.ngens) for _ in range(2)]
            x, y = (
                Polynomial.from_monomial(
                    model.generators, rng.choice(enumerate_monomials(model.generators, m))
                )
                for m in degs
            )
            assert restrict(model, d, x * y) == restrict(model, d, x) * restrict(model, d, y)
            assert restrict(model, d, x + y) == restrict(model, d, x) + restrict(model, d, y)


def _random_polynomial(rng, model):
    """A random inhomogeneous polynomial with rational coefficients, over
    the first few generators so that most terms survive small ranks."""
    used = rng.randint(1, model.ngens)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = [0] * model.ngens
        for _ in range(rng.randint(0, 4)):
            exp[rng.randrange(used)] += rng.randint(1, 2)
        terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(model.generators, terms)


@pytest.mark.parametrize(
    "kind,bound,ds",
    [
        ("u", 24, range(1, 13)),
        ("so", 40, range(2, 13)),
        ("u", 8, range(1, 13)),  # d above the four generators
        ("so", 12, range(2, 13)),  # d/2 above the three generators
    ],
)
def test_restriction_matches_the_substitution_oracle(kind, bound, ds):
    """The exponent map equals evaluating the polynomial on the generators'
    images, with p_{d/2} sent to e^2 for even d."""
    rng = random.Random(f"{kind}{bound}")
    model = hopf_model(kind, bound)
    euler_terms = 0
    for d in ds:
        rm = restricted_model(kind, d)
        for _ in range(12):
            x = _random_polynomial(rng, model)
            image = restrict(model, d, x)
            assert image == restrict_by_substitution(model, d, x)
            if rm.euler_index is not None:
                euler_terms += sum(1 for e in image.terms if e[rm.euler_index])
    if kind == "so":
        assert euler_terms  # p_{d/2} -> e^2 was reached


def test_bernoulli_values():
    assert [bernoulli(n) for n in range(7)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
    ]
    assert bernoulli(12) == Fraction(-691, 2730)


def test_x_over_tanh_oracle_self_check():
    # classical expansion: 1 + x^2/3 - x^4/45 + 2 x^6/945 - x^8/4725
    assert x_over_tanh_series(5) == [
        Fraction(1),
        Fraction(1, 3),
        Fraction(-1, 45),
        Fraction(2, 945),
        Fraction(-1, 4725),
    ]


def test_l_class_matches_root_oracle():
    model = hopf_model("so", 24)
    expected = l_class_oracle(6, model.generators)  # six roots: exact up to L_6
    for k in range(1, 7):
        assert l_class_component(model, k) == expected[k - 1]
    assert l_class_components(model, 6) == [Polynomial.one(model.generators)] + expected


def test_the_integer_l_class_recursion_matches_the_fraction_recursion():
    """Entry by entry, as the root expansion gives them up to L_6 and as
    the Fraction recursion gives them up to L_12, over the full alphabet
    and restricted to BSO(3) and BSO(5)."""
    model = hopf_model("so", 48)
    comps = l_class_components(model, 12)
    assert comps[1:7] == l_class_oracle(6, model.generators)
    assert comps == l_class_by_fractions(model, 12)
    for d in (3, 5):
        assert l_class_components(model, 12, d) == l_class_by_fractions(model, 12, d)
    for k in (1, 12):
        assert l_class_component(model, k) == comps[k]


@pytest.mark.parametrize("d", range(2, 10))
def test_restricted_l_class_components_match_restriction(d):
    """Running the recursion in the restricted ring equals restricting the
    full components; even d goes through the Euler class."""
    model = hopf_model("so", 32)
    comps = l_class_components(model, model.ngens, d)
    assert len(comps) == model.ngens + 1
    assert comps[0] == Polynomial.one(restricted_model("so", d).alphabet)
    for k in range(1, model.ngens + 1):
        assert comps[k] == restrict(model, d, l_class_component(model, k))


def test_l_class_components_errors():
    model = hopf_model("so", 12)
    with pytest.raises(QueryError):
        l_class_components(hopf_model("u", 12), 1)
    for kmax in (0, 4):
        with pytest.raises(QueryError):
            l_class_components(model, kmax, 3)


def test_l_class_frozen_components():
    model = hopf_model("so", 12)
    assert l_class_component(model, 1) == parse_poly("1/3*p1", model.generators)
    assert l_class_component(model, 2) == parse_poly("7/45*p2 - 1/45*p1^2", model.generators)
    assert l_class_component(model, 3) == parse_poly(
        "62/945*p3 - 13/945*p1*p2 + 2/945*p1^3", model.generators
    )
    with pytest.raises(QueryError):
        l_class_component(hopf_model("u", 12), 1)
    with pytest.raises(QueryError):
        l_class_component(model, 4)


def test_l_class_is_grouplike():
    """The total L-class is multiplicative, so each component obeys
    delta(L_n) = sum L_i (x) L_{n-i}."""
    model = hopf_model("so", 24)
    one = Polynomial.one(model.generators)
    comps = [one] + [l_class_component(model, k) for k in range(1, 7)]
    for n in range(1, 7):
        expected = tensor_sum_by_pairs(
            *((1, tensor_by_pairs(comps[i], comps[n - i])) for i in range(n + 1))
        )
        assert _coproduct(model, comps[n]) == expected


def _all_int(coefficients):
    return all(type(c) is int for c in coefficients)


def test_newton_and_coproduct_tables_have_int_coefficients():
    for kind, bound in (("u", 16), ("so", 24)):
        model = hopf_model(kind, bound)
        for j in range(1, model.ngens + 1):
            assert _all_int(model.power_sum(j).terms.values())
            for exp in model.power_sum(j).terms:
                assert _all_int(model.reduced_coproduct(exp).values())
            at_bound = model.generator_poly(j) * model.generator_poly(1) ** (model.ngens - j)
            (exp,) = at_bound.terms
            assert _all_int(model.reduced_coproduct(exp).values())
            q_j = Polynomial.generator(model.primitives, f"Q{j}")
            assert _all_int(model.from_primitive_basis(q_j**2).terms.values())
    assert not _all_int(l_class_component(hopf_model("so", 8), 2).terms.values())

