"""Graded-commutative polynomial container, tensor square, text grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.errors import AlphabetMismatch, DimensionMismatch, InhomogeneousError, ParseError
from mmmkit.gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    TensorElement,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    parse_poly,
    poincare_series,
    poly_to_terms,
    slice_basis,
    terms_to_text,
    vector_to_polynomial,
)
from mmmkit.hopfmodel import hopf_model, restrict

from oracles import (
    monomials_one_generator_at_a_time,
    tensor_by_pairs,
    tensor_product_by_pairs,
    tensor_sum_by_pairs,
)

EVEN = GeneratorAlphabet([("c1", 2), ("c2", 4), ("c3", 6)])
MIXED = GeneratorAlphabet([("a", 1), ("b", 2), ("u", 3), ("v", 4)])


def gen(alphabet, name):
    return Polynomial.generator(alphabet, name)


def random_poly(rng, alphabet, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = []
        for parity in alphabet.parities:
            exp.append(rng.randint(0, 1 if parity else max_exp))
        terms[tuple(exp)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(alphabet, terms)


def test_alphabet_basics():
    assert len(EVEN) == 3
    assert EVEN.degrees == (2, 4, 6)
    assert EVEN.parities == (False, False, False)
    assert MIXED.parities == (True, False, True, False)
    assert EVEN.index("c2") == 1
    assert EVEN.unit() == (0, 0, 0)
    assert EVEN.degree((2, 1, 0)) == 8


def test_polynomial_equality_and_zero_pruning():
    p = Polynomial(EVEN, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert p == gen(EVEN, "c1")
    assert Polynomial.zero(EVEN).is_zero()
    assert not Polynomial.zero(EVEN)
    assert p - p == Polynomial.zero(EVEN)
    with pytest.raises(AlphabetMismatch):
        gen(EVEN, "c1") + gen(MIXED, "b")


def test_odd_generators_square_to_zero():
    a, u = gen(MIXED, "a"), gen(MIXED, "u")
    assert (a * a).is_zero()
    assert (u * u).is_zero()
    # (a + u)^2 = au + ua = 2au?  No: |a||u| odd*odd, ua = -au, so it cancels.
    assert ((a + u) ** 2).is_zero()


def test_koszul_sign_on_odd_swap():
    a, u = gen(MIXED, "a"), gen(MIXED, "u")
    b = gen(MIXED, "b")
    assert u * a == -(a * u)
    assert a * b == b * a
    assert (a * u) * (a * u) == Polynomial.zero(MIXED)


def test_graded_commutativity_random():
    rng = random.Random(31)
    for _ in range(40):
        x = random_poly(rng, MIXED)
        y = random_poly(rng, MIXED)
        z = random_poly(rng, MIXED)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    # sign law on homogeneous pieces
    for _ in range(40):
        x = random_poly(rng, MIXED)
        y = random_poly(rng, MIXED)
        for m in range(0, 7):
            for n in range(0, 7):
                xm, yn = x.degree_slice(m), y.degree_slice(n)
                sign = -1 if (m % 2) and (n % 2) else 1
                assert xm * yn == sign * (yn * xm)


def test_pow_and_degree_slices():
    c1, c2 = gen(EVEN, "c1"), gen(EVEN, "c2")
    p = (c1 + c2) ** 3
    slices = [c1**3, 3 * c1 * c1 * c2, 3 * c1 * c2 * c2, c2**3]
    assert [p.degree_slice(m) for m in (6, 8, 10, 12)] == slices
    assert p == slices[0] + slices[1] + slices[2] + slices[3]
    assert p.degree_slice(7).is_zero() and p.degree_slice(14).is_zero()
    with pytest.raises(InhomogeneousError):
        (c1 + c2).homogeneous_degree()
    assert Polynomial.zero(EVEN).homogeneous_degree() is None
    assert (c2**2).homogeneous_degree() == 8


def test_substitute_images_and_none_kills():
    c1, c2 = gen(EVEN, "c1"), gen(EVEN, "c2")
    target = GeneratorAlphabet([("t", 2)])
    t = gen(target, "t")
    # c1 -> t, c2 -> t^2, c3 -> 0
    image = (c1 * c1 + c2).substitute(target, [t, t * t, None])
    assert image == 2 * t * t
    assert (gen(EVEN, "c3")).substitute(target, [t, t * t, None]).is_zero()
    constant = Polynomial.constant(EVEN, Fraction(5, 3)).substitute(target, [t, None, None])
    assert constant == Polynomial.constant(target, Fraction(5, 3))


def test_enumerate_monomials_matches_poincare_series():
    for alphabet, bound in ((EVEN, 14), (MIXED, 9)):
        series = poincare_series(alphabet, bound)
        for m in range(bound + 1):
            monos = enumerate_monomials(alphabet, m)
            assert len(monos) == series[m]
            assert len(set(monos)) == len(monos)
            for exp in monos:
                assert alphabet.degree(exp) == m
                for e, parity in zip(exp, alphabet.parities):
                    assert e <= 1 or not parity


def test_enumerate_monomials_allowed_filter():
    monos = enumerate_monomials(EVEN, 8, allowed={0, 1})
    assert set(monos) == {(4, 0, 0), (2, 1, 0), (0, 2, 0)}
    assert enumerate_monomials(EVEN, 0) == [(0, 0, 0)]
    assert enumerate_monomials(EVEN, 1) == []


def test_enumerate_monomials_order_matches_one_level_per_generator():
    """Random alphabets, unsorted and mixed in parity, with and without an
    allowed set: the tuples and their order are those of the reference that
    recurses once per generator."""
    rng = random.Random(2024)
    for trial in range(400):
        size = rng.randint(0, 9)
        alphabet = GeneratorAlphabet(
            [(f"g{i}", rng.randint(1, 7)) for i in range(size)]
        )
        allowed = None
        if trial % 2:
            allowed = {i for i in range(size) if rng.random() < 0.6}
        degree = rng.randint(0, 16)
        assert enumerate_monomials(alphabet, degree, allowed) == (
            monomials_one_generator_at_a_time(alphabet, degree, allowed)
        )


def test_enumerate_monomials_on_an_alphabet_deeper_than_the_recursion_limit():
    """Five thousand generators, all but eleven above the degree: the
    tuples are those of the eleven that fit, padded with zeros."""
    alphabet = GeneratorAlphabet([(f"g{i}", 2 + i) for i in range(5000)])
    small = GeneratorAlphabet([(f"g{i}", 2 + i) for i in range(11)])
    pad = (0,) * (5000 - 11)
    assert enumerate_monomials(alphabet, 12) == [
        e + pad for e in monomials_one_generator_at_a_time(small, 12)
    ]


def test_slice_vector_roundtrip():
    rng = random.Random(32)
    for _ in range(20):
        p = random_poly(rng, EVEN)
        for m in range(0, max(map(EVEN.degree, p.terms), default=0) + 1):
            piece = p.degree_slice(m)
            vec = degree_slice_vector(piece, m)
            assert len(vec) == len(enumerate_monomials(EVEN, m))
            assert vector_to_polynomial(EVEN, vec, m) == piece


def test_slice_coordinates_refuse_what_is_off_the_slice():
    p = parse_poly("c1^2 + c2", EVEN)
    with pytest.raises(DimensionMismatch, match=r"monomial \{'c1': 2\} is not in the slice basis"):
        degree_slice_vector(p, 6)
    with pytest.raises(DimensionMismatch, match="vector length 1 != basis size 2"):
        vector_to_polynomial(EVEN, (1,), 4)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(1, 7), max_size=8),
    st.integers(0, 18),
)
def test_slice_basis_is_the_canonical_slice_indexed(degrees, degree):
    """Iterating the index gives `enumerate_monomials`' canonical order, each
    monomial maps to its position, and the size is the Poincare series
    coefficient, exterior (odd) generators included."""
    alphabet = GeneratorAlphabet([(f"g{i}", d) for i, d in enumerate(degrees)])
    index = slice_basis(alphabet, degree)
    assert list(index) == enumerate_monomials(alphabet, degree)
    assert list(index.values()) == list(range(len(index)))
    assert len(index) == poincare_series(alphabet, degree)[degree]
    # One index per alphabet and degree, shared by every caller, so no
    # caller may change it.
    assert slice_basis(GeneratorAlphabet(zip(alphabet.names, degrees)), degree) is index
    with pytest.raises(TypeError):
        index[(0,) * len(degrees)] = -1


def test_parse_examples():
    assert parse_poly("c1^2 - 2*c2", EVEN) == gen(EVEN, "c1") ** 2 - 2 * gen(EVEN, "c2")
    assert parse_poly("1/3*c1", EVEN) == Fraction(1, 3) * gen(EVEN, "c1")
    assert parse_poly("-c1 + 4", EVEN) == -gen(EVEN, "c1") + Polynomial.constant(EVEN, 4)
    assert parse_poly("7/2", EVEN) == Polynomial.constant(EVEN, Fraction(7, 2))
    assert parse_poly("c1*c2^3", EVEN) == gen(EVEN, "c1") * gen(EVEN, "c2") ** 3


def test_parse_builds_a_power_as_one_monomial():
    """g^e is read as one monomial, so a huge exponent costs nothing; an odd
    generator's square and higher powers are zero, as repeated products give."""
    assert parse_poly("c2^1000000000", EVEN).terms == {(0, 1000000000, 0): 1}
    assert parse_poly("3*c1^4*c3^2*c1", EVEN) == 3 * gen(EVEN, "c1") ** 5 * gen(EVEN, "c3") ** 2
    a, u = gen(MIXED, "a"), gen(MIXED, "u")
    assert parse_poly("a^1*u", MIXED) == a * u
    assert parse_poly("u^1*a", MIXED) == u * a == -(a * u)
    for text in ("a^2", "u^3", "b*a^2 + a*a", "u^1000000000*v"):
        assert parse_poly(text, MIXED).is_zero()
    with pytest.raises(ParseError):
        parse_poly("c1^0", EVEN)


def test_parse_aliases_and_format_names():
    aliases = {"e1": "c1", "e2": "c2"}
    assert parse_poly("e1^2 - 2*e2", EVEN, aliases) == parse_poly("c1^2 - 2*c2", EVEN)
    # display names are positional overrides
    p = parse_poly("c1^2 - 2*c2", EVEN)
    assert terms_to_text(poly_to_terms(p, ("e1", "e2", "e3"))) == "e1^2 - 2*e2"
    assert format_poly(p) == "c1^2 - 2*c2"


def test_format_parse_roundtrip_random():
    rng = random.Random(33)
    for alphabet in (EVEN, MIXED):
        for _ in range(25):
            p = random_poly(rng, alphabet)
            assert parse_poly(format_poly(p), alphabet) == p or p.is_zero()
            if p.is_zero():
                assert format_poly(p) == "0"


def test_parse_errors_name_the_token():
    with pytest.raises(ParseError) as err:
        parse_poly("c1 + $", EVEN)
    assert err.value.token == "$"
    with pytest.raises(ParseError) as err:
        parse_poly("c9", EVEN)
    assert err.value.token == "c9"
    with pytest.raises(ParseError):
        parse_poly("c1 ^", EVEN)
    with pytest.raises(ParseError):
        parse_poly("", EVEN)
    with pytest.raises(ParseError):
        parse_poly("c1 c2", EVEN)
    with pytest.raises(ParseError):
        parse_poly("1/0", EVEN)


def _tensor_product(left, right):
    """The product of two ``{(ea, eb): c}`` dicts over MIXED, taken by
    `TensorElement` and read back pair by pair."""
    return (TensorElement(MIXED, left) * TensorElement(MIXED, right)).terms


def test_tensor_element_product_sign():
    a, u = gen(MIXED, "a"), gen(MIXED, "u")
    one = Polynomial.one(MIXED)
    a_one, one_u = tensor_by_pairs(a, one), tensor_by_pairs(one, u)
    au = tensor_by_pairs(a, u)
    # (a x 1)(1 x u) = a x u, but (1 x u)(a x 1) picks up the sign of moving
    # u (odd) past a (odd)
    assert _tensor_product(a_one, one_u) == au
    assert _tensor_product(one_u, a_one) == tensor_sum_by_pairs((-1, au))
    for x, y in ((a_one, one_u), (one_u, a_one)):
        assert _tensor_product(x, y) == tensor_product_by_pairs(MIXED, x, y)


def test_tensor_element_bilinear():
    """The product distributes over sums on either side."""
    rng = random.Random(34)
    for _ in range(15):
        x, y, z = (
            tensor_by_pairs(random_poly(rng, MIXED), random_poly(rng, MIXED)) for _ in range(3)
        )
        assert _tensor_product(tensor_sum_by_pairs((1, x), (1, y)), z) == tensor_sum_by_pairs(
            (1, _tensor_product(x, z)), (1, _tensor_product(y, z))
        )
        assert _tensor_product(x, tensor_sum_by_pairs((1, y), (1, z))) == tensor_sum_by_pairs(
            (1, _tensor_product(x, y)), (1, _tensor_product(x, z))
        )


# --- coefficients live in the smallest exact ring ----------------------------

COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    # Fractions, integral ones such as Fraction(2) included.
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def polynomials(draw, alphabet):
    exponent = st.tuples(*(st.integers(0, 1 if p else 2) for p in alphabet.parities))
    return Polynomial(alphabet, draw(st.dictionaries(exponent, COEFFICIENTS, max_size=4)))


def in_smallest_ring(element):
    """Every coefficient is an int when integral, else a proper Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in element.terms.values()
    )


@st.composite
def polynomial_pairs(draw):
    alphabet = draw(st.sampled_from([EVEN, MIXED]))
    return draw(polynomials(alphabet)), draw(polynomials(alphabet)), draw(COEFFICIENTS)


@settings(deadline=None)
@given(polynomial_pairs())
def test_arithmetic_keeps_integral_coefficients_int(case):
    x, y, q = case
    assert in_smallest_ring(x) and in_smallest_ring(y)
    for p in (x + y, x - y, -x, x * y, x**2, q * x, x * q):
        assert in_smallest_ring(p)
    t = TensorElement(x.alphabet, tensor_by_pairs(x, y))
    for element in (t, t * t):
        assert in_smallest_ring(element)


@st.composite
def tensor_cases(draw):
    """Two tensor-square elements over EVEN or MIXED as ``{(ea, eb): c}``
    dicts with nonzero coefficients."""
    alphabet = draw(st.sampled_from([EVEN, MIXED]))
    exponent = st.tuples(*(st.integers(0, 1 if p else 2) for p in alphabet.parities))
    terms = st.dictionaries(
        st.tuples(exponent, exponent), COEFFICIENTS.filter(bool), max_size=4
    )
    return alphabet, draw(terms), draw(terms)


@settings(deadline=None)
@given(tensor_cases())
def test_tensor_arithmetic_equals_the_pair_key_formula(case):
    alphabet, x, y = case
    s, t = TensorElement(alphabet, x), TensorElement(alphabet, y)
    assert s.alphabet == alphabet and s.terms == x and t.terms == y
    assert (s * t).terms == tensor_product_by_pairs(alphabet, x, y)


@settings(deadline=None)
@given(polynomials(EVEN), polynomials(MIXED), polynomials(MIXED))
def test_substitute_keeps_integral_coefficients_int(x, a, b):
    image = x.substitute(MIXED, [a, b, None])
    assert in_smallest_ring(image)


@settings(deadline=None)
@given(polynomials(hopf_model("so", 16).generators), st.integers(1, 9))
def test_restrict_keeps_integral_coefficients_int(x, d):
    assert in_smallest_ring(restrict(hopf_model("so", 16), d, x))


@settings(deadline=None)
@given(st.sampled_from([EVEN, MIXED]).flatmap(polynomials))
def test_format_then_parse_is_the_identity(x):
    parsed = parse_poly(format_poly(x), x.alphabet)
    assert parsed == x
    assert in_smallest_ring(parsed)
