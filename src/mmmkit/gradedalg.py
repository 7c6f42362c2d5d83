"""Sparse graded-commutative polynomial and tensor algebra.

Monomials are dense exponent tuples over a fixed, ordered generator alphabet.
Generators of odd degree are exterior: their exponents never exceed one and
products pick up Koszul signs from the transpositions needed to sort the
factors back into alphabet order.  :class:`Polynomial` is the one container:
a tensor-square element is a polynomial over the doubled alphabet (the
generators twice, left copy first), which :class:`TensorElement` wraps.

Coefficients are exact rationals held in the smallest type that is exact: an
``int`` when integral, a ``Fraction`` only when the denominator is above 1.
Coproducts, Newton power sums and restrictions have integer coefficients, so
they run on plain ints; an integral coefficient equals and hashes like the
``Fraction`` of the same value, and both carry ``numerator`` and
``denominator``.

The canonical order on monomials of a fixed degree is descending
lexicographic on exponent tuples, so higher powers of earlier generators come
first: in degree 12 over p1, p2, p3 that reads p1^3, p1*p2, p3.  Inhomogeneous
polynomials print lower degrees first.

This module also owns a degree slice's coordinates and the one text
renderer.  `slice_basis` is the one index of a slice, built once per
alphabet and degree; `degree_slice_vector` and `vector_to_polynomial` read
it to go between polynomials and coordinates.  `poly_to_terms` writes a
polynomial as the JSON terms of the CLI's result documents, and
`terms_to_text` renders those terms, so `format_poly` and every view of a
document print through one path.

The shared text grammar:

    poly   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    coeff  := integer | integer '/' positive-integer
    factor := name ('^' positive-integer)?

Names are alphabetic heads with optional digits and an optional underscored
ordinal (p1, c3, Q2, ch4, e, e7, x, E5_2).  Whitespace is insignificant;
output is emitted in canonical order with coefficients in lowest terms.
"""

import re
from fractions import Fraction
from functools import lru_cache
from operator import add
from types import MappingProxyType

from .errors import AlphabetMismatch, DimensionMismatch, InhomogeneousError, ParseError


def _coefficient(value):
    """An exact coefficient as an ``int`` when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


class GeneratorAlphabet:
    """An ordered list of graded generators; parity is degree mod 2."""

    __slots__ = ("names", "degrees", "parities", "odd_indices", "_index", "_doubled")

    def __init__(self, entries):
        names = []
        degrees = []
        for name, degree in entries:
            if degree < 1:
                raise ValueError(f"generator {name!r} must have positive degree")
            names.append(name)
            degrees.append(degree)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.parities = tuple(d & 1 for d in degrees)
        self.odd_indices = tuple(i for i, p in enumerate(self.parities) if p)
        self._index = {n: i for i, n in enumerate(names)}
        self._doubled = None

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorAlphabet)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        inner = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GeneratorAlphabet({inner})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetMismatch(f"unknown generator {name!r}") from None

    def unit(self):
        return (0,) * len(self.names)

    def degree(self, exponents):
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def monomial_dict(self, exponents):
        return {n: e for n, e in zip(self.names, exponents) if e}

    def doubled(self):
        """The generators twice, left copy first and the right copy primed;
        the alphabet of the tensor square.  Built once per alphabet."""
        if self._doubled is None:
            entries = list(zip(self.names, self.degrees))
            self._doubled = GeneratorAlphabet(
                entries + [(name + "'", degree) for name, degree in entries]
            )
        return self._doubled


def _canonical_key(exponents):
    # Descending lexicographic within a degree slice.
    return tuple(-e for e in exponents)


def _koszul(odd_indices, ea, eb):
    """Sign of merging two monomials, or None when an odd square appears."""
    sign = 0
    seen = 0  # odd generators of ea with index above the current one
    for j in reversed(odd_indices):
        if eb[j]:
            if ea[j]:
                return None
            sign ^= seen & 1
        if ea[j]:
            seen += 1
    return sign


class Polynomial:
    """Sparse polynomial over a :class:`GeneratorAlphabet`."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=()):
        self.alphabet = alphabet
        clean = {}
        for exp, coeff in dict(terms).items():
            coeff = _coefficient(coeff)
            if coeff:
                clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet):
        return cls(alphabet, {alphabet.unit(): 1})

    @classmethod
    def constant(cls, alphabet, value):
        return cls(alphabet, {alphabet.unit(): value})

    @classmethod
    def generator(cls, alphabet, name):
        i = alphabet.index(name)
        exp = [0] * len(alphabet)
        exp[i] = 1
        return cls(alphabet, {tuple(exp): 1})

    @classmethod
    def from_monomial(cls, alphabet, exponents, coeff=1):
        return cls(alphabet, {tuple(exponents): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("operands use different alphabets")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Polynomial(self.alphabet, out)

    def __neg__(self):
        return Polynomial(self.alphabet, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _coefficient(other)
            if not q:
                return Polynomial.zero(self.alphabet)
            return Polynomial(
                self.alphabet, {e: c * q for e, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        odd = self.alphabet.odd_indices
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                c = ca * cb
                if odd:
                    sign = _koszul(odd, ea, eb)
                    if sign is None:
                        continue
                    if sign:
                        c = -c
                key = tuple(map(add, ea, eb))
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial(self.alphabet, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = Polynomial.one(self.alphabet)
        for _ in range(n):
            result = result * self
        return result

    def homogeneous_degree(self):
        """Common degree of all terms; None for zero, error when mixed."""
        degs = {self.alphabet.degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousError(
                f"polynomial mixes degrees {sorted(degs)}"
            )
        return degs.pop()

    def degree_slice(self, m):
        alph = self.alphabet
        return Polynomial(
            alph, {e: c for e, c in self.terms.items() if alph.degree(e) == m}
        )

    def substitute(self, target_alphabet, images):
        """Evaluate by sending generator i to ``images[i]``.

        ``images`` is a sequence of Polynomials over ``target_alphabet`` (or
        None for zero), one per source generator.  Source generators are
        assumed central (even); the models that call this are commutative.
        """
        out = Polynomial.zero(target_alphabet)
        powers = {}
        for exp, coeff in self.terms.items():
            term = Polynomial.constant(target_alphabet, coeff)
            for i, e in enumerate(exp):
                if not e:
                    continue
                img = images[i]
                if img is None or img.is_zero():
                    term = None
                    break
                key = (i, e)
                p = powers.get(key)
                if p is None:
                    p = img**e
                    powers[key] = p
                term = term * p
                if term.is_zero():
                    term = None
                    break
            if term is not None:
                out = out + term
        return out

    def sorted_terms(self):
        alph = self.alphabet
        return sorted(
            self.terms.items(),
            key=lambda item: (alph.degree(item[0]), _canonical_key(item[0])),
        )

    def __repr__(self):
        return f"Polynomial({format_poly(self)})"


def enumerate_monomials(alphabet, degree, allowed=None):
    """All exponent tuples of the given degree, in canonical order.

    Odd generators are capped at exponent one.  ``allowed`` optionally
    restricts which generator indices may appear.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    degrees = alphabet.degrees
    parities = alphabet.parities
    # Only generators that fit in the degree can take a positive exponent.
    usable = [
        i for i, deg in enumerate(degrees)
        if deg <= degree and (allowed is None or i in allowed)
    ]
    out = []
    exp = [0] * len(alphabet)

    # Recurse once per positive exponent, not once per generator, so the
    # depth stays below the degree however large the alphabet.
    def rec(start, rem):
        if rem == 0:
            out.append(tuple(exp))
            return
        for pos in range(start, len(usable)):
            i = usable[pos]
            top = rem // degrees[i]
            if parities[i]:
                top = min(top, 1)
            for k in range(top, 0, -1):
                exp[i] = k
                rec(pos + 1, rem - k * degrees[i])
            exp[i] = 0

    rec(0, degree)
    return out


def poincare_series(alphabet, max_degree):
    """Coefficients of the graded dimension series up to ``max_degree``."""
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for d, parity in zip(alphabet.degrees, alphabet.parities):
        if d > max_degree:
            continue
        if parity:
            for k in range(max_degree, d - 1, -1):
                coeffs[k] += coeffs[k - d]
        else:
            for k in range(d, max_degree + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs


@lru_cache(maxsize=None)
def slice_basis(alphabet, degree):
    """The one index of a degree slice: each exponent tuple of that degree
    mapped to its position.  Iterating it gives the canonical basis and its
    length is the slice's dimension.  Built once per alphabet and degree and
    shared by every caller, so it is read-only."""
    return MappingProxyType({e: i for i, e in enumerate(enumerate_monomials(alphabet, degree))})


def degree_slice_vector(poly, degree):
    """Coordinates of a polynomial over the degree slice of its alphabet.

    Raises `DimensionMismatch` for any monomial outside the slice, so a
    polynomial with a term off the degree is refused.
    """
    index = slice_basis(poly.alphabet, degree)
    vec = [0] * len(index)
    for exp, coeff in poly.terms.items():
        try:
            vec[index[exp]] = coeff
        except KeyError:
            raise DimensionMismatch(
                f"monomial {poly.alphabet.monomial_dict(exp)} is not in the slice basis"
            ) from None
    return tuple(vec)


def vector_to_polynomial(alphabet, vector, degree):
    """The polynomial with the given coordinates over a degree slice."""
    basis = slice_basis(alphabet, degree)
    if len(vector) != len(basis):
        raise DimensionMismatch(f"vector length {len(vector)} != basis size {len(basis)}")
    return Polynomial(
        alphabet, {e: c for e, c in zip(basis, vector) if c}
    )


class TensorElement:
    """Element of the tensor square H (x) H of a polynomial algebra H, built
    from ``{(ea, eb): c}`` and multiplied; it serves only the memoised
    coproduct powers of `HopfModel`, and stays only until ROADMAP item 3
    retargets the benchmark's ``gradedalg.tensor_mul`` span to the packed
    product.

    H (x) H is again free graded-commutative, on ``alphabet.doubled()``, so
    the element is stored as a :class:`Polynomial` there: ea (x) eb is the
    monomial ``ea + eb``, and the sign of moving b1 past a2 in
    (a1 (x) b1)(a2 (x) b2) is that polynomial product's Koszul sign.
    ``terms`` reads the polynomial back keyed by ``(ea, eb)``.
    """

    __slots__ = ("alphabet", "poly")

    def __init__(self, alphabet, terms):
        self.alphabet = alphabet
        self.poly = Polynomial(
            alphabet.doubled(), {ea + eb: c for (ea, eb), c in terms.items()}
        )

    @property
    def terms(self):
        n = len(self.alphabet)
        return {(e[:n], e[n:]): c for e, c in self.poly.terms.items()}

    def __mul__(self, other):
        product = object.__new__(TensorElement)
        product.alphabet = self.alphabet
        product.poly = self.poly * other.poly
        return product


# --- text grammar -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]+\d*(?:_\d+)?)|(?P<op>[-+*/^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(
                f"unexpected token {rest[0]!r} at position {pos}",
                token=rest[0],
                position=pos,
            )
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet, aliases=None):
        self.tokens = tokens
        self.alphabet = alphabet
        self.aliases = aliases or {}
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_int(self, what):
        tok = self.next()
        if tok[0] != "int":
            raise ParseError(
                f"expected {what}, found {tok[1]!r} at position {tok[2]}",
                token=tok[1],
                position=tok[2],
            )
        return int(tok[1])

    def parse(self):
        poly = self.parse_term(self.parse_sign())
        while True:
            tok = self.peek()
            if tok is None:
                return poly
            if tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                sign = -1 if tok[1] == "-" else 1
                poly = poly + self.parse_term(sign)
            else:
                raise ParseError(
                    f"unexpected token {tok[1]!r} at position {tok[2]}",
                    token=tok[1],
                    position=tok[2],
                )

    def parse_sign(self):
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return -1
        return 1

    def parse_term(self, sign):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        coeff = sign
        factors = Polynomial.one(self.alphabet)
        if tok[0] == "int":
            self.pos += 1
            num = int(tok[1])
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.pos += 1
                den = self.expect_int("a positive denominator")
                if den == 0:
                    raise ParseError("zero denominator")
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        elif tok[0] == "name":
            factors = factors * self.parse_factor()
        else:
            raise ParseError(
                f"unexpected token {tok[1]!r} at position {tok[2]}",
                token=tok[1],
                position=tok[2],
            )
        while True:
            nxt = self.peek()
            if nxt is None or nxt[0] != "op" or nxt[1] != "*":
                break
            self.pos += 1
            factors = factors * self.parse_factor()
        return factors * coeff

    def parse_factor(self):
        tok = self.next()
        if tok[0] != "name":
            raise ParseError(
                f"expected a generator name, found {tok[1]!r} at position {tok[2]}",
                token=tok[1],
                position=tok[2],
            )
        name = self.aliases.get(tok[1], tok[1])
        alphabet = self.alphabet
        try:
            i = alphabet.index(name)
        except AlphabetMismatch:
            raise ParseError(
                f"unknown generator {tok[1]!r} at position {tok[2]}",
                token=tok[1],
                position=tok[2],
            ) from None
        e = 1
        nxt = self.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self.pos += 1
            e = self.expect_int("a positive exponent")
            if e == 0:
                raise ParseError("exponents must be positive")
        # g^e is one monomial, built at once however large e is; an odd
        # generator squares to zero.
        if e > 1 and alphabet.parities[i]:
            return Polynomial.zero(alphabet)
        exp = [0] * len(alphabet)
        exp[i] = e
        return Polynomial.from_monomial(alphabet, exp)


def parse_poly(text, alphabet, aliases=None):
    """Parse the shared polynomial grammar over the given alphabet.

    ``aliases`` optionally maps accepted alternative spellings to canonical
    generator names.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    return _Parser(tokens, alphabet, aliases).parse()


def poly_to_terms(poly, names=None):
    """A polynomial as JSON terms, ``[[numerator, denominator], {name:
    exponent}]`` in canonical order.  ``names`` optionally overrides the
    alphabet's generator names for display, matching them by position."""
    names = names or poly.alphabet.names
    return [
        [[coeff.numerator, coeff.denominator], {n: e for n, e in zip(names, exp) if e}]
        for exp, coeff in poly.sorted_terms()
    ]


def terms_to_text(terms):
    """The canonical text of JSON terms: signed terms in their order, with
    coefficient magnitudes of 1 left implicit; no terms read "0"."""
    parts = []
    for (num, den), mono in terms:
        mag = Fraction(abs(num), den)
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in mono.items())
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{body}" if num < 0 else body)
        else:
            parts.append(f" - {body}" if num < 0 else f" + {body}")
    return "".join(parts) or "0"


def format_poly(poly, names=None):
    """Canonical text form: graded order, lowest-terms coefficients.

    ``names`` optionally overrides the alphabet's generator names for
    display, matching them by position.
    """
    return terms_to_text(poly_to_terms(poly, names))
