"""Projective-bundle examples with exact cohomology rings.

Every example is complex algebraic: a projective space or a product of
two, and projectivizations P(V) of sums of line bundles over those.  The
rings are finite-dimensional quotients stored as rewrite systems (h^{n+1}
drops to zero, xi^r rewrites through the Grothendieck relation), so every
computation reduces to exact sparse polynomial arithmetic.

A larger ring lists a smaller ring's generators as one consecutive run of
its own: a product ring puts the second factor's after the first's, and
P(V) appends xi after the base's.  So every map between them (a factor
inclusion, the pullback pi*, carrying rewrite rules and tangent data
over) only pads exponent tuples with zeros, which ``_embed`` does.  Every
ring has exactly one normal-form monomial of top degree, its
``top_monomial``; the fundamental class pairs it with 1, so evaluating a
class reads that monomial's coefficient.

Conventions, pinned once and validated by the normalization checks:

* Grothendieck relation xi^r + pi*c_1 xi^{r-1} + ... + pi*c_r = 0.
* Fibre integration extracts the xi^{r-1} coefficient; pi_!(xi^{r-1}) = 1.
* c(TvE) = sum_i pi*c_i(V) (1+xi)^{r-i}, the relative Euler sequence.

The rank-2 projectivizations model surface bundles (fibre CP^1): the
vertical Euler class is c_1(TvE), so the generalized MMM numbers e_i#
are fibre integrals of its powers paired with the base.  The same models
reread as complex fibre-dimension-1 bundles for the complex flavor.
"""

from fractions import Fraction

from .errors import DimensionMismatch, InhomogeneousError, QueryError
from .gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    enumerate_monomials,
    format_poly,
)
from .hopfmodel import hopf_model

class CohomologyRing:
    """A graded ring presented by generator caps and rewrite rules.

    ``rules`` maps a generator index to ``(cap, replacement)``: any
    monomial with that exponent at or above the cap rewrites by
    substituting ``replacement`` (None meaning zero) for the cap-th
    power.  Normal-form monomials keep every exponent below its cap.
    ``top_monomial`` is the one normal-form monomial of top degree, which
    the fundamental class pairs with 1; ``tangent_chern`` is the total
    Chern class of the tangent bundle.
    """

    def __init__(self, alphabet, rules, top_monomial, tangent_chern, label=""):
        self.alphabet = alphabet
        self.rules = dict(rules)
        self.top_monomial = tuple(top_monomial)
        self.top_degree = alphabet.degree(self.top_monomial)
        self.label = label
        for gi, (cap, repl) in self.rules.items():
            if repl is not None and repl.homogeneous_degree() not in (
                None,
                cap * alphabet.degrees[gi],
            ):
                raise InhomogeneousError(
                    f"rewrite for {alphabet.names[gi]} does not preserve degree"
                )
        self.tangent_chern = self.reduce(tangent_chern)

    def __repr__(self):
        return f"CohomologyRing({self.label or ','.join(self.alphabet.names)})"

    def zero(self):
        return Polynomial.zero(self.alphabet)

    def one(self):
        return Polynomial.one(self.alphabet)

    def reduce(self, poly):
        """Rewrite to normal form; terminates since xi-exponents strictly drop."""
        out = {}
        stack = list(poly.terms.items())
        while stack:
            exp, coeff = stack.pop()
            for gi, (cap, repl) in self.rules.items():
                if exp[gi] >= cap:
                    if repl is not None:
                        rest = list(exp)
                        rest[gi] -= cap
                        rewritten = repl * Polynomial.from_monomial(
                            self.alphabet, rest, coeff
                        )
                        stack.extend(rewritten.terms.items())
                    break
            else:
                c = out.get(exp, 0) + coeff
                if c:
                    out[exp] = c
                else:
                    out.pop(exp, None)
        return Polynomial(self.alphabet, out)

    def mul(self, a, b):
        return self.reduce(a * b)

    def pow(self, a, k):
        return _product(self, (a,), (k,))

    def evaluate(self, poly):
        """Pair with the fundamental class: the top monomial's coefficient."""
        return Fraction(self.reduce(poly).terms.get(self.top_monomial, 0))

    def chern_class(self, k):
        """k-th Chern class of the tangent bundle."""
        return self.tangent_chern.degree_slice(2 * k)


def pontrjagin_classes(ring, chern, kmax):
    """[p_1, ..., p_kmax] in ``ring`` of the real bundle underlying a complex
    bundle with total Chern class ``chern``.

    1 - p_1 + p_2 - ... = c * c-conjugate, where the conjugate flips the
    sign of every odd c_i, so p_k = (-1)^k sum_{i+j=2k} (-1)^j c_i c_j.
    """
    straight = conj = ring.zero()
    for i in range(0, 2 * kmax + 1):
        c = chern.degree_slice(2 * i)
        straight = straight + c
        conj = conj + (c if i % 2 == 0 else -c)
    product = ring.mul(straight, conj)
    out = []
    for k in range(1, kmax + 1):
        slice_ = product.degree_slice(4 * k)
        out.append(slice_ if k % 2 == 0 else -slice_)
    return out


def _embed(poly, alphabet, offset):
    """``poly`` in a ring whose generators from ``offset`` on are its own.

    They come in the same order there, so the map only pads each exponent
    tuple with zeros.
    """
    before = (0,) * offset
    after = (0,) * (len(alphabet) - offset - len(poly.alphabet))
    return Polynomial(
        alphabet, {before + exp + after: c for exp, c in poly.terms.items()}
    )


def projective_space(n):
    """The ring of CP^n: one degree-2 generator, h^{n+1} = 0."""
    if n < 1:
        raise QueryError("projective spaces here have complex dimension >= 1")
    alphabet = GeneratorAlphabet([("h", 2)])
    h = Polynomial.generator(alphabet, "h")
    return CohomologyRing(
        alphabet,
        {0: (n + 1, None)},
        (n,),
        tangent_chern=(Polynomial.one(alphabet) + h) ** (n + 1),
        label=f"cp{n}",
    )


def product_ring(a, b):
    """Tensor product of two rings; generator names get suffixes 1 and 2."""
    entries = [(f"{n}1", d) for n, d in zip(a.alphabet.names, a.alphabet.degrees)]
    entries += [(f"{n}2", d) for n, d in zip(b.alphabet.names, b.alphabet.degrees)]
    alphabet = GeneratorAlphabet(entries)
    factors = ((a, 0), (b, len(a.alphabet)))
    rules = {
        offset + gi: (cap, None if repl is None else _embed(repl, alphabet, offset))
        for ring, offset in factors
        for gi, (cap, repl) in ring.rules.items()
    }
    tangent = _embed(a.tangent_chern, alphabet, 0) * _embed(
        b.tangent_chern, alphabet, len(a.alphabet)
    )
    label = f"{a.label}x{b.label}" if a.label and b.label else ""
    return CohomologyRing(
        alphabet, rules, a.top_monomial + b.top_monomial, tangent, label
    )


class BundleModel:
    """A projectivized bundle pi: E = P(V) -> B with exact fibre integration."""

    def __init__(self, base, total, rank, vertical_chern, label=""):
        self.base = base
        self.total = total
        self.rank = rank
        self.xi_index = len(base.alphabet)  # xi follows the base generators
        self.vertical_chern = vertical_chern
        self.label = label

    def __repr__(self):
        return f"BundleModel({self.label})"

    def pullback(self, x):
        """pi*: base classes viewed in the total ring."""
        return self.total.reduce(_embed(x, self.total.alphabet, 0))

    def fibre_integrate(self, x):
        """pi_!: the xi^{rank-1} coefficient, as a base class."""
        top = self.rank - 1
        xi = self.xi_index
        out = {}
        for exp, coeff in self.total.reduce(x).terms.items():
            if exp[xi] != top:
                continue
            base_exp = exp[:xi] + exp[xi + 1 :]
            out[base_exp] = out.get(base_exp, 0) + coeff
        return self.base.reduce(Polynomial(self.base.alphabet, out))

    def vertical_euler(self):
        """Euler class of the vertical tangent bundle (rank 2: c_1(TvE))."""
        return self.vertical_chern.degree_slice(2 * (self.rank - 1))

    def fibre_euler_number(self):
        """chi of the fibre: c_top(Tv) restricted to a fibre, integrated.

        Restricting to a fibre keeps the terms with no base exponent; their
        fibre integral is a multiple of the base's unit.
        """
        xi = self.xi_index
        on_fibre = Polynomial(
            self.total.alphabet,
            {e: c for e, c in self.vertical_euler().terms.items() if not any(e[:xi])},
        )
        unit = self.base.alphabet.unit()
        return Fraction(self.fibre_integrate(on_fibre).terms.get(unit, 0))


def projectivize(base, chern_of_v, label=""):
    """P(V) -> base for V with the given Chern classes c_1..c_r.

    The total ring adjoins xi (degree 2) with the Grothendieck relation;
    the vertical tangent Chern class comes from the relative Euler
    sequence.
    """
    r = len(chern_of_v)
    if r < 2:
        raise QueryError("projectivization needs rank at least 2")
    for i, c in enumerate(chern_of_v, start=1):
        deg = c.homogeneous_degree()
        if deg is not None and deg != 2 * i:
            raise InhomogeneousError(f"c_{i} of the twisting bundle must have degree {2 * i}")
    entries = list(zip(base.alphabet.names, base.alphabet.degrees)) + [("xi", 2)]
    alphabet = GeneratorAlphabet(entries)
    one = Polynomial.one(alphabet)
    xi = Polynomial.generator(alphabet, "xi")
    lifted = [_embed(c, alphabet, 0) for c in chern_of_v]
    relation = Polynomial.zero(alphabet)
    vertical = (one + xi) ** r
    for i, c in enumerate(lifted, start=1):
        relation = relation - c * xi ** (r - i)
        vertical = vertical + c * (one + xi) ** (r - i)
    rules = {
        gi: (cap, None if repl is None else _embed(repl, alphabet, 0))
        for gi, (cap, repl) in base.rules.items()
    }
    rules[len(base.alphabet)] = (r, relation if not relation.is_zero() else None)
    total = CohomologyRing(
        alphabet,
        rules,
        base.top_monomial + (r - 1,),
        _embed(base.tangent_chern, alphabet, 0) * vertical,
        label=f"P({label})" if label else "",
    )
    return BundleModel(base, total, r, total.reduce(vertical), label=label or "P(V)")


def line_bundle_sum(base, twists):
    """Chern classes c_1..c_r of a sum of line bundles over the base.

    Each twist is a tuple of integers pairing with the base's degree-2
    generators: O(k) on cp1 is (k,), O(a,b) on cp1 x cp1 is (a, b).
    """
    degree_two = [
        i for i, d in enumerate(base.alphabet.degrees) if d == 2
    ]
    total = base.one()
    for twist in twists:
        if len(twist) != len(degree_two):
            raise DimensionMismatch(
                f"twist {twist} needs {len(degree_two)} integers for {base!r}"
            )
        c1 = base.zero()
        for t, gi in zip(twist, degree_two):
            c1 = c1 + t * Polynomial.generator(base.alphabet, base.alphabet.names[gi])
        total = base.mul(total, base.one() + c1)
    return [total.degree_slice(2 * i) for i in range(1, len(twists) + 1)]


def hirzebruch(k):
    """F_k = P(O + O(k)) over CP^1; all of them are cobordant."""
    base = projective_space(1)
    return projectivize(base, line_bundle_sum(base, [(0,), (k,)]), label=f"O+O({k}) over cp1")


# --- characteristic numbers ---------------------------------------------------


def mmm_number(bundle, indices):
    """The number of an MMM monomial e_{i_1} ... e_{i_m} on a rank-2 bundle.

    Each e_i contributes pi_!(e(Tv)^{i+1}); the product of those base
    classes pairs with the base fundamental class.  The monomial's degree
    sum 2 i_k must match the base's top degree.
    """
    if bundle.rank != 2:
        raise QueryError("MMM numbers are implemented for rank-2 bundles (surface fibres)")
    indices = list(indices)
    if any(i < 1 for i in indices):
        raise QueryError("MMM class indices are positive")
    if sum(2 * i for i in indices) != bundle.base.top_degree:
        raise DimensionMismatch(
            f"monomial degree {sum(2 * i for i in indices)} does not match"
            f" base dimension {bundle.base.top_degree}"
        )
    euler = bundle.vertical_euler()
    acc = bundle.base.one()
    for i in indices:
        acc = bundle.base.mul(acc, bundle.fibre_integrate(bundle.total.pow(euler, i + 1)))
    return bundle.base.evaluate(acc)


def total_space_char_numbers(bundle):
    """All Chern numbers of E, plus Pontrjagin numbers when they exist."""
    total = bundle.total
    top = total.top_degree
    numbers = {}
    half = top // 2
    c_alph = GeneratorAlphabet([(f"c{i}", 2 * i) for i in range(1, half + 1)])
    chern = [total.chern_class(i) for i in range(1, half + 1)]
    for exp in enumerate_monomials(c_alph, top):
        numbers[_format(c_alph, exp)] = total.evaluate(_product(total, chern, exp))
    if top % 4 == 0:
        quarter = top // 4
        p_alph = GeneratorAlphabet([(f"p{i}", 4 * i) for i in range(1, quarter + 1)])
        pontrjagin = pontrjagin_classes(total, total.tangent_chern, quarter)
        for exp in enumerate_monomials(p_alph, top):
            numbers[_format(p_alph, exp)] = total.evaluate(_product(total, pontrjagin, exp))
    return numbers


def _product(ring, classes, exp):
    """The product in ``ring`` of ``classes[i]`` to the power ``exp[i]``."""
    value = ring.one()
    for factor, e in zip(classes, exp):
        for _ in range(e):
            value = ring.mul(value, factor)
    return value


def _format(alphabet, exp):
    return format_poly(Polynomial.from_monomial(alphabet, exp))


class IdentityReport:
    """Both sides of the fibre-integration identity for one (bundle, j)."""

    def __init__(self, total_side, base_side, class_level_equal):
        self.total_side = total_side
        self.base_side = base_side
        self.class_level_equal = class_level_equal

    @property
    def equal(self):
        return self.total_side == self.base_side and self.class_level_equal


def verify_motivating_identity(bundle, j, flavor="so"):
    """Check <X(TE), [E]> = <pi_! X(TvE), [B]> for the additive class X.

    X is the j-th Pontrjagin power sum s_j(p) (flavor "so") or the
    character component ch_j (flavor "u"); additivity under Whitney sum
    plus pi_!pi* = 0 forces equality, and both sides are recomputed
    independently here.  The class-level identity pi_! X(TE) = pi_! X(TvE)
    is checked alongside.
    """
    total = bundle.total
    if flavor == "so":
        if 4 * j > total.top_degree:
            raise QueryError(f"degree 4j = {4 * j} exceeds the total space dimension")
        model = hopf_model("so", 4 * j)
        sj = model.power_sum(j)
        classes_total = pontrjagin_classes(total, total.tangent_chern, j)
        vertical = pontrjagin_classes(total, bundle.vertical_chern, j)
    elif flavor == "u":
        if 2 * j > total.top_degree:
            raise QueryError(f"degree 2j = {2 * j} exceeds the total space dimension")
        model = hopf_model("u", 2 * j)
        sj = model.character_component(j)
        classes_total = [total.chern_class(i) for i in range(1, j + 1)]
        vertical = [
            bundle.vertical_chern.degree_slice(2 * i) for i in range(1, j + 1)
        ]
    else:
        raise QueryError(f"unknown flavor {flavor!r}")
    x_total = total.reduce(sj.substitute(total.alphabet, classes_total))
    x_vertical = total.reduce(sj.substitute(total.alphabet, vertical))
    total_side = total.evaluate(x_total)
    base_side = bundle.base.evaluate(bundle.fibre_integrate(x_vertical))
    class_level = bundle.fibre_integrate(x_total) == bundle.fibre_integrate(x_vertical)
    return IdentityReport(total_side, base_side, class_level)

