"""Generalised MMM-class algebras and the bordism-invariance decision.

For a fibre bundle with d-dimensional oriented (or d-complex-dimensional)
fibres, the generalised MMM classes live in a free graded-commutative
algebra with one generator per monomial of H^{>d}(BSO(d);Q) (complex:
H^{>2d}(BU(d);Q)), the degree of each generator being the cohomological
degree shifted down by d (resp. 2d).  Odd oriented d makes every shifted
degree odd, so those algebras are exterior.

The hat map sends a restricted-model class X to the MMM class of the
fibre integral of X evaluated on the vertical tangent bundle: linear,
monomial-to-generator, zero in cohomological degrees at most d.

`is_bordism_invariant` decides whether an MMM class depends only on the
cobordism class of the total space: exactly when it is the hat of a class
in NP_d, modulo the ideal K generated by hatted restricted L-class
components, whose characteristic numbers vanish on every bundle.  K is
zero for even d and the complex flavor, so one decision path serves every
flavor and d.  It and `bordism_invariant_space` read one per-degree
construction of NP_d's hat image.
"""

from __future__ import annotations

import re

from .errors import AlphabetMismatch, QueryError
from .exactq import Subspace, solve_in_span, subspace_intersection, subspace_sum
from .gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
    format_poly,
    parse_poly,
    vector_to_polynomial,
)
from .hopfmodel import (
    MAX_DEGREE_CAP,
    STEP,
    fibre_dimension,
    hopf_model,
    l_class_components,
    restricted_model,
)
from .nearprim import npd

# Algebras whose generators carry the classical e_i names: a single
# degree-2 generator downstairs, so e_i is the hat of its (i+1)-st power.
_ALIASED = {("so", 2), ("u", 1)}


class InvarianceVerdict:
    """Outcome of the bordism-invariance decision for one MMM class.

    ``decision`` is the answer and ``reason`` names why a negative one
    failed: notPrimitive or notInNPdImage.  When the decision is positive,
    ``hat(witness) + correction`` rebuilds the queried class exactly; the
    witness lies in NP_d, and the correction lies in the K ideal and is
    zero for even d and the complex flavor.  The CLI renders the verdict.
    """

    def __init__(self, decision, reason=None, witness=None, correction=None):
        self.decision = decision
        self.reason = reason
        self.witness = witness
        self.correction = correction

    def __bool__(self):
        return self.decision


class MMMAlgebra:
    """The algebra of generalised MMM classes for one (flavor, d) pair.

    Generators are named E<degree>_<ordinal>, the ordinal indexing the
    canonical restricted-model monomials of the matching cohomological
    degree.  The classical aliases e1, e2, ... are accepted on input and
    used for display when the restricted model has a single degree-2
    generator (oriented d=2, complex d=1).
    """

    def __init__(self, kind, d, degree_bound):
        if kind not in ("u", "so"):
            raise QueryError(f"unknown flavor {kind!r}")
        if d < 1:
            raise QueryError("the rank d must be positive")
        if degree_bound < 1:
            raise QueryError("the degree bound must be positive")
        self.kind = kind
        self.d = d
        self.degree_bound = degree_bound
        self.shift = fibre_dimension(kind, d)
        self.restricted = restricted_model(kind, d)
        # At least one generator, so that a slice below |g_1| is empty, not an error.
        self.model = hopf_model(kind, max(self.shift + degree_bound, STEP[kind]))
        entries = []
        self._mono_to_index = {}
        counts = {}
        for cohdeg in range(self.shift + 1, self.shift + degree_bound + 1):
            for mono in enumerate_monomials(self.restricted.alphabet, cohdeg):
                sdeg = cohdeg - self.shift
                counts[sdeg] = counts.get(sdeg, 0) + 1
                entries.append((f"E{sdeg}_{counts[sdeg]}", sdeg))
                self._mono_to_index[mono] = len(self._mono_to_index)
        self.alphabet = GeneratorAlphabet(entries)
        if (kind, d) in _ALIASED:
            self.display_names = tuple(f"e{sdeg // 2}" for _, sdeg in entries)
            self.aliases = {
                disp: name for disp, (name, _) in zip(self.display_names, entries)
            }
        else:
            self.display_names = None
            self.aliases = {}
        # Only odd oriented d has a K ideal; it is zero otherwise.
        self._odd = kind == "so" and d % 2 == 1
        self._k_gens = None

    def __repr__(self):
        flavor = "complex" if self.kind == "u" else "oriented"
        return f"MMMAlgebra({flavor} d={self.d}, degree_bound={self.degree_bound})"

    def parse(self, text):
        return parse_poly(text, self.alphabet, self.aliases)

    def format(self, poly):
        return format_poly(poly, self.display_names)

    def name_degree(self, name):
        """The degree of the generator ``name`` in this flavor and d at any
        degree bound up to the cap, or None when no such bound has it."""
        if self.display_names is not None:
            alias = re.fullmatch(r"e([1-9][0-9]*)", name)
            if alias:
                name = f"E{2 * int(alias[1])}_1"
        match = re.fullmatch(r"E([1-9][0-9]*)_([1-9][0-9]*)", name)
        if match is None:
            return None
        degree, ordinal = int(match[1]), int(match[2])
        cohdeg = self.shift + degree
        if cohdeg > MAX_DEGREE_CAP:
            return None
        if ordinal > len(enumerate_monomials(self.restricted.alphabet, cohdeg)):
            return None
        return degree

    def monomial_basis(self, n):
        return enumerate_monomials(self.alphabet, n)

    # --- the hat map ---------------------------------------------------

    def hat(self, x):
        """Linear extension of: canonical monomial -> its generator.

        Cohomological degrees at most d (2d complex) map to zero; the
        input must be homogeneous.
        """
        if x.alphabet != self.restricted.alphabet:
            raise AlphabetMismatch("hat expects a polynomial over the restricted model")
        deg = x.homogeneous_degree()
        if deg is None or deg <= self.shift:
            return Polynomial.zero(self.alphabet)
        if deg > self.shift + self.degree_bound:
            raise QueryError(
                f"cohomological degree {deg} exceeds the configured bound"
                f" {self.shift + self.degree_bound}"
            )
        unit = self.alphabet.unit()
        terms = {}
        for exp, coeff in x.terms.items():
            gi = self._mono_to_index[exp]
            terms[unit[:gi] + (1,) + unit[gi + 1 :]] = coeff
        return Polynomial(self.alphabet, terms)

    # --- the K ideal (odd oriented d) ----------------------------------

    def _require_odd(self):
        if not self._odd:
            raise QueryError("the K ideal only exists for odd oriented rank")

    def k_ideal_generators(self):
        """Hatted restricted L-class components, zero images omitted.

        The components L_k with d < 4k <= d + bound are built in one call
        to :func:`l_class_components`, directly in the restricted ring of
        BSO(d), so no L_k is ever expanded over the full alphabet.
        """
        self._require_odd()
        if self._k_gens is None:
            kmin = (self.d + 4) // 4  # smallest k with 4k > d
            kmax = (self.d + self.degree_bound) // 4  # largest k with 4k - d <= bound
            images = l_class_components(self.model, kmax, self.d) if kmax >= kmin else []
            gens = (self.hat(image) for image in images[kmin:])
            self._k_gens = [g for g in gens if not g.is_zero()]
        return list(self._k_gens)

    def _k_products(self, n):
        """Monomial multiples of the K generators spanning the degree-n slice;
        none when there is no K ideal."""
        if not self._odd:
            return []
        products = []
        for g in self.k_ideal_generators():
            gdeg = g.homogeneous_degree()
            if gdeg > n:
                continue
            for mu in enumerate_monomials(self.alphabet, n - gdeg):
                prod = Polynomial.from_monomial(self.alphabet, mu) * g
                if not prod.is_zero():
                    products.append((mu, prod))
        return products

    def k_ideal_slice(self, n):
        """The degree-n slice of K as a subspace of the monomial slice."""
        self._require_odd()
        self._check_degree(n)
        basis = self.monomial_basis(n)
        vectors = [degree_slice_vector(p, basis) for _, p in self._k_products(n)]
        return Subspace.from_vectors(len(basis), vectors)

    # --- invariance ----------------------------------------------------

    def _check_degree(self, n):
        if n < 1:
            raise QueryError("the slice degree must be positive")
        if n > self.degree_bound:
            raise QueryError(f"degree {n} exceeds the configured bound {self.degree_bound}")

    def _np_image(self, n, basis):
        """NP_d in MMM degree n: its preimage polynomials over the restricted
        model, and their hats as vectors over ``basis``, the degree-n slice."""
        cohdeg = n + self.shift
        rbasis = enumerate_monomials(self.restricted.alphabet, cohdeg)
        polys = [
            vector_to_polynomial(self.restricted.alphabet, row, rbasis)
            for row in npd(self.model, self.d, cohdeg).basis
        ]
        return polys, [degree_slice_vector(self.hat(p), basis) for p in polys]

    def bordism_invariant_space(self, n):
        """MMM classes of degree n depending only on the total space's
        cobordism class, as a subspace of the degree-n monomial slice.

        Even d and complex: the hat image of NP_d.  Odd d: that image
        plus the generator-linear part of the K slice.
        """
        self._check_degree(n)
        basis = self.monomial_basis(n)
        space = Subspace.from_vectors(len(basis), self._np_image(n, basis)[1])
        if self._odd:
            units = [
                [int(j == i) for j in range(len(basis))]
                for i, e in enumerate(basis)
                if sum(e) == 1
            ]
            linear = Subspace.from_vectors(len(basis), units)
            space = subspace_sum(space, subspace_intersection(self.k_ideal_slice(n), linear))
        return space

    def is_bordism_invariant(self, x):
        """Decide invariance of a homogeneous MMM class, with witnesses.

        One path for every flavor and d, modulo the K ideal, which is zero
        for even d and the complex flavor.  K's monomial multiples split
        along the class's coordinates: bare generators are linear, proper
        multiples decomposable.  A decomposable part outside the span of
        the proper multiples fails with reason notPrimitive; without K it
        must vanish.  A linear part outside the span of hat(NP_d) and the
        degree-n K generators fails with notInNPdImage.
        """
        if x.alphabet != self.alphabet:
            raise AlphabetMismatch("expected an element of the MMM algebra")
        n = x.homogeneous_degree()
        witness = Polynomial.zero(self.restricted.alphabet)
        correction = Polynomial.zero(self.alphabet)
        if n is None:
            return InvarianceVerdict(True, witness=witness, correction=correction)
        if n == 0:
            raise QueryError("constants are not MMM classes; degree must be positive")
        self._check_degree(n)
        basis = self.monomial_basis(n)
        target = degree_slice_vector(x, basis)
        is_linear = [sum(e) == 1 for e in basis]
        np_polys, np_vectors = self._np_image(n, basis)
        products = self._k_products(n)
        kappa = [p for mu, p in products if sum(mu) == 0]
        proper = [p for mu, p in products if sum(mu) > 0]

        dec_target = [0 if lin else c for c, lin in zip(target, is_linear)]
        dec_coeffs = solve_in_span(
            [degree_slice_vector(p, basis) for p in proper], dec_target
        )
        if dec_coeffs is None:
            return InvarianceVerdict(False, reason="notPrimitive")
        lin_target = [c if lin else 0 for c, lin in zip(target, is_linear)]
        kappa_vectors = [degree_slice_vector(p, basis) for p in kappa]
        combo = solve_in_span(np_vectors + kappa_vectors, lin_target)
        if combo is None:
            return InvarianceVerdict(False, reason="notInNPdImage")
        for c, p in zip(combo, np_polys):
            witness = witness + c * p
        for c, p in zip(combo[len(np_polys) :] + dec_coeffs, kappa + proper):
            correction = correction + c * p
        return InvarianceVerdict(True, witness=witness, correction=correction)
