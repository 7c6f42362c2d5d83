"""Hopf-algebra models of the rational cohomology of BU and BSO.

Both rings are free graded-commutative on one generator per even step:
Chern classes c_i in degree 2i for BU, Pontrjagin classes p_i in degree 4i
for BSO.  Degrees are true cohomological degrees throughout.  The coproduct
is the Whitney formula on generators, extended multiplicatively:

    delta(g_n) = sum_{i=0..n} g_i (x) g_{n-i},   g_0 = 1.

`HopfModel.reduced_coproduct` multiplies these out for one generator
monomial at a time on packed integer keys, and hands the keys back packed.
An exponent tuple becomes one int with a fixed number of bits per generator,
and a pair ea (x) eb becomes pack(ea) + (pack(eb) << shift), so the product
of two terms is one integer addition; every generator is even, so no sign
arises.  Packing is exact as long as no slot carries into the next.  A term
of delta(c^e) has, in each leg, exponents at most the number of factors of
c^e, since each factor puts at most one generator on each side.  Within
the model's bound that is at most ngens, so one slot width,
``ngens.bit_length()``, serves the coproduct and the primitive table, and
input above the bound is refused.

Primitive generators Q_j are the integer Newton power sums s_j, so the
coefficient of g_1^j inside Q_j is exactly 1; `character_component` divides
by j! to produce the Chern/Pontrjagin character pieces.  The primitive
monomials Q^lam, the closed form of the near-primitives, are kept in one
memoised integer table on the same packed keys: `primitive_monomial` builds
Q^lam as Q^(lam - e_i) * Q_i, i the first index of lam, one packed product
each, and takes the single factors Q_i from `from_primitive_basis`.  A
monomial within the model's bound has at most ngens factors, so no slot
can carry.  The table lives as long as the model.  Models are built to a
degree bound and treated as immutable afterwards; the write-once memo
tables are filled on first use and are not guarded by locks.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .errors import AlphabetMismatch, QueryError
from .gradedalg import GeneratorAlphabet, Polynomial, TensorElement

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: cohomological degree of g_1 for each model kind
STEP = {"u": 2, "so": 4}
GENERATOR_LETTER = {"u": "c", "so": "p"}

MAX_DEGREE_CAP = 128


def _check_kind(kind):
    if kind not in STEP:
        raise QueryError(f"unknown model kind {kind!r}; expected 'u' or 'so'")


class HopfModel:
    """H*(BU; Q) or H*(BSO; Q) up to degree ``max_degree``."""

    def __init__(self, kind, max_degree):
        _check_kind(kind)
        if max_degree < STEP[kind]:
            raise QueryError(f"degree bound {max_degree} is below |{GENERATOR_LETTER[kind]}1|")
        if max_degree > MAX_DEGREE_CAP:
            raise QueryError(f"degree bound {max_degree} exceeds the cap {MAX_DEGREE_CAP}")
        self.kind = kind
        self.step = STEP[kind]
        self.max_degree = max_degree
        self.ngens = max_degree // self.step
        letter = GENERATOR_LETTER[kind]
        self.generators = GeneratorAlphabet(
            [(f"{letter}{i}", self.step * i) for i in range(1, self.ngens + 1)]
        )
        self.primitives = GeneratorAlphabet(
            [(f"Q{i}", self.step * i) for i in range(1, self.ngens + 1)]
        )
        self._power_sums = self._build_power_sums()
        self._gen_coproduct_powers = {}
        self._packed_powers = {}  # (i, e) -> packed delta(g_i)^e
        #: the slot width of every packed key, wide enough for g_1^ngens
        self.width = self.ngens.bit_length()
        self._decoded = _Decoder(self.width, self.ngens)
        self._primitive_monomials = {self.primitives.unit(): {0: 1}}

    def __repr__(self):
        return f"HopfModel({self.kind!r}, max_degree={self.max_degree})"

    # -- basis helpers -------------------------------------------------------

    def generator_poly(self, i):
        return Polynomial.generator(self.generators, f"{GENERATOR_LETTER[self.kind]}{i}")

    # -- Newton table --------------------------------------------------------

    def _build_power_sums(self):
        # s_j = g_1 s_{j-1} - g_2 s_{j-2} + ... + (-1)^(j-1) j g_j
        table = [None, self.generator_poly(1)] if self.ngens else [None]
        for j in range(2, self.ngens + 1):
            acc = Polynomial.zero(self.generators)
            for i in range(1, j):
                term = self.generator_poly(i) * table[j - i]
                acc = acc + (term if i % 2 == 1 else -term)
            last = self.generator_poly(j) * j
            acc = acc + (last if j % 2 == 1 else -last)
            table.append(acc)
        return table

    def power_sum(self, j):
        """The primitive s_j expanded over the generator alphabet."""
        if not 1 <= j <= self.ngens:
            raise QueryError(f"s_{j} is outside this model's bound (1..{self.ngens})")
        return self._power_sums[j]

    def character_component(self, j):
        """Degree-(step*j) component of the Chern/Pontrjagin character: s_j / j!."""
        return self.power_sum(j) * Fraction(1, factorial(j))

    def from_primitive_basis(self, x):
        """Expand a polynomial over Q1, Q2, ... over the generators, each Q_j
        becoming the power sum s_j."""
        if x.alphabet != self.primitives:
            raise AlphabetMismatch("expected a polynomial over the primitive alphabet")
        return x.substitute(self.generators, self._power_sums[1:])

    def primitive_monomial(self, exp):
        """Q^exp over the generators as a packed dict ``{key: int}`` at slot
        width ``self.width``, memoised; see the module docstring.

        The power sums have integer coefficients, so every entry is an int.
        ``exp`` must lie within the model's bound, where no slot carries.
        """
        packed = self._primitive_monomials.get(exp)
        if packed is None:
            if self.primitives.degree(exp) > self.max_degree:
                monomial = self.primitives.monomial_dict(exp)
                raise QueryError(f"{monomial} is above the model bound {self.max_degree}")
            i = next(i for i, e in enumerate(exp) if e)
            rest = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            if any(rest):
                single = exp[:i] + (1,) + (0,) * (len(exp) - i - 1)
                packed = _packed_product(
                    self.primitive_monomial(rest), self.primitive_monomial(single)
                )
            else:
                poly = self.from_primitive_basis(Polynomial.from_monomial(self.primitives, exp))
                packed = {self.pack(e): c for e, c in poly.terms.items()}
            self._primitive_monomials[exp] = packed
        return packed

    def pack(self, exp):
        """A generator exponent tuple as a key of the primitive table, or
        as one leg of a key of the coproduct table."""
        return _pack(exp, self.width)

    def unpack(self, key):
        """The generator exponent tuple of a key of the primitive table, or
        of one leg of a key of the coproduct table."""
        return self._decoded[key]

    # -- coproduct -----------------------------------------------------------

    def _gen_coproduct_power(self, i, e):
        """delta(g_i)^e for e >= 1 as a TensorElement, memoised: the power
        e - 1 times delta(g_i), one factor at a time, as `primitive_monomial`
        builds Q^lam."""
        key = (i, e)
        cached = self._gen_coproduct_powers.get(key)
        if cached is not None:
            return cached
        if e == 1:
            alph = self.generators
            unit = alph.unit()
            terms = {}
            for a in range(i + 1):
                ea = list(unit)
                eb = list(unit)
                if a:
                    ea[a - 1] = 1
                if i - a:
                    eb[i - a - 1] = 1
                terms[(tuple(ea), tuple(eb))] = 1
            result = TensorElement(alph, terms)
        else:
            result = self._gen_coproduct_power(i, e - 1) * self._gen_coproduct_power(i, 1)
        self._gen_coproduct_powers[key] = result
        return result

    def _packed_power(self, i, e):
        """delta(g_i)^e as a packed dict, memoised."""
        key = (i, e)
        packed = self._packed_powers.get(key)
        if packed is None:
            shift = self.width * self.ngens
            packed = {
                self.pack(ea) + (self.pack(eb) << shift): c
                for (ea, eb), c in self._gen_coproduct_power(i, e).terms.items()
            }
            self._packed_powers[key] = packed
        return packed

    def reduced_coproduct(self, exp):
        """delta(g^exp) - g^exp(x)1 - 1(x)g^exp for one generator exponent
        tuple, as a packed dict ``{pack(ea) + (pack(eb) << shift): c}`` with
        ``shift = width * ngens``; empty in degree 0.

        delta(g^exp) is the product of the memoised delta(g_i)^e_i, taken on
        packed keys (see the module docstring).  g^exp must lie within the
        model's bound, so it has at most ngens factors.  No exponent of a
        term exceeds that number, and partial products only grow towards the
        final exponents, so no slot carries.  Every Whitney coefficient is 1,
        so every entry of delta(g^exp) is positive, and the end terms
        g^exp (x) 1 and 1 (x) g^exp have coefficient 1: dropping them leaves
        no zero entry.
        """
        degree = self.generators.degree(exp)
        if degree > self.max_degree:
            raise QueryError(f"degree {degree} is above the model bound {self.max_degree}")
        if not degree:
            return {}
        delta = None
        for i, e in enumerate(exp, 1):
            if e:
                power = self._packed_power(i, e)
                delta = power if delta is None else _packed_product(delta, power)
        left = self.pack(exp)
        right = left << self.width * self.ngens
        return {key: c for key, c in delta.items() if key != left and key != right}


def _pack(exp, width):
    """An exponent tuple as one int, ``width`` bits per slot."""
    key = 0
    for e in reversed(exp):
        key = (key << width) | e
    return key


class _Decoder(dict):
    """Packed half-keys to exponent tuples, each unpacked on first lookup."""

    def __init__(self, width, n):
        super().__init__()
        self.width = width
        self.n = n

    def __missing__(self, key):
        slot = (1 << self.width) - 1
        exp = self[key] = tuple((key >> (self.width * i)) & slot for i in range(self.n))
        return exp


def _packed_product(left, right):
    """The product of two packed dicts; all generators are even, so no signs."""
    out = {}
    get = out.get
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def hopf_model(kind, max_degree):
    """Shared, memoised model instances (they are immutable in use)."""
    return HopfModel(kind, max_degree)


# --- restriction to the compact groups ---------------------------------------


class RestrictedModel:
    """Rational cohomology of BU(d), or of BSO(d) with its Euler class.

    BU(d) is free on c_1..c_d.  For odd d, BSO(d) is free on
    p_1..p_{(d-1)/2}.  For even d the Euler class e (degree d) replaces
    p_{d/2} via the relation e^2 = p_{d/2}, leaving a free alphabet
    p_1..p_{d/2-1}, e.
    """

    def __init__(self, kind, d):
        _check_kind(kind)
        if d < 1:
            raise QueryError("the restriction rank must be positive")
        self.kind = kind
        self.d = d
        if kind == "u":
            entries = [(f"c{i}", 2 * i) for i in range(1, d + 1)]
            self.euler_index = None
        elif d % 2 == 1:
            entries = [(f"p{i}", 4 * i) for i in range(1, (d - 1) // 2 + 1)]
            self.euler_index = None
        else:
            entries = [(f"p{i}", 4 * i) for i in range(1, d // 2)]
            entries.append(("e", d))
            self.euler_index = len(entries) - 1
        self.alphabet = GeneratorAlphabet(entries)

    def __repr__(self):
        group = "U" if self.kind == "u" else "SO"
        return f"RestrictedModel(B{group}({self.d}))"


@lru_cache(maxsize=None)
def restricted_model(kind, d):
    return RestrictedModel(kind, d)


def fibre_dimension(kind, d):
    """The real dimension of a rank-d fibre: d oriented, 2d complex.

    NP_d restricts the near-primitives of this order, and MMM degrees are
    cohomological degrees shifted down by it.
    """
    return d if kind == "so" else 2 * d


def restrict(model, d, x):
    """Restriction of a generator-alphabet class along BU(d) or BSO(d) -> B(U/SO).

    Chern classes above index d die; Pontrjagin classes above index d/2 die,
    with p_{d/2} turning into the square of the Euler class when d is even.
    Every generator is kept, killed or sent to e^2, so the map acts on each
    exponent tuple alone and never merges two terms.
    """
    if x.alphabet != model.generators:
        raise AlphabetMismatch("restrict expects a polynomial over the generator alphabet")
    rm = restricted_model(model.kind, d)
    euler = rm.euler_index is not None
    plain = len(rm.alphabet) - euler  # restricted generators named like the model's
    keep = min(plain, model.ngens)
    pad = (0,) * (plain - keep)
    squared = euler and plain < model.ngens  # p_{d/2} is in the model
    live = keep + squared
    terms = {}
    for exp, coeff in x.terms.items():
        if any(exp[live:]):
            continue
        image = exp[:keep] + pad
        if euler:
            image += (2 * exp[plain] if squared else 0,)
        terms[image] = coeff
    return Polynomial(rm.alphabet, terms)


# --- Bernoulli numbers and the Hirzebruch L-class ----------------------------


@lru_cache(maxsize=None)
def bernoulli(n):
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return _ONE
    acc = _ZERO
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _l_log_coefficients(nterms):
    """Coefficients a_0..a_nterms with log(sqrt(z)/tanh(sqrt(z))) = sum a_k z^k.

    With x = sqrt(z), log(x/tanh x) = log cosh x - log(sinh x / x), and the
    two series have the coefficients 4^k (4^k - 1) B_2k / (2k (2k)!) and
    4^k B_2k / (2k (2k)!) of x^2k, so a_k = 4^k (4^k - 2) B_2k / (2k (2k)!).
    """
    return (_ZERO,) + tuple(
        4**k * (4**k - 2) * bernoulli(2 * k) / (2 * k * factorial(2 * k))
        for k in range(1, nterms + 1)
    )


def l_class_components(model, kmax, d=None):
    """The Hirzebruch L-class components [L_0, L_1, ..., L_kmax].

    The L-class is multiplicative, so log L = sum f_j with f_j = a_j s_j,
    the a_j read off from log(sqrt(z)/tanh(sqrt(z))).  Applying the Euler
    derivation (multiplication by k on the degree-4k part) to L = exp(log L)
    gives the recursion

        k L_k = sum_{j=1..k} j f_j L_{k-j},    L_0 = 1,

    which only multiplies homogeneous pieces.  Without ``d`` the components
    are over the model's generators, L_k involving p1..pk only.  With ``d`` the power sums are restricted to BSO(d)
    first; restriction is a ring map, so the recursion then runs in the
    small restricted ring and returns restrict(model, d, L_k) without ever
    expanding L_k over the full alphabet.

    The recursion runs in the integers.  The s_j have integer coefficients,
    and each L_k is kept as an integer polynomial N_k over one int D_k: with
    j f_j = (n_j / e_j) s_j, D_k is the lcm over j of k e_j D_{k-j}, N_k is
    the sum of the n_j s_j N_{k-j} scaled to it, and both are divided by
    their common content.  Each L_k is divided out once, at the end.
    """
    if model.kind != "so":
        raise QueryError("the L-class lives in the oriented model")
    if not 1 <= kmax <= model.ngens:
        raise QueryError(f"L_{kmax} is outside this model's bound (1..{model.ngens})")
    a = _l_log_coefficients(kmax)
    alphabet = model.generators if d is None else restricted_model("so", d).alphabet
    sums = [None]  # s_j, indexed by j
    for j in range(1, kmax + 1):
        sums.append(model.power_sum(j) if d is None else restrict(model, d, model.power_sum(j)))
    weights = [j * a[j] for j in range(kmax + 1)]  # j f_j = weights[j] * s_j
    nums, dens = [Polynomial.one(alphabet)], [1]  # L_k = nums[k] / dens[k]
    for k in range(1, kmax + 1):
        scales = [k * weights[j].denominator * dens[k - j] for j in range(1, k + 1)]
        den = lcm(*scales)
        acc = Polynomial.zero(alphabet)
        for j, scale in enumerate(scales, 1):
            acc = acc + sums[j] * (weights[j].numerator * (den // scale)) * nums[k - j]
        g = gcd(den, *acc.terms.values())
        nums.append(Polynomial(alphabet, {e: c // g for e, c in acc.terms.items()}))
        dens.append(den // g)
    return [num * Fraction(1, den) for num, den in zip(nums, dens)]


def l_class_component(model, k):
    """Degree-4k component L_k of the Hirzebruch L-class, over p1..pk.

    L_1 = p1/3, L_2 = (7 p2 - p1^2)/45, ...; see :func:`l_class_components`
    for the recursion that builds it and for the errors it raises.
    """
    return l_class_components(model, k)[k]
