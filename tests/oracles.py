"""Independent reference computations for the test suite.

Everything here rebuilds expected values from first principles: formal
root expansions, explicit power-series division, and a tiny hand-rolled
ring for the Hirzebruch surfaces.  The polynomial container is reused as
dumb storage, but none of the package's Newton recurrences, Bernoulli
numbers, coproducts, or rewrite systems are.

`unpacked_coproduct` and `reduced_coproduct_of` are adapters, not
references: they read the package's per-monomial coproduct table back as
``{(ea, eb): c}`` dicts, so tests can hold it against
`reduced_coproduct_by_pairs`.

`dense_row` is an adapter too: it reads a `SparseRow` back as the dense
integer row it stands for.

`rref_dense` is the dense integer Gauss-Jordan elimination that the
package's elimination core ran before it reduced sparse rows; the core's
output is held against it.

`l_class_by_fractions` is another exception: it is the L-class recursion
as it ran before it moved to integers, on the package's power sums and log
coefficients, so it checks the integer bookkeeping alone.

The example builders at the end (`point_ring`, `ring_basis`,
`product_bundle`, `biproj`, `mmm_class_number`) are the exception: they
assemble test inputs from the bundles module's own constructors, which the
package itself never needs.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, prod

from mmmkit.bundles import (
    BundleModel,
    CohomologyRing,
    line_bundle_sum,
    mmm_number,
    product_ring,
    projective_space,
    projectivize,
)
from mmmkit.errors import QueryError
from mmmkit.exactq import solve_in_span
from mmmkit.gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    degree_slice_vector,
    enumerate_monomials,
)
from mmmkit.hopfmodel import _l_log_coefficients, restrict, restricted_model


def series_quotient(num, den, nterms):
    """Power-series division num/den to nterms coefficients; den[0] != 0."""
    quotient = []
    rem = [Fraction(c) for c in num] + [Fraction(0)] * max(0, nterms + len(den) - len(num))
    for k in range(nterms):
        c = rem[k] / den[0]
        quotient.append(c)
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    return quotient


def x_over_tanh_series(nterms):
    """Coefficients of x/tanh(x) in t = x^2, from sinh and cosh alone."""
    fact = [1]
    for i in range(1, 2 * nterms + 2):
        fact.append(fact[-1] * i)
    cosh = [Fraction(1, fact[2 * i]) for i in range(nterms)]
    sinh_over_x = [Fraction(1, fact[2 * i + 1]) for i in range(nterms)]
    return series_quotient(cosh, sinh_over_x, nterms)


class RootExpansion:
    """Symmetric functions in a fixed number of formal roots."""

    def __init__(self, nroots, root_degree=2, letter="x"):
        self.n = nroots
        self.root_degree = root_degree
        self.alphabet = GeneratorAlphabet(
            [(f"{letter}{i}", root_degree) for i in range(1, nroots + 1)]
        )

    def root(self, i):
        return Polynomial.generator(self.alphabet, self.alphabet.names[i])

    def elementary(self, k):
        terms = {}
        for combo in combinations(range(self.n), k):
            exp = [0] * self.n
            for i in combo:
                exp[i] = 1
            terms[tuple(exp)] = Fraction(1)
        return Polynomial(self.alphabet, terms)

    def power_sum(self, j):
        terms = {}
        for i in range(self.n):
            exp = [0] * self.n
            exp[i] = j
            terms[tuple(exp)] = Fraction(1)
        return Polynomial(self.alphabet, terms)

    def in_elementary(self, f, target_alphabet, degree):
        """Rewrite a symmetric polynomial over e_1, e_2, ..., naming e_i by
        the i-th generator of the target alphabet.  The target generator
        degrees must be i times the root degree."""
        return self._rewrite(f, target_alphabet, degree, self.elementary)

    def in_power_sums(self, f, target_alphabet, degree):
        """Rewrite a symmetric polynomial over the power sums p_1, p_2, ...,
        as `in_elementary` does over e_1, e_2, ...; the power-sum products
        of weight w are independent once there are at least w roots."""
        return self._rewrite(f, target_alphabet, degree, self.power_sum)

    def _rewrite(self, f, target_alphabet, degree, basic):
        """Solve for f in the span of the products of ``basic(i)``, the i-th
        target generator standing for ``basic(i)``."""
        candidates = enumerate_monomials(target_alphabet, degree)
        vectors = []
        for exp in candidates:
            poly = Polynomial.one(self.alphabet)
            for i, e in enumerate(exp):
                for _ in range(e):
                    poly = poly * basic(i + 1)
            vectors.append(degree_slice_vector(poly, degree))
        coeffs = solve_in_span(vectors, degree_slice_vector(f, degree))
        if coeffs is None:
            raise AssertionError("polynomial is not symmetric of this weight")
        return Polynomial(
            target_alphabet, {e: c for e, c in zip(candidates, coeffs) if c}
        )


def power_sum_in_elementary(kind, j, target_alphabet):
    """Newton's power sum s_j over the generator alphabet, via raw roots."""
    step = 2 if kind == "u" else 4
    roots = RootExpansion(j + 1, root_degree=step)
    return roots.in_elementary(roots.power_sum(j), target_alphabet, step * j)


def elementary_in_power_sums(kind, j, target_alphabet):
    """The inverse Newton table: the generator g_j (c_j or p_j) over the
    power sums Q_1, Q_2, ... of the target alphabet, via raw roots."""
    step = 2 if kind == "u" else 4
    roots = RootExpansion(j, root_degree=step)
    return roots.in_power_sums(roots.elementary(j), target_alphabet, step * j)


def restrict_by_substitution(model, d, x):
    """Restriction to BU(d) or BSO(d) by substituting each generator's image.

    c_i stays c_i for i <= d and dies above; p_i stays p_i below d/2 and dies
    above it; p_{d/2} becomes e^2 for even d.  The images are written down
    generator by generator and the polynomial is evaluated on them.
    """
    target = restricted_model(model.kind, d).alphabet
    images = []
    for i in range(1, model.ngens + 1):
        if model.kind == "u":
            name = f"c{i}" if i <= d else None
        elif d % 2 == 1:
            name = f"p{i}" if i <= (d - 1) // 2 else None
        else:
            name = f"p{i}" if i < d // 2 else ("e" if i == d // 2 else None)
        image = None if name is None else Polynomial.generator(target, name)
        if name == "e":
            image = image * image
        images.append(image)
    return x.substitute(target, images)


def restricted_rows_by_entries(model, columns, d, rank, image=None):
    """The order-d restricted kernel matrix, assembled entry by entry.

    ``columns[j]`` is the packed reduced coproduct of basis monomial j, as
    `HopfModel.reduced_coproduct` returns it.  Every entry with |eb| >= d is
    restricted on its own and lands on row (ea, er) for each term cr * er of
    the image of eb; entries that share a row and a column add up.  ``image(eb)``
    gives the (er, cr) terms, by default through `restrict_by_substitution`.
    Returns the rows keyed by (ea, er).
    """
    if image is None:
        def image(eb):
            x = Polynomial.from_monomial(model.generators, eb)
            return restrict_by_substitution(model, rank, x).terms.items()
    ncols = len(columns)
    rows = {}
    for j, col in enumerate(columns):
        for (ea, eb), c in unpacked_coproduct(model, col).items():
            if model.generators.degree(eb) < d:
                continue
            for er, cr in image(eb):
                rows.setdefault((ea, er), [0] * ncols)[j] += c * cr
    return rows


def _merge_sign(alphabet, ea, eb):
    """The sign of sorting the odd factors of ea followed by those of eb into
    alphabet order, or 0 when an odd generator occurs in both."""
    odd = [i for i, parity in enumerate(alphabet.parities) if parity]
    if any(ea[i] and eb[i] for i in odd):
        return 0
    inversions = sum(1 for i in odd if ea[i] for j in odd if eb[j] and j < i)
    return -1 if inversions % 2 else 1


def tensor_product_by_pairs(alphabet, left, right):
    """The product in H (x) H of two ``{(ea, eb): c}`` dicts, pair by pair.

    (a1 (x) b1)(a2 (x) b2) = (-1)^(|b1||a2|) (a1 a2) (x) (b1 b2), with the
    signs of merging a1 with a2 and b1 with b2.  Zero entries are dropped.
    """
    out = {}
    for (a1, b1), c1 in left.items():
        for (a2, b2), c2 in right.items():
            sign = _merge_sign(alphabet, a1, a2) * _merge_sign(alphabet, b1, b2)
            if alphabet.degree(b1) % 2 and alphabet.degree(a2) % 2:
                sign = -sign
            if sign:
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {key: c for key, c in out.items() if c}


def tensor_sum_by_pairs(*scaled):
    """The sum of ``(scalar, {(ea, eb): c})`` pairs, zero entries dropped."""
    out = {}
    for q, terms in scaled:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + q * c
    return {key: c for key, c in out.items() if c}


def tensor_by_pairs(left, right):
    """left (x) right of two polynomials as a ``{(ea, eb): c}`` dict."""
    return {
        (ea, eb): ca * cb
        for ea, ca in left.terms.items()
        for eb, cb in right.terms.items()
    }


def reduced_coproduct_by_pairs(model, x):
    """The reduced coproduct of homogeneous x, multiplied out factor by factor.

    Each generator goes to delta(g_i) = sum_a g_a (x) g_{i-a} with g_0 = 1,
    each monomial to the product of its factors' images under
    `tensor_product_by_pairs`, and the end terms x (x) 1 and 1 (x) x are
    subtracted; zero in degree 0.
    """
    alphabet = model.generators
    unit = alphabet.unit()

    def single(i):
        return unit[: i - 1] + (1,) + unit[i:] if i else unit

    if x.homogeneous_degree() in (None, 0):
        return {}
    one = Polynomial.one(alphabet)
    scaled = [(-1, tensor_by_pairs(x, one)), (-1, tensor_by_pairs(one, x))]
    for exp, coeff in x.terms.items():
        delta = {(unit, unit): 1}
        for i, e in enumerate(exp, 1):
            factor = {(single(a), single(i - a)): 1 for a in range(i + 1)}
            for _ in range(e):
                delta = tensor_product_by_pairs(alphabet, delta, factor)
        scaled.append((coeff, delta))
    return tensor_sum_by_pairs(*scaled)


def unpacked_coproduct(model, packed):
    """A packed reduced coproduct, keyed ``pack(ea) + (pack(eb) << shift)``
    as `HopfModel.reduced_coproduct` returns it, as a ``{(ea, eb): c}``
    dict."""
    shift = model.width * model.ngens
    mask = (1 << shift) - 1
    return {(model.unpack(key & mask), model.unpack(key >> shift)): c for key, c in packed.items()}


def reduced_coproduct_of(model, x):
    """The reduced coproduct of a polynomial x over the generators, the sum
    of c * reduced_coproduct(e) over its terms c * g^e, as a ``{(ea, eb): c}``
    dict with zero entries dropped."""
    return tensor_sum_by_pairs(
        *((c, unpacked_coproduct(model, model.reduced_coproduct(e))) for e, c in x.terms.items())
    )


def coproduct_rows_by_pairs(model, m):
    """The rows of the kernel route's matrix in degree m, from
    `reduced_coproduct_by_pairs` alone: row (ea, eb) maps each degree-m
    monomial gamma to the nonzero coefficient of ea (x) eb in the reduced
    coproduct of g^gamma."""
    rows = {}
    for gamma in enumerate_monomials(model.generators, m):
        x = Polynomial.from_monomial(model.generators, gamma)
        for key, c in reduced_coproduct_by_pairs(model, x).items():
            rows.setdefault(key, {})[gamma] = c
    return rows


def distinct_products(alphabet, rows, d):
    """The number of distinct products ea*eb over the row keys with
    |eb| >= d."""
    return len(
        {tuple(a + b for a, b in zip(ea, eb)) for ea, eb in rows if alphabet.degree(eb) >= d}
    )


def whitney_leading_entry(ea, eb):
    """prod C(gamma_i, ea_i) for gamma = ea*eb: the coefficient of ea (x) eb
    in the reduced coproduct of g^gamma when every Whitney coefficient is
    1."""
    return prod(comb(a + b, a) for a, b in zip(ea, eb))


def l_class_oracle(kmax, target_alphabet):
    """L_1..L_kmax by expanding the product of x_i/tanh(x_i) over 6 roots.

    Each root stands for a squared Chern root, so it carries degree 4 and
    the elementary symmetric functions are the Pontrjagin classes.
    """
    roots = RootExpansion(6, root_degree=4, letter="y")
    q = x_over_tanh_series(kmax + 1)
    total = Polynomial.one(roots.alphabet)
    for i in range(roots.n):
        factor = Polynomial.constant(roots.alphabet, q[0])
        y = roots.root(i)
        for k in range(1, kmax + 1):
            factor = factor + q[k] * y**k
        total = total * factor
        total = Polynomial(
            roots.alphabet,
            {e: c for e, c in total.terms.items() if roots.alphabet.degree(e) <= 4 * kmax},
        )
    return [
        roots.in_elementary(total.degree_slice(4 * k), target_alphabet, 4 * k)
        for k in range(1, kmax + 1)
    ]


def l_class_by_fractions(model, kmax, d=None):
    """[L_0, ..., L_kmax] by k L_k = sum_j j f_j L_{k-j} in Fractions, with
    f_j = a_j s_j, restricted to BSO(d) when ``d`` is given."""
    a = _l_log_coefficients(kmax)
    alphabet = model.generators if d is None else restricted_model("so", d).alphabet
    weighted = [None]  # j f_j, indexed by j
    for j in range(1, kmax + 1):
        s_j = model.power_sum(j) if d is None else restrict(model, d, model.power_sum(j))
        weighted.append(s_j * (j * a[j]))
    comps = [Polynomial.one(alphabet)]
    for k in range(1, kmax + 1):
        acc = Polynomial.zero(alphabet)
        for j in range(1, k + 1):
            acc = acc + weighted[j] * comps[k - j]
        comps.append(acc * Fraction(1, k))
    return comps


class RankTwoOracle:
    """P(O + O(t)) over a product of CP^1 factors, hand-rolled.

    The base is (CP^1)^n with square-free degree-2 generators h_i, the twist
    t gives c_1(O(t)) = sum t_i h_i, and c_2(O + O(t)) = 0 turns the
    Grothendieck relation into xi^2 = -c_1 xi.  Elements are dicts keyed by
    exponent tuples (h bits..., xi power); every relation is applied inline,
    independent of the package's rewrite machinery.  hirzebruch F_k is
    twist (k,), the bidegree bundle over CP^1 x CP^1 is twist (a, b).
    """

    def __init__(self, twist):
        self.twist = tuple(twist)
        self.nb = len(self.twist)
        self.top_key = (1,) * self.nb + (1,)

    def scalar(self, value):
        return {(0,) * (self.nb + 1): Fraction(value)} if value else {}

    def add(self, u, v):
        out = dict(u)
        for key, c in v.items():
            out[key] = out.get(key, Fraction(0)) + c
        return {key: c for key, c in out.items() if c}

    def _push(self, key, coeff, out):
        *base, b = key
        if any(e > 1 for e in base):
            return
        if b <= 1:
            full = tuple(base) + (b,)
            out[full] = out.get(full, Fraction(0)) + coeff
            return
        for i, t in enumerate(self.twist):  # xi^2 = -(sum t_i h_i) xi
            if t:
                bumped = list(base)
                bumped[i] += 1
                self._push(tuple(bumped) + (b - 1,), -t * coeff, out)

    def mul(self, u, v):
        out = {}
        for ka, ca in u.items():
            for kb, cb in v.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                self._push(key, ca * cb, out)
        return {key: c for key, c in out.items() if c}

    def power(self, u, n):
        acc = self.scalar(1)
        for _ in range(n):
            acc = self.mul(acc, u)
        return acc

    def integrate_fibre(self, u):
        """Coefficient of xi^1, as a dict over the base bits."""
        return {key[:-1]: c for key, c in u.items() if key[-1] == 1}

    def base_mul(self, u, v):
        out = {}
        for ka, ca in u.items():
            for kb, cb in v.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                if any(e > 1 for e in key):
                    continue
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return {key: c for key, c in out.items() if c}

    def evaluate(self, u):
        """Pairing with the fundamental class h_1 ... h_n xi."""
        return u.get(self.top_key, Fraction(0))

    def evaluate_base(self, u):
        return u.get((1,) * self.nb, Fraction(0))

    def vertical_euler(self):
        """c_1 of the vertical tangent line bundle: 2 xi + sum t_i h_i."""
        e = {(0,) * self.nb + (1,): Fraction(2)}
        for i, t in enumerate(self.twist):
            if t:
                key = tuple(1 if j == i else 0 for j in range(self.nb)) + (0,)
                e[key] = Fraction(t)
        return e

    def total_chern(self):
        """c(TE) = prod (1 + 2 h_i) * (1 + e(Tv)), as one inhomogeneous dict."""
        acc = self.add(self.scalar(1), self.vertical_euler())
        for i in range(self.nb):
            key = tuple(1 if j == i else 0 for j in range(self.nb)) + (0,)
            acc = self.mul(acc, self.add(self.scalar(1), {key: Fraction(2)}))
        return acc

    def chern_class(self, j):
        return {
            key: c
            for key, c in self.total_chern().items()
            if sum(key) == j
        }

    def chern_number(self, indices):
        acc = self.scalar(1)
        for j in indices:
            acc = self.mul(acc, self.chern_class(j))
        return self.evaluate(acc)

    def p1_number(self):
        c1sq = self.power(self.chern_class(1), 2)
        p1 = self.add(c1sq, {k: -2 * c for k, c in self.chern_class(2).items()})
        return self.evaluate(p1)

    def e_sharp(self, indices):
        """The MMM number of e_{i_1} ... e_{i_m}: base product of the
        pi_!(e^(i+1)), paired with the base fundamental class."""
        acc = {(0,) * self.nb: Fraction(1)}
        for i in indices:
            factor = self.integrate_fibre(self.power(self.vertical_euler(), i + 1))
            acc = self.base_mul(acc, factor)
        return self.evaluate_base(acc)

    def additive_base_side(self, flavor, j):
        """<pi_! X_j(TvE), [B]> for X = ch (complex) or the p power sum.

        Tv is a line bundle, so ch_j = e^j / j! and s_j(p) = p_1^j = e^(2j).
        """
        if flavor == "u":
            power, scale = j, Fraction(1, factorial(j))
        else:
            power, scale = 2 * j, Fraction(1)
        down = self.integrate_fibre(self.power(self.vertical_euler(), power))
        return scale * self.evaluate_base(down)


def partitions(n, max_part=None):
    """All partitions of n as descending tuples."""
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def monomials_one_generator_at_a_time(alphabet, degree, allowed=None):
    """Exponent tuples of one degree, one recursion level per generator.

    Each level tries the generator's exponents from the largest down to
    zero, so the tuples come out in descending lexicographic order.
    """
    n = len(alphabet)
    out = []
    exp = [0] * n

    def rec(i, rem):
        if rem == 0:
            out.append(tuple(exp))
            return
        if i == n:
            return
        top = 0
        if allowed is None or i in allowed:
            top = rem // alphabet.degrees[i]
            if alphabet.parities[i]:
                top = min(top, 1)
        for k in range(top, -1, -1):
            exp[i] = k
            rec(i + 1, rem - k * alphabet.degrees[i])
        exp[i] = 0

    rec(0, degree)
    return out


def dense_row(row):
    """The dense integer row of a `SparseRow`: its entries at its columns,
    zeros elsewhere, over its width."""
    dense = [0] * row.width
    for j, c in zip(row.cols, row.vals):
        dense[j] = c
    return dense


def rref_dense(rows, ncols):
    """Dense integer Gauss-Jordan elimination, the package's elimination
    core before it reduced sparse rows: the leftmost nonzero column pivots
    on the topmost unprocessed row, which clears that column in every other
    row, and each row is divided by its content after every step.  Returns
    the primitive RREF rows and their pivots as `_core.rref_int` does.
    """

    def content(row):
        g = 0
        for v in row:
            if v:
                g = gcd(g, v)
                if g == 1:
                    return 1
        return g

    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, nrows) if m[r][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        row = m[pr]
        if row[pc] < 0:
            row[:] = [-v for v in row]
        g = content(row)
        if g > 1:
            row[:] = [v // g for v in row]
        piv = row[pc]
        for r in range(nrows):
            other = m[r]
            f = other[pc]
            if r == pr or not f:
                continue
            other[:] = [piv * a - f * b for a, b in zip(other, row)]
            g = content(other)
            if g > 1:
                other[:] = [v // g for v in other]
        pivots.append(pc)
        pr += 1
        if pr == nrows or pr == ncols:
            break
    return m[:pr], pivots


# --- example bundles built from the package's constructors --------------------


def point_ring():
    alphabet = GeneratorAlphabet([])
    one = Polynomial.one(alphabet)
    return CohomologyRing(alphabet, {}, (), tangent_chern=one, label="pt")


def ring_basis(ring, degree):
    """The normal-form monomials of ``ring`` in the given degree: those
    below every generator cap of its rewrite rules."""
    return [
        e
        for e in enumerate_monomials(ring.alphabet, degree)
        if all(e[gi] < cap for gi, (cap, _) in ring.rules.items())
    ]


def product_bundle(base):
    """The trivial CP^1 bundle base x CP^1, built without the xi relation.

    A second construction route for the same total spaces as P(O+O):
    fibre integration reads off the second factor's generator.
    """
    fibre = projective_space(1)
    total = product_ring(base, fibre)
    xi = Polynomial.generator(total.alphabet, total.alphabet.names[-1])
    vertical = total.reduce((Polynomial.one(total.alphabet) + xi) ** 2)
    return BundleModel(base, total, 2, vertical, label=f"{base.label}xcp1")


def biproj(a, b):
    """P(O + O(a,b)) over CP^1 x CP^1."""
    base = product_ring(projective_space(1), projective_space(1))
    return projectivize(
        base, line_bundle_sum(base, [(0, 0), (a, b)]), label=f"O+O({a},{b}) over cp1xcp1"
    )


def mmm_class_number(bundle, algebra, x):
    """Evaluate a polynomial MMM class from an aliased algebra on the bundle."""
    if algebra.display_names is None:
        raise QueryError("bundle evaluation needs the single-generator MMM algebras")
    value = Fraction(0)
    for exp, coeff in x.terms.items():
        indices = []
        for gi, e in enumerate(exp):
            sdeg = algebra.alphabet.degrees[gi]
            indices.extend([sdeg // 2] * e)
        value += coeff * mmm_number(bundle, indices)
    return value
