"""Command-line front end.

Every subcommand assembles one JSON-serializable document with up to
three parts: the echoed query, a result (dimension + basis, a single
polynomial, a verdict, or tables of numbers), and a list of named
checks.  Both output formats render that same document, so the table
and JSON views cannot drift apart: every polynomial enters the document
as `gradedalg.poly_to_terms` writes it, and the table prints those terms
with `gradedalg.terms_to_text`, the renderer behind `format_poly` too.

Exit status: 0 on success with all checks passing, 1 when a check
fails, 2 for parse or validation errors and for an ``--out`` path that
cannot be written.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import bundles
from .errors import MMMKitError, ParseError, QueryError
from .gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    enumerate_monomials,
    format_poly,
    poly_to_terms,
    terms_to_text,
    vector_to_polynomial,
)
from .hopfmodel import (
    GENERATOR_LETTER,
    MAX_DEGREE_CAP,
    STEP,
    fibre_dimension,
    hopf_model,
    l_class_component,
    restricted_model,
)
from .mmm import MMMAlgebra
from .nearprim import (
    near_primitive_monomials,
    near_primitive_span,
    npd,
    verify_equivalence,
)

DEFAULT_BOUND = {"so": 40, "u": 24}

# `bundle custom` over r line bundles checks every motivating identity up to
# degree 2r, at a cost that grows about sevenfold with each eight more.
MAX_LINE_BUNDLES = 16


# --- document plumbing --------------------------------------------------------


def render_table(doc):
    """Plain-text view of a result document."""
    lines = []
    query = doc.get("query")
    if query:
        lines.append("query: " + " ".join(f"{k}={v}" for k, v in query.items()))
    result = doc.get("result", {})
    if "decision" in result:
        verdict = result["decision"]
        if result.get("reason"):
            verdict += f", {result['reason']}"
        lines.append(verdict)
        if result.get("witness") is not None:
            lines.append("witness: " + terms_to_text(result["witness"]))
        if result.get("correction"):
            lines.append("correction: " + terms_to_text(result["correction"]))
    if "polynomial" in result:
        lines.append(terms_to_text(result["polynomial"]))
    if "dimension" in result:
        basis = result.get("basis", [])
        if basis:
            lines.append(
                f"dim {result['dimension']}: "
                + ", ".join(terms_to_text(p) for p in basis)
            )
        else:
            lines.append(f"dim {result['dimension']}")
    if "bundle" in result:
        lines.append(f"bundle: {result['bundle']} (total degree {result['topDegree']})")
    for key in ("mmmNumbers", "charNumbers"):
        if key in result:
            lines.append(f"{key}:")
            for name, (num, den) in result[key].items():
                lines.append(f"  {name} = {Fraction(num, den)}")
    for key in ("checked", "skippedRestricted"):
        if key in result:
            lines.append(f"{key}: {result[key]}")
    for check in doc.get("checks", []):
        status = "PASS" if check["pass"] else "FAIL"
        line = f"[{status}] {check['name']}"
        if check.get("detail"):
            line += f" - {check['detail']}"
        lines.append(line)
    return "\n".join(lines)


def _emit(doc, args):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise QueryError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(render_table(doc))
    return 0 if all(c["pass"] for c in doc.get("checks", [])) else 1


def _span_doc(query, dimension, basis_polys, names=None, checks=()):
    return {
        "query": query,
        "result": {
            "dimension": dimension,
            "basis": [poly_to_terms(p, names) for p in basis_polys],
        },
        "checks": list(checks),
    }


def _check_cap(needed, flags):
    """Refuse a query whose model would pass the degree cap, in the user's flags.

    ``needed`` is the degree the query would build its model to and
    ``flags`` names the flags it comes from.  Checked before anything is built.
    """
    if needed > MAX_DEGREE_CAP:
        raise QueryError(f"{flags} needs degrees up to {needed}, above the cap {MAX_DEGREE_CAP}")


def _check_mmm_cap(args, flag, value, defaulted=False):
    """The cap check of an MMM query, whose model reaches the fibre shift plus ``value``."""
    shift = fibre_dimension(args.flavor, args.d)
    if defaulted:
        flags = f"-d {args.d} with the default {flag} {value}"
    else:
        flags = f"{flag} {value} with -d {args.d}"
    _check_cap(shift + value, flags)


# --- subcommand handlers ------------------------------------------------------


def _cmd_nearprim_basis(args):
    model = hopf_model(args.model, max(args.degree, STEP[args.model]))
    monos = near_primitive_monomials(model, args.degree, args.order)
    span = near_primitive_span(model, args.degree, args.order)
    polys = [Polynomial.from_monomial(model.primitives, e) for e in monos]
    doc = _span_doc(
        {
            "command": "nearprim basis",
            "model": args.model,
            "degree": args.degree,
            "order": args.order,
        },
        span.dim,
        polys,
    )
    return _emit(doc, args)


def _cmd_nearprim_verify(args):
    bound = DEFAULT_BOUND[args.model] if args.max_degree is None else args.max_degree
    if bound < STEP[args.model]:
        letter = GENERATOR_LETTER[args.model]
        raise QueryError(f"--max-degree {bound} is below |{letter}1| = {STEP[args.model]}")
    model = hopf_model(args.model, bound)
    report = verify_equivalence(model, bound)
    checks = [
        {
            "name": "equivalence-sweep",
            "pass": report.all_passed,
            "detail": f"checked {report.checked} (m,d) pairs,"
            f" {report.skipped_restricted} without a restricted pairing",
        }
    ]
    for f in report.failures:
        checks.append(
            {
                "name": f"(m={f.degree}, d={f.order}) {f.check}",
                "pass": False,
                "detail": f.detail,
            }
        )
    doc = {
        "query": {"command": "nearprim verify", "model": args.model, "maxDegree": bound},
        "result": {
            "checked": report.checked,
            "skippedRestricted": report.skipped_restricted,
        },
        "checks": checks,
    }
    return _emit(doc, args)


def _cmd_npd(args):
    model = hopf_model(args.model, max(args.degree, STEP[args.model]))
    space = npd(model, args.d, args.degree)
    polys = []
    if space.dim:  # BU(d) or BSO(d) is built only to name a basis
        alphabet = restricted_model(args.model, args.d).alphabet
        polys = [vector_to_polynomial(alphabet, row, args.degree) for row in space.basis]
    doc = _span_doc(
        {
            "command": "npd",
            "model": args.model,
            "d": args.d,
            "degree": args.degree,
        },
        space.dim,
        polys,
    )
    return _emit(doc, args)


def _cmd_mmm_space(args):
    _check_mmm_cap(args, "--degree", args.degree)
    algebra = MMMAlgebra(args.flavor, args.d, args.degree)
    space = algebra.bordism_invariant_space(args.degree)
    polys = [vector_to_polynomial(algebra.alphabet, row, args.degree) for row in space.basis]
    doc = _span_doc(
        {
            "command": "mmm space",
            "flavor": args.flavor,
            "d": args.d,
            "degree": args.degree,
        },
        space.dim,
        polys,
        names=algebra.display_names,
    )
    return _emit(doc, args)


def _cmd_mmm_test(args):
    bound = DEFAULT_BOUND[args.flavor] if args.bound is None else args.bound
    _check_mmm_cap(args, "--bound", bound, defaulted=args.bound is None)
    algebra = MMMAlgebra(args.flavor, args.d, bound)
    try:
        x = algebra.parse(args.expr)
    except ParseError as exc:
        # A valid generator above the bound is the bound's fault, not the name's.
        degree = algebra.name_degree(exc.token) if exc.token else None
        if degree is None or degree <= bound:
            raise
        flag = f"the default --bound {bound}" if args.bound is None else f"--bound {bound}"
        raise QueryError(f"generator {exc.token!r} has degree {degree}, above {flag}") from None
    verdict = algebra.is_bordism_invariant(x)
    result = {
        "decision": "yes" if verdict.decision else "no",
        "reason": verdict.reason,
        "witness": None,
        "correction": None,
    }
    checks = []
    if verdict.decision:
        result["witness"] = poly_to_terms(verdict.witness)
        result["correction"] = poly_to_terms(verdict.correction, algebra.display_names)
        rebuilt = algebra.hat(verdict.witness) + verdict.correction
        checks.append(
            {
                "name": "witness-re-expansion",
                "pass": rebuilt == x,
                "detail": "hat(witness) + correction reproduces the class",
            }
        )
    doc = {
        "query": {
            "command": "mmm test",
            "flavor": args.flavor,
            "d": args.d,
            "expr": args.expr,
        },
        "result": result,
        "checks": checks,
    }
    return _emit(doc, args)


def _cmd_lclass(args):
    _check_cap(4 * args.k, f"-k {args.k}")
    model = hopf_model("so", 4 * args.k)
    poly = l_class_component(model, args.k)
    doc = {
        "query": {"command": "lclass", "k": args.k},
        "result": {"polynomial": poly_to_terms(poly)},
        "checks": [],
    }
    return _emit(doc, args)


def _bundle_doc(bundle, command_query, with_numbers):
    base_top = bundle.base.top_degree
    chi = bundle.fibre_euler_number()
    checks = [
        {
            "name": "fibre-integration-normalization",
            "pass": bundle.fibre_integrate(
                bundle.total.pow(
                    Polynomial.generator(
                        bundle.total.alphabet,
                        bundle.total.alphabet.names[bundle.xi_index],
                    ),
                    bundle.rank - 1,
                )
            )
            == bundle.base.one(),
            "detail": "pi_!(xi^(r-1)) = 1",
        },
        {
            "name": "pullback-integrates-to-zero",
            "pass": all(
                bundle.fibre_integrate(
                    bundle.pullback(Polynomial.generator(bundle.base.alphabet, name))
                ).is_zero()
                for name in bundle.base.alphabet.names
            ),
            "detail": "pi_! pi* = 0 on the base generators",
        },
        {
            "name": "fibre-euler-number",
            # chi(CP^{r-1}) = r
            "pass": chi == bundle.rank,
            "detail": f"c_{bundle.rank - 1}(Tv) evaluates to {chi} on the fibre",
        },
    ]
    # X_j has degree 4j (so) or 2j (u).
    for flavor, step in (("so", 4), ("u", 2)):
        for j in range(1, bundle.total.top_degree // step + 1):
            rep = bundles.verify_motivating_identity(bundle, j, flavor)
            detail = (
                f"both sides {rep.total_side}"
                if rep.total_side == rep.base_side
                else f"total side {rep.total_side}, base side {rep.base_side}"
            )
            if not rep.class_level_equal:
                detail += "; the fibre integrals of X(TE) and X(TvE) differ"
            checks.append(
                {
                    "name": f"motivating-identity-{flavor}-j{j}",
                    "pass": rep.equal,
                    "detail": detail,
                }
            )
    result = {"bundle": bundle.label, "topDegree": bundle.total.top_degree}
    if with_numbers:
        e_alphabet = [("e%d" % i, 2 * i) for i in range(1, base_top // 2 + 1)]
        mmm_numbers = {}
        if e_alphabet:
            alph = GeneratorAlphabet(e_alphabet)
            for exp in enumerate_monomials(alph, base_top):
                indices = []
                for gi, e in enumerate(exp):
                    indices.extend([gi + 1] * e)
                value = bundles.mmm_number(bundle, indices)
                name = format_poly(Polynomial.from_monomial(alph, exp))
                mmm_numbers[name + "#"] = [value.numerator, value.denominator]
        result["mmmNumbers"] = mmm_numbers
        result["charNumbers"] = {
            name: [v.numerator, v.denominator]
            for name, v in sorted(bundles.total_space_char_numbers(bundle).items())
        }
    return {"query": command_query, "result": result, "checks": checks}


def _cmd_bundle_hirzebruch(args):
    bundle = bundles.hirzebruch(args.k)
    doc = _bundle_doc(
        bundle,
        {"command": "bundle hirzebruch", "k": args.k},
        args.numbers,
    )
    return _emit(doc, args)


_BASES = {
    "cp1": lambda: bundles.projective_space(1),
    "cp2": lambda: bundles.projective_space(2),
    "cp1xcp1": lambda: bundles.product_ring(
        bundles.projective_space(1), bundles.projective_space(1)
    ),
}


def _cmd_bundle_custom(args):
    if args.base not in _BASES:
        raise ParseError(f"unknown base {args.base!r}", token=args.base)
    base = _BASES[args.base]()
    try:
        twists = [int(t) for t in args.twist.split(",")]
    except ValueError:
        raise ParseError(
            f"twist must be a comma list of integers, got {args.twist!r}",
            token=args.twist,
        ) from None
    width = sum(1 for d in base.alphabet.degrees if d == 2)
    count = len(twists) // width
    if len(twists) % width != 0 or count < 2:
        raise ParseError(
            f"base {args.base} needs {width} integers per line bundle"
            f" and at least two line bundles",
            token=args.twist,
        )
    if count > MAX_LINE_BUNDLES:
        raise QueryError(
            f"--twist lists {count} line bundles; at most {MAX_LINE_BUNDLES} are accepted"
        )
    if args.numbers and count != 2:
        raise QueryError(f"--numbers needs exactly two line bundles in --twist; got {count}")
    grouped = [
        tuple(twists[i : i + width]) for i in range(0, len(twists), width)
    ]
    bundle = bundles.projectivize(
        base,
        bundles.line_bundle_sum(base, grouped),
        label=f"{'+'.join('O(' + ','.join(map(str, g)) + ')' for g in grouped)} over {args.base}",
    )
    doc = _bundle_doc(
        bundle,
        {"command": "bundle custom", "base": args.base, "twist": args.twist},
        args.numbers,
    )
    return _emit(doc, args)


# --- parser -------------------------------------------------------------------


def _positive_int(text):
    """argparse type for bounds and degrees; argparse names the flag on error."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, with the text as given
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    parser.add_argument("--out", metavar="PATH", help="also write the JSON document here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmmkit",
        description="Near-primitive characteristic classes and bordism-invariant MMM numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nearprim = sub.add_parser("nearprim", help="near-primitive subspaces")
    nearprim_sub = nearprim.add_subparsers(dest="subcommand", required=True)
    basis = nearprim_sub.add_parser("basis", help="closed-form basis of one slice")
    basis.add_argument("--model", choices=("so", "u"), required=True)
    basis.add_argument("--degree", type=_positive_int, required=True, metavar="M")
    basis.add_argument("--order", type=int, required=True, metavar="D")
    _add_common(basis)
    basis.set_defaults(handler=_cmd_nearprim_basis)
    verify = nearprim_sub.add_parser("verify", help="cross-validate all three routes")
    verify.add_argument("--model", choices=("so", "u"), required=True)
    verify.add_argument("--max-degree", type=_positive_int, metavar="N")
    _add_common(verify)
    verify.set_defaults(handler=_cmd_nearprim_verify)

    npd_p = sub.add_parser("npd", help="restricted image of the near-primitives")
    npd_p.add_argument("--model", choices=("so", "u"), required=True)
    npd_p.add_argument("-d", type=int, required=True)
    npd_p.add_argument("--degree", type=_positive_int, required=True, metavar="N")
    _add_common(npd_p)
    npd_p.set_defaults(handler=_cmd_npd)

    mmm_p = sub.add_parser("mmm", help="generalized MMM classes")
    mmm_sub = mmm_p.add_subparsers(dest="subcommand", required=True)
    space = mmm_sub.add_parser("space", help="bordism-invariant slice")
    space.add_argument("--flavor", choices=("so", "u"), required=True)
    space.add_argument("-d", type=int, required=True)
    space.add_argument("--degree", type=_positive_int, required=True, metavar="N")
    _add_common(space)
    space.set_defaults(handler=_cmd_mmm_space)
    test = mmm_sub.add_parser("test", help="decide invariance of one class")
    test.add_argument("--flavor", choices=("so", "u"), required=True)
    test.add_argument("-d", type=int, required=True)
    test.add_argument("--expr", required=True, metavar="CLASS")
    test.add_argument("--bound", type=_positive_int, help="generator degree bound")
    _add_common(test)
    test.set_defaults(handler=_cmd_mmm_test)

    lclass = sub.add_parser("lclass", help="Hirzebruch L-class component")
    lclass.add_argument("-k", type=_positive_int, required=True)
    _add_common(lclass)
    lclass.set_defaults(handler=_cmd_lclass)

    bundle = sub.add_parser("bundle", help="projective-bundle examples")
    bundle_sub = bundle.add_subparsers(dest="subcommand", required=True)
    hirz = bundle_sub.add_parser("hirzebruch", help="P(O+O(k)) over CP^1")
    hirz.add_argument("-k", type=int, required=True)
    hirz.add_argument("--numbers", action="store_true", help="include characteristic numbers")
    _add_common(hirz)
    hirz.set_defaults(handler=_cmd_bundle_hirzebruch)
    custom = bundle_sub.add_parser("custom", help="projectivized sum of line bundles")
    custom.add_argument("--base", required=True, metavar="cp1|cp2|cp1xcp1")
    custom.add_argument(
        "--twist",
        required=True,
        metavar="LIST",
        help="comma list of line-bundle degrees; on cp1xcp1, consecutive (a,b) pairs;"
        " write a list that starts with a minus sign as --twist=-1,2",
    )
    custom.add_argument("--numbers", action="store_true", help="include characteristic numbers")
    _add_common(custom)
    custom.set_defaults(handler=_cmd_bundle_custom)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("degree", "max_degree", "bound"):
            value = getattr(args, name, None)
            if value is not None and value > MAX_DEGREE_CAP:
                flag = "--" + name.replace("_", "-")
                raise QueryError(f"{flag} {value} exceeds the cap {MAX_DEGREE_CAP}")
        return args.handler(args)
    except ParseError as exc:
        token = f" (token {exc.token!r})" if getattr(exc, "token", None) else ""
        print(f"error: {exc}{token}", file=sys.stderr)
        return 2
    except MMMKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
