"""CLI surface: golden lines, JSON/table agreement, exit codes."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit import bundles, cli, gradedalg, hopfmodel, mmm, nearprim
from mmmkit.cli import render_table, run
from mmmkit.gradedalg import (
    GeneratorAlphabet,
    Polynomial,
    enumerate_monomials,
    format_poly,
    parse_poly,
    poly_to_terms,
    terms_to_text,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nearprim_basis_golden(capsys):
    code, out, err = invoke(
        capsys, "nearprim", "basis", "--model", "so", "--degree", "8", "--order", "5"
    )
    assert code == 0 and err == ""
    assert "dim 2: Q1^2, Q2" in out


def test_mmm_test_golden_no(capsys):
    code, out, err = invoke(
        capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e2"
    )
    assert code == 0  # a negative verdict is still a successful query
    assert "no, notInNPdImage" in out
    assert "witness" not in out


def test_mmm_test_golden_yes(capsys):
    code, out, err = invoke(
        capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e3"
    )
    assert code == 0
    assert "yes" in out.splitlines()[1]
    assert "witness: e^4" in out
    assert "[PASS] witness-re-expansion" in out


@pytest.mark.parametrize(
    "expr, verdict",
    [("e3", "yes"), ("e2", "no, notInNPdImage"), ("e1*e1", "no, notPrimitive")],
)
def test_mmm_test_table_prints_each_verdict_line(expr, verdict, capsys):
    code, out, err = invoke(capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", expr)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == verdict


def test_lclass_golden(capsys):
    code, out, err = invoke(capsys, "lclass", "-k", "1")
    assert code == 0
    assert out.splitlines()[-1] == "1/3*p1"
    code, out, err = invoke(capsys, "lclass", "-k", "2")
    assert "-1/45*p1^2 + 7/45*p2" in out


def test_npd_golden(capsys):
    code, out, err = invoke(
        capsys, "npd", "--model", "u", "-d", "2", "--degree", "8"
    )
    assert code == 0
    assert "dim 1: c1^4 - 4*c1^2*c2 + 2*c2^2" in out


@pytest.mark.parametrize("model", ["u", "so"])
def test_npd_below_the_fibre_dimension_builds_no_restricted_model(model, monkeypatch, capsys):
    """NP_d is zero below the fibre dimension, so a rank far above every
    degree answers at once instead of building BU(d) or BSO(d)."""

    class Refusing(hopfmodel.RestrictedModel):
        def __init__(self, kind, d):
            if d > hopfmodel.MAX_DEGREE_CAP:
                raise AssertionError(f"built the restricted model of rank {d}")
            super().__init__(kind, d)

    monkeypatch.setattr(hopfmodel, "RestrictedModel", Refusing)
    code, out, err = invoke(capsys, "npd", "--model", model, "-d", "4000000", "--degree", "8")
    assert (code, err) == (0, "")
    assert out == f"query: command=npd model={model} d=4000000 degree=8\ndim 0\n"
    space = nearprim.npd(hopfmodel.hopf_model(model, 8), 4000000, 8)
    small = hopfmodel.restricted_model(model, 9)  # fibre dimension above 8 too
    assert space.ambient_dim == len(enumerate_monomials(small.alphabet, 8))
    assert space.dim == 0


def test_mmm_space_goldens(capsys):
    code, out, _ = invoke(
        capsys, "mmm", "space", "--flavor", "so", "-d", "2", "--degree", "6"
    )
    assert code == 0 and "dim 1: e3" in out
    code, out, _ = invoke(
        capsys, "mmm", "space", "--flavor", "so", "-d", "2", "--degree", "4"
    )
    assert code == 0 and "dim 0" in out
    code, out, _ = invoke(
        capsys, "mmm", "space", "--flavor", "u", "-d", "1", "--degree", "12"
    )
    assert code == 0 and "dim 1: e6" in out


def test_every_query_of_the_benchmark_matches_its_goldens(monkeypatch, capsys):
    """Every query the benchmark can draw, run in-process, gives the exit
    code and result digest recorded in perfbench/goldens.json."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    goldens = json.loads((bench / "goldens.json").read_text())
    queries = workloads.all_queries()
    assert len(queries) == 800
    wrong = []
    for query in queries:
        try:
            code, out, _ = invoke(capsys, *query.argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        golden = goldens[query.key]
        got = {"exit": code}
        if golden["exit"] == 0:
            # The digest of perfbench/run.py's result_digest.
            text = json.dumps(json.loads(out)["result"], sort_keys=True, separators=(",", ":"))
            got["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        if got != golden:
            wrong.append(query.key)
    assert wrong == []


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        max_size=4,
    )
)
def test_json_terms_read_the_same_from_int_and_fraction_coefficients(terms):
    alphabet = GeneratorAlphabet([("c1", 2), ("c2", 4)])
    poly = Polynomial(alphabet, terms)
    # The same polynomial with every coefficient boxed as a Fraction, as
    # the container stored it before integral coefficients became ints.
    boxed = Polynomial(alphabet)
    boxed.terms = {e: Fraction(c) for e, c in poly.terms.items()}
    assert json.dumps(poly_to_terms(poly)) == json.dumps(poly_to_terms(boxed))
    assert format_poly(poly) == format_poly(boxed)
    assert poly == boxed and hash(poly) == hash(boxed)


# The exact table bytes of one query per subcommand, recorded before the
# table view and `format_poly` came to render through one function.
TABLE_OUTPUTS = {
    ("nearprim", "basis", "--model", "so", "--degree", "8", "--order", "5"): (
        "query: command=nearprim basis model=so degree=8 order=5\n"
        "dim 2: Q1^2, Q2\n"
    ),
    ("nearprim", "verify", "--model", "so", "--max-degree", "12"): (
        "query: command=nearprim verify model=so maxDegree=12\n"
        "checked: 24\n"
        "skippedRestricted: 3\n"
        "[PASS] equivalence-sweep - checked 24 (m,d) pairs, 3 without a restricted pairing\n"
    ),
    ("npd", "--model", "u", "-d", "2", "--degree", "8"): (
        "query: command=npd model=u d=2 degree=8\n"
        "dim 1: c1^4 - 4*c1^2*c2 + 2*c2^2\n"
    ),
    ("mmm", "space", "--flavor", "so", "-d", "2", "--degree", "6"): (
        "query: command=mmm space flavor=so d=2 degree=6\n"
        "dim 1: e3\n"
    ),
    ("mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e1*e1"): (
        "query: command=mmm test flavor=so d=2 expr=e1*e1\n"
        "no, notPrimitive\n"
    ),
    ("lclass", "-k", "3"): (
        "query: command=lclass k=3\n"
        "2/945*p1^3 - 13/945*p1*p2 + 62/945*p3\n"
    ),
    ("bundle", "hirzebruch", "-k", "1", "--numbers"): (
        "query: command=bundle hirzebruch k=1\n"
        "bundle: O+O(1) over cp1 (total degree 4)\n"
        "mmmNumbers:\n"
        "  e1# = 0\n"
        "charNumbers:\n"
        "  c1^2 = 8\n"
        "  c2 = 4\n"
        "  p1 = 0\n"
        "[PASS] fibre-integration-normalization - pi_!(xi^(r-1)) = 1\n"
        "[PASS] pullback-integrates-to-zero - pi_! pi* = 0 on the base generators\n"
        "[PASS] fibre-euler-number - c_1(Tv) evaluates to 2 on the fibre\n"
        "[PASS] motivating-identity-so-j1 - both sides 0\n"
        "[PASS] motivating-identity-u-j1 - both sides 0\n"
        "[PASS] motivating-identity-u-j2 - both sides 0\n"
    ),
    ("bundle", "custom", "--base", "cp1xcp1", "--twist", "0,0,2,1", "--numbers"): (
        "query: command=bundle custom base=cp1xcp1 twist=0,0,2,1\n"
        "bundle: O(0,0)+O(2,1) over cp1xcp1 (total degree 6)\n"
        "mmmNumbers:\n"
        "  e1^2# = 0\n"
        "  e2# = 8\n"
        "charNumbers:\n"
        "  c1*c2 = 24\n"
        "  c1^3 = 56\n"
        "  c3 = 8\n"
        "[PASS] fibre-integration-normalization - pi_!(xi^(r-1)) = 1\n"
        "[PASS] pullback-integrates-to-zero - pi_! pi* = 0 on the base generators\n"
        "[PASS] fibre-euler-number - c_1(Tv) evaluates to 2 on the fibre\n"
        "[PASS] motivating-identity-so-j1 - both sides 0\n"
        "[PASS] motivating-identity-u-j1 - both sides 0\n"
        "[PASS] motivating-identity-u-j2 - both sides 0\n"
        "[PASS] motivating-identity-u-j3 - both sides 4/3\n"
    ),
}


@pytest.mark.parametrize("argv", list(TABLE_OUTPUTS))
def test_json_and_table_render_the_same_document(argv, capsys):
    code_t, table_out, _ = invoke(capsys, *argv, "--format", "table")
    code_j, json_out, _ = invoke(capsys, *argv, "--format", "json")
    assert code_t == code_j == 0
    doc = json.loads(json_out)
    assert render_table(doc) == table_out.rstrip("\n")
    assert table_out == TABLE_OUTPUTS[argv]


def test_out_flag_writes_the_json_document(tmp_path, capsys):
    path = tmp_path / "slice.json"
    code, out, _ = invoke(
        capsys,
        "nearprim", "basis", "--model", "so", "--degree", "8", "--order", "5",
        "--out", str(path),
    )
    assert code == 0
    assert "dim 2" in out  # table still printed
    doc = json.loads(path.read_text())
    assert doc["result"]["dimension"] == 2
    assert doc["query"]["command"] == "nearprim basis"
    assert terms_to_text(doc["result"]["basis"][0]) == "Q1^2"


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_out_to_an_unwritable_path_exits_two(where, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    code, out, err = invoke(
        capsys,
        "nearprim", "basis", "--model", "so", "--degree", "8", "--order", "5",
        "--out", str(path),
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


def test_parse_error_exit_two_names_token(capsys):
    code, out, err = invoke(
        capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e2 + $"
    )
    assert code == 2 and out == ""
    assert "error:" in err and "'$'" in err

    code, _, err = invoke(
        capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", "zz9"
    )
    assert code == 2 and "'zz9'" in err


def test_validation_error_exit_two(capsys):
    code, _, err = invoke(
        capsys, "nearprim", "basis", "--model", "so", "--degree", "4", "--order", "8"
    )
    assert code == 2 and "degree" in err

    code, _, err = invoke(
        capsys, "nearprim", "verify", "--model", "so", "--max-degree", "200"
    )
    assert code == 2 and "cap" in err

    code, _, err = invoke(capsys, "bundle", "custom", "--base", "torus", "--twist", "0,1")
    assert code == 2 and "'torus'" in err

    code, _, err = invoke(
        capsys, "bundle", "custom", "--base", "cp1xcp1", "--twist", "0,0,2"
    )
    assert code == 2 and "line bundle" in err

    code, _, err = invoke(
        capsys, "bundle", "custom", "--base", "cp1", "--twist", "0,x"
    )
    assert code == 2 and "'0,x'" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mmm"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_failure_exits_one(monkeypatch, capsys):
    original = nearprim._delta_bar_slice

    def corrupted(kind, max_degree, m):
        basis, columns = original(kind, max_degree, m)
        if m != 8 or not columns or not columns[0]:
            return basis, columns
        key = next(iter(columns[0]))
        return basis, ({**columns[0], key: columns[0][key] + 1},) + columns[1:]

    monkeypatch.setattr(nearprim, "_delta_bar_slice", corrupted)
    code, out, _ = invoke(
        capsys, "nearprim", "verify", "--model", "so", "--max-degree", "12"
    )
    assert code == 1
    assert "[FAIL]" in out and "(m=8" in out


def test_verify_clean_run(capsys):
    code, out, _ = invoke(
        capsys, "nearprim", "verify", "--model", "u", "--max-degree", "10"
    )
    assert code == 0
    assert "[PASS] equivalence-sweep" in out
    assert "checked: 30" in out
    assert "skippedRestricted: 15" in out


def test_bundle_hirzebruch_numbers(capsys):
    code, out, _ = invoke(capsys, "bundle", "hirzebruch", "-k", "2", "--numbers")
    assert code == 0
    assert "[FAIL]" not in out
    assert "e1# = 0" in out
    assert "c1^2 = 8" in out and "c2 = 4" in out and "p1 = 0" in out
    assert "[PASS] fibre-euler-number" in out
    assert "[PASS] motivating-identity-so-j1" in out


def test_bundle_custom_biproj_numbers(capsys):
    code, out, _ = invoke(
        capsys,
        "bundle", "custom", "--base", "cp1xcp1", "--twist", "0,0,2,1", "--numbers",
    )
    assert code == 0
    assert "e2# = 8" in out
    assert "e1^2# = 0" in out
    assert "[PASS] motivating-identity-u-j3" in out


def test_bundle_custom_rank_three_passes_its_checks(capsys):
    code, out, _ = invoke(capsys, "bundle", "custom", "--base", "cp1", "--twist", "0,1,2")
    assert code == 0 and "[FAIL]" not in out
    assert "[PASS] fibre-euler-number - c_2(Tv) evaluates to 3 on the fibre" in out


def test_bundle_custom_accepts_at_most_sixteen_line_bundles(monkeypatch, capsys):
    code, out, _ = invoke(capsys, "bundle", "custom", "--base", "cp1", "--twist", ",".join("0" * 16))
    assert code == 0 and "[FAIL]" not in out
    assert "O(0)+" * 15 + "O(0) over cp1" in out

    def refuse(*args, **kwargs):
        raise AssertionError("built a bundle over the line-bundle limit")

    monkeypatch.setattr(bundles, "line_bundle_sum", refuse)
    for base, width in (("cp1", 1), ("cp2", 1), ("cp1xcp1", 2)):
        twist = ",".join("0" * 17 * width)
        code, out, err = invoke(capsys, "bundle", "custom", "--base", base, "--twist", twist)
        assert code == 2 and out == ""
        assert err == "error: --twist lists 17 line bundles; at most 16 are accepted\n"


def test_a_failing_fibre_euler_check_reports_the_computed_number(monkeypatch, capsys):
    monkeypatch.setattr(bundles.BundleModel, "fibre_euler_number", lambda self: Fraction(5))
    code, out, _ = invoke(capsys, "bundle", "hirzebruch", "-k", "1")
    assert code == 1
    assert "[FAIL] fibre-euler-number - c_1(Tv) evaluates to 5 on the fibre" in out.splitlines()


@pytest.mark.parametrize(
    "shift, class_level, detail",
    [
        (Fraction(1, 2), True, "total side 0, base side 1/2"),
        (0, False, "both sides 0; the fibre integrals of X(TE) and X(TvE) differ"),
    ],
)
def test_a_failing_motivating_identity_reports_both_sides(
    shift, class_level, detail, monkeypatch, capsys
):
    original = bundles.verify_motivating_identity

    def skewed(bundle, j, flavor="so"):
        rep = original(bundle, j, flavor)
        base_side = rep.base_side + shift if (flavor, j) == ("so", 1) else rep.base_side
        equal = class_level or (flavor, j) != ("so", 1)
        return bundles.IdentityReport(rep.total_side, base_side, equal)

    monkeypatch.setattr(bundles, "verify_motivating_identity", skewed)
    code, out, _ = invoke(capsys, "bundle", "hirzebruch", "-k", "1")
    assert code == 1
    lines = out.splitlines()
    assert f"[FAIL] motivating-identity-so-j1 - {detail}" in lines
    assert "[PASS] motivating-identity-u-j1 - both sides 0" in lines


def test_negative_twists_are_written_with_an_equals_sign(capsys):
    code, out, _ = invoke(capsys, "bundle", "custom", "--base", "cp1", "--twist=-1,2")
    assert code == 0 and "[FAIL]" not in out
    with pytest.raises(SystemExit) as exc:
        run(["bundle", "custom", "--help"])
    assert exc.value.code == 0
    assert "--twist=-1,2" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "base, twist, count",
    [("cp2", "0,1,2", 3), ("cp1", "0,1,2,3", 4), ("cp1xcp1", "0,0,1,1,2,2", 3)],
)
def test_numbers_on_more_than_two_line_bundles_name_both_flags(base, twist, count, capsys):
    code, out, err = invoke(
        capsys, "bundle", "custom", "--base", base, "--twist", twist, "--numbers"
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: --numbers needs exactly two line bundles in --twist; got {count}\n"
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e1", "--bound", "0"), "--bound"),
        (("nearprim", "verify", "--model", "u", "--max-degree", "0"), "--max-degree"),
        (("nearprim", "basis", "--model", "so", "--degree", "0", "--order", "1"), "--degree"),
        (("npd", "--model", "so", "-d", "2", "--degree", "0"), "--degree"),
        (("mmm", "space", "--flavor", "so", "-d", "3", "--degree", "-4"), "--degree"),
        (("lclass", "-k", "0"), "-k"),
    ],
)
def test_non_positive_bounds_are_refused(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer" in err
    assert "|p1|" not in err


def test_slices_below_the_first_generator_are_empty(capsys):
    code, out, _ = invoke(
        capsys, "mmm", "space", "--flavor", "so", "-d", "2", "--degree", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"dimension": 0, "basis": []}
    code, out, _ = invoke(capsys, "npd", "--model", "so", "-d", "4", "--degree", "2")
    assert code == 0 and "dim 0" in out


@pytest.mark.parametrize(
    "argv, result",
    [
        # MMM alphabets of 4 512 and 7 394 generators.
        (
            ("mmm", "test", "--flavor", "u", "-d", "6", "--expr", "E2_1", "--bound", "40"),
            {"decision": "no", "reason": "notInNPdImage", "witness": None, "correction": None},
        ),
        (
            ("mmm", "test", "--flavor", "u", "-d", "10", "--expr", "E2_1", "--bound", "30"),
            {"decision": "no", "reason": "notInNPdImage", "witness": None, "correction": None},
        ),
        # A restricted model of 5 000 Chern classes.
        (("npd", "--model", "u", "-d", "5000", "--degree", "8"), {"dimension": 0, "basis": []}),
    ],
)
def test_large_alphabets_answer_without_a_recursion_error(argv, result, capsys):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == result


def test_terms_round_trip_matches_formatter():
    """The text of a polynomial's JSON terms parses back to the polynomial."""
    rng = random.Random(91)
    alphabet = GeneratorAlphabet([("c1", 2), ("c2", 4)])
    for _ in range(25):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 2)): Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
            for _ in range(rng.randint(0, 4))
        }
        poly = Polynomial(alphabet, terms)
        text = terms_to_text(poly_to_terms(poly))
        assert text == format_poly(poly)
        assert parse_poly(text, alphabet) == poly


@pytest.mark.parametrize(
    "argv,message",
    [
        (("lclass", "-k", "40"), "-k 40 needs degrees up to 160, above the cap 128"),
        (
            ("mmm", "test", "--flavor", "so", "-d", "3", "--expr", "E1_1", "--bound", "128"),
            "--bound 128 with -d 3 needs degrees up to 131, above the cap 128",
        ),
        (
            ("mmm", "test", "--flavor", "u", "-d", "60", "--expr", "E2_1"),
            "-d 60 with the default --bound 24 needs degrees up to 144, above the cap 128",
        ),
        (
            ("mmm", "space", "--flavor", "so", "-d", "4", "--degree", "126"),
            "--degree 126 with -d 4 needs degrees up to 130, above the cap 128",
        ),
        (("nearprim", "verify", "--model", "u", "--max-degree", "200"), "--max-degree 200 exceeds the cap 128"),
    ],
)
def test_cap_errors_name_the_users_flags(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built a model for a query over the cap")

    monkeypatch.setattr(cli, "hopf_model", refuse)
    monkeypatch.setattr(cli, "MMMAlgebra", refuse)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("nearprim", "verify", "--model", "so", "--max-degree", "2"), "--max-degree 2 is below |p1| = 4"),
        (("nearprim", "verify", "--model", "u", "--max-degree", "1"), "--max-degree 1 is below |c1| = 2"),
        (
            ("mmm", "test", "--flavor", "so", "-d", "4", "--expr", "E4_1", "--bound", "2"),
            "generator 'E4_1' has degree 4, above --bound 2",
        ),
        (
            ("mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e1 + e50"),
            "generator 'e50' has degree 100, above the default --bound 40",
        ),
        (
            ("mmm", "test", "--flavor", "so", "-d", "4", "--expr", "E9_1", "--bound", "2"),
            "unknown generator 'E9_1' at position 0 (token 'E9_1')",
        ),
        (
            ("mmm", "test", "--flavor", "so", "-d", "4", "--expr", "E4_4", "--bound", "2"),
            "unknown generator 'E4_4' at position 0 (token 'E4_4')",
        ),
    ],
)
def test_bound_errors_name_the_users_flags(argv, message, capsys):
    """A bound below what the query asks for is named by its flag; a name
    that no bound admits stays an unknown generator."""
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_unknown_ordinal_is_refused_without_enumerating_its_slice(monkeypatch, capsys):
    """Whether E80_99999999 names a generator at any bound is decided by
    counting BU(20)'s degree-120 monomials off the Poincare series; the
    error message does not enumerate that slice."""
    enumerate_monomials = gradedalg.enumerate_monomials

    def guarded(alphabet, degree, allowed=None):
        assert degree != 120, "the degree-120 slice was enumerated"
        return enumerate_monomials(alphabet, degree, allowed)

    for module in (gradedalg, mmm):  # every binding of the function
        if getattr(module, "enumerate_monomials", None) is enumerate_monomials:
            monkeypatch.setattr(module, "enumerate_monomials", guarded)
    argv = ("mmm", "test", "--flavor", "u", "-d", "20", "--expr", "E80_99999999", "--bound", "4")
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: unknown generator 'E80_99999999' at position 0 (token 'E80_99999999')\n"


def test_a_huge_exponent_is_refused_by_its_degree_at_once(capsys):
    """The parser builds g^e as one monomial, so the bound check sees the
    degree of e1^100000000 without multiplying e1 by itself 10^8 times."""
    code, out, err = invoke(
        capsys, "mmm", "test", "--flavor", "so", "-d", "2", "--expr", "e1^100000000"
    )
    assert code == 2 and out == ""
    assert err == "error: degree 200000000 exceeds the configured bound 40\n"


def test_an_odd_generator_cubed_is_zero(capsys):
    """E1_1 has odd degree at so, d=3, so its cube is the zero class."""
    argv = ("mmm", "test", "--flavor", "so", "-d", "3", "--expr", "E1_1^3")
    code, out, err = invoke(capsys, *argv, "--format", "table")
    assert code == 0 and err == ""
    assert out == (
        "query: command=mmm test flavor=so d=3 expr=E1_1^3\n"
        "yes\n"
        "witness: 0\n"
        "[PASS] witness-re-expansion - hat(witness) + correction reproduces the class\n"
    )
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert out == (
        '{\n  "query": {\n    "command": "mmm test",\n    "flavor": "so",\n    "d": 3,\n'
        '    "expr": "E1_1^3"\n  },\n  "result": {\n    "decision": "yes",\n'
        '    "reason": null,\n    "witness": [],\n    "correction": []\n  },\n'
        '  "checks": [\n    {\n      "name": "witness-re-expansion",\n'
        '      "pass": true,\n'
        '      "detail": "hat(witness) + correction reproduces the class"\n    }\n  ]\n}\n'
    )


def test_the_cli_does_not_import_dataclasses_or_inspect():
    """Every CLI process pays for its imports; keep the heavy ones out."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, mmmkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
