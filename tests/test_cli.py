"""CLI: golden outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gwitt import dsl, witt
from gwitt.cli import run
from gwitt.dsl import build_group, parse_group
from gwitt.groups import subconjugacy_poset
from oracles import containment_leq


def capture_streams(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = run(argv, stream=stdout)
    return status, stdout.getvalue(), stderr.getvalue()


def capture(argv):
    """Exit status and stdout of a run that writes nothing to stderr."""
    status, out, err = capture_streams(argv)
    assert err == ""
    return status, out


def capture_error(argv):
    """Exit status and stderr of a run that writes nothing to stdout."""
    status, out, err = capture_streams(argv)
    assert out == ""
    return status, err


def test_tom_golden():
    status, text = capture(["tom", "C(2)"])
    assert status == 0
    assert text == "     1a 2a\n1a    2  0\n2a    1  1\n"
    status, payload = capture(["tom", "C(2)", "--format", "json"])
    data = json.loads(payload)
    assert data["rows"] == [[2, 0], [1, 1]]
    assert data["schema"] == 1


def test_witt_mul_symbolic_golden():
    status, text = capture(
        ["witt", "mul", "C(2)", "(a0,a1)", "(b0,b1)", "--symbolic"]
    )
    assert status == 0
    assert text == "(a0*b0, a0^2*b1 + b0^2*a1 + 2*a1*b1)\n"


def test_witt_add_symbolic():
    status, text = capture(
        ["witt", "add", "C(2)", "(a0,a1)", "(b0,b1)", "--symbolic"]
    )
    assert status == 0
    assert text == "(a0 + b0, -a0*b0 + a1 + b1)\n"


def test_witt_neg_golden():
    status, text = capture(["witt", "neg", "C(2)", "(a0,a1)", "--symbolic"])
    assert status == 0
    assert text == "(-a0, -a0^2 - a1)\n"


def test_witt_ghost_and_unghost_integer():
    status, text = capture(["witt", "ghost", "C(2)", "(2,1)"])
    assert status == 0
    # top class first: Phi_[C2] = 2, Phi_[e] = 2^2 + 2*1 = 6
    assert text == "(2, 6)\n"
    status, text = capture(["witt", "unghost", "C(2)", "(2,6)"])
    assert status == 0
    assert text == "(2, 1)\n"


def test_integrality_exit_code():
    status, text = capture_error(["witt", "unghost", "C(2)", "(0,1)"])
    assert status == 3
    assert "integrality" in text


def test_symbolic_requires_flag():
    status, text = capture_error(["witt", "ghost", "C(2)", "(a0,a1)"])
    assert status == 2
    assert "--symbolic" in text


def test_witt_verify_exit_codes():
    status, text = capture(["witt", "verify", "iso", "S(3)"])
    assert status == 0
    assert "ok" in text
    status, _ = capture(["witt", "verify", "factorization", "C(4)", "--samples", "5"])
    assert status == 0


def test_witt_tau():
    status, text = capture(["witt", "tau", "C(2)", "(0,1)"])
    assert status == 0
    # alpha = (a_[C2]=0, a_[e]=1): tau = 1·[C2/e]
    assert "tau: 1,0" in text


def test_parse_error_exit_code_and_position():
    status, text = capture_error(["tom", "C(2"])
    assert status == 2
    assert "line 1, column 4" in text


@pytest.mark.parametrize("argv, column", [
    (["lattice", "C(²)"], 3),
    (["witt", "ghost", "C(2)", "(1,²)"], 4),
])
def test_a_digit_int_cannot_read_is_a_syntax_error(argv, column):
    status, text = capture_error(argv)
    assert status == 2
    assert text == f"syntax error at line 1, column {column}: unexpected character '²'\n"


def test_usage_error_exit_code():
    status, _ = capture_error(["unknown-subcommand"])
    assert status == 2


def test_group_order_cap_exit_code():
    for argv in (["lattice", "C(70)"], ["tom", "D(33)"], ["tom", "C(100000)"]):
        status, text = capture_error(argv)
        assert status == 2
        assert "exceeds cap 64" in text


def test_lattice_marks_orbits():
    status, text = capture(["lattice", "S(3)"])
    assert status == 0
    assert "1a: order 1" in text and "6a: order 6" in text
    status, text = capture(["marks", "C(2)", "1,2"])
    assert status == 0
    assert "1a=4 2a=2" in text
    status, text = capture(["orbits", "C(2)/<> + C(2)/<0,1>"])
    assert status == 0
    assert "1 x [G/1a] + 1 x [G/2a]" in text


@pytest.mark.parametrize("text", [
    "perm[(0 1),(2 3),(4 5),(6 7)]", "perm[(0 1),(0 1 2 3),(4 5)]", "D(32)",
    "perm[(0 1),(2 3),(4 5),(6 7),(8 9)]",
], ids=["C2^4", "S4xC2", "D32", "C2^5"])
def test_lattice_below_lists_match_the_containment_oracle(text):
    group = build_group(parse_group(text))
    labels = subconjugacy_poset(group).labels()
    want = [[labels[j] for j, up in enumerate(row) if up] for row in containment_leq(group)]
    status, out = capture(["lattice", text, "--format", "json"])
    assert status == 0
    assert [c["below"] for c in json.loads(out)["classes"]] == want


def test_burnside_mul_cli():
    status, text = capture(["burnside", "mul", "S(3)", "0,1,0,0", "0,0,1,0"])
    assert status == 0
    assert "product: 1,0,0,0" in text


def test_compose_simple_factor():
    status, text = capture(
        ["compose", "T(fold(C(2)/<>)) ; N(C(2)/<> -> C(2)/<0,1> [0,0])"]
    )
    assert status == 0
    assert "phi_y0" in text
    status, text = capture(["simple", "T(fold(C(2)/<>))"])
    assert status == 0
    assert text.startswith("simple")
    status, text = capture(
        ["factor", "T(fold(C(2)/<>)) ; N(C(2)/<> -> C(2)/<0,1> [0,0])"]
    )
    assert status == 0
    assert "recomposition equivalent: yes" in text


def test_compose_builds_a_large_fiber_polynomial_in_linear_time():
    # one fiber of 2^13 points: the norm along C2^13 -> pt
    text = "N(pt(" + " * ".join(["C(2)/<>"] * 13) + "))"
    start = time.monotonic()
    status, out = capture(["compose", text, "--format", "json"])
    assert time.monotonic() - start < 1.0
    assert status == 0
    (poly,) = json.loads(out)["fiber_polynomials"].values()
    factors = poly.split("*")
    assert len(factors) == len(set(factors)) == 8192
    assert all(f.startswith("x") and f[1:].isdigit() for f in factors)


@pytest.mark.parametrize("text", ["perm[(0 0)]", "perm[(1 1)]", "perm[(0 1 0)]"])
def test_cycle_repeating_a_point_is_a_syntax_error(text):
    status, err = capture_error(["lattice", text])
    assert status == 2
    assert err.startswith("syntax error at line 1, column ")
    assert "cycle repeats point" in err


def test_words_commands():
    status, text = capture(["words", "supp", "(x1 + 0) * x2"])
    assert status == 0
    assert text.strip() == "x1*x2"
    status, text = capture(["words", "eval", "x1 + x2", "--assign", "x1=2,x2=3"])
    assert status == 0
    assert text.startswith("5 element(s)")
    status, text = capture(
        ["words", "iso", "x1 * (x2 + x3)", "x1 * x2 + x1 * x3",
         "--assign", "x1=2,x2=1,x3=2"]
    )
    assert status == 0
    assert "bijection on 6 element(s)" in text


def test_negative_counts_are_usage_errors():
    for argv in (
        ["check", "tambara", "--group", "C(2)", "--budget", "-1"],
        ["witt", "verify", "factorization", "C(2)", "--samples", "-5"],
        ["witt", "verify", "injectivity", "C(2)", "--samples", "-1"],
    ):
        status, text = capture_error(argv)
        assert status == 2, argv
        assert text.endswith(f": must be non-negative, got {argv[-1]}\n"), argv


def test_counts_past_their_cap_are_usage_errors():
    for argv, cap in (
        (["check", "tambara", "--group", "C(2)", "--budget", "6"], 5),
        (["witt", "verify", "factorization", "C(2)", "--samples", "100001"], 100000),
        (["witt", "verify", "injectivity", "C(2)", "--samples", "100001"], 100000),
    ):
        status, text = capture_error(argv)
        assert status == 2, argv
        assert text.endswith(f": must be at most {cap}, got {argv[-1]}\n"), argv


# Integers outside the DSL follow its rule: an optional '-' and at most
# dsl.MAX_DIGITS decimal digits, so no '_' separator and no '+' sign.
@pytest.mark.parametrize("argv, error", [
    (["marks", "C(2)", "1_0,3"], "error: coefficients must be integers: '1_0,3'\n"),
    (["marks", "C(2)", "+1,3"], "error: coefficients must be integers: '+1,3'\n"),
    (["burnside", "mul", "C(2)", "1,0", "0,1_0"],
     "error: coefficients must be integers: '0,1_0'\n"),
    (["words", "eval", "x", "--assign", "x=0_2"],
     "error: assignment size '0_2' is not an integer\n"),
    (["check", "tambara", "--group", "C(2)", "--budget", "1_0"],
     "argument --budget: invalid non_negative_int value: '1_0'\n"),
    (["witt", "verify", "factorization", "C(2)", "--samples", "1_0"],
     "argument --samples: invalid non_negative_int value: '1_0'\n"),
    (["check", "tambara", "--group", "C(2)", "--budget", "1", "--seed", "1_0"],
     "argument --seed: invalid integer value: '1_0'\n"),
    (["witt", "verify", "factorization", "C(2)", "--seed", "1_0"],
     "argument --seed: invalid integer value: '1_0'\n"),
], ids=["marks", "marks-plus", "burnside-mul", "assign", "budget", "samples",
        "tambara-seed", "verify-seed"])
def test_integers_the_dsl_refuses_are_usage_errors(argv, error):
    status, text = capture_error(argv)
    assert status == 2
    assert text.endswith(error)


def test_integers_past_the_digit_cap_are_usage_errors():
    # the cap is named and the long input is not repeated
    digits = "1" * (dsl.MAX_DIGITS + 1)
    for argv, error in (
        (["marks", "C(2)", f"1,{digits}"], "a coefficient has more than 1000 digits"),
        (["words", "eval", "x", "--assign", f"x={digits}"],
         "an assignment size has more than 1000 digits"),
    ):
        status, text = capture_error(argv)
        assert status == 2
        assert text == f"error: {error}\n"


def test_integers_take_every_decimal_digit_the_dsl_takes():
    # as in `lattice 'C(٣)'`, which builds C3
    assert capture(["marks", "C(2)", " ١ , -٣ "]) == (
        0, "group C2; classes (poset order): 1a 2a\nmarks: 1a=-1 2a=-3\n")
    status, text = capture(["words", "eval", "x", "--assign", "x=٢"])
    assert status == 0 and text.startswith("2 element(s)\n")


def test_words_unassigned_variable_is_an_error():
    for argv in (
        ["words", "eval", "x*y", "--assign", "x=2"],
        ["words", "iso", "x*y", "y*x", "--assign", "x=2"],
    ):
        status, text = capture_error(argv)
        assert status == 2, argv
        assert "'y'" in text, argv


@pytest.mark.parametrize("assign,word", [
    ("x=-3", "x"),                # negative size
    ("x=3,x=4", "x"),             # repeated name
    ("x=2, =3", "x"),             # empty name
    ("x=2,x.0=1", "x"),           # a name that is not one identifier
    ("x=100000000", "x"),         # one set above the cap
    ("x=1000", "x * x * x"),      # an evaluation of 10^9 elements
    ("x=1000", "(x * x) * 0"),    # empty result, 10^6-element subword
])
def test_words_assign_rejects_bad_input(assign, word):
    status, text = capture_error(["words", "eval", word, "--assign", assign])
    assert status == 2
    assert text.startswith("error: ") and text.count("\n") == 1


LETTERS = "+".join("abcdefghijklmnopqrstuvwxyz")


@pytest.mark.parametrize("argv", [
    ["words", "supp", "(" * 3000 + "x" + ")" * 3000],
    ["words", "supp", " + ".join(["x"] * 3000)],
    ["orbits", " + ".join(["C(2)/<>"] * 1500)],
    ["compose", " ; ".join(["T(id(C(2)/<>))"] * 1200)],
    ["witt", "ghost", "C(2)", "(" + "-" * 3000 + "1, 2)"],
    ["witt", "ghost", "C(2)", "(x^100000, 1)", "--symbolic"],
    ["witt", "ghost", "C(2)", "((a+b+c+d+e+f+g+h)^64, 1)", "--symbolic"],
    ["witt", "ghost", "C(2)", f"(({LETTERS})^3*({LETTERS})^3, 1)", "--symbolic"],
    ["tom", "C(" + "1" * 5000 + ")"],
    ["tom", "S(300000000)"],
    ["tom", "perm[(0 300000000)]"],
], ids=[
    "nested-parens", "long-sum", "long-gset-sum", "long-bispan-chain",
    "unary-minus-chain", "huge-exponent", "huge-power", "huge-product",
    "huge-number", "huge-symmetric",
    "huge-perm-point",
])
def test_oversized_input_is_a_usage_error(argv):
    status, text = capture_error(argv)
    assert status == 2
    assert text.startswith(("error: ", "syntax error at line 1, column "))
    assert text.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["witt", "ghost", "C(2)", "((a+b+c+d)^37, 1)", "--symbolic"],
    ["witt", "neg", "C(2)", "((a+b+c+d)^37, 1)", "--symbolic"],
    ["witt", "add", "C(2)", "((a+b+c+d)^37, 1)", "((a+b+c+d)^37, 1)", "--symbolic"],
    ["witt", "mul", "C(2)", "((a+b+c+d)^37, 1)", "(1, 1)", "--symbolic"],
    ["witt", "unghost", "C(2)", "((a+b+c+d)^37, 1)", "--symbolic"],
], ids=["ghost", "neg", "add", "mul", "unghost"])
def test_symbolic_witt_past_the_ghost_term_cap_is_refused(argv):
    # each literal passes the literal cap; the square or product of the
    # 9880-term component in the result (for unghost, in its triangular
    # solve) would not
    start = time.perf_counter()
    status, text = capture_error(argv)
    assert time.perf_counter() - start < 1
    assert status == 2
    kind = "Witt" if argv[1] == "unghost" else "ghost"
    assert text == f"error: the {kind} component at class 1a may expand to more than 10000 terms\n"


@pytest.mark.parametrize("argv, message", [
    (["witt", "ghost", "C(2)", "((a+b+c+d)^37, 1)"],
     "symbolic components ['(a + b + c + d)^37'] need --symbolic"),
    (["witt", "add", "C(2)", "((a+b+c+d)^37, 1)", "(1, 1)"],
     "symbolic components ['(a + b + c + d)^37'] need --symbolic"),
    (["witt", "tau", "C(2)", "((a+b+c+d)^37, 1)", "--symbolic"],
     "the Teichmuller homomorphism needs integer components"),
    # refused by its variables, although they cancel
    (["witt", "ghost", "C(2)", "(a - a, 1)"], "symbolic components ['a - a'] need --symbolic"),
    # each exponent is at most 64, but the nesting asks for 2^(64^6)
    (["witt", "ghost", "C(2)", "(((((((2)^64)^64)^64)^64)^64)^64, 1)"],
     "the polynomial at line 1, column 2 may have a coefficient of more than 1000 digits"),
    (["witt", "tau", "C(2)", "(((((((2)^64)^64)^64)^64)^64)^64, 1)"],
     "the polynomial at line 1, column 2 may have a coefficient of more than 1000 digits"),
    # literal by literal, the count and then the variables; the term gate
    # only once every literal has passed both
    (["witt", "add", "C(2)", "(a,1)", "(1,2,3)"], "symbolic components ['a'] need --symbolic"),
    (["witt", "add", "C(2)", "(1,2,3)", "(a,1)"],
     "expected 2 components (top class first), got 3"),
    (["witt", "mul", "C(2)", "((a+b+c+d)^37, 1)", "(1,2,3)", "--symbolic"],
     "expected 2 components (top class first), got 3"),
    (["witt", "tau", "C(2)", "(a,1,2)", "--symbolic"],
     "expected 2 components (top class first), got 3"),
    (["witt", "tau", "C(2)", "(a,1)"], "symbolic components ['a'] need --symbolic"),
], ids=["ghost", "add", "tau-symbolic", "cancelling", "nested-powers", "nested-powers-tau",
        "variables-first", "count-first", "count-before-gate", "tau-count", "tau-flag"])
def test_symbolic_literals_are_refused_before_they_are_expanded(argv, message, monkeypatch):
    def expand(node):
        raise AssertionError(f"{dsl.to_text(node)} was expanded")

    monkeypatch.setattr(dsl, "build_poly", expand)
    status, text = capture_error(argv)
    assert status == 2
    assert text == f"error: {message}\n" and len(text.encode()) < 200


@pytest.mark.parametrize("argv, message", [
    (["orbits", "C(2)/<> + C(3)/<>"], "disjoint union across different groups"),
    (["orbits", "C(2)/<> * C(3)/<>"], "product across different groups"),
    (["compose", "R(C(2)/<> -> C(3)/<> [0, 0])"],
     "source and target live over different groups"),
    (["compose", "R(C(2)/<> -> C(2)/<0,1> [0])"], "one image per source point required"),
    (["check", "tambara", "--group", "C(2)", "--base", "C(3)/<>"],
     "base G-set lives over a different group"),
], ids=["sum", "product", "map", "map-table", "tambara-base"])
def test_mismatched_input_is_refused_by_the_library(argv, message):
    status, text = capture_error(argv)
    assert status == 2
    assert text == f"error: {message}\n"


@pytest.mark.parametrize("argv, construction", [
    (["compose", "T(fold(C(12)/<>)) ; N(pt(C(12)/<>))"], "pullback"),  # 12 * 2^12 points
    (["compose", "T(fold(C(16)/<>)) ; N(pt(C(16)/<>))"], "dependent product"),  # 2^16
    (["orbits", "C(64)/<> * C(64)/<> * C(64)/<>"], "product"),  # 64^3
], ids=["pullback", "dependent-product", "product"])
def test_constructions_past_the_point_cap_are_usage_errors(argv, construction):
    start = time.perf_counter()
    status, text = capture_error(argv)
    assert time.perf_counter() - start < 1
    assert status == 2
    assert text == f"error: the {construction} would have more than 10000 points\n"


def test_symbolic_witt_under_the_ghost_term_cap_runs():
    # the term counts alone would refuse this product; the degree bound
    # (monomials of degree <= 120 in x, y) admits it
    status, text = capture(["witt", "mul", "C(2)", "((x+y)^30, 1)", "((x+y)^30, 1)", "--symbolic"])
    assert status == 0
    assert text.startswith("(x^60 + ")
    status, text = capture(["witt", "unghost", "C(2)", "((x+y)^30, (x+y)^60 + 2*x)", "--symbolic"])
    assert status == 0
    assert text.startswith("(x^30 + ") and text.endswith(", x)\n")


def test_check_tambara_cli_pass_and_json():
    status, text = capture(
        ["check", "tambara", "--instance", "invariant", "--group", "C(2)",
         "--budget", "2", "--seed", "0"]
    )
    assert status == 0
    assert "exponential-distributivity: pass" in text
    status, payload = capture(
        ["check", "tambara", "--instance", "burnside", "--group", "C(2)",
         "--budget", "2", "--format", "json"]
    )
    assert status == 0
    data = json.loads(payload)
    assert data["ok"] is True and data["schema"] == 1


@pytest.mark.parametrize("base", ["C(2)/<>", ""])
def test_check_tambara_refuses_base_for_the_burnside_instance(base):
    # the Burnside instance has no base G-set; --base is refused, not ignored
    status, err = capture_error(
        ["check", "tambara", "--instance", "burnside", "--group", "C(2)",
         "--base", base, "--budget", "1"]
    )
    assert status == 2
    assert err == "error: --base applies only to --instance invariant\n"


def test_check_tambara_parses_an_empty_base():
    # an empty --base is parsed like any other, not read as "no base"
    status, err = capture_error(
        ["check", "tambara", "--group", "C(2)", "--base", "", "--budget", "1"])
    assert status == 2
    assert err.startswith("syntax error at line 1, column 1: ")


@pytest.mark.parametrize("prop", ["iso", "ring-axioms"])
def test_witt_verify_refuses_samples_where_nothing_is_sampled(prop):
    status, err = capture_error(["witt", "verify", prop, "C(2)", "--samples", "5"])
    assert status == 2
    assert err == f"error: --samples does not apply to {prop}\n"


# Only `witt verify factorization|injectivity|ring-axioms` and `check
# tambara` draw samples; the other commands have no --seed.
SEEDLESS = [
    (["tom", "C(2)"], "unrecognized arguments: --seed 5"),
    (["lattice", "C(2)"], "unrecognized arguments: --seed 5"),
    (["witt", "add", "C(2)", "(1,2)", "(3,4)"], "unrecognized arguments: --seed 5"),
    (["words", "supp", "x"], "unrecognized arguments: --seed 5"),
    (["compose", "R(id(C(2)/<>))"], "unrecognized arguments: --seed 5"),
    (["witt", "verify", "iso", "C(2)"], "error: --seed does not apply to iso"),
]


@pytest.mark.parametrize("argv, error", SEEDLESS, ids=[" ".join(a) for a, _ in SEEDLESS])
def test_seed_is_refused_where_nothing_reads_it(argv, error):
    status, err = capture_error(argv + ["--seed", "5"])
    assert status == 2
    assert error in err


def test_witt_verify_ring_axioms_draws_from_the_given_seed(monkeypatch):
    # C4 has 3 classes: under a cap of 2 the laws are checked at triples
    # drawn from --seed
    monkeypatch.setattr(witt, "DIRECT_CLASS_CAP", 2)
    for seed in (0, 5):
        status, payload = capture(["witt", "verify", "ring-axioms", "C(4)",
                                   "--seed", str(seed), "--format", "json"])
        data = json.loads(payload)
        assert status == 0 and data["ok"] is True
        assert data["seed"] == seed


GOLDEN_COMMANDS = [
    ["tom", "S(3)"],
    ["tom", "D(4)", "--format", "json"],
    ["lattice", "V4"],
    ["marks", "S(3)", "1,0,-2,3"],
    ["orbits", "S(3)/<1> * S(3)/<3>"],
    ["witt", "mul", "C(2)", "(a0,a1)", "(b0,b1)", "--symbolic"],
    ["witt", "neg", "C(2)", "(a0,a1)", "--symbolic"],
    ["witt", "mul", "C(4)", "(a0,a1,a2)", "(b0,b1,b2)", "--symbolic", "--format", "json"],
    ["witt", "ghost", "S(3)", "(1,2,3,4)"],
    ["witt", "tau", "S(3)", "(1,0,2,-1)"],
    ["witt", "verify", "factorization", "C(6)", "--samples", "10", "--seed", "7"],
    ["witt", "verify", "ring-axioms", "S(3)"],
    ["witt", "verify", "injectivity", "C(3)", "--samples", "40", "--seed", "3", "--format", "json"],
    ["compose", "T(fold(C(2)/<>)) ; N(pt(C(2)/<>))"],
    ["factor", "N(S(3)/<> -> S(3)/<1> [0,0,1,1,2,2])", "--format", "json"],
    ["words", "supp", "(x1 + x2) * (x1 + x2)"],
    ["check", "tambara", "--instance", "invariant", "--group", "C(2)",
     "--budget", "2", "--seed", "5", "--format", "json"],
]


# The bytes of the last golden command; a change in the checker's diagram
# enumeration or sampling shows up here first.
TAMBARA_JSON_GOLDEN = (
    '{"budget": 2, "checks": ['
    '{"relation": "exponential-distributivity", "status": "pass"}, '
    '{"relation": "norm-base-change", "status": "pass"}, '
    '{"relation": "norm-functorial", "status": "pass"}, '
    '{"relation": "norm-multiplicative", "status": "pass"}, '
    '{"relation": "restriction-functorial", "status": "pass"}, '
    '{"relation": "restriction-ring-homomorphism", "status": "pass"}, '
    '{"relation": "transfer-additive", "status": "pass"}, '
    '{"relation": "transfer-base-change", "status": "pass"}, '
    '{"relation": "transfer-functorial", "status": "pass"}], '
    '"group": "C2", "instance": "invariant", "instances_checked": 676, '
    '"ok": true, "schema": 1, "seed": 5}\n'
)


def test_tambara_json_golden_bytes():
    status, text = capture(GOLDEN_COMMANDS[-1])
    assert status == 0
    assert len(text) == 635
    assert text == TAMBARA_JSON_GOLDEN


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=lambda a: " ".join(a))
def test_outputs_are_byte_identical_across_runs(argv):
    status1, first = capture(argv)
    status2, second = capture(argv)
    assert status1 == status2
    assert first == second
    assert first  # never empty


def test_batch_mode_reads_stdin():
    script = "tom C(2)\n# comment\nwitt ghost C(2) (2,1)\n"
    proc = subprocess.run(
        [sys.executable, "-m", "gwitt.cli"],
        input=script, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "1a" in proc.stdout and "(2, 6)" in proc.stdout
    # a failing line drives the batch exit status
    proc2 = subprocess.run(
        [sys.executable, "-m", "gwitt.cli"],
        input="witt unghost C(2) (0,1)\n", capture_output=True, text=True,
    )
    assert proc2.returncode == 3
    # a line shlex cannot split is one usage error, and the batch goes on
    proc3 = subprocess.run(
        [sys.executable, "-m", "gwitt.cli"],
        input='tom C(2)\nlattice "C(2)\nwitt ghost C(2) (2,1)\n',
        capture_output=True, text=True,
    )
    assert proc3.returncode == 2
    assert "1a" in proc3.stdout and "(2, 6)" in proc3.stdout
    assert proc3.stderr == "error: No closing quotation\n"


# Exact stdout and exit status of every subcommand in both formats, plus the
# exit-2 and exit-3 error lines on stderr; and, through a fresh interpreter, stdout,
# stderr and exit status of help and usage errors (argparse's text, at a
# fixed 80-column width).  A refactor of the CLI must leave all of it as is.
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", CLI_GOLDEN["run"], ids=lambda c: " ".join(c["argv"])
)
def test_cli_golden_corpus(case):
    assert capture_streams(case["argv"]) == (
        case["status"], case["stdout"], case.get("stderr", "")
    )


@pytest.mark.parametrize(
    "case", CLI_GOLDEN["process"], ids=lambda c: " ".join(c["argv"])
)
def test_cli_golden_help_and_usage(case):
    proc = subprocess.run(
        [sys.executable, "-m", "gwitt.cli", *case["argv"]],
        capture_output=True, text=True, env=dict(os.environ, COLUMNS="80"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["status"], case["stdout"], case["stderr"]
    )


def test_one_parser_serves_a_sequence_of_runs(capsys, monkeypatch):
    """The parser is built once per process and reused: a usage error, an
    error line, a success and a help text in a row each print their golden
    bytes to the real stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    runs = CLI_GOLDEN["run"]
    error = next(case for case in runs if case["status"] == 2)
    usage = next(case for case in CLI_GOLDEN["process"] if case["status"] == 2)
    help_text = CLI_GOLDEN["process"][0]
    for case in (usage, error, runs[0], help_text, runs[1]):
        status = run(case["argv"])
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (
            case["status"], case["stdout"], case.get("stderr", "")
        ), case["argv"]


HUGE_COMPONENT = "1" + "0" * 999   # the most digits the DSL accepts


def balanced_product(word: str, n: int) -> str:
    """The product of n copies of `word`, bracketed as a balanced tree so
    that its parse tree stays about log2(n) levels deep."""
    if n == 1:
        return word
    return f"({balanced_product(word, n // 2)}*{balanced_product(word, n - n // 2)})"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", [
    # the 8th power of a 1000-digit component has 8001 digits, past
    # Python's 4300-digit integer-to-text limit
    ["witt", "ghost", "C(8)", f"({HUGE_COMPONENT},0,0,0)"],
    # the support of (1+1)^16384 has 4933 digits
    ["words", "supp", balanced_product("(1+1)", 2 ** 14)],
], ids=["witt", "words"])
def test_result_past_the_digit_limit_is_a_usage_error(argv, fmt):
    status, text = capture_error(argv + ["--format", fmt])
    assert status == 2
    assert text.startswith("error: ") and text.count("\n") == 1
    assert "decimal digits" in text
