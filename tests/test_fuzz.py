"""Generated inputs for the DSL, the CLI contract, the group constructors
and polynomials: printing a parse tree and parsing the text gives the same
tree, every command ends in one of the documented exit statuses with stdout
empty unless it succeeds, and every Cayley table, element tuple, generator
list and polynomial builds a validated object or raises a GwittError."""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from gwitt.cli import run
from gwitt.dsl import parse_bispan, parse_gset, parse_vector, parse_word, to_text
from gwitt.errors import GwittError
from gwitt.groups import (
    MAX_PERM_POINTS,
    Group,
    Subgroup,
    cyclic,
    group_from_generators,
    klein_four,
    symmetric,
)
from gwitt.intpoly import Poly
from oracles import (
    associativity_failure,
    composed_permutation_group,
    is_subgroup_by_products,
    scanned_inverses,
)

# groups of order at most 6, and subgroup generators among their elements
_groups = st.sampled_from([
    "C(1)", "C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "S(2)", "S(3)", "D(2)", "D(3)",
    "V4", "perm[(0 1)]", "perm[(0 1 2)]", "perm[(0 1),(1 2)]",
])
_numbers = st.lists(st.integers(0, 6), max_size=3).map(lambda ns: ",".join(map(str, ns)))


def _joined(parts, ops):
    return st.tuples(parts, st.sampled_from(ops), parts).map(lambda t: f"{t[0]} {t[1]} {t[2]}")


def _bracketed(parts):
    return parts.map(lambda t: f"({t})")


def _gsets_over(groups):
    return st.recursive(
        st.tuples(groups, _numbers).map(lambda t: f"{t[0]}/<{t[1]}>"),
        lambda inner: _joined(inner, ["+", "*"]) | _bracketed(inner),
        max_leaves=4,
    )


_gsets = _gsets_over(_groups)
_maps = (
    st.tuples(st.sampled_from(["id", "fold", "pt"]), _gsets).map(lambda t: f"{t[0]}({t[1]})")
    | st.tuples(_gsets, _gsets, _numbers).map(lambda t: f"{t[0]} -> {t[1]} [{t[2]}]")
)
_bispans = st.recursive(
    st.tuples(st.sampled_from("RTN"), _maps).map(lambda t: f"{t[0]}({t[1]})"),
    lambda inner: (_joined(inner, [";"]) | _bracketed(inner)
                   | st.tuples(inner, inner).map(lambda t: f"<{t[0]}, {t[1]}>")),
    max_leaves=3,
)
_words = st.recursive(
    st.sampled_from(["0", "1", "x", "y", "z"]),
    lambda inner: _joined(inner, ["+", "*"]) | _bracketed(inner),
    max_leaves=6,
)
_polys = st.recursive(
    st.sampled_from(["0", "1", "2", "17", "a", "b"]),
    lambda inner: (_joined(inner, ["+", "-", "*"]) | _bracketed(inner)
                   | inner.map(lambda t: f"-{t}")
                   | st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}")),
    max_leaves=6,
)
_vectors = st.lists(_polys, min_size=1, max_size=4).map(lambda ps: "(" + ", ".join(ps) + ")")

# short texts over the DSL's own characters, which mostly fail to parse, and
# three non-ASCII ones: a digit int() cannot read, one it can, and a letter
_noise = st.text(alphabet="CSDVpermRTNidfoldt()<>[],;+*/^-0123456789 abxy²٣é", max_size=24)


def _shape(node):
    """A parse tree without its source positions."""
    return node.kind, node.value, tuple(_shape(c) for c in node.children)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(
    _gsets.map(lambda t: (parse_gset, t)),
    _bispans.map(lambda t: (parse_bispan, t)),
    _words.map(lambda t: (parse_word, t)),
    _vectors.map(lambda t: (parse_vector, t)),
))
@example((parse_word, "x + (y + z) * (x * y)"))
@example((parse_vector, "(a - (b - c), -(a + b), (-a)^2 * (b * 2))"))
@example((parse_gset, "C(2)/<> + (C(2)/<> + C(2)/<>)"))
@example((parse_bispan, "T(id(C(2)/<>)) ; (N(id(C(2)/<>)) ; R(id(C(2)/<>)))"))
def test_printing_then_parsing_gives_the_same_tree(case):
    parse, text = case
    tree = parse(text)
    canonical = to_text(tree)
    again = parse(canonical)
    assert _shape(again) == _shape(tree)
    assert to_text(again) == canonical


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = run(argv, stream=stdout)
    return status, stdout.getvalue()


def _tambara_check(group):
    """`check tambara` at budget 1: the invariant instance with a base G-set
    over `group` (or, now and then, over another group, which is a usage
    error), the Burnside instance without one."""
    invariant = (_gsets_over(st.just(group)) | _gsets).map(
        lambda base: ["--instance", "invariant", "--base", base])
    burnside = st.just(["--instance", "burnside"])
    return (invariant | burnside).map(
        lambda flags: ["check", "tambara", *flags, "--group", group, "--budget", "1"])


def _commands(text):
    return st.sampled_from([
        ["orbits", text],
        ["compose", text],
        ["simple", text],
        ["factor", text],
        ["words", "supp", text],
        ["witt", "ghost", "C(2)", text, "--symbolic"],
        ["witt", "tau", "C(4)", text],
    ])


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.one_of(
    st.tuples(st.just("orbits"), _gsets).map(list),
    st.tuples(st.sampled_from(["compose", "simple", "factor"]), _bispans).map(list),
    _groups.flatmap(_tambara_check),
    st.tuples(st.just("words"), st.just("supp"), _words).map(list),
    st.tuples(st.just("witt"), st.sampled_from(["ghost", "tau"]),
              st.sampled_from(["C(2)", "C(4)", "S(3)"]), _vectors,
              st.sampled_from([[], ["--symbolic"]])).map(lambda t: [*t[:4], *t[4]]),
    _noise.flatmap(_commands),
))
@example(["lattice", "C(²)"])
def test_every_command_ends_in_a_documented_status(argv):
    status, out = _run(argv)
    assert status in (0, 1, 2, 3)
    if status != 0:
        assert out == ""


# entries of tables, element tuples and permutations: in range, negative,
# out of range, float (0.0 == 0) and str
_entries = st.one_of(
    st.integers(-3, 7), st.floats(-2, 7, width=16), st.sampled_from(["0", "1", "a"]),
)
_small_groups = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), klein_four(), symmetric(3)]


def _with_cells(table, cells):
    """A copy of `table` with each (row, column, value) of `cells` written
    in, the indices taken modulo the table's size."""
    table = [list(row) for row in table]
    for i, j, v in cells:
        table[i % len(table)][j % len(table)] = v
    return table


_cells = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _entries), max_size=2)
_tables = st.one_of(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.lists(st.lists(_entries, max_size=4), max_size=4),
    st.tuples(st.sampled_from([g.mul_table for g in _small_groups]), _cells).map(
        lambda t: _with_cells(*t)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tables)
def test_a_cayley_table_builds_a_group_or_is_refused(table):
    try:
        group = Group(table)
    except GwittError:
        return
    assert all(type(v) is int for row in table for v in row)
    assert associativity_failure(table) is None
    assert group.mul_table == tuple(map(tuple, table))
    assert group.inv_table == scanned_inverses(table)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_small_groups), st.lists(_entries, max_size=7))
def test_an_element_tuple_builds_a_subgroup_or_is_refused(group, elements):
    try:
        sub = Subgroup(group, tuple(elements))
    except GwittError:
        assert not is_subgroup_by_products(group, elements)
        return
    assert is_subgroup_by_products(group, elements)
    assert sub.elements == tuple(sorted(set(elements)))


def _permutations(n):
    """Permutations of 0..n-1, some with one entry overwritten."""
    perms = st.permutations(range(n)).map(tuple)
    return perms | st.tuples(perms, st.integers(0, n - 1), _entries).map(
        lambda t: t[0][:t[1]] + (t[2],) + t[0][t[1] + 1:])


_generator_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(_permutations(n) | st.lists(_entries, max_size=5).map(tuple), max_size=3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_generator_lists)
def test_a_generator_list_builds_a_group_or_is_refused(gens):
    points = len(gens[0]) if gens else 1
    valid = 1 <= points <= MAX_PERM_POINTS and all(
        len(g) == points and all(type(v) is int for v in g) and set(g) == set(range(points))
        for g in gens
    )
    try:
        group = group_from_generators(gens)
    except GwittError:
        assert not valid
        return
    assert valid
    perms, table = composed_permutation_group(gens, points)
    assert group.perm_rep == tuple(perms)
    assert group.mul_table == tuple(map(tuple, table))


_mixed = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.fractions(-3, 3, max_denominator=3),
                   st.text("0123-", max_size=2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_mixed, _mixed), max_size=4))
def test_a_poly_from_mixed_values_builds_or_is_refused(pairs):
    """Coefficients and exponents drawn from ints, floats, Fractions and
    strings: the Poly built from them lies in Z[X], or the build raises a
    GwittError."""
    valid = all(type(c) is int and type(e) is int and e >= 0 for c, e in pairs)
    try:
        p = Poly()
        for coeff, exp in pairs:
            p = p + Poly({(): coeff}) * Poly.var("x", exp) - Poly.var("y") * coeff
    except GwittError:
        assert not valid
        return
    assert valid
    for mono, coeff in p.terms.items():
        assert type(coeff) is int and coeff
        assert all(type(e) is int and e > 0 for _, e in mono)
