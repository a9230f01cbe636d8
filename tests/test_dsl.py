"""The DSL: parsing, spans, located errors, canonical printing, evaluation."""

import pytest

from gwitt.dsl import (
    build_bispan,
    build_gset,
    build_group,
    build_map,
    build_poly,
    build_vector,
    build_word,
    parse_bispan,
    parse_gset,
    parse_group,
    parse_map,
    parse_vector,
    parse_word,
    term_bound,
    to_text,
)
from gwitt.errors import DslSyntaxError, GwittError
from gwitt.groups import cyclic, dihedral, klein_four, symmetric
from gwitt.intpoly import Poly
from gwitt.words import supp


def test_parse_gset_example():
    node = parse_gset("C(2)/<>")
    assert node.kind == "gset_cosets"
    x = build_gset(node)
    assert x.size == 2 and x.group == cyclic(2)


def test_parse_bispan_structure_only():
    node = parse_bispan("T(fold(C(2)/<>)) ; N(pt(C(2)/<>))")
    assert node.kind == "bispan_seq"
    kinds = [c.kind for c in node.children]
    assert kinds == ["bispan_T", "bispan_N"]
    assert node.children[0].children[0].kind == "map_fold"
    # maps are written inline; a bare name is a syntax error at its position
    with pytest.raises(DslSyntaxError) as exc:
        parse_bispan("T(fold(C(2)/<>)) ; R(f)")
    assert (exc.value.line, exc.value.column) == (1, 22)


def test_parse_error_positions():
    with pytest.raises(DslSyntaxError) as exc:
        parse_group("C(2/")
    assert exc.value.line == 1 and exc.value.column == 4
    assert ")" in exc.value.expected
    with pytest.raises(DslSyntaxError) as exc2:
        parse_gset("C(2)/<0,>")
    assert exc2.value.column == 9
    with pytest.raises(DslSyntaxError) as exc3:
        parse_word("x1 + ")
    assert exc3.value.column == 6


def test_every_node_carries_a_span():
    node = parse_bispan("T(id(C(2)/<>)) ; N(fold(C(2)/<>))")

    def walk(n):
        assert isinstance(n.span, tuple) and len(n.span) == 2
        assert n.span[0] >= 1 and n.span[1] >= 1
        for c in n.children:
            walk(c)

    walk(node)


@pytest.mark.parametrize("text,parser", [
    ("C(2)/<> + C(2)/<0,1>", parse_gset),
    ("S(3)/<1> * (S(3)/<2> + S(3)/<>)", parse_gset),
    ("perm[(0 1),(1 2)]/<>", parse_gset),
    ("V4/<1,2>", parse_gset),
    ("T(id(C(2)/<>)) ; N(fold(C(2)/<>))", parse_bispan),
    ("<R(pt(C(2)/<>)), T(C(2)/<> -> C(2)/<0,1> [0,0])>", parse_bispan),
    ("(x1 + x2) * x3 + 1", parse_word),
    ("0 * x1", parse_word),
    ("(a0, a1 - 2*a0^2, 3)", parse_vector),
])
def test_print_parse_round_trip(text, parser):
    node = parser(text)
    canonical = to_text(node)
    again = parser(canonical)
    assert to_text(again) == canonical


def test_group_constructors_via_dsl():
    assert build_group(parse_group("C(6)")) == cyclic(6)
    assert build_group(parse_group("S(3)")) == symmetric(3)
    assert build_group(parse_group("D(4)")) == dihedral(4)
    assert build_group(parse_group("V4")) == klein_four()
    g = build_group(parse_group("perm[(0 1 2),(0 1)]"))
    assert g.order == 6


def test_subgroup_literal_uses_generated_closure():
    x = build_gset(parse_gset("S(3)/<1>"))
    assert x.size == 3
    full = build_gset(parse_gset("S(3)/<1,2>"))
    assert full.size in (1, 2, 3, 6)
    with pytest.raises(GwittError):
        build_gset(parse_gset("C(2)/<5>"))


def test_map_literals():
    ident = build_map(parse_map("id(C(2)/<>)"))
    assert ident.images == (0, 1)
    fold = build_map(parse_map("fold(C(2)/<>)"))
    assert fold.source.size == 4 and fold.target.size == 2
    to_pt = build_map(parse_map("pt(C(2)/<>)"))
    assert to_pt.target.size == 1
    table = build_map(parse_map("C(2)/<> -> C(2)/<0,1> [0,0]"))
    assert table.images == (0, 0)
    with pytest.raises(GwittError):
        build_map(parse_map("C(2)/<> -> C(2)/<0,1> [0]"))


def test_gset_operations_need_matching_groups():
    with pytest.raises(GwittError):
        build_gset(parse_gset("C(2)/<> + C(3)/<>"))


def test_bispan_composition_order_is_diagrammatic():
    # phi ; psi applies phi first
    text = "T(pt(C(2)/<>)) ; N(id(C(1)/<>))"
    with pytest.raises(GwittError):
        # group mismatch: C(2) then C(1) cannot compose
        build_bispan(parse_bispan(text))
    phi = build_bispan(parse_bispan("T(fold(C(2)/<>)) ; N(pt(C(2)/<>))"))
    assert phi.x.size == 4 and phi.y.size == 1


def test_build_word_and_poly():
    w = build_word(parse_word("(x1 + 0) * x2"))
    assert supp(w) == Poly.var("x1") * Poly.var("x2")
    v = build_vector(parse_vector("(a0, -a0^2 + 2)"))
    assert v[0] == Poly.var("a0")
    assert v[1] == -(Poly.var("a0") ** 2) + 2


@pytest.mark.parametrize("text", [
    "((a+b+c+d+e+f+g+h)^64, 1)",  # comb(71, 64) terms, about 1.2e9
    "((a+b+c+d+e+f)^6 * (g+h+i+j+k+l)^6, 1)",  # 462 * 462 terms
])
def test_poly_expansion_past_the_term_cap_is_refused(text):
    node = parse_vector(text)
    with pytest.raises(GwittError, match="more than 10000 terms") as info:
        build_vector(node)
    assert not isinstance(info.value, DslSyntaxError)


@pytest.mark.parametrize("text, terms", [
    ("(7)", 1), ("(x)", 1), ("(x - y + 3)", 3), ("(-(x*y + 1)^2)", 3),
    ("((a+b+c+d)^37)", 9880),        # C(40, 37), as build_poly counts it
    ("((x+y)^3 * (x+y)^3)", 16),     # 4 * 4 by the rule; degree <= 6 in x, y: 28
    ("(((x+y+z)^8)^4)", 6545),       # C(48, 4) by the rule; degree <= 32 in x, y, z: C(35, 3)
    ("(x^60 * y^60)", 1),
    ("(((a+b+c+d+e+f+g+h)^64)^64)", 10001),
])
def test_term_bound_bounds_the_expansion_without_expanding(text, terms):
    node = parse_vector(text).children[0]
    bound = term_bound(node)
    assert bound.terms == terms
    if terms <= 1000:
        assert len(build_poly(node).terms) <= terms


def test_entry_point_node_kinds():
    assert parse_group("C(4)").kind == "group"
    assert parse_gset("C(4)/<>").kind == "gset_cosets"
    assert parse_word("x + y").kind == "word_add"
    assert parse_bispan("<T(id(C(2)/<>)), N(id(C(2)/<>))>").kind == "bispan_pair"
