"""Words, support, evaluation, and the coherence bijections."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gwitt.errors import SupportError
from gwitt.intpoly import Poly
from gwitt.words import (
    SetAssignment,
    Word,
    coherence_iso,
    eval_word,
    normal_form_index,
    supp,
)

X1, X2, X3 = Word.var("x1"), Word.var("x2"), Word.var("x3")
ASSIGN = SetAssignment.of({"x1": 2, "x2": 3, "x3": 2})


def test_supp_units_and_examples():
    assert supp(Word.zero()) == Poly()
    assert supp(Word.one()) == Poly.const(1)
    assert supp((X1 + Word.zero()) * X2) == Poly.var("x1") * Poly.var("x2")
    s = supp((X1 + X2) * (X1 + X2))
    assert s == Poly.var("x1") ** 2 + 2 * Poly.var("x1") * Poly.var("x2") + Poly.var("x2") ** 2


def test_eval_examples():
    assert eval_word(Word.one(), ASSIGN) == (("u",),)
    assert eval_word(Word.zero(), ASSIGN) == ()
    assert len(eval_word(X1 + X2, ASSIGN)) == 5
    assert len(eval_word(X1 * X2, ASSIGN)) == 6


_words = st.recursive(
    st.sampled_from([Word.zero(), Word.one(), X1, X2, X3]),
    lambda inner: st.tuples(inner, inner).map(lambda t: t[0] + t[1])
    | st.tuples(inner, inner).map(lambda t: t[0] * t[1]),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_words, _words)
def test_supp_is_a_plus_times_homomorphism(w1, w2):
    assert supp(w1 + w2) == supp(w1) + supp(w2)
    assert supp(w1 * w2) == supp(w1) * supp(w2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_words)
def test_cardinality_equals_supp_at_sizes(w):
    sizes = {"x1": 2, "x2": 3, "x3": 2}
    expected = supp(w).evaluate(sizes)
    assert len(eval_word(w, ASSIGN)) == expected


def test_coherence_identity_swap_distributivity():
    same = coherence_iso(X1, X1, ASSIGN)
    assert all(k == v for k, v in same.items())
    swap = coherence_iso(X1 + X2, X2 + X1, ASSIGN)
    assert len(swap) == 5
    for k, v in swap.items():
        assert k[2] == v[2]  # same underlying chosen element
        assert k[1] != v[1]  # opposite tags
    dist = coherence_iso(X1 * (X2 + X3), X1 * X2 + X1 * X3, ASSIGN)
    assert len(dist) == len(eval_word(X1 * (X2 + X3), ASSIGN)) == 10


def test_coherence_errors():
    with pytest.raises(SupportError):
        coherence_iso(X1, X2, ASSIGN)
    with pytest.raises(SupportError):
        coherence_iso(X1 * X1, X1 * X1, ASSIGN)
    with pytest.raises(SupportError):
        normal_form_index(X1 + X1, ASSIGN)


def _bijection_compose(b1, b2):
    return {k: b2[v] for k, v in b1.items()}


def test_cocycle_on_equal_support_triples():
    words = [
        X1 * (X2 + X3),
        X1 * X2 + X1 * X3,
        (X2 + X3) * X1,
        X2 * X1 + X3 * X1,
        X1 * X2 + X3 * X1,
    ]
    for w in words:
        assert supp(w) == supp(words[0])
        normal_form_index(w, ASSIGN)
    for w, w2, w3 in itertools.product(words, repeat=3):
        b12 = coherence_iso(w, w2, ASSIGN)
        b23 = coherence_iso(w2, w3, ASSIGN)
        b13 = coherence_iso(w, w3, ASSIGN)
        assert _bijection_compose(b12, b23) == b13


def test_naturality_under_assignment_injections():
    small = SetAssignment.of({"x1": ("a",), "x2": ("p", "q"), "x3": ("z",)})
    big = SetAssignment.of({"x1": ("a", "b"), "x2": ("p", "q", "r"), "x3": ("z", "w")})
    w, w2 = X1 * (X2 + X3), X1 * X2 + X1 * X3

    def induced(word, elem):
        # the element of eval(word, big) with the same provenance
        return elem

    b_small = coherence_iso(w, w2, small)
    b_big = coherence_iso(w, w2, big)
    # the inclusion of assignments embeds eval(w, small) into eval(w, big)
    for e, target in b_small.items():
        assert b_big[induced(w, e)] == induced(w2, target)


def test_evaluation_order_respects_declared_variable_order():
    nf = normal_form_index(X2 * X1, ASSIGN)
    for elem, (mono, choices) in nf.items():
        assert mono == ("x1", "x2")
        assert [c[0] for c in choices] == ["x1", "x2"]
