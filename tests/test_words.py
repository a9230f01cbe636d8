"""Words, support, evaluation, and the coherence bijections."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from gwitt.errors import GwittError, SupportError
from gwitt.intpoly import Poly
from gwitt.words import (
    SetAssignment,
    Word,
    coherence_iso,
    eval_word,
    normal_form_index,
    supp,
)
from oracles import matched_coherence_iso, recursive_supp

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
    for w in (w1, w2, w1 + w2, w1 * w2):
        assert supp(w) == recursive_supp(w)
        assert supp(w) is supp(w)  # computed once, kept on the word


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


def _same_as_oracle(w, w2, a):
    """coherence_iso agrees with matching normal-form keys in a dict, in the
    same iteration order."""
    return list(coherence_iso(w, w2, a).items()) == list(matched_coherence_iso(w, w2, a).items())


def _support_groups() -> list[list[Word]]:
    """Criterion 8's words (at most four leaves on x1, x2, x3) grouped by
    equal simple support."""
    leaves = [Word.zero(), Word.one(), Word.var("x1"), Word.var("x2"), Word.var("x3")]
    by_size = {1: leaves}
    for n in range(2, 5):
        by_size[n] = [
            word for k in range(1, n) for a in by_size[k] for b in by_size[n - k]
            for word in (a + b, a * b)
        ]
    groups: dict = {}
    for w in (w for ws in by_size.values() for w in ws):
        if supp(w).is_simple():
            groups.setdefault(supp(w), []).append(w)
    return list(groups.values())


def test_coherence_iso_matches_the_key_matching_oracle():
    """Every bijection of criterion 8's bounded triples (any pair among a
    support group's first 12 words) and of 20 seeded triples per group."""
    assignment = SetAssignment.of({"x1": 2, "x2": 1, "x3": 2})
    rng = random.Random(13)
    checked = 0
    for members in _support_groups():
        pairs = list(itertools.product(members[:12], repeat=2))
        for _ in range(20):
            w, w2, w3 = (rng.choice(members) for _ in range(3))
            pairs += [(w, w2), (w2, w3), (w, w3)]
        for w, w2 in pairs:
            assert _same_as_oracle(w, w2, assignment), (w, w2)
            checked += 1
    assert checked > 10000


@pytest.mark.parametrize("w, w2, assignment, error", [
    (X1, X2, ASSIGN, SupportError),  # different supports
    (X1 * X1, X1 * X1, ASSIGN, SupportError),  # support not simple
    (X1 * X2, X2 * X1, SetAssignment.of({"x1": 2}), GwittError),  # no set for x2
])
def test_coherence_iso_raises_like_the_oracle(w, w2, assignment, error):
    with pytest.raises(error) as expected:
        matched_coherence_iso(w, w2, assignment)
    with pytest.raises(error) as got:
        coherence_iso(w, w2, assignment)
    assert type(got.value) is type(expected.value)


ASSIGNMENTS = [
    SetAssignment.of({"x1": 2, "x2": 1, "x3": 2}),
    SetAssignment.of({"x1": 3, "x2": 2, "x3": 1}),
    SetAssignment.of({"x1": ("b", "a"), "x2": ("q", "p", "r"), "x3": ("w",)}),
    SetAssignment.of({"x1": ("a", "b"), "x2": ("p",), "x3": ("z", "w")}),
    SetAssignment.of({"x1": 3, "x2": 2, "x3": 1}),  # equal to the second, not the same object
]


def test_a_word_under_alternating_assignments_and_as_a_shared_subword():
    """The order kept on a word is for its last assignment only; switching
    back and forth, or meeting the word inside other words, never reuses a
    stale one."""
    x1, x2, x3 = Word.var("x1"), Word.var("x2"), Word.var("x3")
    shared = x1 * (x2 + x3)
    words = [shared, shared + Word.zero(), Word.one() * shared, (x2 + x3) * x1,
             x1 * x2 + x1 * x3, Word.zero() + shared * Word.one()]
    assert len({supp(w) for w in words}) == 1
    for _ in range(2):
        for a in ASSIGNMENTS:
            for w, w2 in itertools.product(words, repeat=2):
                assert _same_as_oracle(w, w2, a), (w, w2, a)
    for a, b in itertools.product(ASSIGNMENTS, repeat=2):
        assert _same_as_oracle(shared, words[4], a)
        assert _same_as_oracle(words[4], shared, b)


def test_the_kept_order_is_read_once_per_evaluation():
    """A second thread may evaluate the same word under another assignment
    between two reads of the order kept on it.  That interleaving is forced
    here: comparing the kept assignment with the one asked for first
    evaluates the words under another."""
    w, w2 = X1 * (X2 + X3), X2 * X1 + X3 * X1
    plain, other = ASSIGNMENTS[0], ASSIGNMENTS[1]
    pending = [lambda: coherence_iso(w, w2, other)]

    class Interleaved(SetAssignment):
        def __eq__(self, o):
            while pending:
                pending.pop()()
            return self.sets == o.sets

    coherence_iso(w, w2, Interleaved(plain.sets))
    assert _same_as_oracle(w, w2, plain)
    assert pending == []


def test_threads_under_different_assignments_agree_with_the_oracle():
    """More threads than cores evaluate one pair of words, each under its own
    assignment, with a short switch interval."""
    w, w2 = X1 * (X2 + X3), X2 * X1 + X3 * X1
    expected = {a: list(matched_coherence_iso(w, w2, a).items()) for a in ASSIGNMENTS[:4]}
    wrong = []

    def worker(a):
        for _ in range(300):
            if list(coherence_iso(w, w2, a).items()) != expected[a]:
                wrong.append(a)

    threads = [threading.Thread(target=worker, args=(a,)) for a in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
