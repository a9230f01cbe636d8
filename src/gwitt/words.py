"""Words in the free {+,*}-algebra on named variables plus the two unit
symbols, their support polynomials, evaluation on finite labeled sets, and
the preferred coherence bijections between evaluations of equal simple
support."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GwittError, SupportError
from .intpoly import Poly


class Word:
    """An expression tree with leaves in the variables or {zero, one} and
    binary nodes labeled + or *.

    A Word must not be mutated once used: it caches its hash, its support
    (`supp`), whether that support is simple and, for the last assignment it
    was evaluated under by `coherence_iso`, the normal-form order of that
    evaluation."""

    __slots__ = ("kind", "name", "left", "right", "_hash", "_supp", "_simple", "_order")

    def __init__(self, kind: str, name: str | None = None,
                 left: "Word | None" = None, right: "Word | None" = None):
        if kind not in ("zero", "one", "var", "add", "mul"):
            raise ValueError(f"bad word kind {kind!r}")
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self._hash = None
        self._supp = None
        self._simple = None
        self._order = None

    @staticmethod
    def zero() -> "Word":
        return Word("zero")

    @staticmethod
    def one() -> "Word":
        return Word("one")

    @staticmethod
    def var(name: str) -> "Word":
        return Word("var", name=name)

    def __add__(self, other: "Word") -> "Word":
        return Word("add", left=self, right=other)

    def __mul__(self, other: "Word") -> "Word":
        return Word("mul", left=self, right=other)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.kind != other.kind or self.name != other.name:
            return False
        if self.kind in ("zero", "one", "var"):
            return True
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        if self._hash is None:
            if self.kind in ("zero", "one", "var"):
                self._hash = hash((self.kind, self.name))
            else:
                self._hash = hash((self.kind, self.left, self.right))
        return self._hash

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "one":
            return "1"
        if self.kind == "var":
            return self.name
        op = " + " if self.kind == "add" else " * "
        return f"({self.left}{op}{self.right})"

    def __repr__(self):
        return f"Word({self})"


def supp(w: Word) -> Poly:
    """The support homomorphism into Z[X]: zero -> 0, one -> 1, additive and
    multiplicative on nodes.  Computed once per node from its children's
    supports and kept on the word; the Poly returned is shared, so it must
    not be mutated."""
    s = w._supp
    if s is None:
        if w.kind == "zero":
            s = Poly()
        elif w.kind == "one":
            s = Poly.const(1)
        elif w.kind == "var":
            s = Poly.var(w.name)
        elif w.kind == "add":
            s = supp(w.left) + supp(w.right)
        else:
            s = supp(w.left) * supp(w.right)
        w._supp = s
    return s


def _support_is_simple(w: Word) -> bool:
    """Whether supp(w) is simple; tested once per node and kept on it."""
    simple = w._simple
    if simple is None:
        simple = w._simple = supp(w).is_simple()
    return simple


@dataclass(frozen=True)
class SetAssignment:
    """A finite labeled set per variable; labels are distinct within a set."""

    sets: tuple[tuple[str, tuple[str, ...]], ...]

    @staticmethod
    def of(mapping: dict[str, int] | dict[str, tuple[str, ...]]) -> "SetAssignment":
        items = []
        for name in sorted(mapping):
            value = mapping[name]
            if isinstance(value, int):
                labels = tuple(f"{name}.{k}" for k in range(value))
            else:
                labels = tuple(value)
            if len(set(labels)) != len(labels):
                raise ValueError(f"labels for {name} are not distinct")
            items.append((name, labels))
        return SetAssignment(tuple(items))

    def labels(self, name: str) -> tuple[str, ...]:
        for n, ls in self.sets:
            if n == name:
                return ls
        raise GwittError(f"no set assigned to variable {name!r}")


def eval_size(w: Word, a: SetAssignment) -> int:
    """The size of the largest evaluation that eval_word(w, a) builds, over w
    and its subwords: supp evaluated at the set sizes, counted without
    building any element.  An unassigned variable counts as empty here;
    eval_word reports it."""
    sizes = {name: len(labels) for name, labels in a.sets}

    def walk(v: Word) -> tuple[int, int]:  # (|eval(v)|, largest inside v)
        if v.kind == "zero":
            return 0, 0
        if v.kind == "one":
            return 1, 1
        if v.kind == "var":
            n = sizes.get(v.name, 0)
            return n, n
        (left, peak_left), (right, peak_right) = walk(v.left), walk(v.right)
        n = left + right if v.kind == "add" else left * right
        return n, max(n, peak_left, peak_right)

    return walk(w)[1]


def eval_word(w: Word, a: SetAssignment) -> tuple:
    """The evaluation in finite sets; elements carry full provenance.

    zero -> (), one -> a single unit element, + -> tagged union,
    * -> cartesian pairs.
    """
    kind = w.kind
    if kind == "add":
        return tuple([("+", 0, e) for e in eval_word(w.left, a)]
                     + [("+", 1, e) for e in eval_word(w.right, a)])
    if kind == "mul":
        left = eval_word(w.left, a)
        right = eval_word(w.right, a)
        return tuple([("*", e1, e2) for e1 in left for e2 in right])
    if kind == "var":
        name = w.name
        return tuple([("v", name, label) for label in a.labels(name)])
    return (("u",),) if kind == "one" else ()


def _normal_form(w: Word, elem) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """(monomial variables, sorted (variable, chosen label) pairs) for one
    element of eval_word(w, a); defined whenever the support is square-free
    along this element's branch."""
    if w.kind == "one":
        return (), ()
    if w.kind == "var":
        _, name, label = elem
        return (name,), ((name, label),)
    if w.kind == "add":
        _, side, inner = elem
        return _normal_form(w.left if side == 0 else w.right, inner)
    if w.kind == "mul":
        _, e1, e2 = elem
        m1, c1 = _normal_form(w.left, e1)
        m2, c2 = _normal_form(w.right, e2)
        if set(m1) & set(m2):
            raise SupportError("monomial is not square-free along this element")
        merged = tuple(sorted(m1 + m2))
        return merged, tuple(sorted(c1 + c2))
    raise SupportError("zero has no elements")


def _normal_order(w: Word, a: SetAssignment,
                  elems: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, rank) of elems = eval_word(w, a): order[r] is the position of
    the element whose normal form is r-th in ascending order, and rank is the
    inverse permutation.  Kept on w for the last assignment only; the slot is
    read once, so a thread evaluating w under another assignment never mixes
    the two."""
    cached = w._order
    if cached is not None and (cached[0] is a or cached[0] == a):
        return cached[1], cached[2]
    keys = [_normal_form(w, e) for e in elems]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
        raise SupportError("normalization is not injective; support not simple")
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    cached = (a, tuple(order), tuple(rank))
    w._order = cached
    return cached[1], cached[2]


def coherence_iso(w: Word, w2: Word, a: SetAssignment) -> dict:
    """The preferred bijection eval(w, a) -> eval(w2, a).

    Requires supp(w) == supp(w2) and that the common support is simple; each
    element is normalized to its (monomial, choice-of-labels) pair, and the
    two evaluations, which then normalize onto the same index family, are
    paired by the rank of their normal forms.  The dict follows the order of
    eval_word(w, a).
    """
    s1, s2 = supp(w), supp(w2)
    if s1 != s2:
        raise SupportError("words have different supports")
    if not _support_is_simple(w):
        raise SupportError("common support is not simple")
    left = eval_word(w, a)
    right = eval_word(w2, a)
    _, rank = _normal_order(w, a, left)
    order, _ = _normal_order(w2, a, right)
    return {e: right[order[r]] for e, r in zip(left, rank)}


def normal_form_index(w: Word, a: SetAssignment) -> dict:
    """element -> (monomial, choices); raises unless it is a bijection onto
    the index family determined by supp(w)."""
    s = supp(w)
    if not _support_is_simple(w):
        raise SupportError("support is not simple")
    elems = eval_word(w, a)
    nf = {e: _normal_form(w, e) for e in elems}
    expected = set()
    for mono, _coeff in s.terms.items():
        names = tuple(n for n, _ in mono)
        for combo in itertools.product(*(a.labels(n) for n in names)):
            expected.add((names, tuple(sorted(zip(names, combo)))))
    got = set(nf.values())
    if got != expected or len(got) != len(elems):
        raise SupportError("normal forms are not a bijection onto the index family")
    return nf
