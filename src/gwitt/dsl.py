"""Tokenizer, recursive-descent parser and evaluator for the input DSL.

Grammar (LL(1), whitespace-insensitive):

    group    := "C(" num ")" | "S(" num ")" | "D(" num ")" | "V4"
              | "perm[" cycle ("," cycle)* "]"       cycle := "(" num+ ")"
    subgroup := "<" [num ("," num)*] ">"             generator element indices
    gset     := gsum;  gsum := gprod ("+" gprod)*;  gprod := gatom ("*" gatom)*
    gatom    := group "/" subgroup | "(" gset ")"
    map      := "id(" gset ")" | "fold(" gset ")" | "pt(" gset ")"
              | gset "->" gset "[" [num ("," num)*] "]"
    bispan   := bterm (";" bterm)*                   phi ; psi  =  psi ∘ phi
    bterm    := "R(" map ")" | "T(" map ")" | "N(" map ")"
              | "<" bispan "," bispan ">" | "(" bispan ")"
    word     := wterm ("+" wterm)*;  wterm := watom ("*" watom)*
    watom    := "0" | "1" | ident | "(" word ")"
    poly     := signed sum of products of num | ident ["^" num] | "(" poly ")"
    vector   := "(" poly ("," poly)* ")"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import groups as _groups
from .bispans import Bispan, compose, gen_N, gen_R, gen_T, pair
from .errors import DslSyntaxError, GwittError
from .groups import Group, Subgroup, subgroup_generated
from .gsets import GMap, GSet, coset_space, disjoint_union, point_gset, product
from .intpoly import Poly
from .words import Word

_PUNCT = ("->", "(", ")", "<", ">", "[", "]", ",", ";", "+", "*", "/", "^", "-")

# Fixed input bounds, checked while parsing so that no input builds an
# unbounded structure: bracket nesting and parse-tree depth (which bound
# every recursive walk over the tree), the digits of a number, the point
# labels of perm[...] and the exponent after ^.
MAX_DEPTH = 100
MAX_DIGITS = 1000
MAX_PERM_POINTS = 64
MAX_EXPONENT = 64

# The most terms a product or power in a polynomial literal may expand to,
# checked before it is expanded: a bound on the terms of the result (the
# product of the factors' term counts, or the number of monomials of degree
# e in t terms for p^e), so that a short literal such as (a+...+h)^64 is
# refused at once rather than expanded; the CLI holds symbolic ghost
# components to the same cap through TermBound.
MAX_TERMS = 10_000


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", or the punctuation itself
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Node:
    """A DSL parse-tree node; span is (line, col) of the first token."""

    kind: str
    value: object
    children: tuple
    span: tuple[int, int]
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth = 1 + max((c.depth for c in self.children), default=0)
        if depth > MAX_DEPTH:
            raise DslSyntaxError(
                f"expression tree is deeper than {MAX_DEPTH} levels", *self.span
            )
        object.__setattr__(self, "depth", depth)

    def __repr__(self):
        return f"Node({self.kind}, {self.value}, {len(self.children)} children)"


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            tokens.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise DslSyntaxError(f"number has more than {MAX_DIGITS} digits", line, col)
            tokens.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "()<>[],;+*/^-":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(
                f"expected {what or kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col, expected={what or kind},
            )
        return self.advance()

    def error(self, message: str, expected=()):
        tok = self.peek()
        raise DslSyntaxError(
            f"{message}, found {tok.text or 'end of input'!r}",
            tok.line, tok.col, expected=set(expected),
        )

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def require_end(self):
        if not self.at_end():
            self.error("expected end of input", expected={"end of input"})

    def nested(self, parse) -> Node:
        """Run `parse` one bracket (or unary minus) level deeper."""
        if self.nesting == MAX_DEPTH:
            self.error(f"brackets are nested deeper than {MAX_DEPTH} levels")
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    # -- groups and subgroups -------------------------------------------------

    def parse_group(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "ident" and tok.text in ("C", "S", "D"):
            self.advance()
            self.expect("(", "(")
            num = self.expect("num", "number")
            self.expect(")", ")")
            return Node("group", (tok.text, int(num.text)), (), span)
        if tok.kind == "ident" and tok.text == "V4":
            self.advance()
            return Node("group", ("V4", None), (), span)
        if tok.kind == "ident" and tok.text == "perm":
            self.advance()
            self.expect("[", "[")
            cycles = [self._parse_cycle()]
            while self.peek().kind == ",":
                self.advance()
                cycles.append(self._parse_cycle())
            self.expect("]", "]")
            return Node("group", ("perm", tuple(cycles)), (), span)
        self.error("expected a group", expected={"C(", "S(", "D(", "V4", "perm["})

    def _parse_cycle(self) -> tuple[int, ...]:
        self.expect("(", "(")
        nums = []
        while self.peek().kind == "num":
            if int(self.peek().text) >= MAX_PERM_POINTS:
                self.error(f"permutation points must be below {MAX_PERM_POINTS}")
            nums.append(int(self.advance().text))
        self.expect(")", ")")
        if not nums:
            self.error("empty cycle", expected={"number"})
        return tuple(nums)

    def parse_subgroup(self) -> Node:
        tok = self.expect("<", "<")
        span = (tok.line, tok.col)
        gens = []
        if self.peek().kind == "num":
            gens.append(int(self.advance().text))
            while self.peek().kind == ",":
                self.advance()
                gens.append(int(self.expect("num", "number").text))
        self.expect(">", ">")
        return Node("subgroup", tuple(gens), (), span)

    # -- G-sets -----------------------------------------------------------------

    def parse_gset(self) -> Node:
        node = self._parse_gset_prod()
        while self.peek().kind == "+":
            tok = self.advance()
            rhs = self._parse_gset_prod()
            node = Node("gset_sum", None, (node, rhs), (tok.line, tok.col))
        return node

    def _parse_gset_prod(self) -> Node:
        node = self._parse_gset_atom()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self._parse_gset_atom()
            node = Node("gset_prod", None, (node, rhs), (tok.line, tok.col))
        return node

    def _parse_gset_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = self.nested(self.parse_gset)
            self.expect(")", ")")
            return node
        group = self.parse_group()
        self.expect("/", "/")
        sub = self.parse_subgroup()
        return Node("gset_cosets", None, (group, sub), group.span)

    # -- maps ---------------------------------------------------------------------

    def parse_map(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "ident" and tok.text in ("id", "fold", "pt") and self.peek(1).kind == "(":
            self.advance()
            self.advance()
            inner = self.parse_gset()
            self.expect(")", ")")
            return Node(f"map_{tok.text}", None, (inner,), span)
        source = self.parse_gset()
        self.expect("->", "->")
        target = self.parse_gset()
        self.expect("[", "[")
        images = []
        if self.peek().kind == "num":
            images.append(int(self.advance().text))
            while self.peek().kind == ",":
                self.advance()
                images.append(int(self.expect("num", "number").text))
        self.expect("]", "]")
        return Node("map_table", tuple(images), (source, target), span)

    # -- bispans --------------------------------------------------------------------

    def parse_bispan(self) -> Node:
        node = self._parse_bispan_atom()
        while self.peek().kind == ";":
            tok = self.advance()
            rhs = self._parse_bispan_atom()
            node = Node("bispan_seq", None, (node, rhs), (tok.line, tok.col))
        return node

    def _parse_bispan_atom(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "ident" and tok.text in ("R", "T", "N"):
            self.advance()
            self.expect("(", "(")
            inner = self.parse_map()
            self.expect(")", ")")
            return Node(f"bispan_{tok.text}", None, (inner,), span)
        if tok.kind == "<":
            self.advance()
            first = self.nested(self.parse_bispan)
            self.expect(",", ",")
            second = self.nested(self.parse_bispan)
            self.expect(">", ">")
            return Node("bispan_pair", None, (first, second), span)
        if tok.kind == "(":
            self.advance()
            node = self.nested(self.parse_bispan)
            self.expect(")", ")")
            return node
        self.error("expected a bispan", expected={"R(", "T(", "N(", "<", "("})

    # -- words -------------------------------------------------------------------------

    def parse_word(self) -> Node:
        node = self._parse_word_term()
        while self.peek().kind == "+":
            tok = self.advance()
            rhs = self._parse_word_term()
            node = Node("word_add", None, (node, rhs), (tok.line, tok.col))
        return node

    def _parse_word_term(self) -> Node:
        node = self._parse_word_atom()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self._parse_word_atom()
            node = Node("word_mul", None, (node, rhs), (tok.line, tok.col))
        return node

    def _parse_word_atom(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "num" and tok.text in ("0", "1"):
            self.advance()
            return Node("word_unit", tok.text, (), span)
        if tok.kind == "ident":
            self.advance()
            return Node("word_var", tok.text, (), span)
        if tok.kind == "(":
            self.advance()
            node = self.nested(self.parse_word)
            self.expect(")", ")")
            return node
        self.error("expected a word", expected={"0", "1", "identifier", "("})

    # -- integer polynomial expressions ---------------------------------------------------

    def parse_poly(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        node = self._parse_poly_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self._parse_poly_term()
            node = Node("poly_add" if op.kind == "+" else "poly_sub",
                        None, (node, rhs), span)
        return node

    def _parse_poly_term(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "-":
            self.advance()
            inner = self.nested(self._parse_poly_term)
            return Node("poly_neg", None, (inner,), span)
        node = self._parse_poly_factor()
        while self.peek().kind == "*":
            self.advance()
            rhs = self._parse_poly_factor()
            node = Node("poly_mul", None, (node, rhs), span)
        return node

    def _parse_poly_factor(self) -> Node:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "num":
            self.advance()
            node = Node("poly_const", int(tok.text), (), span)
        elif tok.kind == "ident":
            self.advance()
            node = Node("poly_var", tok.text, (), span)
        elif tok.kind == "(":
            self.advance()
            node = self.nested(self.parse_poly)
            self.expect(")", ")")
        else:
            self.error("expected a polynomial factor",
                       expected={"number", "identifier", "("})
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind == "num" and int(self.peek().text) > MAX_EXPONENT:
                self.error(f"exponents are at most {MAX_EXPONENT}")
            exp = self.expect("num", "number")
            node = Node("poly_pow", int(exp.text), (node,), span)
        return node

    def parse_vector(self) -> Node:
        tok = self.expect("(", "(")
        span = (tok.line, tok.col)
        entries = [self.parse_poly()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.parse_poly())
        self.expect(")", ")")
        return Node("vector", None, tuple(entries), span)


# -- top-level parse entry points ------------------------------------------------


def _run(text: str, method: str) -> Node:
    parser = Parser(text)
    node = getattr(parser, method)()
    parser.require_end()
    return node


def parse_group(text: str) -> Node:
    return _run(text, "parse_group")


def parse_gset(text: str) -> Node:
    return _run(text, "parse_gset")


def parse_map(text: str) -> Node:
    return _run(text, "parse_map")


def parse_bispan(text: str) -> Node:
    return _run(text, "parse_bispan")


def parse_word(text: str) -> Node:
    return _run(text, "parse_word")


def parse_vector(text: str) -> Node:
    return _run(text, "parse_vector")


# -- canonical printing ------------------------------------------------------------


def to_text(node: Node) -> str:
    k = node.kind
    if k == "group":
        tag, arg = node.value
        if tag == "V4":
            return "V4"
        if tag == "perm":
            return "perm[" + ",".join(
                "(" + " ".join(map(str, cyc)) + ")" for cyc in arg
            ) + "]"
        return f"{tag}({arg})"
    if k == "subgroup":
        return "<" + ",".join(map(str, node.value)) + ">"
    if k == "gset_cosets":
        return f"{to_text(node.children[0])}/{to_text(node.children[1])}"
    if k == "gset_sum":
        return f"{to_text(node.children[0])} + {to_text(node.children[1])}"
    if k == "gset_prod":
        parts = []
        for child in node.children:
            text = to_text(child)
            parts.append(f"({text})" if child.kind == "gset_sum" else text)
        return " * ".join(parts)
    if k in ("map_id", "map_fold", "map_pt"):
        return f"{k[4:]}({to_text(node.children[0])})"
    if k == "map_table":
        src, tgt = node.children
        return (f"{to_text(src)} -> {to_text(tgt)} "
                f"[{','.join(map(str, node.value))}]")
    if k in ("bispan_R", "bispan_T", "bispan_N"):
        return f"{k[7:]}({to_text(node.children[0])})"
    if k == "bispan_seq":
        return f"{to_text(node.children[0])} ; {to_text(node.children[1])}"
    if k == "bispan_pair":
        return f"<{to_text(node.children[0])}, {to_text(node.children[1])}>"
    if k == "word_unit":
        return str(node.value)
    if k == "word_var":
        return str(node.value)
    if k == "word_add":
        return f"{to_text(node.children[0])} + {to_text(node.children[1])}"
    if k == "word_mul":
        parts = []
        for child in node.children:
            text = to_text(child)
            parts.append(f"({text})" if child.kind == "word_add" else text)
        return " * ".join(parts)
    if k == "poly_const":
        return str(node.value)
    if k == "poly_var":
        return str(node.value)
    if k == "poly_add":
        return f"{to_text(node.children[0])} + {to_text(node.children[1])}"
    if k == "poly_sub":
        return f"{to_text(node.children[0])} - {to_text(node.children[1])}"
    if k == "poly_neg":
        return f"-{to_text(node.children[0])}"
    if k == "poly_mul":
        parts = []
        for child in node.children:
            text = to_text(child)
            wrap = child.kind in ("poly_add", "poly_sub", "poly_neg")
            parts.append(f"({text})" if wrap else text)
        return "*".join(parts)
    if k == "poly_pow":
        base = to_text(node.children[0])
        if node.children[0].kind not in ("poly_const", "poly_var"):
            base = f"({base})"
        return f"{base}^{node.value}"
    if k == "vector":
        return "(" + ", ".join(to_text(c) for c in node.children) + ")"
    raise GwittError(f"cannot print node kind {k!r}")


# -- evaluation to domain objects -----------------------------------------------------


def build_group(node: Node) -> Group:
    tag, arg = node.value
    if tag == "C":
        return _groups.cyclic(arg)
    if tag == "S":
        return _groups.symmetric(arg)
    if tag == "D":
        return _groups.dihedral(arg)
    if tag == "V4":
        return _groups.klein_four()
    if tag == "perm":
        n_points = max(max(cyc) for cyc in arg) + 1
        perms = []
        for cyc in arg:
            perm = list(range(n_points))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
            perms.append(tuple(perm))
        return _groups.group_from_generators(perms, n_points=n_points)
    raise GwittError(f"unknown group tag {tag!r}")


def build_subgroup(node: Node, group: Group) -> Subgroup:
    for g in node.value:
        if not (0 <= g < group.order):
            raise GwittError(
                f"generator index {g} out of range for {group.name}"
            )
    return subgroup_generated(group, node.value)


def build_gset(node: Node) -> GSet:
    if node.kind == "gset_cosets":
        group = build_group(node.children[0])
        sub = build_subgroup(node.children[1], group)
        return coset_space(group, sub)
    if node.kind == "gset_sum":
        left = build_gset(node.children[0])
        right = build_gset(node.children[1])
        if left.group != right.group:
            raise GwittError("disjoint union needs one common group")
        return disjoint_union([left, right])[0]
    if node.kind == "gset_prod":
        left = build_gset(node.children[0])
        right = build_gset(node.children[1])
        if left.group != right.group:
            raise GwittError("product needs one common group")
        return product(left, right)[0]
    raise GwittError(f"not a G-set node: {node.kind}")


def build_map(node: Node) -> GMap:
    if node.kind == "map_id":
        x = build_gset(node.children[0])
        return GMap(x, x, tuple(x.points()), validate=False)
    if node.kind == "map_fold":
        x = build_gset(node.children[0])
        both, _ = disjoint_union([x, x])
        return GMap(both, x, tuple(list(x.points()) * 2), validate=False)
    if node.kind == "map_pt":
        x = build_gset(node.children[0])
        return GMap(x, point_gset(x.group), (0,) * x.size, validate=False)
    if node.kind == "map_table":
        source = build_gset(node.children[0])
        target = build_gset(node.children[1])
        if source.group != target.group:
            raise GwittError("map endpoints need one common group")
        if len(node.value) != source.size:
            raise GwittError(
                f"map table has {len(node.value)} entries for {source.size} points"
            )
        return GMap(source, target, node.value)
    raise GwittError(f"not a map node: {node.kind}")


def build_bispan(node: Node) -> Bispan:
    if node.kind == "bispan_R":
        return gen_R(build_map(node.children[0]))
    if node.kind == "bispan_T":
        return gen_T(build_map(node.children[0]))
    if node.kind == "bispan_N":
        return gen_N(build_map(node.children[0]))
    if node.kind == "bispan_seq":
        first = build_bispan(node.children[0])
        second = build_bispan(node.children[1])
        return compose(second, first)
    if node.kind == "bispan_pair":
        return pair(build_bispan(node.children[0]), build_bispan(node.children[1]))
    raise GwittError(f"not a bispan node: {node.kind}")


def build_word(node: Node) -> Word:
    if node.kind == "word_unit":
        return Word.zero() if node.value == "0" else Word.one()
    if node.kind == "word_var":
        return Word.var(node.value)
    if node.kind == "word_add":
        return build_word(node.children[0]) + build_word(node.children[1])
    if node.kind == "word_mul":
        return build_word(node.children[0]) * build_word(node.children[1])
    raise GwittError(f"not a word node: {node.kind}")


def build_poly(node: Node) -> Poly:
    if node.kind == "poly_const":
        return Poly.const(node.value)
    if node.kind == "poly_var":
        return Poly.var(node.value)
    if node.kind == "poly_add":
        return build_poly(node.children[0]) + build_poly(node.children[1])
    if node.kind == "poly_sub":
        return build_poly(node.children[0]) - build_poly(node.children[1])
    if node.kind == "poly_neg":
        return -build_poly(node.children[0])
    if node.kind == "poly_mul":
        left, right = build_poly(node.children[0]), build_poly(node.children[1])
        _check_terms(node, len(left.terms) * len(right.terms))
        return left * right
    if node.kind == "poly_pow":
        base = build_poly(node.children[0])
        _check_terms(node, power_terms(len(base.terms), node.value))
        return base ** node.value
    raise GwittError(f"not a polynomial node: {node.kind}")


def power_terms(t: int, e: int) -> int:
    """C(t+e-1, e), the monomials of degree e in t terms (1 for t = 0): a
    bound on the terms of p^e when p has t terms; MAX_TERMS + 1 past it."""
    n, k = t + e - 1, min(e, t - 1)  # C(n, e) = C(n, k) >= n for 0 < k < n
    if k <= 0:
        return 1
    return MAX_TERMS + 1 if n > MAX_TERMS else min(comb(n, k), MAX_TERMS + 1)


class TermBound:
    """A bound on a polynomial that is never expanded: at most `terms`
    terms, in `variables`, of degree at most `degree`.  The term counts
    follow build_poly's rule (a sum adds them, a product multiplies them,
    p^e counts power_terms), capped by the C(v+d, d) monomials of degree at
    most d in v variables.  An integer factor keeps the bound, so the ghost
    map runs on bounds as on polynomials."""

    def __init__(self, terms: int, variables: frozenset = frozenset(), degree: int = 0):
        self.terms = min(terms, power_terms(len(variables) + 1, degree))
        self.variables, self.degree = variables, degree

    def __add__(self, other: "TermBound") -> "TermBound":
        return TermBound(self.terms + other.terms, self.variables | other.variables,
                         max(self.degree, other.degree))

    def __mul__(self, other: "TermBound | int") -> "TermBound":
        if isinstance(other, int):
            return self
        return TermBound(self.terms * other.terms, self.variables | other.variables,
                         self.degree + other.degree)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TermBound":
        return TermBound(power_terms(self.terms, e), self.variables, self.degree * e)


def term_bound(node: Node) -> TermBound:
    """The TermBound of build_poly(node), found without expanding it."""
    if node.kind == "poly_const":
        return TermBound(1)
    if node.kind == "poly_var":
        return TermBound(1, frozenset([node.value]), 1)
    if node.kind == "poly_pow":
        return term_bound(node.children[0]) ** node.value
    first, *rest = (term_bound(c) for c in node.children)  # neg, add, sub, mul
    return first * rest[0] if node.kind == "poly_mul" else sum(rest, first)


def _check_terms(node: Node, bound: int) -> None:
    if bound > MAX_TERMS:
        line, col = node.span
        raise GwittError(
            f"the polynomial at line {line}, column {col} would expand "
            f"to more than {MAX_TERMS} terms"
        )


def build_vector(node: Node) -> list[Poly]:
    return [build_poly(c) for c in node.children]
