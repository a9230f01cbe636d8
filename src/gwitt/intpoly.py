"""Exact sparse multivariate polynomials over the integers.

Monomials are stored as sorted tuples of (variable name, exponent) with
positive exponents; equality is exact and printing is canonical, so
polynomial identity can serve as a test assertion.

A `Poly` is an element of Z[X] by construction: the constructor refuses a
coefficient that is not an `int`, `var` an exponent that is not a
non-negative `int`, and arithmetic takes only `int` and `Poly` operands.
The one division, `exact_div` (that of the triangular solves), keeps
integers or raises.
"""

from __future__ import annotations

from .errors import GwittError, IntegralityError

Monomial = tuple[tuple[str, int], ...]


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[str, int] = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """An element of Z[x_1, ..., x_n] for a finite set of named variables."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise GwittError(f"coefficient {coeff!r} is not an integer")
                if coeff:
                    self.terms[mono] = coeff
        self._hash: int | None = None

    @staticmethod
    def const(n: int) -> Poly:
        return Poly({(): n})

    @staticmethod
    def var(name: str, exp: int = 1) -> Poly:
        if not isinstance(exp, int) or exp < 0:
            raise GwittError(f"exponent {exp!r} is not a non-negative integer")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): 1})

    @staticmethod
    def coerce(value) -> Poly:
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- structure ---------------------------------------------------------

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for mono in self.terms:
            for name, _ in mono:
                seen.add(name)
        return tuple(sorted(seen))

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def is_simple(self) -> bool:
        """True iff this is a sum of distinct square-free monomials."""
        return all(
            coeff == 1 and all(e == 1 for _, e in mono)
            for mono, coeff in self.terms.items()
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> Poly:
        other = Poly.coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self + (-Poly.coerce(other))

    def __rsub__(self, other) -> Poly:
        return Poly.coerce(other) - self

    def __mul__(self, other) -> Poly:
        other = Poly.coerce(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mul_monomials(m1, m2)
                c = terms.get(mono, 0) + c1 * c2
                if c:
                    terms[mono] = c
                else:
                    terms.pop(mono, None)
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> Poly:
        if not isinstance(exp, int) or exp < 0:
            raise GwittError(f"exponent {exp!r} is not a non-negative integer")
        if exp == 0:
            return Poly.const(1)
        # square-and-multiply; the last bit needs no further squaring
        result = None
        base = self
        while True:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if not exp:
                return result
            base = base * base

    def exact_div(self, n: int) -> Poly:
        """Divide every coefficient by n, raising IntegralityError unless the
        quotient is again integral."""
        if n == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        terms = {}
        for mono, coeff in self.terms.items():
            q, r = divmod(coeff, n)
            if r:
                raise IntegralityError(f"coefficient {coeff} not divisible by {n}")
            terms[mono] = q
        return Poly(terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: dict[str, "Poly | int"]) -> Poly:
        """Replace named variables by polynomials; unnamed variables survive.

        The terms of all substituted monomials are summed into one dict, so
        the cost grows with their total number of terms."""
        terms: dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for name, e in mono:
                if name in mapping:
                    term = term * (Poly.coerce(mapping[name]) ** e)
                else:
                    term = term * Poly.var(name, e)
            for m, c in term.terms.items():
                terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def evaluate(self, mapping: dict[str, "Poly | int"]) -> Poly | int:
        """Evaluate with values in Z or Z[X]: an `int` when every term
        evaluates to one, else a `Poly`.  As in `substitute`, the terms are
        summed into one dict."""
        total = 0
        terms: dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            term = coeff
            for name, e in mono:
                if name not in mapping:
                    raise KeyError(f"no value for variable {name!r}")
                term = term * mapping[name] ** e
            if isinstance(term, Poly):
                for m, c in term.terms.items():
                    terms[m] = terms.get(m, 0) + c
            else:
                total += term
        if not terms:
            return total
        terms[()] = terms.get((), 0) + total
        return Poly(terms)

    # -- comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        if self._hash is None:
            self._hash = (hash(self.constant_value()) if self.is_constant()
                          else hash(frozenset(self.terms.items())))
        return self._hash

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        # lex-descending on exponent vectors over the sorted variable universe
        universe = self.variables()
        index = {name: i for i, name in enumerate(universe)}

        def key(item):
            vec = [0] * len(universe)
            for name, e in item[0]:
                vec[index[name]] = e
            return tuple(vec)

        return sorted(self.terms.items(), key=key, reverse=True)

    @staticmethod
    def _format_monomial(mono: Monomial) -> str:
        # factors with larger exponents first, ties by name
        factors = sorted(mono, key=lambda f: (-f[1], f[0]))
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            body = self._format_monomial(mono)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"
