"""Exact sparse multivariate polynomials over the integers.

Monomials are stored as sorted tuples of (variable name, exponent) with
positive exponents; equality is exact and printing is canonical, so
polynomial identity can serve as a test assertion.

Coefficients are integers; exact rational coefficients are tolerated as
intermediate values (triangular solves divide before their denominators
cancel) and `is_integral` tells the two apart.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityError

Monomial = tuple[tuple[str, int], ...]


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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
                coeff = _norm_coeff(coeff)
                if coeff:
                    self.terms[mono] = coeff
        self._hash: int | None = None

    @staticmethod
    def const(n) -> Poly:
        if isinstance(n, Fraction):
            return Poly({(): n})
        return Poly({(): int(n)})

    @staticmethod
    def var(name: str, exp: int = 1) -> Poly:
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): 1})

    @staticmethod
    def coerce(value) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Poly")

    @staticmethod
    def monomial(names: dict[str, int] | list[str], coeff: int = 1) -> Poly:
        if isinstance(names, dict):
            exps = {n: e for n, e in names.items() if e}
        else:
            exps = {}
            for n in names:
                exps[n] = exps.get(n, 0) + 1
        return Poly({tuple(sorted(exps.items())): coeff})

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

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

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
            raise ValueError("exponent must be a non-negative integer")
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
            q = Fraction(coeff, n)
            if q.denominator != 1:
                raise IntegralityError(f"coefficient {coeff} not divisible by {n}")
            terms[mono] = int(q)
        return Poly(terms)

    def rational_div(self, n: int) -> Poly:
        """Divide by n inside Q[X]; whole coefficients stay integers."""
        if n == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return Poly({mono: Fraction(coeff, n) for mono, coeff in self.terms.items()})

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: dict[str, "Poly | int"]) -> Poly:
        """Replace named variables by polynomials; unnamed variables survive."""
        result = Poly()
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for name, e in mono:
                if name in mapping:
                    term = term * (Poly.coerce(mapping[name]) ** e)
                else:
                    term = term * Poly.var(name, e)
            result = result + term
        return result

    def evaluate(self, mapping: dict[str, object]):
        """Evaluate with values from any commutative ring (ints stay ints)."""
        result = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for name, e in mono:
                if name not in mapping:
                    raise KeyError(f"no value for variable {name!r}")
                value = mapping[name]
                for _ in range(e):
                    term = term * value
            result = result + term
        return result

    # -- comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
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


ZERO = Poly()
ONE = Poly.const(1)


def variables(*names: str) -> tuple[Poly, ...]:
    return tuple(Poly.var(name) for name in names)
