"""Exact polynomial arithmetic: canonical form, ring laws, substitution,
and the refusal of every value outside Z[X]."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwitt.errors import GwittError, IntegralityError
from gwitt.intpoly import Poly

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def test_canonical_string_matches_display_convention():
    p = x ** 2 * y + y ** 2 * x + 2 * x * y
    assert str(p) == "x^2*y + y^2*x + 2*x*y"
    assert str(Poly()) == "0"
    assert str(Poly.const(-5)) == "-5"
    assert str(x - y) == "x - y"


def test_equality_and_hash():
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert x + 0 == x
    assert Poly.const(3) == 3
    assert hash((x + y) * (x + y)) == hash(x ** 2 + 2 * x * y + y ** 2)
    # a constant hashes as the int it equals
    assert hash(Poly.const(3)) == hash(3) and hash(x - x) == hash(0)
    assert len({3, Poly.const(3)}) == 1 and 3 in {Poly.const(3)}


def test_substitute_and_evaluate():
    p = x ** 2 + y
    assert p.substitute({"x": y}) == y ** 2 + y
    assert p.substitute({"x": Poly.const(2)}) == y + 4
    assert p.evaluate({"x": 3, "y": 5}) == 14
    # ring-valued evaluation keeps exactness
    assert p.evaluate({"x": y, "y": 0}) == y ** 2


def test_evaluate_matches_substitute_up_to_eighth_powers():
    """evaluate raises each value to its exponent once; on seeded
    polynomials in u, v, w with exponents up to 8 it agrees with
    substitute, for values in Z and in Z[x, y]."""
    rng = random.Random(35)
    names = ("u", "v", "w")
    for _ in range(40):
        p = Poly({tuple((n, rng.randint(1, 8)) for n in names if rng.random() < 0.6):
                  rng.randint(-5, 5) for _ in range(rng.randint(1, 6))})
        for ring in ("Z", "Z[x,y]"):
            if ring == "Z":
                values = {n: rng.randint(-4, 4) for n in names}
            else:
                values = {n: rng.randint(-2, 2) * x + rng.randint(-2, 2) * y + rng.randint(-2, 2)
                          for n in names}
            assert Poly.coerce(p.evaluate(values)) == p.substitute(values), (p, values)
    # a variable with no value is refused, not read as zero
    with pytest.raises(KeyError):
        (x ** 3 * y).evaluate({"x": 2})


def test_substitute_is_linear_in_the_number_of_terms():
    # renaming both variables of a 5000-term polynomial takes about 0.3 s;
    # the bound fails when each substituted term copies the result built so
    # far (about 7 s)
    p = Poly({tuple((f"v{k}", e) for k, e in enumerate(divmod(i, 100)) if e): i + 1
              for i in range(5000)})
    mapping = {f"v{k}": Poly.var(f"w{k}") for k in range(2)}
    start = time.perf_counter()
    renamed = p.substitute(mapping)
    elapsed = time.perf_counter() - start
    assert renamed == Poly({tuple((f"w{k[1:]}", e) for k, e in mono): c
                            for mono, c in p.terms.items()})
    assert len(renamed.terms) == 5000
    assert elapsed < 1.0, f"renaming 5000 terms took {elapsed:.2f} s"


def test_exact_division():
    assert (2 * x + 4).exact_div(2) == x + 2
    with pytest.raises(IntegralityError):
        (2 * x + 3).exact_div(2)
    quotient = (6 * x * y - 4).exact_div(-2)
    assert quotient == 2 - 3 * x * y
    assert all(type(c) is int for c in quotient.terms.values())


NOT_INTEGERS = (2.5, 2.0, "7", Fraction(1, 2), Fraction(4, 2), None)


def test_const_refuses_non_integers():
    for value in NOT_INTEGERS:
        with pytest.raises(GwittError):
            Poly.const(value)


def test_constructor_refuses_non_integer_coefficients():
    for value in NOT_INTEGERS:
        with pytest.raises(GwittError):
            Poly({(): value})
        with pytest.raises(GwittError):
            Poly({(("x", 1),): 1, (): value})


def test_var_and_pow_refuse_non_integer_exponents():
    for exp in (2.5, 2.0, "2", Fraction(2, 1), -1):
        with pytest.raises(GwittError):
            Poly.var("x", exp)
        with pytest.raises(GwittError):
            x ** exp


def test_arithmetic_refuses_non_integer_operands():
    for value in NOT_INTEGERS:
        for combine in (lambda: x * value, lambda: value * x, lambda: x + value,
                        lambda: value + x, lambda: x - value, lambda: value - x):
            with pytest.raises(GwittError):
                combine()


def test_simplicity_predicate():
    assert (x * y + z).is_simple()
    assert Poly().is_simple()
    assert Poly.const(1).is_simple()
    assert not (x ** 2).is_simple()
    assert not (2 * x).is_simple()
    assert not (x + x).is_simple()


_polys = st.recursive(
    st.integers(-4, 4).map(Poly.const) | st.sampled_from([x, y, z]),
    lambda inner: st.tuples(inner, inner).map(lambda t: t[0] + t[1])
    | st.tuples(inner, inner).map(lambda t: t[0] * t[1]),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly() == p
    assert p * Poly.const(1) == p
    assert p - p == Poly()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_polys)
def test_powers_match_repeated_multiplication(p):
    expected = Poly.const(1)
    for n in range(18):
        assert p ** n == expected
        expected = expected * p
