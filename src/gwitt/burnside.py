"""The Burnside ring of a finite group: table of marks, the mark
homomorphism and its exact inverse, multiplication, and the transfer and
norm maps needed by the Teichmueller homomorphism."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GwittError, IntegralityError
from .groups import Group, Subgroup, subconjugacy_poset
from .gsets import GSet, orbit_decompose
from .intpoly import Poly

_TOM_CACHE: dict[Group, tuple[tuple[int, ...], ...]] = {}
_CLASS_MAP_CACHE: dict[tuple[Group, Subgroup], tuple[int, ...]] = {}


def table_of_marks(group: Group) -> tuple[tuple[int, ...], ...]:
    """Entry (row [K], column [H]) = |(G/K)^H|; rows and columns follow the
    poset class order, so the matrix is lower triangular with diagonal
    |N_G(H)/H| > 0.

    Read off the subgroup lattice (Pfeiffer 1997): gK is H-fixed iff
    H <= gKg^-1, and each of the (G:N_G(K)) conjugates of K arises from
    |N_G(K):K| cosets, so |(G/K)^H| = |N_G(K):K| * #{K' ~ K : H <= K'}.
    """
    cached = _TOM_CACHE.get(group)
    if cached is not None:
        return cached
    poset = subconjugacy_poset(group)
    rows = []
    for ck, row in zip(poset.classes, poset.containing):
        weyl = group.order // (ck.order * len(ck.members))  # |N_G(K):K|
        rows.append(tuple(map(weyl.__mul__, row)))
    tom = tuple(rows)
    _TOM_CACHE[group] = tom
    return tom


def _scale(coeff, value):
    # works for int and Poly coefficients alike
    return coeff * value


@dataclass(frozen=True)
class BurnsideElement:
    """A virtual G-set: integer (or polynomial) multiplicities of the
    transitive G-sets [G/H], one per subconjugacy class."""

    group: Group
    coeffs: tuple

    def __post_init__(self):
        poset = subconjugacy_poset(self.group)
        if len(self.coeffs) != len(poset):
            raise GwittError("coefficient vector has wrong length")

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.group, tuple(-a for a in self.coeffs))

    def scale(self, value) -> "BurnsideElement":
        return BurnsideElement(self.group, tuple(_scale(c, value) for c in self.coeffs))

    def _check(self, other: "BurnsideElement"):
        if self.group != other.group:
            raise GwittError("Burnside elements over different groups")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def burnside_zero(group: Group) -> BurnsideElement:
    n = len(subconjugacy_poset(group))
    return BurnsideElement(group, (0,) * n)


def burnside_basis(group: Group, class_index: int) -> BurnsideElement:
    n = len(subconjugacy_poset(group))
    coeffs = [0] * n
    coeffs[class_index] = 1
    return BurnsideElement(group, tuple(coeffs))


def burnside_one(group: Group) -> BurnsideElement:
    # [G/G] is the multiplicative unit
    return burnside_basis(group, len(subconjugacy_poset(group)) - 1)


def burnside_of_gset(x: GSet) -> BurnsideElement:
    poset = subconjugacy_poset(x.group)
    coeffs = [0] * len(poset)
    for idx in orbit_decompose(x, poset):
        coeffs[idx] += 1
    return BurnsideElement(x.group, tuple(coeffs))


def marks(b: BurnsideElement) -> tuple:
    """The fixed-point vector over the poset; a ring homomorphism."""
    tom = table_of_marks(b.group)
    n = len(tom)
    return tuple(
        sum(_scale(b.coeffs[k], tom[k][h]) for k in range(n))
        for h in range(n)
    )


def _exact_div(value, n: int):
    if isinstance(value, Poly):
        return value.exact_div(n)
    q, r = divmod(value, n)
    if r:
        raise IntegralityError(f"{value} is not divisible by {n}")
    return q


def _rational_div(value, n: int):
    if isinstance(value, Poly):
        return value.rational_div(n)
    from fractions import Fraction
    q = Fraction(value, n)
    return int(q) if q.denominator == 1 else q


def unmarks(group: Group, vector, exact: bool = True) -> BurnsideElement:
    """The unique preimage under marks, by exact triangular solve along the
    poset order; raises IntegralityError when the vector is not a mark
    vector of a virtual G-set.

    With exact=False the solve runs inside Q instead: coefficients may come
    out rational (numerical-polynomial territory), which the symbolic
    verifications need as an intermediate step.
    """
    poset = subconjugacy_poset(group)
    tom = table_of_marks(group)
    n = len(poset)
    if len(vector) != n:
        raise GwittError("mark vector has wrong length")
    div = _exact_div if exact else _rational_div
    coeffs = [0] * n
    for h in range(n - 1, -1, -1):
        residue = vector[h]
        for k in range(h + 1, n):
            residue = residue - _scale(coeffs[k], tom[k][h])
        try:
            coeffs[h] = div(residue, tom[h][h])
        except IntegralityError:
            raise IntegralityError(
                f"mark vector not integral at class {poset.label(h)}",
                where=poset.label(h),
            ) from None
    return BurnsideElement(group, tuple(coeffs))


def burnside_mul(b1: BurnsideElement, b2: BurnsideElement) -> BurnsideElement:
    """The product of virtual G-sets, through the injective ring
    homomorphism marks: unmarks(marks(b1) * marks(b2)) componentwise."""
    b1._check(b2)
    product = tuple(x * y for x, y in zip(marks(b1), marks(b2)))
    return unmarks(b1.group, product)


def subgroup_class_map(group: Group, sub: Subgroup) -> tuple[int, ...]:
    """For each class of O(H), the class index in O(G) of that subgroup seen
    inside G."""
    cached = _CLASS_MAP_CACHE.get((group, sub))
    if cached is not None:
        return cached
    sub_group, embedding = sub.as_group()
    sub_poset = subconjugacy_poset(sub_group)
    poset = subconjugacy_poset(group)
    out = []
    for cls in sub_poset.classes:
        elems_in_g = tuple(sorted(embedding[i] for i in cls.rep.elements))
        out.append(poset.class_index(Subgroup(group, elems_in_g)))
    _CLASS_MAP_CACHE[(group, sub)] = tuple(out)
    return _CLASS_MAP_CACHE[(group, sub)]


def burnside_transfer(sub: Subgroup, b: BurnsideElement) -> BurnsideElement:
    """Additive induction A(H) -> A(G), sending [H/L] to [G/L]."""
    group = sub.group
    sub_group, _ = sub.as_group()
    if b.group != sub_group:
        raise GwittError("element does not live over the subgroup")
    mapping = subgroup_class_map(group, sub)
    n = len(subconjugacy_poset(group))
    out = [0] * n
    for i, c in enumerate(b.coeffs):
        out[mapping[i]] = out[mapping[i]] + c
    return BurnsideElement(group, tuple(out))


def norm_from_trivial(group: Group, x, exact: bool = True) -> BurnsideElement:
    """The multiplicative norm from the trivial-subgroup level: the unique
    element with marks [H] -> x^(G:H).

    For non-negative integers this agrees with the explicit dependent-product
    construction, and integrality holds for every integer input, so an
    IntegralityError on integers is an implementation bug.  For a symbolic
    (polynomial) x the coefficients are numerical polynomials, rational in
    the monomial basis; pass exact=False in that case.
    """
    poset = subconjugacy_poset(group)
    vector = tuple(
        x ** (group.order // cls.order) for cls in poset.classes
    )
    return unmarks(group, vector, exact=exact)
