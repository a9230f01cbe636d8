"""The Burnside ring of a finite group: table of marks, the mark
homomorphism and its exact inverse, multiplication, and the transfer and
norm maps needed by the Teichmueller homomorphism."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .errors import GwittError, IntegralityError
from .groups import ClassCensus, Group, subconjugacy_poset, subgroup_censuses
from .gsets import GSet, orbit_decompose
from .intpoly import Poly


class MarkColumns(NamedTuple):
    """A table of marks by columns, holding only its nonzero entries.

    `diag[h]` is the mark |N(H_h):H_h| of [H_h] on itself, and `above[h]`
    the flat list k1, m1, i1, k2, m2, i2, ... of the classes k > h with
    mark m = |(G/H_k)^{H_h}| != 0, where i = |H_k|/|H_h| is the exponent
    (K:H) of the ghost map.
    """

    diag: tuple[int, ...]
    above: tuple[tuple[int, ...], ...]


def _columns(census: ClassCensus) -> MarkColumns:
    """Pfeiffer's marks |(K/L_k)^{L_h}| = |N_K(L_k):L_k| * #{L' ~ L_k :
    L_h <= L'} from the census of K."""
    orders = census.orders
    # |N_K(L):L| = |K| / (|L| * #K-conjugates of L)
    weyl = [orders[-1] // (order * size) for order, size in zip(orders, census.sizes)]
    above = []
    for order, counts in zip(orders, census.above):
        column = []
        for k, n in zip(counts[::2], counts[1::2]):
            column += (k, weyl[k] * n, orders[k] // order)
        above.append(tuple(column))
    return MarkColumns(tuple(weyl), tuple(above))


@cache
def mark_columns(group: Group) -> MarkColumns:
    """The table of marks of G by sparse columns; cached per group."""
    return _columns(subconjugacy_poset(group).census)


def table_of_marks(group: Group) -> tuple[tuple[int, ...], ...]:
    """Entry (row [K], column [H]) = |(G/K)^H|; rows and columns follow the
    poset class order, so the matrix is lower triangular with diagonal
    |N_G(H)/H| > 0.

    Read off the subgroup lattice (Pfeiffer 1997): gK is H-fixed iff
    H <= gKg^-1, and each of the (G:N_G(K)) conjugates of K arises from
    |N_G(K):K| cosets, so |(G/K)^H| = |N_G(K):K| * #{K' ~ K : H <= K'}.

    The dense rows are rendered from `mark_columns` on each call and not
    kept: every computation reads the columns.
    """
    diag, above = mark_columns(group)
    rows = [[0] * len(diag) for _ in diag]
    for h, column in enumerate(above):
        rows[h][h] = diag[h]
        for j in range(0, len(column), 3):
            rows[column[j]][h] = column[j + 1]
    # one row at a time, so that the list and tuple forms of the whole
    # table are never held together
    for k, row in enumerate(rows):
        rows[k] = tuple(row)
    return tuple(rows)


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

    def _check(self, other: "BurnsideElement"):
        if self.group != other.group:
            raise GwittError("Burnside elements over different groups")


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
    return tuple(column_sums(b.coeffs, mark_columns(b.group)))


def _exact_div(value, n: int):
    if isinstance(value, Poly):
        return value.exact_div(n)
    q, r = divmod(value, n)
    if r:
        raise IntegralityError(f"{value} is not divisible by {n}")
    return q


def column_sums(coeffs, columns: MarkColumns, powered: bool = False) -> list:
    """For each class h, the sum over the column of h of m * c_k: the marks
    of the element with coefficients c.  With `powered`, the sum of
    m * c_k^(K:H) instead: the ghost components of the Witt vector with
    components c."""
    diag, above = columns
    out = []
    for h, column in enumerate(above):
        total = diag[h] * coeffs[h]
        for j in range(0, len(column), 3):
            c = coeffs[column[j]]
            total = total + column[j + 1] * (c ** column[j + 2] if powered else c)
        out.append(total)
    return out


def column_solve(vector, columns: MarkColumns, powered: bool = False,
                 div=_exact_div) -> list:
    """The c with column_sums(c, columns, powered) == vector, by triangular
    solve from the top class down, dividing by the diagonal with `div`
    (exact by default); an IntegralityError carries the failing class index
    in `where`."""
    diag, above = columns
    coeffs = [0] * len(diag)
    for h in range(len(diag) - 1, -1, -1):
        residue = vector[h]
        column = above[h]
        for j in range(0, len(column), 3):
            c = coeffs[column[j]]
            residue = residue - column[j + 1] * (c ** column[j + 2] if powered else c)
        try:
            coeffs[h] = div(residue, diag[h])
        except IntegralityError:
            raise IntegralityError(f"not integral at class {h}", where=h) from None
    return coeffs


def unmarks(group: Group, vector) -> BurnsideElement:
    """The unique preimage under marks, by exact triangular solve along the
    poset order; raises IntegralityError when the vector is not a mark
    vector of a virtual G-set."""
    poset = subconjugacy_poset(group)
    if len(vector) != len(poset):
        raise GwittError("mark vector has wrong length")
    try:
        coeffs = column_solve(vector, mark_columns(group))
    except IntegralityError as exc:
        label = poset.label(exc.where)
        raise IntegralityError(
            f"mark vector not integral at class {label}", where=label
        ) from None
    return BurnsideElement(group, tuple(coeffs))


def burnside_mul(b1: BurnsideElement, b2: BurnsideElement) -> BurnsideElement:
    """The product of virtual G-sets, through the injective ring
    homomorphism marks: unmarks(marks(b1) * marks(b2)) componentwise."""
    b1._check(b2)
    product = tuple(x * y for x, y in zip(marks(b1), marks(b2)))
    return unmarks(b1.group, product)


def norm_from_trivial(group: Group, x: int) -> BurnsideElement:
    """The multiplicative norm of an integer from the trivial-subgroup
    level: the unique element with marks [H] -> x^(G:H).

    For non-negative integers this agrees with the explicit dependent-product
    construction, and integrality holds for every integer input, so an
    IntegralityError here is an implementation bug.
    """
    poset = subconjugacy_poset(group)
    vector = tuple(
        x ** (group.order // cls.order) for cls in poset.classes
    )
    return unmarks(group, vector)


@cache
def _subgroup_rings(group: Group) -> tuple:
    """For each class [K] of G: the G-class of each class [L] of K, which is
    the transfer [K/L] -> [G/L] on the basis, the index |K:L| of each, and
    the mark columns of A(K), all read off G's lattice; cached per group."""
    return tuple(
        (class_map, tuple(census.orders[-1] // o for o in census.orders), _columns(census))
        for class_map, census in subgroup_censuses(group)
    )


def transferred_norms(group: Group, values) -> BurnsideElement:
    """The sum over the classes [K] of G of T_K^G N_e^K(x_K), for x_K in
    poset order.

    N_e^K(x) is the triangular solve in A(K) of the mark vector
    [L] -> x^|K:L|, and T_K^G sends [K/L] to [G/L].  The solve is exact on
    an integer x, where integrality always holds, and runs over Q on a
    polynomial x, whose norm has numerical-polynomial coefficients.
    """
    total = [0] * len(subconjugacy_poset(group))
    for x, (class_map, indices, columns) in zip(values, _subgroup_rings(group)):
        if x == 0:  # N_e^K(0) = 0
            continue
        div = Poly.rational_div if isinstance(x, Poly) else _exact_div
        norm = column_solve([x ** i for i in indices], columns, div=div)
        for g_class, c in zip(class_map, norm):
            total[g_class] += c
    return BurnsideElement(group, tuple(total))
