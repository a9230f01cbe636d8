"""The Burnside ring of a finite group: table of marks, the mark
homomorphism and its exact inverse, multiplication, and the transfer and
norm maps needed by the Teichmueller homomorphism."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import GwittError, IntegralityError
from .groups import Group, subconjugacy_poset
from .intpoly import Poly

if TYPE_CHECKING:
    from .gsets import GSet


class MarkColumns(NamedTuple):
    """A table of marks by columns, holding only its nonzero entries.

    `diag[h]` is the mark |N(H_h):H_h| of [H_h] on itself, and `above[h]`
    the triples (k, m, e), ascending in k, over the classes k > h with mark
    m = |(G/H_k)^{H_h}| != 0, where e = |H_k|/|H_h| is the exponent (K:H)
    of the ghost map.  [H_h] <= [H_k] iff k == h or k has a triple in
    `above[h]`: the nonzero pattern is the order relation of the poset.
    """

    diag: tuple[int, ...]
    above: tuple[tuple[tuple[int, int, int], ...], ...]


@cache
def mark_columns(group: Group) -> MarkColumns:
    """The table of marks of G by sparse columns: |(G/H_k)^{H_h}| =
    |N_G(H_k):H_k| * #{H' ~ H_k : H_h <= H'} (Pfeiffer), with |N_G(K):K| =
    |G| / (|K| * #conjugates of K); one pass over the down-sets of each
    class's members counts the representatives H_h in them; cached per group."""
    poset = subconjugacy_poset(group)
    down, orders, class_of, reps = poset.down, poset.orders, poset.class_of, poset.reps
    members: list[list[int]] = [[] for _ in reps]
    for i, c in enumerate(class_of):
        members[c].append(i)
    diag, above = [], [[] for _ in members]
    for k, orbit in enumerate(members):
        order = orders[orbit[0]]
        diag.append(group.order // (order * len(orbit)))
        counts: dict[int, int] = {}
        for m in orbit:
            for i in down[m]:
                h = class_of[i]
                if reps[h] == i:
                    counts[h] = counts.get(h, 0) + 1
        del counts[k]  # of its own class, H_k lies in itself only
        for h, n in counts.items():
            above[h].append((k, diag[k] * n, order // orders[reps[h]]))
    return MarkColumns(tuple(diag), tuple(map(tuple, above)))


def table_of_marks(group: Group) -> tuple[tuple[int, ...], ...]:
    """Entry (row [K], column [H]) = |(G/K)^H|; rows and columns follow the
    poset class order, so the matrix is lower triangular with diagonal
    |N_G(H)/H| > 0.

    Read off the subgroup lattice (Pfeiffer 1997): gK is H-fixed iff
    H <= gKg^-1, and each of the (G:N_G(K)) conjugates of K arises from
    |N_G(K):K| cosets, so |(G/K)^H| = |N_G(K):K| * #{K' ~ K : H <= K'}.

    The dense rows are rendered from the triples of `mark_columns` on each
    call and not kept: every computation reads the columns.
    """
    diag, above = mark_columns(group)
    rows = [[0] * len(diag) for _ in diag]
    for h, column in enumerate(above):
        rows[h][h] = diag[h]
        for k, m, _ in column:
            rows[k][h] = m
    # one row at a time, so that the list and tuple forms of the whole
    # table are never held together
    for k, row in enumerate(rows):
        rows[k] = tuple(row)
    return tuple(rows)


def class_entries(group: Group, entries, what: str) -> tuple:
    """The one rule for a vector with one entry per subconjugacy class, in
    poset order: Burnside coefficients, mark vectors, Witt and ghost
    components.  Each entry is an integer or a polynomial over Z; a
    constant polynomial is stored as its integer."""
    entries = tuple(entries)
    poset = subconjugacy_poset(group)
    if len(entries) != len(poset):
        raise GwittError(f"expected {len(poset)} {what} in poset order "
                         f"{','.join(poset.labels())}, got {len(entries)}")
    out = []
    for c in entries:
        if isinstance(c, Poly):
            if c.is_constant():
                c = c.constant_value()
        elif not isinstance(c, int):
            raise GwittError(f"{what} must be integers or polynomials, got {c!r}")
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class BurnsideElement:
    """A virtual G-set: integer multiplicities of the transitive G-sets
    [G/H], one per subconjugacy class."""

    group: Group
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", class_entries(self.group, self.coeffs, "coefficients"))

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


def burnside_basis(group: Group, class_index: int) -> BurnsideElement:
    n = len(subconjugacy_poset(group))
    coeffs = [0] * n
    coeffs[class_index] = 1
    return BurnsideElement(group, tuple(coeffs))


def burnside_one(group: Group) -> BurnsideElement:
    # [G/G] is the multiplicative unit
    return burnside_basis(group, len(subconjugacy_poset(group)) - 1)


def burnside_of_gset(x: GSet) -> BurnsideElement:
    from .gsets import orbit_decompose  # here, so that burnside loads without gsets

    poset = subconjugacy_poset(x.group)
    coeffs = [0] * len(poset)
    for idx in orbit_decompose(x):
        coeffs[idx] += 1
    return BurnsideElement(x.group, tuple(coeffs))


def marks(b: BurnsideElement) -> tuple:
    """The fixed-point vector over the poset; a ring homomorphism."""
    return tuple(column_sums(b.coeffs, mark_columns(b.group)))


def _exact_div(value, n: int):
    if not isinstance(value, int):
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
        for k, m, e in column:
            c = coeffs[k]
            if not c:  # adding m * 0 to a Poly total would copy it
                continue
            total = total + m * (c ** e if powered else c)
        out.append(total)
    return out


def column_solve(vector, columns: MarkColumns, powered: bool = False) -> list:
    """The c with column_sums(c, columns, powered) == vector, by triangular
    solve from the top class down with exact division by the diagonal; an
    IntegralityError carries the failing class index in `where`."""
    diag, above = columns
    coeffs = [0] * len(diag)
    for h in range(len(diag) - 1, -1, -1):
        residue = vector[h]
        for k, m, e in above[h]:
            c = coeffs[k]
            residue = residue - m * (c ** e if powered else c)
        try:
            coeffs[h] = _exact_div(residue, diag[h])
        except IntegralityError:
            raise IntegralityError(f"not integral at class {h}", where=h) from None
    return coeffs


def solve_marks(group: Group, vector, what: str, powered: bool = False) -> list:
    """column_solve over the mark columns of G; an IntegralityError names
    the failing class by its label, as "{what} not integral at class L"."""
    try:
        return column_solve(vector, mark_columns(group), powered)
    except IntegralityError as exc:
        label = subconjugacy_poset(group).label(exc.where)
        raise IntegralityError(f"{what} not integral at class {label}", where=label) from None


def unmarks(group: Group, vector) -> BurnsideElement:
    """The unique preimage under marks, by exact triangular solve along the
    poset order; raises IntegralityError when the vector is not a mark
    vector of a virtual G-set."""
    vector = class_entries(group, vector, "mark vector entries")
    return BurnsideElement(group, solve_marks(group, vector, "mark vector"))


def burnside_mul(b1: BurnsideElement, b2: BurnsideElement) -> BurnsideElement:
    """The product of virtual G-sets, through the injective ring
    homomorphism marks: unmarks(marks(b1) * marks(b2)) componentwise."""
    b1._check(b2)
    product = tuple(x * y for x, y in zip(marks(b1), marks(b2)))
    return unmarks(b1.group, product)


def transferred_norms(group: Group, values) -> BurnsideElement:
    """The sum over the classes [K] of G of T_K^G N_e^K(x_K), for x_K in
    poset order.

    N_e^K(x) is the K-set Map(K, X) with |X| = x.  Let e_K(L) be the number
    of its functions whose stabilizer is exactly L, for L <= K.  Its orbits
    of stabilizer L number e_K(L) / |K:L|, and T_K^G sends [K/L] to [G/L],
    so [G/H] gets (1/|K|) * sum of |L| * e_K(L) over the L <= K in [H].

    All K are counted together by one Moebius inversion over G's subgroup
    lattice (P. Hall 1936).  A function fixed by L has some stabilizer
    M >= L, so the sum of e_K(M) over L <= M <= K is x_K^(K:L).  Hence

        Y(L) = sum over representatives K >= L of |G:K| * x_K^(K:L)
             = sum over M >= L of Z(M),  Z(M) = sum over K of |G:K| * e_K(M),

    and Z(L) = Y(L) - sum of Z(M) over M > L, found from the top subgroup
    down.  Then (1/|G|) * sum of |L| * Z(L) over the L in [H] is the sum
    over K of (1/|K|) * sum of |L| * e_K(L), the coefficient of [G/H]: one
    exact division per class.  Y reads each representative's down-set and
    the inversion each subgroup's down-set once; zero x_K and zero Z(M) are
    skipped.  The values are integers; anything else raises GwittError.  No
    table of marks is read.
    """
    poset = subconjugacy_poset(group)
    down, orders, class_of = poset.down, poset.orders, poset.class_of
    z = [0] * len(down)  # Y(L), then Z(L) once every M > L is subtracted
    for x, top in zip(values, poset.reps):
        if not isinstance(x, int):
            raise GwittError(f"transferred norms need integer values, got {x!r}")
        if x == 0:  # N_e^K(0) = 0
            continue
        order = orders[top]
        index = group.order // order
        for m in down[top]:
            z[m] += index * x ** (order // orders[m])
    weighted: dict[int, int] = {}  # |L| * Z(L) summed by G-class
    for m in range(len(down) - 1, -1, -1):
        exact = z[m]
        if exact:
            members = down[m]
            for sub in members[:-1]:  # the L < M
                z[sub] -= exact
            h = class_of[m]
            weighted[h] = weighted.get(h, 0) + orders[m] * exact
    total = [0] * len(poset)
    for h, s in weighted.items():
        if s:
            total[h] = _exact_div(s, group.order)
    return BurnsideElement(group, tuple(total))
