"""Finite groups as Cayley tables, their subgroups, and the subconjugacy poset."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain
from operator import itemgetter, or_

from .errors import GroupOrderError, GwittError

DEFAULT_MAX_ORDER = 64
MAX_PERM_POINTS = 64  # for group_from_generators and the DSL's perm[...]


class Group:
    """A finite group on element indices 0..order-1.

    Element 0 is always the identity; `mul_table[a][b]` is the product a*b.
    Construction refuses an order above `DEFAULT_MAX_ORDER`, as every
    constructor does, and validates identity, inverses and associativity, so
    every Group in circulation is genuinely a group.  Associativity is
    checked by Light's test over a greedy generating set S, in O(n^2 |S|)
    steps with |S| <= log2 n: (x s) y == x (s y) for every s in S and all
    x, y.  The elements a with (x a) y == x (a y) for all x, y contain the
    identity and are closed under the product, so they then include every
    element.
    """

    __slots__ = ("order", "mul_table", "inv_table", "name", "perm_rep", "_hash")

    def __init__(self, mul_table, name=None, perm_rep=None):
        table = tuple(tuple(row) for row in mul_table)
        n = len(table)
        _check_order(n)
        if n == 0:
            raise GwittError("a group has at least the identity element")
        if (any(len(row) != n for row in table)
                # ints only: 0.0 == 0 would pass the range test and index the table
                or set(map(type, chain.from_iterable(table))) != {int}
                or not set(range(n)).issuperset(chain.from_iterable(table))):
            raise GwittError("Cayley table is not square over the integers 0..order-1")
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise GwittError("element 0 is not a two-sided identity")
        inv = [row.index(0) if 0 in row else None for row in table]
        for a in range(n):
            if inv[a] is None or table[inv[a]][a] != 0:
                raise GwittError(f"element {a} has no two-sided inverse")
        for s in _greedy_generators(table):
            s_times = itemgetter(*table[s])  # row x -> (x(s y) for every y)
            for x, row in enumerate(table):
                if table[row[s]] != s_times(row):
                    y = next(y for y in range(n) if table[row[s]][y] != row[table[s][y]])
                    raise GwittError(f"associativity fails at ({x},{s},{y})")
        self.order = n
        self.mul_table = table
        self.inv_table = tuple(inv)
        self.name = name or f"G{n}"
        self.perm_rep = tuple(tuple(p) for p in perm_rep) if perm_rep is not None else None
        self._hash = None

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.mul_table == other.mul_table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.mul_table)
        return self._hash

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"


def _greedy_generators(table) -> list[int]:
    """A set S such that every element of the table is reached: the identity
    is reached, and so is r*s for every reached r and s in S.  The first
    element not yet reached joins S, until none is left.  Only a two-sided
    identity is assumed, so this runs before the table is known to be
    associative (unlike `subgroup_generated`, which needs a group).  On a
    group, S has at most log2 n elements and generates it."""
    reached = bytearray(len(table))
    reached[0] = 1
    closure, gens = [0], []
    for a in range(1, len(table)):
        if reached[a]:
            continue
        gens.append(a)
        for r in closure:
            row = table[r]
            for s in gens:
                x = row[s]
                if not reached[x]:
                    reached[x] = 1
                    closure.append(x)
    return gens


def group_from_generators(generators, n_points: int | None = None, name=None) -> Group:
    """Close a list of permutations under composition and build the Cayley table.

    Element order is the identity followed by the remaining permutations in
    lexicographic order, so the result depends only on the generated set.
    The table is read off the generators' right-multiplication images
    right_s[x] = index(x*s), |G| compositions per distinct non-identity
    generator s: from the identity column, column c*s is column c mapped
    through right_s, since a*(c*s) = (a*c)*s, filled in BFS order.
    """
    gens = [tuple(g) for g in generators]
    if n_points is None:
        n_points = len(gens[0]) if gens else 1
    # before the identity is built: 10**6 points would allocate 10**6 entries
    if type(n_points) is not int or n_points < 1:
        raise GwittError(f"n_points must be a positive integer, got {n_points!r}")
    if n_points > MAX_PERM_POINTS:
        raise GroupOrderError(f"{n_points} points exceed the cap of {MAX_PERM_POINTS}")
    identity = tuple(range(n_points))
    for g in gens:
        # ints only: (1, 0, 2.0) sorts equal to (0, 1, 2)
        if len(g) != n_points or any(type(v) is not int for v in g) or sorted(g) != list(identity):
            raise GwittError(f"{g} is not a permutation of 0..{n_points - 1}")
    # x*s is x o s, the tuple x[s[i]]; each distinct non-identity s once
    compose = [itemgetter(*g) for g in dict.fromkeys(gens) if g != identity]
    closure = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for times_s in compose:
                q = times_s(p)
                if q not in closure:
                    if len(closure) >= DEFAULT_MAX_ORDER:
                        raise GroupOrderError(f"generated order exceeds cap {DEFAULT_MAX_ORDER}")
                    closure.add(q)
                    new.append(q)
        frontier = new
    perms = [identity] + sorted(closure - {identity})
    index = {p: i for i, p in enumerate(perms)}
    rights = [[index[times_s(p)] for p in perms] for times_s in compose]
    columns = [None] * len(perms)
    columns[0] = range(len(perms))
    reached = [0]
    for c in reached:
        for right in rights:
            b = right[c]
            if columns[b] is None:
                columns[b] = list(map(right.__getitem__, columns[c]))
                reached.append(b)
    return Group(zip(*columns), name=name, perm_rep=perms)


def _check_order(order: int):
    # before any table is allocated: C(100000) would need 10^10 cells
    if order > DEFAULT_MAX_ORDER:
        raise GroupOrderError(f"group order {order} exceeds cap {DEFAULT_MAX_ORDER}")


def cyclic(n: int) -> Group:
    if n < 1:
        raise GwittError("cyclic group order must be positive")
    _check_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, name=f"C{n}")


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n; r^a s^b is element b*n + a, and
    r^a s^b * r^c s^d = r^(a + (-1)^b c) s^(b + d)."""
    if n < 1:
        raise GwittError("dihedral parameter must be positive")
    _check_order(2 * n)
    table = []
    for b in (0, 1):
        sign = -1 if b else 1
        for a in range(n):
            rotations = [(a + sign * c) % n for c in range(n)]
            reflections = [n + r for r in rotations]
            table.append(rotations + reflections if b == 0 else reflections + rotations)
    return Group(table, name=f"D{n}")


def symmetric(n: int) -> Group:
    if n < 1:
        raise GwittError("symmetric group needs at least one point")
    # n! against the cap before any generator is built: S(10^8) would need
    # permutations of 10^8 points
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > DEFAULT_MAX_ORDER:
            raise GroupOrderError(f"group order {n}! exceeds cap {DEFAULT_MAX_ORDER}")
    if n == 1:
        return group_from_generators([], n_points=1, name="S1")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_generators(gens, n_points=n, name=f"S{n}")


def direct_product(g1: Group, g2: Group, name: str | None = None) -> Group:
    """G1 x G2 with (a, b) at index a*|G2| + b."""
    _check_order(g1.order * g2.order)
    m = g2.order
    table = [
        [x * m + y for x in row1 for y in row2]
        for row1 in g1.mul_table for row2 in g2.mul_table
    ]
    return Group(table, name=name or f"{g1.name}x{g2.name}")


def klein_four() -> Group:
    g = direct_product(cyclic(2), cyclic(2), name="V4")
    return g


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted element indices inside a parent group.

    The constructor refuses elements that are not integers in 0..order-1
    and sets that miss the identity or are not closed under the product and
    inverse."""

    group: Group
    elements: tuple[int, ...]

    def __post_init__(self):
        n = self.group.order
        elems = tuple(self.elements)
        # ints only: -1 would wrap around in the table lookups
        if any(type(a) is not int or not 0 <= a < n for a in elems):
            raise GwittError(f"subgroup elements must be integers in 0..{n - 1}")
        elems = tuple(sorted(set(elems)))
        object.__setattr__(self, "elements", elems)
        eset = set(elems)
        if 0 not in eset:
            raise GwittError("subgroup must contain the identity")
        for a in elems:
            if self.group.inv_table[a] not in eset:
                raise GwittError("subgroup not closed under inverse")
            for b in elems:
                if self.group.mul_table[a][b] not in eset:
                    raise GwittError("subgroup not closed under multiplication")

    @classmethod
    def _enumerated(cls, group: Group, elements) -> Subgroup:
        """The subgroup on `elements` without the checks of `__post_init__`,
        for `all_subgroups` only.  Sound there: each set it builds is {e}, G
        or K = H u Hg u ... u Hg^(k-1), a subgroup by the argument in
        `all_subgroups`' docstring, and a union of disjoint cosets read off G's own table,
        so its elements are distinct indices in range."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "group", group)
        object.__setattr__(sub, "elements", tuple(sorted(elements)))
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_group(self) -> tuple[Group, tuple[int, ...]]:
        """This subgroup as a Group of its own, plus the element embedding;
        built (and validated) once per Subgroup object."""
        return self._own_group

    @cached_property
    def _own_group(self) -> tuple[Group, tuple[int, ...]]:
        emb = self.elements
        index = {g: i for i, g in enumerate(emb)}
        table = [[index[self.group.mul_table[a][b]] for b in emb] for a in emb]
        sub = Group(table, name=f"{self.group.name}|{','.join(map(str, emb))}")
        return sub, emb

    def __repr__(self):
        return f"Subgroup{self.elements}"


def subgroup_generated(group: Group, gens) -> Subgroup:
    """The subgroup generated by `gens`: the identity closed under right
    multiplication by each generator.  That set holds every product of
    generators, and in a finite group an inverse is a positive power."""
    mul = group.mul_table
    gens = list(gens)
    elements, mask = [0], 1
    for r in elements:
        row = mul[r]
        for s in gens:
            t = row[s]
            if not mask >> t & 1:
                elements.append(t)
                mask |= 1 << t
    return Subgroup(group, tuple(elements))


def _mask(elements) -> int:
    """The bitset of a set of element indices."""
    mask = 0
    for a in elements:
        mask |= 1 << a
    return mask


@cache
def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, sorted by (order, element tuple).

    Cyclic extension along normalizers (Neubüser; Pfeiffer, *Experiment.
    Math.* 6, 1997), from the trivial subgroup up.  For each new subgroup H
    with generators S, N_G(H) is computed as a bitset: the elements g with
    g^-1 s g in H for every s in S, that is the AND over s of the OR over y
    in H of conj_s[y], the bitset of the g with g^-1 s g = y (one row per
    generator s, built on first use; a generator central in G has none, as
    every g passes).  Only the right cosets Hg inside N_G(H) are walked.
    Hg is an element of N_G(H)/H; K = H u Hg u ... u Hg^(k-1) is a subgroup
    with H normal of index k, built with no closure, when k = |<g> : <g> n
    H| is prime.  The exponents i with g^i in H are the multiples of k, and
    k divides the order of g, so k is prime exactly when g^p lies in H for a
    prime p dividing the order of g, and then k = p: the pairs (p, g^p) are
    tabled once per group.  Both k and K depend only on the coset, so a
    coset that fails is skipped whole, and so is all of K once it is
    reached (every g in K \\ H generates K over H, as k is prime).  K's
    bitset is built first, and its element list only when the bitset is
    new.

    Completeness.  A solvable K > 1 has a normal subgroup H of prime index
    p, and H is solvable.  By induction H is found; for g in K \\ H, g
    normalizes H and g has order p modulo H, so <H, g> = K is found from
    the coset Hg, unless Hg lies in an extension K' of H found before it,
    and then K <= K' with |K':H| = p prime, so K = K'.  Hence every
    solvable subgroup is found.  Every group of order below 60 is solvable,
    and a proper subgroup has at most half the order of G, so under an
    order cap below 120 (`DEFAULT_MAX_ORDER`) only G itself can be missed
    (A5 is the one such group under the cap); it is added when it was not
    reached.  Raising the cap to 120 or more needs the perfect subgroups
    (A5 in S5; A5 and A6 in A6 and S6) seeded as well.
    """
    right = tuple(zip(*group.mul_table))  # right[g][x] = x*g
    bit = [1 << a for a in group.elements()]
    right_bits = [list(map(bit.__getitem__, col)) for col in right]  # bit of x*g
    prime_powers = _prime_powers(group)
    every = (1 << group.order) - 1
    conj_rows: dict[int, list[int] | None] = {}
    known = {1: [0]}
    frontier = [(1, [0], [])]
    while frontier:
        new = []
        for h_mask, h_elems, h_gens in frontier:
            normalizer = every
            for s in h_gens:
                if s not in conj_rows:
                    conj_rows[s] = _conjugators(group, s, bit)
                conj = conj_rows[s]
                if conj is not None:
                    normalizer &= reduce(or_, map(conj.__getitem__, h_elems))
            covered = h_mask
            while rest := normalizer & ~covered:
                g = (rest & -rest).bit_length() - 1
                for p, g_p in prime_powers[g]:
                    if h_mask >> g_p & 1:
                        break
                else:
                    # the bitset of Hg: its bits are distinct, so sum is union
                    covered |= sum(map(right_bits[g].__getitem__, h_elems))
                    continue
                times_g = right[g]
                mask, t = h_mask, g
                for _ in range(1, p):  # t = g^i, add Hg^i
                    mask += sum(map(right_bits[t].__getitem__, h_elems))
                    t = times_g[t]
                covered |= mask
                if mask in known:
                    continue
                elems, t = list(h_elems), g
                for _ in range(1, p):
                    elems += map(right[t].__getitem__, h_elems)
                    t = times_g[t]
                known[mask] = elems
                new.append((mask, elems, h_gens + [g]))
        frontier = new
    known.setdefault(every, list(group.elements()))
    return tuple(sorted(
        (Subgroup._enumerated(group, elems) for elems in known.values()),
        key=lambda s: (s.order, s.elements),
    ))


def _conjugators(group: Group, s: int, bit: list[int]) -> list[int] | None:
    """conj_s: conj_s[y] is the bitset of the g with g^-1 s g = y, so the g
    that conjugate s into H are the OR of conj_s over H.  None when s is
    central in G: every g then fixes s."""
    mul, inv = group.mul_table, group.inv_table
    s_times = mul[s]
    conj = [0] * group.order
    for g, g_bit in enumerate(bit):
        conj[mul[inv[g]][s_times[g]]] |= g_bit
    return None if conj[s] == (1 << group.order) - 1 else conj


def _prime_powers(group: Group) -> list[list[tuple[int, int]]]:
    """For each element g, the pairs (p, g^p) over the primes p dividing
    the order of g, read off the powers of g."""
    mul = group.mul_table
    table = []
    for g in group.elements():
        powers = [0, g]
        while powers[-1]:
            powers.append(mul[powers[-1]][g])
        rest, p, pairs = len(powers) - 1, 2, []
        while rest > 1:  # trial division: each p that divides rest is prime
            if rest % p == 0:
                pairs.append((p, powers[p]))
                while rest % p == 0:
                    rest //= p
            p += 1
        table.append(pairs)
    return table


def _down_sets(subgroups, masks: list[int]) -> tuple[tuple[int, ...], ...]:
    """The down-set of each subgroup, given with its bitset: the indices of
    its subgroups, ascending and ending with its own.  L <= K puts the
    largest element of L in K, so K's candidates are the subgroups before it
    keyed by an element of K; subgroups run by order, so K comes last."""
    keyed: list[list[int]] = [[] for _ in range(max(masks).bit_length())]
    down = []
    for t, (sub, mask) in enumerate(zip(subgroups, masks)):
        outside = ~mask
        below = [i for g in sub.elements for i in keyed[g] if not masks[i] & outside]
        below.sort()
        below.append(t)
        down.append(tuple(below))
        keyed[sub.elements[-1]].append(t)
    return tuple(down)


def _classify(group: Group, subgroups, position: dict[int, int]) -> list[list[int]]:
    """The conjugacy classes of the subgroups of G: orbits under conjugation
    by a generating set of G, in class order, each a list of subgroup indices
    headed by its least member, the class representative.  `position` maps
    each subgroup's bitset to its index."""
    mul, inv = group.mul_table, group.inv_table
    gens = _greedy_generators(mul)
    # a generator central in G fixes every subgroup
    conjugations = [
        tuple(mul[mul[g][a]][inv[g]] for a in group.elements())
        for g in gens if any(mul[g][x] != mul[x][g] for x in gens)
    ]
    # subgroups run in (order, elements) order, so the first member of an
    # orbit met is its least
    classified: set[int] = set()
    orbits = []
    for i in range(len(subgroups)):
        if i in classified:
            continue
        orbit = [i]
        classified.add(i)
        for m in orbit:
            elems = subgroups[m].elements
            for conj in conjugations:
                image = position[_mask(conj[a] for a in elems)]
                if image not in classified:
                    classified.add(image)
                    orbit.append(image)
        orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups with its canonical representative."""

    rep: Subgroup
    members: tuple[Subgroup, ...]
    label: str

    @property
    def order(self) -> int:
        return self.rep.order


class SubconjugacyPoset:
    """Conjugacy classes of subgroups ordered by subconjugacy, with the
    subgroup lattice of G they were read off.

    Classes are sorted by subgroup order, ties broken by the representative's
    element tuple; the first class is [e] and the last is [G].

    Subgroup i is `all_subgroups(G)[i]`: `down[i]` lists the indices of its
    subgroups, ascending and ending with i, `orders[i]` is its order and
    `class_of[i]` its class; `reps[c]` is the index of the representative of
    class c.  The order relation on the classes is not kept here: it is the
    nonzero pattern of the table of marks, `burnside.mark_columns`, which
    counts the containments of this lattice once.
    """

    def __init__(self, group: Group):
        self.group = group
        subs = all_subgroups(group)
        masks = [_mask(s.elements) for s in subs]
        self._position = {m: i for i, m in enumerate(masks)}
        self.orders = tuple(s.order for s in subs)
        self.down = _down_sets(subs, masks)
        orbits = _classify(group, subs, self._position)
        self.reps = tuple(orbit[0] for orbit in orbits)
        class_of = [0] * len(subs)
        for c, orbit in enumerate(orbits):
            for m in orbit:
                class_of[m] = c
        self.class_of = tuple(class_of)
        counters: dict[int, int] = {}
        built = []
        for orbit in orbits:
            rep = subs[orbit[0]]
            # conjugates share an order and subgroups run by (order, elements)
            members = tuple(subs[m] for m in sorted(orbit))
            idx = counters.get(rep.order, 0)
            counters[rep.order] = idx + 1
            letter, k = "", idx
            while k >= 0:
                letter = chr(ord("a") + k % 26) + letter
                k = k // 26 - 1
            built.append(SubgroupClass(rep, members, f"{rep.order}{letter}"))
        self.classes: tuple[SubgroupClass, ...] = tuple(built)

    def __len__(self) -> int:
        return len(self.classes)

    def class_index(self, sub: Subgroup) -> int:
        # a subgroup of another group may have an element set that is a
        # subgroup here too
        i = self._position.get(_mask(sub.elements)) if sub.group == self.group else None
        if i is None:
            raise GwittError(f"{sub} is not a subgroup of {self.group.name}")
        return self.class_of[i]

    def label(self, i: int) -> str:
        return self.classes[i].label

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)


@cache
def subconjugacy_poset(group: Group) -> SubconjugacyPoset:
    return SubconjugacyPoset(group)
