"""Finite groups as Cayley tables, their subgroups, and the subconjugacy poset."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .errors import GroupOrderError, GwittError

DEFAULT_MAX_ORDER = 64


class Group:
    """A finite group on element indices 0..order-1.

    Element 0 is always the identity; `mul_table[a][b]` is the product a*b.
    Construction validates associativity, identity and inverses, so every
    Group in circulation is genuinely a group.
    """

    __slots__ = ("order", "mul_table", "inv_table", "labels", "name", "perm_rep", "_hash")

    def __init__(self, mul_table, labels=None, name=None, perm_rep=None):
        table = tuple(tuple(row) for row in mul_table)
        n = len(table)
        if n == 0:
            raise GwittError("a group has at least the identity element")
        for row in table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise GwittError("Cayley table is not square over 0..order-1")
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise GwittError("element 0 is not a two-sided identity")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
            if inv[a] is None or table[inv[a]][a] != 0:
                raise GwittError(f"element {a} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise GwittError(f"associativity fails at ({a},{b},{c})")
        self.order = n
        self.mul_table = table
        self.inv_table = tuple(inv)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise GwittError("label count does not match order")
        self.name = name or f"G{n}"
        self.perm_rep = tuple(tuple(p) for p in perm_rep) if perm_rep is not None else None
        self._hash = None

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv_table[a]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul(self.mul(g, a), self.inv_table[g])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.mul_table == other.mul_table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.mul_table)
        return self._hash

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "mul": [v for row in self.mul_table for v in row],
            "labels": list(self.labels),
        }

    @staticmethod
    def from_json(data: dict) -> "Group":
        n = data["order"]
        flat = data["mul"]
        if len(flat) != n * n:
            raise GwittError("row-major mul table has wrong length")
        table = [flat[i * n:(i + 1) * n] for i in range(n)]
        return Group(table, labels=data.get("labels"))


def _perm_label(perm: tuple[int, ...]) -> str:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def group_from_generators(generators, n_points: int | None = None,
                          max_order: int = DEFAULT_MAX_ORDER, name=None) -> Group:
    """Close a list of permutations under composition and build the Cayley table.

    Element order is the identity followed by the remaining permutations in
    lexicographic order, so the result depends only on the generated set.
    """
    gens = [tuple(g) for g in generators]
    if n_points is None:
        n_points = len(gens[0]) if gens else 1
    for g in gens:
        if len(g) != n_points or sorted(g) != list(range(n_points)):
            raise GwittError(f"{g} is not a permutation of 0..{n_points - 1}")
    identity = tuple(range(n_points))
    closure = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(n_points))
                if q not in closure:
                    if len(closure) >= max_order:
                        raise GroupOrderError(f"generated order exceeds cap {max_order}")
                    closure.add(q)
                    new.append(q)
        frontier = new
    perms = [identity] + sorted(closure - {identity})
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n_points))] for b in perms]
        for a in perms
    ]
    labels = [_perm_label(p) for p in perms]
    return Group(table, labels=labels, name=name, perm_rep=perms)


def _check_order(order: int):
    # before any table is allocated: C(100000) would need 10^10 cells
    if order > DEFAULT_MAX_ORDER:
        raise GroupOrderError(f"group order {order} exceeds cap {DEFAULT_MAX_ORDER}")


def cyclic(n: int) -> Group:
    if n < 1:
        raise GwittError("cyclic group order must be positive")
    _check_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"r^{k}" if k > 1 else "r" for k in range(1, n)]
    return Group(table, labels=labels, name=f"C{n}")


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n; elements are pairs r^a s^b in (a, b) order."""
    if n < 1:
        raise GwittError("dihedral parameter must be positive")
    _check_order(2 * n)
    elems = [(a, b) for b in (0, 1) for a in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % n, b1 ^ b2)

    table = [[index[mul(x, y)] for y in elems] for x in elems]

    def label(e):
        a, b = e
        rot = "e" if a == 0 else ("r" if a == 1 else f"r^{a}")
        if b == 0:
            return rot
        return "s" if a == 0 else f"{rot}*s"

    return Group(table, labels=[label(e) for e in elems], name=f"D{n}")


def symmetric(n: int, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    if n < 1:
        raise GwittError("symmetric group needs at least one point")
    # n! against the cap before any generator is built: S(10^8) would need
    # permutations of 10^8 points
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > max_order:
            raise GroupOrderError(f"group order {n}! exceeds cap {max_order}")
    if n == 1:
        return group_from_generators([], n_points=1, name="S1")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_generators(gens, n_points=n, max_order=max_order, name=f"S{n}")


def direct_product(g1: Group, g2: Group, name: str | None = None) -> Group:
    elems = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[(g1.mul(a1, a2), g2.mul(b1, b2))] for (a2, b2) in elems]
        for (a1, b1) in elems
    ]
    labels = [f"({g1.labels[a]},{g2.labels[b]})" for (a, b) in elems]
    return Group(table, labels=labels, name=name or f"{g1.name}x{g2.name}")


def klein_four() -> Group:
    g = direct_product(cyclic(2), cyclic(2), name="V4")
    return g


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted element indices inside a parent group."""

    group: Group
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
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

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, other: "Subgroup") -> bool:
        return set(other.elements) <= set(self.elements)

    def conjugate(self, g: int) -> "Subgroup":
        grp = self.group
        return Subgroup(grp, tuple(grp.conj(g, a) for a in self.elements))

    def as_group(self) -> tuple[Group, tuple[int, ...]]:
        """This subgroup as a Group of its own, plus the element embedding;
        built (and validated) once per Subgroup object."""
        return self._own_group

    @cached_property
    def _own_group(self) -> tuple[Group, tuple[int, ...]]:
        emb = self.elements
        index = {g: i for i, g in enumerate(emb)}
        table = [[index[self.group.mul_table[a][b]] for b in emb] for a in emb]
        labels = [self.group.labels[g] for g in emb]
        sub = Group(table, labels=labels, name=f"{self.group.name}|{','.join(map(str, emb))}")
        return sub, emb

    def __repr__(self):
        return f"Subgroup{self.elements}"


def subgroup_generated(group: Group, gens) -> Subgroup:
    closure = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                for b in (group.mul_table[a][g], group.mul_table[g][a]):
                    if b not in closure:
                        closure.add(b)
                        new.append(b)
        frontier = new
    return Subgroup(group, tuple(sorted(closure)))


def trivial_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, (0,))


def _mask(elements) -> int:
    """The bitset of a set of element indices."""
    mask = 0
    for a in elements:
        mask |= 1 << a
    return mask


def _extend(group: Group, elements: list[int], mask: int, gens) -> tuple[list[int], int]:
    """Elements and bitset of the subgroup generated by the subgroup H (given
    by `elements` and `mask`) together with `gens`, which must include a
    generating set of H.

    Dimino's coset closure: right cosets H·t are added until every coset
    representative times every generator lands in their union, which is then
    closed under multiplication, hence a subgroup.
    """
    mul = group.mul_table
    elements = list(elements)
    base = tuple(elements)
    reps = [0]
    for r in reps:
        row = mul[r]
        for s in gens:
            t = row[s]
            if not mask >> t & 1:
                reps.append(t)
                for h in base:
                    x = mul[h][t]
                    elements.append(x)
                    mask |= 1 << x
    return elements, mask


@cache
def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, sorted by (order, element tuple).

    Cyclic-extension closure: all cyclic subgroups first, then joins with a
    cyclic subgroup until a fixpoint.  Each subgroup carries the few
    generators it was built from, so a join is a coset closure over those
    generators plus one, and subgroups are compared as bitsets.
    """
    mul = group.mul_table
    cyclics: dict[int, tuple[list[int], list[int]]] = {}
    for a in group.elements():
        powers, x = [0], a
        while x:
            powers.append(x)
            x = mul[x][a]
        cyclics.setdefault(_mask(powers), (powers, [a] if a else []))
    known = dict(cyclics)
    frontier = list(cyclics.items())
    while frontier:
        new = []
        for h_mask, (h_elems, h_gens) in frontier:
            for c_mask, (_, c_gens) in cyclics.items():
                if c_mask & ~h_mask == 0:
                    continue
                gens = h_gens + c_gens
                elems, mask = _extend(group, h_elems, h_mask, gens)
                if mask not in known:
                    known[mask] = (elems, gens)
                    new.append((mask, known[mask]))
        frontier = new
    return tuple(sorted(
        (Subgroup(group, tuple(elems)) for elems, _ in known.values()),
        key=lambda s: (s.order, s.elements),
    ))


def _generating_set(group: Group, elements) -> list[int]:
    """A generating set of at most log2 |K| elements of the subgroup K of
    `group` with the given elements, chosen greedily."""
    gens: list[int] = []
    closure, mask = [0], 1
    for a in elements:
        if not mask >> a & 1:
            gens.append(a)
            closure, mask = _extend(group, closure, mask, gens)
    return gens


class ClassCensus(NamedTuple):
    """The conjugacy classes of the subgroups of one K <= G and how they lie
    in each other, read off G's subgroup bitsets.

    Classes run in the (order, elements) order of their representatives, so
    they match the classes of K's own subconjugacy poset.  `reps[c]` is the
    class-c representative as an index into `all_subgroups(G)`, `orders[c]`
    its order, `sizes[c]` its number of K-conjugates, and `above[h]` the
    flat list k1, n1, k2, n2, ... of the classes k > h with
    n = #{L' ~_K L_k : L_h <= L'} > 0.
    """

    reps: tuple[int, ...]
    orders: tuple[int, ...]
    sizes: tuple[int, ...]
    above: tuple[tuple[int, ...], ...]


class _Lattice:
    """The subgroups of G as bitsets, each with its down-set (the indices of
    its subgroups, ascending), and the conjugation tables needed so far;
    built with G's poset and dropped once the subgroup censuses are read
    off it."""

    def __init__(self, group: Group):
        self.group = group
        self.subgroups = all_subgroups(group)
        elements = [s.elements for s in self.subgroups]
        masks = [_mask(e) for e in elements]
        self.elements = elements
        self.position = {m: i for i, m in enumerate(masks)}
        # subgroups run by order, so a proper subgroup of L comes before the
        # first subgroup of L's order
        first: dict[int, int] = {}
        self.down = []
        for t, mask in enumerate(masks):
            outside = ~mask
            start = first.setdefault(len(elements[t]), t)
            below = [i for i in range(start) if not masks[i] & outside]
            below.append(t)
            self.down.append(below)
        self._conj: dict[int, tuple[int, ...]] = {}

    def conjugations(self, elements) -> list[tuple[int, ...]]:
        """The tables a -> g a g^-1 for a greedy generating set of the
        subgroup with these elements, leaving out generators central in it
        (they fix every subgroup)."""
        mul, inv = self.group.mul_table, self.group.inv_table
        gens = _generating_set(self.group, elements)
        tables = []
        for g in gens:
            if all(mul[g][x] == mul[x][g] for x in gens):
                continue
            if g not in self._conj:
                self._conj[g] = tuple(mul[mul[g][a]][inv[g]] for a in self.group.elements())
            tables.append(self._conj[g])
        return tables

    def classify(self, top: int) -> tuple[list[list[int]], ClassCensus]:
        """The conjugacy classes of the subgroups of the subgroup K with
        index `top`: orbits under conjugation by a generating set of K.

        Returns the orbits in class order, each a list of subgroup indices
        headed by its least member, the class representative, and K's
        census.
        """
        elements, position, down = self.elements, self.position, self.down
        conjugations = self.conjugations(elements[top])
        # down-sets ascend in (order, elements) order, so the first member
        # of an orbit met is its least
        classified: set[int] = set()
        orbits = []
        for i in down[top]:
            if i in classified:
                continue
            orbit = [i]
            classified.add(i)
            for m in orbit:
                elems = elements[m]
                for conj in conjugations:
                    image = position[_mask(conj[a] for a in elems)]
                    if image not in classified:
                        classified.add(image)
                        orbit.append(image)
            orbits.append(orbit)
        class_of_rep = {orbit[0]: c for c, orbit in enumerate(orbits)}
        above: list[list[int]] = [[] for _ in orbits]
        for k, orbit in enumerate(orbits):
            counts: dict[int, int] = {}
            for m in orbit:
                for i in down[m]:
                    h = class_of_rep.get(i)
                    if h is not None:
                        counts[h] = counts.get(h, 0) + 1
            del counts[k]  # of its own class, L_k lies in itself only
            for h, n in counts.items():
                above[h] += (k, n)
        census = ClassCensus(
            reps=tuple(orbit[0] for orbit in orbits),
            orders=tuple(len(elements[orbit[0]]) for orbit in orbits),
            sizes=tuple(map(len, orbits)),
            above=tuple(map(tuple, above)),
        )
        return orbits, census


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
    """Conjugacy classes of subgroups ordered by subconjugacy.

    Classes are sorted by subgroup order, ties broken by the representative's
    element tuple; the first class is [e] and the last is [G].

    `census` is the `ClassCensus` of G itself.  Its containment counts are
    the one source of the order relation (`leq`) and of the table of marks.
    The lattice of the pass is kept until `subgroup_censuses` reads the
    censuses of the subgroups off it and drops it.
    """

    def __init__(self, group: Group):
        self.group = group
        lattice = _Lattice(group)
        subs = lattice.subgroups
        orbits, self.census = lattice.classify(len(subs) - 1)
        counters: dict[int, int] = {}
        built = []
        for orbit in orbits:
            rep = subs[orbit[0]]
            members = tuple(sorted((subs[m] for m in orbit), key=lambda s: s.elements))
            idx = counters.get(rep.order, 0)
            counters[rep.order] = idx + 1
            letter = ""
            k = idx
            while True:
                letter = chr(ord("a") + k % 26) + letter
                k = k // 26 - 1
                if k < 0:
                    break
            built.append(SubgroupClass(rep, members, f"{rep.order}{letter}"))
        self.classes: tuple[SubgroupClass, ...] = tuple(built)
        self._index: dict[tuple[int, ...], int] = {}
        for i, cls in enumerate(self.classes):
            for member in cls.members:
                self._index[member.elements] = i
        self._lattice: _Lattice | None = lattice

    def __len__(self) -> int:
        return len(self.classes)

    def class_index(self, sub: Subgroup) -> int:
        try:
            return self._index[sub.elements]
        except KeyError:
            raise GwittError(f"{sub} is not a subgroup of {self.group.name}") from None

    def leq(self, i: int, j: int) -> bool:
        """[H_i] <= [H_j]: H_i is contained in some conjugate of H_j."""
        return i == j or j in self.census.above[i][::2]

    def label(self, i: int) -> str:
        return self.classes[i].label

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)


@cache
def subconjugacy_poset(group: Group) -> SubconjugacyPoset:
    return SubconjugacyPoset(group)


def subgroup_censuses(group: Group):
    """For each class [K] of G in poset order, the G-class of every K-class
    and the `ClassCensus` of K, read off G's lattice: the subgroups of K are
    the G-subgroups whose bitset lies inside K's, and no subgroup of G is
    built as a group of its own.  The pass runs on the lattice that built
    G's poset, and its down-sets are dropped when the generator ends."""
    poset = subconjugacy_poset(group)
    lattice, poset._lattice = poset._lattice or _Lattice(group), None
    class_of = [poset._index[e] for e in lattice.elements]
    for cls in poset.classes[:-1]:
        _, census = lattice.classify(lattice.position[_mask(cls.rep.elements)])
        yield tuple(class_of[r] for r in census.reps), census
    yield tuple(range(len(poset))), poset.census


def subgroup_index(k: Subgroup, h: Subgroup) -> int:
    """(K:H), the index of H in a conjugate of K containing it."""
    if k.group != h.group:
        raise GwittError("subgroups of different groups")
    group = k.group
    hset = set(h.elements)
    if not any(hset <= set(k.conjugate(g).elements) for g in group.elements()):
        raise GwittError("H is not subconjugate to K")
    return k.order // h.order
