"""Finite G-sets, equivariant maps, pullbacks, dependent products and
exponential diagrams."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache

from .errors import EquivarianceError, GwittError
from .groups import Group, Subgroup, subconjugacy_poset


# The most points a product, pullback or dependent product may have, counted
# before any table is built: these sizes multiply, so a short input such as a
# product of three copies of C(64)/<> would otherwise allocate without bound.
MAX_POINTS = 10_000


def _check_points(construction: str, points: int) -> None:
    if points > MAX_POINTS:
        raise GwittError(f"the {construction} would have more than {MAX_POINTS} points")


class GSet:
    """A finite left G-set: points 0..size-1 with an action table.

    `act_table[g][x]` is g•x.  The empty G-set (size 0) is valid and is the
    initial object.
    """

    __slots__ = ("group", "size", "act_table", "_hash", "_orbit_cache", "_stabilizer_cache")

    def __init__(self, group: Group, act_table, validate: bool = True):
        self.group = group
        table = tuple(map(tuple, act_table))
        if len(table) != group.order:
            raise GwittError("action table needs one row per group element")
        self.size = len(table[0]) if table else 0
        for row in table:
            if len(row) != self.size:
                raise GwittError("ragged action table")
        self.act_table = table
        if validate:
            n = self.size
            for x in range(n):
                if table[0][x] != x:
                    raise EquivarianceError("identity must act trivially")
            for g in group.elements():
                for h in group.elements():
                    gh = group.mul(g, h)
                    for x in range(n):
                        if table[g][table[h][x]] != table[gh][x]:
                            raise EquivarianceError(
                                f"action not compatible with multiplication at ({g},{h},{x})"
                            )
        self._hash = None
        self._orbit_cache = None
        self._stabilizer_cache = None

    def points(self) -> range:
        return range(self.size)

    def stabilizers(self) -> tuple[frozenset[int], ...]:
        """The group elements fixing each point, built once in one pass over
        the action table."""
        if self._stabilizer_cache is None:
            fixed: list[list[int]] = [[] for _ in self.points()]
            for g, row in enumerate(self.act_table):
                for x, gx in enumerate(row):
                    if gx == x:
                        fixed[x].append(g)
            self._stabilizer_cache = tuple(map(frozenset, fixed))
        return self._stabilizer_cache

    def stabilizer(self, x: int) -> Subgroup:
        return Subgroup(self.group, tuple(self.stabilizers()[x]))

    def orbits(self) -> tuple[tuple[tuple[int, ...], dict[int, int]], ...]:
        """Orbits as (sorted points, transporter); transporter[u] maps rep to u.

        The representative of each orbit is its minimal point, carried by the
        identity; the orbit of x is {g•x : g in G}, so one pass over the rows
        of the action table finds it.
        """
        if self._orbit_cache is not None:
            return self._orbit_cache
        seen = [False] * self.size
        out = []
        for x in self.points():
            if seen[x]:
                continue
            transporter: dict[int, int] = {}
            for g, row in enumerate(self.act_table):
                transporter.setdefault(row[x], g)
            for u in transporter:
                seen[u] = True
            out.append((tuple(sorted(transporter)), transporter))
        self._orbit_cache = tuple(out)
        return self._orbit_cache

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self.act_table == other.act_table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.act_table))
        return self._hash

    def __repr__(self):
        return f"GSet({self.group.name}, size={self.size})"


class GMap:
    """An equivariant map between two G-sets over the same group."""

    __slots__ = ("source", "target", "images", "_fiber_cache")

    def __init__(self, source: GSet, target: GSet, images, validate: bool = True):
        self.source = source
        self.target = target
        self.images = tuple(images)
        if source.group != target.group:
            raise GwittError("source and target live over different groups")
        if len(self.images) != source.size:
            raise GwittError("one image per source point required")
        # unvalidated maps come from the library's own constructions, whose
        # images are in range by construction
        if validate:
            if any(not (0 <= v < target.size) for v in self.images):
                raise GwittError("image out of range")
            for g in source.group.elements():
                for x in source.points():
                    if self.images[source.act_table[g][x]] != target.act_table[g][self.images[x]]:
                        raise EquivarianceError(f"map not equivariant at (g={g}, x={x})")
        self._fiber_cache = None

    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """The ascending fiber over each target point, built once in one pass
        over the images."""
        if self._fiber_cache is None:
            fibers: list[list[int]] = [[] for _ in self.target.points()]
            for x, y in enumerate(self.images):
                fibers[y].append(x)
            self._fiber_cache = tuple(map(tuple, fibers))
        return self._fiber_cache

    def fiber(self, y: int) -> tuple[int, ...]:
        return self.fibers()[y]

    def __eq__(self, other):
        if not isinstance(other, GMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return f"GMap({self.source.size}->{self.target.size}, {self.images})"


def identity_map(x: GSet) -> GMap:
    return GMap(x, x, tuple(x.points()), validate=False)


def compose_maps(g: GMap, f: GMap) -> GMap:
    """g after f."""
    if f.target != g.source:
        raise GwittError("maps not composable")
    return GMap(f.source, g.target, tuple(g.images[v] for v in f.images), validate=False)


# -- constructions ----------------------------------------------------------


def empty_gset(group: Group) -> GSet:
    return GSet(group, [[] for _ in group.elements()], validate=False)


def trivial_gset(group: Group, n: int) -> GSet:
    return GSet(group, [list(range(n)) for _ in group.elements()], validate=False)


def point_gset(group: Group) -> GSet:
    return trivial_gset(group, 1)


def to_point(x: GSet) -> GMap:
    """The map from x to the one-point G-set."""
    return GMap(x, point_gset(x.group), (0,) * x.size, validate=False)


def coset_space(group: Group, sub: Subgroup) -> GSet:
    """The transitive G-set G/H; cosets are ordered by their least element."""
    if sub.group != group:
        raise GwittError("subgroup belongs to a different group")
    coset_of = {}
    cosets = []
    for g in group.elements():
        if g in coset_of:
            continue
        coset = tuple(sorted(group.mul(g, h) for h in sub.elements))
        idx = len(cosets)
        cosets.append(coset)
        for member in coset:
            coset_of[member] = idx
    table = [
        [coset_of[group.mul(g, cosets[i][0])] for i in range(len(cosets))]
        for g in group.elements()
    ]
    return GSet(group, table, validate=False)


def regular_gset(group: Group) -> GSet:
    return coset_space(group, Subgroup(group, (0,)))


def natural_gset(group: Group) -> GSet:
    """The defining action of a permutation-built group on its points."""
    if group.perm_rep is None:
        raise GwittError("group carries no permutation representation")
    return GSet(group, [list(p) for p in group.perm_rep], validate=False)


def disjoint_union(parts: list[GSet]) -> tuple[GSet, list[GMap]]:
    if not parts:
        raise GwittError("disjoint union of no parts needs an ambient group")
    group = parts[0].group
    for p in parts:
        if p.group != group:
            raise GwittError("disjoint union across different groups")
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.size
    table = []
    for g in group.elements():
        row = []
        for p, off in zip(parts, offsets):
            row.extend(off + v for v in p.act_table[g])
        table.append(row)
    whole = GSet(group, table, validate=False)
    injections = [
        GMap(p, whole, tuple(off + x for x in p.points()), validate=False)
        for p, off in zip(parts, offsets)
    ]
    return whole, injections


def product(x: GSet, y: GSet) -> tuple[GSet, GMap, GMap]:
    """X × Y as the pullback over the point; (i, j) has index i·|Y| + j."""
    if x.group != y.group:
        raise GwittError("product across different groups")
    _check_points("product", x.size * y.size)
    pb = pullback(to_point(y), to_point(x))
    return pb.gset, pb.to_x, pb.to_a


def induced_gset(group: Group, sub: Subgroup, fiber: GSet) -> tuple[GSet, GMap]:
    """Induce an H-set up to G along H <= G; returns it with its map to G/H."""
    sub_group, embedding = sub.as_group()
    if fiber.group != sub_group:
        raise GwittError("fiber must be a set over the subgroup")
    base = coset_space(group, sub)
    # the coset through g is g•(coset of H itself), which has index 0; its
    # representative is its least element
    coset_of = [row[0] for row in base.act_table]
    reps = [0] * base.size
    for g in reversed(group.elements()):
        reps[coset_of[g]] = g
    local = {g: k for k, g in enumerate(embedding)}
    n = base.size * fiber.size
    table = []
    for g in group.elements():
        row = [0] * n
        for i in base.points():
            t = group.mul(g, reps[i])
            i2 = coset_of[t]
            s = group.mul(group.inverse(reps[i2]), t)
            k = local[s]
            for j in fiber.points():
                row[i * fiber.size + j] = i2 * fiber.size + fiber.act_table[k][j]
        table.append(row)
    total = GSet(group, table, validate=False)
    proj = GMap(total, base, tuple(i // fiber.size for i in total.points()), validate=False)
    return total, proj


# -- orbit decomposition ---------------------------------------------------


def orbit_decompose(x: GSet) -> tuple[int, ...]:
    """Sorted multiset of poset class indices, one per orbit (stabilizer class)."""
    poset = subconjugacy_poset(x.group)
    classes = []
    for points, _ in x.orbits():
        classes.append(poset.class_index(x.stabilizer(points[0])))
    return tuple(sorted(classes))


@cache
def _class_coset_spaces(group: Group) -> tuple[GSet, ...]:
    """G/H for the representative H of each class of the subconjugacy
    poset, in poset order; built once per group."""
    return tuple(coset_space(group, c.rep) for c in subconjugacy_poset(group).classes)


def reassemble(group: Group, class_indices) -> GSet:
    """The G-set with one orbit G/H per class index, in the given order: the
    coset space itself for one index, their disjoint union for several and
    the empty G-set for none."""
    spaces = _class_coset_spaces(group)
    parts = [spaces[i] for i in class_indices]
    if len(parts) == 1:
        return parts[0]
    return disjoint_union(parts)[0] if parts else empty_gset(group)


# -- map enumeration and isomorphism classes ---------------------------------


def _extend_images(a: GSet, x: GSet, targets) -> GMap:
    """The equivariant map a -> x that sends the representative of the k-th
    orbit of a to targets[k]."""
    images = [0] * a.size
    for (_, transporter), target in zip(a.orbits(), targets):
        for u, g in transporter.items():
            images[u] = x.act_table[g][target]
    return GMap(a, x, tuple(images), validate=False)


def equivariant_maps(a: GSet, x: GSet):
    """Yield every equivariant map a -> x, in ascending order of images."""
    a_stabs, x_stabs = a.stabilizers(), x.stabilizers()
    candidate_lists = []
    for points, _ in a.orbits():
        stab = a_stabs[points[0]]
        cands = [p for p in x.points() if stab <= x_stabs[p]]
        if not cands:
            return
        candidate_lists.append(cands)
    for combo in itertools.product(*candidate_lists):
        yield _extend_images(a, x, combo)


def iso_class_over(x: GSet, labels) -> Counter:
    """The multiset of (label, stabilizer) over the points of x, for an
    equivariant labelling `labels` (one hashable label per point) of x in
    some G-set L.  Two G-sets labelled in L are isomorphic over L iff these
    multisets agree.

    An isomorphism over L keeps labels and stabilizers, so isomorphic
    labelled G-sets have equal multisets.  Conversely, x is the disjoint
    union of the G ×_{G_l} x_l over representatives l of the label orbits,
    where x_l, the points labelled l, is a G_l-set.  In x_l the points with
    stabilizer exactly H number (orbits of type [H]) × |N_{G_l}(H):H|, so
    equal multisets give a G_l-isomorphism α_l between the points labelled
    l for every l, and these extend by g•u ↦ g•α_l(u) to an isomorphism
    over L."""
    return Counter(zip(labels, x.stabilizers()))


# -- pullback, dependent product, exponential diagram ------------------------


@dataclass(frozen=True)
class Pullback:
    """X ×_Y A for f: A -> Y, g: X -> Y; points are (x, a) pairs with g(x)=f(a)."""

    gset: GSet
    to_x: GMap
    to_a: GMap
    points: tuple[tuple[int, int], ...]


def _places(fibers) -> list[int]:
    """The position of each source point in its ascending fiber."""
    place = [0] * sum(map(len, fibers))
    for fiber in fibers:
        for k, u in enumerate(fiber):
            place[u] = k
    return place


def pullback(f: GMap, g: GMap) -> Pullback:
    if f.target != g.target:
        raise GwittError("pullback needs a common target")
    x, a = g.source, f.source
    f_fibers = f.fibers()
    _check_points("pullback", sum([len(xs) * len(ys) for xs, ys in zip(g.fibers(), f_fibers)]))
    # the points over i come in fiber order, so (i, j) has index start[i] + place[j]
    pts, start = [], []
    for i, y in enumerate(g.images):
        start.append(len(pts))
        pts.extend([(i, j) for j in f_fibers[y]])
    place = _places(f_fibers)
    table = [[start[x_row[i]] + place[a_row[j]] for i, j in pts]
             for x_row, a_row in zip(x.act_table, a.act_table)]
    pb = GSet(x.group, table, validate=False)
    to_x = GMap(pb, x, [i for i, _ in pts], validate=False)
    to_a = GMap(pb, a, [j for _, j in pts], validate=False)
    return Pullback(pb, to_x, to_a, tuple(pts))


@dataclass(frozen=True)
class DependentProduct:
    """Π_f A -> Y for p: A -> X, f: X -> Y; points over y are sections of p
    on the fiber f^-1(y), stored as tuples aligned with f.fibers()[y]."""

    gset: GSet
    to_y: GMap
    sections: tuple[tuple[int, tuple[int, ...]], ...]


def dependent_product(p: GMap, f: GMap) -> DependentProduct:
    if p.target != f.source:
        raise GwittError("dependent product needs p: A -> X and f: X -> Y")
    a, x, y = p.source, p.target, f.target
    f_fibers, p_fibers = f.fibers(), p.fibers()
    sizes = [math.prod([len(p_fibers[xx]) for xx in xs]) for xs in f_fibers]
    _check_points("dependent product", sum(sizes))
    # itertools.product yields the sections over each y in ascending order, so
    # a section s over y has the mixed-radix index
    # offset[y] + sum over x in the fiber of y of place[s(x)] * stride[x]
    sections = tuple((yy, combo) for yy, xs in enumerate(f_fibers)
                     for combo in itertools.product(*[p_fibers[xx] for xx in xs]))
    offset = list(itertools.accumulate(sizes, initial=0))
    stride = [0] * x.size
    for xs in f_fibers:
        step = 1
        for xx in reversed(xs):
            stride[xx] = step
            step *= len(p_fibers[xx])
    place = _places(p_fibers)
    # a point x with one value in its p-fiber adds place 0 to every index
    spread = [(yy, [xx for xx in xs if len(p_fibers[xx]) > 1])
              for yy, xs in enumerate(f_fibers) if sizes[yy]]
    table = []
    for x_row, a_row, y_row in zip(x.act_table, a.act_table, y.act_table):
        # g sends the section s over y to the one over g•y whose value at g•x
        # is g•s(x); the indices of the images of all sections over y are
        # summed up fiber point by fiber point, in the order of `sections`
        row = []
        for yy, xs in spread:
            indices = [offset[y_row[yy]]]
            for xx in xs:
                step = stride[x_row[xx]]
                indices = [i + place[a_row[u]] * step for i in indices for u in p_fibers[xx]]
            row += indices
        table.append(row)
    pi = GSet(x.group, table, validate=False)
    to_y = GMap(pi, y, [yy for yy, _ in sections], validate=False)
    return DependentProduct(pi, to_y, sections)


@dataclass(frozen=True)
class ExponentialDiagram:
    """The exponential diagram of p: A -> X and f: X -> Y.

    W = X ×_Y Π_f A is e.source and Π_f A is pi_p.source; e evaluates a
    section at a point, f_prime projects W to Π_f A and pi_p is the structure
    map of the dependent product.  The square (p∘e, f, f_prime, pi_p) is a
    pullback and the whole rectangle commutes.
    """

    e: GMap
    f_prime: GMap
    pi_p: GMap


def exponential_diagram(p: GMap, f: GMap) -> ExponentialDiagram:
    dp = dependent_product(p, f)
    pb = pullback(dp.to_y, f)  # W = X ×_Y Π, points (x, section)
    # e(x, s) = s(x), read at the place of x in its f-fiber
    place = _places(f.fibers())
    e = GMap(pb.gset, p.source, [dp.sections[si][1][place[xx]] for xx, si in pb.points],
             validate=False)
    return ExponentialDiagram(e=e, f_prime=pb.to_a, pi_p=dp.to_y)
