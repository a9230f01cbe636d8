"""Generic Tambara-functor instances and a relation checker driven by the
generator presentation: functoriality of restriction/transfer/norm, their
ring-map properties, both base-change squares, and the exponential-diagram
relation."""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

from .errors import GwittError
from .groups import Group, subconjugacy_poset
from .gsets import (
    GMap,
    GSet,
    compose_maps,
    dependent_product,
    disjoint_union,
    empty_gset,
    equivariant_maps,
    exponential_diagram,
    identity_map,
    iso_class_over,
    pullback,
    reassemble,
)


class InvariantRingInstance:
    """Levels are equivariant functions X -> Map(S, Z) for a fixed base
    G-set S, with h(g•x)(s) = h(x)(g^-1•s); the pointwise ring structure.

    A value at level X is a |X| x |S| integer matrix, rows indexed by X.
    """

    name = "invariant"

    def __init__(self, group: Group, base: GSet):
        if base.group != group:
            raise GwittError("base G-set lives over a different group")
        self.group = group
        self.base = base

    def zero(self, x: GSet):
        return tuple((0,) * self.base.size for _ in x.points())

    def one(self, x: GSet):
        return tuple((1,) * self.base.size for _ in x.points())

    def add(self, x: GSet, u, v):
        return tuple(
            tuple(a + b for a, b in zip(ru, rv)) for ru, rv in zip(u, v)
        )

    def mul(self, x: GSet, u, v):
        return tuple(
            tuple(a * b for a, b in zip(ru, rv)) for ru, rv in zip(u, v)
        )

    def eq(self, x: GSet, u, v) -> bool:
        return u == v

    def restrict(self, f: GMap, v):
        return tuple([v[y] for y in f.images])

    def _fold_fibers(self, f: GMap, v, op, unit: int):
        """Row y is the pointwise `op` of the rows over the fiber of f at y,
        a row of `unit` (the identity of `op`) over an empty fiber."""
        empty = (unit,) * self.base.size
        out = []
        for fiber in f.fibers():
            if not fiber:
                out.append(empty)
                continue
            row = v[fiber[0]]
            for x in fiber[1:]:
                row = tuple(map(op, row, v[x]))
            out.append(row)
        return tuple(out)

    def transfer(self, f: GMap, v):
        return self._fold_fibers(f, v, operator.add, 0)

    def norm(self, f: GMap, v):
        return self._fold_fibers(f, v, operator.mul, 1)

    def _stabilizer_orbits(self, x: GSet, point: int) -> list[set[int]]:
        """The orbits of the stabilizer of `point` in X on the base, in the
        order of their least base point: the orbit of j is {g•j : g in stab}."""
        stab = x.stabilizers()[point]
        orbits, seen = [], set()
        for j in self.base.points():
            if j not in seen:
                orbit = {self.base.act_table[g][j] for g in stab}
                seen |= orbit
                orbits.append(orbit)
        return orbits

    def sampler(self, x: GSet) -> Callable[[random.Random, int], list]:
        act, ginv, width = self.base.act_table, self.group.inverse, self.base.size
        # per orbit of x: the stabilizer orbits of its representative on the
        # base, and for each point u = g•rep the base permutation of g^-1
        parts = [(self._stabilizer_orbits(x, points[0]),
                  [(u, act[ginv(g)]) for u, g in transporter.items()])
                 for points, transporter in x.orbits()]

        def draw(rng: random.Random, count: int) -> list:
            out = []
            for _ in range(count):
                rows = [()] * x.size
                for orbits, moves in parts:
                    # constant on stabilizer orbits of the base: its transports are equivariant
                    rep_row = [0] * width
                    for orbit in orbits:
                        val = rng.randint(-3, 3)
                        for w in orbit:
                            rep_row[w] = val
                    for u, perm in moves:
                        rows[u] = tuple([rep_row[k] for k in perm])
                out.append(tuple(rows))
            return out
        return draw

    def describe(self, v) -> str:
        return str([list(r) for r in v])


class BurnsideOverInstance:
    """Effective Burnside levels: a value at X is a finite G-set over X,
    compared up to isomorphism over X.  Transfer composes, norm is the
    dependent product, restriction pulls back; no group completion, so the
    structure maps are the honest categorical constructions."""

    name = "burnside"

    def __init__(self, group: Group):
        self.group = group

    def zero(self, x: GSet):
        e = empty_gset(self.group)
        return (e, GMap(e, x, (), validate=False))

    def one(self, x: GSet):
        return (x, identity_map(x))

    def add(self, x: GSet, u, v):
        (a1, p1), (a2, p2) = u, v
        total, _ = disjoint_union([a1, a2])  # a1's points first, then a2's
        return (total, GMap(total, x, p1.images + p2.images, validate=False))

    def mul(self, x: GSet, u, v):
        (a1, p1), (a2, p2) = u, v
        pb = pullback(p2, p1)  # A1 ×_X A2
        return (pb.gset, compose_maps(p1, pb.to_x))

    def eq(self, x: GSet, u, v) -> bool:
        """(A, p) ≅ (B, q) over X iff the multisets {(p(a), G_a)} and
        {(q(b), G_b)} agree (`iso_class_over`, with p and q as labels)."""
        (a, p), (b, q) = u, v
        return a.size == b.size and iso_class_over(a, p.images) == iso_class_over(b, q.images)

    def restrict(self, f: GMap, v):
        a, p = v
        pb = pullback(p, f)
        return (pb.gset, pb.to_x)

    def transfer(self, f: GMap, v):
        a, p = v
        return (a, compose_maps(f, p))

    def norm(self, f: GMap, v):
        a, p = v
        dp = dependent_product(p, f)
        return (dp.gset, dp.to_y)

    def sampler(self, x: GSet) -> Callable[[random.Random, int], list]:
        classes = len(subconjugacy_poset(self.group))
        zero = self.zero(x)
        # the orbit classes drawn -> (A, its first maps A -> x)
        pool: dict[tuple[int, ...], tuple[GSet, list[GMap]]] = {}

        def draw(rng: random.Random, count: int) -> list:
            out = []
            for _ in range(count):
                parts = tuple(rng.randrange(classes) for _ in range(rng.randrange(3)))
                if parts not in pool:
                    a = reassemble(self.group, parts)
                    pool[parts] = (a, list(itertools.islice(equivariant_maps(a, x), 8)))
                a, maps = pool[parts]
                if not a.size or not maps:
                    out.append(zero)
                else:
                    out.append((a, maps[rng.randrange(len(maps))]))
            return out
        return draw

    def describe(self, v) -> str:
        a, p = v
        return f"({a.size} points over {p.target.size}: {p.images})"


class MutatedInstance:
    """A deliberately wrong wrapper: the norm map is replaced by the
    transfer.  Used to prove the checker detects violations."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"{inner.name}-mutated"

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def norm(self, f, v):
        return self.inner.transfer(f, v)


# -- checker -------------------------------------------------------------------


@dataclass
class RelationCheck:
    relation: str
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"relation": self.relation, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class TambaraReport:
    instance: str
    group_name: str
    budget: int
    seed: int
    checks: list = field(default_factory=list)
    instances_checked: int = 0

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "instance": self.instance,
            "group": self.group_name,
            "budget": self.budget,
            "seed": self.seed,
            "instances_checked": self.instances_checked,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def small_gsets(group: Group, budget: int) -> list[GSet]:
    """Isomorphism-class representatives of the G-sets with at most `budget`
    points: all orbit multisets, the empty set included."""
    poset = subconjugacy_poset(group)
    sizes = [group.order // c.order for c in poset.classes]
    results: list[GSet] = []

    def extend(start: int, left: int, chosen: list[int]):
        results.append(reassemble(group, chosen))
        for i in range(start, len(sizes)):
            if sizes[i] <= left:
                chosen.append(i)
                extend(i, left - sizes[i], chosen)
                chosen.pop()

    extend(0, budget, [])
    results.sort(key=lambda s: (s.size, s.act_table))
    return results


def _automorphisms(x: GSet) -> list[GMap]:
    """The bijective equivariant maps x -> x, in ascending order of images."""
    return [f for f in equivariant_maps(x, x) if len(set(f.images)) == x.size]


def _canonical_reps(x: GSet, y: GSet, auts_x: list[GMap],
                    auts_y: list[GMap]) -> list[GMap]:
    """One representative per isomorphism class of arrows x -> y: per orbit
    of the maps x -> y under Aut(x) x Aut(y).

    Two maps related by automorphisms of x and y give isomorphic
    single-map diagrams, so testing one of them tests them all.  A diagram
    of two maps x -> y -> z is only a pair of such representatives, which
    can miss a class of pairs: bringing both maps to their representatives
    can take two different automorphisms of y.  Each class is swept by
    Aut(x) x Aut(y) once, from its first map f, and the representatives
    keep the order of `equivariant_maps`, ascending in images: the orbit of
    f is its whole class, all of them equivariant maps x -> y, so a member
    with smaller images would have been enumerated, and the class swept,
    before f.  Hence f has the least images in its class.
    """
    seen: set[tuple] = set()
    reps: list[GMap] = []
    for f in equivariant_maps(x, y):
        if f.images in seen:
            continue
        seen.update(tuple(beta.images[f.images[a]] for a in alpha.images)
                    for alpha in auts_x for beta in auts_y)
        reps.append(f)
    return reps


# -- diagram shapes ------------------------------------------------------------
#
# Each enumerator yields every diagram of its shape once, as a namespace of its
# G-sets and maps plus `sig`, the text that names the diagram in witnesses and
# seeds its sample values.  The order fixes which violation becomes a witness.


def _sig(f: GMap) -> str:
    return f"{f.source.size}->{f.target.size}:{f.images}"


def _single_maps(objects, maps):
    """f: X -> Y."""
    for (i, j), fs in maps.items():
        for f in fs:
            yield SimpleNamespace(sig=_sig(f), f=f, x=objects[i], y=objects[j])


def _chains(objects, maps):
    """(X_i, X_k, first, second) for each composable pair X_i -> X_j -> X_k,
    in ascending (i, j, k) order."""
    for (i, j), firsts in maps.items():
        for k, z in enumerate(objects):
            for first, second in itertools.product(firsts, maps[(j, k)]):
                yield objects[i], z, first, second


def _composable_pairs(objects, maps):
    """f: X -> Y, h: Y -> Z and hf = h.f."""
    for x, z, f, h in _chains(objects, maps):
        yield SimpleNamespace(sig=f"{_sig(f)};{_sig(h)}", f=f, h=h,
                              hf=compose_maps(h, f), x=x, z=z)


def _pullback_squares(objects, maps):
    """f: X -> Y, g: Y' -> Y and the pullback X' = Y' x_Y X with its
    projections g': X' -> X and f': X' -> Y'."""
    for (i, j), fs in maps.items():
        for jp, yp in enumerate(objects):
            for f, g in itertools.product(fs, maps[(jp, j)]):
                pb = pullback(f, g)
                yield SimpleNamespace(sig=f"f={_sig(f)} g={_sig(g)}", f=f, g=g,
                                      f_prime=pb.to_x, g_prime=pb.to_a,
                                      x=objects[i], yp=yp)


def _exponential_diagrams(objects, maps):
    """p: A -> X, f: X -> Y and their exponential diagram ed."""
    for a, y, p, f in _chains(objects, maps):
        yield SimpleNamespace(sig=f"p={_sig(p)} f={_sig(f)}", p=p, f=f,
                              ed=exponential_diagram(p, f), a=a, y=y)


@dataclass(frozen=True)
class Relation:
    """One relation of the generator presentation, checked on every diagram
    that the enumerator `shape` yields.

    Sample values are drawn at the diagram's G-set named `level` with the rng
    seeded `f"{seed}:{tag}:{diagram.sig}"`; relations with the same tag share
    that draw.  `laws(instance, diagram, values)` yields `(diagram text, value
    text, lhs, rhs, level)`, one per instance of the relation; the value text
    is a function without arguments, called only for a witness.
    """

    name: str
    shape: Callable
    tag: str
    level: str
    laws: Callable


def _per_value(law):
    """Laws with one instance per sample value, named by the diagram;
    `law(instance, diagram, v)` returns (lhs, rhs, level)."""
    def laws(inst, d, values):
        for v in values:
            yield (d.sig, partial(inst.describe, v), *law(inst, d, v))
    return laws


def _pair_text(inst, u, v) -> str:
    return f"{inst.describe(u)}, {inst.describe(v)}"


def _ring_map(name, tag, letter, method, ops, unit, src, dst) -> Relation:
    """The structure map `method` along f: level `src` -> level `dst`
    preserves each binary operation of `ops` (name, diagram suffix) and the
    constant `unit`."""
    def laws(inst, d, values):
        along = partial(getattr(inst, method), d.f)
        a, b = getattr(d, src), getattr(d, dst)
        for u, v in itertools.product(values, repeat=2):
            text = partial(_pair_text, inst, u, v)
            for op_name, suffix in ops:
                op = getattr(inst, op_name)
                yield (f"{letter} along {d.sig}{suffix}", text,
                       along(op(a, u, v)), op(b, along(u), along(v)), b)
        const = getattr(inst, unit)
        yield (f"{letter} along {d.sig} ({unit})", partial(str, {"one": 1, "zero": 0}[unit]),
               along(const(a)), const(b), b)
    return Relation(name, _single_maps, tag, src, laws)


RELATIONS = (
    Relation("restriction-functorial", _composable_pairs, "Rfun", "z", _per_value(
        lambda inst, d, v: (inst.restrict(d.f, inst.restrict(d.h, v)),
                            inst.restrict(d.hf, v), d.x))),
    Relation("transfer-functorial", _composable_pairs, "Tfun", "x", _per_value(
        lambda inst, d, v: (inst.transfer(d.h, inst.transfer(d.f, v)),
                            inst.transfer(d.hf, v), d.z))),
    Relation("norm-functorial", _composable_pairs, "Nfun", "x", _per_value(
        lambda inst, d, v: (inst.norm(d.h, inst.norm(d.f, v)),
                            inst.norm(d.hf, v), d.z))),
    _ring_map("restriction-ring-homomorphism", "Rhom", "R", "restrict",
              (("add", ""), ("mul", " (mul)")), "one", "y", "x"),
    _ring_map("transfer-additive", "Tadd", "T", "transfer",
              (("add", ""),), "zero", "x", "y"),
    _ring_map("norm-multiplicative", "Nmul", "N", "norm",
              (("mul", ""),), "one", "x", "y"),
    Relation("transfer-base-change", _pullback_squares, "base", "x", _per_value(
        lambda inst, d, v: (inst.restrict(d.g, inst.transfer(d.f, v)),
                            inst.transfer(d.f_prime, inst.restrict(d.g_prime, v)), d.yp))),
    Relation("norm-base-change", _pullback_squares, "base", "x", _per_value(
        lambda inst, d, v: (inst.restrict(d.g, inst.norm(d.f, v)),
                            inst.norm(d.f_prime, inst.restrict(d.g_prime, v)), d.yp))),
    # T_q N_{f'} R_e = N_f T_p
    Relation("exponential-distributivity", _exponential_diagrams, "exp", "a", _per_value(
        lambda inst, d, v: (
            inst.transfer(d.ed.pi_p, inst.norm(d.ed.f_prime, inst.restrict(d.ed.e, v))),
            inst.norm(d.f, inst.transfer(d.p, v)), d.y))),
)

RELATION_NAMES = tuple(r.name for r in RELATIONS)

VALUE_SAMPLES = 2  # values drawn per diagram and tag


def check_tambara_axioms(instance, budget: int = 4,
                         seed: int = 0,
                         relations: tuple[str, ...] | None = None) -> TambaraReport:
    """Enumerate the relation diagrams over G-sets of at most `budget`
    points and test each wanted relation of `RELATIONS` on `VALUE_SAMPLES`
    seeded sample values.

    `instance` has a ring per finite G-set X: `zero(x)`, `one(x)`,
    `add(x, u, v)`, `mul(x, u, v)` and the exact comparison `eq(x, u, v)`.
    For a map f, `restrict(f, v)` takes a value at target(f) to one at
    source(f); `transfer(f, v)` and `norm(f, v)` go the other way.
    `sampler(x)` builds what the draws at level x share and returns
    `draw(rng, count)`, which returns `count` seeded values there.

    Each diagram is built from maps of `_canonical_reps`, so the single-map
    relations see one diagram per isomorphism class of maps X -> Y.  The
    composable pairs, pullback squares and exponential diagrams are pairs
    of such representatives, which need not cover every isomorphism class
    of those diagrams: C1 at budget 3 covers 88 of the 100 classes of
    X -> Y -> Z.

    Each relation name appears once; the report carries the first violation
    of each failing relation as its witness and counts every law tested.
    """
    wanted = set(relations if relations is not None else RELATION_NAMES)
    unknown = wanted - set(RELATION_NAMES)
    if unknown:
        raise GwittError(f"unknown relations: {sorted(unknown)}")
    if budget < 0:
        raise GwittError(f"budget must be non-negative, got {budget}")
    report = TambaraReport(instance.name, instance.group.name, budget, seed)
    objects = small_gsets(instance.group, budget)
    auts = [_automorphisms(x) for x in objects]
    maps: dict[tuple[int, int], list[GMap]] = {}
    for i, x in enumerate(objects):
        for j, y in enumerate(objects):
            maps[(i, j)] = _canonical_reps(x, y, auts[i], auts[j])

    checked = [r for r in RELATIONS if r.name in wanted]
    failures: dict[str, dict] = {}
    samplers: dict[GSet, Callable] = {}  # level -> its draw, for this check only
    for shape in dict.fromkeys(r.shape for r in checked):
        for d in shape(objects, maps):
            drawn: dict[str, list] = {}
            for rel in (r for r in checked if r.shape is shape):
                if rel.tag not in drawn:
                    level = getattr(d, rel.level)
                    if level not in samplers:
                        samplers[level] = instance.sampler(level)
                    rng = random.Random(f"{seed}:{rel.tag}:{d.sig}")
                    drawn[rel.tag] = samplers[level](rng, VALUE_SAMPLES)
                for diagram, value, lhs, rhs, level in rel.laws(instance, d, drawn[rel.tag]):
                    report.instances_checked += 1
                    if rel.name not in failures and not instance.eq(level, lhs, rhs):
                        failures[rel.name] = {
                            "diagram": diagram,
                            "value": value(),
                            "lhs": instance.describe(lhs),
                            "rhs": instance.describe(rhs),
                        }

    report.checks = [
        RelationCheck(r, "fail" if r in failures else "pass", failures.get(r))
        for r in sorted(wanted)
    ]
    return report
