"""Slow, independent constructions that the fast library paths are checked
against: subgroups by joining whole element sets, conjugacy classes and
subconjugacy by conjugating with every group element, the table of marks by
counting fixed cosets, Burnside products by decomposing product G-sets, and
the Teichmueller map and its marks by building every subgroup as a group of
its own.  Also the larger groups of the benchmark ladder."""

import itertools
from functools import cache

from gwitt.burnside import (
    BurnsideElement,
    burnside_zero,
    column_solve,
    mark_columns,
    marks,
    norm_from_trivial,
)
from gwitt.errors import GwittError
from gwitt.groups import (
    Group,
    Subgroup,
    group_from_generators,
    subconjugacy_poset,
    subgroup_generated,
)
from gwitt.gsets import coset_space, fixed_points, orbit_decompose, product
from gwitt.intpoly import Poly


def elementary_abelian_2(rank: int) -> Group:
    """C2^rank, acting on 2*rank points by disjoint transpositions."""
    n = 2 * rank
    gens = []
    for i in range(rank):
        perm = list(range(n))
        perm[2 * i], perm[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(perm))
    return group_from_generators(gens, n_points=n, name=f"C2^{rank}")


def s4_x_c2() -> Group:
    """S4 x C2 (order 48), the perm[(0 1),(0 1 2 3),(4 5)] of the ladder."""
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]
    return group_from_generators(gens, n_points=6, name="S4xC2")


def brute_force_subgroups(group: Group) -> list[tuple[int, ...]]:
    """All closed subsets, by raw subset enumeration; for tiny groups."""
    if group.order > 12:
        raise GwittError("brute-force subgroup enumeration is capped at order 12")
    out = []
    rest = [a for a in group.elements() if a != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            elems = (0,) + combo
            eset = set(elems)
            if all(
                group.mul_table[a][b] in eset and group.inv_table[a] in eset
                for a in elems for b in elems
            ):
                out.append(elems)
    return sorted(out, key=lambda e: (len(e), e))


def join_closure_subgroups(group: Group) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted element tuple, sorted by (order, elements):
    cyclic subgroups, then the closure of the union of every known subgroup
    with every cyclic one until nothing new appears."""
    cyclics = {subgroup_generated(group, [a]).elements for a in group.elements()}
    known = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for h in frontier:
            for c in cyclics:
                join = subgroup_generated(group, set(h) | set(c)).elements
                if join not in known:
                    known.add(join)
                    new.add(join)
        frontier = new
    return sorted(known, key=lambda e: (len(e), e))


def conjugates(group: Group, elements) -> set[frozenset[int]]:
    """The conjugacy class of a subgroup, one conjugation per group element."""
    return {frozenset(group.conj(g, a) for a in elements) for g in group.elements()}


def containment_leq(group: Group) -> tuple[tuple[bool, ...], ...]:
    """[H_i] <= [H_j] iff H_i is a subset of some member of class j."""
    classes = subconjugacy_poset(group).classes
    return tuple(
        tuple(
            any(set(ci.rep.elements) <= set(m.elements) for m in cj.members)
            for cj in classes
        )
        for ci in classes
    )


def coset_space_table_of_marks(group: Group) -> tuple[tuple[int, ...], ...]:
    """Entry (row [K], column [H]) = the number of H-fixed points of G/K,
    counted on the coset space itself."""
    classes = subconjugacy_poset(group).classes
    return tuple(
        tuple(fixed_points(coset_space(group, ck.rep), ch.rep) for ch in classes)
        for ck in classes
    )


def product_basis_decomposition(group: Group, i: int, j: int) -> tuple[int, ...]:
    """[G/H_i]·[G/H_j] as coefficients: the orbits of the product G-set
    G/H_i x G/H_j, counted by the class of their stabilizers."""
    poset = subconjugacy_poset(group)
    prod, _, _ = product(
        coset_space(group, poset.classes[i].rep),
        coset_space(group, poset.classes[j].rep),
    )
    coeffs = [0] * len(poset)
    for idx in orbit_decompose(prod, poset):
        coeffs[idx] += 1
    return tuple(coeffs)


@cache
def subgroup_class_map(group: Group, sub: Subgroup) -> tuple[int, ...]:
    """For each class of the subgroup built as a group of its own, the class
    index in G of that subgroup seen inside G."""
    sub_group, embedding = sub.as_group()
    poset = subconjugacy_poset(group)
    out = []
    for cls in subconjugacy_poset(sub_group).classes:
        elems_in_g = tuple(sorted(embedding[i] for i in cls.rep.elements))
        out.append(poset.class_index(Subgroup(group, elems_in_g)))
    return tuple(out)


def burnside_transfer(sub: Subgroup, b: BurnsideElement) -> BurnsideElement:
    """Additive induction A(H) -> A(G), sending [H/L] to [G/L]."""
    group = sub.group
    if b.group != sub.as_group()[0]:
        raise GwittError("element does not live over the subgroup")
    out = [0] * len(subconjugacy_poset(group))
    for i, c in zip(subgroup_class_map(group, sub), b.coeffs):
        out[i] = out[i] + c
    return BurnsideElement(group, tuple(out))


def tau_via_subgroup_groups(w) -> BurnsideElement:
    """tau(alpha) = sum over the classes [K] of T_K^G N_e^K(alpha_K), with
    each representative K built as a validated group of its own, its norm
    solved in K's own Burnside ring and transferred along K's class map."""
    total = burnside_zero(w.group)
    for cls, comp in zip(subconjugacy_poset(w.group).classes, w.components):
        sub_group, _ = cls.rep.as_group()
        total = total + burnside_transfer(cls.rep, norm_from_trivial(sub_group, comp))
    return total


def symbolic_tau_marks_via_subgroup_groups(group: Group, comps) -> tuple:
    """marks(tau(alpha)) for polynomial components: each representative K
    built as a group, N_e^K(alpha_K) solved over Q in K's own Burnside ring
    (its coefficients are numerical polynomials), transferred along K's
    class map, and the marks of the pieces summed."""
    total = [Poly() for _ in subconjugacy_poset(group).classes]
    for cls, comp in zip(subconjugacy_poset(group).classes, comps):
        sub_group, _ = cls.rep.as_group()
        x = Poly.coerce(comp)
        vector = [x ** (cls.order // c.order) for c in subconjugacy_poset(sub_group).classes]
        norm = column_solve(vector, mark_columns(sub_group), div=Poly.rational_div)
        piece = marks(burnside_transfer(cls.rep, BurnsideElement(sub_group, tuple(norm))))
        total = [t + m for t, m in zip(total, piece)]
    return tuple(total)
