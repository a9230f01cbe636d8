"""Slow, independent constructions that the fast library paths are checked
against: subgroups by joining whole element sets, conjugacy classes and
subconjugacy by conjugating with every group element, the table of marks by
counting fixed cosets (also the marks of any G-set), Burnside products by
decomposing product G-sets, maps over a base by counting candidate images, and
the Teichmueller map and its marks by building every subgroup as a group of
its own, the norm N_e^G(x) by the orbits of all functions G -> {0..x-1},
stabilizers and fibers by scanning, orbits by closing a frontier, products
by nested loops, equivariant maps and isomorphisms by filtering all
functions and permutations, isomorphisms over a base by backtracking over
orbits, map representatives up to automorphisms by minimizing over every
relabeling of every map, equality of G-sets over a
base and equivalence of bispans by an isomorphism search, pullbacks and
dependent products by looking their points up in dicts keyed by tuples,
and associativity by trying every triple.  Also reference
functions the tests compare against: the order of the subconjugacy poset
read off its containment counts, isomorphism of G-sets over the point, the
norm of an integer from the trivial level by unmarks, the depth of a word,
its support rebuilt on every call, the coherence bijection by matching
normal-form keys in a dict, the map into a pullback that two maps induce,
and the equivariance and free rank of an invariant-ring value.  Also the
larger groups of the benchmark ladder."""

import itertools
from functools import cache

from gwitt.burnside import (
    BurnsideElement,
    column_solve,
    mark_columns,
    marks,
    unmarks,
)
from gwitt.errors import EquivarianceError, GwittError, SupportError
from gwitt.groups import (
    Group,
    Subgroup,
    SubconjugacyPoset,
    group_from_generators,
    subconjugacy_poset,
)
from gwitt.gsets import (
    DependentProduct,
    GMap,
    GSet,
    Pullback,
    _extend_images,
    compose_maps,
    coset_space,
    equivariant_maps,
    orbit_decompose,
    product,
    to_point,
)
from gwitt.intpoly import Poly
from gwitt.tambara import InvariantRingInstance
from gwitt.words import SetAssignment, Word, eval_word


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


def associativity_failure(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c) with (ab)c != a(bc) in a square table over
    0..n-1, or None: every triple is tried, O(n^3)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


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


def generated_closure(group: Group, gens) -> tuple[int, ...]:
    """The subgroup generated by `gens` as a sorted element tuple, by
    breadth-first closure under left and right multiplication."""
    closure = {0}
    frontier = [0]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                for b in (group.mul_table[a][g], group.mul_table[g][a]):
                    if b not in closure:
                        closure.add(b)
                        new.append(b)
        frontier = new
    return tuple(sorted(closure))


def join_closure_subgroups(group: Group) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted element tuple, sorted by (order, elements):
    cyclic subgroups, then the closure of the union of every known subgroup
    with every cyclic one until nothing new appears."""
    cyclics = {generated_closure(group, [a]) for a in group.elements()}
    known = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for h in frontier:
            for c in cyclics:
                join = generated_closure(group, set(h) | set(c))
                if join not in known:
                    known.add(join)
                    new.add(join)
        frontier = new
    return sorted(known, key=lambda e: (len(e), e))


def conjugates(group: Group, elements) -> set[frozenset[int]]:
    """The conjugacy class of a subgroup, one conjugation per group element."""
    mul, inv = group.mul_table, group.inv_table
    return {frozenset(mul[mul[g][a]][inv[g]] for a in elements) for g in group.elements()}


def poset_leq(poset: SubconjugacyPoset, i: int, j: int) -> bool:
    """[H_i] <= [H_j], read off the containment counts of G's poset: H_i
    lies in some conjugate of H_j."""
    return i == j or j in poset.above[i][::2]


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


def fixed_points(x: GSet, h: Subgroup) -> int:
    """The number of points of x fixed by every element of h."""
    if h.group != x.group:
        raise GwittError("subgroup of a different group")
    return sum(1 for stab in x.stabilizers() if stab.issuperset(h.elements))


def marks_vector(x: GSet, poset=None) -> tuple[int, ...]:
    """The fixed points of x under each class representative, in poset order."""
    if poset is None:
        poset = subconjugacy_poset(x.group)
    return tuple(fixed_points(x, cls.rep) for cls in poset.classes)


def count_maps_over(b: GMap, t: GMap) -> int:
    """Number of equivariant maps m with t∘m = b (maps over the common
    target): per orbit of b's source, the points over the same base point
    whose stabilizer contains the orbit representative's."""
    if b.target != t.target:
        raise GwittError("maps must share a target")
    b_stabs, t_stabs = b.source.stabilizers(), t.source.stabilizers()
    total = 1
    for points, _ in b.source.orbits():
        rep = points[0]
        total *= sum(1 for p in t.fiber(b.images[rep]) if b_stabs[rep] <= t_stabs[p])
    return total


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
    for idx in orbit_decompose(prod):
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


def norm_from_trivial(group: Group, x: int) -> BurnsideElement:
    """The multiplicative norm N_e^G(x) of an integer: the unique element
    with marks [H] -> x^(G:H), by unmarks over G's own table of marks.
    Integrality holds for every integer x."""
    poset = subconjugacy_poset(group)
    return unmarks(group, tuple(x ** (group.order // cls.order) for cls in poset.classes))


def function_orbits_by_stabilizer(group: Group, x: int) -> tuple[int, ...]:
    """The G-set Map(G, {0..x-1}) of all functions, with (g.f)(a) =
    f(g^-1 a), as coefficients: its orbits, found by applying every group
    element to every function, counted by the class of their stabilizers.
    This is N_e^G(x) with no table of marks; for tiny groups and x."""
    mul, inv = group.mul_table, group.inv_table
    poset = subconjugacy_poset(group)
    counts = [0] * len(poset)
    seen = set()
    for f in itertools.product(range(x), repeat=group.order):
        if f in seen:
            continue
        moved = {g: tuple(f[mul[inv[g]][a]] for a in group.elements())
                 for g in group.elements()}
        seen.update(moved.values())
        stabilizer = Subgroup(group, tuple(g for g, image in moved.items() if image == f))
        counts[poset.class_index(stabilizer)] += 1
    return tuple(counts)


def tau_via_subgroup_groups(w) -> BurnsideElement:
    """tau(alpha) = sum over the classes [K] of T_K^G N_e^K(alpha_K), with
    each representative K built as a validated group of its own, its norm
    solved in K's own Burnside ring and transferred along K's class map."""
    total = BurnsideElement(w.group, (0,) * len(w.components))
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


def scanned_stabilizers(x: GSet) -> tuple[frozenset[int], ...]:
    """The stabilizer of each point, scanning the group once per point."""
    return tuple(
        frozenset(g for g in x.group.elements() if x.act_table[g][p] == p)
        for p in x.points()
    )


def scanned_fibers(f: GMap) -> tuple[tuple[int, ...], ...]:
    """The fiber over each target point, scanning the source once per point."""
    return tuple(
        tuple(x for x in f.source.points() if f.images[x] == y)
        for y in f.target.points()
    )


def closure_orbits(x: GSet) -> tuple[tuple[tuple[int, ...], dict[int, int]], ...]:
    """The orbits as (sorted points, transporter), each grown from its least
    point by closing a frontier under every group element; a new point
    v = g•u is carried by g times the carrier of u."""
    seen = [False] * x.size
    out = []
    for p in x.points():
        if seen[p]:
            continue
        transporter = {p: 0}
        frontier = [p]
        seen[p] = True
        while frontier:
            new = []
            for u in frontier:
                for g in x.group.elements():
                    v = x.act_table[g][u]
                    if v not in transporter:
                        transporter[v] = x.group.mul(g, transporter[u])
                        seen[v] = True
                        new.append(v)
            frontier = new
        out.append((tuple(sorted(transporter)), transporter))
    return tuple(out)


def loop_product(x: GSet, y: GSet) -> tuple[GSet, GMap, GMap]:
    """X × Y with (i, j) at index i·|Y| + j, its table built by nested loops
    over the group, X and Y."""
    table = [[x.act_table[g][i] * y.size + y.act_table[g][j]
              for i in x.points() for j in y.points()]
             for g in x.group.elements()]
    prod = GSet(x.group, table)
    return (prod, GMap(prod, x, [i // y.size for i in prod.points()]),
            GMap(prod, y, [i % y.size for i in prod.points()]))


def _is_equivariant(a: GSet, x: GSet, images) -> bool:
    return all(
        images[a.act_table[g][u]] == x.act_table[g][images[u]]
        for g in a.group.elements() for u in a.points()
    )


def all_equivariant_maps(a: GSet, x: GSet) -> list[tuple[int, ...]]:
    """The images of every equivariant map a -> x, filtered from all
    functions in lexicographic order."""
    return [
        images for images in itertools.product(x.points(), repeat=a.size)
        if _is_equivariant(a, x, images)
    ]


def all_isos_over(f: GMap, g: GMap) -> list[tuple[int, ...]]:
    """The images of every equivariant bijection h with g∘h = f, filtered
    from all permutations in lexicographic order."""
    a, b = f.source, g.source
    if a.size != b.size:
        return []
    return [
        images for images in itertools.permutations(b.points())
        if all(g.images[images[u]] == f.images[u] for u in a.points())
        and _is_equivariant(a, b, images)
    ]


def isos_over(f: GMap, g: GMap):
    """Yield equivariant bijections h: source(f) -> source(g) with g∘h = f,
    in ascending order of images, by backtracking: each orbit of source(f)
    in turn sends its representative to a point over the same base point
    with the same stabilizer, in an orbit no earlier orbit took."""
    if f.target != g.target:
        raise GwittError("maps must share a target")
    a, b = f.source, g.source
    if [len(xs) for xs in f.fibers()] != [len(xs) for xs in g.fibers()]:
        return
    a_stabs, b_stabs = a.stabilizers(), b.stabilizers()
    orbit_of_b = {u: k for k, (points, _) in enumerate(b.orbits()) for u in points}
    candidates = []
    for points, _ in a.orbits():
        rep = points[0]
        cands = [p for p in g.fiber(f.images[rep]) if b_stabs[p] == a_stabs[rep]]
        if not cands:
            return
        candidates.append(cands)
    used = [False] * len(b.orbits())
    assignment: list[int] = []

    def backtrack(k: int):
        if k == len(candidates):
            yield _extend_images(a, b, assignment)
            return
        for p in candidates[k]:
            ob = orbit_of_b[p]
            if used[ob]:
                continue
            used[ob] = True
            assignment.append(p)
            yield from backtrack(k + 1)
            assignment.pop()
            used[ob] = False

    yield from backtrack(0)


def min_relabeling_reps(x: GSet, y: GSet, auts_x: list[GMap],
                        auts_y: list[GMap]) -> list[GMap]:
    """One map x -> y per class under Aut(x) x Aut(y): for every map, the
    least images over all |Aut x|·|Aut y| relabelings name its class, and the
    first map enumerated in each class represents it, in the order of those
    least images."""
    reps: dict[tuple, GMap] = {}
    for f in equivariant_maps(x, y):
        best = None
        for alpha in auts_x:
            pre = tuple(f.images[alpha.images[i]] for i in x.points())
            for beta in auts_y:
                relabeled = tuple(beta.images[v] for v in pre)
                if best is None or relabeled < best:
                    best = relabeled
        if best not in reps:
            reps[best] = f
    return [reps[k] for k in sorted(reps)]


def gset_iso(x: GSet, y: GSet) -> GMap | None:
    """An equivariant bijection x -> y (an isomorphism over the point), or
    None."""
    return next(isos_over(to_point(x), to_point(y)), None)


def word_depth(w: Word) -> int:
    """The number of levels of the expression tree of w."""
    if w.kind in ("zero", "one", "var"):
        return 1
    return 1 + max(word_depth(w.left), word_depth(w.right))


def recursive_supp(w: Word) -> Poly:
    """The support of w, rebuilt through Poly arithmetic on every call."""
    if w.kind == "zero":
        return Poly()
    if w.kind == "one":
        return Poly.const(1)
    if w.kind == "var":
        return Poly.var(w.name)
    if w.kind == "add":
        return recursive_supp(w.left) + recursive_supp(w.right)
    return recursive_supp(w.left) * recursive_supp(w.right)


def _element_normal_form(w: Word, elem) -> tuple:
    """(monomial variables, sorted (variable, label) pairs) of one element of
    eval_word(w, a), read off its provenance."""
    if w.kind == "one":
        return (), ()
    if w.kind == "var":
        _, name, label = elem
        return (name,), ((name, label),)
    if w.kind == "add":
        _, side, inner = elem
        return _element_normal_form(w.left if side == 0 else w.right, inner)
    if w.kind == "mul":
        _, e1, e2 = elem
        m1, c1 = _element_normal_form(w.left, e1)
        m2, c2 = _element_normal_form(w.right, e2)
        if set(m1) & set(m2):
            raise SupportError("monomial is not square-free along this element")
        return tuple(sorted(m1 + m2)), tuple(sorted(c1 + c2))
    raise SupportError("zero has no elements")


def matched_coherence_iso(w: Word, w2: Word, a: SetAssignment) -> dict:
    """The preferred bijection eval(w, a) -> eval(w2, a) with fresh supports
    and a dict from normal-form keys to eval(w2, a)'s elements, matched in
    the order of eval(w, a)."""
    s1, s2 = recursive_supp(w), recursive_supp(w2)
    if s1 != s2:
        raise SupportError("words have different supports")
    if not s1.is_simple():
        raise SupportError("common support is not simple")
    left = eval_word(w, a)
    right = eval_word(w2, a)
    by_key = {_element_normal_form(w2, e): e for e in right}
    if len(by_key) != len(right):
        raise SupportError("normalization is not injective; support not simple")
    out = {}
    for e in left:
        key = _element_normal_form(w, e)
        if key not in by_key:
            raise SupportError("evaluations do not match termwise")
        out[e] = by_key[key]
    if len(set(out.values())) != len(out) or len(out) != len(right):
        raise SupportError("normalization failed to produce a bijection")
    return out


def check_value(inst: InvariantRingInstance, x: GSet, v) -> None:
    """Raise EquivarianceError unless v is a value of `inst` at level x: an
    |x| x |base| matrix with v[g•i][j] = v[i][g^-1•j]."""
    base = inst.base
    if len(v) != x.size:
        raise EquivarianceError("value has wrong number of rows")
    for row in v:
        if len(row) != base.size:
            raise EquivarianceError("value row has wrong width")
    ginv = inst.group.inverse
    for g in inst.group.elements():
        for i in x.points():
            for j in base.points():
                if v[x.act_table[g][i]][j] != v[i][base.act_table[ginv(g)][j]]:
                    raise EquivarianceError("value is not equivariant")


def level_rank(inst: InvariantRingInstance, x: GSet) -> int:
    """The free rank of the level of `inst` at x: one generator per (orbit of
    x, orbit of its stabilizer on the base)."""
    return sum(len(inst._stabilizer_orbits(x, points[0])) for points, _ in x.orbits())


def pullback_pair(pb: Pullback, m_x: GMap, m_a: GMap) -> GMap:
    """The map into the pullback induced by m_x and m_a, witnessing its
    universal property; GMap validates its equivariance."""
    if m_x.source != m_a.source:
        raise GwittError("pairing needs a common source")
    index = {pt: i for i, pt in enumerate(pb.points)}
    images = []
    for w in m_x.source.points():
        key = (m_x.images[w], m_a.images[w])
        if key not in index:
            raise GwittError("maps do not commute with the cospan")
        images.append(index[key])
    return GMap(m_x.source, pb.gset, tuple(images))


def iso_over_eq(u, v) -> bool:
    """Equality of two Burnside values (A, p) and (B, q) at one level: an
    isomorphism A -> B over the level exists."""
    return next(isos_over(u[1], v[1]), None) is not None


def search_bispan_equivalent(u, v) -> bool:
    """Equivalence of two bispans with common ends by backtracking: some
    β: B -> B' over Y and α: A -> A' over X × B' with p'α = p and q'α = βq,
    found by searching β and then α as an isomorphism into the product."""
    if u.a.size != v.a.size or u.b.size != v.b.size:
        return False
    xb, _, _ = product(u.x, v.b)

    def into_product(pmap: GMap, qmap: GMap) -> GMap:
        images = tuple(pmap.images[i] * v.b.size + qmap.images[i]
                       for i in pmap.source.points())
        return GMap(pmap.source, xb, images, validate=False)

    m2 = into_product(v.p, v.q)
    return any(next(isos_over(into_product(u.p, compose_maps(beta, u.q)), m2), None) is not None
               for beta in isos_over(u.r, v.r))


def dict_pullback(f: GMap, g: GMap) -> Pullback:
    """X ×_Y A for f: A -> Y and g: X -> Y, each point (x, a) found in a dict
    keyed by the pair."""
    x, a = g.source, f.source
    pts = [(i, j) for i in x.points() for j in a.points() if g.images[i] == f.images[j]]
    index = {pt: k for k, pt in enumerate(pts)}
    table = [[index[(x.act_table[gg][i], a.act_table[gg][j])] for i, j in pts]
             for gg in x.group.elements()]
    pb = GSet(x.group, table)
    return Pullback(pb, GMap(pb, x, [i for i, _ in pts]), GMap(pb, a, [j for _, j in pts]),
                    tuple(pts))


def dict_dependent_product(p: GMap, f: GMap) -> DependentProduct:
    """Π_f A -> Y for p: A -> X and f: X -> Y: the sections over each y,
    sorted, each found in a dict keyed by (y, values) after g moves it."""
    a, x, y = p.source, p.target, f.target
    group = x.group
    fiber_points = tuple(
        tuple(xx for xx in x.points() if f.images[xx] == yy) for yy in y.points()
    )
    sections = sorted(
        (yy, combo) for yy in y.points()
        for combo in itertools.product(*(
            [u for u in a.points() if p.images[u] == xx] for xx in fiber_points[yy]))
    )
    index = {s: i for i, s in enumerate(sections)}
    table = []
    for g in group.elements():
        ginv = group.inverse(g)
        row = []
        for yy, sec in sections:
            y2 = y.act_table[g][yy]
            moved = tuple(
                a.act_table[g][sec[fiber_points[yy].index(x.act_table[ginv][x2])]]
                for x2 in fiber_points[y2]
            )
            row.append(index[(y2, moved)])
        table.append(row)
    pi = GSet(group, table)
    return DependentProduct(pi, GMap(pi, y, [yy for yy, _ in sections]), tuple(sections))
