"""The bispan category: generators, equivalence, composition, fiber
polynomials, the substitution law, and the generator factorization."""

import random

import pytest

from oracles import search_bispan_equivalent
from randgen import random_bispan, random_gmap

from gwitt.bispans import (
    Bispan,
    bispan_equivalent,
    compose,
    fiber_polynomial,
    gen_N,
    gen_R,
    gen_T,
    identity_bispan,
    is_simple,
    pair,
    point_var,
    recompose,
    substitute_fibers,
)
from gwitt.errors import GwittError
from gwitt.groups import cyclic, dihedral, klein_four, symmetric
from gwitt.gsets import (
    GMap,
    compose_maps,
    disjoint_union,
    empty_gset,
    identity_map,
    point_gset,
    regular_gset,
    trivial_gset,
)
from gwitt.intpoly import Poly

C2 = cyclic(2)
FREE = regular_gset(C2)
PT = point_gset(C2)
TO_PT = GMap(FREE, PT, (0, 0))


def test_generator_shapes():
    r = gen_R(TO_PT)
    assert (r.x, r.a, r.b, r.y) == (PT, FREE, FREE, FREE)
    t = gen_T(TO_PT)
    assert (t.x, t.a, t.b, t.y) == (FREE, FREE, FREE, PT)
    n = gen_N(TO_PT)
    assert (n.x, n.a, n.b, n.y) == (FREE, FREE, PT, PT)
    i = identity_bispan(FREE)
    assert bispan_equivalent(i, gen_R(identity_map(FREE)))
    assert bispan_equivalent(i, gen_T(identity_map(FREE)))
    assert bispan_equivalent(i, gen_N(identity_map(FREE)))


def test_generator_fiber_polynomials():
    assert fiber_polynomial(gen_T(TO_PT), 0).poly == Poly.var("x0") + Poly.var("x1")
    assert fiber_polynomial(gen_N(TO_PT), 0).poly == Poly.var("x0") * Poly.var("x1")
    # R_f at a point x is the single variable at f(x)
    assert fiber_polynomial(gen_R(TO_PT), 1).poly == Poly.var("x0")


def test_additive_and_multiplicative_units_from_empty():
    empty = empty_gset(C2)
    incl = GMap(empty, FREE, ())
    t_i = gen_T(incl)   # additive unit onto FREE
    n_i = gen_N(incl)   # multiplicative unit onto FREE
    for y in FREE.points():
        assert fiber_polynomial(t_i, y).poly == Poly()
        assert fiber_polynomial(n_i, y).poly == Poly.const(1)


def test_equivalence_examples():
    t, n = gen_T(TO_PT), gen_N(TO_PT)
    assert bispan_equivalent(t, t)
    assert not bispan_equivalent(t, n)
    # relabeled copy: swap the two points of the middle objects
    swap = (1, 0)
    relabeled = Bispan(
        GMap(FREE, FREE, swap), GMap(FREE, FREE, swap), compose_maps(TO_PT, identity_map(FREE))
    )
    original = Bispan(identity_map(FREE), identity_map(FREE), TO_PT)
    assert bispan_equivalent(relabeled, original)
    with pytest.raises(GwittError):
        bispan_equivalent(t, gen_T(GMap(trivial_gset(C2, 1), PT, (0,))))


def test_equivalence_distinguishes_fiber_structure():
    # same object sizes and orbit types, different q-fiber partitions
    one = cyclic(1)
    four = trivial_gset(one, 4)
    two = trivial_gset(one, 2)
    pt1 = point_gset(one)
    to_pt = GMap(four, pt1, (0, 0, 0, 0))
    u = Bispan(to_pt, GMap(four, two, (0, 0, 1, 1)), GMap(two, pt1, (0, 0)))
    v = Bispan(to_pt, GMap(four, two, (0, 0, 0, 1)), GMap(two, pt1, (0, 0)))
    assert fiber_polynomial(u, 0).poly == 2 * Poly.var("x0") ** 2
    assert fiber_polynomial(v, 0).poly == Poly.var("x0") ** 3 + Poly.var("x0")
    assert not bispan_equivalent(u, v)
    # and equal partitions in a different labeling are equivalent
    w = Bispan(to_pt, GMap(four, two, (1, 1, 0, 0)), GMap(two, pt1, (0, 0)))
    assert bispan_equivalent(u, w)
    # over C2 with X = Y = pt and A empty, two fixed points against one free
    # orbit as B: only the stabilizers of B tell them apart
    empty = empty_gset(C2)
    fixed = trivial_gset(C2, 2)

    def over_empty(b):
        return Bispan(GMap(empty, PT, ()), GMap(empty, b, ()), GMap(b, PT, (0, 0)))

    assert not bispan_equivalent(over_empty(fixed), over_empty(FREE))
    assert not search_bispan_equivalent(over_empty(fixed), over_empty(FREE))
    # A = free orbit ⊔ two fixed points over B = two fixed points: the
    # multisets of (p(a), G_a) and of (r(b), G_b) agree, only the fibers of
    # q differ
    a, _ = disjoint_union([FREE, fixed])
    to_pt = GMap(a, PT, (0,) * 4)
    u = Bispan(to_pt, GMap(a, fixed, (0, 0, 1, 1)), GMap(fixed, PT, (0, 0)))
    v = Bispan(to_pt, GMap(a, fixed, (0, 0, 0, 1)), GMap(fixed, PT, (0, 0)))
    assert not bispan_equivalent(u, v) and not search_bispan_equivalent(u, v)
    assert bispan_equivalent(u, Bispan(to_pt, GMap(a, fixed, (1, 1, 0, 0)), u.r))

    # one free orbit against two fixed points as A, over X = B = Y = pt:
    # only the stabilizers within the one fiber of q tell them apart
    def over_pt(a):
        return Bispan(GMap(a, PT, (0, 0)), GMap(a, PT, (0, 0)), identity_map(PT))

    assert not bispan_equivalent(over_pt(fixed), over_pt(FREE))
    assert not search_bispan_equivalent(over_pt(fixed), over_pt(FREE))


@pytest.mark.parametrize("group", [C2, cyclic(4), klein_four(), symmetric(3), dihedral(4)],
                         ids=lambda g: g.name)
def test_equivalence_matches_the_search_oracle(group):
    # each seeded bispan against its factorization round trip and against
    # maps p, q, r drawn again on the same A, B, X and Y; both verdicts must
    # occur often, since the round trips alone only ever give True
    rng = random.Random(f"equivalence:{group.name}")
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        phi = random_bispan(group, rng, 6)
        others = [recompose(phi.p, phi.q, phi.r)] + [
            Bispan(random_gmap(phi.a, phi.x, rng), random_gmap(phi.a, phi.b, rng),
                   random_gmap(phi.b, phi.y, rng))
            for _ in range(6)
        ]
        for psi in others:
            verdict = bispan_equivalent(psi, phi)
            assert verdict == search_bispan_equivalent(psi, phi)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_compose_unit_laws():
    phi = gen_T(TO_PT)
    assert bispan_equivalent(compose(identity_bispan(PT), phi), phi)
    assert bispan_equivalent(compose(phi, identity_bispan(FREE)), phi)


def test_compose_and_pair_reject_mismatched_objects():
    with pytest.raises(GwittError):
        compose(gen_T(TO_PT), gen_T(TO_PT))  # PT then FREE do not chain
    with pytest.raises(GwittError):
        pair(gen_T(TO_PT), gen_T(GMap(trivial_gset(C2, 1), PT, (0,))))


def test_transfer_functoriality_through_composition():
    # sigma(T_h) sigma(T_f) = sigma(T_hf) as bispan equivalence
    x, _ = disjoint_union([FREE, FREE])
    f = GMap(x, FREE, (0, 1, 0, 1))
    h = TO_PT
    lhs = compose(gen_T(h), gen_T(f))
    rhs = gen_T(compose_maps(h, f))
    assert bispan_equivalent(lhs, rhs)


def test_norm_and_restriction_functoriality():
    x, _ = disjoint_union([FREE, FREE])
    f = GMap(x, FREE, (0, 1, 0, 1))
    h = TO_PT
    assert bispan_equivalent(compose(gen_N(h), gen_N(f)), gen_N(compose_maps(h, f)))
    assert bispan_equivalent(compose(gen_R(f), gen_R(h)), gen_R(compose_maps(h, f)))


def test_substitution_example_fold_then_norm():
    a, _ = disjoint_union([FREE, FREE])
    fold = GMap(a, FREE, (0, 1, 0, 1))
    comp = compose(gen_N(TO_PT), gen_T(fold))
    got = fiber_polynomial(comp, 0).poly
    want = substitute_fibers(fiber_polynomial(gen_N(TO_PT), 0).poly, gen_T(fold))
    x0, x1, x2, x3 = (Poly.var(point_var(i)) for i in range(4))
    assert want == (x0 + x2) * (x1 + x3)
    assert got == want


def test_substitution_law_seeded_random():
    rng = random.Random(7)
    checked = 0
    for group in (C2, symmetric(3)):
        while checked < 40 * (1 + (group.order > 2)):
            phi = random_bispan(group, rng, 4)
            psi = random_bispan(group, rng, 4, source=phi.y)
            if not (is_simple(phi) and is_simple(psi)):
                continue
            comp = compose(psi, phi)
            for z in comp.y.points():
                got = fiber_polynomial(comp, z).poly
                want = substitute_fibers(fiber_polynomial(psi, z).poly, phi)
                assert got == want
            checked += 1


def test_simplicity_examples():
    assert is_simple(gen_R(TO_PT)) and is_simple(gen_T(TO_PT)) and is_simple(gen_N(TO_PT))
    # x^2: two points collapsing through one middle point, trivial group
    one = cyclic(1)
    two = trivial_gset(one, 2)
    pt1 = point_gset(one)
    squared = Bispan(GMap(two, pt1, (0, 0)), GMap(two, pt1, (0, 0)), identity_map(pt1))
    assert fiber_polynomial(squared, 0).poly == Poly.var("x0") ** 2
    assert not is_simple(squared)
    # componentwise: disjoint union with a simple bispan stays non-simple
    both = pair(squared, gen_T(identity_map(pt1)))
    assert not is_simple(both)


def test_pair_projections_recover_components():
    f = TO_PT
    g = identity_map(FREE)
    u, v = gen_T(f), gen_T(g)
    paired = pair(u, v)
    y, (i1, i2) = disjoint_union([u.y, v.y])
    assert paired.y == y
    left = compose(gen_R(i1), paired)
    right = compose(gen_R(i2), paired)
    assert bispan_equivalent(left, u)
    assert bispan_equivalent(right, v)


def test_pair_with_zero_bispan():
    u = gen_T(TO_PT)
    z = gen_R(GMap(empty_gset(C2), FREE, ()))  # FREE <- ∅ = ∅ = ∅
    paired = pair(u, z)
    y, (i1, _) = disjoint_union([u.y, z.y])
    recovered = compose(gen_R(i1), paired)
    assert bispan_equivalent(recovered, u)


def test_pair_of_identities_is_restriction_along_fold():
    x = FREE
    both, _ = disjoint_union([x, x])
    fold = GMap(both, x, (0, 1, 0, 1))
    paired = pair(identity_bispan(x), identity_bispan(x))
    assert bispan_equivalent(paired, gen_R(fold))


def _prod_morphism(u, v):
    """u × v on a disjoint union of sources, via projections and pairing."""
    w, (j1, j2) = disjoint_union([u.x, v.x])
    return pair(compose(u, gen_R(j1)), compose(v, gen_R(j2)))


def test_semiring_object_laws():
    # X as a semi-ring object of the bispan category: addition T_fold with
    # unit T over ∅ -> X, multiplication N_fold with unit N over ∅ -> X.
    x = FREE
    both, (i1, i2) = disjoint_union([x, x])
    fold = GMap(both, x, (0, 1, 0, 1))
    empty = empty_gset(C2)
    incl = GMap(empty, x, ())
    add, mul = gen_T(fold), gen_N(fold)
    zero, one = gen_T(incl), gen_N(incl)
    ident = identity_bispan(x)
    terminal = gen_R(incl)  # ∅ is final, so X <- ∅ = ∅ = ∅ is the unique X => ∅

    # commutativity: precomposing with the swap restriction changes nothing
    swap = GMap(both, both, (2, 3, 0, 1))
    assert bispan_equivalent(compose(add, gen_R(swap)), add)
    assert bispan_equivalent(compose(mul, gen_R(swap)), mul)

    # unit laws: fold ∘ <id, unit ∘ terminal> = id
    assert bispan_equivalent(compose(add, pair(ident, compose(zero, terminal))), ident)
    assert bispan_equivalent(compose(mul, pair(ident, compose(one, terminal))), ident)

    # associativity: fold ∘ (fold × id) = fold ∘ (id × fold), transported
    # along the canonical associator (X⊔X)⊔X ≅ X⊔(X⊔X)
    left_src, (jl1, jl2) = disjoint_union([both, x])
    right_src, (jr1, jr2) = disjoint_union([x, both])
    assoc = [0] * right_src.size
    for t in x.points():
        assoc[jr1.images[t]] = jl1.images[i1.images[t]]
        assoc[jr2.images[i1.images[t]]] = jl1.images[i2.images[t]]
        assoc[jr2.images[i2.images[t]]] = jl2.images[t]
    assoc_map = GMap(right_src, left_src, tuple(assoc))
    for op in (add, mul):
        lhs = compose(op, _prod_morphism(op, ident))
        rhs = compose(op, _prod_morphism(ident, op))
        assert lhs.x == left_src and rhs.x == right_src
        transported = compose(rhs, gen_R(assoc_map))
        assert bispan_equivalent(lhs, transported)

    # distributivity: x·(y+z) = x·y + x·z as morphisms X⊔(X⊔X) => X
    w, (j1, j2) = disjoint_union([x, both])
    p1 = gen_R(j1)
    p23 = gen_R(j2)
    p2 = compose(gen_R(i1), p23)
    p3 = compose(gen_R(i2), p23)
    lhs = compose(mul, _prod_morphism(ident, add))
    assert lhs.x == w
    rhs = compose(
        add,
        pair(compose(mul, pair(p1, p2)), compose(mul, pair(p1, p3))),
    )
    assert bispan_equivalent(lhs, rhs)


def test_generators_transform_fiber_polynomials_as_predicted():
    # postcomposing with T_f sums the fiber polynomials over f-fibers,
    # with N_f multiplies them, and with R_g restricts along g
    rng = random.Random(17)
    for _ in range(10):
        phi = random_bispan(C2, rng, 3)
        y = phi.y
        if y.size == 0:
            continue
        polys = [fiber_polynomial(phi, yy).poly for yy in y.points()]
        f = GMap(y, point_gset(C2), (0,) * y.size)
        t_comp = compose(gen_T(f), phi)
        total = Poly()
        for p in polys:
            total = total + p
        assert fiber_polynomial(t_comp, 0).poly == total
        n_comp = compose(gen_N(f), phi)
        prod_poly = Poly.const(1)
        for p in polys:
            prod_poly = prod_poly * p
        assert fiber_polynomial(n_comp, 0).poly == prod_poly
        # restriction along any map into y picks out the fiber polynomial
        for g_src in (y, regular_gset(C2)):
            g = random_gmap(g_src, y, rng)
            if g is None:
                continue
            r_comp = compose(gen_R(g), phi)
            for z in g_src.points():
                assert fiber_polynomial(r_comp, z).poly == polys[g.images[z]]


def test_canonical_factorization_round_trip_examples():
    ident = identity_bispan(FREE)
    assert ident.p.images == ident.q.images == ident.r.images == tuple(FREE.points())
    assert bispan_equivalent(recompose(ident.p, ident.q, ident.r), ident)
    n = gen_N(TO_PT)
    assert n.p.images == tuple(FREE.points())
    assert bispan_equivalent(recompose(n.p, n.q, n.r), n)


def test_canonical_factorization_random_round_trip():
    rng = random.Random(11)
    for group in (C2, symmetric(3)):
        for _ in range(15):
            phi = random_bispan(group, rng, 3)
            assert bispan_equivalent(recompose(phi.p, phi.q, phi.r), phi)


def test_compose_associativity_enumerated_generator_triples():
    # all composable triples of R/T/N generators over map representatives
    # between C2-sets with at most 2 points
    from gwitt.tambara import _automorphisms, _canonical_reps, small_gsets

    objects = small_gsets(C2, 2)
    auts = [_automorphisms(x) for x in objects]
    morphisms = []
    for i, x in enumerate(objects):
        for j, y in enumerate(objects):
            for f in _canonical_reps(x, y, auts[i], auts[j]):
                morphisms.extend((gen_R(f), gen_T(f), gen_N(f)))
    checked = 0
    for phi in morphisms:
        for psi in morphisms:
            if psi.x != phi.y:
                continue
            for chi in morphisms:
                if chi.x != psi.y:
                    continue
                lhs = compose(chi, compose(psi, phi))
                rhs = compose(compose(chi, psi), phi)
                assert bispan_equivalent(lhs, rhs)
                checked += 1
    assert checked > 300


def test_compose_associativity_random_triples():
    rng = random.Random(3)
    for _ in range(12):
        phi = random_bispan(C2, rng, 3)
        psi = random_bispan(C2, rng, 3, source=phi.y)
        chi = random_bispan(C2, rng, 3, source=psi.y)
        lhs = compose(chi, compose(psi, phi))
        rhs = compose(compose(chi, psi), phi)
        assert bispan_equivalent(lhs, rhs)

