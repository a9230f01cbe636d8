"""G-sets, equivariant maps, pullbacks, dependent products, exponential
diagrams."""

import random

import pytest

from gwitt.errors import EquivarianceError, GwittError
from gwitt.groups import (
    Subgroup,
    all_subgroups,
    cyclic,
    dihedral,
    klein_four,
    subconjugacy_poset,
    subgroup_generated,
    symmetric,
)
from gwitt.gsets import (
    MAX_POINTS,
    GMap,
    GSet,
    compose_maps,
    coset_space,
    dependent_product,
    disjoint_union,
    empty_gset,
    equivariant_maps,
    exponential_diagram,
    identity_map,
    induced_gset,
    iso_class_over,
    natural_gset,
    orbit_decompose,
    point_gset,
    product,
    pullback,
    reassemble,
    regular_gset,
    to_point,
    trivial_gset,
)
from gwitt.tambara import small_gsets
from oracles import (
    all_equivariant_maps,
    all_isos_over,
    closure_orbits,
    count_maps_over,
    dict_dependent_product,
    dict_pullback,
    fixed_points,
    gset_iso,
    isos_over,
    loop_product,
    marks_vector,
    poset_leq,
    pullback_pair,
    scanned_fibers,
    scanned_stabilizers,
)
from randgen import random_gmap, random_gset

C2 = cyclic(2)
S3 = symmetric(3)


def test_action_validation():
    with pytest.raises(EquivarianceError):
        GSet(C2, [[1, 0], [1, 0]])  # identity must act trivially
    with pytest.raises(EquivarianceError):
        GSet(cyclic(4), [[0, 1, 2], [1, 2, 0], [0, 1, 2], [1, 2, 0]])


def test_map_validation():
    free = regular_gset(C2)
    with pytest.raises(EquivarianceError):
        GMap(free, free, (0, 0))
    assert sorted(GMap(free, free, (1, 0)).images) == [0, 1]  # the swap
    for images in ((0, 2), (-1, 0)):
        with pytest.raises(GwittError, match="image out of range"):
            GMap(free, free, images)


C3 = cyclic(3)
FREE_C2 = regular_gset(C2)


@pytest.mark.parametrize("build, message", [
    (lambda: GSet(C2, [[0, 1]]), "action table needs one row per group element"),
    (lambda: GSet(C2, [[0, 1], [1]]), "ragged action table"),
    (lambda: GMap(FREE_C2, regular_gset(C3), (0, 1)),
     "source and target live over different groups"),
    (lambda: GMap(FREE_C2, FREE_C2, (0,)), "one image per source point required"),
    (lambda: compose_maps(identity_map(FREE_C2), to_point(FREE_C2)), "maps not composable"),
    (lambda: coset_space(C2, Subgroup(C3, (0,))), "subgroup belongs to a different group"),
    (lambda: natural_gset(C3), "group carries no permutation representation"),
    (lambda: disjoint_union([]), "disjoint union of no parts needs an ambient group"),
    (lambda: induced_gset(S3, subgroup_generated(S3, [1]), regular_gset(S3)),
     "fiber must be a set over the subgroup"),
    (lambda: pullback(identity_map(FREE_C2), to_point(FREE_C2)),
     "pullback needs a common target"),
    (lambda: dependent_product(to_point(FREE_C2), to_point(FREE_C2)),
     "dependent product needs p: A -> X and f: X -> Y"),
], ids=["rows", "ragged", "map-groups", "map-images", "compose", "coset-space",
        "natural", "empty-union", "induced-fiber", "pullback", "dependent-product"])
def test_constructions_refuse_mismatched_input(build, message):
    with pytest.raises(GwittError) as exc:
        build()
    assert str(exc.value) == message


def test_orbit_decompose_examples():
    assert orbit_decompose(regular_gset(C2)) == (0,)
    assert orbit_decompose(trivial_gset(C2, 3)) == (1, 1, 1)
    nat = natural_gset(S3)
    p3 = subconjugacy_poset(S3)
    (idx,) = orbit_decompose(nat)
    assert p3.classes[idx].order == 2


def test_fixed_points_examples():
    free = regular_gset(C2)
    e = Subgroup(C2, (0,))
    full = Subgroup(C2, (0, 1))
    assert fixed_points(free, e) == 2
    assert fixed_points(free, full) == 0
    assert fixed_points(point_gset(C2), full) == 1
    # (S3/C2)^(C2) = 1 for the defining C2
    two = subgroup_generated(S3, [1])
    cosets = coset_space(S3, two)
    assert fixed_points(cosets, two) == 1


def test_fixed_points_constant_on_classes():
    p3 = subconjugacy_poset(S3)
    x = disjoint_union([natural_gset(S3), trivial_gset(S3, 2)])[0]
    for cls in p3.classes:
        values = {fixed_points(x, m) for m in cls.members}
        assert len(values) == 1


def test_leq_matches_fixed_point_positivity():
    for group in (C2, S3, cyclic(4)):
        poset = subconjugacy_poset(group)
        for j, ck in enumerate(poset.classes):
            gk = coset_space(group, ck.rep)
            for i, ch in enumerate(poset.classes):
                assert poset_leq(poset, i, j) == (fixed_points(gk, ch.rep) > 0)


def test_iso_over_examples():
    free = regular_gset(C2)
    pt = point_gset(C2)
    f = GMap(free, pt, (0, 0))
    # the identity first, then the swap
    assert [h.images for h in isos_over(f, f)] == [(0, 1), (1, 0)]
    # two free orbits over a point in either labeling
    a1, _ = disjoint_union([free, free])
    g1 = GMap(a1, pt, (0,) * 4)
    isos = [h.images for h in isos_over(g1, g1)]
    assert len(isos) == 8 and isos[0] == (0, 1, 2, 3)
    # free orbit vs two fixed points: no isomorphism over the point
    fixed = trivial_gset(C2, 2)
    assert iso_class_over(free, f.images) != iso_class_over(fixed, (0, 0))
    assert list(isos_over(f, GMap(fixed, pt, (0, 0)))) == []
    # the same orbits over different labels: no isomorphism over a two-point base
    both, _ = disjoint_union([free, fixed])
    assert iso_class_over(both, (0, 0, 0, 1)) != iso_class_over(both, (0, 0, 1, 1))
    assert list(isos_over(GMap(both, fixed, (0, 0, 0, 1)), GMap(both, fixed, (0, 0, 1, 1)))) == []


def test_orbit_reassembly_is_isomorphic():
    for x in (natural_gset(S3), disjoint_union([natural_gset(S3), trivial_gset(S3, 1)])[0]):
        poset = subconjugacy_poset(S3)
        rebuilt = reassemble(S3, orbit_decompose(x))
        assert marks_vector(rebuilt, poset) == marks_vector(x, poset)
        assert gset_iso(x, rebuilt) is not None


def test_pullback_examples():
    free = regular_gset(C2)
    pt = point_gset(C2)
    to_pt = GMap(free, pt, (0, 0))
    # along the identity: isomorphic copy
    pb = pullback(to_pt, identity_map(pt))
    assert pb.gset.size == free.size
    # over a point: the product
    pb2 = pullback(to_pt, to_pt)
    assert pb2.gset.size == 4
    assert orbit_decompose(pb2.gset) == (0, 0)
    # universal property via the induced pairing
    w = regular_gset(C2)
    m1 = GMap(w, free, (0, 1))
    m2 = GMap(w, free, (1, 0))
    paired = pullback_pair(pb2, m1, m2)
    assert compose_maps(pb2.to_x, paired).images == m1.images
    assert compose_maps(pb2.to_a, paired).images == m2.images


def test_product_and_disjoint_union_sizes():
    x = trivial_gset(C2, 2)
    y = regular_gset(C2)
    prod, pr1, pr2 = product(x, y)
    assert prod.size == 4
    assert {(pr1.images[i], pr2.images[i]) for i in prod.points()} == \
           {(a, b) for a in range(2) for b in range(2)}
    both, (i1, i2) = disjoint_union([x, y])
    assert both.size == 4
    assert set(i1.images) | set(i2.images) == set(range(4))


def test_constructions_refuse_more_than_max_points():
    assert MAX_POINTS == 10_000
    c1 = cyclic(1)
    hundred, over = trivial_gset(c1, 100), trivial_gset(c1, 101)
    assert product(hundred, hundred)[0].size == MAX_POINTS
    assert pullback(to_point(hundred), to_point(hundred)).gset.size == MAX_POINTS
    with pytest.raises(GwittError, match="the product would have more than 10000 points"):
        product(hundred, over)
    with pytest.raises(GwittError, match="the pullback would have more than 10000 points"):
        pullback(to_point(hundred), to_point(over))

    def sections(n_points, empty_fibers=0):
        """Pi_f of p: A -> X with two points over each of n_points points of X
        and none over `empty_fibers` more, and f: X -> pt."""
        x = trivial_gset(c1, n_points + empty_fibers)
        a = trivial_gset(c1, 2 * n_points)
        p = GMap(a, x, tuple(i // 2 for i in a.points()))
        return dependent_product(p, to_point(x)).gset.size

    assert sections(13) == 2 ** 13
    assert sections(20, empty_fibers=1) == 0  # counted exactly, not refused
    with pytest.raises(GwittError, match="the dependent product would have more than 10000"):
        sections(14)


def test_dependent_product_fold_example():
    free = regular_gset(C2)
    pt = point_gset(C2)
    f = GMap(free, pt, (0, 0))
    a, _ = disjoint_union([free, free])
    fold = GMap(a, free, (0, 1, 0, 1))
    dp = dependent_product(fold, f)
    assert dp.gset.size == 4
    assert marks_vector(dp.gset) == (4, 2)
    assert orbit_decompose(dp.gset) == (0, 1, 1)


def test_dependent_product_identity_and_empty():
    free = regular_gset(C2)
    dp = dependent_product(identity_map(free), identity_map(free))
    assert gset_iso(dp.gset, free) is not None
    # empty fiber forces an empty product over every point it meets
    pt = point_gset(C2)
    empty = empty_gset(C2)
    p = GMap(empty, free, ())
    f = GMap(free, pt, (0, 0))
    dp2 = dependent_product(p, f)
    assert dp2.gset.size == 0
    # and with no points upstairs of an isolated base point: one empty section
    dp3 = dependent_product(GMap(empty, empty, ()), GMap(empty, pt, ()))
    assert dp3.gset.size == 1


def test_dependent_product_fiber_cardinality_formula():
    rng_cases = []
    free = regular_gset(C2)
    two = trivial_gset(C2, 2)
    x, _ = disjoint_union([free, two])
    pt = point_gset(C2)
    f = GMap(x, pt, (0,) * 4)
    for a, p in [
        (x, identity_map(x)),
        (disjoint_union([free, free, two])[0],
         GMap(disjoint_union([free, free, two])[0], x, (0, 1, 0, 1, 2, 3))),
    ]:
        dp = dependent_product(p, f)
        for yy in pt.points():
            expected = 1
            for xx in f.fiber(yy):
                expected *= len(p.fiber(xx))
            got = sum(1 for i, (y0, _) in enumerate(dp.sections) if y0 == yy)
            assert got == expected


def test_exponential_diagram_commutes_and_is_pullback():
    free = regular_gset(C2)
    pt = point_gset(C2)
    a, _ = disjoint_union([free, free])
    fold = GMap(a, free, (0, 1, 0, 1))
    f = GMap(free, pt, (0, 0))
    ed = exponential_diagram(fold, f)
    w, pi = ed.e.source, ed.pi_p.source
    for t in w.points():
        assert f.images[fold.images[ed.e.images[t]]] == ed.pi_p.images[ed.f_prime.images[t]]
    got = sorted(
        (fold.images[ed.e.images[t]], ed.f_prime.images[t]) for t in w.points()
    )
    want = sorted(
        (xx, s) for xx in free.points() for s in pi.points()
        if f.images[xx] == ed.pi_p.images[s]
    )
    assert got == want
    # evaluation: e(x, s) = s(x), s aligned with the fiber of f through x
    sections = dependent_product(fold, f).sections
    for t in w.points():
        xx, (yy, values) = fold.images[ed.e.images[t]], sections[ed.f_prime.images[t]]
        assert ed.e.images[t] == values[f.fibers()[yy].index(xx)]

    # f = identity makes e an isomorphism
    ed2 = exponential_diagram(fold, identity_map(free))
    assert sorted(ed2.e.images) == list(ed2.e.target.points())


def _all_small_c2_gsets(max_size):
    out = []
    free = regular_gset(C2)
    for n_free in range(max_size // 2 + 1):
        for n_triv in range(max_size - 2 * n_free + 1):
            parts = [free] * n_free + [trivial_gset(C2, 1)] * n_triv
            if not parts:
                out.append(empty_gset(C2))
            else:
                out.append(disjoint_union(parts)[0] if len(parts) > 1 else parts[0])
    return out


def test_adjunction_cardinality_exhaustive_small():
    # maps over Y into Pi_f A correspond to maps over X into A
    objects = _all_small_c2_gsets(3)
    for x in objects:
        for y in objects:
            for f in equivariant_maps(x, y):
                for a in objects:
                    for p in equivariant_maps(a, x):
                        dp = dependent_product(p, f)
                        for b in objects:
                            for bmap in equivariant_maps(b, y):
                                lhs = count_maps_over(bmap, dp.to_y)
                                pb = pullback(bmap, f)
                                rhs = count_maps_over(pb.to_x, p)
                                assert lhs == rhs


def test_adjunction_cardinality_sampled_at_size_four():
    rng = random.Random(41)
    done = 0
    while done < 150:
        a = random_gset(C2, rng, 4)
        x = random_gset(C2, rng, 4)
        y = random_gset(C2, rng, 4)
        b = random_gset(C2, rng, 4)
        p = random_gmap(a, x, rng)
        f = random_gmap(x, y, rng)
        bmap = random_gmap(b, y, rng)
        if p is None or f is None or bmap is None:
            continue
        dp = dependent_product(p, f)
        assert count_maps_over(bmap, dp.to_y) == \
            count_maps_over(pullback(bmap, f).to_x, p)
        done += 1


def test_induced_gset_matches_coset_structure():
    c3 = next(s for s in all_subgroups(S3) if s.order == 3)
    sub_group, _ = c3.as_group()
    fiber = regular_gset(sub_group)
    total, proj = induced_gset(S3, c3, fiber)
    assert total.size == 6
    assert orbit_decompose(total) == (0,)  # induced free H-set is free
    # trivial one-point fiber induces G/H itself
    total2, proj2 = induced_gset(S3, c3, trivial_gset(sub_group, 1))
    assert gset_iso(total2, coset_space(S3, c3)) is not None


def test_constructed_action_tables_are_valid_actions():
    # constructions skip validation for speed; re-validate their tables here
    rng = random.Random(31)
    for group in (C2, S3):
        pt = point_gset(group)
        for _ in range(8):
            x = random_gset(group, rng, 4)
            a = random_gset(group, rng, 4)
            p = random_gmap(a, x, rng)
            if p is None:
                continue
            f = random_gmap(x, pt, rng)
            GSet(group, x.act_table)  # validates
            pb = pullback(p, identity_map(x))
            GSet(group, pb.gset.act_table)
            dp = dependent_product(p, f)
            GSet(group, dp.gset.act_table)
            GMap(dp.to_y.source, dp.to_y.target, dp.to_y.images)  # equivariance
            ed = exponential_diagram(p, f)
            GSet(group, ed.e.source.act_table)
            GMap(ed.e.source, ed.e.target, ed.e.images)
        c3_like = [s for s in all_subgroups(group) if 1 < s.order < group.order]
        for sub in c3_like[:2]:
            sub_group, _ = sub.as_group()
            total, proj = induced_gset(group, sub, regular_gset(sub_group))
            GSet(group, total.act_table)
            GMap(proj.source, proj.target, proj.images)


def test_empty_gset_is_handled_by_every_operation():
    empty = empty_gset(C2)
    pt = point_gset(C2)
    assert orbit_decompose(empty) == ()
    assert marks_vector(empty) == (0, 0)
    assert list(equivariant_maps(empty, pt)) == [GMap(empty, pt, ())]
    assert list(equivariant_maps(pt, empty)) == []
    both, _ = disjoint_union([empty, pt])
    assert both.size == 1
    prod, _, _ = product(empty, pt)
    assert prod.size == 0
    assert iso_class_over(empty, ()) == {}
    assert [h.images for h in isos_over(GMap(empty, pt, ()), GMap(empty, pt, ()))] == [()]
    pb = pullback(GMap(empty, pt, ()), GMap(pt, pt, (0,)))
    assert pb.gset.size == 0


def test_count_maps_over_agrees_with_enumeration():
    free = regular_gset(C2)
    pt = point_gset(C2)
    x, _ = disjoint_union([free, trivial_gset(C2, 2)])
    b = trivial_gset(C2, 2)
    bmap = GMap(b, pt, (0, 0))
    tmap = GMap(x, pt, (0,) * 4)
    explicit = sum(
        1 for m in equivariant_maps(b, x)
        if compose_maps(tmap, m).images == bmap.images
    )
    assert count_maps_over(bmap, tmap) == explicit


@pytest.mark.parametrize("group", [C2, cyclic(4), klein_four(), S3, dihedral(4)],
                         ids=lambda g: g.name)
def test_stabilizers_and_fibers_match_the_scan_oracle(group):
    rng = random.Random(f"point-data:{group.name}")
    for _ in range(20):
        a = random_gset(group, rng, 12)
        x = random_gset(group, rng, 12)
        assert a.stabilizers() == scanned_stabilizers(a)
        assert all(a.stabilizer(p).elements == tuple(sorted(s))
                   for p, s in enumerate(scanned_stabilizers(a)))
        for y in (a, x):
            assert [points for points, _ in y.orbits()] == \
                [points for points, _ in closure_orbits(y)]
            for points, transporter in y.orbits():
                assert transporter[points[0]] == 0  # the identity
                assert all(y.act_table[g][points[0]] == u for u, g in transporter.items())
        f = random_gmap(a, x, rng)
        if f is not None:
            assert f.fibers() == scanned_fibers(f)
            assert all(f.fiber(y) == fiber for y, fiber in enumerate(scanned_fibers(f)))


@pytest.mark.parametrize("group", [C2, cyclic(3), klein_four(), S3], ids=lambda g: g.name)
def test_map_searches_match_the_brute_force_oracle(group):
    # both searches yield in ascending order of images, which fixes the
    # canonical representatives and witnesses of the Tambara checker
    objects = small_gsets(group, 4)
    maps_into = {}
    for a in objects:
        for x in objects:
            maps = list(equivariant_maps(a, x))
            assert [m.images for m in maps] == all_equivariant_maps(a, x)
            maps_into.setdefault(x, []).extend(maps)
    rng = random.Random(f"isos:{group.name}")
    for _ in range(150):
        f = rng.choice(maps_into[rng.choice(objects)])
        g = rng.choice([g for g in maps_into[f.target] if g.source.size == f.source.size])
        for other in (f, g):
            assert [h.images for h in isos_over(f, other)] == all_isos_over(f, other)
            assert (iso_class_over(f.source, f.images)
                    == iso_class_over(other.source, other.images)) == bool(all_isos_over(f, other))
            assert count_maps_over(f, other) == sum(
                1 for images in all_equivariant_maps(f.source, other.source)
                if all(other.images[images[u]] == f.images[u] for u in f.source.points())
            )


def _seeded_maps(group, rng, budget, count):
    """`count` seeded maps between the G-sets of at most `budget` points."""
    objects = small_gsets(group, budget)
    maps = []
    while len(maps) < count:
        f = random_gmap(rng.choice(objects), rng.choice(objects), rng)
        if f is not None:
            maps.append(f)
    return maps


@pytest.mark.parametrize("group", [C2, S3, dihedral(4)], ids=["C2", "S3", "D4"])
def test_pullback_and_dependent_product_match_the_dict_oracles(group):
    # index arithmetic against the tuple-keyed constructions, on seeded maps
    # with shared targets, empty fibers and fibers of several points
    rng = random.Random(f"constructions:{group.name}")
    maps = _seeded_maps(group, rng, 6, 60)
    by_target, by_source = {}, {}
    for m in maps:
        by_target.setdefault(m.target, []).append(m)
        by_source.setdefault(m.source, []).append(m)
    pullbacks = products = 0
    for f in maps:
        got, want = product(f.source, f.target), loop_product(f.source, f.target)
        assert got == want
        for g in by_target[f.target][:4]:
            got, want = pullback(f, g), dict_pullback(f, g)
            assert got.gset == want.gset and got.points == want.points
            assert got.to_x == want.to_x and got.to_a == want.to_a
            pullbacks += 1
        for h in by_source.get(f.target, [])[:4]:
            got, want = dependent_product(f, h), dict_dependent_product(f, h)
            assert got.gset == want.gset and got.sections == want.sections
            assert got.to_y == want.to_y
            products += 1
    assert pullbacks >= 60 and products >= 20
