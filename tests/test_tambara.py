"""Tambara instances and the relation checker."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from gwitt.errors import EquivarianceError, GwittError
from gwitt.groups import cyclic, dihedral, klein_four, subconjugacy_poset, symmetric
from gwitt.gsets import (
    GMap,
    GSet,
    coset_space,
    disjoint_union,
    empty_gset,
    equivariant_maps,
    identity_map,
    natural_gset,
    point_gset,
    regular_gset,
    to_point,
)
from gwitt.tambara import (
    RELATION_NAMES,
    BurnsideOverInstance,
    InvariantRingInstance,
    MutatedInstance,
    _automorphisms,
    _canonical_reps,
    _single_maps,
    check_tambara_axioms,
    small_gsets,
)
from oracles import (
    all_equivariant_maps,
    all_isos_over,
    check_value,
    gset_iso,
    iso_over_eq,
    level_rank,
    min_relabeling_reps,
)

C2 = cyclic(2)
S3 = symmetric(3)


def test_invariant_structure_maps_examples():
    base = regular_gset(C2)
    inst = InvariantRingInstance(C2, base)
    free = regular_gset(C2)
    pt = point_gset(C2)
    f = GMap(free, pt, (0, 0))
    ident = identity_map(free)
    v = ((1, 0), (0, 1))  # x -> indicator of x, equivariant
    check_value(inst, free, v)
    assert inst.restrict(ident, v) == v
    assert inst.transfer(ident, v) == v
    assert inst.norm(ident, v) == v
    # transfer = fiber sums, norm = fiber products
    assert inst.transfer(f, v) == ((1, 1),)
    assert inst.norm(f, v) == ((0, 0),)
    check_value(inst, pt, inst.norm(f, v))
    # empty fibers: transfer gives 0, norm gives 1
    empty = empty_gset(C2)
    emap = GMap(empty, pt, ())
    assert inst.transfer(emap, ()) == ((0, 0),)
    assert inst.norm(emap, ()) == ((1, 1),)


def test_invariant_values_reject_non_equivariant():
    inst = InvariantRingInstance(C2, regular_gset(C2))
    with pytest.raises(EquivarianceError):
        check_value(inst, regular_gset(C2), ((1, 0), (1, 0)))


def test_level_rank_matches_orbit_count():
    # rank of the level at G/H = number of H-orbits of the base
    for group, base in ((C2, regular_gset(C2)), (S3, natural_gset(S3))):
        inst = InvariantRingInstance(group, base)
        poset = subconjugacy_poset(group)
        for cls in poset.classes:
            level = coset_space(group, cls.rep)
            h_elems = cls.rep.elements
            seen, orbits = set(), 0
            for pt in base.points():
                if pt in seen:
                    continue
                orbit = {pt}
                frontier = [pt]
                while frontier:
                    new = []
                    for u in frontier:
                        for g in h_elems:
                            w = base.act_table[g][u]
                            if w not in orbit:
                                orbit.add(w)
                                new.append(w)
                    frontier = new
                seen |= orbit
                orbits += 1
            assert level_rank(inst, level) == orbits


@pytest.mark.parametrize("group, make_base", [
    (C2, regular_gset), (S3, regular_gset), (S3, natural_gset),
], ids=["C2-regular", "S3-regular", "S3-natural"])
def test_sampled_values_are_equivariant(group, make_base):
    # every level the checker samples at budget <= 4
    rng = random.Random(0)
    inst = InvariantRingInstance(group, make_base(group))
    for x in small_gsets(group, 4):
        for v in inst.sampler(x)(rng, 3):
            check_value(inst, x, v)


@pytest.mark.parametrize("group", [C2, S3], ids=["C2", "S3"])
def test_map_representatives_match_the_min_relabeling_oracle(group):
    objects = small_gsets(group, 4)
    auts = [_automorphisms(x) for x in objects]
    for i, x in enumerate(objects):
        for j, y in enumerate(objects):
            got = _canonical_reps(x, y, auts[i], auts[j])
            want = min_relabeling_reps(x, y, auts[i], auts[j])
            assert [f.images for f in got] == [f.images for f in want], (i, j)


@pytest.mark.parametrize("group", [cyclic(1), C2], ids=lambda g: g.name)
def test_each_class_of_single_maps_is_enumerated_once(group):
    """The coverage the checker guarantees: up to isomorphism of source and
    target, every map X -> Y of G-sets of at most 3 points is tested
    exactly once.  Classes are the orbits of all maps under every pair of
    automorphisms, both found by brute force.  Composable pairs X -> Y -> Z
    are only pairs of such representatives and miss some classes."""
    objects = small_gsets(group, 3)
    for i, x in enumerate(objects):
        for y in objects[i + 1:]:
            assert gset_iso(x, y) is None
    auts = [_automorphisms(x) for x in objects]
    maps = {(i, j): _canonical_reps(x, y, auts[i], auts[j])
            for i, x in enumerate(objects) for j, y in enumerate(objects)}
    enumerated = Counter((objects.index(d.x), objects.index(d.y), d.f.images)
                         for d in _single_maps(objects, maps))
    classes = 0
    for i, x in enumerate(objects):
        relabel_x = all_isos_over(to_point(x), to_point(x))
        for j, y in enumerate(objects):
            relabel_y = all_isos_over(to_point(y), to_point(y))
            unswept = set(all_equivariant_maps(x, y))
            while unswept:
                f = min(unswept)
                orbit = {tuple(beta[f[alpha[u]]] for u in x.points())
                         for alpha in relabel_x for beta in relabel_y}
                unswept -= orbit
                classes += 1
                assert sum(enumerated[(i, j, g)] for g in orbit) == 1, (i, j, f)
    assert sum(enumerated.values()) == classes


@pytest.mark.parametrize("group", [C2, cyclic(4), klein_four(), S3, dihedral(4)],
                         ids=lambda g: g.name)
def test_automorphisms_match_the_brute_force_oracle(group):
    # the same maps in the same order: the order fixes the canonical
    # representatives of _canonical_reps
    for x in small_gsets(group, 4):
        assert [f.images for f in _automorphisms(x)] == all_isos_over(to_point(x), to_point(x))


def test_burnside_instance_operations():
    inst = BurnsideOverInstance(C2)
    free = regular_gset(C2)
    pt = point_gset(C2)
    f = GMap(free, pt, (0, 0))
    one = inst.one(free)
    # restriction of the unit is the unit
    assert inst.eq(free, inst.restrict(f, inst.one(pt)), one)
    # norm of (2 points over each fiber) along C2/e -> pt = Map(C2, 2) : 4 points
    a, _ = disjoint_union([free, free])
    v = (a, GMap(a, free, (0, 1, 0, 1)))
    normed = inst.norm(f, v)
    assert normed[0].size == 4
    # additive/multiplicative units behave
    zero = inst.zero(free)
    assert inst.eq(free, inst.add(free, v, zero), v)
    assert inst.eq(free, inst.mul(free, v, one), v)


def test_checker_passes_for_both_instances_small_budget():
    inst = InvariantRingInstance(C2, regular_gset(C2))
    report = check_tambara_axioms(inst, budget=3, seed=1)
    assert report.ok
    assert {c.relation for c in report.checks} == {
        "restriction-functorial", "transfer-functorial", "norm-functorial",
        "restriction-ring-homomorphism", "transfer-additive",
        "norm-multiplicative", "transfer-base-change", "norm-base-change",
        "exponential-distributivity",
    }
    assert report.instances_checked == 3604
    binst = BurnsideOverInstance(C2)
    report2 = check_tambara_axioms(binst, budget=3, seed=1)
    assert report2.ok
    assert report2.instances_checked == 3604


def test_mutated_instance_fails_with_witness():
    inst = InvariantRingInstance(C2, regular_gset(C2))
    mutated = MutatedInstance(inst)
    report = check_tambara_axioms(
        mutated, budget=3, seed=1, relations=("exponential-distributivity",)
    )
    assert not report.ok
    (check,) = [c for c in report.checks if c.status == "fail"]
    assert check.relation == "exponential-distributivity"
    assert check.witness is not None
    assert {"diagram", "value", "lhs", "rhs"} <= set(check.witness)


# Per-relation law counts at budget 3 over C2; they depend only on the
# enumerated diagrams, so both instances share them.  They add up to the
# 3604 of the full run in test_checker_passes_for_both_instances_small_budget.
C2_BUDGET3_COUNTS = {
    "restriction-functorial": 444,
    "transfer-functorial": 444,
    "norm-functorial": 444,
    "restriction-ring-homomorphism": 324,
    "transfer-additive": 180,
    "norm-multiplicative": 180,
    "transfer-base-change": 572,
    "norm-base-change": 572,
    "exponential-distributivity": 444,
}


@pytest.mark.parametrize("make", [
    lambda: InvariantRingInstance(C2, regular_gset(C2)),
    lambda: BurnsideOverInstance(C2),
], ids=["invariant", "burnside"])
def test_checker_counts_per_relation(make):
    inst = make()
    for relation in RELATION_NAMES:
        report = check_tambara_axioms(inst, budget=3, seed=1, relations=(relation,))
        assert report.ok
        assert report.instances_checked == C2_BUDGET3_COUNTS[relation], relation


def test_mutated_witness_is_pinned():
    mutated = MutatedInstance(InvariantRingInstance(C2, regular_gset(C2)))
    report = check_tambara_axioms(
        mutated, budget=3, seed=0, relations=("exponential-distributivity",)
    )
    assert report.instances_checked == 444
    (check,) = report.checks
    assert check.status == "fail"
    assert check.witness == {
        "diagram": "p=1->2:(0,) f=2->1:(0, 0)",
        "value": "[[-3, -3]]",
        "lhs": "[[0, 0]]",
        "rhs": "[[-3, -3]]",
    }
    full = check_tambara_axioms(mutated, budget=3, seed=0)
    assert {c.relation for c in full.checks if c.status == "fail"} == {
        "exponential-distributivity", "norm-multiplicative",
    }


def test_ring_map_witness_names_the_pair_of_values():
    # a restriction that squares its values keeps 1 but not sums, so the
    # witness is a pair law, whose value text names both values
    inst = InvariantRingInstance(C2, regular_gset(C2))
    exact = inst.restrict

    def squared(f, v):
        w = exact(f, v)
        return inst.mul(f.source, w, w)

    inst.restrict = squared
    report = check_tambara_axioms(inst, budget=2, seed=0,
                                  relations=("restriction-ring-homomorphism",))
    assert report.ok is False
    assert report.checks[0].witness == {
        "diagram": "R along 1->1:(0,)",
        "value": "[[-2, -2]], [[-2, -2]]",
        "lhs": "[[16, 16]]",
        "rhs": "[[8, 8]]",
    }


def test_negative_budget_is_rejected():
    inst = InvariantRingInstance(C2, regular_gset(C2))
    with pytest.raises(GwittError):
        check_tambara_axioms(inst, budget=-1)


def test_report_json_is_sorted_and_complete():
    inst = InvariantRingInstance(C2, regular_gset(C2))
    report = check_tambara_axioms(inst, budget=2, seed=0)
    payload = report.to_json()
    assert payload["schema"] == 1
    names = [c["relation"] for c in payload["checks"]]
    assert names == sorted(names)
    assert payload["ok"] is True


def test_burnside_instance_is_functorial_through_bispan_composition():
    # applying R_p, N_q, T_r of a composite bispan agrees with applying the
    # two factors in turn; exercises the composition pipeline at the level
    # of actual G-sets-over-X, where the group action is visible
    from randgen import random_bispan

    from gwitt.bispans import compose

    def apply_bispan(inst, phi, value):
        return inst.transfer(
            phi.r, inst.norm(phi.q, inst.restrict(phi.p, value))
        )

    rng = random.Random(23)
    for group in (C2, S3):
        inst = BurnsideOverInstance(group)
        done = 0
        while done < 12:
            phi = random_bispan(group, rng, 3)
            psi = random_bispan(group, rng, 3, source=phi.y)
            comp = compose(psi, phi)
            for value in inst.sampler(phi.x)(rng, 2):
                stepwise = apply_bispan(inst, psi, apply_bispan(inst, phi, value))
                direct = apply_bispan(inst, comp, value)
                assert inst.eq(comp.y, stepwise, direct)
            done += 1


def test_small_gsets_enumeration_counts():
    # C2 orbits have sizes 1 and 2: multisets with total <= 4
    assert len(small_gsets(C2, 4)) == 9
    sizes = sorted(x.size for x in small_gsets(C2, 2))
    assert sizes == [0, 1, 2, 2]


def _digest(report) -> str:
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# Whole-report digests with seed 0: every verdict, witness and count of these
# runs is pinned, so a faster checker must draw and compare exactly as before.
@pytest.mark.parametrize("make, budget, digest", [
    (lambda: BurnsideOverInstance(C2), 4, "ceba0f7ad1011b95"),
    (lambda: BurnsideOverInstance(S3), 3, "f9407792f478911e"),
    (lambda: InvariantRingInstance(S3, natural_gset(S3)), 4, "df96df530bb90c2b"),
    (lambda: MutatedInstance(InvariantRingInstance(C2, regular_gset(C2))), 3,
     "ef8707a5a49603b6"),
    (lambda: MutatedInstance(BurnsideOverInstance(C2)), 3, "37b117c140b20e67"),
], ids=["burnside-C2", "burnside-S3", "invariant-S3", "mutated-invariant-C2",
        "mutated-burnside-C2"])
def test_report_digest_is_pinned(make, budget, digest):
    assert _digest(check_tambara_axioms(make(), budget=budget, seed=0)) == digest


def test_mutated_burnside_witness_is_pinned():
    report = check_tambara_axioms(MutatedInstance(BurnsideOverInstance(C2)), budget=3,
                                  seed=0, relations=("exponential-distributivity",))
    (check,) = report.checks
    assert check.witness == {
        "diagram": "p=1->2:(0,) f=2->1:(0, 0)",
        "value": "(4 points over 1: (0, 0, 0, 0))",
        "lhs": "(0 points over 1: ())",
        "rhs": "(4 points over 1: (0, 0, 0, 0))",
    }


def _relabeled(value, rng):
    """An isomorphic copy of the Burnside value (A, p) with A's points
    shuffled: point u of A is point perm[u] of the copy."""
    a, p = value
    perm = list(a.points())
    rng.shuffle(perm)
    inv = sorted(a.points(), key=perm.__getitem__)
    b = GSet(a.group, [[perm[row[inv[k]]] for k in a.points()] for row in a.act_table])
    return (b, GMap(b, p.target, [p.images[inv[k]] for k in b.points()]))


@pytest.mark.parametrize("group", [C2, S3, dihedral(4)], ids=["C2", "S3", "D4"])
def test_burnside_eq_matches_the_iso_over_oracle(group):
    # G-sets over each small level, with shuffled copies of them, compared
    # pairwise wherever the sizes agree
    inst = BurnsideOverInstance(group)
    rng = random.Random(f"eq:{group.name}")
    verdicts = Counter()
    for x in small_gsets(group, 2):
        values = [(a, f) for a in small_gsets(group, 4)
                  for f in itertools.islice(equivariant_maps(a, x), 3)]
        values += [_relabeled(v, rng) for v in values]
        for u, v in itertools.product(values, repeat=2):
            if u[0].size == v[0].size:
                equal = iso_over_eq(u, v)
                assert inst.eq(x, u, v) == equal
                verdicts[equal, u[1].images == v[1].images] += 1
    assert min(verdicts.values()) > 20, verdicts


def test_burnside_eq_tells_stabilizers_apart():
    # same size over the point (one fiber), different stabilizers: never equal
    c2, c3 = (coset_space(S3, c.rep) for c in subconjugacy_poset(S3).classes[1:3])

    def copies(x, n):
        return disjoint_union([x] * n)[0]

    pairs = [
        (regular_gset(C2), copies(point_gset(C2), 2)),
        (c3, copies(point_gset(S3), 2)),
        (c2, copies(point_gset(S3), 3)),
        (regular_gset(S3), copies(c2, 2)),
        (regular_gset(S3), copies(c3, 3)),
    ]
    for a, b in pairs:
        inst, pt = BurnsideOverInstance(a.group), point_gset(a.group)
        u, v = (a, GMap(a, pt, (0,) * a.size)), (b, GMap(b, pt, (0,) * b.size))
        assert a.size == b.size
        assert not inst.eq(pt, u, v) and not iso_over_eq(u, v)
        assert inst.eq(pt, u, u) and inst.eq(pt, v, v)
