"""Tambara instances and the relation checker."""

import random

import pytest

from gwitt.errors import EquivarianceError, GwittError
from gwitt.groups import cyclic, subconjugacy_poset, symmetric
from gwitt.gsets import (
    GMap,
    coset_space,
    disjoint_union,
    empty_gset,
    identity_map,
    natural_gset,
    point_gset,
    regular_gset,
)
from gwitt.tambara import (
    RELATION_NAMES,
    BurnsideOverInstance,
    InvariantRingInstance,
    MutatedInstance,
    _automorphisms,
    _canonical_reps,
    check_tambara_axioms,
    small_gsets,
)
from oracles import check_value, level_rank, min_relabeling_reps

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
        for v in inst.sample_values(x, rng, 3):
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
    import random as _random

    from randgen import random_bispan

    from gwitt.bispans import compose

    def apply_bispan(inst, phi, value):
        return inst.transfer(
            phi.r, inst.norm(phi.q, inst.restrict(phi.p, value))
        )

    rng = _random.Random(23)
    for group in (C2, S3):
        inst = BurnsideOverInstance(group)
        done = 0
        while done < 12:
            phi = random_bispan(group, rng, 3)
            psi = random_bispan(group, rng, 3, source=phi.y)
            comp = compose(psi, phi)
            for value in inst.sample_values(phi.x, rng, 2):
                stepwise = apply_bispan(inst, psi, apply_bispan(inst, phi, value))
                direct = apply_bispan(inst, comp, value)
                assert inst.eq(comp.y, stepwise, direct)
            done += 1


def test_small_gsets_enumeration_counts():
    # C2 orbits have sizes 1 and 2: multisets with total <= 4
    assert len(small_gsets(C2, 4)) == 9
    sizes = sorted(x.size for x in small_gsets(C2, 2))
    assert sizes == [0, 1, 2, 2]
