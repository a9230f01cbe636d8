"""Groups, subgroup enumeration, and the subconjugacy poset."""

import pytest

from gwitt.errors import GroupOrderError, GwittError
from gwitt.groups import (
    Group,
    Subgroup,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    group_from_generators,
    klein_four,
    subconjugacy_poset,
    subgroup_generated,
    subgroup_index,
    symmetric,
    trivial_subgroup,
)
from oracles import (
    brute_force_subgroups,
    conjugates,
    containment_leq,
    elementary_abelian_2,
    join_closure_subgroups,
    s4_x_c2,
)

# the larger groups of the benchmark ladder, up to the order-64 cap
LADDER = [symmetric(4), elementary_abelian_2(4), s4_x_c2(), dihedral(32)]


def test_group_from_generators_examples():
    c2 = group_from_generators([(1, 0)])
    assert c2.order == 2
    s3 = group_from_generators([(1, 2, 0), (1, 0, 2)])
    assert s3.order == 6
    trivial = group_from_generators([], n_points=1)
    assert trivial.order == 1


def test_group_from_generators_brute_force_closure_oracle():
    # independent closure oracle: multiply words until nothing new appears
    gens = [(1, 2, 0), (1, 0, 2)]
    seen = {(0, 1, 2)}
    grew = True
    while grew:
        grew = False
        for a in list(seen):
            for g in gens:
                prod = tuple(a[g[i]] for i in range(3))
                if prod not in seen:
                    seen.add(prod)
                    grew = True
    assert group_from_generators(gens).order == len(seen) == 6


def test_generator_relabeling_invariance():
    a = group_from_generators([(1, 2, 0), (1, 0, 2)])
    b = group_from_generators([(1, 0, 2), (1, 2, 0)])
    assert a == b
    assert len(all_subgroups(a)) == len(all_subgroups(b))


def test_rejects_non_permutations_and_large_groups():
    with pytest.raises(GwittError):
        group_from_generators([(0, 0)])
    with pytest.raises(GroupOrderError):
        group_from_generators([tuple(list(range(1, 65)) + [0])], max_order=64)


def test_cyclic_and_dihedral_respect_the_order_cap():
    # the cap is checked before a Cayley table is allocated
    for build, arg in ((cyclic, 65), (cyclic, 10**5), (dihedral, 33), (dihedral, 10**5)):
        with pytest.raises(GroupOrderError):
            build(arg)
    assert cyclic(64).order == 64
    assert dihedral(32).order == 64


def test_bad_cayley_tables_rejected():
    with pytest.raises(GwittError):
        Group([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(GwittError):
        Group([[1, 0], [0, 1]])  # 0 is not the identity


def test_cayley_validation_catches_non_associative():
    # a "random" magma with identity and inverses but broken associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GwittError):
        Group(table)


@pytest.mark.parametrize(
    "group,count",
    [(cyclic(2), 2), (cyclic(4), 3), (symmetric(3), 6), (klein_four(), 5),
     (cyclic(6), 4), (dihedral(4), 10), (symmetric(4), 30),
     (elementary_abelian_2(4), 67), (dihedral(32), 69)],
)
def test_subgroup_counts(group, count):
    assert len(all_subgroups(group)) == count


@pytest.mark.parametrize("group", [cyclic(2), cyclic(4), klein_four(), symmetric(3), dihedral(4)])
def test_subgroups_match_subset_closure_oracle(group):
    oracle = brute_force_subgroups(group)
    assert [s.elements for s in all_subgroups(group)] == oracle


@pytest.mark.parametrize("group", LADDER, ids=lambda g: g.name)
def test_subgroups_match_join_closure_oracle(group):
    assert [s.elements for s in all_subgroups(group)] == join_closure_subgroups(group)


@pytest.mark.parametrize(
    "group", [cyclic(4), klein_four(), symmetric(3), dihedral(4), cyclic(6)] + LADDER,
    ids=lambda g: g.name,
)
def test_poset_matches_conjugation_and_containment_oracle(group):
    poset = subconjugacy_poset(group)
    seen = set()
    for cls in poset.classes:
        members = {frozenset(m.elements) for m in cls.members}
        assert members == conjugates(group, cls.rep.elements)
        assert cls.rep.elements == min(m.elements for m in cls.members)
        seen |= members
    assert seen == {frozenset(s.elements) for s in all_subgroups(group)}
    n = len(poset)
    assert tuple(
        tuple(poset.leq(i, j) for j in range(n)) for i in range(n)
    ) == containment_leq(group)


def test_s3_subgroup_shapes():
    orders = sorted(s.order for s in all_subgroups(symmetric(3)))
    assert orders == [1, 2, 2, 2, 3, 6]


def test_poset_structure_s3():
    poset = subconjugacy_poset(symmetric(3))
    assert poset.labels() == ("1a", "2a", "3a", "6a")
    assert poset.classes[0].rep.order == 1
    assert poset.classes[-1].rep.order == 6
    assert poset.leq(1, 3) and poset.leq(2, 3)
    assert not poset.leq(1, 2) and not poset.leq(2, 1)
    assert len(poset.classes[1].members) == 3


def test_poset_structure_klein_four():
    poset = subconjugacy_poset(klein_four())
    # abelian: three distinct order-2 classes, none conjugate
    assert len(poset) == 5
    assert [c.order for c in poset.classes] == [1, 2, 2, 2, 4]
    assert all(len(c.members) == 1 for c in poset.classes)


@pytest.mark.parametrize("group", [cyclic(4), symmetric(3), dihedral(4), cyclic(6)])
def test_poset_is_a_partial_order(group):
    poset = subconjugacy_poset(group)
    n = len(poset)
    for i in range(n):
        assert poset.leq(i, i)
        assert poset.leq(0, i) and poset.leq(i, n - 1)
        for j in range(n):
            if poset.leq(i, j) and poset.leq(j, i):
                assert i == j
            for k in range(n):
                if poset.leq(i, j) and poset.leq(j, k):
                    assert poset.leq(i, k)


def test_subgroup_index_examples():
    c2 = cyclic(2)
    assert subgroup_index(Subgroup(c2, (0, 1)), trivial_subgroup(c2)) == 2
    s3 = symmetric(3)
    full = Subgroup(s3, tuple(range(6)))
    two = subgroup_generated(s3, [1])
    assert subgroup_index(full, two) == 3
    assert subgroup_index(two, two) == 1
    with pytest.raises(GwittError):
        # an order-3 subgroup is not subconjugate to an order-2 one
        c3 = next(s for s in all_subgroups(s3) if s.order == 3)
        subgroup_index(two, c3)


def test_subgroup_as_group_round_trip():
    s3 = symmetric(3)
    c3 = next(s for s in all_subgroups(s3) if s.order == 3)
    sub, emb = c3.as_group()
    assert sub.order == 3
    for a in range(3):
        for b in range(3):
            assert emb[sub.mul(a, b)] == s3.mul(emb[a], emb[b])


def test_dihedral_and_products():
    d3 = dihedral(3)
    s3 = symmetric(3)
    assert d3.order == 6
    # D3 and S3 have matching subgroup class profiles
    assert [c.order for c in subconjugacy_poset(d3).classes] == \
           [c.order for c in subconjugacy_poset(s3).classes]
    v4 = klein_four()
    assert v4.order == 4 and v4 == direct_product(cyclic(2), cyclic(2), name="V4")


def test_element_order_and_subgroup_contains():
    c6 = cyclic(6)
    assert [c6.element_order(a) for a in c6.elements()] == [1, 6, 3, 2, 3, 6]
    subs = all_subgroups(c6)
    full = subs[-1]
    assert all(full.contains(s) for s in subs)
    assert not subs[1].contains(full)


def test_json_round_trip():
    g = symmetric(3)
    data = g.to_json()
    assert len(data["mul"]) == 36
    back = Group.from_json(data)
    assert back == g
    assert back.labels == g.labels
