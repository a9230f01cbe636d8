"""Groups, subgroup enumeration, and the subconjugacy poset."""

import itertools
import random
import re
from functools import partial

import pytest

from gwitt import dsl, groups
from gwitt.errors import GroupOrderError, GwittError
from gwitt.groups import (
    DEFAULT_MAX_ORDER,
    MAX_PERM_POINTS,
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
    symmetric,
)
from oracles import (
    associativity_failure,
    brute_force_subgroups,
    composed_permutation_group,
    conjugates,
    containment_leq,
    coset_walk_subgroups,
    elementary_abelian_2,
    generated_closure,
    is_subgroup_by_products,
    join_closure_subgroups,
    paired_dihedral_table,
    paired_direct_product_table,
    poset_leq,
    s4_x_c2,
    scanned_inverses,
)

# the larger groups of the benchmark ladder, up to the order-64 cap
LADDER = [symmetric(4), elementary_abelian_2(4), s4_x_c2(), dihedral(32)]
# C2^5 is the ladder rung with the most subgroups (374); A5, as
# perm[(0 1 2),(0 1 2 3 4)], is the only non-solvable group under the cap
C2_5 = elementary_abelian_2(5)
A5 = group_from_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], name="A5")
A4 = group_from_generators([(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")
C3_S3 = direct_product(cyclic(3), symmetric(3))
C4_C4 = direct_product(cyclic(4), cyclic(4))
# S3 x S3 as perm[(0 1),(0 1 2),(3 4),(3 4 5)]: many subgroups with small normalizers
S3_S3 = group_from_generators([(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5),
                               (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)], name="S3xS3")


def test_group_from_generators_examples():
    c2 = group_from_generators([(1, 0)])
    assert c2.order == 2
    s3 = group_from_generators([(1, 2, 0), (1, 0, 2)])
    assert s3.order == 6
    trivial = group_from_generators([], n_points=1)
    assert trivial.order == 1


def test_point_count_is_checked_before_the_identity_is_built():
    for n_points in (-3, 0, 2.5, "3", True):
        with pytest.raises(GwittError):
            group_from_generators([], n_points=n_points)
    for n_points in (MAX_PERM_POINTS + 1, 10**6):
        with pytest.raises(GroupOrderError):
            group_from_generators([], n_points=n_points)
    assert group_from_generators([], n_points=MAX_PERM_POINTS).perm_rep == (
        tuple(range(MAX_PERM_POINTS)),)
    # the DSL bounds perm[...] points by the same constant
    assert dsl.MAX_PERM_POINTS is MAX_PERM_POINTS
    with pytest.raises(GwittError):
        dsl.parse_group(f"perm[(0 {MAX_PERM_POINTS})]")
    assert dsl.build_group(dsl.parse_group(f"perm[(0 {MAX_PERM_POINTS - 1})]")).order == 2


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
        group_from_generators([tuple(list(range(1, 65)) + [0])])


def test_cyclic_and_dihedral_respect_the_order_cap():
    # the cap is checked before a Cayley table is allocated or sliced, and a
    # table given directly is refused before it is validated
    c65 = [[(a + b) % 65 for b in range(65)] for a in range(65)]
    for build, arg in ((cyclic, 65), (cyclic, 10**5), (dihedral, 33), (dihedral, 10**5),
                       (partial(direct_product, cyclic(16)), cyclic(16)), (Group, c65)):
        with pytest.raises(GroupOrderError):
            build(arg)
    assert cyclic(64).order == 64
    assert dihedral(32).order == 64


def test_order_cap_keeps_all_subgroups_complete():
    # all_subgroups reaches every solvable subgroup and adds G itself; that
    # is complete only while every proper subgroup has order below 60
    assert DEFAULT_MAX_ORDER < 120, (
        "all_subgroups is complete only below order 120 (see its docstring): "
        "seed the perfect subgroups before raising the cap"
    )


def test_bad_cayley_tables_rejected():
    with pytest.raises(GwittError):
        Group([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(GwittError):
        Group([[1, 0], [0, 1]])  # 0 is not the identity


def test_non_integer_entries_rejected():
    for table in ([[0.0]], [[0, 1], [1, 0.0]], [[0, 1], [1, "0"]], [[0, 1], [1, None]]):
        with pytest.raises(GwittError):
            Group(table)
    for gens in ([(1, 0, 2.0)], [(1.0, 0)], [("1", "0")], [(1, 0), (0, 1, 2)]):
        with pytest.raises(GwittError):
            group_from_generators(gens)


def _assert_table_matches(group: Group, table):
    assert group.mul_table == tuple(map(tuple, table))
    assert group.inv_table == scanned_inverses(table)


def _transpositions(rank: int) -> list[tuple[int, ...]]:
    """The disjoint transpositions (0 1), (2 3), ... that generate C2^rank."""
    gens = []
    for i in range(rank):
        perm = list(range(2 * rank))
        perm[2 * i], perm[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(perm))
    return gens


# (group, generators, points): every permutation group of the benchmark
# ladder, S(1..4), A4 and A5, with the generators they are built from
PERMUTATION_GROUPS = [
    (symmetric(1), [], 1),
    (symmetric(2), [(1, 0)], 2),
    (symmetric(3), [(1, 0, 2), (1, 2, 0)], 3),
    (symmetric(4), [(1, 0, 2, 3), (1, 2, 3, 0)], 4),
    (A4, [(1, 2, 0, 3), (0, 2, 3, 1)], 4),
    (A5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5),
    (elementary_abelian_2(4), _transpositions(4), 8),
    (C2_5, _transpositions(5), 10),
    (s4_x_c2(), [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], 6),
]


@pytest.mark.parametrize("group,gens,points", PERMUTATION_GROUPS,
                         ids=[g.name for g, _, _ in PERMUTATION_GROUPS])
def test_permutation_tables_match_the_all_pairs_oracle(group, gens, points):
    perms, table = composed_permutation_group(gens, points)
    assert group.perm_rep == tuple(perms)
    _assert_table_matches(group, table)


def test_dihedral_and_product_tables_match_the_dict_oracle():
    for n in range(1, 33):
        _assert_table_matches(dihedral(n), paired_dihedral_table(n))
    s3 = symmetric(3)
    for n in range(1, 11):
        _assert_table_matches(direct_product(cyclic(n), s3), paired_direct_product_table(cyclic(n), s3))
        _assert_table_matches(direct_product(s3, cyclic(n)), paired_direct_product_table(s3, cyclic(n)))
    _assert_table_matches(klein_four(), paired_direct_product_table(cyclic(2), cyclic(2)))


def test_random_generator_lists_match_the_all_pairs_oracle():
    """Seeded generator lists with repeats and identities: the same table as
    composing every pair, and GroupOrderError past the cap."""
    rng = random.Random(22)
    capped = 0
    for _ in range(80):
        points = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.2:
                gens.append(tuple(range(points)))
            elif kind < 0.4 and gens:
                gens.append(rng.choice(gens))
            else:
                gens.append(tuple(rng.sample(range(points), points)))
        perms, table = composed_permutation_group(gens, points)
        if len(perms) > DEFAULT_MAX_ORDER:
            capped += 1
            with pytest.raises(GroupOrderError):
                group_from_generators(gens, n_points=points)
            continue
        group = group_from_generators(gens, n_points=points)
        assert group.perm_rep == tuple(perms)
        _assert_table_matches(group, table)
    assert 0 < capped < 80


def _swapped_tables(group: Group, count: int, seed: int) -> list[list[list[int]]]:
    """Copies of the group's table with the entries of two cells swapped in
    one non-identity row.  Neither cell is in the identity column or holds
    the identity, so the identity and every two-sided inverse survive and
    only associativity can fail; each copy is kept if the oracle rejects it."""
    rng = random.Random(seed)
    n = group.order
    tables = []
    while len(tables) < count:
        a = rng.randrange(1, n)
        b, c = rng.sample([b for b in range(1, n) if group.mul_table[a][b]], 2)
        table = [list(row) for row in group.mul_table]
        table[a][b], table[a][c] = table[a][c], table[a][b]
        if associativity_failure(table) is not None:
            tables.append(table)
    return tables


def _assert_validation_matches_oracle(table):
    failure = associativity_failure(table)
    if failure is None:
        assert Group(table).mul_table == tuple(map(tuple, table))
        return
    with pytest.raises(GwittError, match="associativity fails") as err:
        Group(table)
    x, s, y = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(err.value)).groups())
    assert table[table[x][s]][y] != table[x][table[s][y]]


def test_cayley_validation_catches_non_associative():
    # a "random" magma with identity and inverses but broken associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert associativity_failure(table) is not None
    _assert_validation_matches_oracle(table)


def test_light_associativity_test_on_every_twisted_c2_by_v4():
    """Each f: (V4 - 0)^2 -> C2 twists C2 x V4 into the magma
    (i, v)(j, w) = (i + j + f(v, w), v + w), with (i, v) at index i + 2v.
    Every one has the identity 0 and two-sided inverses, and it is
    associative iff f is a 2-cocycle: 16 = |B^2| |H^2| = 2 * 8 of the 512.
    The first greedy generator (1, 0) is central and associates with
    everything, so only the generators after it can reject the others."""
    accepted = 0
    for bits in range(2 ** 9):
        def f(v, w):
            return bits >> (3 * v + w - 4) & 1 if v and w else 0
        table = [[k ^ m ^ f(k >> 1, m >> 1) for m in range(8)] for k in range(8)]
        _assert_validation_matches_oracle(table)
        accepted += associativity_failure(table) is None
    assert accepted == 16


@pytest.mark.parametrize("group", LADDER + [C2_5, A5], ids=lambda g: g.name)
def test_light_associativity_test_matches_cubic_oracle(group):
    _assert_validation_matches_oracle([list(row) for row in group.mul_table])
    for table in _swapped_tables(group, count=6, seed=group.order):
        _assert_validation_matches_oracle(table)


SUBGROUP_COUNTS = [
    (cyclic(2), 2), (cyclic(4), 3), (symmetric(3), 6), (klein_four(), 5),
    (cyclic(6), 4), (dihedral(4), 10), (symmetric(4), 30),
    (elementary_abelian_2(4), 67), (dihedral(32), 69), (C2_5, 374), (A5, 59),
    # C4 x C4: 15; C(n): tau(n); D(n): tau(n) + sigma(n)
    (C4_C4, 15), (cyclic(60), 12), (dihedral(15), 28), (dihedral(30), 80),
    (S3_S3, 60), (dihedral(16), 36), (dihedral(24), 68),
]


@pytest.mark.parametrize("group,count", SUBGROUP_COUNTS)
def test_subgroup_counts(group, count):
    assert len(all_subgroups(group)) == count


@pytest.mark.parametrize(
    "group,count",
    [(A5, 9), (symmetric(4), 11), (dihedral(30), 20), (A4, 5),
     (S3_S3, 22), (dihedral(16), 14), (dihedral(24), 22)],
)
def test_subgroup_class_counts(group, count):
    assert len(subconjugacy_poset(group)) == count


@pytest.mark.parametrize("group", [group for group, _ in SUBGROUP_COUNTS], ids=lambda g: g.name)
def test_subgroups_match_the_coset_walk_oracle(group):
    # the walk over every coset of G, not only those in the normalizer
    assert [s.elements for s in all_subgroups(group)] == coset_walk_subgroups(group)


@pytest.mark.parametrize("group", [cyclic(60), C3_S3, A5, dihedral(30)], ids=lambda g: g.name)
def test_prime_power_table_matches_element_orders(group):
    # all_subgroups reads |<g> : <g> n H| off these pairs; orders such as 6,
    # 10, 15 and 30 have more than one prime
    for g, pairs in enumerate(groups._prime_powers(group)):
        order = len(subgroup_generated(group, [g]).elements)
        primes = [p for p in range(2, order + 1)
                  if order % p == 0 and all(p % q for q in range(2, p))]
        powers = [0]
        for _ in range(order):
            powers.append(group.mul(powers[-1], g))
        assert pairs == [(p, powers[p]) for p in primes]


def test_subgroups_of_s5_above_the_cap_match_the_coset_walk_oracle(monkeypatch):
    """S5 has small normalizers: 153 of the subgroups found have a
    normalizer of order at most 24, a fifth of G.  Both routes miss the
    perfect subgroup A5 (see `all_subgroups`), so both find 155 of 156."""
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 120)
    s5 = symmetric(5)
    subs = [s.elements for s in all_subgroups(s5)]
    assert len(subs) == 155
    assert subs == coset_walk_subgroups(s5)


@pytest.mark.parametrize("group", [cyclic(2), cyclic(4), klein_four(), symmetric(3), dihedral(4)])
def test_subgroups_match_subset_closure_oracle(group):
    oracle = brute_force_subgroups(group)
    assert [s.elements for s in all_subgroups(group)] == oracle


@pytest.mark.parametrize(
    "group",
    LADDER + [C2_5, A5, A4, C3_S3, C4_C4, dihedral(15), dihedral(30), cyclic(60),
              S3_S3, dihedral(16), dihedral(24)],
    ids=lambda g: g.name,
)
def test_subgroups_match_join_closure_oracle(group):
    assert [s.elements for s in all_subgroups(group)] == join_closure_subgroups(group)
    for a in group.elements():
        gens = [a, group.order - 1 - a]
        assert subgroup_generated(group, gens).elements == generated_closure(group, gens)


@pytest.mark.parametrize(
    "group", [cyclic(4), klein_four(), symmetric(3), dihedral(4), cyclic(6)] + LADDER
    + [C2_5, A5, C4_C4],
    ids=lambda g: g.name,
)
def test_poset_matches_conjugation_and_containment_oracle(group):
    poset = subconjugacy_poset(group)
    subs = all_subgroups(group)
    seen = set()
    for c, cls in enumerate(poset.classes):
        members = {frozenset(m.elements) for m in cls.members}
        assert members == conjugates(group, cls.rep.elements)
        assert cls.rep.elements == min(m.elements for m in cls.members)
        assert subs[poset.reps[c]] == cls.rep
        assert {subs[i].elements for i in range(len(subs)) if poset.class_of[i] == c} \
            == {m.elements for m in cls.members}
        seen |= members
    assert seen == {frozenset(s.elements) for s in subs}
    for i, sub in enumerate(subs):
        assert poset.orders[i] == sub.order
        assert poset.down[i] == tuple(
            j for j, other in enumerate(subs) if set(other.elements) <= set(sub.elements)
        )
    n = len(poset)
    assert tuple(
        tuple(poset_leq(poset, i, j) for j in range(n)) for i in range(n)
    ) == containment_leq(group)


@pytest.mark.parametrize(
    "group", [cyclic(2), symmetric(3), dihedral(4)] + LADDER + [C2_5],
    ids=lambda g: g.name,
)
def test_enumerated_subgroups_pass_the_public_check(group):
    # all_subgroups builds its subgroups without the closure check
    for sub in all_subgroups(group):
        assert Subgroup(group, sub.elements) == sub


@pytest.mark.parametrize("group", [cyclic(2), cyclic(4), klein_four(), symmetric(3)],
                         ids=lambda g: g.name)
def test_subgroup_verdict_matches_the_products_oracle(group):
    # a negative element would wrap around in the table lookups: (0, 1, -1)
    # over C2 and (0, 2, -2) over C4 were accepted with order 3
    n = group.order
    outside = [(), (-1,), (-2,), (n,), (n + 3,), (1.0,), ("0",), (None,)]
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            for extra in outside:
                elements = subset + extra
                try:
                    sub = Subgroup(group, elements)
                except GwittError:
                    assert not is_subgroup_by_products(group, elements), elements
                else:
                    assert is_subgroup_by_products(group, elements), elements
                    assert sub.elements == subset


def test_class_index_rejects_a_non_subgroup():
    poset = subconjugacy_poset(cyclic(4))
    with pytest.raises(GwittError, match="not a subgroup of C4"):
        poset.class_index(Subgroup(cyclic(3), (0, 1, 2)))


def test_class_index_rejects_a_subgroup_of_another_group():
    # {0, 1} is a subgroup of S3 too, but this one lives in C2
    poset = subconjugacy_poset(symmetric(3))
    with pytest.raises(GwittError, match="not a subgroup of S3"):
        poset.class_index(Subgroup(cyclic(2), (0, 1)))
    # a subgroup of an equal group, built again, is classified
    assert poset.class_index(Subgroup(symmetric(3), (0, 1))) == 1


def test_s3_subgroup_shapes():
    orders = sorted(s.order for s in all_subgroups(symmetric(3)))
    assert orders == [1, 2, 2, 2, 3, 6]


def test_poset_structure_s3():
    poset = subconjugacy_poset(symmetric(3))
    assert poset.labels() == ("1a", "2a", "3a", "6a")
    assert poset.classes[0].rep.order == 1
    assert poset.classes[-1].rep.order == 6
    assert poset_leq(poset, 1, 3) and poset_leq(poset, 2, 3)
    assert not poset_leq(poset, 1, 2) and not poset_leq(poset, 2, 1)
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
        assert poset_leq(poset, i, i)
        assert poset_leq(poset, 0, i) and poset_leq(poset, i, n - 1)
        for j in range(n):
            if poset_leq(poset, i, j) and poset_leq(poset, j, i):
                assert i == j
            for k in range(n):
                if poset_leq(poset, i, j) and poset_leq(poset, j, k):
                    assert poset_leq(poset, i, k)


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
    # the order of a is the size of the cyclic subgroup it generates
    assert [len(subgroup_generated(c6, [a]).elements) for a in c6.elements()] == \
        [1, 6, 3, 2, 3, 6]
    subs = all_subgroups(c6)
    full = subs[-1]
    assert all(set(s.elements) <= set(full.elements) for s in subs)
    assert not set(full.elements) <= set(subs[1].elements)
