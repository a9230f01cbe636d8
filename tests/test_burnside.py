"""Burnside rings: table of marks, the mark homomorphism, products,
transfers, norms, and the effective-norm oracle."""

import itertools
import random

import pytest

from gwitt.burnside import (
    BurnsideElement,
    burnside_basis,
    burnside_mul,
    burnside_of_gset,
    burnside_one,
    column_solve,
    column_sums,
    mark_columns,
    marks,
    table_of_marks,
    transferred_norms,
    unmarks,
)
from gwitt.errors import GwittError, IntegralityError
from gwitt.groups import (
    Subgroup,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    group_from_generators,
    klein_four,
    subconjugacy_poset,
    symmetric,
)
from gwitt.intpoly import Poly
from gwitt.gsets import (
    GMap,
    dependent_product,
    disjoint_union,
    point_gset,
    regular_gset,
)
from oracles import (
    burnside_transfer,
    chainwise_transferred_norms,
    containment_leq,
    coset_space_table_of_marks,
    elementary_abelian_2,
    fixed_points,
    function_orbits_by_stabilizer,
    norm_from_trivial,
    product_basis_decomposition,
    s4_x_c2,
)

C2 = cyclic(2)
S3 = symmetric(3)


def test_table_of_marks_examples():
    assert table_of_marks(C2) == ((2, 0), (1, 1))
    assert table_of_marks(cyclic(1)) == ((1,),)
    tom = table_of_marks(S3)
    poset = subconjugacy_poset(S3)
    row_c3 = tom[2]
    assert poset.classes[2].order == 3
    assert row_c3 == (2, 0, 2, 0)


@pytest.mark.parametrize(
    "group",
    [C2, cyclic(4), klein_four(), cyclic(6), S3, dihedral(4), symmetric(4),
     elementary_abelian_2(4), s4_x_c2(), dihedral(32)],
    ids=lambda g: g.name,
)
def test_table_of_marks_matches_coset_space_oracle(group):
    assert table_of_marks(group) == coset_space_table_of_marks(group)


@pytest.mark.parametrize(
    "group", [C2, cyclic(4), klein_four(), cyclic(6), S3, dihedral(4), symmetric(4)],
    ids=lambda g: g.name,
)
def test_burnside_mul_matches_product_gset_oracle(group):
    # burnside_mul goes through marks, so the ring-homomorphism checks hold by
    # construction; this compares every basis product with an explicit G-set
    n = len(subconjugacy_poset(group))
    for i in range(n):
        for j in range(n):
            got = burnside_mul(burnside_basis(group, i), burnside_basis(group, j))
            assert got.coeffs == product_basis_decomposition(group, i, j)


def _dense_column_sums(tom, orders, coeffs, powered=False) -> list:
    """For each class h, the sum over the rows k of the dense table of
    tom[k][h] * c_k, or tom[k][h] * c_k^(|H_k|/|H_h|) when powered."""
    n = len(tom)
    return [
        sum((tom[k][h] * (coeffs[k] ** (orders[k] // orders[h]) if powered else coeffs[k])
             for k in range(n) if tom[k][h]), 0)
        for h in range(n)
    ]


def _check_column_kernels(group, tom, vectors):
    """column_sums, plain and powered, against the dense product with `tom`,
    and column_solve as their inverse."""
    columns = mark_columns(group)
    orders = [c.order for c in subconjugacy_poset(group).classes]
    for coeffs in vectors:
        for powered in (False, True):
            want = _dense_column_sums(tom, orders, coeffs, powered)
            assert column_sums(coeffs, columns, powered) == want, powered
            assert column_solve(want, columns, powered) == list(coeffs), powered


def _vectors_with_zeros(group, count: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"columns:{group.name}")
    n = len(subconjugacy_poset(group))
    return [tuple(rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n))
            for _ in range(count)]


@pytest.mark.parametrize(
    "group",
    [C2, S3, dihedral(4), symmetric(4), elementary_abelian_2(4), s4_x_c2(), dihedral(32)],
    ids=lambda g: g.name,
)
def test_column_kernels_match_the_coset_space_table_of_marks(group):
    _check_column_kernels(group, coset_space_table_of_marks(group),
                          _vectors_with_zeros(group, 3))


def test_column_kernels_match_the_closed_form_over_c2_5():
    # G elementary abelian: every subgroup is its own class and normal, so
    # |(G/K)^H| = |G:K| when H <= K and 0 otherwise
    group = elementary_abelian_2(5)
    subs = [all_subgroups(group)[r] for r in subconjugacy_poset(group).reps]
    masks = [sum(1 << e for e in sub.elements) for sub in subs]
    tom = [[group.order // k.order if not mh & ~mk else 0 for mh in masks]
           for k, mk in zip(subs, masks)]
    _check_column_kernels(group, tom, _vectors_with_zeros(group, 2))


def test_column_kernels_over_z_x_skip_zero_coefficients():
    group = dihedral(4)
    x = Poly.var("x")
    coeffs = (x, 0, 2 * x - 1, 0, 0, x * x + 3, 0, 1)
    assert len(coeffs) == len(subconjugacy_poset(group))
    _check_column_kernels(group, coset_space_table_of_marks(group), [coeffs])


def test_table_of_marks_triangular_with_weyl_diagonal():
    for group in (C2, cyclic(4), klein_four(), S3, dihedral(4)):
        poset = subconjugacy_poset(group)
        tom = table_of_marks(group)
        leq = containment_leq(group)
        n = len(poset)
        for k in range(n):
            for h in range(n):
                if tom[k][h] != 0:
                    assert leq[h][k]
                if h > k:
                    assert tom[k][h] == 0 or poset.classes[h].order == poset.classes[k].order
            assert tom[k][k] > 0
            # diagonal = |N_G(H)/H| = number of H-fixed cosets of G/H
            rep = poset.classes[k].rep
            mul, inv = group.mul_table, group.inv_table
            normalizer = sum(
                1 for g in group.elements()
                if {mul[mul[g][a]][inv[g]] for a in rep.elements} == set(rep.elements)
            )
            assert tom[k][k] == normalizer // rep.order


def test_marks_examples_and_linearity():
    assert marks(burnside_basis(C2, 0)) == (2, 0)
    assert marks(BurnsideElement(C2, (0, 0))) == (0, 0)
    assert marks(BurnsideElement(C2, (1, 2))) == (4, 2)


def test_marks_is_a_ring_homomorphism_on_samples():
    rng = random.Random(5)
    for group in (C2, S3, klein_four()):
        n = len(subconjugacy_poset(group))
        for _ in range(25):
            b1 = BurnsideElement(group, tuple(rng.randint(-4, 4) for _ in range(n)))
            b2 = BurnsideElement(group, tuple(rng.randint(-4, 4) for _ in range(n)))
            assert marks(b1 + b2) == tuple(
                x + y for x, y in zip(marks(b1), marks(b2))
            )
            assert marks(burnside_mul(b1, b2)) == tuple(
                x * y for x, y in zip(marks(b1), marks(b2))
            )


def test_unmarks_round_trip_and_integrality():
    rng = random.Random(9)
    for group in (C2, cyclic(4), S3, dihedral(4), cyclic(6), klein_four()):
        n = len(subconjugacy_poset(group))
        for _ in range(50):
            b = BurnsideElement(group, tuple(rng.randint(-9, 9) for _ in range(n)))
            assert unmarks(group, marks(b)) == b
    assert unmarks(C2, (4, 2)) == BurnsideElement(C2, (1, 2))
    with pytest.raises(IntegralityError) as exc:
        unmarks(C2, (1, 0))
    assert exc.value.where == "1a"


def test_entries_outside_z_and_z_x_are_refused():
    # 1.5 and 6.0 gave the marks (5.0, 2) and the coefficients (2.0, 2)
    for bad in (1.5, 6.0, "1", None):
        with pytest.raises(GwittError):
            BurnsideElement(C2, (bad, 2))
        with pytest.raises(GwittError):
            unmarks(C2, (bad, 2))
    x = Poly.var("x")
    assert marks(BurnsideElement(C2, (x, 2))) == (2 * x + 2, 2)
    assert unmarks(C2, (2 * x + 2, 2)) == BurnsideElement(C2, (x, 2))
    # a constant polynomial is stored as its integer
    coeffs = BurnsideElement(C2, (Poly.const(1), x)).coeffs
    assert type(coeffs[0]) is int and coeffs == (1, x)


def test_a_wrong_entry_count_names_the_classes():
    for entries in ((1,), (1, 2, 3)):
        with pytest.raises(GwittError) as exc:
            BurnsideElement(S3, entries)
        assert str(exc.value) == (f"expected 4 coefficients in poset order 1a,2a,3a,6a, "
                                  f"got {len(entries)}")
        with pytest.raises(GwittError) as exc:
            unmarks(S3, entries)
        assert str(exc.value) == (f"expected 4 mark vector entries in poset order "
                                  f"1a,2a,3a,6a, got {len(entries)}")


def test_burnside_mul_examples():
    e = burnside_basis(C2, 0)
    assert burnside_mul(e, e) == BurnsideElement(C2, (2, 0))
    assert burnside_mul(burnside_one(C2), e) == e
    bc2 = burnside_basis(S3, 1)
    bc3 = burnside_basis(S3, 2)
    assert burnside_mul(bc2, bc3) == burnside_basis(S3, 0)


def test_burnside_of_gset_matches_product_construction():
    from gwitt.gsets import product

    poset = subconjugacy_poset(S3)
    spaces = [  # pick two nontrivial transitive S3-sets
        burnside_basis(S3, 1),
        burnside_basis(S3, 2),
    ]
    from gwitt.gsets import coset_space
    g1 = coset_space(S3, poset.classes[1].rep)
    g2 = coset_space(S3, poset.classes[2].rep)
    prod = product(g1, g2)[0]
    assert burnside_of_gset(prod) == burnside_mul(spaces[0], spaces[1])


def test_transfer_examples():
    triv = Subgroup(C2, (0,))
    tgroup, _ = triv.as_group()
    assert burnside_transfer(triv, BurnsideElement(tgroup, (1,))) == burnside_basis(C2, 0)
    assert burnside_transfer(triv, BurnsideElement(tgroup, (3,))) == \
        BurnsideElement(C2, (3, 0))
    assert marks(burnside_transfer(triv, BurnsideElement(tgroup, (3,)))) == (6, 0)
    assert burnside_transfer(triv, BurnsideElement(tgroup, (0,))) == BurnsideElement(C2, (0, 0))
    # transfer from C3 <= S3 sends [C3/L] to [S3/L]
    c3 = next(s for s in all_subgroups(S3) if s.order == 3)
    sub_group, _ = c3.as_group()
    sub_poset = subconjugacy_poset(sub_group)
    assert len(sub_poset) == 2
    up = burnside_transfer(c3, BurnsideElement(sub_group, (1, 1)))
    assert up == BurnsideElement(S3, (1, 0, 1, 0))


def _norm(group, k):
    """N_e^G(k): the transferred norms that tau runs, with k at [G] and 0
    elsewhere."""
    return transferred_norms(group, (0,) * (len(subconjugacy_poset(group)) - 1) + (k,))


@pytest.mark.parametrize(
    "group", [C2, cyclic(3), klein_four(), cyclic(4), S3], ids=lambda g: g.name,
)
def test_norm_counts_the_orbits_of_functions(group):
    """N_e^K(x), as tau computes it off the lattice, is the K-set of
    functions K -> {0..x-1}: its orbits, counted by stabilizer class."""
    for x in range(4):
        orbits = function_orbits_by_stabilizer(group, x)
        assert _norm(group, x).coeffs == orbits, x
        assert norm_from_trivial(group, x).coeffs == orbits, x


NORM_VALUES = (0, 1, -1, 2, -2, 7, 10**6, -10**6)


def _norm_vectors(group, count: int):
    """Seeded values over NORM_VALUES: dense, and with one class in ten
    nonzero, as the factorization check and sparse inputs run them."""
    n = len(subconjugacy_poset(group))
    rng = random.Random(f"norms:{group.name}")
    dense = [tuple(rng.choice(NORM_VALUES) for _ in range(n)) for _ in range(count)]
    sparse = [tuple(rng.choice(NORM_VALUES) if rng.random() < 0.1 else 0 for _ in range(n))
              for _ in range(count)]
    return dense + sparse


@pytest.mark.parametrize(
    "group",
    # the larger groups of the benchmark ladder, C2^5 (the most subgroups of
    # the ladder), A5 (not solvable) and C4 x C4
    [symmetric(4), elementary_abelian_2(4), s4_x_c2(), dihedral(32), elementary_abelian_2(5),
     group_from_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], name="A5"),
     direct_product(cyclic(4), cyclic(4))],
    ids=lambda g: g.name,
)
def test_transferred_norms_match_the_chainwise_oracle(group):
    """One Moebius inversion over the lattice gives the norms that a push
    down each representative's own down-set gives."""
    for values in _norm_vectors(group, 4):
        assert transferred_norms(group, values) == chainwise_transferred_norms(group, values)


def test_transferred_norms_match_the_chainwise_oracle_over_c2_6():
    group = elementary_abelian_2(6)
    values = _norm_vectors(group, 1)[0]
    assert transferred_norms(group, values) == chainwise_transferred_norms(group, values)


def test_norm_examples():
    assert _norm(C2, 2) == BurnsideElement(C2, (1, 2))
    assert marks(_norm(C2, 2)) == (4, 2)
    assert _norm(C2, 1) == burnside_one(C2)
    assert _norm(S3, 1) == burnside_one(S3)
    minus = _norm(C2, -1)
    assert minus == BurnsideElement(C2, (1, -1))
    assert marks(minus) == (1, -1)


def _sections_formula_marks(p: GMap, group):
    """|(Pi_f A)^L| for f: X -> point, by the product-over-L-orbits formula."""
    poset = subconjugacy_poset(group)
    x = p.target
    out = []
    for cls in poset.classes:
        l_elems = cls.rep.elements
        seen = set()
        total = 1
        for pt in x.points():
            if pt in seen:
                continue
            orbit = {pt}
            frontier = [pt]
            while frontier:
                new = []
                for u in frontier:
                    for g in l_elems:
                        w = x.act_table[g][u]
                        if w not in orbit:
                            orbit.add(w)
                            new.append(w)
                frontier = new
            seen |= orbit
            stab = [g for g in l_elems if x.act_table[g][pt] == pt]
            fiber = p.fiber(pt)
            count = sum(
                1 for a in fiber
                if all(p.source.act_table[g][a] == a for g in stab)
            )
            total *= count
        out.append(total)
    return tuple(out)


def _enumerate_fiber_choices(group, x, max_fiber):
    """All (A, p: A -> x) with fibers of size <= max_fiber, up to iso over x:
    choose a stabilizer-set per orbit and induce it up."""
    poset = subconjugacy_poset(group)
    orbit_data = []
    for points, _ in x.orbits():
        rep = points[0]
        stab = x.stabilizer(rep)
        sub_group, _ = stab.as_group()
        sub_poset = subconjugacy_poset(sub_group)
        from gwitt.gsets import coset_space as cs
        transitive = [cs(sub_group, c.rep) for c in sub_poset.classes]
        fibers = []

        def build(start, left, parts):
            fibers.append(list(parts))
            for i in range(start, len(transitive)):
                if transitive[i].size <= left:
                    parts.append(transitive[i])
                    build(i, left - transitive[i].size, parts)
                    parts.pop()

        build(0, max_fiber, [])
        orbit_data.append((stab, fibers))
    for combo in itertools.product(*(f for _, f in orbit_data)):
        yield orbit_data, combo


def test_effective_norm_matches_dependent_product():
    # exhaustive: G in {C2, C3, S3}, free base, fibers of size <= 3
    for group in (C2, cyclic(3), S3):
        free = regular_gset(group)
        pt = point_gset(group)
        to_pt = GMap(free, pt, (0,) * group.order)
        for k in range(4):
            parts = [free] * k
            if parts:
                a = disjoint_union(parts)[0] if len(parts) > 1 else parts[0]
                p = GMap(a, free, tuple(list(free.points()) * k), validate=False)
            else:
                from gwitt.gsets import empty_gset
                a = empty_gset(group)
                p = GMap(a, free, ())
            dp = dependent_product(p, to_pt)
            explicit = burnside_of_gset(dp.gset)
            assert explicit == _norm(group, k) == norm_from_trivial(group, k)


def test_dependent_product_fixed_points_match_sections_formula():
    rng = random.Random(13)
    from randgen import random_gset, random_gmap

    for group in (C2, S3):
        pt = point_gset(group)
        for _ in range(20):
            x = random_gset(group, rng, 4)
            a = random_gset(group, rng, 6)
            p = random_gmap(a, x, rng)
            if p is None:
                continue
            f = GMap(x, pt, (0,) * x.size)
            dp = dependent_product(p, f)
            got = tuple(
                fixed_points(dp.gset, cls.rep)
                for cls in subconjugacy_poset(group).classes
            )
            assert got == _sections_formula_marks(p, group)
