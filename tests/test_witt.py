"""Witt vectors: ghost/unghost, universal structure polynomials, the
Teichmueller homomorphism, theorem-level verifications, and the classical
2-typical cross-check for cyclic 2-groups."""

import random

import pytest

from gwitt import burnside, groups
from gwitt.burnside import marks, transferred_norms
from gwitt.errors import GwittError, IntegralityError
from gwitt.groups import Group, cyclic, dihedral, klein_four, subconjugacy_poset, symmetric
from gwitt.intpoly import Poly
from gwitt.witt import (
    GhostVector,
    WittVector,
    ghost,
    ghost_injectivity_double_coset_identity,
    random_witt_vector,
    teichmuller_tau,
    unghost,
    verify_dress_siebeneicher_iso,
    verify_ghost_factorization,
    verify_injectivity,
    verify_ring_axioms,
    witt_add,
    witt_context,
    witt_mul,
    witt_neg,
    witt_one,
    witt_zero,
)
from oracles import (
    elementary_abelian_2,
    s4_x_c2,
    symbolic_tau_marks_via_subgroup_groups,
    tau_via_subgroup_groups,
)

C2 = cyclic(2)
GROUPS = [cyclic(1), C2, cyclic(3), cyclic(4), klein_four(), cyclic(6),
          symmetric(3), dihedral(4)]


def test_ghost_examples():
    assert ghost(WittVector(cyclic(1), (5,))).components == (5,)
    a_e, a_c2 = Poly.var("ae"), Poly.var("ac")
    g = ghost(WittVector(C2, (a_e, a_c2)))
    assert g.components[0] == a_c2 ** 2 + 2 * a_e
    assert g.components[1] == a_c2
    assert ghost(witt_zero(C2)).components == (0, 0)


def test_unghost_examples():
    assert unghost(GhostVector(C2, (6, 2))) == WittVector(C2, (1, 2))
    with pytest.raises(IntegralityError) as exc:
        unghost(GhostVector(C2, (1, 0)))
    assert exc.value.where == "1a"


def test_unghost_round_trip_over_polynomials():
    rng = random.Random(21)
    for group in (C2, symmetric(3)):
        for _ in range(30):
            w = random_witt_vector(group, rng, ("x", "y"))
            assert unghost(ghost(w)) == w


def test_structure_polynomials_c2_frozen():
    ctx = witt_context(C2)
    ae, ac = ctx.avars  # ascending: trivial class, then [C2]
    be, bc = ctx.bvars
    sum_polys = [Poly.coerce(p) for p in ctx.sum_polys()]
    prod_polys = [Poly.coerce(p) for p in ctx.prod_polys()]
    A_e, A_c = Poly.var(ae), Poly.var(ac)
    B_e, B_c = Poly.var(be), Poly.var(bc)
    assert sum_polys[1] == A_c + B_c
    assert sum_polys[0] == A_e + B_e - A_c * B_c
    assert prod_polys[1] == A_c * B_c
    assert prod_polys[0] == A_c ** 2 * B_e + B_c ** 2 * A_e + 2 * A_e * B_e
    neg = [Poly.coerce(p) for p in ctx.neg_polys()]
    assert neg[1] == -A_c
    assert neg[0] == -A_e - A_c ** 2


def test_unit_laws_on_samples():
    rng = random.Random(2)
    for group in (C2, symmetric(3), cyclic(4)):
        one = witt_one(group)
        zero = witt_zero(group)
        for _ in range(10):
            w = random_witt_vector(group, rng)
            assert witt_add(w, zero) == w
            assert witt_mul(w, one) == w
            assert witt_add(w, witt_neg(w)) == zero


def test_ghost_is_ring_homomorphism_on_samples():
    rng = random.Random(4)
    for group in (C2, symmetric(3)):
        for _ in range(15):
            w1 = random_witt_vector(group, rng)
            w2 = random_witt_vector(group, rng)
            g1, g2 = ghost(w1).components, ghost(w2).components
            assert ghost(witt_add(w1, w2)).components == tuple(
                a + b for a, b in zip(g1, g2)
            )
            assert ghost(witt_mul(w1, w2)).components == tuple(
                a * b for a, b in zip(g1, g2)
            )


def test_teichmuller_examples():
    # trivial group: tau is the identity Z -> Z
    one_grp = cyclic(1)
    assert teichmuller_tau(WittVector(one_grp, (7,))).coeffs == (7,)
    # C2: marks(tau(alpha)) = ghost(alpha)
    w = WittVector(C2, (3, -2))
    assert marks(teichmuller_tau(w)) == ghost(w).components
    assert teichmuller_tau(witt_zero(C2)).coeffs == (0, 0)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_ghost_factorization(group):
    report = verify_ghost_factorization(group, samples=25, seed=0)
    assert report.ok, report.failures


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_dress_siebeneicher_iso(group):
    report = verify_dress_siebeneicher_iso(group)
    assert report.ok, report.failures


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_double_coset_identity(group):
    report = ghost_injectivity_double_coset_identity(group)
    assert report.ok, report.failures


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_ring_axioms(group):
    report = verify_ring_axioms(group)
    assert report.ok, report.failures


def test_injectivity_sampled():
    for group in (C2, symmetric(3)):
        report = verify_injectivity(group, samples=120, seed=0)
        assert report.ok, report.failures[:3]


def test_negative_samples_are_rejected():
    for verify in (verify_ghost_factorization, verify_injectivity):
        with pytest.raises(GwittError):
            verify(C2, samples=-5)


def test_component_count_validation():
    with pytest.raises(GwittError):
        WittVector(C2, (1,))
    for components in ((1,), (6, 2, 5)):
        with pytest.raises(GwittError):
            GhostVector(C2, components)
    with pytest.raises(GwittError):
        WittVector(C2, (1, Poly.var("x").rational_div(2)))


def test_tau_rejects_symbolic_components():
    with pytest.raises(GwittError):
        teichmuller_tau(WittVector(C2, (Poly.var("x"), 0)))
    # constant polynomial components are accepted as integers
    assert teichmuller_tau(WittVector(C2, (Poly.const(1), 0))).coeffs == (1, 0)


def test_witt_json_serialization():
    from gwitt.witt import witt_to_json

    payload = witt_to_json(WittVector(C2, (Poly.var("x") + 1, 2)))
    assert payload["schema"] == 1
    assert payload["components"] == {"1a": "x + 1", "2a": "2"}


# -- classical 2-typical Witt vectors, independent oracle ----------------------


def classical_ghost(components):
    """w_k = sum_{i <= k} 2^i a_i^(2^(k-i)) for 2-typical Witt vectors."""
    out = []
    for k in range(len(components)):
        total = Poly()
        for i in range(k + 1):
            total = total + (2 ** i) * Poly.coerce(components[i]) ** (2 ** (k - i))
        out.append(total)
    return out


def classical_unghost(vector):
    comps = []
    for k in range(len(vector)):
        residue = Poly.coerce(vector[k])
        for i in range(k):
            residue = residue - (2 ** i) * comps[i] ** (2 ** (k - i))
        comps.append(residue.exact_div(2 ** k))
    return comps


def classical_structure_polys(length, combine):
    a = [Poly.var(f"ca{i}") for i in range(length)]
    b = [Poly.var(f"cb{i}") for i in range(length)]
    ga, gb = classical_ghost(a), classical_ghost(b)
    return classical_unghost([combine(x, y) for x, y in zip(ga, gb)])


@pytest.mark.parametrize("group", [cyclic(2), cyclic(4)], ids=lambda g: g.name)
def test_cyclic_two_groups_match_classical_witt(group):
    """For C_{2^n} the components biject with 2-typical Witt vectors of
    length n+1; classical index i corresponds to the class of the subgroup
    of index 2^i, i.e. to poset position (n - i)."""
    ctx = witt_context(group)
    n = ctx.n - 1
    rename = {}
    for i in range(ctx.n):
        rename[f"ca{i}"] = Poly.var(ctx.avars[n - i])
        rename[f"cb{i}"] = Poly.var(ctx.bvars[n - i])
    for combine, polys in (
        (lambda x, y: x + y, ctx.sum_polys()),
        (lambda x, y: x * y, ctx.prod_polys()),
    ):
        classical = classical_structure_polys(ctx.n, combine)
        for i in range(ctx.n):
            want = classical[i].substitute(rename)
            got = Poly.coerce(polys[n - i])
            assert got == want


TAU_GROUPS = [C2, klein_four(), cyclic(6), symmetric(3), dihedral(4), symmetric(4),
              elementary_abelian_2(4), s4_x_c2(), dihedral(32), elementary_abelian_2(5)]


@pytest.mark.parametrize(
    "group", [C2, cyclic(4), klein_four(), cyclic(6), symmetric(3), dihedral(4), symmetric(4),
              s4_x_c2(), dihedral(16)],
    ids=lambda g: g.name,
)
def test_symbolic_tau_marks_match_the_subgroup_group_oracle(group):
    """The marks of tau over Z[a_K], as the symbolic verifiers compute them
    from G's lattice, equal those of every K built as a group of its own,
    and both equal the ghost components."""
    ctx = witt_context(group)
    sym = tuple(Poly.var(v) for v in ctx.avars)
    got = tuple(Poly.coerce(m) for m in marks(transferred_norms(group, sym)))
    assert got == symbolic_tau_marks_via_subgroup_groups(group, sym)
    assert got == tuple(Poly.coerce(g) for g in ctx.ghost_components(sym))


@pytest.mark.parametrize("group", TAU_GROUPS, ids=lambda g: g.name)
def test_tau_matches_the_subgroup_group_oracle(group):
    n = len(subconjugacy_poset(group))
    rng = random.Random(f"tau:{group.name}")
    vectors = [tuple((-1) ** i * (i % 3) for i in range(n))]  # 0, -1, 2, 0, ...
    vectors += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
    for comps in vectors:
        w = WittVector(group, comps)
        assert teichmuller_tau(w) == tau_via_subgroup_groups(w), comps


def _tau_of_a_vector(group):
    n = len(subconjugacy_poset(group))
    return teichmuller_tau(WittVector(group, tuple(range(-3, n - 3))))


LATTICE_FREE = {
    "tau": _tau_of_a_vector,
    "factorization": lambda group: verify_ghost_factorization(group, samples=0),
    "double-coset": ghost_injectivity_double_coset_identity,
}


@pytest.mark.parametrize("group, operation", [
    pytest.param(group, operation,
                 id=group.name if operation == "tau" else f"{group.name}-{operation}")
    for group in (elementary_abelian_2(5), s4_x_c2()) for operation in LATTICE_FREE
])
def test_tau_builds_no_group_and_no_subgroup_lattice(monkeypatch, group, operation):
    """tau and the symbolic verifiers read every A(K) off G's lattice: they
    build no Group and add no entry to the per-group memos beyond the one
    of G's subgroup rings."""
    memos = (groups.all_subgroups, groups.subconjugacy_poset, burnside.mark_columns,
             witt_context)
    witt_context(group)
    burnside._subgroup_rings.cache_clear()
    cached = [memo.cache_info().currsize for memo in memos]
    built = []
    original_init = Group.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    def no_unmarks(*args, **kwargs):
        raise AssertionError("tau called unmarks")

    monkeypatch.setattr(Group, "__init__", counting_init)
    monkeypatch.setattr(burnside, "unmarks", no_unmarks)
    result = LATTICE_FREE[operation](group)
    assert getattr(result, "ok", True), result.failures
    assert built == []
    assert [memo.cache_info().currsize for memo in memos] == cached
    assert burnside._subgroup_rings.cache_info().currsize == 1
