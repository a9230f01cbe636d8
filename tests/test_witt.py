"""Witt vectors: ghost/unghost, the structure polynomials through the ring
operations, the Teichmueller homomorphism, theorem-level verifications, the
classical 2-typical cross-check for cyclic 2-groups, and the ring operations
through A(G) with no ghost coordinates."""

import operator
import random
from fractions import Fraction

import pytest

from gwitt import burnside, groups, gsets, witt
from gwitt.burnside import BurnsideElement, burnside_basis, marks, transferred_norms
from gwitt.errors import GwittError, IntegralityError
from gwitt.groups import (
    Group,
    cyclic,
    dihedral,
    direct_product,
    group_from_generators,
    klein_four,
    subconjugacy_poset,
    symmetric,
)
from gwitt.intpoly import Poly
from gwitt.witt import (
    DIRECT_CLASS_CAP,
    RING_LAW_SAMPLES,
    GhostVector,
    WittVector,
    ghost,
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
    big_witt_ring,
    burnside_transfer,
    classical_witt_polys,
    elementary_abelian_2,
    necklace_tau,
    norm_from_trivial,
    orbit_burnside_mul,
    s4_x_c2,
    symbolic_tau_marks_via_subgroup_groups,
    tau_via_subgroup_groups,
    untau,
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
    # equal vectors hash alike, whatever the sequence and however the
    # integers are held
    same = WittVector(C2, [1, Poly.const(2)])
    assert same == WittVector(C2, (1, 2)) and hash(same) == hash(WittVector(C2, (1, 2)))
    with pytest.raises(IntegralityError) as exc:
        unghost(GhostVector(C2, (1, 0)))
    assert exc.value.where == "1a"


def test_unghost_round_trip_over_polynomials():
    rng = random.Random(21)
    for group in (C2, symmetric(3)):
        for _ in range(30):
            w = random_witt_vector(group, rng, ("x", "y"))
            assert unghost(ghost(w)) == w


def symbolic_pair(group: Group) -> tuple[WittVector, WittVector]:
    """The vectors (a_K) and (b_K) in the variables of `witt_context`: the
    Witt operations on them give the structure polynomials."""
    ctx = witt_context(group)
    return tuple(WittVector(group, tuple(map(Poly.var, names)))
                 for names in (ctx.avars, ctx.bvars))


def test_structure_polynomials_c2_frozen():
    a, b = symbolic_pair(C2)
    A_e, A_c = a.components  # ascending: trivial class, then [C2]
    B_e, B_c = b.components
    add_polys = [Poly.coerce(p) for p in witt_add(a, b).components]
    mul_polys = [Poly.coerce(p) for p in witt_mul(a, b).components]
    assert add_polys[1] == A_c + B_c
    assert add_polys[0] == A_e + B_e - A_c * B_c
    assert mul_polys[1] == A_c * B_c
    assert mul_polys[0] == A_c ** 2 * B_e + B_c ** 2 * A_e + 2 * A_e * B_e
    neg = [Poly.coerce(p) for p in witt_neg(a).components]
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


def _bumped(w):
    """w with 1 added at the trivial class, its first component."""
    return type(w)(w.group, (w.components[0] + 1, *w.components[1:]))


def _bumped_marks(element):
    """marks(element) with 1 added at the trivial class."""
    first, *rest = marks(element)
    return (first + 1, *rest)


def test_dress_siebeneicher_iso_fails_on_a_non_integral_pullback(monkeypatch):
    monkeypatch.setattr(witt, "marks", _bumped_marks)
    report = verify_dress_siebeneicher_iso(C2)
    assert report.ok is False
    assert report.failures == [
        f"unghost(marks([G/{label}])) not integral: ghost vector not integral at class 1a"
        for label in ("1a", "2a")
    ]


def test_dress_siebeneicher_iso_fails_on_a_wrong_tau(monkeypatch):
    def wrong(w):
        coeffs = teichmuller_tau(w).coeffs
        return BurnsideElement(w.group, (coeffs[0] + 1, *coeffs[1:]))

    monkeypatch.setattr(witt, "teichmuller_tau", wrong)
    report = verify_dress_siebeneicher_iso(C2)
    assert report.ok is False
    assert report.failures == ["tau round trip failed at [G/1a]: got (2, 0)",
                               "tau round trip failed at [G/2a]: got (1, 1)",
                               "tau(one) = (1, 1) is not [G/G]"]


def test_dress_siebeneicher_iso_fails_on_a_wrong_unit(monkeypatch):
    monkeypatch.setattr(witt, "burnside_one", lambda group: BurnsideElement(group, (1, 1)))
    report = verify_dress_siebeneicher_iso(C2)
    assert report.ok is False
    assert report.failures == ["tau(one) = (0, 1) is not [G/G]"]


def _perturbed(k: int, h: int):
    """transferred_norms with a_K added at class [H], for K and H the
    classes k and h: a wrong term in a_K alone."""
    def wrong(of, values):
        coeffs = list(transferred_norms(of, values).coeffs)
        coeffs[h] += values[k]
        return BurnsideElement(of, tuple(coeffs))

    return wrong


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_double_coset_identity(monkeypatch, group):
    """The factorization check certifies every per-class identity
    marks_[H](T_K^G N_e^K(a_K)) = |(G/K)^H| * a_K^(K:H) over Z[a_K]: a
    wrong term in a_K alone, added at any class [H], makes it fail."""
    assert verify_ghost_factorization(group, samples=0).ok
    n = len(subconjugacy_poset(group))
    for k in range(n):
        for h in range(n):
            monkeypatch.setattr(witt, "transferred_norms", _perturbed(k, h))
            assert not verify_ghost_factorization(group, samples=0).ok, (k, h)


# 1 + 8n checks on n classes up to DIRECT_CLASS_CAP, 1 + 14n above it
RING_AXIOM_CHECKS = {"C1": 9, "C2": 17, "C3": 17, "C4": 25, "V4": 41, "C6": 33,
                     "S3": 33, "D4": 65}


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_ring_axioms(group):
    report = verify_ring_axioms(group)
    assert report.ok, report.failures
    assert report.checked == RING_AXIOM_CHECKS[group.name]


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("group", [C2, symmetric(3)], ids=lambda g: g.name)
def test_ring_axioms_fail_on_a_perturbed_structure_polynomial(monkeypatch, group, op):
    """The sum or product polynomials plus 1 at any one class fail the
    report at that class."""
    exact = witt._structure_op
    poset = subconjugacy_poset(group)
    unit_law = "a + 0 != a" if op == "add" else "a * 1 != a"
    for h in range(len(poset)):
        def wrong(o, a, b, h=h):
            w = exact(o, a, b)
            if o != op:
                return w
            return WittVector(w.group, tuple(c + 1 if i == h else c
                                             for i, c in enumerate(w.components)))

        monkeypatch.setattr(witt, "_structure_op", wrong)
        report = verify_ring_axioms(group)
        assert f"{unit_law} at {poset.label(h)}" in report.failures, h


@pytest.mark.parametrize("group", [C2, symmetric(3)], ids=lambda g: g.name)
def test_ring_axioms_fail_on_a_wrong_negation(monkeypatch, group):
    exact = witt.witt_neg
    monkeypatch.setattr(witt, "witt_neg", lambda w: _bumped(exact(w)))
    report = verify_ring_axioms(group)
    assert report.ok is False
    assert report.failures == ["a + (-a) != 0 at 1a"]


def test_ring_axioms_fail_on_a_wrong_unghost(monkeypatch):
    exact = witt.unghost
    monkeypatch.setattr(witt, "unghost", lambda v: _bumped(exact(v)))
    report = verify_ring_axioms(C2)
    assert report.ok is False
    assert report.failures == ["unghost(ghost(a)) != a symbolically"]


def test_ring_axioms_above_the_direct_cap_check_the_laws_at_seeded_vectors():
    # S4 has 11 classes: associativity and distributivity are checked at
    # RING_LAW_SAMPLES seeded integer triples instead of symbolically
    group = symmetric(4)
    n = len(subconjugacy_poset(group))
    assert n > DIRECT_CLASS_CAP
    report = verify_ring_axioms(group)
    assert report.ok, report.failures
    assert report.seed == 0
    # unghost∘ghost, two units, the additive inverse, two symmetries
    symbolic = 1 + 2 * n + n + 2 * n
    assert report.checked == symbolic + RING_LAW_SAMPLES * 3 * n == 155


def test_injectivity_sampled():
    for group in (C2, symmetric(3)):
        report = verify_injectivity(group, samples=120, seed=0)
        assert report.ok, report.failures[:3]


def test_injectivity_fails_on_a_wrong_unghost(monkeypatch):
    exact = witt.unghost
    monkeypatch.setattr(witt, "unghost", lambda v: _bumped(exact(v)))
    report = verify_injectivity(C2, samples=2, seed=0)
    assert report.ok is False
    assert report.failures == ["unghost(ghost((Poly(3), Poly(1)))) != input",
                               "unghost(ghost((Poly(-x), Poly(-x - 1)))) != input"]


def test_injectivity_fails_on_a_zero_diagonal_mark(monkeypatch):
    ctx = witt.WittContext(C2)
    ctx.columns = ctx.columns._replace(diag=(0, *ctx.columns.diag[1:]))
    monkeypatch.setattr(witt, "witt_context", lambda group: ctx)
    report = verify_injectivity(C2, samples=0)
    assert report.ok is False
    assert report.failures == ["diagonal mark at 1a is not positive"]


def test_ghost_factorization_fails_at_the_seeded_samples(monkeypatch):
    # the per-class half sums the mark columns itself; only the samples read marks
    monkeypatch.setattr(witt, "marks", _bumped_marks)
    report = verify_ghost_factorization(C2, samples=2, seed=0)
    assert report.ok is False
    assert report.failures == ["marks(tau((3, 4))) = (23, 4) != ghost = (22, 4)",
                               "marks(tau((-8, -1))) = (-14, -1) != ghost = (-15, -1)"]


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
    # a component outside Z[X] is refused by Poly, anything else by WittVector
    with pytest.raises(GwittError):
        WittVector(C2, (1, Poly.var("x") * Fraction(1, 2)))
    with pytest.raises(GwittError):
        WittVector(C2, (1, Fraction(1, 2)))


def test_tau_rejects_symbolic_components():
    with pytest.raises(GwittError):
        teichmuller_tau(WittVector(C2, (Poly.var("x"), 0)))
    # the norms themselves take integers only, and say so
    for value in (Poly.var("x"), Fraction(1, 2), 2.0):
        with pytest.raises(GwittError) as exc:
            transferred_norms(C2, (value, 0))
        assert type(exc.value) is GwittError
    # constant polynomial components are accepted as integers
    assert teichmuller_tau(WittVector(C2, (Poly.const(1), 0))).coeffs == (1, 0)


# -- classical 2-typical Witt vectors, independent oracle ----------------------


@pytest.mark.parametrize("group", [cyclic(8), cyclic(16)], ids=lambda g: g.name)
def test_cyclic_two_groups_match_classical_witt(group):
    """For C_{2^n} the components biject with 2-typical Witt vectors of
    length n+1; criterion 3 checks C2 and C4, this C8 and C16."""
    a, b = symbolic_pair(group)
    for combine, op in ((operator.add, witt_add), (operator.mul, witt_mul)):
        got = [Poly.coerce(c) for c in op(a, b).components]
        assert got == classical_witt_polys(a.components, b.components, combine)


# -- the ring operations through A(G), independent oracle ----------------------


@pytest.mark.parametrize("group", [C2, cyclic(4), klein_four(), symmetric(3),
                                   dihedral(4), symmetric(4)], ids=lambda g: g.name)
def test_ring_operations_match_the_burnside_ring(group):
    """tau is a ring isomorphism W_G(Z) -> A(G), so add, mul and neg are
    untau of the sum, product and negation of the tau images; untau and
    the product by orbits of product G-sets read no ghost coordinate."""
    rng = random.Random(f"untau:{group.name}")
    n = len(subconjugacy_poset(group))
    for _ in range(5):
        a, b = (WittVector(group, tuple(rng.choice((0, rng.randint(-9, 9)))
                                        for _ in range(n))) for _ in range(2))
        ta, tb = teichmuller_tau(a), teichmuller_tau(b)
        assert witt_add(a, b) == untau(ta + tb), (a, b)
        assert witt_mul(a, b) == untau(orbit_burnside_mul(ta, tb)), (a, b)
        assert witt_neg(a) == untau(-ta), a


@pytest.mark.parametrize("group", [dihedral(32), elementary_abelian_2(5)],
                         ids=lambda g: g.name)
def test_untau_inverts_tau_on_the_large_ladder_groups(group):
    rng = random.Random(f"untau:{group.name}")
    for _ in range(3):
        w = random_witt_vector(group, rng)
        assert untau(teichmuller_tau(w)) == w, w


@pytest.mark.parametrize("n, ring", [(n, "Z") for n in range(1, 21)]
                         + [(n, "Z[x]") for n in (2, 3, 4, 6, 8, 12)])
def test_cyclic_ring_operations_match_big_witt_vectors(n, ring):
    """On C_n, add, mul and neg are those of the big Witt ring truncated at
    the divisors of n, computed as power series with no marks or ghost map;
    over Z for n <= 20 (the structure polynomials of C24 take 1.3 s to
    build, those of C32 3.8 s), over Z[x] for a few n."""
    group = cyclic(n)
    poly_vars = ("x",) if ring == "Z[x]" else ()
    rng = random.Random(f"big-witt:{n}:{ring}")
    for _ in range(5):
        a, b = (random_witt_vector(group, rng, poly_vars) for _ in range(2))
        assert witt_add(a, b) == big_witt_ring("add", a, b), (a, b)
        assert witt_mul(a, b) == big_witt_ring("mul", a, b), (a, b)
        assert witt_neg(a) == big_witt_ring("neg", a), a


def test_tau_on_cyclic_groups_counts_necklaces():
    for n in range(1, 65):
        rng = random.Random(f"necklace:{n}")
        for _ in range(3):
            w = random_witt_vector(cyclic(n), rng)
            assert teichmuller_tau(w) == necklace_tau(w), w


# A5 is not solvable; C3xS3 has a non-cyclic Sylow 3-subgroup
A5 = group_from_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], n_points=5, name="A5")
C3_X_S3 = direct_product(cyclic(3), symmetric(3))
TAU_GROUPS = [C2, klein_four(), cyclic(6), symmetric(3), dihedral(4), symmetric(4),
              elementary_abelian_2(4), s4_x_c2(), dihedral(32), elementary_abelian_2(5),
              A5, C3_X_S3]


@pytest.mark.parametrize(
    "group", [C2, cyclic(4), klein_four(), cyclic(6), symmetric(3), dihedral(4), symmetric(4),
              s4_x_c2(), dihedral(16), A5, C3_X_S3],
    ids=lambda g: g.name,
)
def test_symbolic_tau_marks_match_the_subgroup_group_oracle(group):
    """The marks of tau over Z[a_K], with every K built as a group of its
    own, equal the ghost components; and at each vector t * e_K, t in
    0..|K|, where the factorization check interpolates, the marks of tau
    from G's lattice equal those of that construction."""
    ctx = witt_context(group)
    sym = tuple(Poly.var(v) for v in ctx.avars)
    assert symbolic_tau_marks_via_subgroup_groups(group, sym) == tuple(
        Poly.coerce(g) for g in ctx.ghost_components(sym))
    for k, cls in enumerate(ctx.poset.classes):
        for t in range(cls.order + 1):
            comps = tuple(t if i == k else 0 for i in range(ctx.n))
            want = marks(tau_via_subgroup_groups(WittVector(group, comps)))
            assert marks(transferred_norms(group, comps)) == want, (cls.label, t)


VERDICT_PAIRS = 1  # seeded (K, H) perturbations per group above 11 classes


@pytest.mark.parametrize(
    "group", [C2, cyclic(4), symmetric(3), dihedral(4), symmetric(4),
              elementary_abelian_2(5), dihedral(32), s4_x_c2()],
    ids=lambda g: g.name,
)
def test_the_factorization_verdict_matches_the_symbolic_oracle(monkeypatch, group):
    """The check at integer points gives the verdict of the identity
    marks(tau(a)) = ghost(a) over Z[a_K], as the symbolic oracle decides
    it: true for tau, false for tau with a_K added at class [H].  Every
    (K, H) is tried up to 11 classes; above, where each costs a whole
    check, VERDICT_PAIRS seeded ones."""
    ctx = witt_context(group)
    sym = tuple(Poly.var(v) for v in ctx.avars)
    oracle = symbolic_tau_marks_via_subgroup_groups(group, sym)
    want = tuple(Poly.coerce(g) for g in ctx.ghost_components(sym))
    assert oracle == want
    assert verify_ghost_factorization(group, samples=0).ok
    pairs = [(k, h) for k in range(ctx.n) for h in range(ctx.n)]
    if ctx.n > 11:
        pairs = random.Random(f"verdict:{group.name}").sample(pairs, VERDICT_PAIRS)
    for k, h in pairs:
        basis = marks(burnside_basis(group, h))
        wrong = tuple(m + b * sym[k] for m, b in zip(oracle, basis))
        monkeypatch.setattr(witt, "transferred_norms", _perturbed(k, h))
        assert verify_ghost_factorization(group, samples=0).ok == (wrong == want), (k, h)


@pytest.mark.parametrize("group", TAU_GROUPS, ids=lambda g: g.name)
def test_tau_matches_the_subgroup_group_oracle(group):
    n = len(subconjugacy_poset(group))
    rng = random.Random(f"tau:{group.name}")
    vectors = [tuple((-1) ** i * (i % 3) for i in range(n))]  # 0, -1, 2, 0, ...
    vectors += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
    for comps in vectors:
        w = WittVector(group, comps)
        assert teichmuller_tau(w) == tau_via_subgroup_groups(w), comps


@pytest.mark.parametrize("group", TAU_GROUPS, ids=lambda g: g.name)
def test_tau_of_each_class_is_the_norm_in_its_own_burnside_ring(group):
    """tau of x at [K] and 0 elsewhere is T_K^G N_e^K(x), with K built as a
    group of its own and N_e^K(x) solved by unmarks in A(K)."""
    poset = subconjugacy_poset(group)
    for k, cls in enumerate(poset.classes):
        sub_group, _ = cls.rep.as_group()
        for x in range(-2, 4):
            comps = [0] * len(poset)
            comps[k] = x
            want = burnside_transfer(cls.rep, norm_from_trivial(sub_group, x))
            assert teichmuller_tau(WittVector(group, tuple(comps))) == want, (cls.label, x)


def _tau_of_a_vector(group):
    n = len(subconjugacy_poset(group))
    return teichmuller_tau(WittVector(group, tuple(range(-3, n - 3))))


LATTICE_FREE = {
    "tau": _tau_of_a_vector,
    "factorization": lambda group: verify_ghost_factorization(group, samples=0),
}


@pytest.mark.parametrize("group, operation", [
    pytest.param(group, operation,
                 id=group.name if operation == "tau" else f"{group.name}-{operation}")
    for group in (elementary_abelian_2(5), s4_x_c2()) for operation in LATTICE_FREE
])
def test_tau_builds_no_group_and_no_subgroup_lattice(monkeypatch, group, operation):
    """tau and the symbolic verifiers count on the subgroup down-sets of G's
    poset: they build no Group, add no entry to any per-group memo, read no
    table of marks but G's and solve in none."""
    memos = (groups.all_subgroups, groups.subconjugacy_poset, burnside.mark_columns,
             gsets._class_coset_spaces, witt_context)
    witt_context(group)
    cached = [memo.cache_info().currsize for memo in memos]
    built = []
    original_init = Group.__init__
    mark_columns = burnside.mark_columns

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    def no_unmarks(*args, **kwargs):
        raise AssertionError("tau called unmarks")

    def no_solve(*args, **kwargs):
        raise AssertionError("tau called column_solve")

    def columns_of_g_only(of):
        assert of == group, f"tau read the table of marks of {of.name}"
        return mark_columns(of)

    monkeypatch.setattr(Group, "__init__", counting_init)
    monkeypatch.setattr(burnside, "unmarks", no_unmarks)
    monkeypatch.setattr(burnside, "column_solve", no_solve)
    monkeypatch.setattr(burnside, "mark_columns", columns_of_g_only)
    result = LATTICE_FREE[operation](group)
    assert getattr(result, "ok", True), result.failures
    assert built == []
    assert [memo.cache_info().currsize for memo in memos] == cached
