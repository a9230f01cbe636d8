"""Acceptance suite: every criterion at its stated tolerance, exact
arithmetic throughout.  Each test prints one pass line; a failure raises
with the counterexample."""

import hashlib
import io
import itertools
import json
import operator
import random
import time
from collections import defaultdict

from oracles import classical_witt_polys, word_depth
from randgen import random_bispan

from gwitt.bispans import (
    bispan_equivalent,
    compose,
    fiber_polynomial,
    is_simple,
    recompose,
    substitute_fibers,
)
from gwitt.burnside import burnside_of_gset, transferred_norms, unmarks
from gwitt.cli import run as cli_run
from gwitt.groups import (
    cyclic,
    dihedral,
    klein_four,
    subconjugacy_poset,
    symmetric,
)
from gwitt.gsets import (
    GMap,
    coset_space,
    dependent_product,
    disjoint_union,
    empty_gset,
    point_gset,
    regular_gset,
)
from gwitt.tambara import (
    BurnsideOverInstance,
    InvariantRingInstance,
    MutatedInstance,
    check_tambara_axioms,
    small_gsets,
)
from gwitt.witt import (
    WittVector,
    verify_dress_siebeneicher_iso,
    verify_ghost_factorization,
    verify_injectivity,
    witt_add,
    witt_context,
    witt_mul,
)
from gwitt.words import SetAssignment, Word, coherence_iso, normal_form_index, supp

ACCEPTANCE_GROUPS = [
    cyclic(1), cyclic(2), cyclic(3), cyclic(4),
    klein_four(), cyclic(6), symmetric(3), dihedral(4),
]


def _report(number, text):
    print(f"ACCEPTANCE {number}: {text}: PASS")


def test_criterion_1_ghost_factorization():
    """marks(tau(alpha)) = ghost(alpha) exactly in Z[a_[K]] per group."""
    start = time.monotonic()
    for group in ACCEPTANCE_GROUPS:
        report = verify_ghost_factorization(group, samples=25, seed=0)
        assert report.ok, (group.name, report.failures[:2])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"ghost factorization took {elapsed:.1f}s"
    _report(1, f"ghost factorization, 8 groups, exact + sampled, {elapsed:.1f}s")


def test_criterion_2_dress_siebeneicher_isomorphism():
    """Every basis element [G/H] round-trips: unghost(marks) integral, tau exact."""
    for group in ACCEPTANCE_GROUPS:
        report = verify_dress_siebeneicher_iso(group)
        assert report.ok, (group.name, report.failures[:2])
    _report(2, "Dress-Siebeneicher isomorphism, all basis elements, 8 groups")


def test_criterion_3_classical_witt_cross_check():
    """C2 and C4 Witt sums and products of the symbolic vectors (a_K) and
    (b_K) equal the 2-typical Witt polynomials derived from
    w_k = sum 2^i a_i^(2^(k-i)), computed by a separate oracle."""
    from gwitt.intpoly import Poly

    for group in (cyclic(2), cyclic(4)):
        ctx = witt_context(group)
        a, b = (WittVector(group, tuple(map(Poly.var, names)))
                for names in (ctx.avars, ctx.bvars))
        for combine, op in ((operator.add, witt_add), (operator.mul, witt_mul)):
            got = [Poly.coerce(c) for c in op(a, b).components]
            assert got == classical_witt_polys(a.components, b.components, combine), \
                group.name
    _report(3, "classical 2-typical Witt polynomials match for C2 and C4")


def _fiber_set_choices(sub_group, max_fiber):
    """All sub_group-sets of size <= max_fiber up to isomorphism."""
    poset = subconjugacy_poset(sub_group)
    transitive = [coset_space(sub_group, c.rep) for c in poset.classes]
    out = []

    def build(start, left, parts):
        if parts:
            whole = parts[0] if len(parts) == 1 else disjoint_union(list(parts))[0]
        else:
            whole = empty_gset(sub_group)
        out.append(whole)
        for i in range(start, len(transitive)):
            if transitive[i].size <= left:
                parts.append(transitive[i])
                build(i, left - transitive[i].size, parts)
                parts.pop()

    build(0, max_fiber, [])
    return out


def _assemble_over(group, x, fibers_per_orbit):
    """(A, p: A -> x) from a fiber choice per orbit, via induction."""
    from gwitt.gsets import induced_gset

    parts = []
    images = []
    for (points, _), fiber in zip(x.orbits(), fibers_per_orbit):
        rep = points[0]
        stab = x.stabilizer(rep)
        total, proj = induced_gset(group, stab, fiber)
        base = coset_space(group, stab)
        # identify G/stab with the orbit: coset with least element r -> r•rep
        reps = []
        seen = set()
        for g in group.elements():
            target = None
            coset_pts = tuple(sorted(group.mul(g, h) for h in stab.elements))
            if coset_pts in seen:
                continue
            seen.add(coset_pts)
            reps.append(coset_pts[0])
        ident = [x.act_table[r][rep] for r in reps]
        parts.append(total)
        images.extend(ident[proj.images[i]] for i in total.points())
    if not parts:
        return empty_gset(group), GMap(empty_gset(group), x, ())
    if len(parts) == 1:
        a = parts[0]
        return a, GMap(a, x, tuple(images))
    a, injections = disjoint_union(parts)
    glued = [0] * a.size
    offset = 0
    for part, inj in zip(parts, injections):
        for i in part.points():
            glued[inj.images[i]] = images[offset + i]
        offset += part.size
    return a, GMap(a, x, tuple(glued))


def _sections_formula_marks(p, group):
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
            count = sum(
                1 for a in p.fiber(pt)
                if all(p.source.act_table[g][a] == a for g in stab)
            )
            total *= count
        out.append(total)
    return tuple(out)


def test_criterion_4_norm_consistency_oracle():
    """For G in {C2, C3, S3}: every effective input with fibers of size <= 3
    over a base G-set of size <= 4 (one representative per iso class over the
    base): the marks-based norm equals the orbit decomposition of the
    explicit dependent product.  Exhaustive and exact."""
    checked = 0
    for group in (cyclic(2), cyclic(3), symmetric(3)):
        pt = point_gset(group)
        for x in small_gsets(group, 4):
            orbit_stabs = [x.stabilizer(points[0]) for points, _ in x.orbits()]
            choice_lists = []
            for stab in orbit_stabs:
                sub_group, _ = stab.as_group()
                choice_lists.append(_fiber_set_choices(sub_group, 3))
            f = GMap(x, pt, (0,) * x.size, validate=False)
            for combo in itertools.product(*choice_lists):
                a, p = _assemble_over(group, x, combo)
                dp = dependent_product(p, f)
                explicit = burnside_of_gset(dp.gset)
                marks_based = unmarks(group, _sections_formula_marks(p, group))
                assert explicit == marks_based, (group.name, x, [c.size for c in combo])
                checked += 1
        # the free-base case must also agree with N_e^G(k), the norm that
        # tau runs: the transferred norms with k at [G] and 0 elsewhere
        top = (0,) * (len(subconjugacy_poset(group)) - 1)
        free = regular_gset(group)
        to_pt = GMap(free, pt, (0,) * group.order)
        for k in range(4):
            parts = [free] * k
            a = (disjoint_union(parts)[0] if len(parts) > 1
                 else (parts[0] if parts else empty_gset(group)))
            p = (GMap(a, free, tuple(list(free.points()) * k), validate=False)
                 if k else GMap(a, free, ()))
            assert burnside_of_gset(dependent_product(p, to_pt).gset) == \
                transferred_norms(group, top + (k,))
            checked += 1
    _report(4, f"effective norm oracle, {checked} inputs, exhaustive")


def test_criterion_5_substitution_law():
    """fiber_polynomial(compose(psi, phi)) equals polynomial substitution,
    >= 500 seeded random composable simple pairs over C2 and S3."""
    rng = random.Random(2024)
    total = 0
    for group in (cyclic(2), symmetric(3)):
        done = 0
        while done < 250:
            phi = random_bispan(group, rng, 4)
            psi = random_bispan(group, rng, 4, source=phi.y)
            if not (is_simple(phi) and is_simple(psi)):
                continue
            comp = compose(psi, phi)
            for z in comp.y.points():
                got = fiber_polynomial(comp, z).poly
                want = substitute_fibers(fiber_polynomial(psi, z).poly, phi)
                assert got == want, (group.name, z)
            done += 1
        total += done
    assert total >= 500
    _report(5, f"bispan substitution law, {total} simple pairs, exact")


def test_criterion_6_factorization_round_trip():
    """Recomposing the three legs T_r ∘ N_q ∘ R_p is equivalent to the input,
    >= 200 seeded random bispans."""
    rng = random.Random(99)
    total = 0
    for group in (cyclic(2), symmetric(3)):
        for _ in range(100):
            phi = random_bispan(group, rng, 4)
            assert bispan_equivalent(recompose(phi.p, phi.q, phi.r), phi), group.name
            total += 1
    assert total >= 200
    _report(6, f"generator factorization round trip, {total} bispans")


def _report_pin(report) -> tuple[int, str]:
    """The law count and a digest of the whole JSON report."""
    text = json.dumps(report.to_json(), sort_keys=True)
    return report.instances_checked, hashlib.sha256(text.encode()).hexdigest()[:16]


def test_criterion_7_tambara_axiom_suite():
    """Invariant-ring and effective-Burnside instances pass at budget 4 for
    C2 and S3; the norm-corrupted instance fails with a witness.  Every
    report is pinned by its law count and the digest of its JSON."""
    start = time.monotonic()
    from gwitt.gsets import natural_gset

    pins = {
        "C2": ((22240, "c9d9aaa841f78d10"), (22240, "ceba0f7ad1011b95")),
        "S3": ((30113, "df96df530bb90c2b"), (30113, "0997440250f91bab")),
    }
    for group, base in ((cyclic(2), regular_gset(cyclic(2))),
                        (symmetric(3), natural_gset(symmetric(3)))):
        inv = InvariantRingInstance(group, base)
        report = check_tambara_axioms(inv, budget=4, seed=0)
        assert report.ok, (group.name, [c.to_json() for c in report.checks if c.status != "pass"])
        eff = BurnsideOverInstance(group)
        report2 = check_tambara_axioms(eff, budget=4, seed=0)
        assert report2.ok, (group.name, [c.to_json() for c in report2.checks if c.status != "pass"])
        assert (_report_pin(report), _report_pin(report2)) == pins[group.name]
    mutated = MutatedInstance(InvariantRingInstance(cyclic(2), regular_gset(cyclic(2))))
    report3 = check_tambara_axioms(
        mutated, budget=3, seed=0, relations=("exponential-distributivity",)
    )
    assert not report3.ok
    witness = [c for c in report3.checks if c.status == "fail"][0].witness
    assert witness and "diagram" in witness
    assert _report_pin(report3) == (444, "8565d3a4042394a2")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"tambara suite took {elapsed:.1f}s"
    _report(7, f"tambara axioms at budget 4 + mutation witness, {elapsed:.1f}s")


def test_criterion_8_coherence_cocycle():
    """Words on three variables (every word with at most 4 leaves, hence
    depth <= 4), grouped by equal simple support.

    The preferred bijection beta is normal-form matching, so the cocycle for
    every triple in a group follows once each word's normal form is a
    bijection onto the shared index family; that certificate runs
    exhaustively here, and the composition law is additionally exercised
    literally on bounded plus seeded-random triples in every group.
    """
    leaves = [Word.zero(), Word.one(), Word.var("x1"), Word.var("x2"), Word.var("x3")]
    by_size = {1: list(leaves)}
    for n in range(2, 5):
        bucket = []
        for k in range(1, n):
            for a in by_size[k]:
                for b in by_size[n - k]:
                    bucket.append(a + b)
                    bucket.append(a * b)
        by_size[n] = bucket
    words = [w for ws in by_size.values() for w in ws]
    assert all(word_depth(w) <= 4 for w in words)
    assignment = SetAssignment.of({"x1": 2, "x2": 1, "x3": 2})

    groups = defaultdict(list)
    for w in words:
        s = supp(w)
        if s.is_simple():
            groups[s].append(w)

    certified = 0
    nf_maps = {}
    for members in groups.values():
        for w in members:
            nf_maps[id(w)] = normal_form_index(w, assignment)
            certified += 1

    rng = random.Random(8)
    literal = 0
    for members in groups.values():
        bounded = members[:12]
        triples = list(itertools.product(bounded, repeat=3))
        for _ in range(min(len(members) ** 3, 300)):
            triples.append((rng.choice(members), rng.choice(members), rng.choice(members)))
        for w, w2, w3 in triples:
            b12 = coherence_iso(w, w2, assignment)
            b23 = coherence_iso(w2, w3, assignment)
            b13 = coherence_iso(w, w3, assignment)
            assert all(b23[b12[e]] == b13[e] for e in b12)
            literal += 1
    _report(8, f"coherence cocycle: {certified} bijectivity certificates "
               f"(exhaustive), {literal} literal triples")


def test_criterion_9_ghost_injectivity():
    """unghost∘ghost = id on >= 1000 seeded random Witt vectors per group
    over Z[x, y], so no two of them share a ghost; positive triangular
    diagonal."""
    for group in ACCEPTANCE_GROUPS:
        report = verify_injectivity(group, samples=1000, seed=0)
        assert report.ok, (group.name, report.failures[:2])
        assert report.checked >= 1000
    _report(9, "ghost injectivity, 1000 samples x 8 groups over Z[x,y]")


GOLDEN_COMMANDS = [
    ["lattice", "D(4)"],
    ["tom", "S(3)"],
    ["tom", "C(6)", "--format", "json"],
    ["marks", "V4", "1,-1,0,2,1"],
    ["orbits", "S(3)/<1> * S(3)/<1>"],
    ["burnside", "mul", "S(3)", "0,1,0,0", "0,0,1,0"],
    ["witt", "mul", "C(2)", "(a0,a1)", "(b0,b1)", "--symbolic"],
    ["witt", "add", "C(4)", "(a0,a1,a2)", "(b0,b1,b2)", "--symbolic", "--format", "json"],
    ["witt", "ghost", "D(4)", "(1,0,0,0,0,0,0,2)"],
    ["witt", "tau", "S(3)", "(1,2,0,-1)"],
    ["witt", "verify", "factorization", "V4", "--samples", "10", "--seed", "11"],
    ["witt", "verify", "injectivity", "C(6)", "--samples", "25", "--seed", "1", "--format", "json"],
    ["compose", "T(fold(C(2)/<>)) ; N(pt(C(2)/<>))"],
    ["simple", "N(S(3)/<> -> S(3)/<1> [0,0,1,1,2,2])"],
    ["factor", "T(fold(S(3)/<1>)) ; N(pt(S(3)/<1>))", "--format", "json"],
    ["words", "supp", "(x1 + x2) * x3"],
    ["words", "iso", "x1 * (x2 + x3)", "x1 * x2 + x1 * x3", "--assign", "x1=2,x2=1,x3=2"],
    ["check", "tambara", "--instance", "invariant", "--group", "C(2)",
     "--budget", "3", "--seed", "0", "--format", "json"],
    ["check", "tambara", "--instance", "burnside", "--group", "S(3)",
     "--budget", "2", "--seed", "0"],
]


def test_criterion_10_cli_determinism():
    """Every golden command is byte-identical across two consecutive runs."""
    for argv in GOLDEN_COMMANDS:
        first_stream, second_stream = io.StringIO(), io.StringIO()
        status1 = cli_run(argv, stream=first_stream)
        status2 = cli_run(argv, stream=second_stream)
        assert status1 == status2 == 0, argv
        assert first_stream.getvalue() == second_stream.getvalue(), argv
        assert first_stream.getvalue()
    _report(10, f"CLI determinism, {len(GOLDEN_COMMANDS)} golden commands, byte-identical")
