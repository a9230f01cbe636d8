"""Workload `verify_mix`: verdicts from the checkers.

The Tambara checker at budget 4 (invariant instance over S3, Burnside
instance over C2) and the mutated instance that must fail; the norm oracle
(induced_gset, dependent_product and burnside_of_gset against unmarks of the
sections formula); seeded compose, fiber_polynomial and bispan_equivalent on
random bispans; coherence_iso triples on words of at most four leaves; and
the golden CLI commands through `gwitt.cli.run`.  Many tiny G-sets and
polynomials, where `ladder_cold` has few large coset spaces and `witt_warm`
large polynomials.  Set-up is the import and the input generation.

With tracing on, the Tambara checker runs once per relation plus three
times with no relation (enumeration only); each relation's time is its run
minus the median enumeration run of the same instance.
"""

from __future__ import annotations

import io
import itertools
import random

import harness

NORM_ITEMS = 250      # seeded sample of the exhaustive norm-oracle inputs
SUBST_PAIRS = 40      # composable simple pairs, per round
ROUND_TRIPS = 40      # T_r N_q R_p recompositions checked equivalent
WORD_ITEMS = 150      # words through supp and normal_form_index
TRIPLES = 600         # coherence_iso triples

TAMBARA_BUDGET = 4
ASSIGNMENT = {"x1": 2, "x2": 1, "x3": 2}

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


# -- inputs ------------------------------------------------------------------


def _gset_choices(group, max_size: int) -> list:
    """All group-sets with at most max_size points, up to isomorphism."""
    from gwitt.groups import subconjugacy_poset
    from gwitt.gsets import coset_space, disjoint_union, empty_gset

    spaces = [coset_space(group, c.rep) for c in subconjugacy_poset(group).classes]
    out = []

    def build(start, left, parts):
        if not parts:
            out.append(empty_gset(group))
        else:
            out.append(parts[0] if len(parts) == 1 else disjoint_union(list(parts))[0])
        for i in range(start, len(spaces)):
            if spaces[i].size <= left:
                parts.append(spaces[i])
                build(i, left - spaces[i].size, parts)
                parts.pop()

    build(0, max_size, [])
    return out


def _norm_inputs(rng: random.Random) -> list:
    """A seeded sample of the norm-oracle inputs: fibers of at most three
    points over every base of at most four points, for C2, C3 and S3."""
    from gwitt.groups import cyclic, symmetric

    candidates = []
    for group in (cyclic(2), cyclic(3), symmetric(3)):
        for x in _gset_choices(group, 4):
            stabs = [x.stabilizer(points[0]) for points, _ in x.orbits()]
            choices = [_gset_choices(s.as_group()[0], 3) for s in stabs]
            for combo in itertools.product(*choices):
                candidates.append((group, x, stabs, combo))
    return rng.sample(candidates, NORM_ITEMS)


def _random_gset(group, spaces, rng, max_size):
    from gwitt.gsets import disjoint_union, empty_gset
    parts, left = [], max_size
    while left > 0 and rng.random() < 0.8:
        space = rng.choice(spaces)
        if space.size <= left:
            parts.append(space)
            left -= space.size
    if not parts:
        return empty_gset(group)
    return parts[0] if len(parts) == 1 else disjoint_union(parts)[0]


def _random_gmap(a, x, rng):
    from gwitt.gsets import GMap
    if a.size == 0:
        return GMap(a, x, (), validate=False)
    images = [0] * a.size
    for points, transporter in a.orbits():
        rep = points[0]
        stab = [g for g in a.group.elements() if a.act_table[g][rep] == rep]
        candidates = [p for p in x.points() if all(x.act_table[g][p] == p for g in stab)]
        if not candidates:
            return None
        target = rng.choice(candidates)
        for u, g in transporter.items():
            images[u] = x.act_table[g][target]
    return GMap(a, x, tuple(images), validate=False)


def _random_bispan(group, spaces, rng, source=None):
    from gwitt.bispans import Bispan
    while True:
        x = source if source is not None else _random_gset(group, spaces, rng, 4)
        y, a, b = (_random_gset(group, spaces, rng, 4) for _ in range(3))
        q = _random_gmap(a, b, rng)
        p = _random_gmap(a, x, rng)
        r = _random_gmap(b, y, rng)
        if None not in (p, q, r):
            return Bispan(p, q, r)


def fiber_poly(phi, y):
    """Reference fiber polynomial: sum over b over y of the product over a
    over b of x_p(a), counted straight from the maps."""
    from gwitt.intpoly import Poly
    terms: dict = {}
    for b in range(phi.b.size):
        if phi.r.images[b] != y:
            continue
        exps: dict = {}
        for a in range(phi.a.size):
            if phi.q.images[a] == b:
                name = f"x{phi.p.images[a]}"
                exps[name] = exps.get(name, 0) + 1
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, 0) + 1
    return Poly(terms)


def _is_simple(terms: dict) -> bool:
    """A sum of distinct square-free monomials, from {monomial: coefficient}."""
    return all(c == 1 and all(e == 1 for _, e in mono) for mono, c in terms.items())


def _bispans(rng: random.Random) -> tuple[list, list]:
    from gwitt.groups import cyclic, subconjugacy_poset, symmetric
    from gwitt.gsets import coset_space

    pairs, singles = [], []
    for group in (cyclic(2), symmetric(3)):
        spaces = [coset_space(group, c.rep) for c in subconjugacy_poset(group).classes]
        found = 0
        while found < SUBST_PAIRS // 2:
            phi = _random_bispan(group, spaces, rng)
            psi = _random_bispan(group, spaces, rng, source=phi.y)
            if all(_is_simple(fiber_poly(b, y).terms) for b in (phi, psi) for y in range(b.y.size)):
                pairs.append((phi, psi))
                found += 1
        for _ in range(ROUND_TRIPS // 2):
            singles.append(_random_bispan(group, spaces, rng))
    return pairs, singles


def _words() -> list:
    """Every word with at most four leaves on x1, x2, x3, with its support
    computed here as {monomial: coefficient}."""
    from gwitt.words import Word

    def add(s, t):
        out = dict(s)
        for m, c in t.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def mul(s, t):
        out: dict = {}
        for m1, c1 in s.items():
            for m2, c2 in t.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    leaves = [(Word.zero(), {}), (Word.one(), {(): 1})]
    leaves += [(Word.var(v), {((v, 1),): 1}) for v in ("x1", "x2", "x3")]
    by_size = {1: leaves}
    for n in range(2, 5):
        bucket = []
        for k in range(1, n):
            for wa, sa in by_size[k]:
                for wb, sb in by_size[n - k]:
                    bucket.append((wa + wb, add(sa, sb)))
                    bucket.append((wa * wb, mul(sa, sb)))
        by_size[n] = bucket
    return [ws for bucket in by_size.values() for ws in bucket]


def _word_inputs(rng: random.Random) -> tuple[list, list]:
    groups: dict = {}
    for w, s in _words():
        if _is_simple(s):
            groups.setdefault(tuple(sorted(s.items())), []).append((w, s))
    keys = sorted(groups)
    singles = [rng.choice(groups[rng.choice(keys)]) for _ in range(WORD_ITEMS)]
    triples = []
    for _ in range(TRIPLES):
        members = groups[rng.choice(keys)]
        triples.append(tuple(rng.choice(members) for _ in range(3)))
    return singles, triples


def setup(seed: int, rec: harness.Recorder) -> dict:
    from gwitt.groups import cyclic, symmetric
    from gwitt.gsets import natural_gset, regular_gset
    from gwitt.tambara import BurnsideOverInstance, InvariantRingInstance, MutatedInstance
    from gwitt.words import SetAssignment

    rng = random.Random(f"{seed}:verify_mix")
    pairs, singles = _bispans(rng)
    words, triples = _word_inputs(rng)
    c2, s3 = cyclic(2), symmetric(3)
    return {
        "tambara": [("invariant-S3", InvariantRingInstance(s3, natural_gset(s3))),
                    ("burnside-C2", BurnsideOverInstance(c2))],
        "mutated": MutatedInstance(InvariantRingInstance(c2, regular_gset(c2))),
        "norm": _norm_inputs(rng),
        "pairs": pairs,
        "singles": singles,
        "words": words,
        "triples": triples,
        "assignment": SetAssignment.of(ASSIGNMENT),
    }


# -- one round ---------------------------------------------------------------


def _tambara(state, rec: harness.Recorder):
    from gwitt.tambara import RELATION_NAMES, check_tambara_axioms

    for label, instance in state["tambara"]:
        with rec.item(f"tambara {label}"):
            if not rec.trace:
                report = rec.call("tambara.check", check_tambara_axioms, instance,
                                  budget=TAMBARA_BUDGET, seed=0)
                rec.expect(rec.last, report.ok, f"tambara {label}: verdict is not pass")
                rec.output(f"tambara/{label}",
                           [[c.relation, c.status] for c in report.checks]
                           + [report.instances_checked], [rec.last], seeded=False)
                continue
            start = len(rec.ops)
            enumerations, verdicts = [], []
            for i, relation in enumerate(RELATION_NAMES):
                if i % 4 == 0:  # three enumeration-only runs: first, middle, last
                    rec.call("tambara.enumerate", check_tambara_axioms, instance,
                             budget=TAMBARA_BUDGET, seed=0, relations=())
                    enumerations.append(rec.last)
                report = rec.call(f"tambara.{relation}", check_tambara_axioms, instance,
                                  budget=TAMBARA_BUDGET, seed=0, relations=(relation,))
                rec.expect(rec.last, report.ok, f"tambara {label} {relation}: not pass")
                rec.derived.append((f"tambara.{relation}", rec.last, enumerations))
                rec.counts[f"tambara.{relation}_instances"] += report.instances_checked
                verdicts.append([relation, report.checks[0].status, report.instances_checked])
            rec.derived.append(("tambara.enumerate", None, enumerations))
            rec.output(f"tambara/{label}/per-relation", verdicts,
                       list(range(start, len(rec.ops))), seeded=False)
    with rec.item("tambara mutated"):
        report = rec.call("tambara.mutated", check_tambara_axioms, state["mutated"],
                          budget=3, seed=0, relations=("exponential-distributivity",))
        failing = [c for c in report.checks if c.status == "fail"]
        rec.expect(rec.last, not report.ok and failing and "diagram" in failing[0].witness,
                   "mutated instance: verdict is not fail with a witness")
        rec.output("tambara/mutated", [report.ok, report.instances_checked],
                   [rec.last], seeded=False)


def _sections_marks(p, group) -> tuple:
    """Marks of the norm of p along X -> pt: for each class [L], the product
    over L-orbits of X of the number of L_x-fixed points in the fiber."""
    from gwitt.groups import subconjugacy_poset

    x = p.target
    out = []
    for cls in subconjugacy_poset(group).classes:
        elems = cls.rep.elements
        seen: set = set()
        total = 1
        for pt in range(x.size):
            if pt in seen:
                continue
            seen |= {x.act_table[g][pt] for g in elems}
            stab = [g for g in elems if x.act_table[g][pt] == pt]
            total *= sum(
                1 for a in range(p.source.size)
                if p.images[a] == pt and all(p.source.act_table[g][a] == a for g in stab)
            )
        out.append(total)
    return tuple(out)


def _norm_oracle(state, rec: harness.Recorder):
    from gwitt.burnside import burnside_of_gset, unmarks
    from gwitt.gsets import GMap, disjoint_union, empty_gset, point_gset
    from gwitt.gsets import dependent_product, induced_gset

    results, ops = [], []
    for group, x, stabs, combo in state["norm"]:
        with rec.item("norm oracle"):
            start = len(rec.ops)
            parts, images = [], []
            for (points, _), stab, fiber in zip(x.orbits(), stabs, combo):
                total, proj = rec.call("gsets.induced_gset", induced_gset, group, stab, fiber)
                # coset with least element r  ->  r . (orbit representative)
                reps = sorted({min(group.mul(g, h) for h in stab.elements)
                               for g in group.elements()})
                ident = [x.act_table[r][points[0]] for r in reps]
                parts.append(total)
                images.extend(ident[proj.images[i]] for i in range(total.size))
            if not parts:
                a = empty_gset(group)
                p = GMap(a, x, ())
            elif len(parts) == 1:
                p = GMap(parts[0], x, tuple(images))
            else:
                a, injections = disjoint_union(parts)
                glued = [0] * a.size
                offset = 0
                for part, inj in zip(parts, injections):
                    for i in range(part.size):
                        glued[inj.images[i]] = images[offset + i]
                    offset += part.size
                p = GMap(a, x, tuple(glued))
            f = GMap(x, point_gset(group), (0,) * x.size, validate=False)
            dp = rec.call("gsets.dependent_product", dependent_product, p, f)
            explicit = rec.call("burnside.of_gset", burnside_of_gset, dp.gset)
            reference = rec.call("burnside.unmarks", unmarks, group, _sections_marks(p, group))
            rec.counts["gsets.dp_points"] += dp.gset.size
            item_ops = list(range(start, len(rec.ops)))
            rec.expect(item_ops, explicit == reference,
                       f"norm oracle over {group.name}: dependent product != sections formula")
            results.append(list(explicit.coeffs))
            ops.extend(item_ops)
    rec.output("norm", results, ops, seeded=True)


def _bispan_ops(state, rec: harness.Recorder):
    from gwitt.bispans import bispan_equivalent, compose, fiber_polynomial, gen_N, gen_R, gen_T

    results, ops = [], []
    for phi, psi in state["pairs"]:
        with rec.item("substitution law"):
            start = len(rec.ops)
            comp = rec.call("bispans.compose", compose, psi, phi)
            rec.counts["bispans.composed_points"] += comp.a.size + comp.b.size
            mapping = {f"x{y}": fiber_poly(phi, y) for y in range(phi.y.size)}
            fibers = []
            for z in range(comp.y.size):
                got = rec.call("bispans.fiber_polynomial", fiber_polynomial, comp, z).poly
                rec.counts["intpoly.result_terms"] += len(got.terms)
                want = fiber_poly(psi, z).substitute(mapping)
                rec.expect(list(range(start, len(rec.ops))), got == want,
                           f"substitution law fails over {phi.x.group.name} at {z}")
                fibers.append(str(got))
            results.append([comp.a.size, comp.b.size, fibers])
            ops.extend(range(start, len(rec.ops)))
    for phi in state["singles"]:
        with rec.item("round trip"):
            start = len(rec.ops)
            inner = rec.call("bispans.compose", compose, gen_N(phi.q), gen_R(phi.p))
            rec.counts["bispans.composed_points"] += inner.a.size + inner.b.size
            again = rec.call("bispans.compose", compose, gen_T(phi.r), inner)
            rec.counts["bispans.composed_points"] += again.a.size + again.b.size
            same = rec.call("bispans.equivalent", bispan_equivalent, again, phi)
            rec.expect(list(range(start, len(rec.ops))), same is True,
                       "T_r N_q R_p is not equivalent to the bispan")
            results.append([again.a.size, again.b.size])
            ops.extend(range(start, len(rec.ops)))
    rec.output("bispans", results, ops, seeded=True)


def _word_ops(state, rec: harness.Recorder):
    from gwitt.words import coherence_iso, normal_form_index, supp

    assignment = state["assignment"]

    def elements(support) -> int:
        total = 0
        for mono, _ in support.items():
            size = 1
            for name, _ in mono:
                size *= ASSIGNMENT[name]
            total += size
        return total

    results, ops = [], []
    for w, support in state["words"]:
        with rec.item("word"):
            s = rec.call("words.supp", supp, w)
            rec.expect(rec.last, s.terms == support, f"supp({w}) is {s}")
            rec.counts["intpoly.result_terms"] += len(s.terms)
            nf = rec.call("words.normal_form_index", normal_form_index, w, assignment)
            rec.expect(rec.last, len(nf) == elements(support) == len(set(nf.values())),
                       f"normal_form_index({w}) is not a bijection")
            results.append([str(s), len(nf)])
            ops.extend((rec.last - 1, rec.last))
    for (w1, support), (w2, _), (w3, _) in state["triples"]:
        with rec.item("coherence triple"):
            start = len(rec.ops)
            b12 = rec.call("words.coherence_iso", coherence_iso, w1, w2, assignment)
            b23 = rec.call("words.coherence_iso", coherence_iso, w2, w3, assignment)
            b13 = rec.call("words.coherence_iso", coherence_iso, w1, w3, assignment)
            rec.expect([start, start + 1, start + 2],
                       len(b12) == elements(support) and all(b23[b12[e]] == b13[e] for e in b12),
                       f"cocycle fails on {w1}, {w2}, {w3}")
            results.append(len(b13))
            ops.extend((start, start + 1, start + 2))
    rec.output("words", results, ops, seeded=True)


def _cli(rec: harness.Recorder):
    from gwitt.cli import run

    for argv in GOLDEN_COMMANDS:
        with rec.item("cli"):
            stream = io.StringIO()
            status = rec.call("cli.run", run, argv, stream=stream)
            text = stream.getvalue()
            rec.expect(rec.last, status == 0 and text != "", f"cli {' '.join(argv)}: status {status}")
            rec.output(f"cli/{' '.join(argv)}", [status, text], [rec.last], seeded=False)


def run_round(state: dict, rec: harness.Recorder) -> None:
    _tambara(state, rec)
    _norm_oracle(state, rec)
    _bispan_ops(state, rec)
    _word_ops(state, rec)
    _cli(rec)
