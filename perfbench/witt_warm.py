"""Workload `witt_warm`: library throughput of G-typical Witt arithmetic.

A fixed, seeded stream of witt_add, witt_mul, witt_neg, ghost, unghost and
teichmuller_tau over C2, C4, V4, C6, S3 and D4, with components in Z and in
Z[x,y], on warm caches.  Here `witt` and `intpoly` do almost all the work;
`groups` and `burnside` sit idle.  Set-up is the import, `witt_context` and
the universal sum/product/neg polynomials of every group.

Every result is checked outside the timed call: ghost must be additive and
multiplicative on it and unghost(ghost(r)) must give it back.
"""

from __future__ import annotations

import random

import harness

# Items per group and round.
INT_ITEMS = 20   # each of add, mul, neg, ghost+unghost, tau on integers
POLY_ITEMS = 3   # each of add, mul, neg, ghost+unghost on Z[x,y]

def _groups():
    from gwitt.groups import cyclic, dihedral, klein_four, symmetric
    return {"C2": cyclic(2), "C4": cyclic(4), "V4": klein_four(),
            "C6": cyclic(6), "S3": symmetric(3), "D4": dihedral(4)}


def universal_polynomials(groups, rec: harness.Recorder):
    """Build witt_context and the universal sum, product and negation of
    every group by evaluating the ring operations on symbolic vectors, and
    count their terms."""
    from gwitt.intpoly import Poly
    from gwitt.witt import WittVector, witt_add, witt_context, witt_mul, witt_neg

    universal = []
    for key, group in groups.items():
        with rec.item(f"{key} universal polynomials"):
            ctx = rec.call("witt.context", witt_context, group)
            a = WittVector(group, tuple(Poly.var(f"a{i}") for i in range(ctx.n)))
            b = WittVector(group, tuple(Poly.var(f"b{i}") for i in range(ctx.n)))
            for w in (rec.call("witt.universal", witt_add, a, b),
                      rec.call("witt.universal", witt_mul, a, b),
                      rec.call("witt.universal", witt_neg, a)):
                rec.counts["witt.poly_terms"] += sum(len(Poly.coerce(c).terms) for c in w.components)
                universal.append(_comps(w))
    rec.output("universal_polynomials", universal, list(range(len(rec.ops))), seeded=False)


def _random_poly(rng: random.Random):
    """c1*x + c2*y with nonzero c1, c2: every seed gives polynomials of the
    same shape, so the cost of a round does not depend on the seed."""
    from gwitt.intpoly import Poly
    c1, c2 = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
    return c1 * Poly.var("x") + c2 * Poly.var("y")


def setup(seed: int, rec: harness.Recorder) -> list:
    """Warm caches and build the seeded stream; the same seed gives the same
    stream, and every round replays it."""
    from gwitt.groups import subconjugacy_poset
    from gwitt.witt import WittVector

    groups = _groups()
    universal_polynomials(groups, rec)
    rng = random.Random(f"{seed}:witt_warm")
    stream = []
    for key, group in groups.items():
        n = len(subconjugacy_poset(group))

        def vec(kind):
            if kind == "int":
                return WittVector(group, harness.nonzero_ints(rng, 5, n))
            return WittVector(group, tuple(_random_poly(rng) for _ in range(n)))

        for kind, count, ops in (("int", INT_ITEMS, ("add", "mul", "neg", "ghost", "tau")),
                                 ("poly", POLY_ITEMS, ("add", "mul", "neg", "ghost"))):
            for op in ops:
                for _ in range(count):
                    stream.append((key, kind, op, vec(kind), vec(kind)))
    rng.shuffle(stream)
    return stream


def _terms(components) -> int:
    from gwitt.intpoly import Poly
    return sum(len(c.terms) for c in components if isinstance(c, Poly))


def _comps(w) -> list[str]:
    return [str(c) for c in w.components]


def run_round(stream: list, rec: harness.Recorder) -> None:
    from gwitt.burnside import marks
    from gwitt.witt import GhostVector, ghost, teichmuller_tau, unghost, witt_add, witt_mul, witt_neg

    results, seeded_ops = [], []
    for key, kind, op, a, b in stream:
        with rec.item(f"{key} {kind} {op}"):
            start = len(rec.ops)
            if op == "ghost":
                g = rec.call("witt.ghost", ghost, a)
                r = rec.call("witt.unghost", unghost, g)
                rec.expect([start, rec.last], r == a, f"{key}: unghost(ghost(w)) != w")
                results.append(_comps(g) + _comps(r))
                rec.counts["intpoly.result_terms"] += _terms(g.components) + _terms(r.components)
            elif op == "tau":
                t = rec.call("witt.tau", teichmuller_tau, a)
                rec.expect(rec.last, tuple(marks(t)) == tuple(ghost(a).components),
                           f"{key}: marks(tau(w)) != ghost(w)")
                results.append(list(t.coeffs))
            else:
                ga, gb = ghost(a).components, ghost(b).components
                if op == "add":
                    r = rec.call("witt.add", witt_add, a, b)
                    want = tuple(x + y for x, y in zip(ga, gb))
                elif op == "mul":
                    r = rec.call("witt.mul", witt_mul, a, b)
                    want = tuple(x * y for x, y in zip(ga, gb))
                else:
                    r = rec.call("witt.neg", witt_neg, a)
                    want = tuple(-x for x in ga)
                got = ghost(r)
                rec.expect(rec.last, got == GhostVector(a.group, want),
                           f"{key}: ghost is not a ring map on witt.{op}")
                rec.expect(rec.last, unghost(got) == r, f"{key}: unghost(ghost(r)) != r on witt.{op}")
                results.append(_comps(r))
                rec.counts["intpoly.result_terms"] += _terms(r.components)
            seeded_ops.extend(range(start, len(rec.ops)))
    rec.output("stream", results, seeded_ops, seeded=True)
