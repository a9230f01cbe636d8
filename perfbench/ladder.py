"""Workload `ladder_cold`: the group ladder, each rung in a fresh interpreter.

Every CLI call pays for the cold per-group structures (subgroups, poset,
table of marks, basis products, the subgroup posets behind tau), so each
rung starts a new interpreter and nothing is cleared by hand.  The parent
times interpreter start plus `import gwitt` as set-up; the rung times each
public call as one operation and checks its outputs against closed forms
and identities computed here, outside the timed calls.

Run one rung by hand:  python3 perfbench/ladder.py --rung C2^5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time

import harness

# Burnside products per rung come in seeded samples, as do tau and ghost.
SAMPLES = 2


def _gaussian_subspaces(n: int) -> int:
    """Number of subspaces of F_2^n: the sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def _dihedral_counts(n: int) -> tuple[int, int]:
    """(subgroups, conjugacy classes of subgroups) of the dihedral group of
    order 2n: tau(n) + sigma(n) subgroups; tau(n) cyclic classes plus one
    class of reflection subgroups per odd divisor and two per even one."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    subgroups = len(divisors) + sum(divisors)
    classes = len(divisors) + sum(1 if d % 2 else 2 for d in divisors)
    return subgroups, classes


# key -> (DSL text, order, subgroups or None, classes or None, burnside_mul?)
# S4 has 30 subgroups in 11 classes.  S4xC2 has no closed form here; its
# table of marks is still checked entry by entry below.  burnside_mul on
# C2^5 stays out until it fits a run (about 34 s, estimated from 200
# sampled products).
RUNGS = {
    "C2": ("C(2)", 2, 2, 2, True),
    "S3": ("S(3)", 6, 6, 4, True),
    "D4": ("D(4)", 8, *_dihedral_counts(4), True),
    "S4": ("S(4)", 24, 30, 11, True),
    "C2^4": ("perm[(0 1),(2 3),(4 5),(6 7)]", 16,
             _gaussian_subspaces(4), _gaussian_subspaces(4), True),
    "S4xC2": ("perm[(0 1),(0 1 2 3),(4 5)]", 48, None, None, True),
    "D32": ("D(32)", 64, *_dihedral_counts(32), True),
    "C2^5": ("perm[(0 1),(2 3),(4 5),(6 7),(8 9)]", 32,
             _gaussian_subspaces(5), _gaussian_subspaces(5), False),
}


def _normalizer_order(group, elements: tuple[int, ...]) -> int:
    members = set(elements)
    mul, inv = group.mul_table, group.inv_table
    return sum(
        1 for g in range(group.order)
        if {mul[mul[g][k]][inv[g]] for k in elements} == members
    )


def _tom_invariant(poset, tom) -> list:
    """The table of marks up to a simultaneous reordering of the classes."""
    orders = [c.order for c in poset.classes]
    return sorted(
        (orders[k], len(poset.classes[k].members),
         sorted((orders[h], m) for h, m in enumerate(row) if m))
        for k, row in enumerate(tom)
    )


def run_rung(key: str, seed: int, rec: harness.Recorder):
    from gwitt import dsl
    from gwitt.burnside import BurnsideElement, burnside_mul, marks, table_of_marks, unmarks
    from gwitt.groups import all_subgroups, subconjugacy_poset
    from gwitt.witt import WittVector, ghost, teichmuller_tau

    text, order, n_subgroups, n_classes, with_mul = RUNGS[key]
    n = None
    with rec.item(f"{key} structure"):
        start = len(rec.ops)
        node = rec.call("dsl.parse", dsl.parse_group, text)
        group = rec.call("groups.build", dsl.build_group, node)
        i_build = rec.last
        subs = rec.call("groups.subgroups", all_subgroups, group)
        i_subs = rec.last
        poset = rec.call("groups.poset", subconjugacy_poset, group)
        i_poset = rec.last
        tom = rec.call("burnside.tom", table_of_marks, group)
        i_tom = rec.last
        rec.counts["groups.subgroups"] += len(subs)
        rec.counts["groups.classes"] += len(poset)

        rec.expect(i_build, group.order == order, f"{key}: order {group.order} != {order}")
        if n_subgroups is not None:
            rec.expect(i_subs, len(subs) == n_subgroups,
                       f"{key}: {len(subs)} subgroups, closed form {n_subgroups}")
        if n_classes is not None:
            rec.expect(i_poset, len(poset) == n_classes,
                       f"{key}: {len(poset)} classes, closed form {n_classes}")
        n = len(poset)
        classes = poset.classes
        rec.expect(i_poset, classes[0].order == 1 and classes[-1].order == order,
                   f"{key}: poset does not run from [e] to [G]")
        rec.expect(i_tom, len(tom) == n and all(len(row) == n for row in tom),
                   f"{key}: table of marks is not {n}x{n}")
        for k in range(n):
            rec.expect(i_tom, tom[k][0] == order // classes[k].order,
                       f"{key}: first column at {classes[k].label} is not |G:K|")
            rec.expect(i_tom, tom[k][k] == _normalizer_order(group, classes[k].rep.elements)
                       // classes[k].order,
                       f"{key}: diagonal at {classes[k].label} is not |N(K):K|")
        rec.expect(i_tom, all(m == 1 for m in tom[n - 1]), f"{key}: last row is not all 1")
        rec.output(f"{key}/structure",
                   [group.order, len(subs), _tom_invariant(poset, tom)],
                   list(range(start, len(rec.ops))), seeded=False)
    if n is None:
        return

    # Nonzero seeded entries: every seed gives inputs of the same shape, so
    # the cost of a rung does not depend on the seed.
    rng = random.Random(f"{seed}:ladder_cold:{key}")
    products, taus, seeded_ops = [], [], []
    first_mul = True
    for _ in range(SAMPLES):
        a = BurnsideElement(group, harness.nonzero_ints(rng, 3, n))
        b = BurnsideElement(group, harness.nonzero_ints(rng, 3, n))
        with rec.item(f"{key} product"):
            start = len(rec.ops)
            if with_mul:
                name = "burnside.mul_first" if first_mul else "burnside.mul"
                first_mul = False
                c = rec.call(name, burnside_mul, a, b)
                want = tuple(x * y for x, y in zip(marks(a), marks(b)))
            else:
                c = a
                want = marks(a)
            m = rec.call("burnside.marks", marks, c)
            u = rec.call("burnside.unmarks", unmarks, group, m)
            ops = list(range(start, len(rec.ops)))
            rec.expect(ops, tuple(m) == want, f"{key}: marks(a*b) != marks(a).marks(b)")
            rec.expect(ops, u.coeffs == c.coeffs, f"{key}: unmarks(marks(x)) != x")
            products.append(list(c.coeffs))
            seeded_ops.extend(ops)
    for _ in range(SAMPLES):
        w = WittVector(group, harness.nonzero_ints(rng, 2, n))
        with rec.item(f"{key} tau"):
            t = rec.call("witt.tau", teichmuller_tau, w)
            i_tau = rec.last
            gh = rec.call("witt.ghost", ghost, w)
            ops = [i_tau, rec.last]
            rec.expect(ops, tuple(marks(t)) == tuple(gh.components),
                       f"{key}: marks(tau(w)) != ghost(w)")
            taus.append([list(t.coeffs), list(gh.components)])
            seeded_ops.extend(ops)
    rec.output(f"{key}/seeded", [products, taus], seeded_ops, seeded=True)


def _child_main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--rung", required=True, choices=sorted(RUNGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.load_gwitt()
    ready = time.monotonic()
    harness.GAUGE.sample(harness.GAUGE_WINDOW)
    rec = harness.Recorder(trace=bool(args.trace))
    run_rung(args.rung, args.seed, rec)
    harness.GAUGE.sample(harness.GAUGE_WINDOW)
    for op in rec.ops:  # scaled by the parent, once the run's gauge is known
        op[3] = op[1]
    print(json.dumps({
        "ready": ready,
        "gauge": harness.GAUGE.took,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rec.ops,
        "spans": rec.spans,
        "counts": rec.counts,
        "digests": rec.digests,
        "digest_ops": rec.digest_ops,
        "problems": rec.problems,
        "harness_errors": rec.harness_errors,
    }))


# -- the parent side ---------------------------------------------------------


def setup(seed: int, rec: harness.Recorder) -> int:
    return seed


def run_round(seed: int, rec: harness.Recorder) -> dict:
    """Run every rung in its own interpreter and merge what they recorded.
    Returns the round's measured set-up time, peak memory and the rungs'
    gauge samples; run.py scales the round's times with the gauge samples
    of the whole run."""
    measured_s = 0.0
    rss_mb = 0.0
    gauge = []
    for key in RUNGS:
        argv = [sys.executable, str(harness.HERE / "ladder.py"), "--rung", key,
                "--seed", str(seed), "--trace", "1" if rec.trace else "0"]
        spawned = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150,
                              cwd=harness.ROOT)
        if proc.returncode != 0:
            rec.harness_errors.append(f"rung {key} exited {proc.returncode}: "
                                      f"{proc.stderr.strip()[-400:]}")
            continue
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        measured_s += data["ready"] - spawned
        gauge.extend(data["gauge"])
        rss_mb = max(rss_mb, data["rss_mb"])
        offset = len(rec.ops)
        rec.ops.extend(data["ops"])
        rec.spans.extend((name, i + offset) for name, i in data["spans"])
        rec.counts.update(data["counts"])
        for k, (value, seeded) in data["digests"].items():
            rec.digests[k] = (value, seeded)
            rec.digest_ops[k] = [i + offset for i in data["digest_ops"][k]]
        for text in data["problems"]:
            rec.note(text)
        rec.harness_errors.extend(data["harness_errors"])
    return {"setup": {"measured_s": measured_s}, "rss_mb": rss_mb, "gauge": gauge}


def run_in_process(seed: int, rec: harness.Recorder):
    """The same rungs in this interpreter; used to compute pins."""
    for key in RUNGS:
        run_rung(key, seed, rec)


if __name__ == "__main__":
    _child_main(sys.argv[1:])
