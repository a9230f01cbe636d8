"""G-typical Witt vectors: ghost coordinates, exact unghosting, ring
operations through cached universal polynomials, the Teichmueller
homomorphism into the Burnside ring, and the theorem-level verifications."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache

from .burnside import (
    BurnsideElement,
    burnside_basis,
    burnside_one,
    column_solve,
    column_sums,
    mark_columns,
    marks,
    transferred_norms,
)
from .errors import GwittError, IntegralityError
from .groups import Group, subconjugacy_poset
from .intpoly import Poly

DIRECT_CLASS_CAP = 8  # see verify_ring_axioms
RING_LAW_SAMPLES = 3  # seeded integer triples per ring law above the cap


@dataclass(frozen=True)
class _PosetVector:
    """One ring element per subconjugacy class, in poset order (trivial
    class first, [G] last); equal when the elements are."""

    group: Group
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(subconjugacy_poset(self.group)):
            raise GwittError("component count does not match the poset")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.group == other.group and all(
            Poly.coerce(a) == Poly.coerce(b)
            for a, b in zip(self.components, other.components)
        )

    def __hash__(self):
        return hash((self.group, tuple(Poly.coerce(c) for c in self.components)))


class WittVector(_PosetVector):
    """Witt components over the poset.  Coefficients live in Z or in a
    multivariate polynomial ring over Z; both are torsion free, which the
    injectivity of the ghost map needs."""

    def __post_init__(self):
        super().__post_init__()
        for c in self.components:
            if not isinstance(c, (int, Poly)):
                raise GwittError("components must be integers or polynomials")


class GhostVector(_PosetVector):
    """Ghost components over the poset; no integrality shape."""


class WittContext:
    """Per-group cache: poset, the table of marks by sparse columns, and the
    universal structure polynomials."""

    def __init__(self, group: Group):
        self.group = group
        self.poset = subconjugacy_poset(group)
        self.columns = mark_columns(group)
        self.n = len(self.poset)
        self.avars = tuple(f"a_{self.poset.label(i)}" for i in range(self.n))
        self.bvars = tuple(f"b_{self.poset.label(i)}" for i in range(self.n))
        self._sum_polys = None
        self._prod_polys = None
        self._neg_polys = None

    # -- ghost / unghost on raw component tuples ----------------------------

    def ghost_components(self, comps: tuple) -> tuple:
        """Phi_H(a) = sum over [K] >= [H] of |(G/K)^H| * a_K^(K:H)."""
        return tuple(column_sums(comps, self.columns, powered=True))

    def unghost_components(self, vector: tuple) -> tuple:
        try:
            return tuple(column_solve(vector, self.columns, powered=True))
        except IntegralityError as exc:
            label = self.poset.label(exc.where)
            raise IntegralityError(
                f"ghost vector not integral at class {label}", where=label
            ) from None

    # -- universal structure polynomials ------------------------------------

    def _symbolic(self, names) -> tuple:
        return tuple(Poly.var(v) for v in names)

    def sum_polys(self) -> tuple:
        if self._sum_polys is None:
            ga = self.ghost_components(self._symbolic(self.avars))
            gb = self.ghost_components(self._symbolic(self.bvars))
            combined = tuple(x + y for x, y in zip(ga, gb))
            self._sum_polys = self.unghost_components(combined)
        return self._sum_polys

    def prod_polys(self) -> tuple:
        if self._prod_polys is None:
            ga = self.ghost_components(self._symbolic(self.avars))
            gb = self.ghost_components(self._symbolic(self.bvars))
            combined = tuple(x * y for x, y in zip(ga, gb))
            self._prod_polys = self.unghost_components(combined)
        return self._prod_polys

    def neg_polys(self) -> tuple:
        if self._neg_polys is None:
            ga = self.ghost_components(self._symbolic(self.avars))
            self._neg_polys = self.unghost_components(tuple(-x for x in ga))
        return self._neg_polys

    def eval_polys(self, polys: tuple, aval: tuple, bval: tuple | None = None) -> tuple:
        mapping = dict(zip(self.avars, aval))
        if bval is not None:
            mapping.update(zip(self.bvars, bval))
        return tuple(p.evaluate(mapping) if isinstance(p, Poly) else p for p in polys)


@cache
def witt_context(group: Group) -> WittContext:
    return WittContext(group)


# -- public operations --------------------------------------------------------


def ghost(w: WittVector) -> GhostVector:
    ctx = witt_context(w.group)
    return GhostVector(w.group, ctx.ghost_components(w.components))


def unghost(v: GhostVector) -> WittVector:
    ctx = witt_context(v.group)
    return WittVector(v.group, ctx.unghost_components(v.components))


def witt_zero(group: Group) -> WittVector:
    n = len(subconjugacy_poset(group))
    return WittVector(group, (0,) * n)


def witt_one(group: Group) -> WittVector:
    ctx = witt_context(group)
    return WittVector(group, ctx.unghost_components((1,) * ctx.n))


def _binary(w1: WittVector, w2: WittVector, polys_of) -> WittVector:
    if w1.group != w2.group:
        raise GwittError("Witt vectors over different groups")
    ctx = witt_context(w1.group)
    return WittVector(
        w1.group, ctx.eval_polys(polys_of(ctx), w1.components, w2.components)
    )


def witt_add(w1: WittVector, w2: WittVector) -> WittVector:
    return _binary(w1, w2, WittContext.sum_polys)


def witt_mul(w1: WittVector, w2: WittVector) -> WittVector:
    return _binary(w1, w2, WittContext.prod_polys)


def witt_neg(w: WittVector) -> WittVector:
    ctx = witt_context(w.group)
    return WittVector(w.group, ctx.eval_polys(ctx.neg_polys(), w.components))


def teichmuller_tau(w: WittVector) -> BurnsideElement:
    """tau(alpha) = sum over classes [K] of the transfer from K of the norm
    from the trivial level of alpha([K]).

    Defined for integer components, where every norm is exact;
    `verify_ghost_factorization` checks the composite marks identity over
    Z[a_K].
    """
    values = []
    for comp in w.components:
        if isinstance(comp, Poly):
            if not comp.is_constant():
                raise GwittError(
                    "the Teichmuller homomorphism needs integer components"
                )
            comp = comp.constant_value()
        values.append(comp)
    return transferred_norms(w.group, values)


# -- verification reports ------------------------------------------------------


@dataclass
class Report:
    """Outcome of one verification batch; failures carry printable witnesses."""

    name: str
    group_name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, witness: str):
        self.failures.append(witness)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "verification": self.name,
            "group": self.group_name,
            "checked": self.checked,
            "ok": self.ok,
            "failures": list(self.failures),
            "seed": self.seed,
        }


def _random_component(rng: random.Random, poly_vars: tuple[str, ...]):
    if not poly_vars:
        return rng.randint(-9, 9)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Poly.const(rng.randint(-3, 3)) + rng.randint(-3, 3) * Poly.var(rng.choice(poly_vars))
    return (rng.randint(-2, 2) * Poly.var(poly_vars[0])
            + rng.randint(-2, 2) * Poly.var(poly_vars[-1])
            + rng.randint(-2, 2))


def random_witt_vector(group: Group, rng: random.Random,
                       poly_vars: tuple[str, ...] = ()) -> WittVector:
    n = len(subconjugacy_poset(group))
    return WittVector(group, tuple(_random_component(rng, poly_vars) for _ in range(n)))


def _check_samples(samples: int):
    if samples < 0:
        raise GwittError(f"samples must be non-negative, got {samples}")


def verify_ghost_factorization(group: Group, samples: int = 100,
                               seed: int = 0) -> Report:
    """marks(tau(alpha)) = ghost(alpha): exactly over Z[a_[K]], then on
    seeded random integer vectors.

    Both sides are sums of per-class terms, the term of [K] in a_[K] alone
    and zero at a_[K] = 0 (marks and ghost sum over the classes, and
    `transferred_norms` runs one loop body per class, reading only a_[K]
    and the state it resets), so the identity holds iff every per-class
    double-coset identity marks_[H](T_K^G N_e^K(a)) = |(G/K)^H| * a^(K:H)
    does.  Both sides of that are polynomials in a of degree at most |K|:
    ghost by its exponent (K:H), and tau computes with ring operations, the
    powers a^(K:L), one division by |K| that returns the exact quotient or
    raises, and branches that only skip zero terms.  So it holds iff it
    holds at the |K| + 1 integers a = 0..|K|, where each class is checked
    once; the samples cover the cross terms between classes."""
    _check_samples(samples)
    ctx = witt_context(group)
    report = Report("ghost-factorization", group.name, seed=seed)
    for k, cls in enumerate(ctx.poset.classes):
        report.checked += 1
        comps = [0] * ctx.n
        for t in range(cls.order + 1):
            comps[k] = t
            got = marks(transferred_norms(group, comps))
            want = ctx.ghost_components(comps)
            if got != want:
                report.fail(f"marks(tau({ctx.avars[k]} = {t})) = {got} "
                            f"!= ghost = {want}")
                break
    rng = random.Random(seed)
    for _ in range(samples):
        w = random_witt_vector(group, rng)
        got = marks(teichmuller_tau(w))
        want = ctx.ghost_components(w.components)
        report.checked += 1
        if tuple(got) != tuple(want):
            report.fail(f"marks(tau({w.components})) = {got} != ghost = {want}")
    return report


def verify_dress_siebeneicher_iso(group: Group) -> Report:
    """Every basis element [G/H] pulls back along marks to an integral Witt
    vector and tau returns it exactly; with marks∘tau = ghost and both maps
    injective this certifies that tau: W_G(Z) -> A(G) is a ring isomorphism."""
    ctx = witt_context(group)
    report = Report("dress-siebeneicher-iso", group.name)
    for h in range(ctx.n):
        label = ctx.poset.label(h)
        basis = burnside_basis(group, h)
        report.checked += 1
        try:
            w = WittVector(group, ctx.unghost_components(marks(basis)))
        except IntegralityError as exc:
            report.fail(f"unghost(marks([G/{label}])) not integral: {exc}")
            continue
        back = teichmuller_tau(w)
        if back != basis:
            report.fail(
                f"tau round trip failed at [G/{label}]: got {back.coeffs}"
            )
    # the unit must land on [G/G]
    report.checked += 1
    unit = teichmuller_tau(witt_one(group))
    if unit != burnside_one(group):
        report.fail(f"tau(one) = {unit.coeffs} is not [G/G]")
    return report


def verify_ring_axioms(group: Group, seed: int = 0) -> Report:
    """Ring laws of W_G, symbolically.

    The structure polynomials are defined as the unghost of the ghost sum,
    product and negation, so the checks that they are ghost-homomorphic
    restate that definition, and the exact unghost raises IntegralityError
    before them unless the polynomials are integral: they test
    integrality, not a ring law.  The ring laws rest on the other checks:
    unghost∘ghost is the identity, zero and one are units, the sum and
    product polynomials are symmetric in the two variable blocks, and
    associativity and distributivity hold: up to DIRECT_CLASS_CAP classes by
    direct polynomial substitution, above it (where the substituted
    polynomials grow too large) at RING_LAW_SAMPLES integer triples drawn
    from `seed`, through the same structure polynomials.
    """
    ctx = witt_context(group)
    report = Report("ring-axioms", group.name)
    sym_a = tuple(Poly.var(v) for v in ctx.avars)
    sym_b = tuple(Poly.var(v) for v in ctx.bvars)

    # unghost ∘ ghost = id symbolically
    back = ctx.unghost_components(ctx.ghost_components(sym_a))
    report.checked += 1
    if tuple(Poly.coerce(x) for x in back) != sym_a:
        report.fail("unghost(ghost(a)) != a symbolically")

    # ghost homomorphism on the universal polynomials
    ga = ctx.ghost_components(sym_a)
    gb = ctx.ghost_components(sym_b)
    for name, polys, combine in (
        ("sum", ctx.sum_polys(), lambda x, y: x + y),
        ("product", ctx.prod_polys(), lambda x, y: x * y),
    ):
        gc = ctx.ghost_components(polys)
        for h in range(ctx.n):
            report.checked += 1
            want = combine(Poly.coerce(ga[h]), Poly.coerce(gb[h]))
            if Poly.coerce(gc[h]) != want:
                report.fail(f"ghost of {name} polynomial differs at {ctx.poset.label(h)}")
    gneg = ctx.ghost_components(ctx.neg_polys())
    for h in range(ctx.n):
        report.checked += 1
        if Poly.coerce(gneg[h]) != -Poly.coerce(ga[h]):
            report.fail(f"ghost of negation differs at {ctx.poset.label(h)}")

    # units, symbolically in a
    one = witt_one(group).components
    zero = witt_zero(group).components
    for name, polys, other in (
        ("w+0", ctx.sum_polys(), zero),
        ("w*1", ctx.prod_polys(), one),
    ):
        got = ctx.eval_polys(polys, sym_a, other)
        for h in range(ctx.n):
            report.checked += 1
            if Poly.coerce(got[h]) != sym_a[h]:
                report.fail(f"{name} != w at {ctx.poset.label(h)}")

    # commutativity: swap the two variable blocks
    swap = dict(zip(ctx.avars + ctx.bvars, ctx.bvars + ctx.avars))
    for name, polys in (("sum", ctx.sum_polys()), ("product", ctx.prod_polys())):
        for h in range(ctx.n):
            report.checked += 1
            p = Poly.coerce(polys[h])
            if p.substitute({k: Poly.var(v) for k, v in swap.items()}) != p:
                report.fail(f"{name} polynomial not symmetric at {ctx.poset.label(h)}")

    # associativity and distributivity: symbolically for small posets, at
    # seeded integer vectors above the cap
    if ctx.n <= DIRECT_CLASS_CAP:
        sym_c = tuple(Poly.var(f"c_{ctx.poset.label(i)}") for i in range(ctx.n))
        triples = [(sym_a, sym_b, sym_c)]
    else:
        report.seed = seed
        rng = random.Random(seed)
        triples = [tuple(random_witt_vector(group, rng).components for _ in range(3))
                   for _ in range(RING_LAW_SAMPLES)]
    add = lambda u, v: ctx.eval_polys(ctx.sum_polys(), u, v)
    mul = lambda u, v: ctx.eval_polys(ctx.prod_polys(), u, v)
    for a, b, c in triples:
        where = "" if report.seed is None else f" for a={a}, b={b}, c={c}"
        checks = (
            ("add-assoc", add(add(a, b), c), add(a, add(b, c))),
            ("mul-assoc", mul(mul(a, b), c), mul(a, mul(b, c))),
            ("distributivity", mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
        )
        for name, lhs, rhs in checks:
            for h in range(ctx.n):
                report.checked += 1
                if Poly.coerce(lhs[h]) != Poly.coerce(rhs[h]):
                    report.fail(f"{name} fails at {ctx.poset.label(h)}{where}")
    return report


def verify_injectivity(group: Group, samples: int = 1000, seed: int = 0,
                       poly_vars: tuple[str, ...] = ("x", "y")) -> Report:
    """unghost∘ghost = id on seeded random vectors over Z[x, y]; distinct
    samples never share a ghost; the triangular diagonal is nonzero."""
    _check_samples(samples)
    ctx = witt_context(group)
    report = Report("ghost-injectivity", group.name, seed=seed)
    rng = random.Random(seed)
    seen: dict = {}
    for h in range(ctx.n):
        report.checked += 1
        if ctx.columns.diag[h] <= 0:
            report.fail(f"diagonal mark at {ctx.poset.label(h)} is not positive")
    for _ in range(samples):
        w = random_witt_vector(group, rng, poly_vars)
        g = ghost(w)
        report.checked += 1
        if unghost(g) != w:
            report.fail(f"unghost(ghost({w.components})) != input")
            continue
        key = tuple(Poly.coerce(c) for c in g.components)
        prev = seen.get(key)
        if prev is not None and prev != w:
            report.fail(f"ghost collision between {prev.components} and {w.components}")
        seen[key] = w
    return report
