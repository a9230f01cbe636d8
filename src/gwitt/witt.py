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


def _is_ring_value(v) -> bool:
    return isinstance(v, int) or (isinstance(v, Poly) and v.is_integral())


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
            if not _is_ring_value(c):
                raise GwittError(
                    "components must be integers or integral polynomials"
                )


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

    Defined for integer components, where every norm is exact; the symbolic
    version of the composite marks identity lives in
    `verify_ghost_factorization`.
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
    """marks(tau(alpha)) = ghost(alpha): once symbolically over Z[a_[K]],
    then on seeded random integer vectors."""
    _check_samples(samples)
    ctx = witt_context(group)
    report = Report("ghost-factorization", group.name, seed=seed)
    sym = tuple(Poly.var(v) for v in ctx.avars)
    lhs = marks(transferred_norms(group, sym))
    rhs = ctx.ghost_components(sym)
    for h in range(ctx.n):
        report.checked += 1
        got, want = Poly.coerce(lhs[h]), Poly.coerce(rhs[h])
        if not got.is_integral() or got != want:
            report.fail(
                f"symbolic marks∘tau != ghost at {ctx.poset.label(h)}: {got} vs {want}"
            )
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


def ghost_injectivity_double_coset_identity(group: Group) -> Report:
    """Symbolically in Z[a]: marks_[H](T_{K->G}(N_{e->K}(a))) equals
    |(G/K)^H| * a^(K:H) when [H] <= [K] and 0 otherwise; the per-term
    identity behind marks∘tau = ghost."""
    ctx = witt_context(group)
    report = Report("double-coset-identity", group.name)
    a = Poly.var("a")
    for k in range(ctx.n):
        # N_e^K(0) = 0, so only the term of [K] survives
        values = [0] * ctx.n
        values[k] = a
        got = marks(transferred_norms(group, values))
        # |(G/K)^H| * a^(K:H) at [H] <= [K], read off the mark columns
        want = ctx.ghost_components(values)
        for h in range(ctx.n):
            report.checked += 1
            if Poly.coerce(got[h]) != Poly.coerce(want[h]):
                report.fail(
                    f"H={ctx.poset.label(h)}, K={ctx.poset.label(k)}: "
                    f"{Poly.coerce(got[h])} != {Poly.coerce(want[h])}"
                )
    return report


def verify_ring_axioms(group: Group, direct_class_cap: int = 8) -> Report:
    """Ring laws of W_G, symbolically.

    The ghost map is injective over torsion-free coefficients and is
    componentwise by construction, so verifying that the cached structure
    polynomials are ghost-homomorphic reduces every ring law to the
    corresponding law in the product ring.  Up to the class cap the laws are
    additionally checked by direct polynomial substitution.
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

    # direct substitution for small posets: associativity and distributivity
    if ctx.n <= direct_class_cap:
        cvars = tuple(f"c_{ctx.poset.label(i)}" for i in range(ctx.n))
        sym_c = tuple(Poly.var(v) for v in cvars)
        add = lambda u, v: ctx.eval_polys(ctx.sum_polys(), u, v)
        mul = lambda u, v: ctx.eval_polys(ctx.prod_polys(), u, v)
        checks = (
            ("add-assoc", add(add(sym_a, sym_b), sym_c), add(sym_a, add(sym_b, sym_c))),
            ("mul-assoc", mul(mul(sym_a, sym_b), sym_c), mul(sym_a, mul(sym_b, sym_c))),
            ("distributivity", mul(sym_a, add(sym_b, sym_c)),
             add(mul(sym_a, sym_b), mul(sym_a, sym_c))),
        )
        for name, lhs, rhs in checks:
            for h in range(ctx.n):
                report.checked += 1
                if Poly.coerce(lhs[h]) != Poly.coerce(rhs[h]):
                    report.fail(f"{name} fails at {ctx.poset.label(h)}")
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


def witt_to_json(w: WittVector) -> dict:
    poset = subconjugacy_poset(w.group)
    return {
        "schema": 1,
        "group": w.group.name,
        "components": {
            poset.label(i): str(Poly.coerce(c))
            for i, c in enumerate(w.components)
        },
    }
