"""G-typical Witt vectors: ghost coordinates, exact unghosting, ring
operations through cached universal polynomials, the Teichmueller
homomorphism into the Burnside ring, and the theorem-level verifications."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import cache

from .burnside import (
    BurnsideElement,
    MarkColumns,
    burnside_basis,
    burnside_one,
    check_exact,
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

# each Witt operation in ghost coordinates, where it is componentwise
_GHOST_OPS = {"add": operator.add, "mul": operator.mul, "neg": lambda x, _: -x}


@dataclass(frozen=True)
class _PosetVector:
    """One ring element per subconjugacy class, in poset order (trivial
    class first, [G] last); equal when the elements are."""

    group: Group
    components: tuple

    def __post_init__(self):
        # the dataclass __eq__ and __hash__ compare components as a tuple
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != len(subconjugacy_poset(self.group)):
            raise GwittError("component count does not match the poset")


class WittVector(_PosetVector):
    """Witt components over the poset.  Coefficients live in Z or in a
    multivariate polynomial ring over Z; both are torsion free, which the
    injectivity of the ghost map needs."""

    def __post_init__(self):
        super().__post_init__()
        check_exact(self.components, "components")


class GhostVector(_PosetVector):
    """Ghost components over the poset; no integrality shape."""


class WittContext:
    """Per-group cache: poset, the table of marks by sparse columns, and the
    universal structure polynomials that `_structure_op` builds."""

    def __init__(self, group: Group):
        self.group = group
        self.poset = subconjugacy_poset(group)
        self.columns = mark_columns(group)
        self.n = len(self.poset)
        self.avars = tuple(f"a_{self.poset.label(i)}" for i in range(self.n))
        self.bvars = tuple(f"b_{self.poset.label(i)}" for i in range(self.n))
        self._structure: dict[str, tuple] = {}

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


def _structure_op(op: str, a: WittVector, b: WittVector) -> WittVector:
    """The universal polynomials of `op` ("add", "mul" or "neg") at the
    components of a for `avars` and those of b for `bvars`.  They are the
    unghost of the ghost sum, product or negation of the symbolic vectors
    (a_K) and (b_K), built once per group and op."""
    if a.group != b.group:
        raise GwittError("Witt vectors over different groups")
    ctx = witt_context(a.group)
    polys = ctx._structure.get(op)
    if polys is None:
        ga, gb = (ctx.ghost_components(tuple(map(Poly.var, names)))
                  for names in (ctx.avars, ctx.bvars))
        polys = ctx._structure[op] = ctx.unghost_components(tuple(map(_GHOST_OPS[op], ga, gb)))
    values = dict(zip(ctx.avars, a.components))
    values.update(zip(ctx.bvars, b.components))
    return WittVector(a.group, tuple(p.evaluate(values) for p in polys))


def witt_add(w1: WittVector, w2: WittVector) -> WittVector:
    return _structure_op("add", w1, w2)


def witt_mul(w1: WittVector, w2: WittVector) -> WittVector:
    return _structure_op("mul", w1, w2)


def witt_neg(w: WittVector) -> WittVector:
    return _structure_op("neg", w, w)  # the negation polynomials read avars only


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


def _restricted(columns: MarkColumns, classes: list[int]) -> MarkColumns:
    """The columns of a down-closed set of classes, ascending, with only the
    entries of those classes, renumbered by their place in `classes`."""
    place = {h: i for i, h in enumerate(classes)}
    above = tuple(
        tuple((place[k], m, e) for k, m, e in columns.above[h] if k in place)
        for h in classes
    )
    return MarkColumns(tuple(columns.diag[h] for h in classes), above)


def verify_ghost_factorization(group: Group, samples: int = 100,
                               seed: int = 0) -> Report:
    """marks(tau(alpha)) = ghost(alpha): exactly over Z[a_[K]], then on
    seeded random integer vectors.

    Both sides are sums of per-class terms, the term of [K] in a_[K] alone
    and zero at a_[K] = 0: marks and ghost sum over the classes, and in
    `transferred_norms` Y is a sum of terms each in one a_[K], Z is linear
    in Y and the one division by |G| is exact or raises.  So the identity
    holds iff every per-class double-coset identity
    marks_[H](T_K^G N_e^K(a)) = |(G/K)^H| * a^(K:H) does.  Both sides of
    that are polynomials in a of degree at most |K|: ghost by its exponent
    (K:H), and tau computes with ring operations, the powers a^(K:L), one
    division by |G| that returns the exact quotient or raises, and branches
    that only skip zero terms.  So it holds iff it holds at the |K| + 1
    integers a = 0..|K|, where each class is checked once; the samples
    cover the cross terms between classes.

    At a = t * e_K both sides are compared on the classes [H] <= [K] only,
    after checking that tau has no coefficient outside them.  Elsewhere both
    vectors are zero: the mark at [H] of an element supported below [K]
    vanishes unless [H] <= [K], and the ghost column of [H] lists only the
    classes above [H]."""
    _check_samples(samples)
    ctx = witt_context(group)
    poset = ctx.poset
    report = Report("ghost-factorization", group.name, seed=seed)
    for k, cls in enumerate(poset.classes):
        report.checked += 1
        below = sorted({poset.class_of[i] for i in poset.down[poset.reps[k]]})
        inside = set(below)
        columns = _restricted(ctx.columns, below)
        comps = [0] * ctx.n
        for t in range(cls.order + 1):
            comps[k] = t
            coeffs = transferred_norms(group, comps).coeffs
            outside = [poset.label(h) for h, c in enumerate(coeffs) if c and h not in inside]
            if outside:
                report.fail(f"tau({ctx.avars[k]} = {t}) is nonzero at {', '.join(outside)}, "
                            f"not below {cls.label}")
                break
            got = column_sums([coeffs[h] for h in below], columns)
            want = column_sums([comps[h] for h in below], columns, powered=True)
            if got != want:
                report.fail(f"marks(tau({ctx.avars[k]} = {t})) = {got} "
                            f"!= ghost = {want} on the classes below {cls.label}")
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
    """Ring laws of W_G through ghost, unghost and the Witt operations, on
    the symbolic vectors a = (a_K) and b = (b_K).  Each check compares two
    routes that a wrong ghost, unghost or structure polynomial sends apart:

    - unghost(ghost(a)) = a: two separate passes over the table of marks,
      a sum and a triangular solve, which a wrong entry or exponent in
      either makes disagree;
    - a + 0 = a and a * 1 = a: the sum polynomials at b = 0 and the product
      polynomials at b = witt_one, solved on its own from the ghost
      (1, ..., 1); a wrong term in either shows;
    - a + (-a) = 0: the negation polynomials, which no other check reads,
      composed with the sum polynomials;
    - b + a = a + b and b * a = a * b: swapping the operands swaps the
      variables, so a polynomial not symmetric in a and b fails;
    - associativity of + and *, and distributivity: the polynomials
      composed with themselves, up to DIRECT_CLASS_CAP classes on a, b
      and a third symbolic vector, above it (where the composed
      polynomials grow too large) at RING_LAW_SAMPLES integer triples
      drawn from `seed`.

    The polynomials are not compared with the ghost operation they are
    solved from: the exact solve returns a vector with exactly that ghost
    or raises, so such a check could not fail.
    """
    ctx = witt_context(group)
    report = Report("ring-axioms", group.name)

    def compare(got: tuple, want: tuple, failure: str):
        for h in range(ctx.n):
            report.checked += 1
            if got[h] != want[h]:
                report.fail(f"{failure} at {ctx.poset.label(h)}")

    def symbolic(names) -> WittVector:
        return WittVector(group, tuple(map(Poly.var, names)))

    a, b = symbolic(ctx.avars), symbolic(ctx.bvars)
    report.checked += 1
    if unghost(ghost(a)) != a:
        report.fail("unghost(ghost(a)) != a symbolically")

    compare(witt_add(a, witt_zero(group)).components, a.components, "a + 0 != a")
    compare(witt_mul(a, witt_one(group)).components, a.components, "a * 1 != a")
    compare(witt_add(a, witt_neg(a)).components, witt_zero(group).components, "a + (-a) != 0")
    compare(witt_add(b, a).components, witt_add(a, b).components, "b + a != a + b")
    compare(witt_mul(b, a).components, witt_mul(a, b).components, "b * a != a * b")

    if ctx.n <= DIRECT_CLASS_CAP:
        triples = [(a, b, symbolic(f"c_{ctx.poset.label(i)}" for i in range(ctx.n)))]
    else:
        report.seed = seed
        rng = random.Random(seed)
        triples = [tuple(random_witt_vector(group, rng) for _ in range(3))
                   for _ in range(RING_LAW_SAMPLES)]
    for x, y, z in triples:
        where = ("" if report.seed is None else
                 f" for a={x.components}, b={y.components}, c={z.components}")
        for name, lhs, rhs in (
            ("add-assoc", witt_add(witt_add(x, y), z), witt_add(x, witt_add(y, z))),
            ("mul-assoc", witt_mul(witt_mul(x, y), z), witt_mul(x, witt_mul(y, z))),
            ("distributivity", witt_mul(x, witt_add(y, z)),
             witt_add(witt_mul(x, y), witt_mul(x, z))),
        ):
            compare(lhs.components, rhs.components, f"{name} fails{where}")
    return report


def verify_injectivity(group: Group, samples: int = 1000, seed: int = 0) -> Report:
    """The ghost map is injective: its triangular diagonal is positive, and
    unghost∘ghost = id on seeded random vectors over Z[x, y].  A table of
    marks with a zero or negative diagonal entry fails the first; a ghost
    or unghost that loses or garbles a component fails the second.  Two
    samples that both pass cannot share a ghost, since each is the unghost
    of it, so no separate collision check is made."""
    _check_samples(samples)
    ctx = witt_context(group)
    report = Report("ghost-injectivity", group.name, seed=seed)
    rng = random.Random(seed)
    for h in range(ctx.n):
        report.checked += 1
        if ctx.columns.diag[h] <= 0:
            report.fail(f"diagonal mark at {ctx.poset.label(h)} is not positive")
    for _ in range(samples):
        w = random_witt_vector(group, rng, ("x", "y"))
        report.checked += 1
        if unghost(ghost(w)) != w:
            report.fail(f"unghost(ghost({w.components})) != input")
    return report
