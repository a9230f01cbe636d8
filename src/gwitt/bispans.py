"""Bispans of finite G-sets: generators, equivalence, composition via the
exponential diagram, and fiber polynomials."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import GwittError
from .gsets import (
    GMap,
    GSet,
    compose_maps,
    disjoint_union,
    exponential_diagram,
    identity_map,
    iso_class_over,
    pullback,
)
from .intpoly import Poly


class Bispan:
    """A diagram X <- A -> B -> Y of G-sets; a morphism X => Y.

    Bispans are compared up to levelwise isomorphism fixing X and Y; the raw
    representative is not normalized.
    """

    __slots__ = ("x", "a", "b", "y", "p", "q", "r")

    def __init__(self, p: GMap, q: GMap, r: GMap):
        if p.source != q.source:
            raise GwittError("p and q need the same source A")
        if q.target != r.source:
            raise GwittError("q must land in the source of r")
        self.x = p.target
        self.a = p.source
        self.b = q.target
        self.y = r.target
        self.p = p
        self.q = q
        self.r = r

    def __repr__(self):
        return (f"Bispan({self.x.size} <- {self.a.size} -> "
                f"{self.b.size} -> {self.y.size})")


def identity_bispan(x: GSet) -> Bispan:
    i = identity_map(x)
    return Bispan(i, i, i)


def gen_R(f: GMap) -> Bispan:
    """[Y <-f X = X = X], the restriction generator, a morphism Y => X."""
    i = identity_map(f.source)
    return Bispan(f, i, i)


def gen_T(f: GMap) -> Bispan:
    """[X = X = X -f> Y], the transfer generator, a morphism X => Y."""
    i = identity_map(f.source)
    return Bispan(i, i, f)


def gen_N(f: GMap) -> Bispan:
    """[X = X -f> Y = Y], the norm generator, a morphism X => Y."""
    i = identity_map(f.source)
    return Bispan(i, f, identity_map(f.target))


def compose(psi: Bispan, phi: Bispan) -> Bispan:
    """psi ∘ phi, by the three pullbacks and one exponential diagram."""
    if phi.y != psi.x:
        raise GwittError("bispans are not composable")
    # B' = B ×_Y C over phi.r and psi.p
    pb1 = pullback(psi.p, phi.r)
    bp = pb1.gset
    bp_to_b = pb1.to_x
    bp_to_c = pb1.to_a
    # exponential diagram of (B' -> C) along psi.q : C -> D
    ed = exponential_diagram(bp_to_c, psi.q)
    # A' = A ×_B B'
    pb2 = pullback(bp_to_b, phi.q)
    ap = pb2.gset
    ap_to_a = pb2.to_x
    ap_to_bp = pb2.to_a
    # A'' = A' ×_{B'} C~  along the evaluation e : C~ -> B'
    pb3 = pullback(ed.e, ap_to_bp)
    app = pb3.gset
    app_to_ap = pb3.to_x
    app_to_w = pb3.to_a
    new_p = compose_maps(phi.p, compose_maps(ap_to_a, app_to_ap))
    new_q = compose_maps(ed.f_prime, app_to_w)
    new_r = compose_maps(psi.r, ed.pi_p)
    return Bispan(new_p, new_q, new_r)


def pair(u: Bispan, v: Bispan) -> Bispan:
    """[W <- A1⊔A2 -> B1⊔B2 -> X1⊔X2]; the pairing into the product in the
    bispan category (whose products are disjoint unions)."""
    if u.x != v.x:
        raise GwittError("pairing needs a common source")
    a, (ia1, ia2) = disjoint_union([u.a, v.a])
    b, (ib1, ib2) = disjoint_union([u.b, v.b])
    y, (iy1, iy2) = disjoint_union([u.y, v.y])
    p = GMap(a, u.x,
             tuple(u.p.images) + tuple(v.p.images), validate=False)
    q = GMap(a, b,
             tuple(ib1.images[u.q.images[i]] for i in u.a.points())
             + tuple(ib2.images[v.q.images[i]] for i in v.a.points()),
             validate=False)
    r = GMap(b, y,
             tuple(iy1.images[u.r.images[i]] for i in u.b.points())
             + tuple(iy2.images[v.r.images[i]] for i in v.b.points()),
             validate=False)
    return Bispan(p, q, r)


def _decorated_census(u: Bispan) -> Counter:
    """The multiset {(r(b), G_b, D(b)) : b in B}, as `iso_class_over` counts
    it, where D(b), frozen, is the multiset {(p(a), G_a) : a in q^-1(b)}."""
    stabs = u.a.stabilizers()
    census = [frozenset(Counter((u.p.images[a], stabs[a]) for a in xs).items())
              for xs in u.q.fibers()]
    return iso_class_over(u.b, zip(u.r.images, census))


def bispan_equivalent(u: Bispan, v: Bispan) -> bool:
    """Decide equivalence, isomorphisms A -> A' and B -> B' making the
    ladder commute over the shared X and Y, without a search: u ≅ v iff A
    and A', B and B' have equal sizes and the multisets
    {(r(b), G_b, D(b)) : b in B}, D(b) = {(p(a), G_a) : a in q^-1(b)}, agree.

    An isomorphism keeps all three parts, so equivalent bispans have equal
    multisets.  Conversely, b ↦ (r(b), D(b)) is an equivariant labelling of
    B, so by `iso_class_over` equal multisets give an isomorphism β: B -> B'
    over the labels.  Each fiber q^-1(b) is a G_b-set over X, and D(b) is
    its stabilizer census because G_a ≤ G_b; since D'(βb) = D(b), the same
    rule gives a G_b-isomorphism α_b: q^-1(b) -> q'^-1(βb) over X for each
    representative b of the orbits of B.  Then α(g•a) = g•α_b(a) is well
    defined (g•a = g'•a' in q^-1(b) forces g'^-1 g in G_b), bijective, and
    satisfies p'α = p and q'α = βq."""
    if u.x != v.x or u.y != v.y:
        raise GwittError("bispans do not share end objects")
    return (u.a.size == v.a.size and u.b.size == v.b.size
            and _decorated_census(u) == _decorated_census(v))


@dataclass(frozen=True)
class FiberPolynomial:
    """The sum-of-products shape of a bispan over one point of Y."""

    base_point: int
    poly: Poly


def point_var(i: int) -> str:
    return f"x{i}"


def fiber_polynomial(phi: Bispan, y: int) -> FiberPolynomial:
    """Σ_{b ∈ r^-1(y)} Π_{a ∈ q^-1(b)} x_{p(a)}, an element of N[points of X]."""
    if not (0 <= y < phi.y.size):
        raise GwittError("base point out of range")
    terms: Counter = Counter()
    for b in phi.r.fiber(y):
        exponents = Counter(point_var(phi.p.images[a]) for a in phi.q.fiber(b))
        terms[tuple(sorted(exponents.items()))] += 1
    return FiberPolynomial(y, Poly(terms))


def fiber_polynomials(phi: Bispan) -> tuple[FiberPolynomial, ...]:
    return tuple(fiber_polynomial(phi, y) for y in phi.y.points())


def is_simple(phi: Bispan) -> bool:
    """True iff every fiber polynomial is a sum of distinct square-free
    monomials."""
    return all(fp.poly.is_simple() for fp in fiber_polynomials(phi))


def substitute_fibers(psi_poly: Poly, phi: Bispan) -> Poly:
    """Replace each variable x_y of a polynomial over points of psi's source
    by the fiber polynomial of phi at y."""
    mapping = {
        point_var(y): fiber_polynomial(phi, y).poly
        for y in phi.y.points()
    }
    return psi_poly.substitute(mapping)


def recompose(p: GMap, q: GMap, r: GMap) -> Bispan:
    return compose(gen_T(r), compose(gen_N(q), gen_R(p)))
