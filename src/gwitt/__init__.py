"""Exact equivariant algebra over finite groups: bispans, Burnside rings,
G-typical Witt vectors with ghost coordinates, and Tambara axiom checking."""

from .bispans import (
    Bispan,
    FiberPolynomial,
    bispan_equivalent,
    compose,
    fiber_polynomial,
    fiber_polynomials,
    gen_N,
    gen_R,
    gen_T,
    identity_bispan,
    is_simple,
    pair,
    recompose,
    substitute_fibers,
)
from .burnside import (
    BurnsideElement,
    burnside_basis,
    burnside_mul,
    burnside_of_gset,
    burnside_one,
    marks,
    table_of_marks,
    unmarks,
)
from .errors import (
    DslSyntaxError,
    EquivarianceError,
    GroupOrderError,
    GwittError,
    IntegralityError,
    SupportError,
)
from .groups import (
    Group,
    Subgroup,
    SubconjugacyPoset,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    group_from_generators,
    klein_four,
    subconjugacy_poset,
    subgroup_generated,
    symmetric,
)
from .gsets import (
    GMap,
    GSet,
    coset_space,
    dependent_product,
    disjoint_union,
    empty_gset,
    equivariant_maps,
    exponential_diagram,
    induced_gset,
    iso_class_over,
    natural_gset,
    orbit_decompose,
    point_gset,
    product,
    pullback,
    reassemble,
    regular_gset,
    trivial_gset,
)
from .intpoly import Poly
from .tambara import (
    BurnsideOverInstance,
    InvariantRingInstance,
    MutatedInstance,
    TambaraReport,
    check_tambara_axioms,
)
from .witt import (
    GhostVector,
    WittVector,
    ghost,
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
from .words import (
    SetAssignment,
    Word,
    coherence_iso,
    eval_word,
    normal_form_index,
    supp,
)

__version__ = "0.1.0"
