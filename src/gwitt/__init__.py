"""Exact equivariant algebra over finite groups: bispans, Burnside rings,
G-typical Witt vectors with ghost coordinates, and Tambara axiom checking.

The public names below resolve on first access: `gwitt.ghost` or
`from gwitt import ghost` imports `gwitt.witt` then, so a bare
`import gwitt` loads none of the modules."""

from importlib import import_module

# exported name -> the module of the package that defines it
_EXPORTS = {
    "Bispan": "bispans", "FiberPolynomial": "bispans", "bispan_equivalent": "bispans",
    "compose": "bispans", "fiber_polynomial": "bispans", "fiber_polynomials": "bispans",
    "gen_N": "bispans", "gen_R": "bispans", "gen_T": "bispans",
    "identity_bispan": "bispans", "is_simple": "bispans", "pair": "bispans",
    "recompose": "bispans", "substitute_fibers": "bispans",

    "BurnsideElement": "burnside", "burnside_basis": "burnside", "burnside_mul": "burnside",
    "burnside_of_gset": "burnside", "burnside_one": "burnside", "marks": "burnside",
    "table_of_marks": "burnside", "unmarks": "burnside",

    "DslSyntaxError": "errors", "EquivarianceError": "errors", "GroupOrderError": "errors",
    "GwittError": "errors", "IntegralityError": "errors", "SupportError": "errors",

    "Group": "groups", "Subgroup": "groups", "SubconjugacyPoset": "groups",
    "all_subgroups": "groups", "cyclic": "groups", "dihedral": "groups",
    "direct_product": "groups", "group_from_generators": "groups", "klein_four": "groups",
    "subconjugacy_poset": "groups", "subgroup_generated": "groups", "symmetric": "groups",

    "GMap": "gsets", "GSet": "gsets", "coset_space": "gsets", "dependent_product": "gsets",
    "disjoint_union": "gsets", "empty_gset": "gsets", "equivariant_maps": "gsets",
    "exponential_diagram": "gsets", "induced_gset": "gsets", "iso_class_over": "gsets",
    "natural_gset": "gsets", "orbit_decompose": "gsets", "point_gset": "gsets",
    "product": "gsets", "pullback": "gsets", "reassemble": "gsets",
    "regular_gset": "gsets", "trivial_gset": "gsets",

    "Poly": "intpoly",

    "BurnsideOverInstance": "tambara", "InvariantRingInstance": "tambara",
    "MutatedInstance": "tambara", "TambaraReport": "tambara",
    "check_tambara_axioms": "tambara",

    "GhostVector": "witt", "WittVector": "witt", "ghost": "witt", "teichmuller_tau": "witt",
    "unghost": "witt", "verify_dress_siebeneicher_iso": "witt",
    "verify_ghost_factorization": "witt", "verify_injectivity": "witt",
    "verify_ring_axioms": "witt", "witt_add": "witt", "witt_context": "witt",
    "witt_mul": "witt", "witt_neg": "witt", "witt_one": "witt", "witt_zero": "witt",

    "SetAssignment": "words", "Word": "words", "coherence_iso": "words",
    "eval_word": "words", "normal_form_index": "words", "supp": "words",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines an exported name, on first access,
    and keep the name here so that later reads are plain lookups."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
