"""Signed posets (type-B analogues of posets) and their lattice-point geometry.

The objects here are asymmetric, positively-closed subsets of the root
system B_n.  The library builds their order cones and order polytopes,
triangulates by descent classes of signed permutations, computes Ehrhart
and h* data two independent ways, tests Gorensteinness through the Fischer
representation, and constructs the reflexive signed chain polytope.
Everything is exact rational arithmetic.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  `__getattr__` imports that
# submodule on first access, so `import signedposets` loads none of them.
_HOMES = {
    "catalog": ("census", "enumerate_signed_posets", "iter_signed_posets"),
    "chains": ("SignedChain", "antichains", "chain_polytope", "compare_order_chain",
               "enumerate_chains", "is_reflexive", "verify_antichain_characterization"),
    "ehrhart": ("count_points", "ehrhart_polynomial", "gorenstein_index_by_counts",
                "hstar_from_counts", "is_palindromic", "is_unimodal", "reciprocity_check"),
    "errors": ("AsymmetryViolation", "CycleDetected", "InputError", "InternalInconsistency",
               "NegativeHstar", "ParseError", "SignedPosetError", "UnboundedSystem"),
    "geometry": ("homogenized_poset", "interior_point", "order_cone", "order_polytope",
                 "order_polytope_irredundant", "pos_neg_max", "signed_filters", "vertices"),
    "gorenstein": ("ClassicalPoset", "fischer_halfspaces", "fischer_representation",
                   "is_gorenstein", "is_graded", "minimal_fischer_representation"),
    "halfspaces": ("Halfspace", "HalfspaceSystem"),
    "jordan": ("hstar_by_descents", "is_naturally_labeled", "jordan_holder", "natdes",
               "naturalize"),
    "perms": ("SignedPermutation", "act", "act_poset", "are_isomorphic",
              "enumerate_signed_permutations"),
    "posetfile": ("PosetDocument", "format_poset", "parse_poset"),
    "posets": ("SignedPoset", "embed_classical_poset", "from_generators",
               "minimal_representation", "plc"),
    "roots": ("Root", "all_roots", "inner_product", "parse_root"),
    "verify": ("verify_catalog", "verify_poset"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported on first access and kept."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
