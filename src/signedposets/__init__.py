"""Signed posets (type-B analogues of posets) and their lattice-point geometry.

The objects here are asymmetric, positively-closed subsets of the root
system B_n.  The library builds their order cones and order polytopes,
triangulates by descent classes of signed permutations, computes Ehrhart
and h* data two independent ways, tests Gorensteinness through the Fischer
representation, and constructs the reflexive signed chain polytope.
Everything is exact rational arithmetic.
"""

from .catalog import census, enumerate_signed_posets, iter_signed_posets
from .chains import (
    SignedChain,
    antichains,
    chain_polytope,
    compare_order_chain,
    enumerate_chains,
    is_reflexive,
    verify_antichain_characterization,
)
from .ehrhart import (
    count_points,
    ehrhart_polynomial,
    gorenstein_index_by_counts,
    hstar_from_counts,
    is_palindromic,
    is_unimodal,
    reciprocity_check,
)
from .errors import (
    AsymmetryViolation,
    CycleDetected,
    InputError,
    InternalInconsistency,
    NegativeHstar,
    NonIntegralHstar,
    OracleMismatch,
    ParseError,
    SignedPosetError,
    UnboundedSystem,
)
from .geometry import (
    homogenized_poset,
    interior_point,
    order_cone,
    order_polytope,
    order_polytope_irredundant,
    pos_neg_max,
    signed_filters,
    vertices,
)
from .gorenstein import (
    ClassicalPoset,
    fischer_halfspaces,
    fischer_representation,
    is_gorenstein,
    is_graded,
    maximal_chains,
)
from .halfspaces import Halfspace, HalfspaceSystem
from .jordan import (
    hstar_by_descents,
    is_naturally_labeled,
    jordan_holder,
    natdes,
    naturalize,
)
from .perms import SignedPermutation, act, act_poset, are_isomorphic, enumerate_signed_permutations
from .posetfile import PosetDocument, format_poset, parse_poset
from .posets import (
    SignedPoset,
    embed_classical_poset,
    from_generators,
    is_closed,
    minimal_representation,
    plc,
)
from .roots import Root, all_roots, inner_product, parse_root
from .verify import verify_catalog, verify_poset

__version__ = "0.1.0"

__all__ = [
    "AsymmetryViolation",
    "ClassicalPoset",
    "CycleDetected",
    "Halfspace",
    "HalfspaceSystem",
    "InputError",
    "InternalInconsistency",
    "NegativeHstar",
    "NonIntegralHstar",
    "OracleMismatch",
    "ParseError",
    "PosetDocument",
    "Root",
    "SignedChain",
    "SignedPermutation",
    "SignedPoset",
    "SignedPosetError",
    "UnboundedSystem",
    "act",
    "act_poset",
    "all_roots",
    "antichains",
    "are_isomorphic",
    "census",
    "chain_polytope",
    "compare_order_chain",
    "count_points",
    "ehrhart_polynomial",
    "embed_classical_poset",
    "enumerate_chains",
    "enumerate_signed_permutations",
    "enumerate_signed_posets",
    "fischer_halfspaces",
    "fischer_representation",
    "format_poset",
    "from_generators",
    "gorenstein_index_by_counts",
    "homogenized_poset",
    "hstar_by_descents",
    "hstar_from_counts",
    "inner_product",
    "interior_point",
    "is_closed",
    "is_gorenstein",
    "is_graded",
    "is_naturally_labeled",
    "is_palindromic",
    "is_reflexive",
    "is_unimodal",
    "iter_signed_posets",
    "jordan_holder",
    "maximal_chains",
    "minimal_representation",
    "natdes",
    "naturalize",
    "order_cone",
    "order_polytope",
    "order_polytope_irredundant",
    "parse_poset",
    "parse_root",
    "plc",
    "pos_neg_max",
    "reciprocity_check",
    "signed_filters",
    "verify_antichain_characterization",
    "verify_catalog",
    "verify_poset",
    "vertices",
]
