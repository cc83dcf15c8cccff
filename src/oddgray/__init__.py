"""Explicit Hamilton cycles for the sparsest Kneser graphs.

The odd graph has the k-subsets of [2k+1] as vertices and disjoint pairs as
edges; a Hamilton cycle in it is a cyclic Gray code of (2k+1)-bit strings of
weight k in which consecutive strings differ in all but one position. The
construction here builds one for every k >= 3 (and double-exponentially many
for k >= 6), plus Hamilton cycles of the middle-levels graph for every
k >= 1, together with independent oracles that machine-check each ingredient
at desk scale.
"""

from .words import Bits, cat, complement, decompose, enumerate_dyck, is_dyck, mirror
from .factor import FactorPath, cycle_factor, flip_edge, flip_sequence, path
from .flippable import BRIDGE, PATCH, Pattern, QUAD, fan
from .spanning import (
    Partition,
    SpanningTree,
    TreeReport,
    counting_tree,
    flat_tree,
    full_tree,
    mask_width,
    partition,
    steep_tree,
    tree_family,
    validate_tree,
)
from .assembly import (
    AssemblyError,
    CycleCertificate,
    hamilton_gplus,
    hamilton_middle_levels,
    hamilton_odd,
    to_odd_vertex,
)
from .verify import (
    VerificationReport,
    brute_force_hamilton,
    verify_certificate,
    verify_factor,
    verify_flip_properties,
    verify_tree,
    verify_tuple_closure,
)


# The checking side's public names, served on first use so that importing
# the package does not load ``checking``.
_CHECKING = {
    "Context",
    "Derivation",
    "FlippableTuple",
    "MarkedWord",
    "TreeEntry",
    "apply_context",
    "canonical_witness",
    "conflict_violations",
    "derivations",
    "enumerate_tuples",
    "is_witness",
    "locate",
    "mirror_marked",
    "mirror_tuple",
    "witness",
    "wrap_marked",
}


def __getattr__(name: str):
    if name in _CHECKING:
        from . import checking

        return getattr(checking, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
