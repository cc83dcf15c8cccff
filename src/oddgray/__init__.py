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
from .factor import flip_sequence
from .flippable import BRIDGE, PATCH, Pattern, QUAD, fan
from .spanning import SpanningTree, counting_tree, full_tree, mask_width
from .assembly import (
    AssemblyError,
    CycleCertificate,
    hamilton_gplus,
    hamilton_middle_levels,
    hamilton_odd,
    to_odd_vertex,
)


# Names served on first use by the module that defines them, so that
# importing the package loads neither ``checking`` nor ``verify``.
_CHECKING = """Context Derivation FactorPath FlippableTuple MarkedWord Partition TreeEntry
    TreeReport canonical_witness conflict_violations cycle_factor derivations enumerate_tuples
    flat_tree flip_edge is_witness locate partition path steep_tree validate_tree""".split()
_VERIFY = """VerificationReport brute_force_hamilton verify_certificate verify_factor
    verify_flip_properties verify_tree verify_tuple_closure""".split()


def __getattr__(name: str):
    # import statements, which ``python -X importtime`` reports (``importlib`` calls are not)
    if name in _CHECKING:
        from . import checking as module
    elif name in _VERIFY:
        from . import verify as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
