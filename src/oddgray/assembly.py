"""Hamilton-cycle assembly.

The cycle factor is loaded into an adjacency table (vertex to its two
neighbours), one witness cycle per spanning-tree tuple is XOR-ed in, and the
result is checked to be 2-regular and traversed as a single cycle. Because
the tree is conflict-free and spans every Dyck word, the splices join all
factor cycles into one. Each witness comes from the derivation its tree
entry stores, as packed values (``Derivation.witness_vals``), so generation
runs no derivation search; ``verify.verify_tree`` checks that each stored
derivation is its tuple's only one.

Targets:

  gplus   bitstrings of length 2k and weight k or k+1; edges are single-bit
          flips plus the complement pairs at weight k (the closing edges).
  odd     k-subsets of [2k+1], edges joining disjoint subsets. The bijection
          appends 0 to a weight-k string and 1 to the complement of a
          weight-(k+1) string, then reads characteristic vectors.
  middle  bitstrings of length 2k+1 and weight k or k+1, edges joining
          strings one bit apart (nested subsets). The cycle is obtained from
          the gplus cycle with 0 appended by replacing every closing edge
          {x0, ~x0} by the detour ~x0, ~x1, ..., x1, x0 along the
          complemented factor path of x.

Certificates are rotated canonically: the numerically smallest packed vertex
comes first, followed by its smaller neighbour (for odd certificates the
rotation is inherited from the underlying gplus cycle, whose smallest vertex
maps to the subset {1..k}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import spanning
from .factor import _path_vals
from .words import Bits, ONE, ZERO, complement, enumerate_dyck, is_dyck

TARGET_GPLUS = "gplus"
TARGET_ODD = "odd"
TARGET_MIDDLE = "middle"

PETERSEN_NOTE = (
    "k = 2 is the Petersen graph, the one odd graph without a Hamilton cycle; "
    "generation needs k >= 3"
)


class AssemblyError(RuntimeError):
    """The symmetric difference did not form a single 2-regular cycle."""


@dataclass(frozen=True)
class CycleCertificate:
    k: int
    target: str
    vertices: tuple

    def edge_set(self) -> frozenset[frozenset]:
        n = len(self.vertices)
        return frozenset(
            frozenset((self.vertices[i], self.vertices[(i + 1) % n])) for i in range(n)
        )


def _tree_for(k: int, family_mask: int | None) -> spanning.SpanningTree:
    if family_mask is None:
        return spanning.full_tree(k)
    return spanning.counting_tree(k, family_mask)


def _adjacency_vals(k: int, tree: spanning.SpanningTree) -> dict[int, list[int]]:
    report = spanning.validate_tree(tree)
    if not report.passed:
        raise ValueError("invalid spanning tree: " + "; ".join(report.failures))
    if tree.base != frozenset(enumerate_dyck(k)):
        raise ValueError("tree does not span the Dyck words of this semilength")

    adj: dict[int, list[int]] = {}
    for x in enumerate_dyck(k):
        vals = _path_vals(x)
        prev = vals[0]
        for cur in vals[1:]:
            adj.setdefault(prev, []).append(cur)
            adj.setdefault(cur, []).append(prev)
            prev = cur
        adj.setdefault(vals[0], []).append(vals[-1])
        adj.setdefault(vals[-1], []).append(vals[0])

    def toggle(a: int, b: int) -> None:
        la = adj.setdefault(a, [])
        if b in la:
            la.remove(b)
            adj[b].remove(a)
        else:
            la.append(b)
            adj.setdefault(b, []).append(a)

    for entry in tree.entries:
        cycle = entry.derivation.witness_vals()
        m = len(cycle)
        for i in range(m):
            toggle(cycle[i], cycle[(i + 1) % m])

    bad = [v for v, nb in adj.items() if len(nb) != 2]
    if bad:
        raise AssemblyError(
            f"{len(bad)} vertices do not have degree 2 after splicing, e.g. "
            f"{Bits(bad[0], 2 * k)!r}"
        )
    return adj


def _traverse(adj: dict[int, list[int]]) -> Iterator[int]:
    start = min(adj)
    a, b = adj[start]
    prev, cur = start, min(a, b)
    yield start
    count = 1
    while cur != start:
        yield cur
        count += 1
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    if count != len(adj):
        raise AssemblyError(
            f"splice produced more than one cycle ({count} of {len(adj)} vertices reached)"
        )


def stream_gplus_vals(k: int, tree: spanning.SpanningTree | None = None) -> Iterator[int]:
    """Packed vertices of the Hamilton cycle, in canonical rotation."""
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "assembly needs k >= 3")
    if tree is None:
        tree = spanning.full_tree(k)
    return _traverse(_adjacency_vals(k, tree))


def hamilton_gplus(k: int, tree: spanning.SpanningTree) -> CycleCertificate:
    vertices = tuple(Bits(v, 2 * k) for v in stream_gplus_vals(k, tree))
    return CycleCertificate(k, TARGET_GPLUS, vertices)


def to_odd_vertex(y: Bits) -> tuple[int, ...]:
    """The k-subset of [2k+1] corresponding to a mid-layer vertex."""
    k = y.n // 2
    if y.n % 2 or y.weight not in (k, k + 1):
        raise ValueError(f"{y!r} is not a mid-layer vertex")
    z = y + ZERO if y.weight == k else complement(y) + ONE
    return tuple(i for i in range(1, z.n + 1) if z.bit(i))


def odd_val(v: int, k: int) -> int:
    """to_odd_vertex on packed values: the (2k+1)-bit characteristic vector."""
    if v.bit_count() == k:
        return v
    return (v ^ ((1 << (2 * k)) - 1)) | (1 << (2 * k))


def hamilton_odd(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the odd graph as a cyclic sequence of k-subsets."""
    if k == 2:
        raise ValueError(PETERSEN_NOTE)
    if k < 3:
        raise ValueError("odd-graph generation needs k >= 3")
    tree = _tree_for(k, family_mask)
    vertices = tuple(
        to_odd_vertex(Bits(v, 2 * k)) for v in stream_gplus_vals(k, tree)
    )
    return CycleCertificate(k, TARGET_ODD, vertices)


# Fixed middle-levels cycles for the two sizes below the general
# construction; cross-checked against brute-force search in the test suite.
_MIDDLE_K1 = ("100", "110", "010", "011", "001", "101")
_MIDDLE_K2 = (
    "11000", "11100", "01100", "01110", "00110", "10110", "10100",
    "10101", "10001", "10011", "10010", "11010", "01010", "01011",
    "00011", "00111", "00101", "01101", "01001", "11001",
)


def stream_middle_vals(k: int, family_mask: int | None = None) -> Iterator[int]:
    """Packed vertices of the middle-levels Hamilton cycle (length 2k+1 each)."""
    if k < 1:
        raise ValueError("middle-levels generation needs k >= 1")
    if k <= 2:
        if family_mask is not None:
            raise ValueError("cycle families need k >= 6")
        fixed = _MIDDLE_K1 if k == 1 else _MIDDLE_K2
        for s in fixed:
            yield Bits.parse(s).val
        return

    tree = _tree_for(k, family_mask)
    full = (1 << (2 * k)) - 1
    top = 1 << (2 * k)
    first = None
    prev = None
    for v in stream_gplus_vals(k, tree):
        if prev is not None:
            yield from _closing_detour(prev, v, full, top, k)
        else:
            first = v
        yield v  # v with 0 appended keeps its packed value
        prev = v
    yield from _closing_detour(prev, first, full, top, k)


def _closing_detour(a: int, b: int, full: int, top: int, k: int) -> Iterator[int]:
    if a ^ b != full:
        return
    x = Bits(a, 2 * k)
    if not is_dyck(x):
        x = Bits(b, 2 * k)
    detour = [w ^ full | top for w in _path_vals(x)]
    if a == x.val:
        detour.reverse()
    yield from detour


def hamilton_middle_levels(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the middle-levels graph on (2k+1)-bit strings."""
    vertices = tuple(Bits(v, 2 * k + 1) for v in stream_middle_vals(k, family_mask))
    return CycleCertificate(k, TARGET_MIDDLE, vertices)
