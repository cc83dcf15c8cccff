"""Hamilton-cycle assembly.

The Hamilton cycle is the cycle factor with one witness cycle per
spanning-tree tuple XOR-ed in. Because the tree is conflict-free and spans
every Dyck word, the splices join all factor cycles into one. Only the
witness vertices get neighbours that differ from the factor's, so only they
are stored: the splice table maps each to its two final neighbours and to
its (Dyck origin, index) on the factor. Every other vertex keeps its two
factor-cycle neighbours, which its path's flip sequence gives, so checking
the table for degree 2 checks the whole graph. The walk steps along each
factor path by its flip sequence, switches paths only at table vertices,
and must return to its start after exactly binomial(2k+1, k) vertices.
Memory thus grows with the witness vertices, not with the whole graph.
The splice, the walk and the middle-levels detours read one shared table of
flip sequences per k (``factor.flip_sequences``).

Each witness comes from the derivation its tree entry stores, as packed
values (``Derivation.witness_vals``), so generation runs no derivation
search; ``verify.verify_tree`` checks that each stored derivation is its
tuple's only one.

Targets:

  gplus   bitstrings of length 2k and weight k or k+1; edges are single-bit
          flips plus the complement pairs at weight k (the closing edges).
  odd     k-subsets of [2k+1], edges joining disjoint subsets. The bijection
          appends 0 to a weight-k string and 1 to the complement of a
          weight-(k+1) string, then reads characteristic vectors.
          ``gen`` and ``hamilton_odd`` both read ``stream_odd_vals``.
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
from itertools import repeat
from math import comb
from typing import Iterator

from . import spanning
from .factor import _path_vals, flip_sequences
from .words import Bits, enumerate_dyck, positions

TARGET_GPLUS = "gplus"
TARGET_ODD = "odd"
TARGET_MIDDLE = "middle"

PETERSEN_NOTE = (
    "k = 2 is the Petersen graph, the one odd graph without a Hamilton cycle; "
    "generation needs k >= 3"
)


# _BIT[a] flips position a: one shared int per position, for every path.
_BIT = (0, *(1 << j for j in range(62)))


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


def _splice_table(
    k: int, tree: spanning.SpanningTree, dyck: tuple[Bits, ...], seqs: tuple[tuple[int, ...], ...]
) -> dict:
    """Witness vertex -> (neighbour, neighbour, origin number, path index).

    The origin number indexes ``dyck`` and ``seqs``, their flip sequences
    (``factor.flip_sequences``); the two neighbours are the vertex's
    final ones, its factor neighbours with the witness edges toggled in.
    Every vertex not in the table keeps its two factor-cycle neighbours.
    """
    report = spanning.validate_tree(tree)
    if not report.passed:
        raise ValueError("invalid spanning tree: " + "; ".join(report.failures))
    if tree.base != frozenset(dyck):
        raise ValueError("tree does not span the Dyck words of this semilength")

    # First the toggled edges, as a list of toggled neighbours per vertex;
    # an edge toggled twice cancels, and a vertex left with none drops out.
    table: dict = {}

    def toggle(a: int, b: int) -> None:
        la = table.get(a)
        if la is None:
            table[a] = [b]
        elif b in la:
            la.remove(b)
            if not la:
                del table[a]
        else:
            la.append(b)

    for entry in tree.entries:
        cycle = entry.derivation.witness_vals()
        prev = cycle[-1]
        for cur in cycle:
            toggle(prev, cur)
            toggle(cur, prev)
            prev = cur

    # One scan of the factor paths locates each witness vertex and replaces
    # its toggle list by its entry; a list left over lies on no factor path.
    last = 2 * k
    full = (1 << last) - 1
    bad = []
    for o, (x, seq) in enumerate(zip(dyck, seqs)):
        v = x.val
        before = v ^ full
        for i in range(last + 1):
            after = v ^ (_BIT[seq[i]] if i < last else full)
            toggled = table.get(v)
            if toggled is not None:
                nb = [before, after]
                for w in toggled:
                    if w in nb:
                        nb.remove(w)
                    else:
                        nb.append(w)
                if len(nb) != 2:
                    bad.append((v, o, i, len(nb)))
                table[v] = (*nb[:2], o, i)
            before, v = v, after
    if bad:
        v, o, i, d = bad[0]
        raise AssemblyError(
            f"{len(bad)} vertices do not have degree 2 after splicing, e.g. "
            f"{Bits(v, last)}, index {i} on the factor path of {dyck[o]}, has {d} neighbours"
        )
    stray = [v for v, e in table.items() if type(e) is list]
    if stray:
        raise AssemblyError(
            f"{len(stray)} witness vertices lie on no factor path, e.g. "
            f"{Bits(stray[0], last)!r}"
        )
    return table


def _walk(
    k: int, table: dict, dyck: tuple[Bits, ...], seqs: tuple[tuple[int, ...], ...]
) -> Iterator[int]:
    """The spliced cycle from the least vertex (1 << k) - 1, toward its smaller neighbour.

    Off the table the walk steps along the current factor path by that
    path's flip sequence (the closing edge {x, ~x} is the step from index 2k
    to index 0). At a table vertex it takes the neighbour it did not come
    from, and sets its path and direction from that vertex's entry. The
    walk is cut after binomial(2k+1, k) vertices, so a broken table cannot
    make it loop forever.
    """
    last = 2 * k
    full = (1 << last) - 1
    total = comb(last + 1, k)
    get = table.get
    start = (1 << k) - 1  # dyck[0] = 1^k 0^k, at index 0 of its own path
    seq = seqs[0]
    entry = get(start) or (start ^ _BIT[seq[0]], start ^ full, 0, 0)
    prev = max(entry[:2])
    reached = bytearray(len(dyck))  # the paths whose table vertices the walk met
    reached[0] = 1
    v, i, forward = start, 0, True
    for count in range(1, total + 1):
        yield v
        if entry is None:
            prev = v
            if forward:
                if i < last:
                    v ^= _BIT[seq[i]]
                    i += 1
                else:
                    v ^= full
                    i = 0
            elif i:
                i -= 1
                v ^= _BIT[seq[i]]
            else:
                v ^= full
                i = last
        else:
            a, b, o, i = entry
            reached[o] = 1
            nxt = b if a == prev else a
            seq = seqs[o]
            if nxt == v ^ (_BIT[seq[i]] if i < last else full):
                forward = True
                i = i + 1 if i < last else 0
            elif nxt == v ^ (_BIT[seq[i - 1]] if i else full):
                forward = False
                i = i - 1 if i else last
            # otherwise nxt is a table vertex, whose entry gives its position
            prev, v = v, nxt
        if v == start:
            break
        entry = get(v)
    else:
        raise AssemblyError(f"the walk did not return to its start after {total} vertices")
    if count != total:
        missed = [str(x) for x, r in zip(dyck, reached) if not r]
        raise AssemblyError(
            f"splice produced more than one cycle: the walk reached {count} of "
            f"{total} vertices, and no factor path of these {len(missed)} of "
            f"{len(dyck)} Dyck words: {', '.join(missed[:8])}"
            + (", ..." if len(missed) > 8 else "")
        )


def stream_gplus_vals(k: int, tree: spanning.SpanningTree) -> Iterator[int]:
    """Packed vertices of the Hamilton cycle, in canonical rotation."""
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "assembly needs k >= 3")
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    return _walk(k, _splice_table(k, tree, dyck, seqs), dyck, seqs)


def hamilton_gplus(k: int, tree: spanning.SpanningTree) -> CycleCertificate:
    vertices = tuple(Bits(v, 2 * k) for v in stream_gplus_vals(k, tree))
    return CycleCertificate(k, TARGET_GPLUS, vertices)


def to_odd_vertex(y: Bits) -> tuple[int, ...]:
    """The k-subset of [2k+1] corresponding to a mid-layer vertex."""
    k = y.n // 2
    if y.n % 2 or y.weight not in (k, k + 1):
        raise ValueError(f"{y!r} is not a mid-layer vertex")
    return positions(odd_val(y.val, k))


def odd_val(v: int, k: int) -> int:
    """to_odd_vertex on packed values: the (2k+1)-bit characteristic vector."""
    if v.bit_count() == k:
        return v
    return (v ^ ((1 << (2 * k)) - 1)) | (1 << (2 * k))


def stream_odd_vals(k: int, family_mask: int | None = None) -> Iterator[int]:
    """Packed (2k+1)-bit vectors of the odd-graph cycle; a bad k or mask raises at the call."""
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "odd-graph generation needs k >= 3")
    return map(odd_val, stream_gplus_vals(k, _tree_for(k, family_mask)), repeat(k))


def hamilton_odd(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the odd graph as a cyclic sequence of k-subsets."""
    return CycleCertificate(k, TARGET_ODD, tuple(map(positions, stream_odd_vals(k, family_mask))))


# Fixed middle-levels cycles for the two sizes below the general
# construction; cross-checked against brute-force search in the test suite.
_MIDDLE_K1 = ("100", "110", "010", "011", "001", "101")
_MIDDLE_K2 = (
    "11000", "11100", "01100", "01110", "00110", "10110", "10100",
    "10101", "10001", "10011", "10010", "11010", "01010", "01011",
    "00011", "00111", "00101", "01101", "01001", "11001",
)


def stream_middle_vals(k: int, family_mask: int | None = None) -> Iterator[int]:
    """Packed (2k+1)-bit vertices of the middle-levels cycle; a bad k or mask raises at the call."""
    if k < 1:
        raise ValueError("middle-levels generation needs k >= 1")
    if k <= 2:
        if family_mask is not None:
            raise ValueError("cycle families need k >= 6")
        return iter([Bits.parse(s).val for s in (_MIDDLE_K1 if k == 1 else _MIDDLE_K2)])
    return _detoured_vals(k, _tree_for(k, family_mask))


def _detoured_vals(k: int, tree: spanning.SpanningTree) -> Iterator[int]:
    """The gplus cycle with 0 appended, each closing edge replaced by its detour."""
    seq_of = dict(zip([x.val for x in enumerate_dyck(k)], flip_sequences(k)))
    full = (1 << (2 * k)) - 1
    first = prev = None
    for v in stream_gplus_vals(k, tree):
        if prev is None:
            first = v
        elif prev ^ v == full:
            yield from _closing_detour(prev, v, seq_of, k)
        yield v  # v with 0 appended keeps its packed value
        prev = v
    if prev ^ first == full:
        yield from _closing_detour(prev, first, seq_of, k)


def _closing_detour(a: int, b: int, seq_of: dict, k: int) -> list[int]:
    """The vertices replacing the closing edge from a0 to b0, in walking order.

    One of a and b is a Dyck word x, a key of ``seq_of`` (its flip
    sequence); the detour is the complemented factor path of x, with 1
    appended to each vertex, walked from a1 to b1.
    """
    full = (1 << (2 * k)) - 1
    top = 1 << (2 * k)
    x = a if a in seq_of else b
    detour = [w ^ full | top for w in _path_vals(x, seq_of[x])]
    if a == x:
        detour.reverse()
    return detour


def hamilton_middle_levels(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the middle-levels graph on (2k+1)-bit strings."""
    vertices = tuple(Bits(v, 2 * k + 1) for v in stream_middle_vals(k, family_mask))
    return CycleCertificate(k, TARGET_MIDDLE, vertices)
