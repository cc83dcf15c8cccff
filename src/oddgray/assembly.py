"""Hamilton-cycle assembly.

The Hamilton cycle is the cycle factor with one witness cycle per
spanning-tree tuple XOR-ed in. Because the tree is conflict-free and spans
every Dyck word, the splices join all factor cycles into one. The splice
and the walk read one shared table of flip sequences per k
(``factor.flip_sequences``).

The splice reads the tree's packed entries, whose witnesses and supports
the spanning recursion carries (``spanning.SpanningTree.packed``), so
generation runs no derivation search, peels no context and never loads
``checking``, where ``verify.verify_tree`` checks that each entry's
derivation is its tuple's only one and peels to its packed entry. The
failure messages below read the tuples there (``SpanningTree.entries``).

A witness of a t-tuple has 2t vertices and meets each member's path in
exactly its named edge. In every family that edge sits at witness positions
{2r, 2r + 1} (``flippable.Pattern.named_edges``, in the table of seed
literals that fixes them), in the support's member order:

  fan     (3, 2), (4, 5), (0, 1)
  bridge  (5, 4), (2, 3), (0, 1)
  quad    (7, 6), (5, 4), (2, 3), (0, 1)
  patch   (0, 1), (5, 4), (3, 2)

So every witness vertex ends a named edge, and its other witness edge, from
2r + 1 to 2r + 2 or from 2r to 2r - 1 (mod 2t), is its hop: toggling the
witness takes the named edges out of the factor and puts the hops in. The
named edge of member (x, m) flips m at index i = seq.index(m) of the path of
x, so it joins x ^ (the first i flips of seq), its lower end, to that vertex
with m flipped, its upper end, at index i + 1.

The splice is one pass over the members (``_splice_hops``). It checks the
tree: a union-find over origin numbers, a mark bitmask per word and a
membership count cover the conditions of ``checking.validate_tree``, which
runs only to write the text of a failure. It checks that the witness
vertices at a member's named positions are the two ends of its named edge.
It gives each path a mask with a bit at the index of each of its named
edges, and appends each hop's two ends to two arrays, each end packed in one
int: its Dyck origin, its index on its path, whether it is the upper end,
and its vertex. Once the masks are final, each end goes to its slot in one
flat array, which holds the end its hop lands on: named edge e of path o has
its lower end at slot offset[o] + 2 * popcount(masks[o] & ((1 << e) - 1))
and its upper end at the next, where offset[o] counts the named-edge ends of
the paths before o. A vertex that ends two named edges has a slot for each.
Memory thus grows with the witness vertices, not with the graph.

The walk goes one run at a time. A run leaves the end a hop lands on along
its path, away from that end's named edge, and stops at the nearest
named-edge end: going up from index j, at the lower end of the lowest bit of
the path's mask at or above j; going down, at the upper end of the highest
bit below j; and past the path's closing step to the other end of the mask
if there is none. The same mask arithmetic counts the named edges below that
end, which names its slot, and the walk takes the hop held there. A run is
an interval of the path's flip sequence, emitted by one
``itertools.accumulate`` over a step table, which alone sets the target's
coordinates: flipping position p XORs bit(p) in gplus and middle coordinates
and ALL ^ bit(p) in odd ones (ALL has 2k+1 bits), and the closing edge
{x, ~x}, from index 2k to index 0, XORs ``full`` in gplus and odd
coordinates; in middle ones it is the detour below, the top bit, the flip
sequence and the top bit again. The walk starts at index 0 of path 0, the
least vertex, toward its smaller neighbour, and stops when a run up path 0
wraps to index 0 or a hop lands on the start, the lower end of named edge 0
of path 0. So the Python work grows with the witness edges, not with the
vertices, and no vertex is mapped from gplus to its target. The walk must
return to its start after exactly the target's number of vertices.

The hops are the toggled graph exactly when every witness position holds an
end of its member's named edge, every hop joins two paths, and no two
witnesses share a hop edge. The union-find ensures the last two: a tuple's
words are distinct, and two tuples whose witnesses share a hop share the
words of both its paths. The splice checks the first, so no vertex is left
with a degree other than 2. A tree thus fails in one of three ways, in this
order: an invalid tree raises the ``ValueError`` of ``validate_tree``; a
witness of the wrong length, or a position off its member's named edge,
raises an ``AssemblyError`` naming the tuple, the Dyck origin, the index and
the vertex, if the witness is not empty; and a walk cut after the target's
number of vertices, or back too early, raises one naming the paths it missed
and the tuples at the first.

Targets:

  gplus   bitstrings of length 2k and weight k or k+1; edges are single-bit
          flips plus the complement pairs at weight k (the closing edges).
  odd     k-subsets of [2k+1], edges joining disjoint subsets. The bijection
          appends 0 to a weight-k string and 1 to the complement of a
          weight-(k+1) string, then reads characteristic vectors.
          ``gen`` and ``hamilton_odd`` both read ``stream_odd_vals``, which
          walks with the odd step table; ``odd_val`` maps single vertices.
  middle  bitstrings of length 2k+1 and weight k or k+1, edges joining
          strings one bit apart (nested subsets). The cycle is obtained from
          the gplus cycle with 0 appended by replacing every closing edge
          {x0, ~x0} by the detour ~x0, ~x1, ..., x1, x0 along the
          complemented factor path of x.

Certificates are rotated canonically: the numerically smallest packed vertex
comes first, followed by its smaller neighbour (for odd certificates the
rotation is inherited from the underlying gplus cycle, whose smallest vertex
maps to the subset {1..k}). They hold the walked values packed, 8 bytes a
vertex, in a ``words.Vertices`` view that decodes a vertex only when it is read.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import accumulate, chain
from math import comb
from operator import xor
from typing import Iterator, NoReturn

from . import spanning
from .factor import flip_sequences
from .words import Bits, Vertices, enumerate_dyck, positions

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


class CycleCertificate(namedtuple("CycleCertificate", "k target vertices")):
    __slots__ = ()

    def edge_set(self) -> frozenset[frozenset]:
        v = self.vertices
        return frozenset(map(frozenset, zip(v, v[1:] + v[:1])))


def _tree_for(k: int, family_mask: int | None) -> spanning.SpanningTree:
    if family_mask is None:
        return spanning.full_tree(k)
    return spanning.counting_tree(k, family_mask)


def _splice_hops(
    k: int, tree: spanning.SpanningTree, dyck: tuple[Bits, ...], seqs: tuple[bytes, ...]
) -> tuple[array, array, array]:
    """Each named-edge end's hop, each path's named edges, and each path's first slot.

    ``masks[o]`` has a bit at the index of each named edge on the path of
    ``dyck[o]``, whose flip sequence is ``seqs[o]``. Named edge e of path o
    has its lower end (upper = 0) and its upper end (upper = 1) at
    ``slots[offset[o] + 2 * popcount(masks[o] & ((1 << e) - 1)) + upper]``,
    which holds the end its hop lands on, packed as
    ((origin << 6 | index) << 1 | upper) << 2k | vertex. An invalid tree
    raises its ``ValueError``, and then a misplaced witness vertex an
    ``AssemblyError`` naming the first.
    """
    if not tree.spans_dyck(k):
        _reject(tree)
    last = 2 * k
    full = (1 << last) - 1
    # The check: every member is a Dyck word, no word takes a mark twice, and
    # joining each support's words in a union-find over origin numbers never
    # joins two words already joined. With sum(|support| - 1) == |words| - 1
    # that is all of ``validate_tree``'s conditions.
    origin_of = {x.val: o for o, x in enumerate(dyck)}
    parent = array("l", range(len(dyck)))
    marks = array("Q", bytes(8 * len(dyck)))
    masks = array("Q", bytes(8 * len(dyck)))
    nears, fars = array("Q"), array("Q")  # each hop's two ends, packed
    count = 0
    bit = _BIT.__getitem__
    # the witness vertices off their named edges, and the first as (entry, origin, index, vertex)
    # with the vertex in a 1-tuple, () for an empty witness
    misplaced, first = 0, ()
    for idx, (pattern, cycle, support) in enumerate(tree.packed):
        named = pattern.named_edges
        count += len(support) - 1
        placed = readable = len(cycle) == 2 * len(support) == 2 * len(named)
        if not readable:  # every vertex counts, and the first stands for them
            misplaced += len(cycle)
            named = ((0, 0),) * len(support)
        root = None
        ends = [0] * len(cycle)  # per witness position, its packed end
        for (x, mark), (a, b) in zip(support, named):
            o = origin_of.get(x)
            if o is None or marks[o] & _BIT[mark]:
                _reject(tree)
            marks[o] |= _BIT[mark]
            r = o  # o's root, halving the path on the way
            while (p := parent[r]) != r:
                parent[r] = parent[p]
                r = parent[p]
            if root is None:
                root = r
            elif r == root:
                _reject(tree)
            else:
                parent[r] = root
            if not readable:
                first = first or (idx, o, seqs[o].index(mark), cycle[:1])
                continue
            # The named edge joins index i, after the first i flips of seq
            # (or all flips but the last 2k - i), to index i + 1.
            seq = seqs[o]
            i = seq.index(mark)
            low = x ^ sum(map(bit, seq[:i])) if i <= k else x ^ full ^ sum(map(bit, seq[i:]))
            high = low ^ _BIT[mark]
            if cycle[a] != low:
                a, b = b, a
            if cycle[a] != low or cycle[b] != high:
                off = [y for y in (cycle[b], cycle[a]) if y != low and y != high] or [cycle[b]]
                misplaced += len(off)
                first = first or (idx, o, i, off[:1])
                placed = False
                continue
            masks[o] |= 1 << i
            ends[a] = (o << 6 | i) << last + 1 | low
            ends[b] = ((o << 6 | i + 1) << 1 | 1) << last | high
        if not placed:
            continue
        # Position 2r + 1 hops to 2r + 2, and the last position to 0. A hop
        # joins the paths of two members, and no earlier witness has it: a
        # tuple with both paths would have joined them in the union-find.
        ends.append(ends[0])
        nears.extend(ends[1::2])
        fars.extend(ends[2::2])
    if count != len(dyck) - 1:
        _reject(tree)
    if first:
        idx, o, i, v = first
        what = "a witness is empty" if not v else (
            f"{misplaced} witness vertices lie on no factor path at a named edge, "
            f"e.g. {Bits(v[0], last)!r}"
        )
        raise AssemblyError(
            f"{what}: tuple {tree.entries[idx].tup} names the edge from index {i} "
            f"to {i + 1} on the factor path of {dyck[o]}"
        )
    # The masks are final, so each end goes to its slot: 2 * popcount(masks[o]
    # & ((1 << j) - 1)) counts the slots of path o before the end at index j,
    # and its own too if it is an upper end.
    offset = array("Q", accumulate((2 * m.bit_count() for m in masks), initial=0))
    slots = array("Q", bytes(8 * offset[-1]))
    for p, q in zip(chain(nears, fars), chain(fars, nears)):
        key = p >> last  # (origin << 6 | index) << 1 | upper
        o = key >> 7
        below = masks[o] & (1 << (key >> 1 & 63)) - 1
        slots[offset[o] + 2 * below.bit_count() - (key & 1)] = q
    return slots, masks, offset


def _reject(tree: spanning.SpanningTree) -> NoReturn:
    """Raise the ``ValueError`` for a tree the splice cannot use, invalidity first."""
    from .checking import validate_tree

    report = validate_tree(tree)
    if not report.passed:
        raise ValueError("invalid spanning tree: " + "; ".join(report.failures))
    raise ValueError("tree does not span the Dyck words of this semilength")


def _walk_runs(
    k: int,
    slots: array,
    masks: array,
    offset: array,
    tree: spanning.SpanningTree,
    target: str,
) -> Iterator[list[int]]:
    """The spliced cycle from the least vertex (1 << k) - 1, toward its smaller neighbour, in runs.

    Each run is one stretch of a factor path in ``target``'s coordinates,
    from the end a hop lands on to the nearest named-edge end away from that
    end's named edge, where the walk takes the hop in that end's slot (see
    ``_splice_hops``). The walk is cut after the target's number of
    vertices, so a broken slot map cannot make it loop forever. The tree is
    read only to name the tuples at a path the walk missed.
    """
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    last = 2 * k
    span = last + 1  # the vertices, and the edges, of one factor cycle
    full, top = (1 << last) - 1, 1 << last
    # per target: a path's laps (a middle detour is the second) and what weight k + 1 XORs in
    laps, flip = {TARGET_GPLUS: (1, 0), TARGET_ODD: (1, top | full), TARGET_MIDDLE: (2, 0)}[target]
    detour, total = laps == 2, laps * comb(span, k)
    # step[p] flips position p in the walk's coordinates; p = 0 closes
    step = (top if detour else full, *(flip ^ b for b in _BIT[1:span])).__getitem__
    reached = bytearray(len(dyck))  # the paths the walk ran along
    start = v = (1 << k) - 1  # dyck[0] = 1^k 0^k, at index 0 of its own path
    # The start can end only named edge 0, so ahead of it lies its hop, in
    # slot 0, or its next vertex start ^ bit(2k), which is less than
    # start ^ full. The walk leaves toward the smaller neighbour, as a run
    # from index 0 of path 0, and comes back by the other: by a run up path 0
    # that wraps to index 0, or by the hop into the lower end of named edge 0
    # of path 0, which is packed as start itself.
    forward = not masks[0] & 1 or slots[0] & full < start ^ full
    o = j = count = 0
    while True:
        # v, not yet emitted, is at index j of path o in the walk's coordinates
        reached[o] = 1
        seq, m = seqs[o], masks[o]
        if forward:  # up to the lower end of the lowest named edge at or above j
            a = m >> j
            if a:
                steps = seq[j : j + (a & -a).bit_length() - 1]
                s = offset[o + 1] - 2 * a.bit_count()  # a holds it and those above
            else:  # past the closing step, or detour; path 0 stops at the start
                t = (m & -m).bit_length() - 1 if o else 0
                steps = b"\0".join((seq[j:], seq, seq[:t]) if detour else (seq[j:], seq[:t]))
                s = offset[o] if o else -1
        else:  # down to the upper end of the highest named edge below j
            a = m & (1 << j) - 1
            if a:
                steps = seq[a.bit_length() : j][::-1]
                s = offset[o] + 2 * a.bit_count() - 1  # a holds it and those below
            else:  # past the closing step, or detour
                t = m.bit_length()
                steps = b"\0".join((seq[t:], seq, seq[:j]) if detour else (seq[t:], seq[:j]))
                steps = steps[::-1]
                s = offset[o + 1] - 1
        run = list(accumulate(map(step, steps), xor, initial=v))
        if s < 0:  # the walk is back: its last run ends before the start
            run.pop()
        count += len(run)
        if count > total:
            yield run[: len(run) - count + total]
            raise AssemblyError(f"the walk did not return to its start after {total} vertices")
        yield run
        if s < 0:
            break
        e = slots[s]
        if e == start:  # the hop into the lower end of named edge 0 of path 0
            break
        g = e & full
        e >>= last
        forward, j, o = e & 1, e >> 1 & 63, e >> 7
        v = g ^ flip if j & 1 else g  # odd indices have weight k + 1
    if count != total:
        from .checking import walk_failure

        raise AssemblyError(walk_failure(k, tree, reached, count, total))


def stream_gplus_vals(
    k: int, tree: spanning.SpanningTree, target: str = TARGET_GPLUS
) -> Iterator[int]:
    """The Hamilton cycle of ``target``'s graph as packed vertices, in canonical rotation.

    The splice is built at the call, so a bad tree or target raises there.
    """
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "assembly needs k >= 3")
    if target not in (TARGET_GPLUS, TARGET_ODD, TARGET_MIDDLE):
        raise ValueError(f"unknown target {target!r}: expected gplus, odd or middle")
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    return chain.from_iterable(_walk_runs(k, *_splice_hops(k, tree, dyck, seqs), tree, target))


def hamilton_gplus(k: int, tree: spanning.SpanningTree) -> CycleCertificate:
    return CycleCertificate(k, TARGET_GPLUS, Vertices(stream_gplus_vals(k, tree), 2 * k, odd=False))


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
    return stream_gplus_vals(k, _tree_for(k, family_mask), TARGET_ODD)


def hamilton_odd(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the odd graph as a cyclic sequence of k-subsets."""
    vertices = Vertices(stream_odd_vals(k, family_mask), 2 * k + 1, odd=True)
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
    """Packed (2k+1)-bit vertices of the middle-levels cycle; a bad k or mask raises at the call."""
    if k < 1:
        raise ValueError("middle-levels generation needs k >= 1")
    if k <= 2:
        if family_mask is not None:
            raise ValueError("cycle families need k >= 6")
        return iter([Bits.parse(s).val for s in (_MIDDLE_K1 if k == 1 else _MIDDLE_K2)])
    return stream_gplus_vals(k, _tree_for(k, family_mask), TARGET_MIDDLE)


def hamilton_middle_levels(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the middle-levels graph on (2k+1)-bit strings."""
    vertices = Vertices(stream_middle_vals(k, family_mask), 2 * k + 1, odd=False)
    return CycleCertificate(k, TARGET_MIDDLE, vertices)
