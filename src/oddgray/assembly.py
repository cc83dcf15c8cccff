"""Hamilton-cycle assembly.

The Hamilton cycle is the cycle factor with one witness cycle per
spanning-tree tuple XOR-ed in; as the tree is conflict-free and spans every
Dyck word, the splices join all factor cycles into one. The splice reads the
tree's packed entries (``spanning.SpanningTree.packed``) and the shared flip
sequences (``factor.flip_sequences``), so generation searches no derivation
and never loads ``checking``; failure messages read the tuples there.

A witness of a t-tuple has 2t vertices and meets each member's path in
exactly its named edge, at witness positions {2r, 2r + 1} in the support's
member order (``flippable.Pattern.named_edges``, lower end first):

  fan     (3, 2), (4, 5), (0, 1)
  bridge  (5, 4), (2, 3), (0, 1)
  quad    (7, 6), (5, 4), (2, 3), (0, 1)
  patch   (0, 1), (5, 4), (3, 2)

So every witness vertex ends a named edge, and its other witness edge, from
2r + 1 to 2r + 2 or from 2r to 2r - 1 (mod 2t), is its hop: toggling the
witness swaps the named edges for the hops. The named edge of member (x, m)
flips m at index i = seq.index(m) of the path of x, from its lower end at
index i to its upper end at i + 1; the entry carries no witness, as its
members fix every vertex.

The splice (``_splice_hops``) is one pass over the members. It checks the
tree by each support's size, a union-find over origin numbers, a mask of
named edges per path, in which member (x, m) sets bit seq.index(m) once, and
a membership count. It writes each member's named edge into the witness at
its positions, and checks that each hop flips one bit, at position p: that
is what makes the tuple flippable. Each hop end then goes to a slot of one
flat array, addressed by the masks, which holds the far end's address and
p. The pass stops at the first bad entry, and ``_reject`` reports it: an
invalid tree, wherever its defect lies, raises the ``ValueError`` of
``validate_tree``; else that entry's hop flipping other than one bit raises
an ``AssemblyError`` naming the tuple, the Dyck origin and the vertices. A
walk cut after the target's number of vertices, or back too early, raises
one naming the paths it missed and the tuples at the first. Once the splice
passes, every vertex has degree 2: two tuples whose witnesses share a hop
would share the words of both its paths.

The walk (``_walk_runs``) emits the cycle as the position each edge flips, 0
for a closing step, and no vertex. From the end a hop lands on, a run goes
along the path, away from that end's named edge, to the nearest named-edge
end, past the closing step (in middle coordinates the detour 0, seq, 0) if
need be: a slice of the flip sequence, then the hop's p. It starts at the
least vertex (1 << k) - 1, index 0 of path 0, toward its smaller neighbour,
its hop or index 1 (both below its complement), and ends when a run up path
0 wraps to index 0. A step table (``_steps``) gives what each position XORs
in the target's coordinates: vertex streams run one ``accumulate`` over it
per block, and ``words.column_lines`` renders bit lines a column at a time.

Targets:

  gplus   bitstrings of length 2k and weight k or k+1, joined by single-bit
          flips and by the closing edges, the complement pairs at weight k.
  odd     k-subsets of [2k+1], joined when disjoint, as characteristic vectors:
          0 appended to a weight-k string, 1 to the complement of a weight-(k+1)
          one (``odd_val``).
  middle  bitstrings of length 2k+1 and weight k or k+1 one bit apart: the gplus
          cycle with 0 appended and each closing edge {x0, ~x0} replaced by the
          detour ~x0, ~x1, ..., x1, x0 along the complemented path of x.

Certificates start at the numerically smallest packed vertex, then its
smaller neighbour (an odd one inherits the gplus rotation, whose least vertex
maps to {1..k}), and hold the values packed in a ``words.Vertices`` view.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import accumulate, chain
from math import comb
from operator import or_, xor
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
# Flip positions per block of a walk, but for the last.
BLOCK_FLIPS = 4096
# A cycle as a walk: its start vertex, what each flip position XORs in, and its position blocks.
Walk = tuple[int, tuple[int, ...], Iterator[bytes]]


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


def _splice_hops(k: int, tree: spanning.SpanningTree) -> tuple[array, array, array]:
    """Each named-edge end's hop, each path's named edges, and each path's first slot.

    ``masks[o]`` has a bit at the index of each named edge on the path of
    ``enumerate_dyck(k)[o]``, whose flip sequence is ``flip_sequences(k)[o]``.
    Named edge e of path o has its lower end (upper = 0) and its upper end
    (upper = 1) at ``slots[offset[o] + 2 * popcount(masks[o] & ((1 << e) - 1)) + upper]``,
    which holds the end its hop lands on and the position p the hop flips,
    packed as ((origin << 6 | index) << 1 | upper) << 6 | p. A bad tree fails
    as the module docstring says.
    """
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    if not (tree.words is dyck or tree.base == frozenset(dyck)):
        _reject(tree)
    last = 2 * k
    full = (1 << last) - 1
    # The check: each support has one member per named edge of its pattern,
    # every member is a Dyck word with a mark in 1..2k, no path has an edge
    # named twice (a flip sequence is a permutation of 1..2k, so no word is
    # marked twice), and joining each support's words in a union-find over
    # origin numbers never joins two words already joined. With
    # sum(|support| - 1) == |words| - 1 that is all seven of
    # ``validate_tree``'s conditions.
    origin_of = {x.val: o for o, x in enumerate(dyck)}
    parent = array("l", range(len(dyck)))
    masks = array("Q", bytes(8 * len(dyck)))
    nears, fars = array("Q"), array("Q")  # each hop's two ends, packed
    count = 0
    bit = _BIT.__getitem__
    for idx, (pattern, support) in enumerate(tree.packed):
        named = pattern.named_edges
        if len(support) != len(named):
            _reject(tree)
        count += len(support) - 1
        root = None  # the root of the entry's words
        cycle = [0] * (2 * len(named))  # the witness: per position, its vertex
        ends = [0] * len(cycle)  # and its packed end
        for (x, mark), (a, b) in zip(support, named):
            o = origin_of.get(x)
            if o is None or not 0 < mark <= last:
                _reject(tree)
            seq = seqs[o]
            i = seq.index(mark)
            if masks[o] >> i & 1:
                _reject(tree)
            masks[o] |= 1 << i
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
            # The named edge joins index i, after the first i flips of seq
            # (or all flips but the last 2k - i), to index i + 1.
            low = x ^ sum(map(bit, seq[:i])) if i <= k else x ^ full ^ sum(map(bit, seq[i:]))
            cycle[a], cycle[b] = low, low ^ _BIT[mark]
            ends[a] = (o << 6 | i) << 7
            ends[b] = ((o << 6 | i + 1) << 1 | 1) << 6
        # Position 2r + 1 hops to 2r + 2, and the last position to 0. A hop
        # joins the paths of two members, and no earlier witness has it: a
        # tuple with both paths would have joined them in the union-find. So
        # its ends differ, each in at least one bit.
        hops = list(map(xor, cycle[1::2], cycle[2::2] + cycle[:1]))
        if sum(map(int.bit_count, hops)) != len(hops):
            r = next(r for r, h in enumerate(hops) if h.bit_count() != 1)
            u, w = Bits(cycle[2 * r + 1], last), Bits(cycle[2 * r + 1] ^ hops[r], last)
            where = f"hops from {u!r} on the factor path of {dyck[ends[2 * r + 1] >> 13]} to {w!r}"
            _reject(tree, idx, f"a hop flips {hops[r].bit_count()} bits", where)
        ends += ends[:1]
        nears.extend(map(or_, ends[1::2], map(int.bit_length, hops)))  # with p; fars without
        fars.extend(ends[2::2])
    if count != len(dyck) - 1:
        _reject(tree)
    # The masks are final, so each end goes to its slot: 2 * popcount(masks[o] & ((1 << j) - 1))
    # counts the slots of path o before the end at index j, and its own too if it is an upper
    # end. Only the near end holds p, so q | p & 63 gives both slots the far end and p.
    offset = array("Q", accumulate((2 * m.bit_count() for m in masks), initial=0))
    slots = array("Q", bytes(8 * offset[-1]))
    for p, q in zip(chain(nears, fars), chain(fars, nears)):
        key = p >> 6  # (origin << 6 | index) << 1 | upper
        o = key >> 7
        below = masks[o] & (1 << (key >> 1 & 63)) - 1
        slots[offset[o] + 2 * below.bit_count() - (key & 1)] = q | p & 63
    return slots, masks, offset


def _reject(tree: spanning.SpanningTree, idx: int = 0, what: str = "", where: str = "") -> NoReturn:
    """The splice's one failure exit: ``validate_tree``'s text if the tree is invalid, else
    "{what}: tuple {entry idx's tuple} {where}", or the does-not-span text if what is empty."""
    from .checking import tuple_text, validate_tree

    report = validate_tree(tree)
    if not report.passed:
        raise ValueError("invalid spanning tree: " + "; ".join(report.failures))
    if what:
        raise AssemblyError(f"{what}: tuple {tuple_text(tree, idx)} {where}")
    raise ValueError("tree does not span the Dyck words of this semilength")


def _walk_runs(
    k: int, slots: array, masks: array, offset: array, tree: spanning.SpanningTree, target: str
) -> Iterator[bytes]:
    """The spliced cycle's flip positions from (1 << k) - 1, in blocks of BLOCK_FLIPS or more.

    The walk is cut after the target's number of vertices, so a broken slot map cannot make it
    loop forever; the last block may be shorter. The tree only names the tuples at a missed path.
    """
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    detour = target == TARGET_MIDDLE  # a path's second lap, complemented with the top bit set
    total = (1 + detour) * comb(2 * k + 1, k)
    reached = bytearray(len(dyck))  # the paths the walk ran along
    block = bytearray()
    forward, o, j, count, s = 1, 0, 0, 0, 0
    while s >= 0:
        # the walk is at index j of path o, with its positions so far in the block
        reached[o] = 1
        seq, m = seqs[o], masks[o]
        if forward:  # up to the lower end of the lowest named edge at or above j
            a = m >> j
            if a:
                block += seq[j : j + (a & -a).bit_length() - 1]
                s = offset[o + 1] - 2 * a.bit_count()  # a holds it and those above
            else:  # past the closing step, or detour; path 0 stops at the start
                t = (m & -m).bit_length() - 1 if o else 0
                block += b"\0".join((seq[j:], *[seq] * detour, seq[:t]))
                s = offset[o] if o else -1
        else:  # down to the upper end of the highest named edge below j
            a = m & (1 << j) - 1
            if a:
                block += seq[a.bit_length() : j][::-1]
                s = offset[o] + 2 * a.bit_count() - 1  # a holds it and those below
            else:  # past the closing step, or detour
                t = m.bit_length()
                block += b"\0".join((seq[t:], *[seq] * detour, seq[:j]))[::-1]
                s = offset[o + 1] - 1
        if s >= 0:  # the hop; s < 0 when the last run wrapped to the start
            e = slots[s]
            block.append(e & 63)
            forward, j, o = e >> 6 & 1, e >> 7 & 63, e >> 13
        if s < 0 or len(block) >= BLOCK_FLIPS:
            count += len(block)
            if count > total:
                yield bytes(block[: len(block) - count + total])
                raise AssemblyError(f"the walk did not return to its start after {total} vertices")
            yield bytes(block)
            block.clear()
    if count != total:
        from .checking import walk_failure

        raise AssemblyError(walk_failure(k, tree, reached, count, total))


def _steps(k: int, target: str) -> tuple[int, ...]:
    """What flip position p XORs into a vertex in ``target``'s coordinates; p = 0 closes a path."""
    full, top = (1 << 2 * k) - 1, 1 << 2 * k
    flip = top | full if target == TARGET_ODD else 0  # what weight k + 1 XORs in
    return (top if target == TARGET_MIDDLE else full, *(flip ^ b for b in _BIT[1 : 2 * k + 1]))


def cycle_walk(k: int, tree: spanning.SpanningTree, target: str = TARGET_GPLUS) -> Walk:
    """``target``'s Hamilton cycle as a walk, spliced at the call, so bad input raises there."""
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "assembly needs k >= 3")
    if target not in (TARGET_GPLUS, TARGET_ODD, TARGET_MIDDLE):
        raise ValueError(f"unknown target {target!r}: expected gplus, odd or middle")
    return (1 << k) - 1, _steps(k, target), _walk_runs(k, *_splice_hops(k, tree), tree, target)


def walk_vals(walk: Walk) -> Iterator[int]:
    """The packed vertices of a walk: one ``accumulate`` per block, the block lists chained."""
    start, steps, blocks = walk

    def runs(v: int) -> Iterator[list[int]]:
        for block in blocks:
            run = list(accumulate(map(steps.__getitem__, block), xor, initial=v))
            v = run.pop()
            yield run

    return chain.from_iterable(runs(start))


def stream_gplus_vals(
    k: int, tree: spanning.SpanningTree, target: str = TARGET_GPLUS
) -> Iterator[int]:
    """``cycle_walk`` as packed vertices, in canonical rotation; bad input raises at the call."""
    return walk_vals(cycle_walk(k, tree, target))


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


def odd_walk(k: int, family_mask: int | None = None) -> Walk:
    """The odd-graph cycle as a ``cycle_walk``; a bad k or mask raises at the call."""
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "odd-graph generation needs k >= 3")
    return cycle_walk(k, _tree_for(k, family_mask), TARGET_ODD)


def hamilton_odd(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the odd graph as a cyclic sequence of k-subsets."""
    vertices = Vertices(walk_vals(odd_walk(k, family_mask)), 2 * k + 1, odd=True)
    return CycleCertificate(k, TARGET_ODD, vertices)


# Middle-levels cycles below the general construction as start vertex and flip positions, 0 the
# top bit (k = 1: 100, 110, 010, 011, 001, 101); the tests check them by brute-force search.
_MIDDLE_SMALL = {
    1: (0b001, bytes((2, 1, 0, 2, 1, 0))),
    2: (0b00011, bytes((3, 1, 4, 2, 1, 4, 0, 3, 4, 0, 2, 1, 0, 2, 3, 4, 2, 3, 1, 0))),
}


def middle_walk(k: int, family_mask: int | None = None) -> Walk:
    """The middle-levels cycle as a ``cycle_walk``; a bad k or mask raises at the call."""
    if k < 1:
        raise ValueError("middle-levels generation needs k >= 1")
    if k > 2:
        return cycle_walk(k, _tree_for(k, family_mask), TARGET_MIDDLE)
    if family_mask is not None:
        spanning.mask_width(k)  # refuses k < 6
    start, flips = _MIDDLE_SMALL[k]
    return start, _steps(k, TARGET_MIDDLE), iter([flips])


def stream_middle_vals(k: int, family_mask: int | None = None) -> Iterator[int]:
    """Packed (2k+1)-bit vertices of the middle-levels cycle; bad input raises at the call."""
    return walk_vals(middle_walk(k, family_mask))


def hamilton_middle_levels(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the middle-levels graph on (2k+1)-bit strings."""
    vertices = Vertices(stream_middle_vals(k, family_mask), 2 * k + 1, odd=False)
    return CycleCertificate(k, TARGET_MIDDLE, vertices)
