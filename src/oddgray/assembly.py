"""Hamilton-cycle assembly.

The Hamilton cycle is the cycle factor with one witness cycle per
spanning-tree tuple XOR-ed in. Because the tree is conflict-free and spans
every Dyck word, the splices join all factor cycles into one. Only the
witness vertices get neighbours that differ from the factor's, so only they
are stored: the splice table maps each to its two final neighbours a and
b and to its (Dyck origin o, index j) on the factor, packed in one int

  ((o << 2k | a) << 2k | b) << 6 | j

(j <= 2k <= 60 fits in six bits, and o is unbounded above). Every other
vertex keeps its two factor-cycle neighbours, which its path's flip
sequence gives, so checking the table for degree 2 checks the whole graph.
Memory thus grows with the witness vertices, not with the whole graph.
The splice and the walk read one shared table of flip sequences per k
(``factor.flip_sequences``).

The splice reads the tree's packed entries, whose witnesses and supports
the spanning recursion carries (``spanning.SpanningTree.packed``), so
generation runs no derivation search, peels no context and never loads
``checking``, where ``verify.verify_tree`` checks that each entry's
derivation is its tuple's only one and peels to its packed entry. The
failure messages below read the tuples there (``SpanningTree.entries``).
The splice toggles every witness edge, and then places each witness vertex
with no search over the factor. The placement pass, which visits every
support member, also checks the tree: a union-find over origin numbers, a
mark bitmask per word and a membership count cover the conditions of
``checking.validate_tree``, which runs only to write the text of a
failure. A witness meets each member's path in its named edge, and in
every family that edge sits at fixed positions of the witness cycle
(``flippable.Pattern.named_edges``, in the table of seed literals that
fixes them), in the support's member order:

  fan     (3, 2), (4, 5), (0, 1)
  bridge  (5, 4), (2, 3), (0, 1)
  quad    (7, 6), (5, 4), (2, 3), (0, 1)
  patch   (0, 1), (5, 4), (3, 2)

The named edge of member (x, m) flips m at index i = seq.index(m) of the
path of x, so it joins x ^ (the first i flips of seq) to that vertex with m
flipped. A witness vertex placed there must equal one of the two exactly;
one that no named edge holds raises ``AssemblyError`` with the tuple, the
member's Dyck origin and the index; a vertex of the wrong degree, and a
walk that misses a factor path, name the tuples whose witnesses meet it.

The walk goes one factor-path segment at a time. Between two table
vertices the cycle stays on one path, so a segment is an interval of that
path's flip sequence, emitted by one ``itertools.accumulate`` over a step
table, which alone sets the target's coordinates: flipping position p XORs
bit(p) in gplus and middle coordinates and ALL ^ bit(p) in odd ones (ALL has
2k+1 bits), and the closing edge {x, ~x}, from index 2k to index 0, XORs
``full`` in gplus and odd coordinates; in middle ones it is the detour
below, the top bit, the flip sequence and the top bit again. A segment ends
at the next stop along the path in the walking direction, read from the
path's stop mask: one word per Dyck word, with a bit at the index of each
table vertex, set as the placement pass stores it, and at index 0 of path
0, the start. A table vertex reached along its path is left by a witness
edge. So the Python work grows with the witness edges, not with the
vertices, and no vertex is mapped from gplus to its target. The walk must
return to its start after exactly the target's number of vertices.

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
maps to the subset {1..k}).
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import accumulate, chain
from math import comb
from operator import xor
from typing import Iterator, NoReturn

from . import spanning
from .factor import _path_vals, flip_sequences
from .words import Bits, enumerate_dyck, positions, subset_mapper

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
        n = len(self.vertices)
        return frozenset(
            frozenset((self.vertices[i], self.vertices[(i + 1) % n])) for i in range(n)
        )


def _tree_for(k: int, family_mask: int | None) -> spanning.SpanningTree:
    if family_mask is None:
        return spanning.full_tree(k)
    return spanning.counting_tree(k, family_mask)


def _splice_table(
    k: int, tree: spanning.SpanningTree, dyck: tuple[Bits, ...], seqs: tuple[bytes, ...]
) -> tuple[dict[int, int], array]:
    """Witness vertex -> its packed entry: ((origin << 2k | a) << 2k | b) << 6 | index.

    The origin number indexes ``dyck`` and ``seqs``, their flip sequences
    (``factor.flip_sequences``); a and b are the vertex's two final
    neighbours, its factor neighbours with the witness edges toggled in.
    Every vertex not in the table keeps its two factor-cycle neighbours.
    Returned with the walk's stop masks (see the module docstring). The
    tree is checked in the placement pass, and ``checking.validate_tree``
    runs only to report a tree that fails.
    """
    if not tree.spans_dyck(k):
        _reject(tree)
    packed = tree.packed
    last = 2 * k
    full = (1 << last) - 1

    # First each witness vertex collects its two witness-cycle neighbours, the
    # ends of the edges it toggles, as a negative int: minus its toggled
    # neighbours in slots of 2k + 1 bits, each with a stop bit at 2k, so a
    # vertex of two witnesses holds four slots.
    slot, stop = last + 1, 1 << last
    pair = 2 * slot
    table: dict[int, int] = {}
    get = table.get
    for _, cycle, _ in packed:
        for prev, cur, nxt in zip((cycle[-1], *cycle), cycle, (*cycle[1:], cycle[0])):
            table[cur] = (get(cur, 0) << pair) - ((prev | stop) << slot | nxt | stop)

    # Then each member's named edge places the witness vertices at its
    # positions (see the module docstring). A placed vertex's factor
    # neighbours take its toggles, an edge toggled twice cancelling, and a
    # vertex whose toggles all cancel drops out. A vertex that no named edge
    # holds stays negative, and is reported below. The same pass checks the
    # tree: every member is a Dyck word, no word takes a mark twice, and
    # joining each support's words in a union-find over origin numbers never
    # joins two words already joined. With sum(|support| - 1) == |words| - 1
    # that is all of ``validate_tree``'s conditions.
    origin_of = {x.val: o for o, x in enumerate(dyck)}
    parent = array("l", range(len(dyck)))
    marks = array("Q", bytes(8 * len(dyck)))
    stops = array("Q", bytes(8 * len(dyck)))
    stops[0] = 1
    count = 0
    bit = _BIT.__getitem__
    bad = []
    misplaced = {}
    for idx, (pattern, cycle, support) in enumerate(packed):
        count += len(support) - 1
        place = len(cycle) == 2 * len(support)
        root = None
        for (x, mark), (a, b) in zip(support, pattern.named_edges):
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
            if not place:
                continue
            seq = seqs[o]
            i = seq.index(mark)
            # the first i flips, or all flips but the last 2k - i
            low = x ^ sum(map(bit, seq[:i])) if i <= k else x ^ full ^ sum(map(bit, seq[i:]))
            for y in (cycle[a], cycle[b]):
                toggled = get(y, 0)
                if toggled >= 0:  # placed already, dropped, or of no witness
                    continue
                if y == low:
                    j = i
                elif y == low ^ _BIT[mark]:
                    j = i + 1
                else:
                    misplaced.setdefault(y, (idx, o, i))
                    continue
                before = y ^ (_BIT[seq[j - 1]] if j else full)
                after = y ^ (_BIT[seq[j]] if j < last else full)
                nb = [before, after]
                toggled = -toggled
                while toggled:
                    w = toggled & full
                    toggled >>= slot
                    if w in nb:
                        nb.remove(w)
                    else:
                        nb.append(w)
                if len(nb) != 2:
                    bad.append((y, o, j, len(nb)))
                    table[y] = 0  # placed, and reported below
                elif before in nb and after in nb:
                    del table[y]
                else:
                    table[y] = ((o << last | nb[0]) << last | nb[1]) << 6 | j
                    stops[o] |= 1 << j
    if count != len(dyck) - 1:
        _reject(tree)
    if bad:
        v, o, i, d = bad[0]
        raise AssemblyError(
            f"{len(bad)} vertices do not have degree 2 after splicing, e.g. "
            f"{Bits(v, last)}, index {i} on the factor path of {dyck[o]}, has {d} neighbours"
            + _meeting(tree, {v}, "it")
        )
    stray = [v for v, e in table.items() if e < 0]
    if stray:
        v = next((v for v in stray if v in misplaced), stray[0])
        where = ""
        if v in misplaced:
            idx, o, i = misplaced[v]
            where = (
                f": tuple {tree.entries[idx].tup} names the edge from index {i} to {i + 1} "
                f"on the factor path of {dyck[o]}"
            )
        raise AssemblyError(
            f"{len(stray)} witness vertices lie on no factor path at a named edge, e.g. "
            f"{Bits(v, last)!r}{where}"
        )
    return table, stops


def _reject(tree: spanning.SpanningTree) -> NoReturn:
    """Raise the ``ValueError`` for a tree the splice cannot use, invalidity first."""
    from .checking import validate_tree

    report = validate_tree(tree)
    if not report.passed:
        raise ValueError("invalid spanning tree: " + "; ".join(report.failures))
    raise ValueError("tree does not span the Dyck words of this semilength")


def _meeting(tree: spanning.SpanningTree, vertices: set[int], what: str) -> str:
    """A message clause naming the tuples whose witness cycles hold any of ``vertices``."""
    tuples = [
        str(tree.entries[i].tup)
        for i, (_, cycle, _) in enumerate(tree.packed)
        if not vertices.isdisjoint(cycle)
    ]
    return f"; the witnesses of {len(tuples)} tuples meet {what}: {', '.join(tuples)}"


def _walk(
    k: int, table: dict[int, int], stops: array, tree: spanning.SpanningTree, target: str
) -> Iterator[list[int]]:
    """The spliced cycle from the least vertex (1 << k) - 1, toward its smaller neighbour, in runs.

    Each run is one segment of a factor path in ``target``'s coordinates,
    ended by a stop and left by a witness edge, or a table vertex alone
    between two witness edges (see the module docstring). The walk is cut
    after the target's number of vertices, so a broken table cannot make it
    loop forever. The tree is read only to name the tuples at a path the
    walk missed.
    """
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    last = 2 * k
    span = last + 1  # the vertices, and the edges, of one factor cycle
    full, top = (1 << last) - 1, 1 << last
    # per target: a path's laps (a middle detour is the second) and what weight k + 1 XORs in
    laps, flip = {TARGET_GPLUS: (1, 0), TARGET_ODD: (1, top | full), TARGET_MIDDLE: (2, 0)}[target]
    lap, total = laps * span, laps * comb(span, k)
    upper, above = last + 6, 2 * last + 6  # where an entry's neighbour a and origin start
    # bit[p] and step[p] flip position p, in gplus and in the walk's coordinates; p = 0 closes
    bit = (full, *_BIT[1:span])
    step = (top if laps == 2 else full, *(flip ^ b for b in bit[1:]))
    reached = bytearray(len(dyck))  # the paths whose table vertices the walk met
    start = g = v = (1 << k) - 1  # dyck[0] = 1^k 0^k, at index 0 of its own path
    # off the table, the start leaves toward its smaller factor neighbour, as if from the larger
    entry = table.get(start, (start ^ full) << upper | (start ^ bit[seqs[0][0]]) << 6)
    prev = max(entry >> 6 & full, entry >> upper & full)
    o, count = -1, 0
    while True:
        # v, not yet emitted, is g in the walk's coordinates; entry is g's
        j = entry & 63
        if entry >> above != o:
            o = entry >> above
            reached[o] = 1
            # the path's steps and stops at both ends of its closing step (or
            # detour), so that a run may wrap from index 2k to 0 or from 0 to 2k
            ext = (seqs[o] + b"\0") * laps + seqs[o]
            s = stops[o] | stops[o] << lap
        nxt = entry >> 6 & full
        if nxt == prev:
            nxt = entry >> upper & full
        if nxt == g ^ bit[ext[j]]:
            ahead = s >> j + 1
            steps = ext[j : j + (ahead & -ahead).bit_length()]
        elif nxt == g ^ bit[ext[j + lap - 1]]:
            steps = ext[(s & (1 << j + lap) - 1).bit_length() - 1 : j + lap][::-1]
        else:
            steps = b""
        run = list(accumulate(map(step.__getitem__, steps), xor, initial=v))
        if steps:
            v = run[-1]
            g = v ^ flip if v > full else v
            if g == start:  # the walk is back: its last run ends before the start
                run.pop()
                nxt = start
            else:
                # reached along its path, a table vertex is left by a witness edge:
                # one whose final neighbours are its factor neighbours is not in the table
                entry = table[g]
                nxt = entry >> 6 & full
                if nxt == g ^ bit[steps[-1]]:
                    nxt = entry >> upper & full
        count += len(run)
        if count > total:
            yield run[: len(run) - count + total]
            raise AssemblyError(f"the walk did not return to its start after {total} vertices")
        yield run
        prev, g = g, nxt
        if g == start:
            break
        v = g ^ flip if g.bit_count() > k else g
        entry = table[g]
    if count != total:
        missed = [o for o, r in enumerate(reached) if not r]
        where = ""
        if missed:
            x, seq = dyck[missed[0]], seqs[missed[0]]
            where = _meeting(tree, set(_path_vals(x.val, seq)), f"the factor path of {x}")
        raise AssemblyError(
            f"splice produced more than one cycle: the walk reached {count} of "
            f"{total} vertices, and no factor path of these {len(missed)} of "
            f"{len(dyck)} Dyck words: {', '.join(str(dyck[o]) for o in missed[:8])}"
            + (", ..." if len(missed) > 8 else "")
            + where
        )


def stream_gplus_vals(
    k: int, tree: spanning.SpanningTree, target: str = TARGET_GPLUS
) -> Iterator[int]:
    """The Hamilton cycle of ``target``'s graph as packed vertices, in canonical rotation.

    The splice table is built at the call, so a bad tree raises there.
    """
    if k < 3:
        raise ValueError(PETERSEN_NOTE if k == 2 else "assembly needs k >= 3")
    table, stops = _splice_table(k, tree, enumerate_dyck(k), flip_sequences(k))
    return chain.from_iterable(_walk(k, table, stops, tree, target))


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
    return stream_gplus_vals(k, _tree_for(k, family_mask), TARGET_ODD)


def hamilton_odd(k: int, family_mask: int | None = None) -> CycleCertificate:
    """A Hamilton cycle of the odd graph as a cyclic sequence of k-subsets."""
    subset = subset_mapper(2 * k + 1)
    return CycleCertificate(k, TARGET_ODD, tuple(map(subset, stream_odd_vals(k, family_mask))))


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
    vertices = tuple(Bits(v, 2 * k + 1) for v in stream_middle_vals(k, family_mask))
    return CycleCertificate(k, TARGET_MIDDLE, vertices)
