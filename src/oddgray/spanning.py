"""Inductive conflict-free spanning trees over the Dyck words of semilength k.

Tuples act as hyperedges over their supports; a set of tuples spans a word
set X when the incidence structure is connected and acyclic, which under the
tuple-size accounting sum(|support| - 1) == |X| - 1 plus connectivity is
equivalent to the recursive picture (removing a tuple splits the rest into
one spanned block per support word). Conflict-freeness additionally demands
that two tuples sharing a support word mark it at different positions, so
their witness cycles stay edge-disjoint.

The construction splits the words into a *flat* block (second bit 0; for
k >= 4 exactly the words 10.D_{k-1}) and a *steep* block (the rest), with
k = 3 split irregularly as the singleton {110010} versus the other four.
Trees are then built by mutual induction:

  full(k)   spans everything: steep(k), plus flat(k-1) and steep(k-1)
            shifted behind "10", joined by the connector bridge.(10)^(k-3);
  flat(k)   is full(k-1) shifted behind "10" (small k hardcoded);
  steep(k)  grows in stages j = 2..k over the position 2j where the leading
            1 closes: stage 2 is full(k-2) behind "1100"; stage j >= 3 adds,
            for every inner Dyck word v of the right size, the mirror-wrapped
            flat and steep trees of order j-1 (as 1 mirror(.) 0 v) and the
            connector fan((10)^(j-3)).v tying them to the earlier stages.

The counting variant re-partitions stage 5: for inner words v selected by a
bitmask over the semilength k-5 enumeration, the alternate order-4 split
(singleton 11001100 versus the rest) and the connector fan(1100).v are used
instead. Distinct masks give distinct trees, hence 2^Catalan(k-5) trees in
total, each yielding a different Hamilton cycle downstream.

One recursion (``_Recursion``) makes every tree, as a list of packed
entries (``flippable.PackedEntry``: seed pattern, witness values, support),
from the four functions ``flippable`` defines: ``seed``, ``shift`` (p T
behind an even Dyck word p), ``wrap`` (1 mirror(T) 0) and ``append`` (T v).
Each move carries witness and support by its law, so no context is ever
peeled. A steep tree's stage j wraps the flat and steep trees of order j-1
once, and then appends each inner word v to the wrapped list. A memo local
to one build keeps the shared subtrees, so nothing outlives the build but
the tree.

A tree is its words, its packed entries and its word length, however it
was made. Its derivations (``SpanningTree.entries``, which the ``tree``
command, the verifiers, the splice's failure messages and perfbench read)
are read back from the packed supports by ``checking``, which generation
never loads; reading them runs no recursion, and the tests check that
peeling each one gives its packed entry back. ``checking.hand_tree`` makes
a tree by hand from derivations by peeling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .flippable import BRIDGE, PATCH, PackedEntry, QUAD, append, fan, seed, shift, wrap
from .words import Bits, enumerate_dyck


@dataclass(frozen=True)
class Partition:
    """The flat/steep split of the Dyck words of one semilength."""

    k: int
    flat: frozenset[Bits]
    steep: frozenset[Bits]


class SpanningTree:
    """Tree tuples as packed entries over a base set of words, the entries' words of length n.

    ``full_tree``, ``flat_tree``, ``steep_tree`` and ``counting_tree`` make
    one from the recursion's entries; ``base`` and the derivations
    ``entries`` are read back on first read.
    """

    def __init__(self, words, packed: tuple[PackedEntry, ...], n: int) -> None:
        self.words, self.packed, self.n = words, packed, n

    @cached_property
    def base(self) -> frozenset[Bits]:
        return frozenset(self.words)

    @cached_property
    def entries(self) -> tuple:
        """Each entry as a ``checking.TreeEntry``, its derivation read from its packed support."""
        from .checking import Derivation, TreeEntry

        return tuple(TreeEntry(Derivation.of_support(p, s, self.n)) for p, _, s in self.packed)

    def spans_dyck(self, k: int) -> bool:
        """Whether the base set is every Dyck word of semilength k."""
        words = enumerate_dyck(k)
        return self.words is words or self.base == frozenset(words)

    def tuple_set(self) -> frozenset:
        return frozenset(e.tup for e in self.entries)


@dataclass(frozen=True)
class TreeReport:
    passed: bool
    failures: tuple[str, ...]


_TEN = Bits.parse("10")
_1100 = Bits.parse("1100")


def _alternating(j: int) -> Bits:
    return Bits.parse("10" * j)


@lru_cache(maxsize=None)
def partition(k: int) -> Partition:
    if k < 2:
        raise ValueError("partition defined for semilength >= 2")
    words = enumerate_dyck(k)
    if k == 3:
        steep = frozenset((Bits.parse("110010"),))
    else:
        steep = frozenset(x for x in words if x.bit(2) == 1)
    return Partition(k, frozenset(words) - steep, steep)


class _Recursion:
    """The flat, steep and full trees of the construction, as lists of packed entries.

    One instance makes one tree. Its memo keeps the chosen-free subtrees
    while it lives; a mask's ``chosen`` inner words change stage 5 of the
    outermost steep tree only.
    """

    def __init__(self) -> None:
        self.memo: dict = {}

    def tree(self, kind: str, k: int, chosen: frozenset[Bits] | None = None) -> list:
        if kind == "flat":
            return self.flat(k)
        return self.steep(k, chosen) if kind == "steep" else self.full(k, chosen)

    def flat(self, j: int) -> list:
        memo = self.memo
        if ("flat", j) not in memo:
            if j == 2:
                memo["flat", j] = []
            elif j == 3:
                memo["flat", j] = [seed(QUAD)]
            else:
                memo["flat", j] = shift(self.full(j - 1), _TEN)
        return memo["flat", j]

    def alt_flat_4(self) -> list:
        # Spans the order-4 words other than 11001100; a path of five tuples.
        if "alt" not in self.memo:
            quad = seed(QUAD)
            self.memo["alt"] = [
                *wrap([quad], 6),
                seed(fan(_TEN)),
                *append([seed(fan())], _TEN, 6),
                *append([seed(BRIDGE)], _TEN, 6),
                *shift([quad], _TEN),
            ]
        return self.memo["alt"]

    def stage(self, i: int) -> list:
        # Stage i of a steep tree before its inner word is appended: the
        # connector fan((10)^(i-3)) and the flat and steep trees of order
        # i-1, wrapped once and shared by every inner word.
        if ("stage", i) not in self.memo:
            wrapped = wrap([*self.flat(i - 1), *self.steep(i - 1)], 2 * i - 2)
            self.memo["stage", i] = [seed(fan(_alternating(i - 3))), *wrapped]
        return self.memo["stage", i]

    def steep(self, j: int, chosen: frozenset[Bits] | None = None) -> list:
        if not chosen and ("steep", j) in self.memo:
            return self.memo["steep", j]
        if j in (2, 3):
            out = []
        elif j == 4:
            out = [
                seed(fan(_TEN)),
                seed(PATCH),
                *wrap([seed(BRIDGE)], 6),
                *append([seed(fan())], _TEN, 6),
            ]
        else:
            out = shift(self.full(j - 2), _1100)
            for i in range(3, j + 1):
                group = self.stage(i)
                alt = None
                if i == 5 and chosen:
                    alt = [seed(fan(_1100)), *wrap(self.alt_flat_4(), 8)]
                for v in enumerate_dyck(j - i):
                    out.extend(append(alt if alt and v in chosen else group, v, 2 * i))
        if not chosen:
            self.memo["steep", j] = out
        return out

    def full(self, j: int, chosen: frozenset[Bits] | None = None) -> list:
        if not chosen and ("full", j) in self.memo:
            return self.memo["full", j]
        if j == 3:
            out = [seed(fan()), seed(BRIDGE)]
        else:
            out = [
                *self.steep(j, chosen),
                *append([seed(BRIDGE)], _alternating(j - 3), 6),
                *shift(self.flat(j - 1), _TEN),
                *shift(self.steep(j - 1), _TEN),
            ]
        if not chosen:
            self.memo["full", j] = out
        return out


def _built(kind: str, k: int, chosen: frozenset[Bits] | None = None) -> SpanningTree:
    # The words come first: enumerating them refuses a k too large for memory.
    words = enumerate_dyck(k) if kind == "full" else getattr(partition(k), kind)
    return SpanningTree(words, tuple(_Recursion().tree(kind, k, chosen)), 2 * k)


def flat_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("flat tree defined for semilength >= 2")
    return _built("flat", k)


def steep_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("steep tree defined for semilength >= 2")
    return _built("steep", k)


def full_tree(k: int) -> SpanningTree:
    if k < 3:
        raise ValueError("full tree defined for semilength >= 3")
    return _built("full", k)


def tree_family(k: int) -> tuple[SpanningTree | None, SpanningTree, SpanningTree]:
    """(full, flat, steep) trees of one semilength; full is None for k == 2."""
    full = full_tree(k) if k >= 3 else None
    return full, flat_tree(k), steep_tree(k)


def mask_width(k: int) -> int:
    """Number of mask bits for the counting variant: Catalan(k - 5)."""
    if k < 6:
        raise ValueError("counting trees defined for semilength >= 6")
    return len(enumerate_dyck(k - 5))


def counting_tree(k: int, y_mask: int) -> SpanningTree:
    """The counting-variant tree selected by a bitmask over the inner words.

    Bit i of the mask switches the i-th Dyck word of semilength k-5 (in
    enumeration order) to the alternate stage-5 sub-construction.
    """
    words = enumerate_dyck(k - 5) if k >= 6 else None
    if words is None:
        raise ValueError("counting trees defined for semilength >= 6")
    if not 0 <= y_mask < (1 << len(words)):
        raise ValueError(f"mask {y_mask} outside 0..{(1 << len(words)) - 1}")
    chosen = frozenset(w for i, w in enumerate(words) if y_mask >> i & 1)
    return _built("full", k, chosen)


def validate_tree(t: SpanningTree) -> TreeReport:
    """Check the spanning-tree conditions, reporting every violation.

    (1) supports inside the base set, (2) pairwise support intersections of
    size at most one, (3) sum(|support| - 1) == |base| - 1, (4) connected
    incidence structure, (5) distinct marks on shared words. Given (3), the
    incidence structure (words plus tuples, joined by membership) has exactly
    |base| + #tuples - 1 edges, so (3) and (4) make it a tree; that both
    implies (2) and matches the recursive block-splitting definition of a
    spanning hypertree, since removing any tuple from a tree of incidences
    leaves one component per support word.

    The checks run on each entry's packed support; a word is keyed by its
    packed value with a stop bit above its last position, so words of
    different lengths never collide. Tuples and words are rendered only for
    a failure message, so a tree makes its derivations only when it fails.
    """

    def word(key: int) -> Bits:
        n = key.bit_length() - 1
        return Bits(key ^ 1 << n, n)

    base = [x.val | 1 << x.n for x in t.words]
    parent = dict(zip(base, base))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # One pass makes check (1), counts for (3), gathers the marked words of
    # (2) and (5), and joins the words of (4).
    failures: list[str] = []
    by_word: dict[int, list[tuple[int, int]]] = {}
    count = 0
    stop = 1 << t.n
    for idx, (_, _, members) in enumerate(t.packed):
        count += len(members) - 1
        outside = []
        root = None
        for val, mark in members:
            w = val | stop
            by_word.setdefault(w, []).append((idx, mark))
            if w not in parent:
                outside.append(w)
            elif root is None:
                root = find(w)
            else:
                parent[find(w)] = root
        if outside:
            failures.append(
                f"support of {t.entries[idx].tup} leaves the base set: {sorted(map(word, outside))}"
            )

    pair_shared: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for w, marked in by_word.items():
        for a in range(len(marked) - 1):
            for b in range(a + 1, len(marked)):
                (ia, ma), (ib, mb) = marked[a], marked[b]
                pair_shared.setdefault((ia, ib), []).append((w, ma == mb))
    failing = [p for p, shared in pair_shared.items() if len(shared) > 1 or shared[0][1]]
    for a, b in sorted(failing):
        shared = pair_shared[a, b]
        pair = f"tuples {t.entries[a].tup} and {t.entries[b].tup}"
        if len(shared) > 1:
            failures.append(f"{pair} share {len(shared)} words")
        else:
            failures.append(f"{pair} mark {word(shared[0][0])} identically")

    if count != len(base) - 1:
        failures.append(
            f"tuple-size accounting: sum(size - 1) = {count}, expected {len(base) - 1}"
        )

    roots = {find(x) for x in parent}
    if len(roots) > 1:
        failures.append(f"incidence structure has {len(roots)} components")

    return TreeReport(not failures, tuple(failures))
