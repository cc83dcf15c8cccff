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

One recursion (``_Recursion``) makes every tree, from four moves on lists of
entries: a seed, a shift p T behind an even Dyck word p, a wrap 1 mirror(T) 0,
and an append T v. It makes two kinds of entry.

Generation reads packed entries, (family, witness values, support), where the
support is ((word value, mark), ...) in the seed's member order; a word of
length n packs position i at bit i-1. Each seed starts from its literal
witness, and each move carries witness and support by a law, so no context
is ever peeled:

  shift p (length |p|)    witness y -> ~p y, support (x, m) -> (p x, m + |p|);
  wrap (words of length n) witness y -> 1 mirror(y) 1,
                           support (x, m) -> (1 mirror(x) 0, n + 2 - m);
  append v                 witness y -> y v, support (x, m) -> (x v, m).

A steep tree's stage j wraps the flat and steep trees of order j-1 once, and
then appends each inner word v to the wrapped list. The carried values equal
what ``Derivation.witness_vals`` and ``Derivation.support_vals`` peel from
each entry's derivation (a tested property), and a memo local to one build
keeps the shared subtrees, so nothing outlives the build but the tree.

``SpanningTree.entries``, the derivations (``TreeEntry``) that the ``tree``
command, the verifiers and perfbench read, come from the same recursion with
moves that rewrite each context, made on first read. A tree made by hand
from derivations gets its packed entries by peeling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .flippable import (
    BRIDGE,
    Context,
    Derivation,
    FlippableTuple,
    PATCH,
    Pattern,
    QUAD,
    fan,
)
from .words import Bits, EMPTY, ONE, ZERO, enumerate_dyck, mirror, mirror_val


@dataclass(frozen=True)
class Partition:
    """The flat/steep split of the Dyck words of one semilength."""

    k: int
    flat: frozenset[Bits]
    steep: frozenset[Bits]


@dataclass(frozen=True)
class TreeEntry:
    """A tree tuple held as its derivation; a class still, as perfbench reads ``e.tup``."""

    derivation: Derivation

    @property
    def tup(self) -> FlippableTuple:
        return self.derivation.tuple()


# A packed tree entry: (family, witness vertex values, ((word value, mark), ...)).
PackedEntry = tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]]


class SpanningTree:
    """Tree tuples over a base set of Dyck words, as derivations and as packed entries.

    ``SpanningTree(base, entries)`` is a tree made by hand; its ``packed``
    entries peel each derivation on first read. ``full_tree``, ``flat_tree``,
    ``steep_tree`` and ``counting_tree`` build ``packed`` by the recursion and
    make ``base`` and ``entries`` on first read.
    """

    _recipe: tuple[str, int, frozenset[Bits] | None] | None = None

    def __init__(self, base: frozenset[Bits], entries: tuple[TreeEntry, ...]) -> None:
        self.base = self._words = base
        self.entries = entries

    @classmethod
    def _built(cls, kind: str, k: int, chosen: frozenset[Bits] | None = None) -> "SpanningTree":
        t = cls.__new__(cls)
        t._recipe = kind, k, chosen
        t._words = enumerate_dyck(k) if kind == "full" else getattr(partition(k), kind)
        t.packed = tuple(_PackedRecursion().tree(kind, k, chosen))
        return t

    @cached_property
    def base(self) -> frozenset[Bits]:
        return frozenset(self._words)

    @cached_property
    def entries(self) -> tuple[TreeEntry, ...]:
        return tuple(_DerivedRecursion().tree(*self._recipe))

    @cached_property
    def packed(self) -> tuple[PackedEntry, ...]:
        return tuple(
            (d.pattern.family, d.witness_vals(), d.support_vals()[0])
            for d in (e.derivation for e in self.entries)
        )

    def support_vals(self) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
        """Each entry's packed support with its word length, as ``Derivation.support_vals``."""
        if self._recipe:
            n = 2 * self._recipe[1]
            return ((support, n) for _, _, support in self.packed)
        return (e.derivation.support_vals() for e in self.entries)

    def spans_dyck(self, k: int) -> bool:
        """Whether the base set is every Dyck word of semilength k."""
        words = enumerate_dyck(k)
        return self._words is words or self.base == frozenset(words)

    def tuple_set(self) -> frozenset[FlippableTuple]:
        return frozenset(e.tup for e in self.entries)

    def to_json(self) -> dict:
        pairs = sorted(((e.tup, e.derivation) for e in self.entries), key=lambda p: p[0])
        return {
            "base": sorted(str(x) for x in self.base),
            "tuples": [{**t.to_json(), "derivation": d.to_json()} for t, d in pairs],
        }


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
    """The flat, steep and full trees of the construction, as lists of entries.

    The recursion makes four moves on a list of entries of word length n,
    which a subclass gives for its kind of entry:

      seed(pattern)          the seed tuple in the empty context;
      shift(entries, p)      p T, for an even Dyck word p;
      wrap(entries, n)       1 mirror(T) 0;
      append(entries, v, n)  T v, for a Dyck word v.

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
                memo["flat", j] = [self.seed(QUAD)]
            else:
                memo["flat", j] = self.shift(self.full(j - 1), _TEN)
        return memo["flat", j]

    def alt_flat_4(self) -> list:
        # Spans the order-4 words other than 11001100; a path of five tuples.
        if "alt" not in self.memo:
            seed, quad = self.seed, self.seed(QUAD)
            self.memo["alt"] = [
                *self.wrap([quad], 6),
                seed(fan(_TEN)),
                *self.append([seed(fan())], _TEN, 6),
                *self.append([seed(BRIDGE)], _TEN, 6),
                *self.shift([quad], _TEN),
            ]
        return self.memo["alt"]

    def stage(self, i: int) -> list:
        # Stage i of a steep tree before its inner word is appended: the
        # connector fan((10)^(i-3)) and the flat and steep trees of order
        # i-1, wrapped once and shared by every inner word.
        if ("stage", i) not in self.memo:
            wrapped = self.wrap([*self.flat(i - 1), *self.steep(i - 1)], 2 * i - 2)
            self.memo["stage", i] = [self.seed(fan(_alternating(i - 3))), *wrapped]
        return self.memo["stage", i]

    def steep(self, j: int, chosen: frozenset[Bits] | None = None) -> list:
        if not chosen and ("steep", j) in self.memo:
            return self.memo["steep", j]
        seed = self.seed
        if j in (2, 3):
            out = []
        elif j == 4:
            out = [
                seed(fan(_TEN)),
                seed(PATCH),
                *self.wrap([seed(BRIDGE)], 6),
                *self.append([seed(fan())], _TEN, 6),
            ]
        else:
            out = self.shift(self.full(j - 2), _1100)
            for i in range(3, j + 1):
                group = self.stage(i)
                alt = None
                if i == 5 and chosen:
                    alt = [seed(fan(_1100)), *self.wrap(self.alt_flat_4(), 8)]
                for v in enumerate_dyck(j - i):
                    out.extend(self.append(alt if alt and v in chosen else group, v, 2 * i))
        if not chosen:
            self.memo["steep", j] = out
        return out

    def full(self, j: int, chosen: frozenset[Bits] | None = None) -> list:
        if not chosen and ("full", j) in self.memo:
            return self.memo["full", j]
        if j == 3:
            out = [self.seed(fan()), self.seed(BRIDGE)]
        else:
            out = [
                *self.steep(j, chosen),
                *self.append([self.seed(BRIDGE)], _alternating(j - 3), 6),
                *self.shift(self.flat(j - 1), _TEN),
                *self.shift(self.steep(j - 1), _TEN),
            ]
        if not chosen:
            self.memo["full", j] = out
        return out


def _entry(pattern: Pattern, prefix: Bits, suffix: Bits) -> TreeEntry:
    return TreeEntry(Derivation(pattern, Context(prefix, suffix)))


def _contexts(entries: list[TreeEntry]) -> Iterator[tuple[Pattern, Bits, Bits]]:
    for e in entries:
        d = e.derivation
        yield d.pattern, d.context.prefix, d.context.suffix


class _DerivedRecursion(_Recursion):
    """Entries as derivations: each move rewrites the context."""

    @staticmethod
    def seed(pattern: Pattern) -> TreeEntry:
        return _entry(pattern, EMPTY, EMPTY)

    @staticmethod
    def shift(entries: list[TreeEntry], p: Bits) -> list[TreeEntry]:
        return [_entry(t, p + u, v) for t, u, v in _contexts(entries)]

    @staticmethod
    def wrap(entries: list[TreeEntry], n: int) -> list[TreeEntry]:
        return [_entry(t, ONE + mirror(v), mirror(u) + ZERO) for t, u, v in _contexts(entries)]

    @staticmethod
    def append(entries: list[TreeEntry], w: Bits, n: int) -> list[TreeEntry]:
        return [_entry(t, u, v + w) for t, u, v in _contexts(entries)]


class _PackedRecursion(_Recursion):
    """Entries packed as (family, witness values, support): the moves are carry laws."""

    @staticmethod
    def seed(pattern: Pattern) -> PackedEntry:
        witness = tuple(y.val for y in pattern.base_witness())
        return pattern.family, witness, tuple((m.word.val, m.mark) for m in pattern.tuple().members)

    @staticmethod
    def shift(entries: list[PackedEntry], p: Bits) -> list[PackedEntry]:
        # witness y -> ~p y, support (x, m) -> (p x, m + |p|)
        pv, pn = p.val, p.n
        low = pv ^ (1 << pn) - 1
        return [
            (f, tuple([low | y << pn for y in ws]), tuple([(pv | x << pn, m + pn) for x, m in ss]))
            for f, ws, ss in entries
        ]

    @staticmethod
    def wrap(entries: list[PackedEntry], n: int) -> list[PackedEntry]:
        # witness y -> 1 mirror(y) 1, support (x, m) -> (1 mirror(x) 0, n + 2 - m)
        ends = 1 | 1 << (n + 1)
        return [
            (
                f,
                tuple([mirror_val(y, n) << 1 | ends for y in ws]),
                tuple([(mirror_val(x, n) << 1 | 1, n + 2 - m) for x, m in ss]),
            )
            for f, ws, ss in entries
        ]

    @staticmethod
    def append(entries: list[PackedEntry], v: Bits, n: int) -> list[PackedEntry]:
        # witness y -> y v, support (x, m) -> (x v, m)
        high = v.val << n
        return [
            (f, tuple([y | high for y in ws]), tuple([(x | high, m) for x, m in ss]))
            for f, ws, ss in entries
        ]


def flat_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("flat tree defined for semilength >= 2")
    return SpanningTree._built("flat", k)


def steep_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("steep tree defined for semilength >= 2")
    return SpanningTree._built("steep", k)


def full_tree(k: int) -> SpanningTree:
    if k < 3:
        raise ValueError("full tree defined for semilength >= 3")
    return SpanningTree._built("full", k)


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
    return SpanningTree._built("full", k, chosen)


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

    The checks run on each entry's packed support (``SpanningTree.support_vals``:
    the carried supports of a built tree, ``Derivation.support_vals`` of a
    tree made by hand); a word is keyed by its packed value with a stop bit
    above its last position, so words of different lengths never collide.
    Tuples and words are rendered only for a failure message, so a built
    tree makes its derivations only when it fails.
    """

    def word(key: int) -> Bits:
        n = key.bit_length() - 1
        return Bits(key ^ 1 << n, n)

    base = [x.val | 1 << x.n for x in t._words]
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
    for idx, (members, n) in enumerate(t.support_vals()):
        stop = 1 << n
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
