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

Each entry is its derivation (seed pattern plus context); tuples are computed
on demand, and witnesses are reproducible without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .flippable import (
    BRIDGE,
    Context,
    Derivation,
    FlippableTuple,
    PATCH,
    QUAD,
    fan,
)
from .words import Bits, EMPTY, ONE, ZERO, cat, enumerate_dyck, mirror


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


@dataclass(frozen=True)
class SpanningTree:
    base: frozenset[Bits]
    entries: tuple[TreeEntry, ...]

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


def _entry(pattern, prefix: Bits, suffix: Bits) -> TreeEntry:
    return TreeEntry(Derivation(pattern, Context(prefix, suffix)))


def _shift(entries: tuple[TreeEntry, ...], pre: Bits) -> list[TreeEntry]:
    # Prepend an even-length Dyck prefix; derivations keep their parity.
    out = []
    for e in entries:
        c = e.derivation.context
        out.append(_entry(e.derivation.pattern, pre + c.prefix, c.suffix))
    return out


def _mirror_wrap(entries: tuple[TreeEntry, ...], suffix: Bits) -> list[TreeEntry]:
    # Send each tuple t to 1 mirror(t) 0 suffix, rewriting the derivation.
    out = []
    for e in entries:
        c = e.derivation.context
        prefix = ONE + mirror(c.suffix)
        out.append(_entry(e.derivation.pattern, prefix, cat(mirror(c.prefix), ZERO, suffix)))
    return out


@lru_cache(maxsize=None)
def _flat_entries(k: int) -> tuple[TreeEntry, ...]:
    if k == 2:
        return ()
    if k == 3:
        return (_entry(QUAD, EMPTY, EMPTY),)
    return tuple(_shift(_full_entries(k - 1), _TEN))


@lru_cache(maxsize=None)
def _alt_flat_entries_4() -> tuple[TreeEntry, ...]:
    # Spans the order-4 words other than 11001100; a path of five tuples.
    return (
        _entry(QUAD, ONE, ZERO),
        _entry(fan(_TEN), EMPTY, EMPTY),
        _entry(fan(), EMPTY, _TEN),
        _entry(BRIDGE, EMPTY, _TEN),
        _entry(QUAD, _TEN, EMPTY),
    )


def _steep_entries_impl(k: int, chosen: frozenset[Bits] | None) -> tuple[TreeEntry, ...]:
    if k in (2, 3):
        return ()
    if k == 4:
        return (
            _entry(fan(_TEN), EMPTY, EMPTY),
            _entry(PATCH, EMPTY, EMPTY),
            _entry(BRIDGE, ONE, ZERO),
            _entry(fan(), EMPTY, _TEN),
        )
    entries = _shift(_full_entries(k - 2), Bits.parse("1100"))
    for j in range(3, k + 1):
        for v in enumerate_dyck(k - j):
            if j == 5 and chosen is not None and v in chosen:
                entries.append(_entry(fan(Bits.parse("1100")), EMPTY, v))
                entries.extend(_mirror_wrap(_alt_flat_entries_4(), v))
            else:
                entries.append(_entry(fan(_alternating(j - 3)), EMPTY, v))
                entries.extend(_mirror_wrap(_flat_entries(j - 1), v))
                entries.extend(_mirror_wrap(_steep_entries(j - 1), v))
    return tuple(entries)


@lru_cache(maxsize=None)
def _steep_entries(k: int) -> tuple[TreeEntry, ...]:
    return _steep_entries_impl(k, None)


def _full_entries_impl(k: int, chosen: frozenset[Bits] | None) -> tuple[TreeEntry, ...]:
    if k == 3:
        return (_entry(fan(), EMPTY, EMPTY), _entry(BRIDGE, EMPTY, EMPTY))
    steep = _steep_entries(k) if chosen is None else _steep_entries_impl(k, chosen)
    entries = list(steep)
    entries.append(_entry(BRIDGE, EMPTY, _alternating(k - 3)))
    entries.extend(_shift(_flat_entries(k - 1), _TEN))
    entries.extend(_shift(_steep_entries(k - 1), _TEN))
    return tuple(entries)


@lru_cache(maxsize=None)
def _full_entries(k: int) -> tuple[TreeEntry, ...]:
    return _full_entries_impl(k, None)


def flat_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("flat tree defined for semilength >= 2")
    return SpanningTree(partition(k).flat, _flat_entries(k))


def steep_tree(k: int) -> SpanningTree:
    if k < 2:
        raise ValueError("steep tree defined for semilength >= 2")
    return SpanningTree(partition(k).steep, _steep_entries(k))


def full_tree(k: int) -> SpanningTree:
    if k < 3:
        raise ValueError("full tree defined for semilength >= 3")
    return SpanningTree(frozenset(enumerate_dyck(k)), _full_entries(k))


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
    return SpanningTree(frozenset(enumerate_dyck(k)), _full_entries_impl(k, chosen))


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

    The checks run on each entry's packed support (``Derivation.support_vals``);
    a word is keyed by its packed value with a stop bit above its last
    position, so words of different lengths never collide. Tuples and words
    are rendered only for a failure message.
    """

    def word(key: int) -> Bits:
        n = key.bit_length() - 1
        return Bits(key ^ 1 << n, n)

    entries = t.entries
    base = [x.val | 1 << x.n for x in t.base]
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
    for idx, e in enumerate(entries):
        members, n = e.derivation.support_vals()
        stop = 1 << n
        count += len(members) - 1
        inside, outside = [], []
        for val, mark in members:
            w = val | stop
            by_word.setdefault(w, []).append((idx, mark))
            (inside if w in parent else outside).append(w)
        if outside:
            failures.append(
                f"support of {e.tup} leaves the base set: {sorted(map(word, outside))}"
            )
        for other in inside[1:]:
            ra, rb = find(inside[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    pair_shared: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for w, marked in by_word.items():
        for a in range(len(marked)):
            for b in range(a + 1, len(marked)):
                (ia, ma), (ib, mb) = marked[a], marked[b]
                pair_shared.setdefault((ia, ib), []).append((w, ma == mb))
    for (a, b), shared in sorted(pair_shared.items()):
        if len(shared) > 1:
            failures.append(
                f"tuples {entries[a].tup} and {entries[b].tup} share {len(shared)} words"
            )
        else:
            ((w, same),) = shared
            if same:
                failures.append(
                    f"tuples {entries[a].tup} and {entries[b].tup} mark {word(w)} identically"
                )

    if count != len(t.base) - 1:
        failures.append(
            f"tuple-size accounting: sum(size - 1) = {count}, expected {len(t.base) - 1}"
        )

    roots = {find(x) for x in parent}
    if len(roots) > 1:
        failures.append(f"incidence structure has {len(roots)} components")

    return TreeReport(not failures, tuple(failures))
