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
k = 3 split irregularly as the singleton {110010} versus the other four
(``checking.partition``). Trees are then built by mutual induction:

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

Four generator functions make every tree: ``full``, ``flat`` and ``steep``
of order j, and ``alt_flat_4``, the alternate order-4 block. Each takes a
map (``flippable.Map``) that wraps every entry it makes, and yields packed
entries (``flippable.PackedEntry``: seed pattern and support, which fixes
the witness) in tree order. A subtree placed behind a shift, a wrap or an
append is made by calling its generator with that move composed into the
map, and a leaf applies the composed map to its seed's members
(``flippable.leaf``), so no context is ever peeled and no subtree is held:
a steep tree's stage j makes the flat and steep trees of order j-1 again
for every inner word v.

Generation builds only ``full_tree`` and ``counting_tree``; the flat and
steep trees on their own and ``validate_tree`` serve the checks, in
``checking``.

A tree is its words, its packed entries and its word length, however it
was made. Its derivations are read back from the packed supports by
``checking``, which generation never loads, as ``SpanningTree.entries``
for the ``tree`` command, the verifiers and perfbench; a failure text names
an entry by its members alone. Reading them runs no recursion, and the
tests check that peeling each one gives its packed entry back. ``checking.hand_tree`` makes a tree by hand by peeling.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Iterator

from .flippable import BRIDGE, IDENTITY, PATCH, QUAD, Map, PackedEntry, Pattern, fan, leaf
from .flippable import appended, shifted, wrapped
from .words import Bits, enumerate_dyck


class SpanningTree:
    """Tree tuples as packed entries over a base set of words, the entries' words of length n.

    ``full_tree``, ``counting_tree`` and ``checking``'s ``flat_tree`` and
    ``steep_tree`` make one from the generators' entries; ``base`` and the
    derivations ``entries`` are read back on first read.
    """

    def __init__(self, words, packed: tuple[PackedEntry, ...], n: int) -> None:
        self.words, self.packed, self.n = words, packed, n

    @cached_property
    def base(self) -> frozenset[Bits]:
        return frozenset(self.words)

    @cached_property
    def entries(self) -> tuple:
        """Every entry as a ``checking.TreeEntry``, its derivation read back from its support."""
        from .checking import Derivation, TreeEntry

        return tuple(TreeEntry(Derivation.of_support(p, s, self.n)) for p, s in self.packed)


_TEN = Bits.parse("10")
_1100 = Bits.parse("1100")
_FAN, _FAN_10, _FAN_1100 = fan(), fan(_TEN), fan(_1100)


@cache
def _connector(i: int) -> Pattern:
    """fan((10)^(i-3)), stage i's connector; one object serves every entry that uses it."""
    return fan(Bits.parse("10" * (i - 3)))


def flat(j: int, f: Map) -> Iterator[PackedEntry]:
    """The flat tree of order j, each entry wrapped by f."""
    if j == 3:
        yield leaf(QUAD, f)
    elif j > 3:
        yield from full(j - 1, shifted(f, _TEN, 2 * j))


def alt_flat_4(f: Map) -> Iterator[PackedEntry]:
    """The order-4 words other than 11001100, spanned by a path of five tuples."""
    yield leaf(QUAD, wrapped(f, 8))
    yield leaf(_FAN_10, f)
    yield leaf(_FAN, appended(f, _TEN, 8))
    yield leaf(BRIDGE, appended(f, _TEN, 8))
    yield leaf(QUAD, shifted(f, _TEN, 8))


def steep(j: int, f: Map, chosen: frozenset[Bits] = frozenset()) -> Iterator[PackedEntry]:
    """The steep tree of order j, each entry wrapped by f; ``chosen`` switches stage 5."""
    n = 2 * j
    if j == 4:
        yield leaf(_FAN_10, f)
        yield leaf(PATCH, f)
        yield leaf(BRIDGE, wrapped(f, 8))
        yield leaf(_FAN, appended(f, _TEN, 8))
    elif j > 4:
        yield from full(j - 2, shifted(f, _1100, n))
        for i in range(3, j + 1):
            connector = _connector(i)
            for v in enumerate_dyck(j - i):
                g = appended(f, v, n)
                if chosen and i == 5 and v in chosen:
                    yield leaf(_FAN_1100, g)
                    yield from alt_flat_4(wrapped(g, 10))
                else:
                    yield leaf(connector, g)
                    g = wrapped(g, 2 * i)
                    yield from flat(i - 1, g)
                    yield from steep(i - 1, g)


def full(j: int, f: Map, chosen: frozenset[Bits] = frozenset()) -> Iterator[PackedEntry]:
    """The full tree of order j, each entry wrapped by f; ``chosen`` switches stage 5."""
    if j == 3:
        yield leaf(_FAN, f)
        yield leaf(BRIDGE, f)
    else:
        n = 2 * j
        yield from steep(j, f, chosen)
        yield leaf(BRIDGE, appended(f, Bits.parse("10" * (j - 3)), n))
        yield from flat(j - 1, shifted(f, _TEN, n))
        yield from steep(j - 1, shifted(f, _TEN, n))


def full_tree(k: int) -> SpanningTree:
    if k < 3:
        raise ValueError("full tree defined for semilength >= 3")
    # The words come first: enumerating them refuses a k too large for memory.
    return SpanningTree(enumerate_dyck(k), tuple(full(k, IDENTITY)), 2 * k)


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
    if not 0 <= y_mask < (1 << mask_width(k)):
        raise ValueError(f"mask {y_mask} outside 0..{(1 << mask_width(k)) - 1}")
    chosen = frozenset(w for i, w in enumerate(enumerate_dyck(k - 5)) if y_mask >> i & 1)
    return SpanningTree(enumerate_dyck(k), tuple(full(k, IDENTITY, chosen)), 2 * k)


def __getattr__(name: str):
    # ``validate_tree`` lives in ``checking``; its old import path still serves it.
    if name == "validate_tree":
        from .checking import validate_tree

        return validate_tree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
