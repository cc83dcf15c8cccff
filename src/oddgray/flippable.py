"""Flippable tuples, their witness cycles, and the moves that wrap them.

A marked Dyck word (x, m) names the edge of the factor path of x along which
bit m flips. A flippable tuple is an unordered set of three or four marked
words (distinct, same length) admitting a *witness*: a cycle of twice the
tuple size through the two middle layers that meets each named path in
exactly its named edge, every other edge hopping between two of the paths.
XOR-ing a witness into the cycle factor splices the named cycles into one.

Four seed tuples are hardcoded with literal witnesses: the parameterized
family ``fan(w)`` (w an inner Dyck word) and the fixed ``BRIDGE``, ``PATCH``
and ``QUAD``. Every other tuple considered here arises by wrapping a seed in
a context (prefix u, suffix v with uv a Dyck word): an even-length prefix
wraps the seed itself, an odd-length prefix wraps its mirror image.

A tuple is carried as a packed entry (seed pattern, witness values,
((word value, mark), ...)), the support in the seed's member order; a word
of length n packs position i at bit i-1. ``seed`` makes a seed's entry from
the one table of seed literals, and three moves carry witness and support
together:

  shift p (length |p|)     witness y -> ~p y, support (x, m) -> (p x, m + |p|);
  wrap (words of length n) witness y -> 1 mirror(y) 1,
                           support (x, m) -> (1 mirror(x) 0, n + 2 - m);
  append v                 witness y -> y v, support (x, m) -> (x v, m).

Each move keeps every witness vertex at its position in the cycle, so the
positions of a seed's named edges (``Pattern.named_edges``) hold for every
tuple wrapped from it. The spanning recursion builds trees from these four
functions only.

The tuple model on ``Bits`` (marked words, tuples, contexts), the context
peel, the derivation search and the witness test live in ``checking``,
which generation never imports; ``Pattern.tuple()`` reads the seed there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Bits, EMPTY, is_dyck, mirror_val

# The seed literals, packed: per family, the length of its words, its witness,
# and in member order each member's word, its mark, and the witness positions
# of its named edge. A binary literal shows position 1 as its last digit, so it
# reads as its word reversed: 0b000111 is 111000. The words of fan(w) are 1 w t
# for the tails t listed, of length 5, and its marks are the listed ones plus
# |w| + 1.
_SEEDS = {
    "fan": (
        5,
        (0b10100, 0b11100, 0b01100, 0b01101, 0b00101, 0b10101),
        ((0b01001, 1, (3, 2)), (0b00101, 5, (4, 5)), (0b00011, 4, (0, 1))),
    ),
    "bridge": (
        6,
        (0b000111, 0b100111, 0b100110, 0b110110, 0b010110, 0b010111),
        ((0b010101, 1, (5, 4)), (0b001101, 5, (2, 3)), (0b000111, 6, (0, 1))),
    ),
    "patch": (
        8,
        (0b00111011, 0b00111001, 0b10111001, 0b10011001, 0b10011011, 0b00011011),
        ((0b00110011, 2, (0, 1)), (0b00011011, 8, (5, 4)), (0b00010111, 6, (3, 2))),
    ),
    "quad": (
        6,
        (0b000111, 0b100111, 0b100011, 0b110011, 0b110010, 0b110110, 0b010110, 0b010111),
        (
            (0b010101, 1, (7, 6)),
            (0b001101, 3, (5, 4)),
            (0b001011, 5, (2, 3)),
            (0b000111, 6, (0, 1)),
        ),
    ),
}
_FAMILIES = tuple(_SEEDS)
_NAMED_EDGES = {f: tuple(e for _, _, e in members) for f, (_, _, members) in _SEEDS.items()}


@dataclass(frozen=True)
class Pattern:
    """One of the four seed tuples; ``inner`` is the fan parameter (empty otherwise)."""

    family: str
    inner: Bits = EMPTY

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown pattern family {self.family!r}")
        if self.family != "fan" and self.inner.n:
            raise ValueError(f"{self.family} takes no parameter")
        if self.family == "fan" and not is_dyck(self.inner):
            raise ValueError("fan parameter must be a Dyck word")

    def _head(self) -> tuple[int, int]:
        """The packed prefix ahead of every listed literal, and its length: 1 w for fan(w)."""
        w = self.inner
        return (1 | w.val << 1, w.n + 1) if self.family == "fan" else (0, 0)

    @property
    def word_length(self) -> int:
        return _SEEDS[self.family][0] + self._head()[1]

    def tuple(self):
        """The seed as a ``checking.FlippableTuple``."""
        from .checking import seed_tuple

        return seed_tuple(self)

    def base_witness(self) -> tuple[Bits, ...]:
        n = self.word_length
        return tuple(Bits(y, n) for y in seed(self)[1])

    @property
    def named_edges(self) -> tuple[tuple[int, int], ...]:
        """Per member, in the seed's member order, the witness positions of its named edge."""
        return _NAMED_EDGES[self.family]

    def sort_key(self) -> tuple[int, str]:
        return _FAMILIES.index(self.family), str(self.inner)

    def __str__(self) -> str:
        return f"fan({self.inner})" if self.family == "fan" else self.family


def fan(inner: Bits = EMPTY) -> Pattern:
    return Pattern("fan", inner)


BRIDGE = Pattern("bridge")
PATCH = Pattern("patch")
QUAD = Pattern("quad")


# A packed entry: (seed pattern, witness vertex values, ((word value, mark), ...)).
PackedEntry = tuple[Pattern, tuple[int, ...], tuple[tuple[int, int], ...]]


def seed(pattern: Pattern) -> PackedEntry:
    """The seed's packed entry: its literal witness and its members, in the empty context."""
    _, witness, members = _SEEDS[pattern.family]
    head, hn = pattern._head()
    return (
        pattern,
        tuple([head | y << hn for y in witness]),
        tuple([(head | x << hn, m + hn) for x, m, _ in members]),
    )


def shift(entries: list[PackedEntry], p: Bits) -> list[PackedEntry]:
    """p T for an even Dyck word p: witness y -> ~p y, support (x, m) -> (p x, m + |p|)."""
    pv, pn = p.val, p.n
    low = pv ^ (1 << pn) - 1
    return [
        (pat, tuple([low | y << pn for y in ws]), tuple([(pv | x << pn, m + pn) for x, m in ss]))
        for pat, ws, ss in entries
    ]


def wrap(entries: list[PackedEntry], n: int) -> list[PackedEntry]:
    """1 mirror(T) 0 over words of length n.

    Witness y -> 1 mirror(y) 1, support (x, m) -> (1 mirror(x) 0, n + 2 - m).
    """
    ends = 1 | 1 << (n + 1)
    return [
        (
            pat,
            tuple([mirror_val(y, n) << 1 | ends for y in ws]),
            tuple([(mirror_val(x, n) << 1 | 1, n + 2 - m) for x, m in ss]),
        )
        for pat, ws, ss in entries
    ]


def append(entries: list[PackedEntry], v: Bits, n: int) -> list[PackedEntry]:
    """T v over words of length n: witness y -> y v, support (x, m) -> (x v, m)."""
    high = v.val << n
    return [
        (pat, tuple([y | high for y in ws]), tuple([(x | high, m) for x, m in ss]))
        for pat, ws, ss in entries
    ]


def __getattr__(name: str):
    # ``canonical_witness`` lives in ``checking``; its old import path still serves it.
    if name == "canonical_witness":
        from .checking import canonical_witness

        return canonical_witness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
