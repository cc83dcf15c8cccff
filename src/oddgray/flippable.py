"""Flippable tuples, their witness cycles, and the moves that wrap them.

A marked Dyck word (x, m) names the edge of the factor path of x along which
bit m flips. A flippable tuple is an unordered set of three or four marked
words (distinct, same length) admitting a *witness*: a cycle of twice the
tuple size through the two middle layers that meets each named path in
exactly its named edge, every other edge hopping between two of the paths.
XOR-ing a witness into the cycle factor splices the named cycles into one.

Four seed tuples are hardcoded by their members: the parameterized family
``fan(w)`` (w an inner Dyck word) and the fixed ``BRIDGE``, ``PATCH`` and
``QUAD``. Every other tuple considered here arises by wrapping a seed in a
context (prefix u, suffix v with uv a Dyck word): an even-length prefix
wraps the seed itself, an odd-length prefix wraps its mirror image.

A tuple is carried as a packed entry (seed pattern, ((word value, mark),
...)), the support in the seed's member order; a word of length n packs
position i at bit i-1. Three moves wrap a tuple T:

  shift p (length |p|)     (x, m) -> (p x, m + |p|);
  wrap (words of length n) (x, m) -> (1 mirror(x) 0, n + 2 - m);
  append v                 (x, m) -> (x v, m).

Each move is a map on packed words of length n, with R_n the reversal of n
bits: val -> (R_n(val) if rev else val) << s ^ c, and on marks
m -> (n + 1 - m if rev else m) + s. Shift p has s = |p| and c = p; wrap has
rev, s = 1 and c = ones(n) << 1 | 1; append v has s = 0 and c = v << n.
Maps of this form compose (``compose``): under an outer map (rev', s', c')
from length N, the inner reversal flips if rev', the shift becomes
N - n - s + s' and the constant R_N(c) << s' ^ c', because
R_N(w << s) = R_n(w) << (N - n - s) for w of length n and R_N distributes
over XOR; marks compose alike. ``shifted``, ``wrapped`` and ``appended``
compose a move into a map, and ``leaf`` applies a map to a seed's members,
reversed once per pattern.

The moves carry a witness too (y -> ~p y, 1 mirror(y) 1 and y v) and keep
each of its vertices at its position in the cycle. So in every tuple
wrapped from a seed, member r's named edge, from index i = seq.index(m) to
i + 1 of the factor path of x, has its lower end at position a and its
upper end at b for the seed's ``Pattern.named_edges[r] = (a, b)``: the
support fixes the witness, and no entry carries one. The spanning recursion
passes composed maps down and makes each tree entry with ``leaf``.

The tuple model on ``Bits`` (marked words, tuples, contexts), the context
peel, the derivation search and the witness test live in ``checking``,
which generation never imports; ``Pattern.tuple()`` reads the seed there.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .words import Bits, EMPTY, is_dyck, reverse_val

# The seed literals, packed: per family, the length of its words, and in member
# order each member's word, its mark, and the witness positions of its named
# edge, lower end first. A binary literal shows position 1 as its last digit,
# so it reads as its word reversed: 0b000111 is 111000. The words of fan(w) are
# 1 w t for the tails t listed, of length 5, and its marks are the listed ones
# plus |w| + 1.
_SEEDS = {
    "fan": (5, ((0b01001, 1, (3, 2)), (0b00101, 5, (4, 5)), (0b00011, 4, (0, 1)))),
    "bridge": (6, ((0b010101, 1, (5, 4)), (0b001101, 5, (2, 3)), (0b000111, 6, (0, 1)))),
    "patch": (8, ((0b00110011, 2, (0, 1)), (0b00011011, 8, (5, 4)), (0b00010111, 6, (3, 2)))),
    "quad": (
        6,
        (
            (0b010101, 1, (7, 6)),
            (0b001101, 3, (5, 4)),
            (0b001011, 5, (2, 3)),
            (0b000111, 6, (0, 1)),
        ),
    ),
}
_FAMILIES = tuple(_SEEDS)
_NAMED_EDGES = {f: tuple(e for _, _, e in members) for f, (_, members) in _SEEDS.items()}


class Pattern(namedtuple("Pattern", "family inner")):
    """One of the four seed tuples; ``inner`` is the fan parameter (empty otherwise)."""

    __slots__ = ()

    def __new__(cls, family: str, inner: Bits = EMPTY) -> "Pattern":
        if family not in _FAMILIES:
            raise ValueError(f"unknown pattern family {family!r}")
        if family != "fan" and inner.n:
            raise ValueError(f"{family} takes no parameter")
        if family == "fan" and not is_dyck(inner):
            raise ValueError("fan parameter must be a Dyck word")
        return super().__new__(cls, family, inner)

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

    @property
    def named_edges(self) -> tuple[tuple[int, int], ...]:
        """Per member, in the seed's member order, the witness positions of its named edge's
        lower and upper ends."""
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


# A packed entry: (seed pattern, ((word value, mark), ...)).
PackedEntry = tuple[Pattern, tuple[tuple[int, int], ...]]


# A map (rev, s, c) on packed words.
Map = tuple[bool, int, int]
IDENTITY: Map = (False, 0, 0)


def compose(f: Map, n_out: int, n: int, rev: bool, s: int, c: int) -> Map:
    """f after the move (rev, s, c) from words of length n to words of length n_out."""
    frev, fs, fc = f
    if frev:
        s, c = n_out - n - s, reverse_val(c, n_out)
    return rev != frev, s + fs, c << fs ^ fc


def shifted(f: Map, p: Bits, n_out: int) -> Map:
    """f after shift p to length n_out: x -> p x."""
    return compose(f, n_out, n_out - p.n, False, p.n, p.val)


def wrapped(f: Map, n_out: int) -> Map:
    """f after wrap to length n_out: x -> 1 mirror(x) 0."""
    return compose(f, n_out, n_out - 2, True, 1, (1 << n_out - 1) - 1)


def appended(f: Map, v: Bits, n_out: int) -> Map:
    """f after append v to length n_out: x -> x v."""
    return compose(f, n_out, n_out - v.n, False, 0, v.val << n_out - v.n)


@cache
def _literals(pattern: Pattern, rev: bool) -> tuple[tuple[int, int], ...]:
    """The seed's members, packed, each reversed over the word length if rev."""
    head, hn = pattern._head()
    n = pattern.word_length
    xs = [(head | x << hn, m + hn) for x, m, _ in _SEEDS[pattern.family][1]]
    if rev:
        xs = [(reverse_val(x, n), n + 1 - m) for x, m in xs]
    return tuple(xs)


def leaf(pattern: Pattern, f: Map) -> PackedEntry:
    """The packed entry of the seed wrapped by f; ``leaf(pattern, IDENTITY)`` is the seed's own."""
    rev, s, c = f
    return pattern, tuple([(x << s ^ c, m + s) for x, m in _literals(pattern, rev)])


def __getattr__(name: str):
    # ``canonical_witness`` lives in ``checking``; its old import path still serves it.
    if name == "canonical_witness":
        from .checking import canonical_witness

        return canonical_witness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
