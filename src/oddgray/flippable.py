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
of length n packs position i at bit i-1. Three moves wrap a tuple T:

  shift p (length |p|)     witness y -> ~p y, support (x, m) -> (p x, m + |p|);
  wrap (words of length n) witness y -> 1 mirror(y) 1,
                           support (x, m) -> (1 mirror(x) 0, n + 2 - m);
  append v                 witness y -> y v, support (x, m) -> (x v, m).

Each move is a map on packed words of length n, with R_n the reversal of n
bits: val -> (R_n(val) if rev else val) << s ^ c, and on marks
m -> (n + 1 - m if rev else m) + s. Shift p has s = |p| and c = ~p on
witnesses, p on supports; wrap has rev, s = 1 and c = ones(n) << 1 | 1,
with 1 << (n + 1) added on witnesses; append v has s = 0 and c = v << n.
Maps of this form compose (``compose``): under an outer map (rev', s', c')
from length N, the inner reversal flips if rev', the shift becomes
N - n - s + s' and the constant R_N(c) << s' ^ c', because
R_N(w << s) = R_n(w) << (N - n - s) for w of length n and R_N distributes
over XOR; marks compose alike. ``shifted``, ``wrapped`` and ``appended``
compose a move into a map, and ``leaf`` applies a map to a seed's
literals, reversed once per pattern.

Each move keeps every witness vertex at its position in the cycle, so the
positions of a seed's named edges (``Pattern.named_edges``) hold for every
tuple wrapped from it. The spanning recursion passes composed maps down and
makes each tree entry with ``leaf``.

The tuple model on ``Bits`` (marked words, tuples, contexts), the context
peel, the derivation search and the witness test live in ``checking``,
which generation never imports; ``Pattern.tuple()`` reads the seed there.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .words import Bits, EMPTY, is_dyck, reverse_val

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


# A map (rev, s, cw, cx) on packed words, cw for witness vertices and cx for support words.
Map = tuple[bool, int, int, int]
IDENTITY: Map = (False, 0, 0, 0)


def compose(f: Map, n_out: int, n: int, rev: bool, s: int, cw: int, cx: int) -> Map:
    """f after the move (rev, s, cw, cx) from words of length n to words of length n_out."""
    frev, fs, fcw, fcx = f
    if frev:
        s = n_out - n - s
        cw, cx = reverse_val(cw, n_out), reverse_val(cx, n_out)
    return rev != frev, s + fs, cw << fs ^ fcw, cx << fs ^ fcx


def shifted(f: Map, p: Bits, n_out: int) -> Map:
    """f after shift p to length n_out: witness y -> ~p y, support x -> p x."""
    return compose(f, n_out, n_out - p.n, False, p.n, p.val ^ (1 << p.n) - 1, p.val)


def wrapped(f: Map, n_out: int) -> Map:
    """f after wrap to length n_out: witness y -> 1 mirror(y) 1, support x -> 1 mirror(x) 0."""
    ends = (1 << n_out - 1) - 1
    return compose(f, n_out, n_out - 2, True, 1, ends | 1 << n_out - 1, ends)


def appended(f: Map, v: Bits, n_out: int) -> Map:
    """f after append v to length n_out: witness y -> y v, support x -> x v."""
    n = n_out - v.n
    return compose(f, n_out, n, False, 0, v.val << n, v.val << n)


@cache
def _literals(pattern: Pattern, rev: bool) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The seed's witness and members, packed, each reversed over the word length if rev."""
    _, witness, members = _SEEDS[pattern.family]
    head, hn = pattern._head()
    n = pattern.word_length
    ys = [head | y << hn for y in witness]
    xs = [(head | x << hn, m + hn) for x, m, _ in members]
    if rev:
        ys = [reverse_val(y, n) for y in ys]
        xs = [(reverse_val(x, n), n + 1 - m) for x, m in xs]
    return tuple(ys), tuple(xs)


def leaf(pattern: Pattern, f: Map) -> PackedEntry:
    """The packed entry of the seed wrapped by f; ``leaf(pattern, IDENTITY)`` is the seed's own."""
    rev, s, cw, cx = f
    ys, xs = _literals(pattern, rev)
    return pattern, tuple([y << s ^ cw for y in ys]), tuple([(x << s ^ cx, m + s) for x, m in xs])


def __getattr__(name: str):
    # ``canonical_witness`` lives in ``checking``; its old import path still serves it.
    if name == "canonical_witness":
        from .checking import canonical_witness

        return canonical_witness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
