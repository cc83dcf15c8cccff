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
its literal witness, and three moves carry witness and support together:

  shift p (length |p|)     witness y -> ~p y, support (x, m) -> (p x, m + |p|);
  wrap (words of length n) witness y -> 1 mirror(y) 1,
                           support (x, m) -> (1 mirror(x) 0, n + 2 - m);
  append v                 witness y -> y v, support (x, m) -> (x v, m).

Each move keeps every witness vertex at its position in the cycle, so the
positions of a seed's named edges (``Pattern.named_edges``) hold for every
tuple wrapped from it. The spanning recursion builds trees from these four
functions only. A context peel reduces an arbitrary context to them,
repeatedly resolving where the prefix's leading 1 closes (the total context
length shrinks each round, so the peel terminates); ``witness_vals`` and
``support_vals`` read its result. ``Derivation.of_support`` inverts
``support_vals``: it reads the context back from a packed support.

The rest of the module is the checking side, which searches instead of
deriving: ``derivations`` finds every (pattern, context) pair reproducing a
tuple, ``canonical_witness`` takes the witness of the least one,
``is_witness`` tests a cycle against a tuple through ``factor.locate``, and
``enumerate_tuples(k)`` is the full pool of wrapped seeds on semilength k.
The pool is conflict-free: two pool members whose supports share exactly one
word always mark that word at different positions, which is what lets all
their witnesses be applied simultaneously. Every pool tuple has exactly one
derivation, so a tree entry's derivation gives the canonical witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from . import factor
from .words import (
    Bits,
    EMPTY,
    ONE,
    cat,
    enumerate_dyck,
    first_return_val,
    is_dyck,
    mirror,
    mirror_val,
)

_FAMILIES = ("fan", "bridge", "patch", "quad")


@dataclass(frozen=True)
class MarkedWord:
    """A Dyck word with one marked position."""

    word: Bits
    mark: int

    def __post_init__(self) -> None:
        if not 1 <= self.mark <= self.word.n:
            raise ValueError(f"mark {self.mark} outside 1..{self.word.n}")

    def _key(self) -> tuple[Bits, int]:
        return self.word, self.mark

    def __lt__(self, other: "MarkedWord") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        s = str(self.word)
        return s[: self.mark - 1] + "[" + s[self.mark - 1] + "]" + s[self.mark :]


def wrap_marked(m: MarkedWord, u: Bits, v: Bits) -> MarkedWord:
    """u (x, mark) v = (u x v, |u| + mark); requires uv Dyck."""
    if not is_dyck(u + v):
        raise ValueError(f"context {u!r}, {v!r} does not concatenate to a Dyck word")
    return MarkedWord(cat(u, m.word, v), u.n + m.mark)


def mirror_marked(m: MarkedWord) -> MarkedWord:
    return MarkedWord(mirror(m.word), m.word.n + 1 - m.mark)


@dataclass(frozen=True)
class FlippableTuple:
    """Canonical form: members sorted by (word, mark), words pairwise distinct."""

    members: tuple[MarkedWord, ...]

    @staticmethod
    def of(members: Iterable[MarkedWord]) -> "FlippableTuple":
        ms = tuple(sorted(members, key=MarkedWord._key))
        if len(ms) < 3:
            raise ValueError("a flippable tuple has at least three members")
        words = [m.word for m in ms]
        if len(set(words)) != len(words):
            raise ValueError("member words must be pairwise distinct")
        if len({w.n for w in words}) != 1:
            raise ValueError("member words must share one length")
        return FlippableTuple(ms)

    @property
    def support(self) -> frozenset[Bits]:
        return frozenset(m.word for m in self.members)

    @property
    def word_length(self) -> int:
        return self.members[0].word.n

    def mark_of(self, word: Bits) -> int:
        for m in self.members:
            if m.word == word:
                return m.mark
        raise KeyError(f"{word!r} not in support")

    def __lt__(self, other: "FlippableTuple") -> bool:
        return tuple(m._key() for m in self.members) < tuple(m._key() for m in other.members)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"

    def to_json(self) -> dict:
        return {"members": [{"word": str(m.word), "mark": m.mark} for m in self.members]}


def mirror_tuple(t: FlippableTuple) -> FlippableTuple:
    return FlippableTuple.of(mirror_marked(m) for m in t.members)


@dataclass(frozen=True)
class Context:
    """A wrapping context: prefix and suffix whose concatenation is a Dyck word."""

    prefix: Bits = EMPTY
    suffix: Bits = EMPTY

    def __post_init__(self) -> None:
        if not is_dyck(self.prefix + self.suffix):
            raise ValueError(
                f"context {self.prefix!r}, {self.suffix!r} does not concatenate to a Dyck word"
            )


def apply_context(t: FlippableTuple, ctx: Context) -> FlippableTuple:
    """Wrap t (even prefix length) or its mirror (odd prefix length) in the context."""
    base = t if ctx.prefix.n % 2 == 0 else mirror_tuple(t)
    return FlippableTuple.of(wrap_marked(m, ctx.prefix, ctx.suffix) for m in base.members)


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

    def tuple(self) -> FlippableTuple:
        return _pattern_tuple(self)

    def base_witness(self) -> tuple[Bits, ...]:
        return _pattern_witness(self)

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


def _marked(text: str, mark: int) -> MarkedWord:
    return MarkedWord(Bits.parse(text), mark)


@lru_cache(maxsize=None)
def _pattern_tuple(p: Pattern) -> FlippableTuple:
    if p.family == "fan":
        w = p.inner
        return FlippableTuple.of(
            (
                MarkedWord(cat(ONE, w, Bits.parse("11000")), w.n + 5),
                MarkedWord(cat(ONE, w, Bits.parse("10100")), w.n + 6),
                MarkedWord(cat(ONE, w, Bits.parse("10010")), w.n + 2),
            )
        )
    if p.family == "bridge":
        return FlippableTuple.of(
            (_marked("111000", 6), _marked("101100", 5), _marked("101010", 1))
        )
    if p.family == "patch":
        return FlippableTuple.of(
            (_marked("11001100", 2), _marked("11011000", 8), _marked("11101000", 6))
        )
    return FlippableTuple.of(
        (
            _marked("111000", 6),
            _marked("110100", 5),
            _marked("101100", 3),
            _marked("101010", 1),
        )
    )


_WITNESS_LITERALS = {
    "bridge": ("111000", "111001", "011001", "011011", "011010", "111010"),
    "patch": ("11011100", "10011100", "10011101", "10011001", "11011001", "11011000"),
    "quad": (
        "111000",
        "111001",
        "110001",
        "110011",
        "010011",
        "011011",
        "011010",
        "111010",
    ),
}

# Where each family's witness (the literals above, and the fan's tails
# below) meets each member's named edge, in the member order of its tuple.
_NAMED_EDGES = {
    "fan": ((3, 2), (4, 5), (0, 1)),
    "bridge": ((5, 4), (2, 3), (0, 1)),
    "quad": ((7, 6), (5, 4), (2, 3), (0, 1)),
    "patch": ((0, 1), (5, 4), (3, 2)),
}


@lru_cache(maxsize=None)
def _pattern_witness(p: Pattern) -> tuple[Bits, ...]:
    if p.family == "fan":
        w = p.inner
        tails = ("00101", "00111", "00110", "10110", "10100", "10101")
        return tuple(cat(ONE, w, Bits.parse(t)) for t in tails)
    return tuple(Bits.parse(s) for s in _WITNESS_LITERALS[p.family])


# A packed entry: (seed pattern, witness vertex values, ((word value, mark), ...)).
PackedEntry = tuple[Pattern, tuple[int, ...], tuple[tuple[int, int], ...]]


def seed(pattern: Pattern) -> PackedEntry:
    """The seed's packed entry: its literal witness and its members, in the empty context."""
    vals = tuple(y.val for y in pattern.base_witness())
    return pattern, vals, tuple((m.word.val, m.mark) for m in pattern.tuple().members)


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


def _peel(pattern: Pattern, ctx: Context) -> tuple[PackedEntry, int]:
    """The packed entry of ``apply_context(pattern.tuple(), ctx)``, with its word length.

    Peels the context into the moves, one per round. With u the prefix and v
    the suffix, the leading 1 of u closes either inside u (u = 1a0b with a
    Dyck: shift by 1a0, go on with (b, v)) or inside v (v = v'0d: the word
    u.tuple.v equals 1 mirror(tuple') 0 d for the context (mirror(v'),
    mirror(u minus its leading 1)) wrapped around the same seed, so go on
    there, then wrap and append d). Once the prefix is empty, the seed's
    entry gets the remaining suffix, and the moves follow innermost first.
    """
    u, un = ctx.prefix.val, ctx.prefix.n
    v, vn = ctx.suffix.val, ctx.suffix.n
    moves = []  # (wrapped, word): a shift by 1a0, or a wrap with tail d
    while un:
        p = first_return_val(u | v << un, un + vn)
        if p <= un:
            moves.append((False, Bits(u & (1 << p) - 1, p)))
            u >>= p
            un -= p
        else:
            q = p - un
            moves.append((True, Bits(v >> q, vn - q)))
            head, body = v & ((1 << (q - 1)) - 1), u >> 1
            u, un, v, vn = mirror_val(head, q - 1), q - 1, mirror_val(body, un - 1), un - 1
    n = pattern.tuple().word_length
    entries = append([seed(pattern)], Bits(v, vn), n)
    n += vn
    for wrapped, w in reversed(moves):
        if wrapped:
            entries = append(wrap(entries, n), w, n + 2)
            n += 2 + w.n
        else:
            entries = shift(entries, w)
            n += w.n
    return entries[0], n


def witness(pattern: Pattern, ctx: Context) -> tuple[Bits, ...]:
    """A witness cycle for ``apply_context(pattern.tuple(), ctx)``."""
    (_, vals, _), n = _peel(pattern, ctx)
    return tuple(Bits(y, n) for y in vals)


@dataclass(frozen=True)
class Derivation:
    """A (seed pattern, context) pair producing a tuple of the closure."""

    pattern: Pattern
    context: Context = field(default_factory=Context)

    @staticmethod
    def of_support(pattern: Pattern, support: tuple[tuple[int, int], ...], n: int) -> "Derivation":
        """The derivation of ``pattern`` whose ``support_vals()`` is (support, n).

        A seed's first two members have different marks s0 and s1. An even
        prefix u turns a mark s into |u| + s, an odd one into |u| + L + 1 - s
        for the seed's word length L; so the first two marks differ by
        s1 - s0 exactly when u is even, and then the first mark gives |u|.
        The first member's word holds u below position |u| + 1 and the suffix
        above position |u| + L.
        """
        members = pattern.tuple().members
        size, s0, s1 = members[0].word.n, members[0].mark, members[1].mark
        (x, m0), (_, m1) = support[0], support[1]
        un = m0 - s0 if m1 - m0 == s1 - s0 else m0 + s0 - size - 1
        u, v = Bits(x & (1 << un) - 1, un), Bits(x >> (un + size), n - un - size)
        return Derivation(pattern, Context(u, v))

    def tuple(self) -> FlippableTuple:
        return apply_context(self.pattern.tuple(), self.context)

    def support_vals(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """``tuple()`` as packed ``(word_val, mark)`` members in seed order, and the word length."""
        (_, _, support), n = _peel(self.pattern, self.context)
        return support, n

    def witness(self) -> tuple[Bits, ...]:
        return witness(self.pattern, self.context)

    def witness_vals(self) -> tuple[int, ...]:
        """The witness cycle as packed vertex values, without building ``Bits``."""
        return _peel(self.pattern, self.context)[0][1]

    def sort_key(self) -> tuple:
        return (str(self.context.prefix), str(self.context.suffix), *self.pattern.sort_key())

    def to_json(self) -> dict:
        return {
            "family": self.pattern.family,
            "inner": str(self.pattern.inner),
            "prefix": str(self.context.prefix),
            "suffix": str(self.context.suffix),
        }


def _match_seed(cand: FlippableTuple, word_length: int) -> Iterator[Pattern]:
    if len(cand.members) == 4:
        if word_length == 6 and cand == QUAD.tuple():
            yield QUAD
        return
    if word_length == 6 and cand == BRIDGE.tuple():
        yield BRIDGE
    if word_length == 8 and cand == PATCH.tuple():
        yield PATCH
    for w in sorted({m.word.slice(2, word_length - 5) for m in cand.members}):
        if is_dyck(w) and fan(w).tuple() == cand:
            yield fan(w)
            return


@lru_cache(maxsize=None)
def _derivations(t: FlippableTuple) -> tuple[Derivation, ...]:
    total = t.word_length
    members = t.members
    # A context split (|prefix| = s, |suffix| = e) needs the prefix/suffix to
    # be common to all member words and every mark to fall inside the window.
    prefix_cap = total
    suffix_cap = total
    base = members[0].word.val
    for m in members[1:]:
        d = base ^ m.word.val
        prefix_cap = min(prefix_cap, (d & -d).bit_length() - 1)
        suffix_cap = min(suffix_cap, total - d.bit_length())
    s_max = min(prefix_cap, min(m.mark for m in members) - 1, total - 6)
    e_cap = min(suffix_cap, total - max(m.mark for m in members))
    first = members[0].word
    out = []
    for s in range(0, s_max + 1):
        u = first.slice(1, s)
        for e in range(s % 2, e_cap + 1, 2):
            plen = total - s - e
            if plen < 6:
                break
            v = first.slice(total - e + 1, total)
            if not is_dyck(u + v):
                continue
            mids = FlippableTuple.of(
                MarkedWord(m.word.slice(s + 1, s + plen), m.mark - s) for m in members
            )
            cand = mids if s % 2 == 0 else mirror_tuple(mids)
            for pat in _match_seed(cand, plen):
                out.append(Derivation(pat, Context(u, v)))
    out.sort(key=Derivation.sort_key)
    return tuple(out)


def derivations(t: FlippableTuple) -> list[Derivation]:
    """All (pattern, context) pairs reproducing t, in canonical order."""
    return list(_derivations(t))


@lru_cache(maxsize=None)
def canonical_witness(t: FlippableTuple) -> tuple[Bits, ...]:
    """The fixed witness of t: the one derived from its least derivation."""
    ds = _derivations(t)
    if not ds:
        raise ValueError(f"{t} is not a context-wrapped seed pattern")
    return ds[0].witness()


def is_witness(t: FlippableTuple, cycle: tuple[Bits, ...]) -> bool:
    """True iff ``cycle`` is a flipping cycle witnessing t.

    Checks that the vertices form a simple cycle through the two middle
    layers with single-bit steps, and that the edges lying on factor paths
    are exactly the edges named by t (one per member), the rest connecting
    distinct paths.
    """
    size = len(t.members)
    if len(cycle) != 2 * size:
        return False
    n = t.word_length
    k = n // 2
    if any(v.n != n or v.weight not in (k, k + 1) for v in cycle):
        return False
    if len(set(cycle)) != len(cycle):
        return False
    edges = []
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % len(cycle)]
        if (a.val ^ b.val).bit_count() != 1:
            return False
        edges.append(frozenset((a, b)))
    named = {factor.flip_edge(m.word, m.mark) for m in t.members}
    on_path = set()
    for e in edges:
        a, b = sorted(e)
        xa, ia = factor.locate(a)
        xb, ib = factor.locate(b)
        if xa == xb and abs(ia - ib) == 1:
            on_path.add(e)
    return on_path == named


def enumerate_tuples(k: int) -> list[FlippableTuple]:
    """Every context-wrapped seed tuple on Dyck words of semilength k."""
    if k < 3:
        return []
    seen: set[FlippableTuple] = set()
    for j in range(3, k + 1):
        pats = [fan(w) for w in enumerate_dyck(j - 3)]
        if j == 3:
            pats += [BRIDGE, QUAD]
        if j == 4:
            pats += [PATCH]
        for c in enumerate_dyck(k - j):
            for s in range(0, c.n + 1):
                ctx = Context(c.slice(1, s), c.slice(s + 1, c.n))
                for p in pats:
                    seen.add(apply_context(p.tuple(), ctx))
    return sorted(seen)


def conflict_violations(
    tuples: Iterable[FlippableTuple],
) -> list[tuple[FlippableTuple, FlippableTuple, Bits]]:
    """Pairs whose supports share exactly one word marked identically in both.

    Pairs come in input order, as a scan over all pairs would give them, but
    only tuples met through a shared word, indexed by word, are compared.
    """
    ts = list(tuples)
    supports = [t.support for t in ts]
    holders: dict[Bits, list[int]] = {}
    for i, support in enumerate(supports):
        for x in support:
            holders.setdefault(x, []).append(i)
    out = []
    for i, t1 in enumerate(ts):
        for j in sorted({j for x in supports[i] for j in holders[x] if j > i}):
            shared = supports[i] & supports[j]
            if len(shared) == 1:
                (x,) = shared
                if t1.mark_of(x) == ts[j].mark_of(x):
                    out.append((t1, ts[j], x))
    return out
