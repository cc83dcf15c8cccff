"""The checking side: the tuple model on ``Bits``, derivations and searches.

Generation carries tuples as packed entries (``flippable``) and never
imports this module; the verifiers, the tests, the ``tree`` command and the
splice's failure messages import it inside the call that needs it.

A ``FlippableTuple`` holds ``MarkedWord`` members in canonical order, and
``apply_context`` wraps a seed tuple in a ``Context``. A ``Derivation``
(seed pattern, context) gets its witness and support from the context peel,
which reduces an arbitrary context to the moves of ``flippable`` by
repeatedly resolving where the prefix's leading 1 closes (the total context
length shrinks each round, so the peel terminates); ``Derivation.of_support``
reads a derivation back from a packed support. ``SpanningTree.entries``
holds each tree tuple as a ``TreeEntry``, and ``hand_tree`` makes a tree by
hand by peeling derivations.

The searches find instead of deriving: ``derivations`` finds every (pattern,
context) pair reproducing a tuple, ``canonical_witness`` takes the witness
of the least one, ``is_witness`` tests a cycle against a tuple through
``locate``, which finds the (Dyck origin, index) of a vertex on the cycle
factor, and ``enumerate_tuples(k)`` is the pool of wrapped seeds on
semilength k. Two pool tuples whose supports share exactly one word mark it
at different positions, so all their witnesses can be applied at once
(``conflict_violations``), and every pool tuple has exactly one derivation,
so a tree entry's derivation gives the canonical witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .factor import flip_edge
from .flippable import BRIDGE, PATCH, QUAD, PackedEntry, Pattern, append, fan, seed, shift, wrap
from .spanning import SpanningTree
from .words import (
    Bits,
    EMPTY,
    ONE,
    ZERO,
    cat,
    complement,
    enumerate_dyck,
    first_return_val,
    is_dyck,
    mirror,
    mirror_val,
)


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


@lru_cache(maxsize=None)
def seed_tuple(pattern: Pattern) -> FlippableTuple:
    """``pattern.tuple()``: the seed's packed members as marked words."""
    n = pattern.word_length
    return FlippableTuple.of(MarkedWord(Bits(x, n), m) for x, m in seed(pattern)[2])


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
    n = pattern.word_length
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
        (_, s0), (_, s1) = seed(pattern)[2][:2]
        size = pattern.word_length
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


def locate(y: Bits) -> tuple[Bits, int]:
    """The unique (origin, index) with path(origin).vertices[index] == y.

    Works for any y of even length 2k and weight k or k+1. Each recursion
    step finds exactly one structural decomposition; a vertex admitting none
    or several would contradict the disjoint-cover property, so that case
    raises.
    """
    if y.n % 2:
        raise ValueError(f"{y!r} has odd length")
    k = y.n // 2
    if k == 0:
        return y, 0
    if y.weight not in (k, k + 1):
        raise ValueError(f"{y!r} has weight {y.weight}, expected {k} or {k + 1}")
    if is_dyck(y):
        return y, 0

    if y.bit(1) == 1:
        # y = 1w1v with mirror(w) of weight l-1 or l, v Dyck.
        found = None
        for l in range(1, k + 1):
            if y.bit(2 * l) != 1:
                continue
            if not is_dyck(y.slice(2 * l + 1, y.n)):
                continue
            if y.slice(2, 2 * l - 1).weight not in (l - 2, l - 1):
                continue
            if found is not None:
                raise RuntimeError(f"ambiguous decomposition of {y!r}")
            found = l
        if found is None:
            raise RuntimeError(f"no decomposition of {y!r}")
        w = y.slice(2, 2 * found - 1)
        v = y.slice(2 * found + 1, y.n)
        inner, j = locate(mirror(w))
        return cat(ONE, mirror(inner), ZERO, v), j + 1

    # y = 0~u1w with u Dyck, w of weight k-l or k-l+1.
    found = None
    for l in range(1, k + 1):
        if y.bit(2 * l) != 1:
            continue
        if not is_dyck(complement(y.slice(2, 2 * l - 1))):
            continue
        if y.slice(2 * l + 1, y.n).weight not in (k - l, k - l + 1):
            continue
        if found is not None:
            raise RuntimeError(f"ambiguous decomposition of {y!r}")
        found = l
    if found is None:
        raise RuntimeError(f"no decomposition of {y!r}")
    u = complement(y.slice(2, 2 * found - 1))
    w = y.slice(2 * found + 1, y.n)
    inner, j = locate(w)
    return cat(ONE, u, ZERO, inner), 2 * found + j


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
    named = {flip_edge(m.word, m.mark) for m in t.members}
    on_path = set()
    for e in edges:
        a, b = sorted(e)
        xa, ia = locate(a)
        xb, ib = locate(b)
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


@dataclass(frozen=True)
class TreeEntry:
    """A tree tuple held as its derivation; a class still, as perfbench reads ``e.tup``."""

    derivation: Derivation

    @property
    def tup(self) -> FlippableTuple:
        return self.derivation.tuple()


def hand_tree(base: Iterable[Bits], derivations: Iterable[Derivation]) -> SpanningTree:
    """A tree made by hand over the words ``base``, its packed entries peeled from ``derivations``.

    The derivations' words share one length, which the tree takes.
    """
    peeled = [_peel(d.pattern, d.context) for d in derivations]
    n = peeled[0][1] if peeled else 0
    return SpanningTree(frozenset(base), tuple(e for e, _ in peeled), n)


def tree_json(tree: SpanningTree) -> dict:
    """The tree as the ``tree`` command prints it: its base and its tuples with derivations."""
    pairs = sorted(((e.tup, e.derivation) for e in tree.entries), key=lambda p: p[0])
    return {
        "base": sorted(str(x) for x in tree.base),
        "tuples": [{**t.to_json(), "derivation": d.to_json()} for t, d in pairs],
    }
