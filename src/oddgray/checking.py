"""The checking side: the tuple model on ``Bits``, derivations and searches.

Generation carries tuples as packed entries (``flippable``) and never
imports this module; the verifiers, the tests, the ``tree`` command and the
splice's failure messages import it inside the call that needs it. It is
the one module that declares dataclasses, so a generation run imports
neither ``dataclasses`` nor ``inspect``.

A ``FlippableTuple`` holds ``MarkedWord`` members in canonical order, and
``apply_context`` wraps a seed tuple in a ``Context``. A ``Derivation``
(seed pattern, context) gets its support from the context peel, which
reduces an arbitrary context to the moves of ``flippable`` by repeatedly
resolving where the prefix's leading 1 closes (the total context length
shrinks each round, so the peel terminates), and its witness from the
support, as the splice does; ``Derivation.of_support`` reads a derivation
back from a packed support. ``SpanningTree.entries`` holds each tree tuple
as a ``TreeEntry``, a failure text names an entry by the members it holds
(``tuple_text``), and ``hand_tree`` peels derivations.

The searches find instead of deriving: ``derivations`` finds every (pattern,
context) pair reproducing a tuple, ``canonical_witness`` takes the witness
of the least one, ``is_witness`` tests a cycle against a tuple through
``locate``, which finds the (Dyck origin, index) of a vertex on the cycle
factor, and ``enumerate_tuples(k)`` is the pool of wrapped seeds on
semilength k. Two pool tuples whose supports share exactly one word mark it
at different positions, so all their witnesses can be applied at once
(``conflict_violations``), and every pool tuple has exactly one derivation,
so a tree entry's derivation gives the canonical witness.

It also holds the factor's views on ``Bits`` (``path``, ``flip_edge``,
``cycle_factor``), the flat and steep trees on their own, and
``validate_tree`` and ``walk_failure``, whose texts ``assembly`` reports when
its own check of the tree fails or its walk misses a factor path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .factor import _flip_seq, _path_vals, flip_sequence, flip_sequences
from .flippable import BRIDGE, IDENTITY, PATCH, QUAD, PackedEntry, Pattern, fan, leaf
from .flippable import appended, shifted, wrapped
from .spanning import SpanningTree, flat, full_tree, steep
from .words import (
    MAX_K,
    Bits,
    EMPTY,
    ONE,
    ZERO,
    bitstring,
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
        return _marked_text(str(self.word), self.mark)


def _marked_text(s: str, mark: int) -> str:
    """The word s with its mark bracketed, or as s:mark for a mark outside 1..|s|."""
    return f"{s[: mark - 1]}[{s[mark - 1]}]{s[mark:]}" if 0 < mark <= len(s) else f"{s}:{mark}"


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
    return FlippableTuple.of(MarkedWord(Bits(x, n), m) for x, m in leaf(pattern, IDENTITY)[1])


def _peel(pattern: Pattern, ctx: Context) -> tuple[PackedEntry, int]:
    """The packed entry of ``apply_context(pattern.tuple(), ctx)``, with its word length.

    Peels the context into the moves of ``flippable``, outermost first, and
    composes each into the map that wraps the seed. With u the prefix and v
    the suffix, the leading 1 of u closes either inside u (u = 1a0b with a
    Dyck: the word is 1a0 shifted ahead of the rest, so go on with (b, v))
    or inside v (v = v'0d: the word u.tuple.v equals 1 mirror(tuple') 0 d
    for the context (mirror(v'), mirror(u minus its leading 1)) wrapped
    around the same seed, so append d, wrap, and go on there). Each round
    shortens the context, and once the prefix is empty the remaining suffix
    is appended to the seed.
    """
    u, un = ctx.prefix.val, ctx.prefix.n
    v, vn = ctx.suffix.val, ctx.suffix.n
    total = n = un + vn + pattern.word_length
    f = IDENTITY
    while un:
        p = first_return_val(u | v << un, un + vn)
        if p <= un:
            f = shifted(f, Bits(u & (1 << p) - 1, p), n)
            u, un, n = u >> p, un - p, n - p
        else:
            q = p - un
            f = wrapped(appended(f, Bits(v >> q, vn - q), n), n - vn + q)
            n -= vn - q + 2
            head, body = v & ((1 << (q - 1)) - 1), u >> 1
            u, un, v, vn = mirror_val(head, q - 1), q - 1, mirror_val(body, un - 1), un - 1
    return leaf(pattern, appended(f, Bits(v, vn), n)), total


def _witness_vals(
    pattern: Pattern, support: tuple[tuple[int, int], ...], n: int
) -> tuple[int, ...]:
    """The witness of a packed entry: member r's named edge, from index i = seq.index(m) of
    the factor path of x to i + 1, with its lower end at a and its upper end at b for
    ``pattern.named_edges[r] = (a, b)``. The members' flip sequences share one memo."""
    memo = {1: b""}
    ys = [0] * (2 * len(support))
    for (x, mark), (a, b) in zip(support, pattern.named_edges):
        seq = _flip_seq(x, n, memo)
        low = x ^ sum(1 << p - 1 for p in seq[: seq.index(mark)])
        ys[a], ys[b] = low, low ^ 1 << mark - 1
    return tuple(ys)


def witness(pattern: Pattern, ctx: Context) -> tuple[Bits, ...]:
    """A witness cycle for ``apply_context(pattern.tuple(), ctx)``."""
    entry, n = _peel(pattern, ctx)
    return tuple(Bits(y, n) for y in _witness_vals(*entry, n))


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
        if len(support) != len(pattern.named_edges):
            named = len(pattern.named_edges)
            raise ValueError(f"support has {len(support)} members; {pattern} names {named}")
        (_, s0), (_, s1) = leaf(pattern, IDENTITY)[1][:2]
        size = pattern.word_length
        (x, m0), (_, m1) = support[0], support[1]
        un = m0 - s0 if m1 - m0 == s1 - s0 else m0 + s0 - size - 1
        if not 0 <= un <= n - size:
            raise ValueError(f"marks {m0} and {m1} fit no context of {pattern}")
        u, v = Bits(x & (1 << un) - 1, un), Bits(x >> (un + size), n - un - size)
        return Derivation(pattern, Context(u, v))

    def tuple(self) -> FlippableTuple:
        return apply_context(self.pattern.tuple(), self.context)

    def support_vals(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """``tuple()`` as packed ``(word_val, mark)`` members in seed order, and the word length."""
        (_, support), n = _peel(self.pattern, self.context)
        return support, n

    def witness(self) -> tuple[Bits, ...]:
        return witness(self.pattern, self.context)

    def witness_vals(self) -> tuple[int, ...]:
        """The witness cycle as packed vertex values, without building ``Bits``."""
        entry, n = _peel(self.pattern, self.context)
        return _witness_vals(*entry, n)

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


@dataclass(frozen=True)
class FactorPath:
    origin: Bits
    vertices: tuple[Bits, ...]


def path(x: Bits) -> FactorPath:
    """The factor path from x to its complement (2k+1 vertices)."""
    return FactorPath(x, tuple(Bits(v, x.n) for v in _path_vals(x.val, flip_sequence(x))))


def flip_edge(x: Bits, i: int) -> frozenset[Bits]:
    """The unique edge of path(x) along which bit i flips."""
    if not 1 <= i <= x.n:
        raise ValueError(f"position {i} outside 1..{x.n}")
    seq = flip_sequence(x)
    step = seq.index(i)
    return frozenset(Bits(v, x.n) for v in _path_vals(x.val, seq)[step : step + 2])


def cycle_factor(k: int) -> Iterator[FactorPath]:
    """One path per Dyck word of semilength k, in enumeration order."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"semilength {k} outside 1..{MAX_K}")
    for x, seq in zip(enumerate_dyck(k), flip_sequences(k)):
        yield FactorPath(x, tuple(Bits(v, x.n) for v in _path_vals(x.val, seq)))


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
    if y.weight not in (k, k + 1):
        raise ValueError(f"{y!r} has weight {y.weight}, expected {k} or {k + 1}")
    if is_dyck(y):
        return y, 0

    # y = 1w1v with mirror(w) of weight l-1 or l and v Dyck, or y = 0~u1w with
    # u Dyck and w of weight k-l or k-l+1, for exactly one l.
    lead = y.bit(1)

    def fits(l: int) -> bool:
        head, tail = y.slice(2, 2 * l - 1), y.slice(2 * l + 1, y.n)
        if lead:
            return is_dyck(tail) and head.weight in (l - 2, l - 1)
        return is_dyck(complement(head)) and tail.weight in (k - l, k - l + 1)

    found = [l for l in range(1, k + 1) if y.bit(2 * l) == 1 and fits(l)]
    if len(found) != 1:
        raise RuntimeError(f"{'ambiguous' if found else 'no'} decomposition of {y!r}")
    (l,) = found
    head, tail = y.slice(2, 2 * l - 1), y.slice(2 * l + 1, y.n)
    if lead:
        inner, j = locate(mirror(head))
        return cat(ONE, mirror(inner), ZERO, tail), j + 1
    inner, j = locate(tail)
    return cat(ONE, complement(head), ZERO, inner), 2 * l + j


def is_witness(t: FlippableTuple, cycle: tuple[Bits, ...]) -> bool:
    """True iff ``cycle`` is a flipping cycle witnessing t.

    Checks that the vertices form a simple cycle through the two middle
    layers with single-bit steps, and that the edges lying on factor paths
    are exactly the edges named by t (one per member), the rest connecting
    distinct paths.
    """
    if len(cycle) != 2 * len(t.members):
        return False
    n = t.word_length
    k = n // 2
    if any(v.n != n or v.weight not in (k, k + 1) for v in cycle):
        return False
    if len(set(cycle)) != len(cycle):
        return False
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    if any((a.val ^ b.val).bit_count() != 1 for a, b in steps):
        return False
    named = {flip_edge(m.word, m.mark) for m in t.members}
    on_path = set()
    for a, b in steps:
        (xa, ia), (xb, ib) = locate(a), locate(b)
        if xa == xb and abs(ia - ib) == 1:
            on_path.add(frozenset((a, b)))
    return on_path == named


def enumerate_tuples(k: int) -> list[FlippableTuple]:
    """Every context-wrapped seed tuple on Dyck words of semilength k."""
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


def tuple_text(tree: SpanningTree, idx: int) -> str:
    """Entry idx's tuple as failure texts name it: the members it holds, sorted by (word, mark),
    each with its mark bracketed, or as word:mark for a mark outside 1..n."""
    members = sorted((bitstring(x, tree.n), m) for x, m in tree.packed[idx][1])
    return "{" + ", ".join(_marked_text(s, m) for s, m in members) + "}"


def tree_json(tree: SpanningTree) -> dict:
    """The tree as the ``tree`` command prints it: its base and its tuples with derivations."""
    pairs = sorted(((e.tup, e.derivation) for e in tree.entries), key=lambda p: p[0])
    return {
        "base": sorted(str(x) for x in tree.base),
        "tuples": [{**t.to_json(), "derivation": d.to_json()} for t, d in pairs],
    }


def walk_failure(k: int, tree: SpanningTree, reached: bytearray, count: int, total: int) -> str:
    """Why the walk reached ``count`` of ``total`` vertices: the missed paths, the tuples at one."""
    dyck = enumerate_dyck(k)
    missed = [o for o, r in enumerate(reached) if not r]
    where = ""
    if missed:
        # every witness vertex lies on its member's path: those on x's are its tuples'
        x = dyck[missed[0]]
        tuples = [tuple_text(tree, i) for i, (_, s) in enumerate(tree.packed) if x.val in dict(s)]
        where = f"; the witnesses of {len(tuples)} tuples meet the factor path of {x}: "
        where += ", ".join(tuples)
    return (
        f"splice produced more than one cycle: the walk reached {count} of "
        f"{total} vertices, and no factor path of these {len(missed)} of "
        f"{len(dyck)} Dyck words: {', '.join(str(dyck[o]) for o in missed[:8])}"
        + (", ..." if len(missed) > 8 else "")
        + where
    )


@dataclass(frozen=True)
class Partition:
    """The flat/steep split of the Dyck words of one semilength."""

    k: int
    flat: frozenset[Bits]
    steep: frozenset[Bits]


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


def flat_tree(k: int) -> SpanningTree:
    return SpanningTree(partition(k).flat, tuple(flat(k, IDENTITY)), 2 * k)


def steep_tree(k: int) -> SpanningTree:
    return SpanningTree(partition(k).steep, tuple(steep(k, IDENTITY)), 2 * k)


def tree_family(k: int) -> tuple[SpanningTree | None, SpanningTree, SpanningTree]:
    """(full, flat, steep) trees of one semilength; full is None for k == 2."""
    full = full_tree(k) if k >= 3 else None
    return full, flat_tree(k), steep_tree(k)


@dataclass(frozen=True)
class TreeReport:
    passed: bool
    failures: tuple[str, ...]


def validate_tree(t: SpanningTree) -> TreeReport:
    """Check the spanning-tree conditions, reporting every violation.

    (1) supports inside the base set, (2) pairwise support intersections of
    size at most one, (3) sum(|support| - 1) == |base| - 1, (4) connected
    incidence structure, (5) distinct marks on shared words, (6) every mark
    in 1..n, so that it names an edge of its word's factor path, (7) as many
    members in each support as its pattern names edges. Given (3),
    the incidence structure (words plus tuples, joined by membership) has
    exactly |base| + #tuples - 1 edges, so (3) and (4) make it a tree; that both
    implies (2) and matches the recursive block-splitting definition of a
    spanning hypertree, since removing any tuple from a tree of incidences
    leaves one component per support word.

    The checks run on each entry's packed support; a word is keyed by its
    packed value with a stop bit above its last position, so words of
    different lengths never collide. Tuples and words are rendered only for
    a failure message, each from its own entry (``tuple_text``).
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

    # One pass makes checks (7), (1) and (6), counts for (3), gathers the
    # marked words of (2) and (5), and joins the words of (4). (6) names only
    # the word and the mark.
    failures: list[str] = []
    by_word: dict[int, list[tuple[int, int]]] = {}
    count = 0
    stop = 1 << t.n
    for idx, (pattern, members) in enumerate(t.packed):
        count += len(members) - 1
        if len(members) != len(pattern.named_edges):
            failures.append(
                f"{tuple_text(t, idx)} has {len(members)} members; "
                f"{pattern} names {len(pattern.named_edges)}"
            )
        outside = []
        root = None
        for val, mark in members:
            w = val | stop
            by_word.setdefault(w, []).append((idx, mark))
            if not 0 < mark <= t.n:
                failures.append(f"mark {mark} of {word(w)} outside 1..{t.n}")
            if w not in parent:
                outside.append(w)
            elif root is None:
                root = find(w)
            else:
                parent[find(w)] = root
        if outside:
            failures.append(
                f"support of {tuple_text(t, idx)} leaves the base set: {sorted(map(word, outside))}"
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
        pair = f"tuples {tuple_text(t, a)} and {tuple_text(t, b)}"
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
