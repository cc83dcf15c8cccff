"""The cycle factor covering both middle layers of the 2k-cube.

For a Dyck word x of semilength k, ``flip_sequence(x)``, written F(x), is a
permutation (a_1, ..., a_2k) of [2k] built by first-return recursion: writing
x = 1u0v, the sequence starts with the position |u|+2 closing the leading 1,
continues with the reflected sequence of mirror(u), then position 1, then the
sequence of v shifted past the prefix. That reflection is F(u) reversed, plus
one, so no word is mirrored: F(mirror(x)) = |x| + 1 - reverse(F(x)) by
induction, from mirror(1u0v) = mirror(v) 1 mirror(u) 0 and F(yz) = F(y) then
|y| + F(z). Flipping the bits of x in that order walks a path of 2k+1
vertices from x to its complement, alternating between weights k and k+1 (odd
steps flip a 0, even steps flip a 1). Closing each path with the complement
edge {x, ~x} gives one cycle per Dyck word; the cycles are vertex-disjoint
and cover all binomial(2k+1, k) vertices of the two layers.

One packed recursion computes every flip sequence. ``flip_sequences(k)``
runs it once over the Dyck words and keeps the table for the latest k, which
the splice, the walk, the middle-levels detours, ``cycle_factor`` and the
``factor`` command share; ``flip_sequence``, ``path`` and ``flip_edge`` run
it for one word and keep nothing.

``locate`` inverts the construction: any vertex of the two layers decomposes
in exactly one of three ways (a Dyck word, i.e. a path origin; 1w1v, an
interior vertex of the mirrored-prefix stretch; 0~u1w, a vertex of the suffix
stretch), and peeling that decomposition recursively yields the unique
(origin, index) with path(origin).vertices[index] == vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .words import (
    MAX_K,
    Bits,
    ONE,
    ZERO,
    cat,
    complement,
    enumerate_dyck,
    first_return_val,
    is_dyck,
    mirror,
)


@dataclass(frozen=True)
class FactorPath:
    origin: Bits
    vertices: tuple[Bits, ...]


def _flip_seq(val: int, n: int, memo: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The flip sequence of the packed Dyck word val of length n.

    ``memo`` maps each word met, keyed by its value with a stop bit above
    it, to its sequence; it starts as ``{1: ()}``, the empty word.
    """
    key = val | 1 << n
    s = memo.get(key)
    if s is None:
        base = first_return_val(val, n)  # x = 1u0v with |u| = base - 2
        head = _flip_seq(val >> 1 & (1 << (base - 2)) - 1, base - 2, memo)
        tail = _flip_seq(val >> base, n - base, memo)
        s = memo[key] = (base, *[a + 1 for a in reversed(head)], 1, *[base + a for a in tail])
    return s


def flip_sequence(x: Bits) -> tuple[int, ...]:
    """The bit-flip order generating the factor path of the Dyck word x."""
    if not is_dyck(x):
        raise ValueError(f"{x!r} is not a Dyck word")
    return _flip_seq(x.val, x.n, {1: ()})


@lru_cache(maxsize=1)
def flip_sequences(k: int) -> tuple[tuple[int, ...], ...]:
    """``flip_sequence`` of every Dyck word of semilength k, in enumeration order.

    One memo serves the whole table and is dropped with the call; the table
    is kept for the latest k only, which every caller of that k shares.
    """
    memo: dict[int, tuple[int, ...]] = {1: ()}
    return tuple(_flip_seq(x.val, x.n, memo) for x in enumerate_dyck(k))


def _path_vals(val: int, seq: tuple[int, ...]) -> list[int]:
    """The packed vertices of the factor path that starts at val and flips by seq."""
    vals = [val]
    for a in seq:
        val ^= 1 << (a - 1)
        vals.append(val)
    return vals


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
