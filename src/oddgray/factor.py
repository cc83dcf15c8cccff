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
it for one word and keep nothing. The table holds each sequence as
``bytes``, one byte per position (at most MAX_LEN = 62), so indexing, slicing
and ``index`` read positions as ints; ``flip_sequence`` returns a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .words import MAX_K, MAX_LEN, Bits, enumerate_dyck, first_return_val, is_dyck


@dataclass(frozen=True)
class FactorPath:
    origin: Bits
    vertices: tuple[Bits, ...]


# _ADD[s] translates each byte b to b + s (mod 256): one table per shift a
# sequence of a Dyck word of length at most MAX_LEN can take, each a rotation
# of the identity table.
_IDENTITY = bytes(range(256))
_ADD = tuple(_IDENTITY[s:] + _IDENTITY[:s] for s in range(MAX_LEN + 1))


def _flip_seq(val: int, n: int, memo: dict[int, bytes]) -> bytes:
    """The flip sequence of the packed Dyck word val of length n, one byte per position.

    ``memo`` maps each word met, keyed by its value with a stop bit above
    it, to its sequence; it starts as ``{1: b""}``, the empty word.
    """
    key = val | 1 << n
    s = memo.get(key)
    if s is None:
        base = first_return_val(val, n)  # x = 1u0v with |u| = base - 2
        head = _flip_seq(val >> 1 & (1 << (base - 2)) - 1, base - 2, memo)
        tail = _flip_seq(val >> base, n - base, memo)
        s = memo[key] = b"".join(
            (bytes((base,)), head[::-1].translate(_ADD[1]), b"\x01", tail.translate(_ADD[base]))
        )
    return s


def flip_sequence(x: Bits) -> tuple[int, ...]:
    """The bit-flip order generating the factor path of the Dyck word x."""
    if not is_dyck(x):
        raise ValueError(f"{x!r} is not a Dyck word")
    return tuple(_flip_seq(x.val, x.n, {1: b""}))


@lru_cache(maxsize=1)
def flip_sequences(k: int) -> tuple[bytes, ...]:
    """``flip_sequence`` of every Dyck word of semilength k as ``bytes``, in enumeration order.

    One memo serves the whole table and is dropped with the call; the table
    is kept for the latest k only, which every caller of that k shares.
    """
    memo: dict[int, bytes] = {1: b""}
    return tuple(_flip_seq(x.val, x.n, memo) for x in enumerate_dyck(k))


def _path_vals(val: int, seq: bytes | tuple[int, ...]) -> list[int]:
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

