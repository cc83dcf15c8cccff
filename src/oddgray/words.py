"""Bitstring and Dyck-word primitives.

A bitstring packs its bits into one machine word: position i (1-based) lives
at bit i-1 of ``val``, and the length is stored explicitly, so complement,
concatenation, slicing and bit flips are a handful of integer instructions.
The ASCII rendering puts position 1 first, hence ``str(Bits.parse("110010"))``
round-trips.

A Dyck word is a balanced even-length bitstring in which every prefix holds
at least as many 1s as 0s; there are Catalan(k) of semilength k. ``mirror``
(the complement of the reverse) is an involution on Dyck words; on the lattice
path picture it reflects the path left-to-right.
"""

from __future__ import annotations

import os
from functools import cache, reduce
from math import comb
from typing import Callable

MAX_LEN = 62
# Largest semilength served: an odd-graph vertex has 2k+1 <= MAX_LEN bits.
MAX_K = (MAX_LEN - 1) // 2
# Peak memory of a run per Dyck word of its semilength: ``gen --k 12`` peaks
# at 264 MB for its 208,012 words (Python 3.11, x86-64).
BYTES_PER_DYCK_WORD = 1270


def bitstring(val: int, n: int) -> str:
    """The ASCII rendering of a packed value of length n, position 1 first."""
    return f"{val:0{n}b}"[::-1] if n else ""


# Widest chunk a line renderer looks up in one table (2^13 entries).
CHUNK_BITS = 13


def line_renderer(n: int, end: str = "\n") -> Callable[[int], str]:
    """A function mapping a packed value of length n to ``bitstring(val, n) + end``.

    The value is cut, from position 1 on, into chunks of equal width (at
    most CHUNK_BITS) and a shorter or equal last chunk. One table of
    ``bitstring`` renderings serves every chunk but the last, and a second
    one, whose entries end in ``end``, serves the last; so a line costs one
    lookup per chunk, two up to n = 26.
    """
    count = max(1, -(-n // CHUNK_BITS))
    width = -(-n // count)
    top = (count - 1) * width
    last = [bitstring(i, n - top) + end for i in range(1 << (n - top))]
    if count == 1:
        return last.__getitem__
    mask = (1 << width) - 1
    head = [bitstring(i, width) for i in range(1 << width)]
    if count == 2:
        return lambda val: head[val & mask] + last[val >> width]
    shifts = range(0, top, width)
    return lambda val: "".join([head[val >> s & mask] for s in shifts]) + last[val >> top]


class Bits:
    """Immutable bitstring of length 0..62."""

    __slots__ = ("val", "n")

    def __init__(self, val: int, n: int) -> None:
        if not 0 <= n <= MAX_LEN:
            raise ValueError(f"bitstring length {n} outside 0..{MAX_LEN}")
        if val < 0 or (val >> n):
            raise ValueError(f"value {val:#x} does not fit in {n} bits")
        self.val = val
        self.n = n

    @classmethod
    def parse(cls, text: str) -> "Bits":
        val = 0
        for i, ch in enumerate(text):
            if ch == "1":
                val |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(val, len(text))

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside 1..{self.n}")
        return (self.val >> (i - 1)) & 1

    def flip(self, i: int) -> "Bits":
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside 1..{self.n}")
        return Bits(self.val ^ (1 << (i - 1)), self.n)

    @property
    def weight(self) -> int:
        return self.val.bit_count()

    def slice(self, i: int, j: int) -> "Bits":
        """The sub-bitstring at positions i..j inclusive (empty when j < i)."""
        if j < i:
            return EMPTY
        if i < 1 or j > self.n:
            raise IndexError(f"slice {i}..{j} outside 1..{self.n}")
        width = j - i + 1
        return Bits((self.val >> (i - 1)) & ((1 << width) - 1), width)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits(self.val | (other.val << self.n), self.n + other.n)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bits) and self.val == other.val and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.val, self.n))

    def __lt__(self, other: "Bits") -> bool:
        # Shorter strings first, then ASCII-lexicographic ('0' < '1').
        if self.n != other.n:
            return self.n < other.n
        diff = self.val ^ other.val
        if diff == 0:
            return False
        return not (self.val & (diff & -diff))

    def __le__(self, other: "Bits") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        return bitstring(self.val, self.n)

    def __repr__(self) -> str:
        return f"Bits({str(self)!r})"


EMPTY = Bits(0, 0)
ZERO = Bits(0, 1)
ONE = Bits(1, 1)


def cat(*parts: Bits) -> Bits:
    return reduce(Bits.__add__, parts, EMPTY)


def complement(x: Bits) -> Bits:
    """Flip every bit."""
    return Bits(x.val ^ ((1 << x.n) - 1), x.n)


# _REVERSED_BYTE[b] is the byte b with its eight bits in reverse order.
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_val(val: int, n: int) -> int:
    """``reverse`` on a packed value of length n: byte order and bits per byte both reversed."""
    width = -(-n // 8)
    head = val.to_bytes(width, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(head, "big") >> (8 * width - n)


def reverse(x: Bits) -> Bits:
    return Bits(reverse_val(x.val, x.n), x.n)


def mirror_val(val: int, n: int) -> int:
    """``mirror`` on a packed value of length n."""
    return reverse_val(val, n) ^ ((1 << n) - 1)


def mirror(x: Bits) -> Bits:
    """The complement of the reverse; an involution mapping Dyck words to Dyck words."""
    return Bits(mirror_val(x.val, x.n), x.n)


@cache
def _byte_positions() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per byte offset j, the positions of each byte value's set bits placed at bits 8j..8j+7.

    Built on first use, so a run that renders no subsets does not pay for it.
    """
    tables = []
    for offset in range(0, 64, 8):
        table = [()]
        for b in range(1, 256):
            top = b.bit_length()
            table.append(table[b ^ 1 << (top - 1)] + (offset + top,))
        tables.append(tuple(table))
    return tuple(tables)


def positions(val: int) -> tuple[int, ...]:
    """The 1-based positions of the set bits of a packed value, in increasing order."""
    out = ()
    for table in _byte_positions():
        out += table[val & 255]
        val >>= 8
        if not val:
            return out
    raise ValueError("value wider than 64 bits")


def is_dyck(x: Bits) -> bool:
    if x.n % 2:
        return False
    h, v = 0, x.val
    for _ in range(x.n):
        h += 1 if (v & 1) else -1
        if h < 0:
            return False
        v >>= 1
    return h == 0


def first_return_val(val: int, n: int) -> int:
    """``first_return`` on a packed value of length n."""
    h, v = 0, val
    for i in range(1, n + 1):
        h += 1 if (v & 1) else -1
        if h == 0:
            return i
        v >>= 1
    raise ValueError(f"{Bits(val, n)!r} is not a non-empty Dyck word")


def first_return(x: Bits) -> int:
    """Position of the first return to height zero of a non-empty Dyck word."""
    return first_return_val(x.val, x.n)


def decompose(x: Bits) -> tuple[Bits, Bits]:
    """Split a non-empty Dyck word as 1u0v with u, v Dyck; the 0 closes the leading 1."""
    if x.n == 0 or not is_dyck(x):
        raise ValueError(f"{x!r} is not a non-empty Dyck word")
    p = first_return(x)
    return x.slice(2, p - 1), x.slice(p + 1, x.n)


@cache
def enumerate_dyck(k: int) -> tuple[Bits, ...]:
    """All Dyck words of semilength k, in descending lexicographic order with '1' ranked above '0'.

    The first word for k = 3 is 111000 and the last is 101010. Each
    semilength is enumerated once per process; every caller shares the tuple.
    Every run of semilength k starts here, so a k whose words times
    BYTES_PER_DYCK_WORD exceed physical memory is refused before any work.
    """
    if k < 0:
        raise ValueError("semilength must be non-negative")
    if 2 * k > MAX_LEN:
        raise ValueError(f"semilength {k} exceeds the packing limit")
    count = comb(2 * k, k) // (k + 1)
    need = count * BYTES_PER_DYCK_WORD
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"semilength {k} has {count:,} Dyck words, which need about {need >> 20:,} MB; "
            f"this machine has {have >> 20:,} MB of physical memory"
        )
    out: list[Bits] = []

    def rec(val: int, pos: int, ones: int, height: int) -> None:
        if pos == 2 * k:
            out.append(Bits(val, 2 * k))
            return
        if ones < k:
            rec(val | (1 << pos), pos + 1, ones + 1, height + 1)
        if height > 0:
            rec(val, pos + 1, ones, height - 1)

    rec(0, 0, 0, 0)
    return tuple(out)
