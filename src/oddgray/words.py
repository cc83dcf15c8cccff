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
from array import array
from collections.abc import Sequence
from functools import cache, lru_cache, partial, reduce
from math import comb
from typing import Callable, Iterable, Iterator

MAX_LEN = 62
# Largest semilength served: an odd-graph vertex has 2k+1 <= MAX_LEN bits.
MAX_K = (MAX_LEN - 1) // 2
# Peak memory of a run per Dyck word of its semilength: ``gen --k 12`` peaked at 182.3 MB
# (of 2^20 bytes) for its 208,012 words (Python 3.11, x86-64), and about 124 MB since the
# slot splice and entries without witnesses; the older figure keeps the refusal conservative.
BYTES_PER_DYCK_WORD = 919


def bitstring(val: int, n: int) -> str:
    """The ASCII rendering of a packed value of length n, position 1 first."""
    return f"{val:0{n}b}"[::-1] if n else ""


# Widest chunk a renderer looks up in one table (2^13 entries).
CHUNK_BITS = 13


def _chunked(n: int, table: Callable, end: str | tuple) -> Callable[[int], object]:
    """A function adding up the table entries of a packed value of n bits, chunk by chunk.

    The value is cut, from position 1 on, into chunks of equal width (at most
    CHUNK_BITS) and a shorter or equal last chunk, whose entries end in ``end``;
    ``table(width, offset)`` lists the entries of a chunk at bit ``offset``. A
    value costs one lookup per chunk: two and one ``+`` up to n = 2 * CHUNK_BITS.
    """
    count = max(1, -(-n // CHUNK_BITS))
    width = -(-n // count)
    top = (count - 1) * width
    last = [entry + end for entry in table(n - top, top)]
    mask = (1 << width) - 1

    def chunks(offset: int) -> Callable[[int], object]:  # the chunks from bit offset on
        head = table(width, offset)
        if offset + width == top:
            return lambda val: head[val & mask] + last[val >> width]
        rest = chunks(offset + width)
        return lambda val: head[val & mask] + rest(val >> width)

    return chunks(0) if count > 1 else last.__getitem__


def line_renderer(n: int, end: str = "\n") -> Callable[[int], str]:
    """A function mapping a packed value of length n to ``bitstring(val, n) + end``."""
    return _chunked(n, lambda width, _: [bitstring(i, width) for i in range(1 << width)], end)


def column_lines(n: int, start: int, steps: Sequence[int], blocks: Iterable[bytes]) -> Iterator[str]:
    """Per nonempty block of flip positions, the ``line_renderer(n)`` lines of the values it leaves.

    From ``start``, position p XORs in ``steps[p]``, and each leaves the value before it. A column
    is built at once: the bits the block's steps flip there, read as one base-2 int (exempt from
    the digit limit), prefix-XORed by doubling shifts, written into every (n + 1)-th byte.
    """
    tables = [bytes(48 + (s >> c & 1) for s in steps).ljust(256, b"0") for c in range(n)]
    v = start
    for block in blocks:
        if not (size := len(block)):
            continue
        lines, ones = bytearray(b"\n") * (size * (n + 1)), (1 << size) - 1
        for c, table in enumerate(tables):
            x, shift = int(block.translate(table), 2), 1
            while shift < size:
                x ^= x >> shift
                shift <<= 1
            # bit size - i of x flips column c from the first value to the i-th
            lines[c :: n + 1] = format(x >> 1 ^ (ones if v >> c & 1 else 0), f"0{size}b").encode()
            v ^= (x & 1) << c
        yield lines.decode()


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
        bad = text.strip("01")  # from the first character other than 0 and 1
        if bad:
            raise ValueError(f"invalid bit character {bad[0]!r}")
        return cls(int(text[::-1] or "0", 2), len(text))

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


def mirror(x: Bits) -> Bits:
    """The complement of the reverse; an involution mapping Dyck words to Dyck words."""
    return Bits(reverse_val(x.val, x.n) ^ ((1 << x.n) - 1), x.n)


def _position_table(width: int, offset: int) -> list[tuple[int, ...]]:
    """Per value of ``width`` bits, the positions of its set bits placed at bits offset and up."""
    table = [()]
    for b in range(1, 1 << width):
        top = b.bit_length()
        table.append(table[b ^ 1 << (top - 1)] + (offset + top,))
    return table


@lru_cache(maxsize=2)
def subset_mapper(n: int) -> Callable[[int], tuple[int, ...]]:
    """A function mapping a packed value of n bits to ``positions(val)``, by chunk tables.

    ``Vertices`` asks for a mapper per read, so those of the latest two n are kept.
    """
    return _chunked(n, _position_table, ())


def subset_line_renderer(n: int) -> Callable[[int], str]:
    """A function mapping a nonzero packed value of n bits to its line, e.g. ``{1,3,4}\\n``.

    Each chunk's entry renders a position p as ``,p``; the line drops the first comma.
    """
    commas = lambda *at: ["".join(f",{p}" for p in t) for t in _position_table(*at)]
    render = _chunked(n, commas, "}\n")
    return lambda val: "{" + render(val)[1:]


def positions(val: int) -> tuple[int, ...]:
    """The 1-based positions of the set bits of a value, in increasing order."""
    return tuple(i + 1 for i in range(val.bit_length()) if val >> i & 1)


class Vertices(Sequence):
    """A cycle's vertices, held as an ``array('Q')`` of packed n-bit values and decoded on read.

    An odd vertex reads as its subset, ``positions(v)``, any other as ``Bits(v, n)``. The view
    reads as ``tuple(self)`` would: a slice is a tuple; equality, hash and repr are the tuple's.
    """

    def __init__(self, vals: Iterable[int], n: int, odd: bool) -> None:
        self.vals, self.n, self.odd = array("Q", vals), n, odd

    def _decode(self) -> Callable[[int], tuple[int, ...] | Bits]:
        return subset_mapper(self.n) if self.odd else partial(Bits, n=self.n)

    def __len__(self) -> int:
        return len(self.vals)

    def __getitem__(self, i):
        vals, decode = self.vals[i], self._decode()
        return tuple(map(decode, vals)) if isinstance(i, slice) else decode(vals)

    def __iter__(self) -> Iterator[tuple[int, ...] | Bits]:
        return map(self._decode(), self.vals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, tuple | Vertices) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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


def check_memory(need: int, what: str) -> None:
    """Refuse more than physical memory: a ``ValueError``, ``what`` then the memory's size."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what}; this machine has {have >> 20:,} MB of physical memory")


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
    check_memory(
        need, f"semilength {k} has {count:,} Dyck words, which need about {need >> 20:,} MB"
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
