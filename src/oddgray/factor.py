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

``flip_sequences(k)`` builds the table of every flip sequence one
semilength at a time, in enumeration order, each word 1u0v from the smaller
u and v, and keeps it for the latest k, which the splice, the walk, the
``factor`` command and ``checking``'s views on ``Bits`` (``path``,
``flip_edge``, ``cycle_factor``) share; ``flip_sequence`` runs the recursion
for one word and keeps nothing. The table holds each sequence as ``bytes``,
one byte per position (at most MAX_LEN = 62), so indexing, slicing and
``index`` read positions as ints; ``flip_sequence`` returns a tuple.
"""

from __future__ import annotations

from functools import lru_cache

from .words import MAX_LEN, Bits, enumerate_dyck, first_return_val, is_dyck


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

    Each level is a list in enumeration order: the words 1u0v by u, in
    descending order with a word after its extensions, then by v. So u runs
    over each word y of the level below and then over what y leaves as it
    drops a closing 10: F(y) ends with |y|, |y| - 1 exactly when y ends
    with 10, and loses those two flips with it. The table is kept for the
    latest k only, which every caller of that k shares. The words come
    first, so a k too large for memory is refused before any work.
    """
    enumerate_dyck(k)
    levels: list[list[bytes]] = [[b""]]
    for s in range(1, k + 1):
        # tails[a]: each sequence of semilength s - 1 - a, shifted past 1u0 with |u| = 2a
        tails = [[f.translate(_ADD[2 * a + 2]) for f in levels[s - 1 - a]] for a in range(s)]
        level: list[bytes] = []
        for f in levels[s - 1]:
            n = len(f)
            while True:
                head = bytes((n + 2,)) + f[::-1].translate(_ADD[1]) + b"\x01"
                level += [head + tail for tail in tails[n // 2]]
                if not n or f[-1] != n - 1:
                    break
                f, n = f[:-2], n - 2
        levels.append(level)
    return tuple(levels[k])


def _path_vals(val: int, seq: bytes | tuple[int, ...]) -> list[int]:
    """The packed vertices of the factor path that starts at val and flips by seq."""
    vals = [val]
    for a in seq:
        val ^= 1 << (a - 1)
        vals.append(val)
    return vals


def __getattr__(name: str):
    # ``cycle_factor`` lives in ``checking``; its old import path still serves it.
    if name == "cycle_factor":
        from .checking import cycle_factor

        return cycle_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
