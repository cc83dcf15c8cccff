"""Output checker for the benchmark, independent of the construction.

    python perfbench/checker.py odd 10 12345 output.txt

prints the failures found in ``output.txt`` as a JSON list (empty if none).
The kinds are ``odd`` and ``middle`` (one mask) and ``families`` (a
comma-separated list of masks).

It imports nothing from ``oddgray``: every property is re-derived from the
text of the output with bit arithmetic in NumPy. A line is one (2k+1)-bit
string whose i-th character is 1 when element i is in the subset.

Distinctness is tested with a bitmap indexed by the colex rank of each
subset, so the memory it needs is the size of the vertex set, not of the
2^(2k+1) strings of that length.
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

import numpy as np

# Rows per batch of the rank computation; keeps its temporaries near 20 MB.
_BATCH = 1 << 16


def _parse(data: bytes, n: int) -> tuple[np.ndarray | None, str | None]:
    """The 0/1 matrix of the lines, or an error naming the first bad line."""
    width = n + 1
    if not data or len(data) % width:
        return None, f"output of {len(data)} bytes is not whole lines of {n} bits"
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    bad = np.flatnonzero(rows[:, n] != ord("\n"))
    if bad.size:
        return None, f"line {bad[0] + 1} is not {n} characters long"
    bits = rows[:, :n] - np.uint8(ord("0"))
    bad = np.flatnonzero((bits > 1).any(axis=1))
    if bad.size:
        return None, f"line {bad[0] + 1} holds a character other than 0 and 1"
    return bits, None


def _values(bits: np.ndarray) -> np.ndarray:
    """Each row as an integer whose bit i is the row's character i (n < 64)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<i8").ravel()


def _colex_rank(bits: np.ndarray) -> np.ndarray:
    """Rank of each row's subset among the subsets of its size, in colex order.

    The subset {p_1 < ... < p_j} (0-based positions) has rank
    sum_i C(p_i, i), the combinatorial number system.
    """
    n = bits.shape[1]
    table = np.array(
        [[comb(p, i) for i in range(n + 1)] for p in range(n)], dtype=np.int64
    )
    out = np.empty(bits.shape[0], dtype=np.int64)
    cols = np.arange(n)
    for lo in range(0, bits.shape[0], _BATCH):
        b = bits[lo : lo + _BATCH]
        order = np.cumsum(b, axis=1, dtype=np.int64)
        out[lo : lo + _BATCH] = (b * table[cols, order]).sum(axis=1)
    return out


def _distinct(ranks: np.ndarray, size: int) -> bool:
    seen = np.zeros(size, dtype=bool)
    seen[ranks] = True
    return int(seen.sum()) == ranks.size


def check_odd(data: bytes, k: int) -> list[str]:
    """Failures of an odd-graph Hamilton cycle in bits format; empty if none."""
    n = 2 * k + 1
    bits, error = _parse(data, n)
    if error:
        return [error]
    failures = []
    expected = comb(n, k)
    if bits.shape[0] != expected:
        failures.append(f"{bits.shape[0]} lines instead of {expected}")
    bad = np.flatnonzero(bits.sum(axis=1) != k)
    if bad.size:
        return failures + [f"line {bad[0] + 1} does not have weight {k}"]
    vals = _values(bits)
    bad = np.flatnonzero(vals & np.roll(vals, -1))
    if bad.size:
        failures.append(f"lines {bad[0] + 1} and {(bad[0] + 1) % len(vals) + 1} intersect")
    if not _distinct(_colex_rank(bits), expected):
        failures.append("a subset appears twice")
    return failures


def check_middle(data: bytes, k: int) -> list[str]:
    """Failures of a middle-levels Hamilton cycle in bits format; empty if none."""
    n = 2 * k + 1
    bits, error = _parse(data, n)
    if error:
        return [error]
    failures = []
    half = comb(n, k)
    if bits.shape[0] != 2 * half:
        failures.append(f"{bits.shape[0]} lines instead of {2 * half}")
    weight = bits.sum(axis=1)
    bad = np.flatnonzero((weight != k) & (weight != k + 1))
    if bad.size:
        return failures + [f"line {bad[0] + 1} has weight {weight[bad[0]]}"]
    vals = _values(bits)
    steps = np.bitwise_count(vals ^ np.roll(vals, -1))
    bad = np.flatnonzero(steps != 1)
    if bad.size:
        failures.append(
            f"lines {bad[0] + 1} and {(bad[0] + 1) % len(vals) + 1} differ in "
            f"{steps[bad[0]]} bits"
        )
    upper = weight == k + 1
    # A (k+1)-subset is ranked through its complement, a k-subset.
    ranks = _colex_rank(np.where(upper[:, None], 1 - bits, bits))
    if not _distinct(ranks + half * upper, 2 * half):
        failures.append("a string appears twice")
    return failures


def edge_key(data: bytes, n: int) -> bytes:
    """A canonical encoding of the cycle's edge set, for comparing cycles."""
    vals = _values(_parse(data, n)[0])
    nxt = np.roll(vals, -1)
    keys = np.minimum(vals, nxt) << n | np.maximum(vals, nxt)
    return np.sort(keys).tobytes()


def check_families(data: bytes, k: int, masks: tuple[int, ...]) -> list[str]:
    """Failures of a families run; empty if none.

    The run prints, per mask, a header ``# mask <m> verify <pass|fail>`` and
    then the cycle in bits format. Each cycle must pass ``check_odd``, the
    library's own ``verify_certificate`` must have passed, and no two masks
    may give the same edge set.
    """
    blocks = data.split(b"# mask ")
    if blocks[0]:
        return ["output does not start with a mask header"]
    blocks = blocks[1:]
    if len(blocks) != len(masks):
        return [f"{len(blocks)} cycles instead of {len(masks)}"]
    failures = []
    keys = set()
    for mask, block in zip(masks, blocks):
        header, _, body = block.partition(b"\n")
        if header != f"{mask} verify pass".encode():
            failures.append(f"mask {mask}: header {header.decode(errors='replace')!r}")
            continue
        failures += [f"mask {mask}: {f}" for f in check_odd(body, k)]
        if not failures:
            keys.add(edge_key(body, 2 * k + 1))
    if not failures and len(keys) != len(masks):
        failures.append(f"{len(masks)} masks gave only {len(keys)} distinct edge sets")
    return failures


def check(kind: str, k: int, masks: tuple[int, ...], data: bytes) -> list[str]:
    if kind == "odd":
        return check_odd(data, k)
    if kind == "middle":
        return check_middle(data, k)
    return check_families(data, k, masks)


if __name__ == "__main__":
    kind, k, masks, path = sys.argv[1:]
    masks = tuple(int(m) for m in masks.split(","))
    print(json.dumps(check(kind, int(k), masks, Path(path).read_bytes())))
