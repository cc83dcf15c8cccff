"""Property tests of the closed-form wrap over random seeds and contexts.

A ``Derivation`` wraps a seed in its context on packed integers, by one
map. Here random seed patterns are wrapped in random Dyck contexts (wrapped
word length at most 16), and each witness is checked three ways: by
``is_witness``, which rests on the independent ``factor.locate``; against
the recursive peel on ``Bits`` kept below as the reference; and against the
laws of the three wrapping moves (shift, mirror-wrap and append) the
spanning recursion composes. The packed support ``validate_tree`` checks
is compared with the wrap on ``Bits``, member by member, kept below as the
reference, and ``Derivation.of_support`` must read each derivation back
from it. The table-driven renderers of packed values,
``line_renderer``, ``subset_mapper`` and ``subset_line_renderer``, and the bit
loop ``positions`` are compared with ``bitstring`` and with the peel kept below
as the reference, and ``column_lines``, which renders the values a walk of
flip positions leaves a column at a time, with ``line_renderer`` over them.
"""

import random
from functools import cache
from itertools import accumulate
from operator import xor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddgray.checking import Context, Derivation, FlippableTuple, MarkedWord, is_witness
from oddgray.flippable import BRIDGE, PATCH, QUAD, fan
from oddgray.words import (
    ONE,
    ZERO,
    bitstring,
    cat,
    column_lines,
    complement,
    enumerate_dyck,
    first_return,
    line_renderer,
    mirror,
    positions,
    subset_line_renderer,
    subset_mapper,
)

MAX_LEN = 16
_DYCK = [enumerate_dyck(j) for j in range(MAX_LEN // 2 + 1)]

# Example times vary with machine load; a per-example deadline would only add flakes.
relaxed = settings(deadline=None)


def wrap_marked(m, u, v):
    """u (x, mark) v = (u x v, |u| + mark)."""
    return MarkedWord(cat(u, m.word, v), u.n + m.mark)


def mirror_marked(m):
    return MarkedWord(mirror(m.word), m.word.n + 1 - m.mark)


def mirror_tuple(t):
    return FlippableTuple.of(mirror_marked(m) for m in t.members)


def reference_tuple(pattern, ctx):
    """The wrap on ``Bits``: the seed (its mirror for an odd prefix) wrapped member by member,
    the reference for ``Derivation.tuple``."""
    t = Derivation(pattern).tuple()
    base = t if ctx.prefix.n % 2 == 0 else mirror_tuple(t)
    return FlippableTuple.of(wrap_marked(m, ctx.prefix, ctx.suffix) for m in base.members)


def reference_witness(pattern, ctx):
    """The recursive peel on ``Bits``: the reference for the packed closed form."""
    u, v = ctx.prefix, ctx.suffix
    if u.n == 0:
        return tuple(y + v for y in Derivation(pattern).witness())
    p = first_return(u + v)
    if p <= u.n:
        inner = reference_witness(pattern, Context(u.slice(p + 1, u.n), v))
        pre = complement(u.slice(1, p))
        return tuple(pre + y for y in inner)
    q = p - u.n
    inner = reference_witness(
        pattern, Context(mirror(v.slice(1, q - 1)), mirror(u.slice(2, u.n)))
    )
    tail = v.slice(q + 1, v.n)
    return tuple(cat(ONE, mirror(y), ONE, tail) for y in inner)


def dyck_words(max_semilength):
    return st.integers(0, max_semilength).flatmap(lambda j: st.sampled_from(_DYCK[j]))


@st.composite
def wrapped_seeds(draw, max_len=MAX_LEN):
    """A seed pattern and a context whose wrapped words have length <= max_len."""
    pattern = draw(
        st.one_of(
            st.sampled_from((BRIDGE, PATCH, QUAD)),
            dyck_words((max_len - 6) // 2).map(fan),
        )
    )
    c = draw(dyck_words((max_len - pattern.word_length) // 2))
    s = draw(st.integers(0, c.n))
    return pattern, Context(c.slice(1, s), c.slice(s + 1, c.n))


@relaxed
@given(wrapped_seeds())
def test_witness_is_verified(case):
    d = Derivation(*case)
    assert is_witness(d.tuple(), d.witness())


@relaxed
@given(wrapped_seeds())
def test_packed_peel_matches_reference(case):
    pattern, ctx = case
    ref = reference_witness(pattern, ctx)
    assert Derivation(pattern, ctx).witness_vals() == tuple(y.val for y in ref)
    assert Derivation(pattern, ctx).witness() == ref


@relaxed
@given(wrapped_seeds())
def test_packed_support_matches_tuple(case):
    d = Derivation(*case)
    t = reference_tuple(*case)
    assert d.tuple() == t
    members, n = d.support_vals()
    assert len(members) == len(t.members)
    assert set(members) == {(m.word.val, m.mark) for m in t.members}
    assert n == t.word_length


_EVEN, _ODD = Context(cat(ONE, ZERO), cat(ONE, ZERO)), Context(ONE, ZERO)


@relaxed
@given(wrapped_seeds())
@example((fan(cat(ONE, ZERO)), _EVEN))
@example((fan(cat(ONE, ZERO)), _ODD))
@example((BRIDGE, _EVEN))
@example((BRIDGE, _ODD))
@example((PATCH, _EVEN))
@example((PATCH, _ODD))
@example((QUAD, _EVEN))
@example((QUAD, _ODD))
def test_support_reads_back_its_derivation(case):
    d = Derivation(*case)
    assert Derivation.of_support(d.pattern, *d.support_vals()) == d


@relaxed
@given(wrapped_seeds(MAX_LEN - 2))
def test_mirror_wrap_law(case):
    # (u, v) -> (1 mirror(v), mirror(u) 0) flips the prefix parity, so the
    # wrapped tuple is 1 mirror(t) 0 and each witness vertex y becomes 1 mirror(y) 1.
    pattern, ctx = case
    u, v = ctx.prefix, ctx.suffix
    inner = Derivation(pattern, ctx)
    outer = Derivation(pattern, Context(ONE + mirror(v), cat(mirror(u), ZERO)))
    assert outer.tuple() == FlippableTuple.of(
        wrap_marked(m, ONE, ZERO) for m in mirror_tuple(inner.tuple()).members
    )
    assert outer.witness() == tuple(cat(ONE, mirror(y), ONE) for y in inner.witness())


@relaxed
@given(wrapped_seeds(), st.data())
def test_prepend_and_append_laws(case, data):
    pattern, ctx = case
    u, v = ctx.prefix, ctx.suffix
    room = (MAX_LEN - pattern.word_length - u.n - v.n) // 2
    d = data.draw(dyck_words(room))
    inner = Derivation(pattern, ctx).witness()
    prepended = Derivation(pattern, Context(d + u, v)).witness()
    assert prepended == tuple(complement(d) + y for y in inner)
    assert Derivation(pattern, Context(u, v + d)).witness() == tuple(y + d for y in inner)


def reference_positions(val):
    """The 1-based positions of the set bits, peeled lowest first: the reference for ``positions``."""
    out = []
    while val:
        low = val & -val
        out.append(low.bit_length())
        val ^= low
    return tuple(out)


@st.composite
def packed_values(draw, max_n=61):
    n = draw(st.integers(1, max_n))
    return draw(st.integers(0, (1 << n) - 1)), n


@st.composite
def odd_vertices(draw):
    """A k-subset of [2k+1] for k = 3..30, packed, and its width 2k + 1."""
    k = draw(st.integers(3, 30))
    members = draw(st.lists(st.integers(0, 2 * k), min_size=k, max_size=k, unique=True))
    return sum(1 << p for p in members), 2 * k + 1


def edge_values(n):
    """Values of n bits every renderer is tried on at width n.

    They are 0, 1, all n bits, the top bit, every second bit, and three
    values of weight k = n // 2: the lowest k bits, the highest k bits and
    positions 2, 4, ..., 2k.
    """
    low = (1 << n // 2) - 1
    alternate = 0xAAAAAAAAAAAAAAAA & (1 << 2 * (n // 2)) - 1
    every_second = 0x5555555555555555 >> (64 - n)
    return (0, 1, (1 << n) - 1, 1 << (n - 1), every_second, low, low << (n - n // 2), alternate)


def subset_line(val):
    """The subset line of a packed value, joined position by position: the reference."""
    return "{" + ",".join(map(str, reference_positions(val))) + "}\n"


@relaxed
@given(packed_values())
def test_line_renderer_matches_bitstring(case):
    val, n = case
    assert line_renderer(n)(val) == bitstring(val, n) + "\n"


def test_line_renderer_covers_every_width():
    for n in range(1, 62):
        render = line_renderer(n)
        for val in edge_values(n):
            assert render(val) == bitstring(val, n) + "\n"


# Block lengths for column_lines: empty, one position, one 64-bit word, past a 4,096 block.
BLOCK_SIZES = (0, 1, 64, 4097)


def walked_lines(n, steps, start, blocks):
    """``line_renderer(n)`` over the values the blocks leave, one ``accumulate`` over all."""
    flips = b"".join(blocks)
    vals = list(accumulate(map(steps.__getitem__, flips), xor, initial=start))[:-1]
    return "".join(map(line_renderer(n), vals))


def check_column_lines(n, steps, start, blocks):
    out = list(column_lines(n, start, steps, blocks))
    assert all(type(text) is str for text in out)
    assert [len(text) for text in out] == [len(b) * (n + 1) for b in blocks if b]
    assert "".join(out) == walked_lines(n, steps, start, blocks)


@st.composite
def walks(draw):
    """A width n, a step table of n-bit values, a start value and blocks of positions into it."""
    n = draw(st.integers(1, 61))
    value = st.integers(0, (1 << n) - 1)
    steps = draw(st.lists(value, min_size=1, max_size=64))
    rng = draw(st.randoms(use_true_random=False))
    sizes = draw(st.lists(st.sampled_from(BLOCK_SIZES), max_size=3))
    return n, steps, draw(value), [bytes(rng.choices(range(len(steps)), k=s)) for s in sizes]


@relaxed
@given(walks())
def test_column_lines_match_line_renderer(case):
    check_column_lines(*case)


def test_column_lines_cover_every_width():
    rng = random.Random(2017)
    for n in range(1, 62):
        steps = [rng.getrandbits(n) for _ in range(2 * n + 1)]
        blocks = [bytes(rng.choices(range(len(steps)), k=s)) for s in BLOCK_SIZES]
        check_column_lines(n, steps, rng.getrandbits(n), blocks)


@relaxed
@given(packed_values(62))
def test_positions_match_reference(case):
    val, _ = case
    assert positions(val) == reference_positions(val)


cached_subset_mapper = cache(subset_mapper)
cached_subset_line_renderer = cache(subset_line_renderer)


@relaxed
@given(packed_values())
def test_subset_mapper_matches_reference(case):
    val, n = case
    assert cached_subset_mapper(n)(val) == reference_positions(val)


@relaxed
@given(odd_vertices())
def test_subset_line_renderer_matches_reference(case):
    val, n = case
    assert cached_subset_line_renderer(n)(val) == subset_line(val)


def test_subset_mapper_covers_every_width():
    # and the subset line renderer, at every odd width 2k + 1, k = 3..30, among them
    for n in range(1, 62):
        subset, line = subset_mapper(n), subset_line_renderer(n)
        for val in edge_values(n):
            assert subset(val) == reference_positions(val)
            if val:
                assert line(val) == subset_line(val)


def test_positions_cover_every_byte_at_every_offset():
    for shift in range(0, 62, 8):
        for b in range(256):
            val = (b << shift) & ((1 << 62) - 1)
            assert positions(val) == reference_positions(val)
