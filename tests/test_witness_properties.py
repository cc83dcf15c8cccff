"""Property tests of the witness peel over random seeds and contexts.

``witness`` peels a context on packed integers. Here random seed patterns
are wrapped in random Dyck contexts (wrapped word length at most 16), and
each witness is checked three ways: by ``is_witness``, which rests on the
independent ``factor.locate``; against the recursive peel on ``Bits`` kept
below as the reference; and against the three wrapping moves the peel is
built from. The packed support ``validate_tree`` checks is compared with the
wrapped tuple on ``Bits``, and ``Derivation.of_support`` must read each
derivation back from it. The table-driven renderers of packed values,
``line_renderer`` and ``positions``, are compared with ``bitstring`` and
with the bit-by-bit loop kept below as the reference.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddgray.checking import (
    Context,
    Derivation,
    FlippableTuple,
    apply_context,
    is_witness,
    mirror_tuple,
    witness,
    wrap_marked,
)
from oddgray.flippable import BRIDGE, PATCH, QUAD, fan
from oddgray.words import (
    ONE,
    ZERO,
    bitstring,
    cat,
    complement,
    enumerate_dyck,
    first_return,
    line_renderer,
    mirror,
    positions,
)

MAX_LEN = 16
_DYCK = [enumerate_dyck(j) for j in range(MAX_LEN // 2 + 1)]

# Example times vary with machine load; a per-example deadline would only add flakes.
relaxed = settings(deadline=None)


def reference_witness(pattern, ctx):
    """The recursive peel on ``Bits``: the reference for the packed one."""
    u, v = ctx.prefix, ctx.suffix
    if u.n == 0:
        return tuple(y + v for y in pattern.base_witness())
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
    c = draw(dyck_words((max_len - pattern.tuple().word_length) // 2))
    s = draw(st.integers(0, c.n))
    return pattern, Context(c.slice(1, s), c.slice(s + 1, c.n))


@relaxed
@given(wrapped_seeds())
def test_witness_is_verified(case):
    pattern, ctx = case
    assert is_witness(apply_context(pattern.tuple(), ctx), witness(pattern, ctx))


@relaxed
@given(wrapped_seeds())
def test_packed_peel_matches_reference(case):
    pattern, ctx = case
    ref = reference_witness(pattern, ctx)
    assert Derivation(pattern, ctx).witness_vals() == tuple(y.val for y in ref)
    assert witness(pattern, ctx) == ref


@relaxed
@given(wrapped_seeds())
def test_packed_support_matches_tuple(case):
    d = Derivation(*case)
    t = d.tuple()
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
    outer = Context(ONE + mirror(v), cat(mirror(u), ZERO))
    t = apply_context(pattern.tuple(), ctx)
    assert apply_context(pattern.tuple(), outer) == FlippableTuple.of(
        wrap_marked(m, ONE, ZERO) for m in mirror_tuple(t).members
    )
    wrapped = tuple(cat(ONE, mirror(y), ONE) for y in witness(pattern, ctx))
    assert witness(pattern, outer) == wrapped


@relaxed
@given(wrapped_seeds(), st.data())
def test_prepend_and_append_laws(case, data):
    pattern, ctx = case
    u, v = ctx.prefix, ctx.suffix
    room = (MAX_LEN - apply_context(pattern.tuple(), ctx).word_length) // 2
    d = data.draw(dyck_words(room))
    inner = witness(pattern, ctx)
    assert witness(pattern, Context(d + u, v)) == tuple(complement(d) + y for y in inner)
    assert witness(pattern, Context(u, v + d)) == tuple(y + d for y in inner)


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


@relaxed
@given(packed_values())
def test_line_renderer_matches_bitstring(case):
    val, n = case
    assert line_renderer(n)(val) == bitstring(val, n) + "\n"


def test_line_renderer_covers_every_width():
    for n in range(1, 62):
        render = line_renderer(n)
        for val in (0, 1, (1 << n) - 1, 1 << (n - 1), 0x5555555555555555 >> (64 - n)):
            assert render(val) == bitstring(val, n) + "\n"


@relaxed
@given(packed_values(62))
def test_positions_match_reference(case):
    val, _ = case
    assert positions(val) == reference_positions(val)


def test_positions_cover_every_byte_at_every_offset():
    for shift in range(0, 62, 8):
        for b in range(256):
            val = (b << shift) & ((1 << 62) - 1)
            assert positions(val) == reference_positions(val)
