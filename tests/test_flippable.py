import pytest

from oddgray.checking import (
    Context,
    FlippableTuple,
    MarkedWord,
    apply_context,
    canonical_witness,
    conflict_violations,
    derivations,
    enumerate_tuples,
    is_witness,
    mirror_marked,
    mirror_tuple,
    witness,
    wrap_marked,
)
from oddgray.flippable import BRIDGE, PATCH, QUAD, fan
from oddgray.words import Bits, EMPTY, enumerate_dyck

B = Bits.parse


def marked(text, mark):
    return MarkedWord(B(text), mark)


def tup(*pairs):
    return FlippableTuple.of(marked(t, m) for t, m in pairs)


def test_pattern_literals():
    assert fan().tuple() == tup(("111000", 5), ("110100", 6), ("110010", 2))
    assert BRIDGE.tuple() == tup(("111000", 6), ("101100", 5), ("101010", 1))
    assert PATCH.tuple() == tup(("11001100", 2), ("11011000", 8), ("11101000", 6))
    assert QUAD.tuple() == tup(
        ("111000", 6), ("110100", 5), ("101100", 3), ("101010", 1)
    )
    assert fan(B("10")).tuple() == tup(
        ("11011000", 7), ("11010100", 8), ("11010010", 4)
    )


def test_base_witness_literals():
    assert [str(v) for v in BRIDGE.base_witness()] == [
        "111000", "111001", "011001", "011011", "011010", "111010",
    ]
    assert [str(v) for v in fan().base_witness()] == [
        "100101", "100111", "100110", "110110", "110100", "110101",
    ]
    assert [str(v) for v in PATCH.base_witness()] == [
        "11011100", "10011100", "10011101", "10011001", "11011001", "11011000",
    ]
    assert [str(v) for v in QUAD.base_witness()] == [
        "111000", "111001", "110001", "110011", "010011", "011011", "011010", "111010",
    ]


def test_seeds_mark_their_first_two_members_differently():
    # Derivation.of_support tells an odd prefix from an even one by this.
    fans = [fan(w) for j in range(5) for w in enumerate_dyck(j)]
    for p in (BRIDGE, PATCH, QUAD, *fans):
        first, second = p.tuple().members[:2]
        assert first.mark != second.mark, p


def test_base_witnesses_verify():
    for p in (fan(), fan(B("10")), BRIDGE, PATCH, QUAD):
        assert is_witness(p.tuple(), p.base_witness())


def test_marked_word_validation():
    with pytest.raises(ValueError):
        MarkedWord(B("10"), 3)
    with pytest.raises(ValueError):
        MarkedWord(B("10"), 0)


def test_wrap_marked():
    m = marked("101100", 5)
    assert wrap_marked(m, B("1"), B("010")) == marked("1101100010", 6)
    assert wrap_marked(m, EMPTY, EMPTY) == m
    with pytest.raises(ValueError):
        wrap_marked(m, B("01"), EMPTY)


def test_mirror_marked():
    assert mirror_marked(marked("101100", 5)) == marked("110010", 2)
    # involution
    for m in BRIDGE.tuple().members:
        assert mirror_marked(mirror_marked(m)) == m


def test_tuple_canonical_form():
    t1 = tup(("111000", 6), ("101100", 5), ("101010", 1))
    t2 = tup(("101010", 1), ("111000", 6), ("101100", 5))
    assert t1 == t2
    assert t1.members == tuple(sorted(t1.members, key=lambda m: (m.word, m.mark)))


def test_tuple_validation():
    with pytest.raises(ValueError):
        tup(("111000", 1), ("101010", 2))  # too few members
    with pytest.raises(ValueError):
        tup(("111000", 1), ("111000", 2), ("101010", 3))  # repeated word
    with pytest.raises(ValueError):
        tup(("111000", 1), ("101010", 2), ("10", 1))  # mixed lengths


def test_context_validation():
    with pytest.raises(ValueError):
        Context(B("0"), B("1"))
    Context(B("1"), B("0"))
    Context(EMPTY, B("1100"))


def test_apply_context_examples():
    assert apply_context(BRIDGE.tuple(), Context(EMPTY, B("10"))) == tup(
        ("11100010", 6), ("10110010", 5), ("10101010", 1)
    )
    assert apply_context(BRIDGE.tuple(), Context(B("1"), B("0"))) == tup(
        ("11110000", 2), ("11100100", 3), ("11010100", 7)
    )
    t = QUAD.tuple()
    assert apply_context(t, Context()) == t


def test_apply_context_odd_prefix_matches_memberwise_mirror():
    for p in (fan(), BRIDGE, QUAD, PATCH):
        t = p.tuple()
        for prefix, suffix in ((B("1"), B("0")), (B("101"), B("0")), (B("1"), B("100"))):
            via_context = apply_context(t, Context(prefix, suffix))
            memberwise = FlippableTuple.of(
                wrap_marked(mirror_marked(m), prefix, suffix) for m in t.members
            )
            assert via_context == memberwise


def test_witness_append():
    got = witness(fan(), Context(EMPTY, B("10")))
    assert got == tuple(y + B("10") for y in fan().base_witness())
    assert is_witness(apply_context(fan().tuple(), Context(EMPTY, B("10"))), got)


def test_witness_mirror_wrap():
    # computed by hand from the mirror-wrap rule: vertex y becomes 1 mirror(y) 1
    got = witness(BRIDGE, Context(B("1"), B("0")))
    assert [str(v) for v in got] == [
        "11110001", "10110001", "10110011", "10010011", "11010011", "11010001",
    ]
    assert is_witness(apply_context(BRIDGE.tuple(), Context(B("1"), B("0"))), got)


def test_witness_identity_context():
    assert witness(fan(B("10")), Context()) == fan(B("10")).base_witness()


def test_witness_general_contexts():
    # every split of every context word up to total semilength 3
    from oddgray.words import enumerate_dyck

    for extra in range(0, 3):
        for c in enumerate_dyck(extra):
            for s in range(0, len(c) + 1):
                ctx = Context(c.slice(1, s), c.slice(s + 1, len(c)))
                for p in (fan(), BRIDGE, QUAD, PATCH):
                    t = apply_context(p.tuple(), ctx)
                    assert is_witness(t, witness(p, ctx)), (str(p), str(c), s)


def test_is_witness_rejects_size_mismatch():
    assert not is_witness(BRIDGE.tuple(), QUAD.base_witness())


def test_is_witness_rejects_wrong_cycle():
    w = list(BRIDGE.base_witness())
    w[0], w[1] = w[1], w[0]  # breaks single-bit adjacency
    assert not is_witness(BRIDGE.tuple(), tuple(w))
    # a genuine cycle witnessing a different tuple
    assert not is_witness(fan().tuple(), BRIDGE.base_witness())


def test_enumerate_tuples_small():
    assert enumerate_tuples(2) == []
    assert set(enumerate_tuples(3)) == {fan().tuple(), BRIDGE.tuple(), QUAD.tuple()}


def test_enumerate_tuples_semilength_4():
    pool = set(enumerate_tuples(4))
    assert len(pool) == 11
    ten = B("10")
    named = {
        PATCH.tuple(),
        fan(ten).tuple(),
        apply_context(fan().tuple(), Context(EMPTY, ten)),
        apply_context(fan().tuple(), Context(ten, EMPTY)),
        apply_context(fan().tuple(), Context(B("1"), B("0"))),
        apply_context(BRIDGE.tuple(), Context(EMPTY, ten)),
        apply_context(BRIDGE.tuple(), Context(ten, EMPTY)),
        apply_context(BRIDGE.tuple(), Context(B("1"), B("0"))),
        apply_context(QUAD.tuple(), Context(EMPTY, ten)),
        apply_context(QUAD.tuple(), Context(ten, EMPTY)),
        apply_context(QUAD.tuple(), Context(B("1"), B("0"))),
    }
    assert pool == named


def test_pool_tuples_have_verified_witnesses():
    for k in (3, 4, 5):
        for t in enumerate_tuples(k):
            assert is_witness(t, canonical_witness(t)), str(t)


def test_conflict_free_pool():
    for k in (3, 4, 5, 6, 7, 8):
        assert conflict_violations(enumerate_tuples(k)) == []


def test_conflict_example_shared_word_distinct_marks():
    t1, t2 = fan().tuple(), BRIDGE.tuple()
    shared = t1.support & t2.support
    assert shared == {B("111000")}
    assert t1.mark_of(B("111000")) == 5
    assert t2.mark_of(B("111000")) == 6
    assert conflict_violations([t1, t2]) == []


def test_conflict_detects_equal_marks():
    from oddgray.words import enumerate_dyck

    words = [str(w) for w in enumerate_dyck(4)]
    t1 = tup((words[0], 1), (words[1], 1), (words[2], 1))
    t2 = tup((words[0], 1), (words[3], 1), (words[4], 1))
    violations = conflict_violations([t1, t2])
    assert len(violations) == 1
    assert violations[0][2] == B(words[0])


def test_derivations_found_for_pool():
    # Each pool tuple has exactly one derivation, which is why the splice can
    # take the witness of the derivation a tree entry stores.
    for k in (3, 4, 5, 6):
        for t in enumerate_tuples(k):
            ds = derivations(t)
            assert len(ds) == 1, str(t)
            for d in ds:
                assert d.tuple() == t


def test_derivations_empty_for_foreign_tuple():
    t = tup(("111000", 1), ("110100", 1), ("101010", 2))
    assert derivations(t) == []
    with pytest.raises(ValueError):
        canonical_witness(t)


def test_mirror_tuple_involution():
    for t in enumerate_tuples(4):
        assert mirror_tuple(mirror_tuple(t)) == t
