import tracemalloc
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray import flippable
from oddgray.checking import (
    Context,
    Derivation,
    canonical_witness,
    derivations,
    enumerate_tuples,
    flat_tree,
    hand_tree,
    partition,
    steep_tree,
    tree_json,
    tuple_text,
    validate_tree,
)
from oddgray.flippable import BRIDGE, PATCH, QUAD, fan
from oddgray.spanning import counting_tree, full_tree, mask_width
from oddgray.words import ONE, ZERO, Bits, EMPTY, cat, complement, enumerate_dyck, mirror

B = Bits.parse


def tuple_set(tree):
    return frozenset(e.tup for e in tree.entries)


def wrap(pattern, ctx=Context()):
    return Derivation(pattern, ctx).tuple()


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def tree_of(base, tuples):
    """A tree made by hand over ``base`` from bare pool tuples, through their derivations."""
    ds = [derivations(t)[0] for t in tuples]
    assert [d.tuple() for d in ds] == list(tuples)
    return hand_tree(base, ds)


# ---------------------------------------------------------------- partition


def test_partition_small():
    p = partition(2)
    assert p.flat == {B("1010")} and p.steep == {B("1100")}
    p = partition(3)
    assert p.steep == {B("110010")}
    assert p.flat == set(enumerate_dyck(3)) - {B("110010")}


def test_partition_is_prefix_split_for_k_at_least_4():
    for k in (4, 5, 6):
        p = partition(k)
        shifted = {B("10") + x for x in enumerate_dyck(k - 1)}
        assert p.flat == shifted
        assert p.steep == set(enumerate_dyck(k)) - shifted
        assert len(p.flat) == catalan(k - 1)


def test_partition_membership_anchors():
    for k in range(2, 10):
        p = partition(k)
        assert B("1010" + "10" * (k - 2)) in p.flat
        assert B("1100" + "10" * (k - 2)) in p.steep


def test_partition_rejects_tiny():
    with pytest.raises(ValueError):
        partition(1)


# ---------------------------------------------------------------- builders


def test_full_tree_3_is_the_published_pair():
    assert tuple_set(full_tree(3)) == {wrap(fan()), wrap(BRIDGE)}


def test_steep_tree_4_literals():
    expected = {
        wrap(fan(B("10"))),
        wrap(PATCH),
        wrap(BRIDGE, Context(B("1"), B("0"))),
        wrap(fan(), Context(EMPTY, B("10"))),
    }
    assert tuple_set(steep_tree(4)) == expected


def test_flat_tree_4_is_shifted_full_tree_3():
    ten = B("10")
    expected = {
        wrap(fan(), Context(ten, EMPTY)),
        wrap(BRIDGE, Context(ten, EMPTY)),
    }
    assert tuple_set(flat_tree(4)) == expected


def test_tuple_size_accounting():
    for k in range(3, 8):
        t = full_tree(k)
        assert sum(len(e.tup.members) - 1 for e in t.entries) == catalan(k) - 1


def test_trees_validate():
    for k in range(2, 9):
        assert validate_tree(flat_tree(k)).passed, k
        assert validate_tree(steep_tree(k)).passed, k
        if k >= 3:
            assert validate_tree(full_tree(k)).passed, k


def test_tree_entries_carry_their_derivations():
    # ``tup`` is computed from the derivation, so compare it with the packed
    # support that validate_tree reads from the same derivation.
    for k in (3, 4, 5, 6):
        for e in full_tree(k).entries:
            members, n = e.derivation.support_vals()
            assert set(members) == {(m.word.val, m.mark) for m in e.tup.members}
            assert n == e.tup.word_length


def wrapped_entries(tree):
    """Each entry as its derivation's closed-form wrap gives it: the reference for the packed
    recursion."""
    return tuple((e.derivation.pattern, e.derivation.support_vals()[0]) for e in tree.entries)


@pytest.mark.parametrize("k", range(3, 11))
def test_packed_entries_match_the_peel(k):
    # The carry laws give every support the closed-form wrap gives, in tree order.
    tree = full_tree(k)
    assert tree.packed == wrapped_entries(tree)
    if k < 9:
        for part in (flat_tree(k), steep_tree(k)):
            assert part.packed == wrapped_entries(part)


@settings(deadline=None, max_examples=12)
@given(st.data())
def test_packed_entries_match_the_peel_on_random_masks(data):
    k = data.draw(st.integers(6, 9))
    mask = data.draw(st.integers(0, (1 << mask_width(k)) - 1))
    tree = counting_tree(k, mask)
    assert tree.packed == wrapped_entries(tree)


# The list recursion on ``Bits``: the reference for the composed maps. Its
# three moves are the carry laws of ``flippable``'s docstring, written on
# whole entries (pattern, witness, ((word, mark), ...)). The generation path
# carries no witness; here each seed's literal witness is moved along with its
# support, and must equal the witness derived from the entry's support.

SEED_WITNESSES = {
    "bridge": "111000 111001 011001 011011 011010 111010",
    "patch": "11011100 10011100 10011101 10011001 11011001 11011000",
    "quad": "111000 111001 110001 110011 010011 011011 011010 111010",
}
FAN_TAILS = "00101 00111 00110 10110 10100 10101"  # fan(w)'s witness is 1 w t for these t


def ref_seed(p):
    """The seed's entry in the empty context: its literal witness, its members in seed order."""
    if p.family == "fan":
        witness = tuple(cat(ONE, p.inner, B(t)) for t in FAN_TAILS.split())
    else:
        witness = tuple(map(B, SEED_WITNESSES[p.family].split()))
    n = p.word_length
    return p, witness, tuple((Bits(x, n), m) for x, m in Derivation(p).support_vals()[0])


def ref_shift(entries, p):
    """p T: witness y -> ~p y, support (x, m) -> (p x, m + |p|)."""
    return [
        (pat, tuple(complement(p) + y for y in ws), tuple((p + x, m + p.n) for x, m in ss))
        for pat, ws, ss in entries
    ]


def ref_wrap(entries):
    """1 mirror(T) 0: witness y -> 1 mirror(y) 1, support (x, m) -> (1 mirror(x) 0, |x| + 2 - m)."""
    return [
        (
            pat,
            tuple(cat(ONE, mirror(y), ONE) for y in ws),
            tuple((cat(ONE, mirror(x), ZERO), x.n + 2 - m) for x, m in ss),
        )
        for pat, ws, ss in entries
    ]


def ref_append(entries, v):
    """T v: witness y -> y v, support (x, m) -> (x v, m)."""
    return [
        (pat, tuple(y + v for y in ws), tuple((x + v, m) for x, m in ss)) for pat, ws, ss in entries
    ]


def ref_alternating(j):
    return B("10" * j)


@cache
def ref_flat(j):
    if j == 2:
        return []
    if j == 3:
        return [ref_seed(QUAD)]
    return ref_shift(ref_full(j - 1), B("10"))


def ref_alt_flat_4():
    quad, ten = ref_seed(QUAD), B("10")
    return [
        *ref_wrap([quad]),
        ref_seed(fan(ten)),
        *ref_append([ref_seed(fan())], ten),
        *ref_append([ref_seed(BRIDGE)], ten),
        *ref_shift([quad], ten),
    ]


@cache
def ref_steep(j, chosen=frozenset()):
    if j < 4:
        return []
    ten = B("10")
    if j == 4:
        return [
            ref_seed(fan(ten)),
            ref_seed(PATCH),
            *ref_wrap([ref_seed(BRIDGE)]),
            *ref_append([ref_seed(fan())], ten),
        ]
    out = ref_shift(ref_full(j - 2), B("1100"))
    for i in range(3, j + 1):
        for v in enumerate_dyck(j - i):
            if i == 5 and v in chosen:
                group = [ref_seed(fan(B("1100"))), *ref_wrap(ref_alt_flat_4())]
            else:
                wrapped = ref_wrap([*ref_flat(i - 1), *ref_steep(i - 1)])
                group = [ref_seed(fan(ref_alternating(i - 3))), *wrapped]
            out += ref_append(group, v)
    return out


@cache
def ref_full(j, chosen=frozenset()):
    if j == 3:
        return [ref_seed(fan()), ref_seed(BRIDGE)]
    return [
        *ref_steep(j, chosen),
        *ref_append([ref_seed(BRIDGE)], ref_alternating(j - 3)),
        *ref_shift(ref_flat(j - 1), B("10")),
        *ref_shift(ref_steep(j - 1), B("10")),
    ]


def packed(entries):
    return tuple((pat, tuple((x.val, m) for x, m in ss)) for pat, _, ss in entries)


def assert_matches(tree, entries):
    """The tree's packed entries are the reference's, and each witness derived from an entry's
    support is the literal witness the reference moved along."""
    assert tree.packed == packed(entries)
    derived = [e.derivation.witness_vals() for e in tree.entries]
    assert derived == [tuple(y.val for y in ws) for _, ws, _ in entries]


def chosen_words(k, mask):
    return frozenset(w for i, w in enumerate(enumerate_dyck(k - 5)) if mask >> i & 1)


@pytest.mark.parametrize("k", range(3, 11))
def test_full_tree_matches_the_list_recursion(k):
    assert_matches(full_tree(k), ref_full(k))


@pytest.mark.parametrize("k", range(2, 9))
def test_flat_and_steep_trees_match_the_list_recursion(k):
    assert_matches(flat_tree(k), ref_flat(k))
    assert_matches(steep_tree(k), ref_steep(k))


@settings(deadline=None, max_examples=12)
@given(st.data())
def test_counting_trees_match_the_list_recursion(data):
    k = data.draw(st.integers(6, 9))
    mask = data.draw(st.integers(0, (1 << mask_width(k)) - 1))
    assert_matches(counting_tree(k, mask), ref_full(k, chosen_words(k, mask)))


def test_full_tree_holds_no_memo_while_building():
    # The traced peak of the build is what the tree holds, give or take 5 %.
    enumerate_dyck(10)
    tracemalloc.start()
    try:
        tree = full_tree(10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.packed) > 0
    assert peak <= 1.05 * held, (peak, held)


def test_hand_built_tree_wraps_its_derivations():
    tree = counting_tree(7, 3)
    hand = hand_tree(tree.base, [e.derivation for e in tree.entries])
    assert (hand.packed, hand.n) == (tree.packed, tree.n)


def test_wrapping_a_derivation_composes_no_move(monkeypatch):
    # The checking side wraps a seed in its context by the closed form, so it
    # shares no map composition with the recursion whose entries it checks.
    tree = counting_tree(7, 3)
    ds = [e.derivation for e in tree.entries]
    d = Derivation(BRIDGE, Context(ONE, cat(ZERO, ONE, ZERO)))
    witness = d.witness_vals()

    def composed(*args):
        raise AssertionError("a move was composed")

    monkeypatch.setattr(flippable, "compose", composed)
    hand = hand_tree(tree.base, ds)
    assert (hand.packed, hand.n) == (tree.packed, tree.n)
    assert d.witness_vals() == witness


def test_tree_tuples_are_pool_members():
    for k in (3, 4, 5):
        pool = set(enumerate_tuples(k))
        for e in full_tree(k).entries:
            assert e.tup in pool


def test_full_tree_rejects_tiny():
    with pytest.raises(ValueError):
        full_tree(2)


# ---------------------------------------------------------------- validation


def test_validate_rejects_undersized():
    base = frozenset(enumerate_dyck(3))
    r = validate_tree(tree_of(base, [wrap(fan())]))
    assert not r.passed
    assert any("accounting" in f or "components" in f for f in r.failures)


def test_validate_rejects_overlapping_supports():
    base = frozenset(enumerate_dyck(3))
    r = validate_tree(tree_of(base, [wrap(fan()), wrap(QUAD)]))
    assert not r.passed
    assert any("share" in f for f in r.failures)


def test_validate_rejects_foreign_support():
    base = frozenset(enumerate_dyck(3)) - {B("101010")}
    r = validate_tree(tree_of(base, [wrap(BRIDGE)]))
    assert not r.passed
    assert any("base set" in f for f in r.failures)


def test_validate_rejects_support_of_another_length():
    # Supports are compared as packed integers. The k = 3 tree must fail
    # both on the k = 4 words and on length-8 words packing to the same
    # values as its own words, where only the length tells them apart.
    tuples = [wrap(fan()), wrap(BRIDGE)]
    assert validate_tree(tree_of(frozenset(enumerate_dyck(3)), tuples)).passed
    for base in (
        frozenset(enumerate_dyck(4)),
        frozenset(Bits(x.val, 8) for x in enumerate_dyck(3)),
    ):
        r = validate_tree(tree_of(base, tuples))
        assert not r.passed
        assert any("leaves the base set" in f for f in r.failures)


def recursive_spanning(base, tuples):
    """Oracle: the block-splitting recursive definition of a spanning hypertree."""
    base = frozenset(base)
    tuples = list(tuples)
    if len(base) == 1:
        return tuples == []
    for i, t in enumerate(tuples):
        rest = tuples[:i] + tuples[i + 1 :]
        if not t.support <= base:
            continue
        # components of the incidence structure after removing t
        comp = {x: x for x in base}

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for r in rest:
            ws = list(r.support)
            for w in ws[1:]:
                ra, rb = find(ws[0]), find(w)
                if ra != rb:
                    comp[rb] = ra
        blocks = {}
        for x in base:
            blocks.setdefault(find(x), set()).add(x)
        roots = {find(w) for w in t.support}
        if len(roots) != len(t.support) or len(roots) != len(blocks):
            continue
        ok = True
        for root, block in blocks.items():
            sub = [r for r in rest if r.support <= block]
            others = [r for r in rest if r.support & block and not r.support <= block]
            if others or not recursive_spanning(block, sub):
                ok = False
                break
        if ok:
            return True
    return False


def test_validate_matches_recursive_definition_exhaustively():
    # validate_tree adds the mark condition on top of the structural
    # definition, so compare against (recursive oracle) and (no conflicts).
    from oddgray.checking import conflict_violations

    pool3 = enumerate_tuples(3)
    base3 = frozenset(enumerate_dyck(3))
    for r in range(0, len(pool3) + 1):
        for sub in combinations(pool3, r):
            fast = validate_tree(tree_of(base3, sub)).passed
            slow = recursive_spanning(base3, sub) and not conflict_violations(sub)
            assert fast == slow
    pool4 = enumerate_tuples(4)
    base4 = frozenset(enumerate_dyck(4))
    for r in (4, 5):
        for sub in combinations(pool4, r):
            fast = validate_tree(tree_of(base4, sub)).passed
            slow = recursive_spanning(base4, sub) and not conflict_violations(sub)
            assert fast == slow


def test_builder_trees_match_recursive_definition():
    for k in (3, 4, 5):
        t = full_tree(k)
        assert recursive_spanning(t.base, [e.tup for e in t.entries])


def test_unique_conflict_free_tree_at_semilength_3():
    pool = enumerate_tuples(3)
    base = frozenset(enumerate_dyck(3))
    winners = [
        set(sub)
        for r in range(0, len(pool) + 1)
        for sub in combinations(pool, r)
        if validate_tree(tree_of(base, sub)).passed
    ]
    assert winners == [{wrap(fan()), wrap(BRIDGE)}]


# ---------------------------------------------------------------- counting


def test_mask_width():
    assert mask_width(6) == 1
    assert mask_width(7) == 2
    assert mask_width(8) == 5
    with pytest.raises(ValueError):
        mask_width(5)


def test_counting_tree_mask_zero_is_the_plain_tree():
    assert tuple_set(counting_tree(6, 0)) == tuple_set(full_tree(6))


def test_counting_tree_uses_alternate_connector():
    t = counting_tree(6, 1)
    connector = wrap(fan(B("1100")), Context(EMPTY, B("10")))
    assert connector in tuple_set(t)
    assert connector not in tuple_set(full_tree(6))


def test_counting_trees_distinct_and_valid():
    for k in (6, 7, 8):
        seen = set()
        for mask in range(1 << mask_width(k)):
            t = counting_tree(k, mask)
            if k < 8:
                assert validate_tree(t).passed
            seen.add(tuple_set(t))
        assert len(seen) == 1 << mask_width(k)


def test_counting_tree_rejects_bad_mask():
    with pytest.raises(ValueError):
        counting_tree(6, 2)
    with pytest.raises(ValueError):
        counting_tree(5, 0)


def test_tree_witnesses_edge_disjoint():
    for k in (3, 4, 5, 6):
        seen = set()
        for e in full_tree(k).entries:
            cycle = canonical_witness(e.tup)
            m = len(cycle)
            for i in range(m):
                edge = frozenset((cycle[i], cycle[(i + 1) % m]))
                assert edge not in seen
                seen.add(edge)


def test_tuple_text_renders_an_entry_as_its_tuple():
    # Failure texts name an entry by ``tuple_text``, ``verify_tree`` by ``str`` of its tuple.
    trees = [full_tree(k) for k in range(3, 9)] + [counting_tree(7, m) for m in range(4)]
    for tree in trees:
        for i, e in enumerate(tree.entries):
            assert tuple_text(tree, i) == str(e.tup)


def test_tree_json_shape():
    payload = tree_json(full_tree(3))
    assert sorted(payload) == ["base", "tuples"]
    assert payload["base"] == sorted(str(x) for x in enumerate_dyck(3))
    assert {m["word"] for t in payload["tuples"] for m in t["members"]} <= set(
        payload["base"]
    )
    for t in payload["tuples"]:
        assert set(t["derivation"]) == {"family", "inner", "prefix", "suffix"}
