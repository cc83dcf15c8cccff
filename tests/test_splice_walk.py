"""The hop splice and its run walker against the adjacency-dict splice.

``reference_cycle`` below is the earliest assembly: the cycle factor loaded
into a dict of neighbour lists over every vertex, each witness edge toggled
in, and the result traversed from its least vertex toward the smaller
neighbour. The walker, whose flip positions a step table turns into vertices, must
give the same sequence. In odd and middle
coordinates it must give the gplus cycle mapped vertex by vertex with
``odd_val``, and with each closing edge replaced by its detour
(``reference_middle``, the earlier middle-levels stream).

An entry carries no witness: ``witness_of`` below reads each member's named
edge off its factor path, lower end at its first named position, as the
splice does. ``assembly._splice_hops`` is the only splice, and a tree fails
it in one of three ways, each tried here on broken trees: an invalid tree
raises ``validate_tree``'s ``ValueError``, wherever its defect lies; else the
first entry in tree order whose witness has a hop flipping other than one
bit raises an ``AssemblyError`` naming its tuple and the hop's two vertices;
and a walk that does not return after the target's number of vertices, or
returns early, raises an ``AssemblyError`` naming the Dyck origins it missed
and the tuples whose witnesses meet the first of them. Every vertex of the
toggled graph has degree 2, which the reference adjacency shows on random
masks, and a re-marked tree the splice accepts gives a Hamilton cycle.
"""

from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray.assembly import (
    TARGET_GPLUS,
    TARGET_MIDDLE,
    TARGET_ODD,
    AssemblyError,
    _splice_hops,
    _steps,
    _walk_runs,
    odd_val,
    stream_gplus_vals,
    walk_vals,
)
from oddgray.checking import hand_tree, tuple_text, validate_tree, walk_failure
from oddgray.factor import _path_vals, flip_sequence, flip_sequences
from oddgray.spanning import SpanningTree, counting_tree, full_tree, mask_width
from oddgray.verify import verify_cycle
from oddgray.words import Bits, enumerate_dyck


def witness_of(k, entry):
    """An entry's witness: each member's named edge, read off its factor path, at its
    pattern's named positions, lower end first."""
    pattern, support = entry
    cycle = [0] * (2 * len(support))
    for (x, mark), (a, b) in zip(support, pattern.named_edges):
        seq = flip_sequence(Bits(x, 2 * k))
        i = seq.index(mark)
        cycle[a], cycle[b] = _path_vals(x, seq)[i : i + 2]
    return cycle


def reference_adjacency(k, tree):
    """Every vertex's neighbour list: the factor cycles, then each witness toggled in."""
    adj = {}
    for x in enumerate_dyck(k):
        vals = _path_vals(x.val, flip_sequence(x))
        for a, b in zip(vals, vals[1:] + vals[:1]):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    for entry in tree.packed:
        cycle = witness_of(k, entry)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if b in adj[a]:
                adj[a].remove(b)
                adj[b].remove(a)
            else:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def reference_cycle(k, tree):
    adj = reference_adjacency(k, tree)
    assert all(len(nb) == 2 for nb in adj.values())
    start = min(adj)
    prev, cur = start, min(adj[start])
    out = [start]
    while cur != start:
        out.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return out


def reference_middle(k, tree):
    """The reference cycle with 0 appended to each vertex and its closing edges detoured.

    A closing edge {x0, ~x0} of the Dyck word x becomes ~x0, ~x1, ..., x1, x0
    along the complemented factor path of x, with 1 appended.
    """
    full, top = (1 << 2 * k) - 1, 1 << 2 * k
    seq_of = {x.val: flip_sequence(x) for x in enumerate_dyck(k)}
    cycle = reference_cycle(k, tree)
    out = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out.append(a)
        if a ^ b == full:
            x = a if a in seq_of else b
            detour = [w ^ full | top for w in _path_vals(x, seq_of[x])]
            out.extend(reversed(detour) if a == x else detour)
    return out


def component_of_start(k, tree):
    """The vertices of the reference graph's cycle through (1 << k) - 1."""
    adj = reference_adjacency(k, tree)
    seen, todo = set(), [(1 << k) - 1]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(adj[v])
    return seen


@pytest.mark.parametrize("k", range(3, 9))
def test_walk_matches_reference_on_full_tree(k):
    tree = full_tree(k)
    assert list(stream_gplus_vals(k, tree)) == reference_cycle(k, tree)


@settings(deadline=None, max_examples=12)
@given(st.data())
def test_walk_matches_reference_on_random_masks(data):
    k = data.draw(st.integers(6, 8))
    mask = data.draw(st.integers(0, (1 << mask_width(k)) - 1))
    tree = counting_tree(k, mask)
    assert list(stream_gplus_vals(k, tree)) == reference_cycle(k, tree)


@pytest.mark.parametrize("k", range(3, 11))
def test_odd_walk_is_the_gplus_walk_mapped_by_odd_val(k):
    # at k = 3 the start is itself a table vertex
    tree = full_tree(k)
    expected = [odd_val(v, k) for v in stream_gplus_vals(k, tree)]
    assert list(stream_gplus_vals(k, tree, TARGET_ODD)) == expected


@settings(deadline=None, max_examples=12)
@given(st.data())
def test_odd_walk_matches_odd_val_on_random_masks(data):
    k = data.draw(st.integers(6, 9))
    tree = counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1)))
    expected = [odd_val(v, k) for v in stream_gplus_vals(k, tree)]
    assert list(stream_gplus_vals(k, tree, TARGET_ODD)) == expected


@pytest.mark.parametrize("k", range(3, 9))
def test_middle_walk_takes_each_closing_detour(k):
    tree = full_tree(k)
    assert list(stream_gplus_vals(k, tree, TARGET_MIDDLE)) == reference_middle(k, tree)


@settings(deadline=None, max_examples=8)
@given(st.data())
def test_middle_walk_matches_the_detours_on_random_masks(data):
    k = data.draw(st.integers(6, 8))
    tree = counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1)))
    assert list(stream_gplus_vals(k, tree, TARGET_MIDDLE)) == reference_middle(k, tree)


def slot_addresses(masks):
    """Each slot's (origin, named edge, upper), in slot order: path by path, edge by edge."""
    return [
        (o, e, up) for o, m in enumerate(masks) for e in range(m.bit_length()) if m >> e & 1
        for up in (0, 1)
    ]


def end_address(e):
    """The slot address (origin, named edge, upper) of a packed end."""
    up = e >> 6 & 1
    return e >> 13, (e >> 7 & 63) - up, up


def packed_end(o, j, up, p):
    """A hop's far end as a slot holds it: origin o, index j, upper or not, and the hop's position."""
    return ((o << 6 | j) << 1 | up) << 6 | p


def witness_hops(k, tree):
    """Each witness's hop edges, from position 2r + 1 to 2r + 2 and from the last to 0."""
    cycles = [witness_of(k, entry) for entry in tree.packed]
    return {frozenset(hop) for c in cycles for hop in zip(c[1::2], c[2::2] + c[:1])}


def slot_invariants(k, tree):
    """Check the slot splice of a valid tree against the tree's own supports and witnesses."""
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    slots, masks, offset = _splice_hops(k, tree)
    # each path's mask holds the index of each of its marks
    origin = {x.val: o for o, x in enumerate(dyck)}
    expected = [0] * len(dyck)
    for _, support in tree.packed:
        for x, mark in support:
            expected[origin[x]] |= 1 << seqs[origin[x]].index(mark)
    assert list(masks) == expected
    # two slots per member, each path's from its offset on, and every one
    # filled: a packed end is never 0, as its position is not
    addresses = slot_addresses(masks)
    assert len(slots) == len(addresses) == 2 * sum(len(s) for _, s in tree.packed)
    assert all(slots)
    assert list(offset) == [0, *accumulate(2 * m.bit_count() for m in masks)]
    slot_of = {address: s for s, address in enumerate(addresses)}
    paths = [_path_vals(x.val, seqs[o]) for o, x in enumerate(dyck)]
    # every witness vertex ends one named edge or two
    near = [paths[o][e + up] for o, e, up in addresses]
    assert set(near) == {v for entry in tree.packed for v in witness_of(k, entry)}
    hops = set()
    for s, (o, e, up) in enumerate(addresses):
        # the far end is a named-edge end on another path
        o2, e2, up2 = end_address(slots[s])
        assert masks[o2] >> e2 & 1 and o2 != o
        # its slot points back, with the same position
        p = slots[s] & 63
        assert slots[slot_of[o2, e2, up2]] == packed_end(o, e + up, up, p)
        # and the two vertices, read off the paths, differ exactly in bit p
        far = paths[o2][e2 + up2]
        assert near[s] ^ far == 1 << p - 1
        hops.add(frozenset((near[s], far)))
    # the hop edges are the witnesses' own
    assert hops == witness_hops(k, tree)


@pytest.mark.parametrize("k", range(3, 10))
def test_hop_splice_invariants_on_full_tree(k):
    slot_invariants(k, full_tree(k))


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_hop_splice_invariants_on_random_masks(data):
    k = data.draw(st.integers(6, 9))
    slot_invariants(k, counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1))))


def first_wide_hop(k, tree):
    """The index of the first entry, in tree order, whose witness has a hop of other than one
    bit, or None."""
    for idx, entry in enumerate(tree.packed):
        c = witness_of(k, entry)
        if any((u ^ v).bit_count() != 1 for u, v in zip(c[1::2], c[2::2] + c[:1])):
            return idx
    return None


def mutate(draw, k, packed, kind):
    """Apply one mutation of ``kind`` to a random entry of ``packed``, in place."""
    i = draw(st.integers(0, len(packed) - 1))
    pattern, support = packed[i]
    if kind == "drop":
        del packed[i]
    elif kind == "duplicate":
        packed.insert(i, packed[i])
    else:
        pos = draw(st.integers(0, len(support) - 1))
        x, m = support[pos]
        m = draw(st.sampled_from([a for a in range(1, 2 * k + 1) if a != m]))
        packed[i] = pattern, (*support[:pos], (x, m), *support[pos + 1 :])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_hop_splice_fails_as_the_reference_fails(data):
    # A built tree with one or two mutations: an entry dropped or
    # duplicated, or a member re-marked. An invalid tree raises
    # ``validate_tree``'s text. In a valid one, the first entry in tree order
    # whose witness has a hop of more than one bit is named. Any other gives
    # the reference cycle, or fails the count exactly when the reference is
    # not one cycle.
    k = data.draw(st.integers(4, 7))
    packed = list(full_tree(k).packed)
    kinds = st.lists(st.sampled_from(["drop", "duplicate", "mark"]), min_size=1, max_size=2)
    for kind in data.draw(kinds):
        mutate(data.draw, k, packed, kind)
    tree = SpanningTree(enumerate_dyck(k), tuple(packed), 2 * k)
    report = validate_tree(tree)
    if not report.passed:
        with pytest.raises(ValueError) as err:
            stream_gplus_vals(k, tree)
        assert str(err.value) == "invalid spanning tree: " + "; ".join(report.failures)
        return
    idx = first_wide_hop(k, tree)
    if idx is not None:
        with pytest.raises(AssemblyError) as err:
            stream_gplus_vals(k, tree)
        assert str(err.value).startswith("a hop flips")
        assert f": tuple {tuple_text(tree, idx)} " in str(err.value)
        return
    adj = reference_adjacency(k, tree)
    assert all(len(nb) == 2 for nb in adj.values())
    if len(component_of_start(k, tree)) == len(adj):
        assert list(stream_gplus_vals(k, tree)) == reference_cycle(k, tree)
    else:
        with pytest.raises(AssemblyError, match="splice produced more than one cycle"):
            list(stream_gplus_vals(k, tree))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_a_re_marked_tree_the_splice_accepts_gives_a_hamilton_cycle(data):
    # The splice checks no witness but its hops: each witness is read off
    # the factor paths at its named edges. Re-marking members can make the
    # tree invalid or a hop wide; whenever the splice and the walk accept,
    # the independent verifier must pass the cycle. (No re-marking of one
    # entry of the k = 4 or k = 5 tree but the built one gives a witness
    # whose hops all flip one bit, so an accepted tree is mostly the built
    # one, re-marked back.)
    k = data.draw(st.integers(4, 7))
    packed = list(full_tree(k).packed)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data.draw, k, packed, "mark")
    tree = SpanningTree(enumerate_dyck(k), tuple(packed), 2 * k)
    try:
        vals = list(stream_gplus_vals(k, tree))
    except (ValueError, AssemblyError):
        return
    assert verify_cycle(k, TARGET_GPLUS, vals).passed


@settings(deadline=None, max_examples=6)
@given(st.data())
def test_accepted_trees_leave_every_vertex_of_degree_2(data):
    # Why the splice needs no degree check: every witness position holds an
    # end of its member's named edge, each named edge has one owner, a
    # vertex ends at most named edges i - 1 and i of its own path, and the
    # union-find keeps hop edges distinct.
    k = data.draw(st.integers(6, 9))
    tree = counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1)))
    _splice_hops(k, tree)
    assert all(len(nb) == 2 for nb in reference_adjacency(k, tree).values())


def slot_map(masks, hops):
    """``_walk_runs``'s slots, masks and offsets: each slot 0, but those in ``hops``."""
    masks = array("Q", masks)
    offset = array("Q", accumulate((2 * m.bit_count() for m in masks), initial=0))
    slots = array("Q", bytes(8 * offset[-1]))
    for s, far in hops.items():
        slots[s] = far
    return slots, masks, offset


def walked(k, slots, masks, offset, tree):
    """The gplus vertices ``_walk_runs`` leaves over these slots, from the start (1 << k) - 1."""
    blocks = _walk_runs(k, slots, masks, offset, tree, TARGET_GPLUS)
    return walk_vals(((1 << k) - 1, _steps(k, TARGET_GPLUS), blocks))


def test_walk_is_cut_after_the_vertex_count():
    # The start 15 ends named edge 0 of path 0, and its hop, in slot 0, flips
    # position 5 and lands at index 1 of path 1, the upper end of named edge 0
    # and the lower end of named edge 1 there. So the walk stops at once, at
    # slot 4, the lower end of edge 1, which flips 6 and lands at index 1 of
    # path 2; that stops at once too, at slot 8, which flips 7 and lands back.
    # The walk goes back and forth between them and never returns; it stops
    # after binomial(9, 4) = 126 positions, each leaving one vertex.
    end = packed_end
    slots, masks, offset = slot_map(
        [0b1, 0b11, 0b11] + [0] * 11, {0: end(1, 1, 1, 5), 4: end(2, 1, 1, 6), 8: end(1, 1, 1, 7)}
    )
    blocks, out = [], []
    with pytest.raises(AssemblyError, match="did not return to its start after 126 vertices"):
        blocks.extend(_walk_runs(4, slots, masks, offset, full_tree(4), TARGET_GPLUS))
    assert b"".join(blocks) == bytes((5, *(6, 7) * 62, 6))
    with pytest.raises(AssemblyError, match="did not return to its start after 126 vertices"):
        out.extend(walked(4, slots, masks, offset, full_tree(4)))
    assert out[:5] == [15, 31, 63, 127, 95] and len(out) == 126


def test_walk_leaves_up_path_0_and_returns_by_its_closing_step():
    # Path 0 of k = 4 runs 15, 143, 141, ..., 240, path 2 runs 39, ..., 205,
    # 201, 217, 216, and path 5 runs 43, 171, 139, 203, ..., 212. The bridge
    # of the k = 4 tree names the edges 143-141, 205-201 and 139-203, and
    # its hops 141-205, 201-203 and 139-143 flip positions 7, 2 and 3. With
    # only those, the walk leaves the start up path 0 to 143, hops to 139,
    # runs down path 5 past its closing step to 203, hops to 201, runs up
    # path 2 past its closing step to 205, hops to 141 and runs up path 0,
    # whose closing step brings it back to the start: it ran along three
    # factor cycles.
    k, tree = 4, full_tree(4)
    end = packed_end
    slots, masks, offset = slot_map(
        [0b10, 0, 1 << 5, 0, 0, 1 << 2] + [0] * 8,
        {
            0: end(5, 2, 0, 3), 1: end(2, 5, 0, 7), 2: end(0, 2, 1, 7),
            3: end(5, 3, 1, 2), 4: end(0, 1, 0, 3), 5: end(2, 6, 1, 2),
        },
    )
    blocks, out = [], []
    with pytest.raises(AssemblyError) as err:
        blocks.extend(_walk_runs(k, slots, masks, offset, tree, TARGET_GPLUS))
    assert b"".join(blocks) == bytes(
        (8, 3, 6, 8, 0, 1, 3, 2, 5, 4, 2, 5, 1, 0, 8, 6, 7, 2, 4, 7, 6, 4, 5, 3, 7, 1, 0)
    )
    with pytest.raises(AssemblyError):
        out.extend(walked(k, slots, masks, offset, tree))
    assert out == [
        15, 143, 139, 171, 43, 212, 213, 209, 211, 195, 203,
        201, 217, 216, 39, 167, 135, 199, 197, 205,
        141, 173, 165, 181, 177, 241, 240,
    ]
    reached = bytearray(14)
    reached[0] = reached[2] = reached[5] = 1
    assert str(err.value) == walk_failure(k, tree, reached, 27, 126)
    assert str(err.value).startswith(
        "splice produced more than one cycle: the walk reached 27 of 126 vertices, and no "
        "factor path of these 11 of 14 Dyck words: 11101000, 11100010, 11011000, 11010010, "
        "11001100, 11001010, 10111000, 10110100, ...; the witnesses of "
    )


def test_rerouted_hops_fail_the_count_check():
    # Two hop edges {u1, w1} and {u2, w2} of the k = 5 splice become {u1, w2}
    # and {u2, w1}; the first such pair that leaves a factor path out of the
    # start's cycle must be reported with the count of the start's component
    # of the rerouted graph, the paths it misses, and the tuples at the first
    # missed path.
    k = 5
    tree = full_tree(k)
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    slots, masks, offset = _splice_hops(k, tree)
    addresses = slot_addresses(masks)
    slot_of = {address: s for s, address in enumerate(addresses)}
    paths = [_path_vals(x.val, seqs[o]) for o, x in enumerate(dyck)]
    near = [paths[o][e + up] for o, e, up in addresses]
    # hop edges as pairs of slots, in the order of their vertices
    far = [slot_of[end_address(e)] for e in slots]
    pairs = sorted((near[s], near[t], s, t) for s, t in enumerate(far) if near[s] < near[t])
    edges = [(s, t) for _, _, s, t in pairs]

    def component(hops):
        adj = {}
        for o, vals in enumerate(paths):
            for i, (a, b) in enumerate(zip(vals, vals[1:] + vals[:1])):
                if not (i < 2 * k and masks[o] >> i & 1):
                    adj.setdefault(a, []).append(b)
                    adj.setdefault(b, []).append(a)
        for s, e in enumerate(hops):
            adj.setdefault(near[s], []).append(near[slot_of[end_address(e)]])
        seen, todo = set(), [(1 << k) - 1]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(adj[v])
        return seen

    for (u1, w1), (u2, w2) in zip(edges, edges[1:]):
        rerouted = array("Q", slots)
        rerouted[u1], rerouted[w2], rerouted[u2], rerouted[w1] = (
            slots[u2], slots[w1], slots[u1], slots[w2]
        )
        seen = component(rerouted)
        missed = [x for x, vals in zip(dyck, paths) if seen.isdisjoint(vals)]
        if missed:
            break
    else:
        pytest.fail("no rerouting left a factor path out")
    with pytest.raises(AssemblyError) as err:
        list(_walk_runs(k, rerouted, masks, offset, tree, TARGET_GPLUS))
    msg = str(err.value)
    assert msg.startswith(
        f"splice produced more than one cycle: the walk reached {len(seen)} of 462 vertices, "
        f"and no factor path of these {len(missed)} of 42 Dyck words: "
        + ", ".join(map(str, missed[:8]))
    )
    o = dyck.index(missed[0])
    on_path = set(paths[o])
    named = [
        str(e.tup)
        for e, entry in zip(tree.entries, tree.packed)
        if on_path & set(witness_of(k, entry))
    ]
    assert msg.endswith(f"meet the factor path of {missed[0]}: {', '.join(named)}")


def re_marked(tree):
    """``tree`` with entry 0's member 11010010 re-marked from 4 to 5."""
    packed = list(tree.packed)
    pattern, support = packed[0]
    assert support[0] == (Bits.parse("11010010").val, 4)
    packed[0] = pattern, ((support[0][0], 5), *support[1:])
    return SpanningTree(tree.words, tuple(packed), tree.n)


def test_hop_that_flips_two_bits_fails_the_splice():
    # The fan {110[1]0010, 1101010[0], 110110[0]0} of the k = 4 tree with its
    # first member re-marked to 5: the tree still validates, and every
    # witness position holds an end of its member's named edge, but the hop
    # from the fan's last member to its re-marked first flips two bits.
    k = 4
    broken = re_marked(full_tree(k))
    assert validate_tree(broken).passed
    assert first_wide_hop(k, broken) == 0
    with pytest.raises(AssemblyError) as err:
        stream_gplus_vals(k, broken)
    assert str(err.value) == (
        "a hop flips 2 bits: tuple {1101[0]010, 1101010[0], 110110[0]0} hops from "
        "Bits('11000111') on the factor path of 11011000 to Bits('11001110')"
    )


def test_an_invalid_tree_is_reported_before_a_wide_hop():
    # Entry 0 re-marked, as above, and entry 4 dropped: the splice stops at
    # entry 0's hop, before the entry is missed, but the tree is invalid, so
    # ``validate_tree``'s text is raised.
    k = 4
    packed = re_marked(full_tree(k)).packed
    broken = SpanningTree(enumerate_dyck(k), packed[:4] + packed[5:], 2 * k)
    report = validate_tree(broken)
    assert not report.passed
    with pytest.raises(ValueError) as err:
        stream_gplus_vals(k, broken)
    assert str(err.value) == "invalid spanning tree: " + "; ".join(report.failures)


def test_bad_tree_raises_at_call_time():
    # The table is built eagerly, so the error comes before any iteration.
    tree = full_tree(4)
    with pytest.raises(ValueError, match="invalid spanning tree"):
        stream_gplus_vals(4, hand_tree(tree.base, [e.derivation for e in tree.entries[1:]]))


def test_unknown_target_raises_at_call_time():
    with pytest.raises(ValueError, match="unknown target 'bogus': expected gplus, odd or middle"):
        stream_gplus_vals(4, full_tree(4), "bogus")
