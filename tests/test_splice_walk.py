"""The hop splice and its run walker against the adjacency-dict splice.

``reference_cycle`` below is the earliest assembly: the cycle factor loaded
into a dict of neighbour lists over every vertex, each witness edge toggled
in, and the result traversed from its least vertex toward the smaller
neighbour. The walker, whose flip positions a step table turns into vertices, must
give the same sequence. In odd and middle
coordinates it must give the gplus cycle mapped vertex by vertex with
``odd_val``, and with each closing edge replaced by its detour
(``reference_middle``, the earlier middle-levels stream).

``assembly._splice_hops`` is the only splice, and a tree fails it in one of
three ways, each tried here on broken trees: an invalid tree raises
``validate_tree``'s ``ValueError``; a witness position that does not hold an
end of its member's named edge, or an empty witness, raises an
``AssemblyError`` naming the tuple, the Dyck origin, the index and the vertex
(if any), as does a hop that flips other than one bit, naming its two
vertices; and a walk that does not return
after the target's number of vertices, or returns early, raises an
``AssemblyError`` naming the Dyck origins it missed and the tuples whose
witnesses meet the first of them. Once every witness sits at its named
edges, every vertex of the toggled graph has degree 2, which the reference
adjacency shows on random masks.
"""

import re
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
from oddgray.checking import Context, Derivation, hand_tree, locate, validate_tree, walk_failure
from oddgray.factor import _path_vals, flip_sequence, flip_sequences
from oddgray.spanning import SpanningTree, counting_tree, full_tree, mask_width
from oddgray.words import Bits, enumerate_dyck


def reference_adjacency(k, tree):
    """Every vertex's neighbour list: the factor cycles, then each witness toggled in."""
    adj = {}
    for x in enumerate_dyck(k):
        vals = _path_vals(x.val, flip_sequence(x))
        for a, b in zip(vals, vals[1:] + vals[:1]):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    for _, cycle, _ in tree.packed:
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


def with_witness(tree, idx, cycle):
    """``tree`` with packed entry idx keeping its pattern and support but splicing ``cycle``."""
    packed = list(tree.packed)
    pattern, _, support = packed[idx]
    packed[idx] = pattern, tuple(cycle), support
    return SpanningTree(tree.words, tuple(packed), tree.n)


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


def witness_hops(tree):
    """Each witness's hop edges, from position 2r + 1 to 2r + 2 and from the last to 0."""
    return {
        frozenset((a, b))
        for _, cycle, _ in tree.packed
        for a, b in zip(cycle[1::2], cycle[2::2] + cycle[:1])
    }


def slot_invariants(k, tree):
    """Check the slot splice of a valid tree against the tree's own supports and witnesses."""
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    slots, masks, offset = _splice_hops(k, tree)
    # each path's mask holds the index of each of its marks
    origin = {x.val: o for o, x in enumerate(dyck)}
    expected = [0] * len(dyck)
    for _, _, support in tree.packed:
        for x, mark in support:
            expected[origin[x]] |= 1 << seqs[origin[x]].index(mark)
    assert list(masks) == expected
    # two slots per member, each path's from its offset on, and every one
    # filled: a packed end is never 0, as its position is not
    addresses = slot_addresses(masks)
    assert len(slots) == len(addresses) == 2 * sum(len(s) for _, _, s in tree.packed)
    assert all(slots)
    assert list(offset) == [0, *accumulate(2 * m.bit_count() for m in masks)]
    slot_of = {address: s for s, address in enumerate(addresses)}
    paths = [_path_vals(x.val, seqs[o]) for o, x in enumerate(dyck)]
    # every witness vertex ends one named edge or two
    near = [paths[o][e + up] for o, e, up in addresses]
    assert set(near) == {v for _, cycle, _ in tree.packed for v in cycle}
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
    assert hops == witness_hops(tree)


@pytest.mark.parametrize("k", range(3, 10))
def test_hop_splice_invariants_on_full_tree(k):
    slot_invariants(k, full_tree(k))


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_hop_splice_invariants_on_random_masks(data):
    k = data.draw(st.integers(6, 9))
    slot_invariants(k, counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1))))


def first_misplaced(k, tree):
    """The first entry whose witness is the wrong length or, at a member's named
    positions, holds a vertex off that member's named edge, found with ``locate``."""
    for idx, (pattern, cycle, support) in enumerate(tree.packed):
        if len(cycle) != 2 * len(support):
            return idx
        for (x, mark), (a, b) in zip(support, pattern.named_edges):
            w = Bits(x, 2 * k)
            i = flip_sequence(w).index(mark)
            held = {locate(Bits(cycle[a], 2 * k)), locate(Bits(cycle[b], 2 * k))}
            if held != {(w, i), (w, i + 1)}:
                return idx
    return None


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_hop_splice_fails_as_the_reference_fails(data):
    # A built tree with one entry dropped or duplicated, one member
    # re-marked, or one witness rotated, reversed or taken from another
    # entry of its length (or its own): an invalid tree raises
    # ``validate_tree``'s text, a valid one with a witness off its named
    # edges names that witness's tuple, one with a hop of more than one bit
    # says so, and any other gives the reference cycle, or fails the count
    # exactly when the reference is not one cycle.
    k = data.draw(st.integers(4, 7))
    packed = list(full_tree(k).packed)
    i = data.draw(st.integers(0, len(packed) - 1))
    pattern, cycle, support = packed[i]
    kind = data.draw(st.sampled_from(["drop", "duplicate", "mark", "rotate", "reverse", "swap"]))
    if kind == "drop":
        del packed[i]
    elif kind == "duplicate":
        packed.insert(i, packed[i])
    elif kind == "mark":
        pos = data.draw(st.integers(2, len(support) - 1))
        x, m = support[pos]
        m = data.draw(st.sampled_from([a for a in range(1, 2 * k + 1) if a != m]))
        packed[i] = pattern, cycle, (*support[:pos], (x, m), *support[pos + 1 :])
    elif kind == "rotate":
        packed[i] = pattern, (*cycle[1:], cycle[0]), support
    elif kind == "reverse":
        packed[i] = pattern, cycle[::-1], support
    else:
        j = data.draw(st.sampled_from([j for j, e in enumerate(packed) if len(e[1]) == len(cycle)]))
        packed[i] = pattern, packed[j][1], support
    tree = SpanningTree(enumerate_dyck(k), tuple(packed), 2 * k)
    report = validate_tree(tree)
    if not report.passed:
        with pytest.raises(ValueError) as err:
            stream_gplus_vals(k, tree)
        assert str(err.value) == "invalid spanning tree: " + "; ".join(report.failures)
        return
    idx = first_misplaced(k, tree)
    if idx is not None:
        with pytest.raises(AssemblyError, match="lie on no factor path at a named edge") as err:
            stream_gplus_vals(k, tree)
        assert f": tuple {tree.entries[idx].tup} names the edge from index " in str(err.value)
        return
    if any(len(hop) != 2 or (min(hop) ^ max(hop)).bit_count() != 1 for hop in witness_hops(tree)):
        with pytest.raises(AssemblyError, match="a hop flips"):
            stream_gplus_vals(k, tree)
        return
    adj = reference_adjacency(k, tree)
    assert all(len(nb) == 2 for nb in adj.values())
    if len(component_of_start(k, tree)) == len(adj):
        assert list(stream_gplus_vals(k, tree)) == reference_cycle(k, tree)
    else:
        with pytest.raises(AssemblyError, match="splice produced more than one cycle"):
            list(stream_gplus_vals(k, tree))


@settings(deadline=None, max_examples=6)
@given(st.data())
def test_accepted_trees_leave_every_vertex_of_degree_2(data):
    # Why the splice needs no degree check: once every witness position
    # holds an end of its member's named edge, each named edge has one
    # owner, a vertex ends at most named edges i - 1 and i of its own path,
    # and the union-find keeps hop edges distinct.
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
    named = [str(e.tup) for e, (_, c, _) in zip(tree.entries, tree.packed) if on_path & set(c)]
    assert msg.endswith(f"meet the factor path of {missed[0]}: {', '.join(named)}")


def test_duplicated_derivation_fails_placement():
    # Entry 0, a fan, splices entry 1's patch witness: its tuple still
    # validates, but none of the six vertices at the fan's named positions
    # ends the named edge of its member. The first is at position 3, where
    # the fan's first member 110[1]0010 names the edge from index 1 to 2.
    k = 4
    tree = full_tree(k)
    witness = tree.packed[1][1]
    broken = with_witness(tree, 0, witness)
    with pytest.raises(AssemblyError) as err:
        stream_gplus_vals(k, broken)
    tup, x, v = tree.entries[0].tup, Bits.parse("11010010"), Bits.parse("10011001")
    assert str(err.value) == (
        "6 witness vertices lie on no factor path at a named edge, e.g. Bits('10011001'): "
        "tuple {110[1]0010, 1101010[0], 110110[0]0} names the edge from index 1 to 2 "
        "on the factor path of 11010010"
    )
    assert str(tup) == "{110[1]0010, 1101010[0], 110110[0]0}"
    assert tree.packed[0][0].named_edges[0] == (3, 2) and witness[3] == v.val
    assert flip_sequence(x).index(tup.mark_of(x)) == 1
    assert locate(v) not in {(x, 1), (x, 2)}


def test_rewrapped_derivation_fails_placement():
    # The bridge entry of the k = 4 tree splices the witness of its pattern
    # wrapped in (10, empty) instead of its own context (1, 0). Its tuple
    # still validates, but the witness sits on other factor edges, and none
    # of its six vertices ends the named edge of its member. The first is at
    # position 5, where the bridge's first member 110101[0]0 names the edge
    # from index 2 to 3.
    k = 4
    tree = full_tree(k)
    idx = next(
        i for i, e in enumerate(tree.entries) if str(e.derivation.pattern) == "bridge"
    )
    old = tree.entries[idx].derivation
    assert (str(old.context.prefix), str(old.context.suffix)) == ("1", "0")
    ctx = Context(Bits.parse("10"), Bits.parse(""))
    witness = Derivation(old.pattern, ctx).witness_vals()
    broken = with_witness(tree, idx, witness)
    with pytest.raises(AssemblyError) as err:
        stream_gplus_vals(k, broken)
    tup, x, v = tree.entries[idx].tup, Bits.parse("11010100"), Bits.parse("01111010")
    assert str(err.value) == (
        "6 witness vertices lie on no factor path at a named edge, e.g. Bits('01111010'): "
        "tuple {110101[0]0, 11[1]00100, 1[1]110000} names the edge from index 2 to 3 "
        "on the factor path of 11010100"
    )
    assert str(tup) == "{110101[0]0, 11[1]00100, 1[1]110000}"
    assert tree.packed[idx][0].named_edges[0] == (5, 4) and witness[5] == v.val
    assert flip_sequence(x).index(tup.mark_of(x)) == 2
    assert locate(v) not in {(x, 2), (x, 3)}


def test_hop_that_flips_two_bits_fails_the_splice():
    # The bridge of the k = 4 tree, (143, 141, 205, 201, 203, 139), with
    # positions 2 and 3 swapped: every position still holds an end of its
    # member's named edge, but the hops 141-201 and 205-203 each flip two
    # bits. Without the hop check the walk streamed all 126 vertices with
    # 201 next to 141 and 205 next to 203.
    k = 4
    tree = full_tree(k)
    idx = next(i for i, (pattern, _, _) in enumerate(tree.packed) if pattern.family == "bridge")
    cycle = tree.packed[idx][1]
    assert cycle == (143, 141, 205, 201, 203, 139)
    broken = with_witness(tree, idx, (143, 141, 201, 205, 203, 139))
    with pytest.raises(AssemblyError) as err:
        stream_gplus_vals(k, broken)
    assert str(err.value) == (
        "a hop flips 2 bits: tuple {110101[0]0, 11[1]00100, 1[1]110000} hops from "
        "Bits('10110001') on the factor path of 11110000 to Bits('10010011')"
    )
    assert Bits.parse("10110001").val == 141 and Bits.parse("10010011").val == 201


def test_witness_vertex_off_the_factor_fails():
    # a witness that leaves the two middle layers
    tree = full_tree(4)
    broken = with_witness(tree, 0, (0b0000_0000, 0b0000_0001, 0b0000_0011))
    with pytest.raises(AssemblyError, match="lie on no factor path"):
        stream_gplus_vals(4, broken)


def test_misplaced_witness_vertex_names_its_tuple():
    # The rotated witness toggles the same edges, so every degree stays 2,
    # but its vertices no longer sit at their family's named-edge positions.
    k = 5
    tree = full_tree(k)
    idx = 7
    cycle = tree.packed[idx][1]
    broken = with_witness(tree, idx, (*cycle[1:], cycle[0]))
    with pytest.raises(AssemblyError, match="lie on no factor path") as err:
        stream_gplus_vals(k, broken)
    m = re.search(
        r"e\.g\. Bits\('([01]+)'\): tuple (\{.*\}) names the edge from index (\d+) to (\d+) "
        r"on the factor path of ([01]+)$",
        str(err.value),
    )
    assert m, str(err.value)
    vertex, tup, low, high, origin = m.groups()
    x, i = Bits.parse(origin), int(low)
    entry = tree.entries[idx].tup
    assert tup == str(entry)
    assert i == flip_sequence(x).index(entry.mark_of(x))
    assert int(high) == i + 1
    assert Bits.parse(vertex).val in tree.entries[idx].derivation.witness_vals()
    assert locate(Bits.parse(vertex)) not in {(x, i), (x, i + 1)}


def test_bad_tree_raises_at_call_time():
    # The table is built eagerly, so the error comes before any iteration.
    tree = full_tree(4)
    with pytest.raises(ValueError, match="invalid spanning tree"):
        stream_gplus_vals(4, hand_tree(tree.base, [e.derivation for e in tree.entries[1:]]))


def test_empty_witness_names_its_tuple():
    # An empty witness holds no vertex off its named edges, but it must still
    # fail at placement, naming its tuple, rather than in the walk.
    k, idx = 5, 7
    tree = full_tree(k)
    x, mark = tree.packed[idx][2][0]
    w = Bits(x, 2 * k)
    i = flip_sequence(w).index(mark)
    with pytest.raises(AssemblyError) as err:
        stream_gplus_vals(k, with_witness(tree, idx, ()))
    assert str(err.value) == (
        f"a witness is empty: tuple {tree.entries[idx].tup} names the edge from index {i} "
        f"to {i + 1} on the factor path of {w}"
    )


def test_unknown_target_raises_at_call_time():
    with pytest.raises(ValueError, match="unknown target 'bogus': expected gplus, odd or middle"):
        stream_gplus_vals(4, full_tree(4), "bogus")
