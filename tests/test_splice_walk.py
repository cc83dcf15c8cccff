"""The splice-table walker against the adjacency-dict splice it replaced.

``reference_cycle`` below is the earlier assembly: the cycle factor loaded
into a dict of neighbour lists over every vertex, each witness edge toggled
in, and the result traversed from its least vertex toward the smaller
neighbour. The walker must give the same sequence, keep only the witness
vertices in its table, and raise ``AssemblyError`` from each of its
postconditions with a message that names Dyck origins; degree and count
failures also name the tuples whose witnesses meet the failing vertex or
path.
"""

import re
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray.assembly import AssemblyError, _splice_table, stream_gplus_vals
from oddgray.checking import Context, Derivation, hand_tree, locate
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


def surviving_witness_vertices(tree):
    """Endpoints of the witness edges toggled an odd number of times."""
    edges = Counter()
    for _, cycle, _ in tree.packed:
        edges.update(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]))
    return {v for e, m in edges.items() if m % 2 for v in e}


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


def test_table_holds_exactly_the_witness_vertices():
    tree = full_tree(8)
    dyck = enumerate_dyck(8)
    seqs = flip_sequences(8)
    table = _splice_table(8, tree, dyck, seqs)
    assert set(table) == surviving_witness_vertices(tree)
    assert len(table) == 4014
    full = (1 << 16) - 1
    for v, entry in table.items():
        # ((origin << 2k | a) << 2k | b) << 6 | index
        a, b, o, i = entry >> 22 & full, entry >> 6 & full, entry >> 38, entry & 63
        assert _path_vals(dyck[o].val, seqs[o])[i] == v
        assert v not in (a, b) and a != b


def test_duplicated_derivation_fails_the_count_check():
    # Entry 0 splices entry 1's witness: its tuple still validates, but
    # entry 1's witness is toggled twice and cancels, and entry 0's is never
    # toggled, so their factor cycles stay apart.
    k = 4
    tree = full_tree(k)
    broken = with_witness(tree, 0, tree.packed[1][1])
    component = component_of_start(k, broken)
    reached = {locate(Bits(v, 2 * k))[0] for v in component}
    missed = [x for x in enumerate_dyck(k) if x not in reached]
    assert missed
    with pytest.raises(AssemblyError) as err:
        list(stream_gplus_vals(k, broken))
    msg = str(err.value)
    assert f"reached {len(component)} of {comb(9, 4)} vertices" in msg
    assert f"{len(missed)} of 14 Dyck words" in msg
    for x in missed[:8]:
        assert str(x) in msg
    # The two entries splicing the one witness are named at the first missed path.
    named = f"{tree.entries[0].tup}, {tree.entries[1].tup}"
    assert msg.endswith(f"the witnesses of 2 tuples meet the factor path of {missed[0]}: {named}")


def test_rewrapped_derivation_fails_the_degree_check():
    # The bridge entry of the k = 4 tree wrapped in (10, empty) instead of
    # its own context (1, 0): its witness meets factor edges another tuple's
    # witness already toggled, so two vertices end with four neighbours. The
    # message names the tuples whose witnesses hold the failing vertex: the
    # bridge and that other tuple.
    k = 4
    tree = full_tree(k)
    idx = next(
        i for i, e in enumerate(tree.entries) if str(e.derivation.pattern) == "bridge"
    )
    old = tree.entries[idx].derivation
    assert (str(old.context.prefix), str(old.context.suffix)) == ("1", "0")
    ctx = Context(Bits.parse("10"), Bits.parse(""))
    broken = with_witness(tree, idx, Derivation(old.pattern, ctx).witness_vals())
    with pytest.raises(AssemblyError, match="do not have degree 2") as err:
        list(stream_gplus_vals(k, broken))
    m = re.search(
        r"e\.g\. ([01]+), index (\d+) on the factor path of ([01]+), has (\d+) neighbours; "
        r"the witnesses of (\d+) tuples meet it: (.*)$",
        str(err.value),
    )
    assert m, str(err.value)
    vertex, index, origin, degree, count, named = m.groups()
    assert locate(Bits.parse(vertex)) == (Bits.parse(origin), int(index))
    assert degree != "2"
    v = Bits.parse(vertex).val
    holders = [
        str(e.tup) for e, (_, cycle, _) in zip(broken.entries, broken.packed) if v in cycle
    ]
    assert str(tree.entries[idx].tup) in holders
    assert named == ", ".join(holders) and int(count) == len(holders) == 2


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
