"""The hop splice and its run walker against the adjacency-dict splice.

``reference_cycle`` below is the earliest assembly: the cycle factor loaded
into a dict of neighbour lists over every vertex, each witness edge toggled
in, and the result traversed from its least vertex toward the smaller
neighbour. The walker must give the same sequence, and raise
``AssemblyError`` from each of its postconditions with a message that names
Dyck origins; degree and count failures also name the tuples whose
witnesses meet the failing vertex or path. In odd and middle coordinates it
must give the gplus cycle mapped vertex by vertex with ``odd_val``, and with
each closing edge replaced by its detour (``reference_middle``, the earlier
middle-levels stream).

``assembly._splice_hops`` stores one hop per named-edge end and accepts
every valid tree tried here; ``checking._splice_table`` and
``checking._walk``, the toggle splice it replaced, take the trees it does
not accept, so the broken trees below fail with the texts they always
had. Generation never calls that reference on a valid tree.
"""

import re
import subprocess
import sys
from array import array
from collections import Counter
from itertools import chain
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray.assembly import (
    TARGET_GPLUS,
    TARGET_MIDDLE,
    TARGET_ODD,
    AssemblyError,
    _splice_hops,
    _walk_runs,
    odd_val,
    stream_gplus_vals,
)
from oddgray.checking import Context, Derivation, _splice_table, _walk, hand_tree, locate
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


def test_table_holds_exactly_the_witness_vertices():
    tree = full_tree(8)
    dyck = enumerate_dyck(8)
    seqs = flip_sequences(8)
    table, _ = _splice_table(8, tree, dyck, seqs)
    assert set(table) == surviving_witness_vertices(tree)
    assert len(table) == 4014
    full = (1 << 16) - 1
    for v, entry in table.items():
        # ((origin << 2k | a) << 2k | b) << 6 | index
        a, b, o, i = entry >> 22 & full, entry >> 6 & full, entry >> 38, entry & 63
        assert _path_vals(dyck[o].val, seqs[o])[i] == v
        assert v not in (a, b) and a != b


@pytest.mark.parametrize("k, mask", [(3, None), (5, None), (8, None), (7, 2), (9, 3053)])
def test_stop_masks_hold_the_table_vertices_and_the_start(k, mask):
    # One bit per stored entry, at its index on its origin's path, and the
    # walk's start, index 0 of path 0; none for a vertex whose toggles cancel.
    tree = full_tree(k) if mask is None else counting_tree(k, mask)
    dyck = enumerate_dyck(k)
    table, stops = _splice_table(k, tree, dyck, flip_sequences(k))
    expected = [0] * len(dyck)
    expected[0] = 1
    for entry in table.values():
        expected[entry >> (4 * k + 6)] |= 1 << (entry & 63)
    assert list(stops) == expected
    assert sum(m.bit_count() for m in stops) == len(table) + (table.get((1 << k) - 1) is None)


def hop_invariants(k, tree):
    """Check the hop splice of a valid tree against the tree's own supports and witnesses."""
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    spliced = _splice_hops(k, tree, dyck, seqs)
    assert spliced is not None, "the hop splice handed a valid tree to the reference"
    hops, side, masks = spliced
    full = (1 << 2 * k) - 1
    # two ends per member, and every witness vertex ends one named edge or two
    assert len(hops) + len(side) == 2 * sum(len(s) for _, _, s in tree.packed)
    assert set(hops) == {v for _, cycle, _ in tree.packed for v in cycle}
    assert set(side) <= set(hops)
    # each path's mask holds the index of each of its marks
    origin = {x.val: o for o, x in enumerate(dyck)}
    expected = [0] * len(dyck)
    for _, _, support in tree.packed:
        for x, mark in support:
            expected[origin[x]] |= 1 << seqs[origin[x]].index(mark)
    assert list(masks) == expected
    # a hop lands on an end of a named edge, on another path, whose hop comes back
    for u, e in [*hops.items(), *side.items()]:
        w, upper, j, o = e & full, e >> 2 * k & 1, e >> 2 * k + 1 & 63, e >> 2 * k + 7
        assert _path_vals(dyck[o].val, seqs[o])[j] == w
        assert masks[o] >> (j - upper) & 1  # the named edge from j - 1 or from j
        (back,) = [h for h in (hops[w], side.get(w)) if h is not None and h & full == u]
        assert back >> 2 * k + 7 != o


@pytest.mark.parametrize("k", range(3, 10))
def test_hop_splice_invariants_on_full_tree(k):
    hop_invariants(k, full_tree(k))


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_hop_splice_invariants_on_random_masks(data):
    k = data.draw(st.integers(6, 9))
    hop_invariants(k, counting_tree(k, data.draw(st.integers(0, (1 << mask_width(k)) - 1))))


def outcome(run):
    """What a splice and walk give: the cycle, or the type and text of the error."""
    try:
        return list(run())
    except (ValueError, AssemblyError) as err:
        return type(err).__name__, str(err)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_hop_splice_fails_as_the_reference_fails(data):
    # A built tree with one entry dropped or duplicated, one member
    # re-marked, or one witness rotated, reversed or taken from another
    # entry: whichever splice takes it, the stream gives the reference's
    # cycle or its error.
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
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)

    def reference():
        table, stops = _splice_table(k, tree, dyck, seqs)
        return chain.from_iterable(_walk(k, table, stops, tree, TARGET_GPLUS))

    assert outcome(lambda: stream_gplus_vals(k, tree)) == outcome(reference)


def test_generation_never_calls_the_reference_splice():
    code = (
        "import io\n"
        "from oddgray import assembly, checking, cli, hamilton_odd, spanning\n"
        "calls = 0\n"
        "splice = checking._splice_table\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return splice(*args)\n"
        "checking._splice_table = counted\n"
        "runs = (['gen', '--k', '8'], ['gen', '--k', '7', '--family', '3'],\n"
        "        ['middle', '--k', '6'])\n"
        "for argv in runs:\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0\n"
        "hamilton_odd(8, 5)\n"
        "print(calls)\n"
        "tree = spanning.full_tree(5)\n"
        "packed = list(tree.packed)\n"
        "pattern, cycle, support = packed[7]\n"
        "packed[7] = pattern, (*cycle[1:], cycle[0]), support\n"
        "try:\n"
        "    assembly.stream_gplus_vals(5, spanning.SpanningTree(tree.words, tuple(packed), 10))\n"
        "except assembly.AssemblyError:\n"
        "    print(calls)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # the broken tree, a rotated witness, shows that the counter counts
    assert res.stdout.split() == ["0", "1"]


def test_walk_is_cut_after_the_vertex_count():
    # The start 15 ends named edge 0 of path 0 and hops to 1, at index 1 of
    # path 1, which ends named edges 0 and 1 there; 1 and 2 hop to each
    # other from both ends, so the walk goes back and forth between them and
    # never returns; it stops after binomial(9, 4) = 126 vertices.
    def end(o, j, up, value):
        return ((o << 6 | j) << 1 | up) << 8 | value

    hops = {15: end(1, 1, 1, 1), 1: end(2, 1, 1, 2), 2: end(1, 1, 1, 1)}
    side = {1: end(2, 1, 0, 2), 2: end(1, 1, 0, 1)}
    masks = array("Q", [0b1, 0b11, 0b11] + [0] * 11)
    out = []
    with pytest.raises(AssemblyError, match="did not return to its start after 126 vertices"):
        runs = _walk_runs(4, hops, side, masks, full_tree(4), TARGET_GPLUS)
        out.extend(chain.from_iterable(runs))
    assert out[:5] == [15, 1, 2, 1, 2] and len(out) == 126


def test_reference_walk_is_cut_after_the_vertex_count():
    # The start's entry sends the walk over a witness edge to 1, and 1 and 2
    # name each other as both neighbours, so the walk hops between them and
    # never returns; it stops after binomial(9, 4) = 126 vertices.
    def entry(a, b):  # origin 0, index 0
        return (a << 8 | b) << 6

    table = {15: entry(1, 255), 1: entry(2, 2), 2: entry(1, 1)}
    stops = array("Q", [1] + [0] * 13)  # every entry is at index 0 of path 0
    out = []
    with pytest.raises(AssemblyError, match="did not return to its start after 126 vertices"):
        out.extend(chain.from_iterable(_walk(4, table, stops, full_tree(4), TARGET_GPLUS)))
    assert out[:5] == [15, 1, 2, 1, 2] and len(out) == 126


def test_rerouted_hops_fail_the_count_check():
    # Two hop edges {u1, w1} and {u2, w2} of the k = 5 splice become {u1, w2}
    # and {u2, w1}; the first such pair that leaves a factor path out of the
    # start's cycle must be reported with the count of the start's component
    # of the rerouted graph, the paths it misses, and the tuples at the first
    # missed path.
    k = 5
    tree = full_tree(k)
    dyck, seqs = enumerate_dyck(k), flip_sequences(k)
    hops, side, masks = _splice_hops(k, tree, dyck, seqs)
    full = (1 << 2 * k) - 1
    # hop edges between two vertices that end one named edge each
    pairs = sorted((u, e & full) for u, e in hops.items())
    edges = [(u, w) for u, w in pairs if u < w and u not in side and w not in side]

    def component(hop_of):
        adj = {}
        for o, x in enumerate(dyck):
            vals = _path_vals(x.val, seqs[o])
            for i, (a, b) in enumerate(zip(vals, vals[1:] + vals[:1])):
                if not (i < 2 * k and masks[o] >> i & 1):
                    adj.setdefault(a, []).append(b)
                    adj.setdefault(b, []).append(a)
        for u, es in hop_of.items():
            adj.setdefault(u, []).extend(e & full for e in es)
        seen, todo = set(), [(1 << k) - 1]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(adj[v])
        return seen

    for (u1, w1), (u2, w2) in zip(edges, edges[1:]):
        rerouted = dict(hops)
        rerouted[u1], rerouted[w2], rerouted[u2], rerouted[w1] = (
            hops[u2], hops[w1], hops[u1], hops[w2]
        )
        hop_of = {u: [e] + ([side[u]] if u in side else []) for u, e in rerouted.items()}
        seen = component(hop_of)
        missed = [x for o, x in enumerate(dyck) if seen.isdisjoint(_path_vals(x.val, seqs[o]))]
        if missed:
            break
    else:
        pytest.fail("no rerouting left a factor path out")
    with pytest.raises(AssemblyError) as err:
        list(chain.from_iterable(_walk_runs(k, rerouted, side, masks, tree, TARGET_GPLUS)))
    msg = str(err.value)
    assert msg.startswith(
        f"splice produced more than one cycle: the walk reached {len(seen)} of 462 vertices, "
        f"and no factor path of these {len(missed)} of 42 Dyck words: "
        + ", ".join(map(str, missed[:8]))
    )
    o = dyck.index(missed[0])
    on_path = set(_path_vals(missed[0].val, seqs[o]))
    named = [str(e.tup) for e, (_, c, _) in zip(tree.entries, tree.packed) if on_path & set(c)]
    assert msg.endswith(f"meet the factor path of {missed[0]}: {', '.join(named)}")


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
