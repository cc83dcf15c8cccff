import subprocess
import sys
from math import comb

import pytest

from oddgray.assembly import (
    AssemblyError,
    CycleCertificate,
    hamilton_gplus,
    hamilton_middle_levels,
    hamilton_odd,
    stream_middle_vals,
    to_odd_vertex,
)
from oddgray.checking import derivations, hand_tree
from oddgray.flippable import fan
from oddgray.spanning import full_tree
from oddgray.verify import brute_force_hamilton, verify_certificate
from oddgray.words import Bits, enumerate_dyck

B = Bits.parse


def test_hamilton_gplus_3():
    cert = hamilton_gplus(3, full_tree(3))
    assert len(cert.vertices) == 35
    assert verify_certificate(cert).passed
    # canonical rotation: smallest packed vertex first, smaller neighbour next
    assert cert.vertices[0] == min(cert.vertices, key=lambda v: v.val)
    assert cert.vertices[1].val < cert.vertices[-1].val
    assert [str(v) for v in cert.vertices[:3]] == ["111000", "111010", "101010"]


def test_hamilton_gplus_4():
    cert = hamilton_gplus(4, full_tree(4))
    assert len(cert.vertices) == comb(9, 4)
    assert verify_certificate(cert).passed


def test_hamilton_gplus_rejects_invalid_tree():
    base = frozenset(enumerate_dyck(3))
    d = derivations(fan().tuple())[0]
    assert d.tuple() == fan().tuple()
    broken = hand_tree(base, [d])
    with pytest.raises(ValueError):
        hamilton_gplus(3, broken)


def test_generation_runs_no_derivation_search():
    # The splice takes each witness from the derivation its tree entry
    # stores, so a fresh process never fills the derivation-search cache;
    # the tree is built and validated on derivations, so it wraps no tuple;
    # flip sequences come from the one shared table, and flip_sequence, which
    # caches nothing, is never called.
    code = (
        "import io\n"
        "from oddgray import checking, cli, factor\n"
        "wraps = 0\n"
        "apply_context = checking.apply_context\n"
        "def counted(*args):\n"
        "    global wraps\n"
        "    wraps += 1\n"
        "    return apply_context(*args)\n"
        "checking.apply_context = counted\n"
        "for argv in (['gen', '--k', '8'], ['gen', '--k', '7', '--family', '3'],"
        " ['middle', '--k', '6']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0\n"
        "print(checking._derivations.cache_info().misses, wraps,"
        " hasattr(factor.flip_sequence, 'cache_info'),"
        " factor.flip_sequences.cache_info().currsize)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "0", "False", "1"]


def test_generation_runs_no_wrap_and_makes_no_derivation():
    # The tree is built as packed entries, whose supports the recursion
    # carries and whose witnesses the splice reads off the factor paths, so
    # generation neither wraps a derivation's context nor makes a Derivation object.
    code = (
        "import io\n"
        "from oddgray import checking, cli\n"
        "calls = {'wrap': 0, 'derivation': 0}\n"
        "wrap, init = checking._wrap, checking.Derivation.__init__\n"
        "def counted_wrap(*args):\n"
        "    calls['wrap'] += 1\n"
        "    return wrap(*args)\n"
        "def counted_init(self, *args, **kw):\n"
        "    calls['derivation'] += 1\n"
        "    init(self, *args, **kw)\n"
        "checking._wrap = counted_wrap\n"
        "checking.Derivation.__init__ = counted_init\n"
        "for argv in (['gen', '--k', '8'], ['gen', '--k', '7', '--family', '3'],"
        " ['middle', '--k', '6']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0\n"
        "print(calls['wrap'], calls['derivation'])\n"
        "print(checking.Derivation(checking.QUAD).witness_vals() and calls['wrap'],"
        " calls['derivation'])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # the last line shows that both counters count
    assert res.stdout.split() == ["0", "0", "1", "1"]


def test_cycle_factor_is_computed_once_per_k():
    # Four cycles of one k share one flip-sequence table, and a whole gen run
    # enumerates each semilength once, then serves every later call from it.
    code = (
        "from oddgray import assembly, factor\n"
        "for m in (14, 27, 7, 8):\n"
        "    assembly.hamilton_odd(8, m)\n"
        "print(factor.flip_sequences.cache_info().misses)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1"]
    code = (
        "import io\n"
        "from oddgray import cli, words\n"
        "assert cli.main(['gen', '--k', '9', '--family', '1582'], out=io.StringIO()) == 0\n"
        "info = words.enumerate_dyck.cache_info()\n"
        "print(info.misses, info.currsize, info.hits > 0)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    misses, currsize, shared = res.stdout.split()
    assert misses == currsize and shared == "True"


def test_hamilton_gplus_rejects_mismatched_base():
    with pytest.raises(ValueError):
        hamilton_gplus(4, full_tree(3))


def test_to_odd_vertex():
    assert to_odd_vertex(B("111000")) == (1, 2, 3)
    assert to_odd_vertex(B("111001")) == (4, 5, 7)
    a, b = to_odd_vertex(B("110010")), to_odd_vertex(B("001101"))
    assert not set(a) & set(b)
    with pytest.raises(ValueError):
        to_odd_vertex(B("110000"))
    with pytest.raises(ValueError):
        to_odd_vertex(B("11000"))


def test_hamilton_odd_small():
    for k in (3, 4, 5):
        cert = hamilton_odd(k)
        assert cert.target == "odd"
        assert len(cert.vertices) == comb(2 * k + 1, k)
        assert verify_certificate(cert).passed
    assert hamilton_odd(3).vertices[0] == (1, 2, 3)


def test_hamilton_odd_rejects_petersen():
    with pytest.raises(ValueError, match="Petersen"):
        hamilton_odd(2)
    with pytest.raises(ValueError):
        hamilton_odd(1)


def test_gray_property():
    # consecutive subsets are disjoint, so the characteristic vectors differ
    # in all but one of the 2k+1 positions
    for k in (3, 4):
        cert = hamilton_odd(k)
        n = len(cert.vertices)
        for i in range(n):
            a = set(cert.vertices[i])
            b = set(cert.vertices[(i + 1) % n])
            assert len(a ^ b) == 2 * k


def test_degree_invariant_streams_whole_layer():
    for k in (3, 4, 5, 6):
        cert = hamilton_odd(k)
        assert len(set(cert.vertices)) == comb(2 * k + 1, k)


def test_family_masks_give_distinct_cycles():
    certs = [hamilton_odd(6, mask) for mask in (0, 1)]
    for c in certs:
        assert verify_certificate(c).passed
    assert certs[0].edge_set() != certs[1].edge_set()
    assert hamilton_odd(6, 0).edge_set() == hamilton_odd(6).edge_set()


def test_family_mask_range_checked():
    with pytest.raises(ValueError):
        hamilton_odd(6, 2)
    with pytest.raises(ValueError):
        hamilton_odd(5, 0)


def test_middle_levels_fixed_sizes():
    one = hamilton_middle_levels(1)
    assert [str(v) for v in one.vertices] == ["100", "110", "010", "011", "001", "101"]
    assert verify_certificate(one).passed
    two = hamilton_middle_levels(2)
    assert len(two.vertices) == 20
    assert verify_certificate(two).passed


def test_middle_levels_fixed_cycles_match_brute_force_graphs():
    # the embedded constants are genuine Hamilton cycles of graphs that do
    # admit one, per exhaustive search
    assert brute_force_hamilton(1, "middle") is not None
    assert brute_force_hamilton(2, "middle") is not None


def test_middle_levels_general():
    for k in (3, 4, 5):
        cert = hamilton_middle_levels(k)
        assert len(cert.vertices) == 2 * comb(2 * k + 1, k)
        assert verify_certificate(cert).passed
        weights = {v.weight for v in cert.vertices}
        assert weights == {k, k + 1}


def test_middle_levels_nesting():
    cert = hamilton_middle_levels(3)
    n = len(cert.vertices)
    for i in range(n):
        a, b = cert.vertices[i], cert.vertices[(i + 1) % n]
        small, big = (a, b) if a.weight < b.weight else (b, a)
        assert small.val & big.val == small.val  # containment as subsets
        assert {small.weight, big.weight} == {3, 4}


def test_middle_levels_canonical_rotation():
    for k in (1, 2, 3, 4):
        cert = hamilton_middle_levels(k)
        vals = [v.val for v in cert.vertices]
        assert vals[0] == min(vals)
        assert vals[1] < vals[-1]


def test_middle_levels_family_masks():
    a = hamilton_middle_levels(6, 0)
    b = hamilton_middle_levels(6, 1)
    assert verify_certificate(a).passed and verify_certificate(b).passed
    assert a.edge_set() != b.edge_set()
    with pytest.raises(ValueError):
        list(stream_middle_vals(2, 0))


@pytest.mark.parametrize("k, mask", [(0, None), (2, 0), (5, 0), (6, 2)])
def test_stream_middle_vals_rejects_bad_args_at_the_call(k, mask):
    # raised by the call itself, before any vertex is asked for
    with pytest.raises(ValueError):
        stream_middle_vals(k, mask)


def test_certificate_edge_set_is_rotation_invariant():
    cert = hamilton_odd(3)
    rotated = CycleCertificate(3, "odd", cert.vertices[5:] + cert.vertices[:5])
    assert cert.edge_set() == rotated.edge_set()
