"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines). Every check is exact; the only tolerance anywhere is
the wall-clock budget of criterion 1.
"""

import subprocess
import sys
import time
from itertools import combinations
from math import comb

from oddgray.assembly import hamilton_middle_levels, hamilton_odd
from oddgray.checking import (
    conflict_violations,
    derivations,
    enumerate_tuples,
    hand_tree,
    is_witness,
)
from oddgray.factor import flip_edge, flip_sequence, path
from oddgray.flippable import BRIDGE, PATCH, QUAD, fan
from oddgray.spanning import mask_width, validate_tree
from oddgray.verify import (
    brute_force_hamilton,
    verify_certificate,
    verify_factor,
    verify_flip_properties,
    verify_tree,
    verify_tuple_closure,
)
from oddgray.words import Bits, enumerate_dyck

B = Bits.parse


def report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def run_gen(k, fmt="subsets"):
    res = subprocess.run(
        [sys.executable, "-m", "oddgray", "gen", "--k", str(k), "--format", fmt],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_criterion_01_odd_graph_hamilton_cycles():
    elapsed_10 = None
    for k in range(3, 11):
        t0 = time.perf_counter()
        lines = run_gen(k)
        elapsed = time.perf_counter() - t0
        if k == 10:
            elapsed_10 = elapsed
        n = comb(2 * k + 1, k)
        assert len(lines) == n, (k, len(lines))
        subsets = [frozenset(map(int, line[1:-1].split(","))) for line in lines]
        ground = set(range(1, 2 * k + 2))
        assert all(len(s) == k and s <= ground for s in subsets)
        assert len(set(subsets)) == n
        for i in range(n):
            assert not subsets[i] & subsets[(i + 1) % n], (k, i)
    assert elapsed_10 < 30.0, f"k=10 took {elapsed_10:.1f}s"
    report(1, f"gen k=3..10 emits exact disjoint-consecutive k-subsets; "
              f"k=10 in {elapsed_10:.1f}s < 30s")


def test_criterion_02_factor_covers_layers():
    for k in range(1, 12):
        r = verify_factor(k)
        assert r.passed, (k, r.failures[:3])
    report(2, "factor paths disjoint, covering, Catalan-many, length 2k+1 for k=1..11")


def test_criterion_03_flip_sequence_properties():
    for k in range(1, 12):
        r = verify_flip_properties(k)
        assert r.passed, (k, r.failures[:3])
    report(3, "flip sequences are alternating permutations (k<=11); "
              "concatenation identity exact for semilength sums <= 8")


def test_criterion_04_base_witnesses():
    for p in (fan(), fan(B("10")), BRIDGE, PATCH, QUAD):
        assert is_witness(p.tuple(), p.base_witness()), str(p)
    report(4, "all five seed patterns are witnessed by their literal cycles")


def test_criterion_05_pool_is_conflict_free():
    for k in range(3, 9):
        assert conflict_violations(enumerate_tuples(k)) == [], k
    report(5, "tuple pool conflict-free for k=3..8")


def test_criterion_06_trees_validate():
    for k in range(3, 10):
        r = verify_tree(k)
        assert r.passed, (k, r.failures[:3])
    for k in (6, 7):
        for mask in range(1 << mask_width(k)):
            r = verify_tree(k, mask)
            assert r.passed, (k, mask, r.failures[:3])
    report(6, "trees k=3..9 and all counting trees k=6,7 validate with "
              "edge-disjoint witnesses")


def test_criterion_07_double_exponential_count():
    counts = {}
    for k, bound in ((6, 2), (7, 4)):
        edge_sets = set()
        for mask in range(1 << mask_width(k)):
            cert = hamilton_odd(k, mask)
            assert verify_certificate(cert).passed
            edge_sets.add(cert.edge_set())
        counts[k] = len(edge_sets)
        assert counts[k] >= bound, (k, counts[k])
    report(7, f"distinct Hamilton cycles: k=6 gives {counts[6]} >= 2, "
              f"k=7 gives {counts[7]} >= 4")


def test_criterion_08_middle_levels():
    for k in range(1, 10):
        res = subprocess.run(
            [sys.executable, "-m", "oddgray", "middle", "--k", str(k)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        n = 2 * comb(2 * k + 1, k)
        assert len(lines) == n, k
        vals = [Bits.parse(line) for line in lines]
        assert len(set(vals)) == n
        for i in range(n):
            a, b = vals[i], vals[(i + 1) % n]
            small, big = (a, b) if a.weight < b.weight else (b, a)
            assert {small.weight, big.weight} == {k, k + 1}
            assert small.val & big.val == small.val
    report(8, "middle-levels cycles nested with sizes {k,k+1} for k=1..9")


def test_criterion_09_oracle_cross_check():
    assert brute_force_hamilton(2, "odd") is None
    found = brute_force_hamilton(3, "odd")
    assert found is not None

    pool = enumerate_tuples(3)
    base = frozenset(enumerate_dyck(3))
    valid = []
    for r in range(len(pool) + 1):
        for sub in combinations(pool, r):
            ds = [derivations(t)[0] for t in sub]
            assert [d.tuple() for d in ds] == list(sub)
            if validate_tree(hand_tree(base, ds)).passed:
                valid.append(set(sub))
    assert {fan().tuple(), BRIDGE.tuple()} in valid
    report(9, "Petersen graph has no Hamilton cycle, the order-3 odd graph does, "
              "and the published two-tuple tree is found exhaustively")


def test_criterion_10_published_table_reproduced():
    table = {
        "111000": ((6, 2, 4, 3, 5, 1),
                   "111000,111001,101001,101101,100101,100111,000111"),
        "110100": ((6, 4, 5, 2, 3, 1),
                   "110100,110101,110001,110011,100011,101011,001011"),
        "110010": ((4, 2, 3, 1, 6, 5),
                   "110010,110110,100110,101110,001110,001111,001101"),
        "101100": ((2, 1, 6, 4, 5, 3),
                   "101100,111100,011100,011101,011001,011011,010011"),
        "101010": ((2, 1, 4, 3, 6, 5),
                   "101010,111010,011010,011110,010110,010111,010101"),
    }
    for word, (seq, verts) in table.items():
        assert flip_sequence(B(word)) == seq
        assert ",".join(str(v) for v in path(B(word)).vertices) == verts
    assert flip_edge(B("111000"), 3) == frozenset({B("101101"), B("100101")})
    assert flip_edge(B("111000"), 1) == frozenset({B("100111"), B("000111")})
    report(10, "published flip sequences, paths and edges reproduced verbatim")


def test_pool_witnesses_verified():
    # supporting exactness behind criteria 5 and 6: every pool tuple up to
    # semilength 6 carries a passing witness
    for k in range(2, 7):
        r = verify_tuple_closure(k)
        assert r.passed, (k, r.failures[:3])
