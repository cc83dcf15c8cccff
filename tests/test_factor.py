from math import comb

import pytest

from oddgray.checking import cycle_factor, flip_edge, locate, path
from oddgray.factor import flip_sequence, flip_sequences
from oddgray.words import Bits, cat, complement, decompose, enumerate_dyck, mirror

B = Bits.parse

# The five semilength-3 paths and their flip sequences, as published.
TABLE = {
    "111000": ((6, 2, 4, 3, 5, 1), "111000,111001,101001,101101,100101,100111,000111"),
    "110100": ((6, 4, 5, 2, 3, 1), "110100,110101,110001,110011,100011,101011,001011"),
    "110010": ((4, 2, 3, 1, 6, 5), "110010,110110,100110,101110,001110,001111,001101"),
    "101100": ((2, 1, 6, 4, 5, 3), "101100,111100,011100,011101,011001,011011,010011"),
    "101010": ((2, 1, 4, 3, 6, 5), "101010,111010,011010,011110,010110,010111,010101"),
}


def test_flip_sequence_base():
    assert flip_sequence(B("")) == ()
    assert flip_sequence(B("10")) == (2, 1)


def test_flip_sequence_of_the_longest_dyck_word():
    # 1^31 0^31 is as long as a Bits holds; its leading 1 closes at 62, the
    # widest shift a sequence takes.
    x = Bits((1 << 31) - 1, 62)
    seq = flip_sequence(x)
    assert sorted(seq) == list(range(1, 63))
    assert all(x.bit(a) == 1 - i % 2 for i, a in enumerate(seq, start=1))


def test_flip_sequence_rejects_non_dyck():
    for word in ("01", "1100" + "01", "110", "1"):
        with pytest.raises(ValueError):
            flip_sequence(B(word))


def test_flip_sequence_table():
    for word, (seq, _) in TABLE.items():
        assert flip_sequence(B(word)) == seq


def test_path_table():
    for word, (_, verts) in TABLE.items():
        assert ",".join(str(v) for v in path(B(word)).vertices) == verts


def test_path_small():
    assert [str(v) for v in path(B("10")).vertices] == ["10", "11", "01"]




def test_flip_sequence_properties():
    for k in range(1, 9):
        for x in enumerate_dyck(k):
            seq = flip_sequence(x)
            assert sorted(seq) == list(range(1, 2 * k + 1))
            for i, a in enumerate(seq, start=1):
                assert x.bit(a) == (0 if i % 2 else 1)


def test_flip_sequence_concatenation():
    for total in range(0, 7):
        for a in range(0, total + 1):
            for x in enumerate_dyck(a):
                for y in enumerate_dyck(total - a):
                    expected = flip_sequence(x) + tuple(len(x) + t for t in flip_sequence(y))
                    assert flip_sequence(x + y) == expected


def path_by_unfolding(x):
    """Independent oracle: the path via the structural recursion on 1u0v."""
    one, zero = B("1"), B("0")
    if len(x) == 0:
        return [x]
    u, v = decompose(x)
    inner = [mirror(z) for z in path_by_unfolding(mirror(u))]
    out = [x]
    out += [cat(one, w, one, v) for w in inner]
    out += [cat(zero, complement(u), one, w) for w in path_by_unfolding(v)]
    return out


def flips_by_unfolding(x):
    """The oracle path's flip positions: where consecutive vertices differ."""
    p = path_by_unfolding(x)
    return tuple((a.val ^ b.val).bit_length() for a, b in zip(p, p[1:]))


@pytest.mark.parametrize("k", range(10))
def test_flip_sequences_match_flip_sequence(k):
    # The shared table, one bytes object per word, against the unfolding oracle.
    assert flip_sequences(k) == tuple(map(bytes, map(flips_by_unfolding, enumerate_dyck(k))))


def test_flip_sequences_table_matches_the_per_word_recursion():
    # The table at k = 10 against ``flip_sequence``, which recurses on each word alone.
    assert flip_sequences(10) == tuple(bytes(flip_sequence(x)) for x in enumerate_dyck(10))


def test_mirror_reverses_flip_sequence():
    # F(mirror(u)) = |u| + 1 - reverse(F(u)), the identity that lets the
    # packed recursion skip mirroring, checked on the oracle alone.
    for k in range(8):
        for u in enumerate_dyck(k):
            flips = flips_by_unfolding(u)
            assert flips_by_unfolding(mirror(u)) == tuple(len(u) + 1 - a for a in reversed(flips))


def test_path_matches_unfolding_oracle():
    for k in range(1, 8):
        for x in enumerate_dyck(k):
            assert list(path(x).vertices) == path_by_unfolding(x)


def test_flip_edge_examples():
    assert flip_edge(B("111000"), 3) == frozenset({B("101101"), B("100101")})
    assert flip_edge(B("111000"), 1) == frozenset({B("100111"), B("000111")})
    assert flip_edge(B("10"), 2) == frozenset({B("10"), B("11")})


def test_flip_edge_rejects_out_of_range():
    with pytest.raises(ValueError):
        flip_edge(B("10"), 3)


def test_factor_covers_and_is_disjoint():
    for k in range(1, 8):
        seen = set()
        count = 0
        for p in cycle_factor(k):
            count += 1
            assert len(p.vertices) == 2 * k + 1
            assert p.vertices[0] == p.origin
            assert p.vertices[-1] == complement(p.origin)
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert (a.val ^ b.val).bit_count() == 1
            for v in p.vertices:
                assert v not in seen
                seen.add(v)
        assert count == comb(2 * k, k) // (k + 1)
        assert len(seen) == comb(2 * k + 1, k)


def test_factor_weights_alternate():
    for p in cycle_factor(4):
        weights = [v.weight for v in p.vertices]
        assert weights == [4 if i % 2 == 0 else 5 for i in range(9)]


def test_factor_k_bounds():
    with pytest.raises(ValueError):
        next(cycle_factor(0))
    with pytest.raises(ValueError):
        next(cycle_factor(31))


def test_locate_examples():
    assert locate(B("110010")) == (B("110010"), 0)
    assert locate(B("011011")) == (B("101100"), 5)
    assert locate(B("001011")) == (B("110100"), 6)


def test_locate_inverts_path_lookup():
    for k in range(1, 8):
        for p in cycle_factor(k):
            for i, v in enumerate(p.vertices):
                assert locate(v) == (p.origin, i)


def test_locate_rejects_wrong_weight():
    with pytest.raises(ValueError):
        locate(B("110000"))
    with pytest.raises(ValueError):
        locate(B("10010"))
