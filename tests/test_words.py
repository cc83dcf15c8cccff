import os
from math import comb

import pytest

from oddgray.words import (
    BYTES_PER_DYCK_WORD,
    Bits,
    EMPTY,
    cat,
    complement,
    decompose,
    enumerate_dyck,
    first_return,
    is_dyck,
    mirror,
    reverse,
    reverse_val,
)

B = Bits.parse


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_parse_roundtrip():
    for s in ("", "0", "1", "110010", "0000001"):
        assert str(B(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        B("10x")


def test_positions_are_one_based():
    x = B("110010")
    assert [x.bit(i) for i in range(1, 7)] == [1, 1, 0, 0, 1, 0]
    assert str(x.flip(3)) == "111010"


def test_length_bounds():
    with pytest.raises(ValueError):
        Bits(0, 63)
    with pytest.raises(ValueError):
        Bits(4, 2)


def test_complement():
    assert complement(B("111000")) == B("000111")
    assert complement(EMPTY) == EMPTY
    assert complement(B("110010")) == B("001101")


def test_weight_complement_identity():
    for k in range(0, 7):
        for x in enumerate_dyck(k):
            assert x.weight + complement(x).weight == len(x)


def test_mirror_examples():
    assert mirror(B("110010")) == B("101100")
    assert mirror(B("10")) == B("10")
    assert mirror(B("101100")) == B("110010")


def test_mirror_involution_and_dyckness():
    for k in range(0, 10):
        for x in enumerate_dyck(k):
            m = mirror(x)
            assert is_dyck(m)
            assert mirror(m) == x


def test_reverse():
    assert reverse(B("110")) == B("011")
    assert reverse(EMPTY) == EMPTY


def test_reverse_val_matches_the_reversed_string():
    # The byte-table reversal against the string it replaces, for every value
    # up to 11 bits and for values across byte boundaries up to 62 bits.
    cases = [(v, n) for n in range(12) for v in range(1 << n)]
    cases += [(((1 << n) - 1) // 3 ^ 1 << (n - 1), n) for n in range(12, 63)]
    for v, n in cases:
        assert reverse_val(v, n) == int(f"{v:0{n}b}"[::-1] or "0", 2), (v, n)


def test_is_dyck():
    assert is_dyck(B("110010"))
    assert not is_dyck(B("011010"))
    assert is_dyck(B("1100"))
    assert is_dyck(EMPTY)
    assert not is_dyck(B("1"))
    assert not is_dyck(B("1010100"))  # odd length


def test_decompose_examples():
    assert decompose(B("10")) == (EMPTY, EMPTY)
    assert decompose(B("110010")) == (B("10"), B("10"))
    assert decompose(B("111000")) == (B("1100"), EMPTY)


def test_decompose_rejects():
    with pytest.raises(ValueError):
        decompose(EMPTY)
    with pytest.raises(ValueError):
        decompose(B("0110"))


def test_decompose_recompose_identity():
    one, zero = B("1"), B("0")
    for k in range(1, 9):
        for x in enumerate_dyck(k):
            u, v = decompose(x)
            assert is_dyck(u) and is_dyck(v)
            assert cat(one, u, zero, v) == x
            assert first_return(x) == len(u) + 2


def test_enumerate_order_and_counts():
    assert [str(x) for x in enumerate_dyck(1)] == ["10"]
    assert [str(x) for x in enumerate_dyck(3)] == [
        "111000",
        "110100",
        "110010",
        "101100",
        "101010",
    ]
    for k in range(0, 10):
        words = enumerate_dyck(k)
        assert len(words) == catalan(k)
        assert len(set(words)) == len(words)
        assert all(is_dyck(x) for x in words)
    # spot-check a large enumeration against the closed formula
    assert len(enumerate_dyck(12)) == catalan(12)


def test_enumerate_descending_lexicographic():
    # '1' ranks above '0', so the rendered strings strictly decrease.
    for k in (2, 3, 4, 5):
        words = [str(x) for x in enumerate_dyck(k)]
        assert words == sorted(words, reverse=True)


def test_enumerate_rejects_oversize():
    with pytest.raises(ValueError):
        enumerate_dyck(32)


def test_enumerate_refuses_a_semilength_too_large_for_memory():
    # Catalan(30) words fit the packing but no memory: refused before enumerating.
    with pytest.raises(ValueError) as refused:
        enumerate_dyck(30)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert str(refused.value) == (
        "semilength 30 has 3,814,986,502,092,304 Dyck words, which need about "
        f"{catalan(30) * BYTES_PER_DYCK_WORD >> 20:,} MB; "
        f"this machine has {have >> 20:,} MB of physical memory"
    )


def test_concat_and_slice():
    x = B("1100") + B("10")
    assert x == B("110010")
    assert x.slice(2, 5) == B("1001")
    assert x.slice(4, 3) == EMPTY
    with pytest.raises(IndexError):
        x.slice(0, 2)


def test_ordering_is_ascii_lexicographic():
    words = [B("110010"), B("111000"), B("101010"), B("101100")]
    assert sorted(str(w) for w in words) == [str(w) for w in sorted(words)]
