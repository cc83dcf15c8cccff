"""The packed vertex view that certificates hold (``words.Vertices``).

A certificate built by ``hamilton_gplus``, ``hamilton_odd`` or
``hamilton_middle_levels`` keeps its cycle as an ``array('Q')`` of packed
values and decodes a vertex only when it is read. These tests pin the
decode, check that the view reads as the tuple of its vertices, that
``verify_certificate`` judges a view exactly as it judges that tuple, and
that a certificate holds at most 16 bytes a vertex.
"""

import pickle
import tracemalloc
from itertools import combinations

import pytest

from oddgray import CycleCertificate, verify_certificate
from oddgray.assembly import hamilton_gplus, hamilton_middle_levels, hamilton_odd
from oddgray.spanning import full_tree
from oddgray.words import Bits, Vertices, positions


def weight_vals(n, weights):
    """Every n-bit value whose weight is in ``weights``, in increasing order."""
    return [v for v in range(1 << n) if v.bit_count() in weights]


def pack(subset):
    return sum(1 << (i - 1) for i in subset)


@pytest.mark.parametrize("k", range(1, 9))
def test_odd_decode_is_positions_and_packs_back(k):
    n = 2 * k + 1
    vals = weight_vals(n, {k})
    view = Vertices(vals, n, True)
    assert list(view) == [positions(v) for v in vals]
    assert [pack(s) for s in view] == vals
    assert all(len(s) == k for s in view)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("n_of", [lambda k: 2 * k, lambda k: 2 * k + 1], ids=["gplus", "middle"])
def test_bits_decode_keeps_the_value(k, n_of):
    n = n_of(k)
    vals = weight_vals(n, {k, k + 1})
    view = Vertices(vals, n, False)
    assert [(x.val, x.n) for x in view] == [(v, n) for v in vals]


def certificates():
    """One certificate per target at k = 3 and 4, and the fixed middle cycles at k = 1 and 2."""
    for k in (3, 4):
        yield hamilton_gplus(k, full_tree(k))
        yield hamilton_odd(k)
        yield hamilton_middle_levels(k)
    yield hamilton_middle_levels(1)
    yield hamilton_middle_levels(2)


CERTIFICATES = list(certificates())
IDS = [f"{c.target}-{c.k}" for c in CERTIFICATES]


@pytest.mark.parametrize("cert", CERTIFICATES, ids=IDS)
def test_view_reads_as_its_tuple(cert):
    view = cert.vertices
    t = tuple(view)
    assert isinstance(view, Vertices) and len(t) > 4
    assert len(view) == len(t)
    assert view[0] == t[0] and view[-1] == t[-1] and view[3] == t[3]
    for i in (len(t), -len(t) - 1):
        with pytest.raises(IndexError):
            view[i]
    for s in (slice(1, 4), slice(None, -1), slice(-3, None), slice(None, None, -1), slice(5, 2)):
        assert type(view[s]) is tuple and view[s] == t[s]
    assert view[:-1] + (view[0],) == t[:-1] + (t[0],)
    assert list(view) == list(t) and list(reversed(view)) == list(reversed(t))
    assert view == t and t == view and not view != t and not t != view
    assert view != t[:-1] and t[:-1] != view and view != list(t)
    assert view == Vertices(view.vals, view.n, view.odd)
    assert hash(view) == hash(t)
    assert repr(view) == repr(t)
    assert t[2] in view and view.index(t[2]) == 2 and view.count(t[2]) == 1


@pytest.mark.parametrize("cert", CERTIFICATES, ids=IDS)
def test_certificate_pickles_as_its_values(cert):
    data = pickle.dumps(cert)
    back = pickle.loads(data)
    assert back == cert and back.vertices.vals == cert.vertices.vals
    assert isinstance(back.vertices, Vertices)
    assert len(data) <= 8 * len(cert.vertices) + 512


@pytest.mark.parametrize("cert", CERTIFICATES, ids=IDS)
def test_edge_set_is_the_tuples(cert):
    t = tuple(cert.vertices)
    n = len(t)
    edges = {frozenset((t[i], t[(i + 1) % n])) for i in range(n)}
    assert cert.edge_set() == edges
    assert CycleCertificate(cert.k, cert.target, t).edge_set() == edges


def mismatched():
    """Views whose length or kind is not their certificate's, and doctored views."""
    odd3, mid3, gplus3 = hamilton_odd(3), hamilton_middle_levels(3), hamilton_gplus(3, full_tree(3))
    odd4 = hamilton_odd(4)
    yield "middle-in-gplus", CycleCertificate(3, "gplus", mid3.vertices)
    yield "gplus-in-middle", CycleCertificate(3, "middle", gplus3.vertices)
    yield "odd-in-middle", CycleCertificate(3, "middle", odd3.vertices)
    yield "middle-in-odd", CycleCertificate(3, "odd", mid3.vertices)
    yield "odd4-in-odd3", CycleCertificate(3, "odd", odd4.vertices)
    yield "odd3-in-odd4", CycleCertificate(4, "odd", odd3.vertices)
    vals = list(odd3.vertices.vals)
    yield "repeat", CycleCertificate(3, "odd", Vertices(vals[:-1] + vals[:1], 7, True))
    yield "short", CycleCertificate(3, "odd", Vertices(vals[:-1], 7, True))
    yield "weight", CycleCertificate(3, "odd", Vertices(vals[:5] + [0b1111] + vals[6:], 7, True))
    # every subset once, in lexicographic order: only the adjacency fails
    lex = Vertices(map(pack, combinations(range(1, 8), 3)), 7, True)
    yield "lex", CycleCertificate(3, "odd", lex)
    mids = list(mid3.vertices.vals)
    yield "swap", CycleCertificate(3, "middle", Vertices(mids[1:2] + mids[:1] + mids[2:], 7, False))


@pytest.mark.parametrize("case, cert", list(mismatched()), ids=[c for c, _ in mismatched()])
def test_verify_judges_a_view_as_its_tuple(case, cert):
    report = verify_certificate(cert)
    as_tuple = verify_certificate(CycleCertificate(cert.k, cert.target, tuple(cert.vertices)))
    assert not report.passed
    assert report == as_tuple


def test_view_of_the_wrong_length_fails_vertex_form():
    mid3 = hamilton_middle_levels(3)
    report = verify_certificate(CycleCertificate(3, "gplus", mid3.vertices))
    assert report.failures[:2] == (
        ("vertex-count", "70 instead of 35"),
        ("vertex-form", str(mid3.vertices[0])),
    )
    odd4 = hamilton_odd(4)
    report = verify_certificate(CycleCertificate(3, "odd", odd4.vertices))
    assert report.failures == (
        ("vertex-count", "126 instead of 35"),
        ("vertex-form", "(1, 2, 3, 4)"),
    )


def test_odd_certificate_holds_at_most_16_bytes_a_vertex():
    # A tuple of k-tuples held about 104 bytes a vertex here, by the same count.
    hamilton_odd(8, 5)  # the words, flip sequences and seed tables are kept from here on
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = hamilton_odd(8, 5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cert.vertices) == 24310
    assert held <= 16 * len(cert.vertices), held


def test_bits_views_compare_by_value_and_length():
    assert Vertices([1, 2], 2, False) == (Bits(1, 2), Bits(2, 2))
    assert Vertices([1, 2], 2, False) != Vertices([1, 2], 3, False)
    assert Vertices([1, 2], 2, False) != Vertices([1, 2], 2, True)
    assert Vertices([], 3, False) == () == Vertices([], 5, True)
