import pytest

from oddgray import verify
from oddgray.assembly import CycleCertificate, hamilton_odd
from oddgray.checking import cycle_factor
from oddgray.verify import (
    brute_force_hamilton,
    verify_certificate,
    verify_cycle,
    verify_factor,
    verify_flip_properties,
    verify_tree,
    verify_tuple_closure,
)
from oddgray.words import Bits

B = Bits.parse


def test_verify_certificate_accepts_generated():
    assert verify_certificate(hamilton_odd(3)).passed


def test_verify_certificate_rejects_concatenated_factor():
    # the factor's 35 vertices in path order are not a single cycle
    verts = tuple(
        to_subset(v) for p in cycle_factor(3) for v in p.vertices
    )
    cert = CycleCertificate(3, "odd", verts)
    report = verify_certificate(cert)
    assert not report.passed
    assert report.failures == (("adjacency", "step 6: (4, 5, 6) -> (1, 2, 4)"),)


def to_subset(v):
    from oddgray.assembly import to_odd_vertex

    return to_odd_vertex(v)


def test_verify_certificate_rejects_repeat():
    cert = hamilton_odd(3)
    doctored = CycleCertificate(3, "odd", cert.vertices[:-1] + (cert.vertices[0],))
    report = verify_certificate(doctored)
    assert not report.passed
    assert report.failures == (
        ("distinct", "repeated vertex"),
        ("adjacency", "step 33: (2, 3, 7) -> (1, 2, 3)"),
    )


def test_verify_certificate_rejects_wrong_count():
    cert = hamilton_odd(3)
    short = CycleCertificate(3, "odd", cert.vertices[:-1])
    report = verify_certificate(short)
    assert not report.passed
    assert report.failures == (
        ("vertex-count", "34 instead of 35"),
        ("adjacency", "step 33: (2, 3, 7) -> (1, 2, 3)"),
    )


def test_verify_certificate_rejects_bad_vertex_form():
    cert = CycleCertificate(3, "odd", ((1, 2, 3), (4, 5, 6, 7)))
    report = verify_certificate(cert)
    assert report.failures == (("vertex-count", "2 instead of 35"), ("vertex-form", "(4, 5, 6, 7)"))


def test_verify_certificate_malformed_vertices_are_shown_as_given_and_not_repeats():
    cert = CycleCertificate(3, "odd", ((1, 1, 2), (1, 1, 2), (0, 1, 2), [1, 2, 3]))
    report = verify_certificate(cert)
    assert report.failures == (("vertex-count", "4 instead of 35"), ("vertex-form", "(1, 1, 2)"))


def test_verify_cycle_reads_a_one_shot_iterator():
    from oddgray.assembly import stream_middle_vals, stream_odd_vals

    def show(i, v):
        return f"{i}:{v}"

    assert verify_cycle(5, "odd", stream_odd_vals(5), show).passed
    assert verify_cycle(4, "middle", stream_middle_vals(4), show).passed
    short = verify_cycle(5, "odd", iter([7, 7]), show)
    assert short.failures == (
        ("vertex-count", "2 instead of 462"),
        ("vertex-form", "0:7"),
    )


def test_verify_certificate_gplus_adjacency():
    # one-bit steps plus the closing complement step
    cert = CycleCertificate(1, "gplus", (B("10"), B("11"), B("01")))
    assert verify_certificate(cert).passed


def test_verify_certificate_unknown_target():
    cert = CycleCertificate(3, "nonsense", ())
    report = verify_certificate(cert)
    assert not report.passed
    assert report.failures == (("target", "unknown target 'nonsense'"),)


def test_brute_force_petersen_has_no_cycle():
    assert brute_force_hamilton(2, "odd") is None


@pytest.mark.parametrize(
    "k, target, count",
    [(6, "odd", 1716), (4, "gplus", 126), (3, "middle", 70), (20, "odd", 269128937220)],
)
def test_brute_force_refuses_before_building_the_graph(monkeypatch, k, target, count):
    # The vertex count follows from k and the target, so an instance above the
    # cap is refused without building its graph.
    def no_graph(*args):
        raise AssertionError("_raw_graph called")

    monkeypatch.setattr(verify, "_raw_graph", no_graph)
    with pytest.raises(ValueError) as err:
        brute_force_hamilton(k, target)
    assert str(err.value) == f"{count} vertices exceed the brute-force cap of 40"


def test_brute_force_rejects_unknown_target():
    with pytest.raises(ValueError, match="unknown target 'nonsense'"):
        brute_force_hamilton(3, "nonsense")


def test_brute_force_finds_small_cycles():
    cycle = brute_force_hamilton(3, "odd")
    assert cycle is not None
    cert = CycleCertificate(3, "odd", tuple(cycle))
    assert verify_certificate(cert).passed

    six = brute_force_hamilton(1, "middle")
    assert six is not None and len(six) == 6


def test_brute_force_gplus_matches_petersen():
    assert brute_force_hamilton(2, "gplus") is None
    assert brute_force_hamilton(3, "gplus") is not None


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_hamilton(4, "odd")


def test_property_suites_pass_small():
    for k in range(1, 7):
        assert verify_factor(k).passed
        assert verify_flip_properties(k).passed
    for k in range(2, 6):
        assert verify_tuple_closure(k).passed
    for k in range(3, 7):
        assert verify_tree(k).passed
    assert verify_tree(6, 0).passed
    assert verify_tree(6, 1).passed


def test_verify_tree_checks_the_packed_entries(monkeypatch):
    # The splice reads tree.packed; one witness there rotated by a vertex must
    # be reported, though the entry's derivation and tuple stay the same.
    from oddgray import spanning

    tree = spanning.full_tree(5)
    packed = list(tree.packed)
    pattern, cycle, support = packed[3]
    packed[3] = (pattern, cycle[1:] + cycle[:1], support)
    broken = spanning.SpanningTree(tree.base, tuple(packed), 10)
    monkeypatch.setattr(spanning, "full_tree", lambda k: broken)
    assert verify_tree(5).failures == (("packed-entry", str(tree.entries[3].tup)),)
    monkeypatch.setattr(spanning, "full_tree", lambda k: tree)
    assert verify_tree(5).passed


def test_verify_certificate_is_independent_of_construction_modules():
    import ast
    import inspect

    import oddgray.verify as mod

    tree = ast.parse(inspect.getsource(mod))
    top_imports = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            top_imports.add(node.module)
        elif isinstance(node, ast.Import):
            top_imports.update(a.name for a in node.names)
    banned = {"factor", "flippable", "spanning", "assembly"}
    assert not {m for m in top_imports if m and m.split(".")[-1] in banned}
