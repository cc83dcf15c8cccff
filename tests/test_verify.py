import io
import os
import subprocess
import sys
import time
import tracemalloc
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray import verify
from oddgray.assembly import CycleCertificate, hamilton_odd, stream_gplus_vals
from oddgray.checking import cycle_factor
from oddgray.spanning import full_tree
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
    from oddgray.assembly import odd_walk, stream_middle_vals, walk_vals

    def show(i, v):
        return f"{i}:{v}"

    assert verify_cycle(5, "odd", walk_vals(odd_walk(5)), show).passed
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
    # The splice reads tree.packed; a quad there with its last two members
    # swapped, so that each names the other's witness positions, must be
    # reported, though the entry's derivation and tuple stay the same.
    from oddgray import spanning

    tree = spanning.full_tree(5)
    packed = list(tree.packed)
    idx = next(i for i, (pattern, _) in enumerate(packed) if pattern.family == "quad")
    pattern, (*head, a, b) = packed[idx]
    packed[idx] = (pattern, (*head, b, a))
    broken = spanning.SpanningTree(tree.base, tuple(packed), 10)
    assert broken.entries[idx] == tree.entries[idx]
    monkeypatch.setattr(spanning, "full_tree", lambda k: broken)
    assert verify_tree(5).failures == (("packed-entry", str(tree.entries[idx].tup)),)
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


# --- The bitmap check against the set-based check it replaced ---------------


def set_verify_cycle(k, target, vals, show=None):
    """``verify_cycle`` as it was when it held the set of vertices seen: the reference."""
    from oddgray.words import bitstring, positions

    size = comb(2 * k + 1, k)
    spec = {
        "odd": (2 * k + 1, {k}, size, {2 * k}),
        "gplus": (2 * k, {k, k + 1}, size, {1, 2 * k}),
        "middle": (2 * k + 1, {k, k + 1}, 2 * size, {1}),
    }.get(target)
    if spec is None:
        return (False, (("target", f"unknown target {target!r}"),))
    n, weights, expected, steps = spec
    if show is None:
        show = lambda i, v: str(positions(v)) if target == "odd" else bitstring(v, n)
    seen = set()
    bad = misstep = None
    count = malformed = 0
    for v in vals:
        if v >> n or v.bit_count() not in weights:
            malformed += 1
            bad = bad or (count, v)
        else:
            seen.add(v)
        if not count:
            first = v
        elif misstep is None and (prev ^ v).bit_count() not in steps:
            misstep = count - 1, prev, v
        prev = v
        count += 1
    if count and misstep is None and (prev ^ first).bit_count() not in steps:
        misstep = count - 1, prev, first
    failures = []
    if count != expected:
        failures.append(("vertex-count", f"{count} instead of {expected}"))
    if bad is not None:
        failures.append(("vertex-form", show(*bad)))
    if len(seen) + malformed < count:
        failures.append(("distinct", "repeated vertex"))
    if bad is None and misstep is not None:
        i, a, b = misstep
        failures.append(("adjacency", f"step {i}: {show(i, a)} -> {show((i + 1) % count, b)}"))
    return (not failures, tuple(failures))


@cache
def base_cycle(target, k):
    """The target's cycle at k, or its vertices in increasing order where it has none."""
    from oddgray.assembly import odd_walk, stream_middle_vals, walk_vals

    if target == "odd" and k >= 3:
        return tuple(walk_vals(odd_walk(k)))
    if target == "middle":
        return tuple(stream_middle_vals(k))
    if target == "gplus" and k >= 3:
        return tuple(stream_gplus_vals(k, full_tree(k)))
    n, weights = (2 * k + 1, {k}) if target == "odd" else (2 * k, {k, k + 1})
    return tuple(v for v in range(1 << n) if v.bit_count() in weights)


def outcome(check, k, target, vals, show):
    """The report as a plain pair, or the error that rendering a vertex raised."""
    try:
        return tuple(check(k, target, iter(vals), show))
    except ValueError as exc:
        return ("raised", str(exc))


@st.composite
def doctored_streams(draw):
    target = draw(st.sampled_from(("odd", "gplus", "middle")))
    k = draw(st.integers(1, 6))
    vals = list(base_cycle(target, k))
    n = 2 * k if target == "gplus" else 2 * k + 1
    values = st.one_of(
        st.sampled_from(vals),  # a repeat
        st.integers(0, (1 << n) - 1),  # often a wrong weight
        st.integers(1 << n, 1 << (n + 2)),  # out of range
        st.just(-1),
    )
    for _ in range(draw(st.integers(0, 3))):
        if not vals:
            vals.append(draw(values))
            continue
        i = draw(st.integers(0, len(vals) - 1))
        edit = draw(st.sampled_from(("swap", "repeat", "drop", "insert", "replace")))
        if edit == "swap":
            j = draw(st.integers(0, len(vals) - 1))
            vals[i], vals[j] = vals[j], vals[i]
        elif edit == "repeat":
            vals[i] = vals[draw(st.integers(0, len(vals) - 1))]
        elif edit == "drop":
            del vals[i]
        elif edit == "insert":
            vals.insert(i, draw(values))
        else:
            vals[i] = draw(values)
    if not draw(st.integers(0, 9)):
        vals = []
    return k, target, vals


@settings(deadline=None, max_examples=300)
@given(doctored_streams(), st.booleans())
def test_verify_cycle_matches_the_set_reference(stream, default_show):
    k, target, vals = stream
    show = None if default_show else (lambda i, v: f"{i}:{v}")
    assert outcome(verify_cycle, k, target, vals, show) == outcome(
        set_verify_cycle, k, target, vals, show
    )


@pytest.mark.parametrize("target", ["odd", "gplus", "middle"])
@pytest.mark.parametrize("k", range(1, 7))
def test_verify_cycle_matches_the_set_reference_on_every_base(k, target):
    vals = base_cycle(target, k)
    for stream in (vals, vals + vals[:1], vals[1:], (), (-1,) + vals):
        assert outcome(verify_cycle, k, target, stream, None) == outcome(
            set_verify_cycle, k, target, stream, None
        )


ODD3 = hamilton_odd(3).vertices
MID1 = tuple(map(B, ("100", "110", "010", "011", "001", "101")))


# The expected failures were recorded from the set-based check.
@pytest.mark.parametrize(
    "k, target, vertices, failures",
    [
        (3, "odd", ODD3[:5] + (list(ODD3[5]),) + ODD3[6:], (("vertex-form", "[2, 4, 5]"),)),
        (3, "odd", tuple(map(list, ODD3)), (("vertex-form", "[1, 2, 3]"),)),
        (3, "odd", ODD3[:2] + ((1, 2),) + ODD3[3:], (("vertex-form", "(1, 2)"),)),
        (3, "odd", ODD3[:-1] + ((1, 2, 3, 4),), (("vertex-form", "(1, 2, 3, 4)"),)),
        # (2, 2, 1) packs to {1, 3}, but its length is not k: malformed, not a repeat
        (2, "odd", ((2, 2, 1), (1, 3)), (
            ("vertex-count", "2 instead of 10"), ("vertex-form", "(2, 2, 1)"),
        )),
        (2, "odd", ((1, 3), (2, 2, 1)), (
            ("vertex-count", "2 instead of 10"), ("vertex-form", "(2, 2, 1)"),
        )),
        (3, "odd", ODD3[:7] + ((5, 5, 6),) + ODD3[8:], (("vertex-form", "(5, 5, 6)"),)),
        (3, "odd", ((1, 1, 2),) + ODD3[1:], (("vertex-form", "(1, 1, 2)"),)),
        (3, "odd", ODD3[:3] + ((0, 1, 2), (1, 2, 8)) + ODD3[5:], (("vertex-form", "(0, 1, 2)"),)),
        (1, "middle", MID1[:2] + (B("1100"),) + MID1[3:], (("vertex-form", "1100"),)),
        (1, "middle", MID1[:-1] + (B("01"),), (("vertex-form", "01"),)),
        (1, "middle", MID1[:3] + (MID1[3].val,) + MID1[4:], (("vertex-form", "6"),)),
        (1, "gplus", (B("10"), B("110"), B("01")), (("vertex-form", "110"),)),
        (1, "gplus", (B("10"), "11", B("01")), (("vertex-form", "11"),)),
    ],
)
def test_verify_certificate_cases(k, target, vertices, failures):
    assert verify_certificate(CycleCertificate(k, target, vertices)).failures == failures


def reference_lines(k, target, lines):
    """``verify_lines`` as it was when each line was checked and packed alone."""
    n = 2 * k if target == "gplus" else 2 * k + 1
    malformed = []

    def vals():
        for i, line in enumerate(filter(None, map(str.strip, lines)), 1):
            if len(line) != n or line.strip("01"):
                malformed.append(("line-format", f"line {i}: {line!r}"))
                return
            yield int(line[::-1], 2)

    report = set_verify_cycle(k, target, vals())
    return (False, tuple(malformed)) if malformed else report


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_verify_lines_matches_the_per_line_reference(data):
    # k = 7 has 6,435 lines, so a doctored line may fall in the second block.
    from oddgray.words import bitstring

    k = data.draw(st.sampled_from((3, 7)))
    lines = [bitstring(v, 2 * k + 1) for v in base_cycle("odd", k)]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines)))
        edit = data.draw(st.sampled_from(("blank", "space", "short", "long", "char", "drop")))
        if edit == "blank":
            lines.insert(i, data.draw(st.sampled_from(("", "  ", "\t"))))
        elif i < len(lines):
            line = lines[i]
            lines[i] = {
                "space": " " + line + " ",
                "short": line[:-1],
                "long": line + "0",
                "char": line[:2] + data.draw(st.sampled_from("2a \udcc3")) + line[3:],
                "drop": "",
            }[edit]
    text = "".join(line + "\n" for line in lines)
    assert tuple(verify.verify_lines(k, "odd", io.StringIO(text))) == reference_lines(
        k, "odd", io.StringIO(text)
    )


def test_verify_cycle_holds_no_set_of_the_vertices():
    # The bitmap of k = 10 takes 256 KB of an anonymous mapping, which
    # tracemalloc does not see; a set of the 352,716 vertices would take 16 MB.
    from oddgray.assembly import odd_walk, walk_vals

    vals = list(walk_vals(odd_walk(10)))
    tracemalloc.start()
    try:
        assert verify_cycle(10, "odd", iter(vals)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 21 >> 3) + (1 << 20)


def physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# The smallest k whose odd-graph bitmap, one bit per (2k+1)-bit value, exceeds
# this machine's physical memory (k = 18 with 8 GB).
TOO_LARGE = min(k for k in range(1, 31) if 1 << (2 * k + 1) >> 3 > physical_memory())


def refusal(k):
    return (
        f"k = {k} needs a bitmap of {(1 << (2 * k + 1) >> 3) >> 20:,} MB, one bit per "
        f"{2 * k + 1}-bit value; this machine has {physical_memory() >> 20:,} MB of physical memory"
    )


def test_verify_cycle_refuses_a_bitmap_too_large_before_reading():
    def untouched():
        raise AssertionError("a value was read")
        yield

    with pytest.raises(ValueError) as err:
        verify_cycle(TOO_LARGE, "odd", untouched())
    assert str(err.value) == refusal(TOO_LARGE)


def test_verify_cli_refuses_a_bitmap_too_large(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1" * TOO_LARGE + "0" * (TOO_LARGE + 1) + "\n")
    res = subprocess.run(
        [sys.executable, "-m", "oddgray", "verify", "--k", str(TOO_LARGE), "--target", "odd",
         "--input", str(path)],
        capture_output=True, text=True, timeout=10,
    )
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {refusal(TOO_LARGE)}\n")


# A child's ru_maxrss starts at the peak of the process that forks it, and
# the test process may have peaked far above 50 MB; so the child is forked by
# a fresh interpreter, which passes its output on and then prints its exit
# code and peak RSS in kB (as os.wait4 gives it on Linux).
PEAK_OF_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_verify_cli_at_the_largest_bitmap_touches_only_what_it_reads(tmp_path):
    # Untouched pages of the anonymous mapping cost no memory, so three lines
    # are checked at once even when the bitmap takes gigabytes.
    k = TOO_LARGE - 1
    path = tmp_path / "three.txt"
    path.write_text("".join("1" * k + "0" * (k + 1) + "\n" for _ in range(3)))
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-c", PEAK_OF_CHILD, sys.executable, "-m", "oddgray", "verify",
         "--k", str(k), "--target", "odd", "--input", str(path)],
        capture_output=True, text=True, check=True,
    )
    assert time.perf_counter() - start < 2
    *out, last = res.stdout.splitlines()
    code, peak_kb = map(int, last.split())
    assert code == 1 and out[0].startswith("FAIL vertex-count: 3 instead of ")
    assert peak_kb / 1024 < 50
