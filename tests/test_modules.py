"""Which oddgray modules each entry point loads, and the names kept at their old paths.

``checking`` holds the code that only searches, checks or reads back
derivations. Each generation run below, in a fresh process, must finish
without importing it. ``-X importtime`` shows that: it reports every import
the process makes, also one made inside a function. The ``tree`` command
reads derivations, so it must load ``checking``, which shows the report
sees a lazy import.
"""

import io
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import oddgray
from oddgray import checking, cli

PACKAGE = Path(oddgray.__file__).parent
# The lines of the oddgray modules ``gen --k 8`` may load.
GEN_LINE_BUDGET = 2100

RUNS = {
    "gen": ("-m", "oddgray", "gen", "--k", "8"),
    "middle": ("-m", "oddgray", "middle", "--k", "6"),
    "factor": ("-m", "oddgray", "factor", "--k", "5"),
    "verify": ("-m", "oddgray", "verify", "--k", "3", "--target", "odd", "--input", "-"),
    "library": ("-c", "import oddgray; oddgray.verify_certificate(oddgray.hamilton_odd(8, 5))"),
    "tree": ("-m", "oddgray", "tree", "--k", "4"),
}

# Every name ``oddgray/__init__.py`` exported before ``checking`` was split off.
EXPORTED = """
    Bits cat complement decompose enumerate_dyck is_dyck mirror
    FactorPath cycle_factor flip_edge flip_sequence locate path
    BRIDGE Context Derivation FlippableTuple MarkedWord PATCH Pattern QUAD apply_context
    canonical_witness conflict_violations derivations enumerate_tuples fan is_witness
    mirror_marked mirror_tuple witness wrap_marked
    Partition SpanningTree TreeEntry TreeReport counting_tree flat_tree full_tree mask_width
    partition steep_tree tree_family validate_tree
    AssemblyError CycleCertificate hamilton_gplus hamilton_middle_levels hamilton_odd
    to_odd_vertex
    VerificationReport brute_force_hamilton verify_certificate verify_factor
    verify_flip_properties verify_tree verify_tuple_closure
""".split()


@cache
def loaded_modules(run: str) -> frozenset[str]:
    """The oddgray modules a fresh process of ``RUNS[run]`` imports; the run must succeed."""
    stdin = None
    if run == "verify":
        out = io.StringIO()
        assert cli.main(["gen", "--k", "3"], out=out) == 0
        stdin = out.getvalue()
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *RUNS[run]],
        input=stdin,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    }
    loaded = frozenset(n for n in names if n == "oddgray" or n.startswith("oddgray."))
    assert "oddgray.words" in loaded, res.stderr[-2000:]
    return loaded


@pytest.mark.parametrize("run", sorted(RUNS))
def test_only_the_tree_command_loads_checking(run):
    assert ("oddgray.checking" in loaded_modules(run)) == (run == "tree")


def test_gen_loads_at_most_the_line_budget():
    # ``-m`` runs __main__.py, which the import report does not list.
    files = {"__main__.py"} | {
        "__init__.py" if name == "oddgray" else name.split(".")[1] + ".py"
        for name in loaded_modules("gen")
    }
    lines = sum(len((PACKAGE / f).read_text().splitlines()) for f in files)
    assert lines <= GEN_LINE_BUDGET, (lines, sorted(files))


def test_public_names_still_resolve():
    for name in EXPORTED:
        assert getattr(oddgray, name) is not None, name
    assert oddgray.locate is checking.locate
    assert oddgray.TreeEntry is checking.TreeEntry
    with pytest.raises(AttributeError):
        oddgray.no_such_name


def test_names_the_benchmark_children_import():
    # perfbench/traced_child.py and perfbench/families_child.py import these.
    from oddgray import hamilton_odd, verify_certificate
    from oddgray.factor import cycle_factor
    from oddgray.flippable import canonical_witness
    from oddgray.spanning import counting_tree, validate_tree

    with pytest.raises(ImportError):
        from oddgray.flippable import derivations  # noqa: F401
    assert canonical_witness is checking.canonical_witness
    tree = counting_tree(6, 1)
    assert validate_tree(tree).passed
    before = canonical_witness.cache_info()
    for e in tree.entries:
        assert len(canonical_witness(e.tup)) == 2 * len(e.tup.members)
        assert e.derivation.pattern.family in ("fan", "bridge", "patch", "quad")
    after = canonical_witness.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == len(tree.entries)
    assert sum(len(p.vertices) for p in cycle_factor(4)) == 14 * 9
    assert verify_certificate(hamilton_odd(6, 1)).passed
