"""Which modules each entry point loads, and the names kept at their old paths.

``checking`` holds the code that only searches, checks or reads back
derivations. Each generation run below, in a fresh process, must finish
without importing it. ``-X importtime`` shows that: it reports every import
the process makes, also one made inside a function. The ``tree`` command
reads derivations, so it must load ``checking``, which shows the report
sees a lazy import. Likewise only the runs that check a cycle load
``verify``, and only ``checking`` declares dataclasses, so no other run
imports ``dataclasses`` or, through it, ``inspect``.
"""

import io
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import oddgray
from oddgray import checking, cli

PACKAGE = Path(oddgray.__file__).parent
# The lines of the oddgray modules ``gen --k 8`` may load, and of all of them.
# With no cached bytecode, every cold ``gen`` child compiles each line it
# loads: about 16 ms for these 1,465 (Python 3.11, 2.1-GHz Xeon).
GEN_LINE_BUDGET = 1465
SRC_LINE_BUDGET = 2478

RUNS = {
    "gen": ("-m", "oddgray", "gen", "--k", "8"),
    "middle": ("-m", "oddgray", "middle", "--k", "6"),
    "factor": ("-m", "oddgray", "factor", "--k", "5"),
    "verify": ("-m", "oddgray", "verify", "--k", "3", "--target", "odd", "--input", "-"),
    "library": ("-c", "import oddgray; oddgray.verify_certificate(oddgray.hamilton_odd(8, 5))"),
    "tree": ("-m", "oddgray", "tree", "--k", "4"),
    "bench": ("-m", "oddgray", "bench", "--k", "6", "--repeat", "1"),
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
def imported_modules(run: str) -> frozenset[str]:
    """Every module, of the standard library too, a fresh process of ``RUNS[run]`` imports.

    The run must succeed.
    """
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
    names = frozenset(
        line.rsplit("|", 1)[1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    )
    assert "oddgray.words" in names, res.stderr[-2000:]
    return names


def loaded_modules(run: str) -> frozenset[str]:
    """The oddgray modules a fresh process of ``RUNS[run]`` imports."""
    names = imported_modules(run)
    return frozenset(n for n in names if n == "oddgray" or n.startswith("oddgray."))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_only_the_tree_command_loads_checking(run):
    assert ("oddgray.checking" in loaded_modules(run)) == (run == "tree")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_only_the_tree_command_imports_dataclasses_and_inspect(run):
    imported = imported_modules(run)
    assert ("dataclasses" in imported) == (run == "tree")
    assert ("inspect" in imported) == (run == "tree")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_only_the_checking_runs_load_verify(run):
    assert ("oddgray.verify" in loaded_modules(run)) == (run in ("verify", "library"))


def test_gen_maps_no_vertex_with_odd_val():
    # ``gen`` walks in odd-graph coordinates, so it never maps a gplus vertex.
    code = (
        "import io, sys\n"
        "from oddgray import assembly, cli\n"
        "calls = []\n"
        "odd_val = assembly.odd_val\n"
        "assembly.odd_val = lambda v, k: calls.append(v) or odd_val(v, k)\n"
        "assert cli.main(['gen', '--k', '8'], out=io.StringIO()) == 0\n"
        "print(len(calls), 'oddgray.verify' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.split() == ["0", "False"]


def test_gen_loads_at_most_the_line_budget():
    # ``-m`` runs __main__.py, which the import report does not list.
    files = {"__main__.py"} | {
        "__init__.py" if name == "oddgray" else name.split(".")[1] + ".py"
        for name in loaded_modules("gen")
    }
    lines = sum(len((PACKAGE / f).read_text().splitlines()) for f in files)
    assert lines <= GEN_LINE_BUDGET, (lines, sorted(files))


def test_package_holds_at_most_the_line_budget():
    lines = {p.name: len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")}
    assert sum(lines.values()) <= SRC_LINE_BUDGET, lines


def test_no_module_reads_the_environment():
    # A bad k or mask fails fast with its own text; no setting from the
    # environment moves a limit or stands in for an argument.
    for path in PACKAGE.glob("*.py"):
        assert not re.search(r"\b(environ|getenv)b?\b", path.read_text()), path.name


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
