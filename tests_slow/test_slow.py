"""Slow tier: the full-size outputs that tier-1 leaves out.

These tests lie outside ``testpaths``, so a plain ``pytest`` run does not
collect them. Run them with

    PYTHONPATH=src python -m pytest -q tests_slow

They pin the digests of ``gen --k 11`` and ``gen --k 12`` and run both
files through ``oddgray verify``, which checks its input in one pass and
marks the vertices seen in a bitmap of one bit per value (4 MB at k = 12);
the k = 12 file is piped to ``verify --input -``. At both sizes the table
of flip sequences, built one semilength at a time, must equal
``flip_sequence`` word by word. Peak RSS is taken from ``os.wait4``: the
``gen --k 12`` child must stay at or below 175 MB, and peaks at about
154 MB (Python 3.11, x86-64); the ``verify --k 12`` child must stay at or
below 60 MB, and peaks at about 20 MB. A fresh child that builds and
checks ``hamilton_odd(10, 1234567)`` must peak at or below 45 MB, and one
for ``hamilton_middle_levels(10)`` at or below 48 MB; they peak at about 33
and 36 MB, with each certificate held packed, where a tuple of k-tuples and
one of ``Bits`` peaked at 75 and 90 MB. ``full_tree(11)`` must equal, entry
by entry and in order, the list recursion kept in ``tests/test_spanning.py``
as the reference. On a 2-vCPU Xeon the tier takes about 30 s and peaks at
about 154 MB, in ``gen --k 12``. The digests were
recorded before the flip-sequence recursion dropped its mirror step. The
``middle --k 10`` digest was recorded before the tree build switched to
packed entries and the splice to direct placement of witness vertices.
The ``gen --k 11 --format subsets`` digest was recorded while each subset
line was still joined position by position, before it was built from
per-chunk tables. The ``gen --k 11 --format delta`` digest was recorded while
each label was still read off two consecutive vertices, before the walk
emitted flip positions and the labels were read off them.
"""

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from oddgray.factor import flip_sequence, flip_sequences
from oddgray.spanning import full_tree
from oddgray.words import enumerate_dyck

# The list recursion that ``full_tree`` must reproduce lives with the tier-1 tests.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from test_spanning import packed, ref_full  # noqa: E402

GOLDEN = {
    11: "f3a87234ba90ca4f3e7adb3d2f13675072ba8fa90c0eb2ea4673b2474950da18",
    12: "ed59f67810fa273293e4aa9c843cceff614e80ede01dda4b23a9a26d6c2469a6",
}
MIDDLE_K10 = "42c5715fbaee4e39020a5a57384833564bf461f140dc4ad320f296abfd0af795"
SUBSETS_K11 = "ce7006d6acd126b06428fd7a4c2908f57b6c7dccd724164fb26e9b108a2811a9"
DELTA_K11 = "c95919cf3207434a5f251e44f29d8b3ea5343b160a497d64d5b62dba69c25e6f"


def oddgray(*args, **kw):
    return subprocess.run([sys.executable, "-m", "oddgray", *args], check=True, **kw)


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def generate(tmp_path_factory, k):
    """The ``gen --k k`` output file and the child's peak RSS in MB."""
    path = tmp_path_factory.mktemp("gen") / f"k{k}.txt"
    with open(path, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "oddgray", "gen", "--k", str(k)], stdout=fh)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return path, usage.ru_maxrss / 1024  # ru_maxrss is in kB on Linux


def verify_stdout(k, path):
    res = oddgray(
        "verify", "--k", str(k), "--target", "odd", "--input", str(path),
        capture_output=True, text=True,
    )
    return res.stdout


def verify_piped(k, path):
    """``verify --input -`` with the file piped to it: its stdout and the child's peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "oddgray", "verify", "--k", str(k), "--target", "odd", "--input", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    with open(path, "rb") as fh:
        shutil.copyfileobj(fh, proc.stdin)
    proc.stdin.close()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return out.decode(), usage.ru_maxrss / 1024


@pytest.fixture(scope="module")
def gen_k11(tmp_path_factory):
    return generate(tmp_path_factory, 11)[0]


@pytest.fixture(scope="module")
def gen_k12_run(tmp_path_factory):
    return generate(tmp_path_factory, 12)


@pytest.fixture(scope="module")
def gen_k12(gen_k12_run):
    return gen_k12_run[0]


def test_gen_k11_digest(gen_k11):
    assert sha256_of(gen_k11) == GOLDEN[11]


def test_gen_k11_verifies(gen_k11):
    assert verify_stdout(11, gen_k11) == "PASS\n"


def test_gen_k12_digest(gen_k12):
    assert sha256_of(gen_k12) == GOLDEN[12]


def test_gen_k12_verifies(gen_k12):
    # A child's ru_maxrss starts at the peak of the process that forks it; this
    # test runs before the in-process flip-sequence tests raise that peak.
    out, peak_mb = verify_piped(12, gen_k12)
    assert out == "PASS\n"
    assert peak_mb <= 60


def test_gen_k12_peak_rss(gen_k12_run):
    assert gen_k12_run[1] <= 175


@pytest.mark.parametrize(
    "build, bound_mb", [("hamilton_odd(10, 1234567)", 45), ("hamilton_middle_levels(10)", 48)]
)
def test_k10_certificate_peak_rss(build, bound_mb):
    # The child reads its own peak, VmHWM, which unlike ru_maxrss does not
    # start at the peak of the process that forks it.
    code = (
        "from oddgray import hamilton_middle_levels, hamilton_odd, verify_certificate\n"
        f"assert verify_certificate({build}).passed\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert int(res.stdout) / 1024 <= bound_mb


def test_middle_k10_digest(tmp_path):
    path = tmp_path / "middle10.txt"
    with open(path, "wb") as fh:
        oddgray("middle", "--k", "10", stdout=fh)
    assert sha256_of(path) == MIDDLE_K10


def test_gen_k11_subsets_digest(tmp_path):
    path = tmp_path / "subsets11.txt"
    with open(path, "wb") as fh:
        oddgray("gen", "--k", "11", "--format", "subsets", stdout=fh)
    assert sha256_of(path) == SUBSETS_K11


def test_gen_k11_delta_digest(tmp_path):
    path = tmp_path / "delta11.txt"
    with open(path, "wb") as fh:
        oddgray("gen", "--k", "11", "--format", "delta", stdout=fh)
    assert sha256_of(path) == DELTA_K11


@pytest.mark.parametrize("k", [11, 12])
def test_flip_sequences_table_matches_the_per_word_recursion(k):
    assert flip_sequences(k) == tuple(bytes(flip_sequence(x)) for x in enumerate_dyck(k))


def test_full_tree_11_matches_the_list_recursion():
    assert full_tree(11).packed == packed(ref_full(11))
