"""Slow tier: the full-size outputs that tier-1 leaves out.

These tests lie outside ``testpaths``, so a plain ``pytest`` run does not
collect them. Run them with

    PYTHONPATH=src python -m pytest -q tests_slow

On a 2-vCPU Xeon they take about 45 s and peak at about 0.5 GB (the
``verify`` of k = 11 holds the whole cycle). The digests were recorded
before the flip-sequence recursion dropped its mirror step; k = 12 is pinned
by its digest alone, because ``verify`` holds every vertex in memory.
"""

import hashlib
import subprocess
import sys

import pytest

GOLDEN = {
    11: "f3a87234ba90ca4f3e7adb3d2f13675072ba8fa90c0eb2ea4673b2474950da18",
    12: "ed59f67810fa273293e4aa9c843cceff614e80ede01dda4b23a9a26d6c2469a6",
}


def oddgray(*args, **kw):
    return subprocess.run([sys.executable, "-m", "oddgray", *args], check=True, **kw)


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


@pytest.fixture(scope="module")
def gen_k11(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "k11.txt"
    with open(path, "wb") as fh:
        oddgray("gen", "--k", "11", stdout=fh)
    return path


def test_gen_k11_digest(gen_k11):
    assert sha256_of(gen_k11) == GOLDEN[11]


def test_gen_k11_verifies(gen_k11):
    res = oddgray(
        "verify", "--k", "11", "--target", "odd", "--input", str(gen_k11),
        capture_output=True, text=True,
    )
    assert res.stdout == "PASS\n"


def test_gen_k12_digest(tmp_path):
    path = tmp_path / "k12.txt"
    with open(path, "wb") as fh:
        oddgray("gen", "--k", "12", stdout=fh)
    assert sha256_of(path) == GOLDEN[12]
