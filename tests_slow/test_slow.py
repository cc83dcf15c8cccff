"""Slow tier: the full-size outputs that tier-1 leaves out.

These tests lie outside ``testpaths``, so a plain ``pytest`` run does not
collect them. Run them with

    PYTHONPATH=src python -m pytest -q tests_slow

They pin the digests of ``gen --k 11`` and ``gen --k 12`` and run both
files through ``oddgray verify``, which checks a file in one pass and holds
only the set of vertices seen. On a 2-vCPU Xeon they take about 45 s and
peak at about 0.55 GB, in the k = 12 ``verify``. The digests were recorded
before the flip-sequence recursion dropped its mirror step.
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


def generate(tmp_path_factory, k):
    path = tmp_path_factory.mktemp("gen") / f"k{k}.txt"
    with open(path, "wb") as fh:
        oddgray("gen", "--k", str(k), stdout=fh)
    return path


def verify_stdout(k, path):
    res = oddgray(
        "verify", "--k", str(k), "--target", "odd", "--input", str(path),
        capture_output=True, text=True,
    )
    return res.stdout


@pytest.fixture(scope="module")
def gen_k11(tmp_path_factory):
    return generate(tmp_path_factory, 11)


@pytest.fixture(scope="module")
def gen_k12(tmp_path_factory):
    return generate(tmp_path_factory, 12)


def test_gen_k11_digest(gen_k11):
    assert sha256_of(gen_k11) == GOLDEN[11]


def test_gen_k11_verifies(gen_k11):
    assert verify_stdout(11, gen_k11) == "PASS\n"


def test_gen_k12_digest(gen_k12):
    assert sha256_of(gen_k12) == GOLDEN[12]


def test_gen_k12_verifies(gen_k12):
    assert verify_stdout(12, gen_k12) == "PASS\n"
