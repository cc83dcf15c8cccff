import json
import subprocess
import sys
from math import ceil, comb

import pytest

from oddgray import cli


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "oddgray", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_gen_subsets_golden():
    res = run_cli("gen", "--k", "3", "--format", "subsets")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 35
    assert lines[0] == "{1,2,3}"
    assert lines[1] == "{4,6,7}"
    parsed = [frozenset(map(int, l[1:-1].split(","))) for l in lines]
    assert len(set(parsed)) == 35
    for i in range(35):
        assert not parsed[i] & parsed[(i + 1) % 35]


def test_gen_bits_golden():
    res = run_cli("gen", "--k", "3")
    lines = res.stdout.splitlines()
    assert lines[:3] == ["1110000", "0001011", "1010100"]
    assert all(len(l) == 7 and l.count("1") == 3 for l in lines)


def test_gen_delta():
    res = run_cli("gen", "--k", "3", "--format", "delta")
    lines = res.stdout.splitlines()
    assert len(lines) == 35
    assert lines[:2] == ["5", "2"]
    assert all(1 <= int(l) <= 7 for l in lines)


def test_gen_rejects_petersen():
    res = run_cli("gen", "--k", "2")
    assert res.returncode == 2
    assert "Petersen" in res.stderr


def test_gen_rejects_bad_args():
    assert run_cli("gen", "--k", "1").returncode == 2
    assert run_cli("gen", "--k", "31").returncode == 2
    assert run_cli("gen").returncode == 2
    assert run_cli("gen", "--k", "3", "--format", "csv").returncode == 2
    assert run_cli("gen", "--k", "5", "--family", "0").returncode == 2
    assert run_cli("gen", "--k", "6", "--family", "2").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("middle", "--k", "4", "--family", "0"),
        ("middle", "--k", "2", "--family", "0"),
        ("tree", "--k", "6", "--family", "2"),
        ("gen", "--k", "6", "--family", "-1"),
        ("gen", "--k", "31"),
        ("factor", "--k", "31"),
    ],
)
def test_rejected_args_exit_2_with_no_output(argv):
    # --family is checked by the tree builder alone; k by the shared ceiling.
    res = run_cli(*argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert "error:" in res.stderr


def test_gen_determinism():
    a = run_cli("gen", "--k", "4", "--format", "subsets")
    b = run_cli("gen", "--k", "4", "--format", "subsets")
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "{1,2,3,4}"


def test_gen_family_masks_differ():
    a = run_cli("gen", "--k", "6", "--family", "0")
    b = run_cli("gen", "--k", "6", "--family", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout
    assert sorted(a.stdout.splitlines()) == sorted(b.stdout.splitlines())


def test_max_k_env_lowers_ceiling():
    import os

    env = dict(os.environ, ODDGRAY_MAX_K="4")
    res = run_cli("gen", "--k", "5", env=env)
    assert res.returncode == 2
    res = run_cli("gen", "--k", "4", env=env)
    assert res.returncode == 0
    # a value that is not an integer is refused, not replaced by the default
    env = dict(os.environ, ODDGRAY_MAX_K="abc")
    res = run_cli("gen", "--k", "3", env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "ODDGRAY_MAX_K" in res.stderr and "'abc'" in res.stderr


def test_middle_k1_golden():
    res = run_cli("middle", "--k", "1")
    assert res.stdout.splitlines() == ["100", "110", "010", "011", "001", "101"]


def test_middle_counts():
    for k in (2, 3):
        res = run_cli("middle", "--k", str(k))
        lines = res.stdout.splitlines()
        assert len(lines) == 2 * comb(2 * k + 1, k)
        assert all(len(l) == 2 * k + 1 for l in lines)


def test_factor_output():
    res = run_cli("factor", "--k", "3")
    lines = res.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0] == "111000,111001,101001,101101,100101,100111,000111"
    for line in lines:
        assert len(line.split(",")) == 7


def test_tree_json():
    res = run_cli("tree", "--k", "4")
    payload = json.loads(res.stdout)
    assert payload["k"] == 4
    assert payload["family"] is None
    assert len(payload["base"]) == 14
    assert len(payload["tuples"]) == 6
    sizes = sorted(len(t["members"]) for t in payload["tuples"])
    assert sizes == [3, 3, 3, 3, 3, 4]


def test_verify_roundtrip(tmp_path):
    good = tmp_path / "good.txt"
    out = run_cli("gen", "--k", "3")
    good.write_text(out.stdout)
    res = run_cli("verify", "--k", "3", "--input", str(good), "--target", "odd")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS")

    lines = out.stdout.splitlines()
    lines[4], lines[10] = lines[10], lines[4]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    res = run_cli("verify", "--k", "3", "--input", str(bad), "--target", "odd")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_verify_middle_roundtrip(tmp_path):
    path = tmp_path / "mid.txt"
    path.write_text(run_cli("middle", "--k", "2").stdout)
    res = run_cli("verify", "--k", "2", "--input", str(path), "--target", "middle")
    assert res.returncode == 0


def test_verify_missing_file():
    res = run_cli("verify", "--k", "3", "--input", "/nonexistent", "--target", "odd")
    assert res.returncode == 2


def test_selfcheck_small():
    res = run_cli("selfcheck", "--max-k", "3")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selfcheck passed" in res.stdout
    assert "factor k=3: ok" in res.stdout


def test_bench_runs():
    res = run_cli("bench", "--k", "3", "--repeat", "1")
    assert res.returncode == 0
    assert "vertices/s" in res.stdout


def test_bench_rejects_repeats_below_one():
    for repeat in ("0", "-2"):
        res = run_cli("bench", "--k", "3", "--repeat", repeat)
        assert res.returncode == 2
        assert "--repeat >= 1" in res.stderr
        assert res.stdout == ""


class CountingSink:
    """A text stream with only ``write``, counting the calls."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize(
    "argv",
    [
        "gen --k 9 --family 1582",
        "gen --k 8 --format subsets",
        "gen --k 8 --format delta",
        "middle --k 8",
        "factor --k 7",
    ],
)
def test_output_is_written_in_blocks(argv):
    sink = CountingSink()
    assert cli.main(argv.split(), out=sink) == 0
    lines = "".join(sink.chunks).count("\n")
    assert len(sink.chunks) <= ceil(lines / cli.BLOCK_LINES) + 1
    assert all(chunk.endswith("\n") for chunk in sink.chunks)
