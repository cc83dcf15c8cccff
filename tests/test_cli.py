import io
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
        ("gen", "--k", "1"),
        ("gen", "--k", "2"),
    ],
)
def test_rejected_args_exit_2_with_no_output(argv):
    # --family is checked by the tree builder alone; k by the shared ceiling.
    res = run_cli(*argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert "error:" in res.stderr


@pytest.mark.parametrize("command", ["gen", "middle", "factor", "tree", "bench"])
def test_run_too_large_for_memory_exits_2_at_once(command):
    # Every command enumerates the Dyck words first, which refuses k = 30.
    res = run_cli(command, "--k", "30", timeout=5)
    assert (res.returncode, res.stdout) == (2, "")
    assert "error:" in res.stderr and "semilength 30" in res.stderr


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


def _cycle_lines(target):
    """Bits-format lines of a small cycle: odd and gplus at k = 3, middle at k = 2."""
    from oddgray import assembly, spanning
    from oddgray.words import bitstring

    if target == "gplus":
        return [bitstring(v, 6) for v in assembly.stream_gplus_vals(3, spanning.full_tree(3))]
    argv = ["middle", "--k", "2"] if target == "middle" else ["gen", "--k", "3"]
    out = io.StringIO()
    cli.main(argv, out=out)
    return out.getvalue().splitlines()


def _flip(line, i):
    return line[:i] + "10"[int(line[i])] + line[i + 1 :]


def _swap(lines, a, b):
    lines = list(lines)
    lines[a], lines[b] = lines[b], lines[a]
    return lines


# Doctored certificate files and the verdicts recorded for them before the
# verifier became a single pass; the texts must not change.
VERIFY_TEXTS = {
    "odd-swap": (
        lambda L: _swap(L, 4, 10),
        "FAIL adjacency: step 3: (2, 4, 6) -> (1, 3, 4)\nFAIL\n",
    ),
    "odd-repeat": (
        lambda L: L[:10] + [L[4]] + L[11:],
        "FAIL distinct: repeated vertex\nFAIL adjacency: step 10: (1, 3, 7) -> (5, 6, 7)\nFAIL\n",
    ),
    "odd-drop": (
        lambda L: L[:10] + L[11:],
        "FAIL vertex-count: 34 instead of 35\nFAIL adjacency: step 9: (2, 5, 6) -> (5, 6, 7)\nFAIL\n",
    ),
    "odd-weight": (
        lambda L: L[:10] + [_flip(L[10], 0)] + L[11:],
        "FAIL vertex-form: (3, 4)\nFAIL\n",
    ),
    "odd-char": (
        lambda L: L[:10] + [L[10][:3] + "2" + L[10][4:]] + L[11:],
        "FAIL line-format: line 11: '1012000'\nFAIL\n",
    ),
    "odd-blank-length": (
        lambda L: ["", "  "] + L[:10] + ["", L[10][:-1]] + L[11:],
        "FAIL line-format: line 11: '101100'\nFAIL\n",
    ),
    "odd-empty": (lambda L: [], "FAIL vertex-count: 0 instead of 35\nFAIL\n"),
    "odd-ok": (lambda L: L, "PASS\n"),
    "gplus-swap": (
        lambda L: _swap(L, 4, 10),
        "FAIL adjacency: step 3: 010101 -> 101100\nFAIL\n",
    ),
    "gplus-weight": (
        lambda L: L[:7] + [_flip(L[7], 2)] + L[8:],
        "FAIL vertex-form: 010010\nFAIL\n",
    ),
    "gplus-ok": (lambda L: L, "PASS\n"),
    "middle-swap": (
        lambda L: _swap(L, 4, 10),
        "FAIL adjacency: step 3: 01110 -> 10010\nFAIL\n",
    ),
    "middle-repeat": (
        lambda L: L[:-1] + [L[0]],
        "FAIL distinct: repeated vertex\nFAIL adjacency: step 18: 01001 -> 11000\nFAIL\n",
    ),
    "middle-ok": (lambda L: L, "PASS\n"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_TEXTS))
def test_verify_texts(tmp_path, case):
    target = case.split("-")[0]
    doctor, expected = VERIFY_TEXTS[case]
    path = tmp_path / "cycle.txt"
    path.write_text("".join(line + "\n" for line in doctor(_cycle_lines(target))))
    k = "2" if target == "middle" else "3"
    out = io.StringIO()
    code = cli.main(["verify", "--k", k, "--target", target, "--input", str(path)], out=out)
    assert out.getvalue() == expected
    assert code == (0 if expected == "PASS\n" else 1)


def test_verify_non_ascii_line_is_a_format_failure(tmp_path):
    lines = _cycle_lines("odd")
    path = tmp_path / "cycle.txt"
    path.write_bytes("".join(line + "\n" for line in lines[:5]).encode() + b"10\xc3\xa90000\n")
    res = run_cli("verify", "--k", "3", "--target", "odd", "--input", str(path))
    assert (res.returncode, res.stderr) == (1, "")
    assert res.stdout == "FAIL line-format: line 6: '10\\udcc3\\udca90000'\nFAIL\n"


def test_verify_reads_a_piped_gen_from_stdin():
    gen = subprocess.Popen(
        [sys.executable, "-m", "oddgray", "gen", "--k", "6"], stdout=subprocess.PIPE
    )
    res = subprocess.run(
        [sys.executable, "-m", "oddgray", "verify", "--k", "6", "--target", "odd", "--input", "-"],
        stdin=gen.stdout,
        capture_output=True,
        text=True,
    )
    gen.stdout.close()
    assert gen.wait() == 0
    assert (res.returncode, res.stdout, res.stderr) == (0, "PASS\n", "")


def test_verify_non_ascii_stdin_is_a_format_failure():
    lines = _cycle_lines("odd")
    data = "".join(line + "\n" for line in lines[:5]).encode() + b"10\xc3\xa90000\n"
    res = subprocess.run(
        [sys.executable, "-m", "oddgray", "verify", "--k", "3", "--target", "odd", "--input", "-"],
        input=data,
        capture_output=True,
    )
    assert (res.returncode, res.stderr) == (1, b"")
    assert res.stdout == b"FAIL line-format: line 6: '10\\udcc3\\udca90000'\nFAIL\n"


def test_verify_checks_k_against_ceiling(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1" * 63 + "\n")
    res = run_cli("verify", "--k", "31", "--target", "odd", "--input", str(path))
    assert (res.returncode, res.stdout) == (2, "")
    assert "verify needs 1 <= k <= 30" in res.stderr


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
    """A text stream with only ``write``, keeping each chunk, as the traced benchmark passes."""

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
        "middle --k 1",
        "middle --k 2",
        "factor --k 7",
    ],
)
def test_output_is_written_in_blocks(argv):
    sink = CountingSink()
    assert cli.main(argv.split(), out=sink) == 0
    lines = "".join(sink.chunks).count("\n")
    assert len(sink.chunks) <= ceil(lines / cli.BLOCK_LINES) + 1
    assert all(type(chunk) is str and chunk.endswith("\n") for chunk in sink.chunks)
