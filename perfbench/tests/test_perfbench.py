"""Fast tests of the benchmark itself, at small k.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402

# Small stand-ins for the real workloads, run through the same run.py.
SMALL = {
    "odd-k7": ("odd", 7),
    "middle-k6": ("middle", 6),
    "families-k7": ("families", 7),
}
# SHA-256 of each small workload's output for seed 1, at the commit that
# added the benchmark; a change to the program's output changes these.
PINNED = {
    "odd-k7": "f85b71b31725b9420d940dba58375dcccf511e9e29e00333117c14c7a5b2abe6",
    "middle-k6": "ef26c60dc3d496f11e0f2c55c0e2092c46938dcbcc52a27e9ee2185ac914b07e",
    "families-k7": "f66e5df7be8433a94c4da637dc982fe2e8b3fd72ae676a5e5000de1ac01473ac",
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    for name, spec in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, spec)
    monkeypatch.setattr(run, "FAMILY_MASKS_PER_CHILD", 3)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    return tmp_path


def _output(kind, k, masks, tmp_path):
    path = tmp_path / f"{kind}.out"
    res = run.run_child(run.child_argv(kind, k, masks), path)
    assert res["exit_code"] == 0, res["stderr_tail"]
    return path.read_bytes()


def _damaged(lines):
    dropped = lines[:5] + lines[6:]
    duplicated = lines[:5] + [lines[5]] + lines[5:]
    swapped = list(lines)
    swapped[3], swapped[7] = swapped[7], swapped[3]
    return {"dropped": dropped, "duplicated": duplicated, "swapped": swapped}


@pytest.mark.parametrize("kind,k,mask", [("odd", 6, 1), ("middle", 6, 0)])
def test_checker_rejects_dropped_duplicated_swapped_lines(kind, k, mask, tmp_path):
    check = checker.check_odd if kind == "odd" else checker.check_middle
    data = _output(kind, k, (mask,), tmp_path)
    assert check(data, k) == []
    lines = data.splitlines(keepends=True)
    for how, bad in _damaged(lines).items():
        assert check(b"".join(bad), k), how


def test_checker_rejects_repeated_family_and_failed_verify(tmp_path):
    data = _output("families", 6, (0, 1), tmp_path)
    assert checker.check_families(data, 6, (0, 1)) == []
    assert checker.check_families(data, 6, (1, 0))
    same = _output("families", 6, (1, 1), tmp_path)
    assert "distinct edge sets" in checker.check_families(same, 6, (1, 1))[0]
    failed = data.replace(b"verify pass", b"verify fail", 1)
    assert checker.check_families(failed, 6, (0, 1))
    lines = data.splitlines(keepends=True)
    assert checker.check_families(b"".join(lines[:-1]), 6, (0, 1))


def test_seed_maps_to_the_same_masks():
    assert run.masks_for("odd-k10", 1) == (3663565466740,)
    assert run.masks_for("middle-k10", 1) == (3423607813008,)
    for workload in run.WORKLOADS:
        masks = [run.masks_for(workload, seed) for seed in range(5)]
        assert masks == [run.masks_for(workload, seed) for seed in range(5)]
        assert len(set(masks)) == 5
    for seed in range(5):
        fam = run.masks_for("families-k8", seed)
        assert len(set(fam)) == len(fam) == run.FAMILY_MASKS_PER_CHILD
        assert all(0 <= m < 32 for m in fam)


def _run_main(workload, trace, capsys):
    assert run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    ) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_run_reproduces_pinned_digest(workload, small, capsys):
    summary = _run_main(workload, 0, capsys)
    assert summary["correct"] and summary["failed"] == 0
    record = json.loads((small / f"{workload}-seed1-trace0.json").read_text())
    assert {r["sha256"] for r in record["runs"]} == {PINNED[workload]}
    printed = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_pass_names_and_repeatable_counts(workload, small, capsys):
    first = _run_main(workload, 1, capsys)
    second = _run_main(workload, 1, capsys)
    assert first["correct"] and second["correct"]
    printed = {name: m["unit"] for name, m in first["metrics"].items()}
    assert printed == _declared("per_layer")
    counts = [n for n, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    assert all(first["metrics"][n] == second["metrics"][n] for n in counts)
    assert first["metrics"]["assembly.vertices"]["value"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "odd-k10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
