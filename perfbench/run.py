"""Cold-process benchmark of oddgray, end to end and per layer.

    python3 perfbench/run.py --workload odd-k9 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` this script runs the workload as a closed loop
with one client: it starts one fresh child process, reads and hashes its
stdout while it runs, takes the child's peak RSS from ``os.wait4``, and
starts the next child only after the last one has exited, as long as that
child is expected to end within ``--seconds``. The first child is a warm-up
and is not timed. Outside the timed region, ``checker.py``, which shares no
code with the package, checks the first output and any output whose digest
differs from it; an output with the same digest is the same bytes. With
``--trace 1`` it runs the workload once untraced and once through
``traced_child.py``, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, the metrics BENCHMARK.json names.
The lines before it print every metric for a reader, with ``failed_ratio``
and the sample count. A full
record of the run (seed, masks, output digests, Python version, processor
count, load average, spans) is written to ``.perfbench-results/`` in the
checkout. README.md, next to this file, explains the workloads and the
layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from math import ceil, comb
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".perfbench-results"

# name: (kind, k). README.md says why each was chosen. BENCHMARK.json lists
# odd-k9 and families-k8, whose children are short enough for a 60-second
# run to time twenty or more; odd-k10 and middle-k10, at 8 to 10 s a child,
# run by hand.
WORKLOADS = {
    "odd-k9": ("odd", 9),
    "odd-k10": ("odd", 10),
    "middle-k10": ("middle", 10),
    "families-k8": ("families", 8),
}
FAMILY_MASKS_PER_CHILD = 4
SETUP_SAMPLES = 30

END_TO_END = {
    "wall_s": "s",
    "first_result_s": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The end-to-end metrics in BENCHMARK.json, which bounds them. The other two
# are printed and recorded only: vertices_per_s is the fixed vertex count
# over wall_s, and first_result_s follows wall_s, but on a shared 2-core box
# whose speed drifts by a fifth over minutes their spread between runs
# reached the largest bound allowed, so bounding them adds false alarms.
BOUNDED = ("wall_s", "peak_rss_mb", "setup_s")
PER_LAYER = {
    "words.dyck_s": "s",
    "words.dyck_count": "count",
    "factor.paths_s": "s",
    "factor.vertices": "count",
    "spanning.build_s": "s",
    "spanning.validate_s": "s",
    "spanning.tuples": "count",
    "spanning.tuples_fan": "count",
    "spanning.tuples_bridge": "count",
    "spanning.tuples_patch": "count",
    "spanning.tuples_quad": "count",
    "flippable.witness_s": "s",
    "flippable.derived_witness_s": "s",
    "flippable.witness_edges": "count",
    "flippable.reused_tuple_ratio": "ratio",
    "assembly.splice_s": "s",
    "assembly.walk_s": "s",
    "assembly.certificate_s": "s",
    "assembly.vertices": "count",
    "verify.certificate_s": "s",
    "cli.emit_s": "s",
    "cli.render_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def masks_for(workload: str, seed: int) -> tuple[int, ...]:
    """The family masks a seed selects; the program sees only these."""
    kind, k = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    m = k - 5
    width = comb(2 * m, m) // (m + 1)  # Catalan(k - 5) mask bits
    if kind == "families":
        return tuple(rng.sample(range(1 << width), FAMILY_MASKS_PER_CHILD))
    return (rng.getrandbits(width),)


def _join(masks: tuple[int, ...]) -> str:
    return ",".join(map(str, masks))


def child_argv(kind: str, k: int, masks: tuple[int, ...]) -> list[str]:
    if kind == "families":
        script = str(HERE / "families_child.py")
        return [sys.executable, script, "--k", str(k), "--masks", _join(masks)]
    (mask,) = masks
    command = "gen" if kind == "odd" else "middle"
    return [sys.executable, "-m", "oddgray", command, "--k", str(k), "--family", str(mask)]


def vertices(kind: str, k: int, masks: tuple[int, ...]) -> int:
    per_cycle = comb(2 * k + 1, k)
    if kind == "middle":
        return 2 * per_cycle
    return len(masks) * per_cycle


def run_child(argv: list[str], output: Path) -> dict:
    """Run one child to exit; time it, hash its stdout, take its peak RSS.

    Stdout is copied to ``output`` and stderr to ``output`` + ``.stderr``,
    not kept in memory: Linux starts a child's peak RSS at its parent's
    peak, so this process keeps its own memory below any child's (it also
    imports no NumPy).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with open(output, "wb") as sink, open(f"{output}.stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        first = None
        digest = hashlib.sha256()
        fd = proc.stdout.fileno()
        try:
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = perf_counter()
                digest.update(chunk)
                sink.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "wall_s": t1 - t0,
        "first_result_s": (first if first is not None else t1) - t0,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "sha256": digest.hexdigest(),
        "stderr_tail": stderr[-2000:],
    }


def check_output(kind: str, k: int, masks: tuple[int, ...], output: Path) -> list[str]:
    """checker.py on one output, in a process of its own."""
    argv = [sys.executable, str(HERE / "checker.py"), kind, str(k), _join(masks), str(output)]
    res = subprocess.run(argv, capture_output=True, text=True)
    if res.returncode:
        return [f"checker exit code {res.returncode}: {res.stderr[-2000:]}"]
    return json.loads(res.stdout)


def run_checked(kind: str, k: int, masks: tuple[int, ...], checked: dict | None = None) -> dict:
    """One workload child, then its output checked.

    ``checked`` maps the digests of outputs already checked to their
    failures; an output with a known digest is not checked again.
    """
    checked = {} if checked is None else checked
    output = RESULTS / "child.out"
    run = run_child(child_argv(kind, k, masks), output)
    if run["exit_code"]:
        run["failures"] = [f"exit code {run['exit_code']}: {run['stderr_tail']}"]
        return run
    if run["sha256"] not in checked:
        checked[run["sha256"]] = check_output(kind, k, masks, output)
    run["failures"] = list(checked[run["sha256"]])
    return run


def timed_pass(kind: str, k: int, masks: tuple[int, ...], seconds: int) -> dict:
    """A checked warm-up child, then timed children until ``seconds`` is spent.

    The import probes behind ``setup_s`` are spread over the run, between
    children, so that they see the same machine as the timed children.
    """
    start = perf_counter()
    probe = [sys.executable, "-c", "import oddgray.cli"]
    setup: list[dict] = []

    def probe_until(count: int) -> None:
        while len(setup) < count:
            setup.append(run_child(probe, RESULTS / "setup.out"))

    probe_until(1)
    checked: dict[str, list[str]] = {}
    warmup = run_checked(kind, k, masks, checked)
    reference = warmup["sha256"] if not warmup["failures"] else None
    runs, cycles = [], []
    while True:
        t0 = perf_counter()
        run = run_checked(kind, k, masks, checked)
        if not run["failures"]:
            reference = reference or run["sha256"]
            if run["sha256"] != reference:
                run["failures"] = ["output differs from an earlier child's output"]
        runs.append(run)
        probe_until(ceil(SETUP_SAMPLES * (perf_counter() - start) / seconds))
        cycles.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(cycles) > seconds:
            break
    probe_until(SETUP_SAMPLES)
    ok = [r for r in runs if not r["failures"]] or runs
    # Times are means over the timed children: the machine's speed changes
    # in stretches of tens of seconds, and a mean weighs each stretch by its
    # share of the run where a median snaps to whichever held the larger
    # share, so run means vary less between runs (README.md has the figures).
    wall = statistics.fmean(r["wall_s"] for r in ok)
    metrics = {
        "wall_s": wall,
        "first_result_s": statistics.fmean(r["first_result_s"] for r in ok),
        "vertices_per_s": vertices(kind, k, masks) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(r["wall_s"] for r in setup),
    }
    return {
        "runs": [warmup, *runs],
        "timed_runs": len(runs),
        "setup_runs": setup,
        "metrics": metrics,
        "units": END_TO_END,
    }


def layer_metrics(spans: list[list], counts: dict) -> dict:
    """Per-layer metrics from the traced child's spans and counts.

    A span's self time is its duration minus the durations of its children.
    Layers a workload does not reach read 0.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    inner = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent is not None:
            inner[parent] += t1 - t0
    for (name, t0, t1, _), covered in zip(spans, inner):
        total[name] = total.get(name, 0.0) + t1 - t0
        own[name] = own.get(name, 0.0) + t1 - t0 - covered
    metrics = {
        name: total.get(name[: -len("_s")], 0.0)
        for name, unit in PER_LAYER.items()
        if unit == "s"
    }
    # The walk's self time excludes the tree and splice calls made inside it;
    # cli's self time also excludes the walk that runs interleaved with it.
    metrics["assembly.walk_s"] = own.get("assembly.walk", 0.0)
    if "cli.emit" in own:
        metrics["cli.render_self_s"] = own["cli.emit"] - metrics["assembly.walk_s"]
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    tuples = counts.get("spanning.tuples", 0)
    metrics["flippable.reused_tuple_ratio"] = (
        counts.get("flippable.reused_tuples", 0) / tuples if tuples else 0.0
    )
    return metrics


def traced_pass(kind: str, k: int, masks: tuple[int, ...]) -> dict:
    plain = run_checked(kind, k, masks)
    script = str(HERE / "traced_child.py")
    argv = [sys.executable, script, "--kind", kind, "--k", str(k), "--masks", _join(masks)]
    output = RESULTS / "traced.out"
    traced = run_child(argv, output)
    failures = []
    spans, counts = [], {}
    if traced["exit_code"]:
        failures.append(f"exit code {traced['exit_code']}: {traced['stderr_tail']}")
    else:
        report = json.loads(output.read_bytes().splitlines()[-1])
        spans, counts = report["spans"], report["counts"]
        if not report["passed"]:
            failures.append("a tree or certificate failed its check")
        if counts.get("assembly.vertices") != vertices(kind, k, masks):
            failures.append(f"walked {counts.get('assembly.vertices')} vertices")
        if report["sha256"] not in (None, plain["sha256"]):
            failures.append("cli output differs from the untraced run's output")
    traced["failures"] = failures
    metrics = layer_metrics(spans, counts)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {"runs": [plain, traced], "spans": spans, "metrics": metrics, "units": PER_LAYER}


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oddgray" / "__init__.py").is_file():
        print(f"error: no oddgray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    kind, k = WORKLOADS[args.workload]
    masks = masks_for(args.workload, args.seed)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "masks": masks,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": _loadavg(),
    }
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        result = traced_pass(kind, k, masks)
    else:
        result = timed_pass(kind, k, masks, args.seconds)
    runs = result["runs"]
    failed = sum(1 for r in runs if r["failures"])
    record = {**context, **result, "attempted": len(runs), "failed": failed}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    metrics, units = result["metrics"], result["units"]
    print(f"workload {args.workload}, seed {args.seed}, masks {list(masks)}")
    print(f"failed_ratio {failed}/{len(runs)} = {failed / len(runs):.3f}")
    for r in runs:
        for f in r["failures"]:
            print(f"FAIL: {f}")
    if not args.trace:
        timed, probes = result["timed_runs"], len(result["setup_runs"])
        print(f"over {timed} timed runs after one warm-up: times are means, "
              f"peak_rss_mb a median, setup_s a median of {probes}:")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"  {name:30s} {shown} {unit}")
    print(f"record: {out}")
    reported = PER_LAYER if args.trace else BOUNDED
    summary = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
