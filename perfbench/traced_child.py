"""The traced pass: one workload's work, called layer by layer, with spans.

Runs in a fresh process per workload, so no ``lru_cache`` state of one
workload reaches another or the timed runs. Spans are recorded here, around
the calls into each module's public functions, and kept in memory; the last
line of stdout is one JSON object with the spans, the counts and the digest
of the ``cli`` output.

    python perfbench/traced_child.py --kind odd --k 10 --masks 12345

The order of the steps matters: ``flippable.witness`` runs cold, and the
splice and ``cli`` steps after it run with warm witness caches, as the
layer map in README.md describes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from oddgray import assembly, cli
from oddgray.factor import cycle_factor
from oddgray.flippable import canonical_witness
from oddgray.spanning import counting_tree, validate_tree
from oddgray.verify import verify_certificate
from oddgray.words import enumerate_dyck


class Tracer:
    """Spans as [name, start, end, parent index], kept in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextmanager
    def wrap(self, module, attr: str, name: str):
        """Record a span for every call of ``module.attr`` inside the block."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


def _word_layers(t: Tracer, k: int, counts: Counter) -> None:
    with t.span("words.dyck"):
        words = enumerate_dyck(k)
    counts["words.dyck_count"] = len(words)
    with t.span("factor.paths"):
        counts["factor.vertices"] = sum(len(p.vertices) for p in cycle_factor(k))


def _tree_layers(t: Tracer, k: int, mask: int, counts: Counter) -> tuple:
    with t.span("spanning.build"):
        tree = counting_tree(k, mask)
    with t.span("spanning.validate"):
        report = validate_tree(tree)
    counts["spanning.tuples"] += len(tree.entries)
    for e in tree.entries:
        counts[f"spanning.tuples_{e.derivation.pattern.family}"] += 1
    before = canonical_witness.cache_info()
    with t.span("flippable.witness"):
        edges = sum(len(canonical_witness(e.tup)) for e in tree.entries)
    after = canonical_witness.cache_info()
    counts["flippable.witness_edges"] += edges
    counts["flippable.reused_tuples"] += after.hits - before.hits
    with t.span("flippable.derived_witness"):
        for e in tree.entries:
            e.derivation.witness()
    return tree, report.passed


class _Sink:
    """A text stream that keeps what ``cli.main`` writes, at list-append cost."""

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.write = self.chunks.append


def trace_cycle(t: Tracer, kind: str, k: int, mask: int, counts: Counter) -> dict:
    _word_layers(t, k, counts)
    tree, passed = _tree_layers(t, k, mask, counts)

    if kind == "odd":
        with t.span("assembly.splice"):
            vals = assembly.stream_gplus_vals(k, tree)
        with t.span("assembly.walk"):
            counts["assembly.vertices"] = sum(1 for _ in vals)
    else:
        # The middle stream builds its own tree and splices inside the walk;
        # those calls become child spans, so the walk's self time is the
        # traversal plus the complement-edge detours.
        with t.wrap(assembly, "_tree_for", "assembly.tree"), t.wrap(
            assembly, "stream_gplus_vals", "assembly.splice"
        ):
            with t.span("assembly.walk"):
                counts["assembly.vertices"] = sum(
                    1 for _ in assembly.stream_middle_vals(k, mask)
                )

    sink = _Sink()
    argv = ["gen" if kind == "odd" else "middle", "--k", str(k), "--family", str(mask)]
    with t.wrap(assembly, "_tree_for", "cli.tree"), t.wrap(
        assembly, "stream_gplus_vals", "cli.splice"
    ):
        with t.span("cli.emit"):
            code = cli.main(argv, out=sink)
    text = "".join(sink.chunks).encode("ascii")
    counts["cli.output_bytes"] = len(text)
    return {"passed": passed and code == 0, "sha256": hashlib.sha256(text).hexdigest()}


def trace_families(t: Tracer, k: int, masks: list[int], counts: Counter) -> dict:
    _word_layers(t, k, counts)
    passed = True
    for mask in masks:
        tree, ok = _tree_layers(t, k, mask, counts)
        with t.span("assembly.splice"):
            vals = assembly.stream_gplus_vals(k, tree)
        with t.span("assembly.walk"):
            counts["assembly.vertices"] += sum(1 for _ in vals)
        with t.span("assembly.certificate"):
            cert = assembly.hamilton_odd(k, mask)
        with t.span("verify.certificate"):
            ok = verify_certificate(cert).passed and ok
        passed = passed and ok
    return {"passed": passed, "sha256": None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("odd", "middle", "families"), required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--masks", required=True, help="comma-separated family masks")
    args = parser.parse_args()
    masks = [int(m) for m in args.masks.split(",")]
    t = Tracer()
    counts: Counter = Counter()
    if args.kind == "families":
        result = trace_families(t, args.k, masks, counts)
    else:
        (mask,) = masks
        result = trace_cycle(t, args.kind, args.k, mask, counts)
    print(json.dumps({**result, "counts": counts, "spans": t.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
