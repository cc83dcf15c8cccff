"""Command-line front end.

Subcommands: ``gen`` (odd-graph Hamilton cycle), ``middle`` (middle-levels
cycle), ``factor`` (the underlying cycle factor), ``tree`` (spanning tree as
JSON), ``verify`` (check a cycle file), ``selfcheck`` (run the
verification suites), ``bench`` (generation throughput). Output goes in
blocks of lines, one ``write`` of a ``str`` per block: ``gen`` and ``middle``
render each block of a walk's flip positions (``assembly.odd_walk`` and
``middle_walk``, which refuse k = 2, the Petersen graph, k < 3 and bad masks
before a line is written), and ``factor`` and ``gen --format subsets`` join
BLOCK_LINES lines. Identical invocations produce byte-identical output.
``verify`` reads a file, or stdin with ``--input -`` (so ``oddgray gen --k 9
| oddgray verify --k 9 --target odd --input -`` needs no file) through
``verify.verify_lines``, which packs the lines a block at a time, stops at
the first malformed one, and marks the vertices seen in a bitmap of one bit
per value (k = 11: 1.2-1.5 s and 17 MB on a 2-vCPU Xeon; a k whose bitmap
exceeds physical memory exits 2 before a line is read).

Exit codes: 0 success, 1 verification failure, 2 bad arguments, among them a
k above ``words.MAX_K`` (30).
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice
from math import comb
from typing import IO, Iterable

from . import assembly, spanning
from .factor import _path_vals, flip_sequences
from .words import MAX_K, column_lines, enumerate_dyck, line_renderer, subset_line_renderer

# Lines joined into one string per ``out.write``.
BLOCK_LINES = 4096


def _write_blocks(out: IO[str], lines: Iterable[str]) -> None:
    """Write lines (each ending in a newline) BLOCK_LINES at a time, one ``out.write`` per block."""
    lines = iter(lines)
    while block := "".join(islice(lines, BLOCK_LINES)):
        out.write(block)


def _cmd_gen(args, parser, out: IO[str]) -> int:
    k = args.k
    if k > MAX_K:
        parser.error(f"gen needs 3 <= k <= {MAX_K}")
    walk = assembly.odd_walk(k, args.family)
    n = 2 * k + 1
    if args.format == "subsets":
        _write_blocks(out, map(subset_line_renderer(n), assembly.walk_vals(walk)))
        return 0
    labels = [f"{p or n}\n" for p in range(n)]  # per step, the one position left unflipped
    delta = ("".join(map(labels.__getitem__, block)) for block in walk[2])
    for lines in delta if args.format == "delta" else column_lines(n, *walk):
        out.write(lines)
    return 0


def _cmd_middle(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 1 <= k <= MAX_K:
        parser.error(f"middle needs 1 <= k <= {MAX_K}")
    for lines in column_lines(2 * k + 1, *assembly.middle_walk(k, args.family)):
        out.write(lines)
    return 0


def _cmd_factor(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 1 <= k <= MAX_K:
        parser.error(f"factor needs 1 <= k <= {MAX_K}")
    render = line_renderer(2 * k, ",")
    # each vertex renders with a trailing comma; the line's last becomes its newline
    paths = zip(enumerate_dyck(k), flip_sequences(k))
    lines = ("".join([render(v) for v in _path_vals(x.val, s)])[:-1] + "\n" for x, s in paths)
    _write_blocks(out, lines)
    return 0


def _cmd_tree(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 3 <= k <= MAX_K:
        parser.error(f"tree needs 3 <= k <= {MAX_K}")
    import json

    from .checking import tree_json

    payload = {"k": k, "family": args.family, **tree_json(assembly._tree_for(k, args.family))}
    out.write(json.dumps(payload, indent=2))
    out.write("\n")
    return 0


def _cmd_verify(args, parser, out: IO[str]) -> int:
    from . import verify

    k = args.k
    if not 1 <= k <= MAX_K:
        parser.error(f"verify needs 1 <= k <= {MAX_K}")
    stdin = args.input == "-"
    try:
        # a byte outside ASCII decodes to a lone surrogate, which fails the line format
        source = sys.stdin.fileno() if stdin else args.input
        with open(source, encoding="ascii", errors="surrogateescape", closefd=not stdin) as fh:
            report = verify.verify_lines(k, args.target, fh)
    except OSError as exc:
        parser.error(f"cannot read {args.input}: {exc}")
    for name, item in report.failures:
        out.write(f"FAIL {name}: {item}\n")
    out.write("PASS\n" if report.passed else "FAIL\n")
    return 0 if report.passed else 1


def _cmd_selfcheck(args, parser, out: IO[str]) -> int:
    from .verify import selfcheck

    if args.max_k < 1:
        parser.error("selfcheck needs --max-k >= 1")
    ok = True
    for label, report in selfcheck(args.max_k):
        status = "ok" if report.passed else "FAIL"
        out.write(f"{label}: {status}\n")
        if not report.passed:
            ok = False
            for name, item in report.failures[:5]:
                out.write(f"  {name}: {item}\n")
    out.write("selfcheck passed\n" if ok else "selfcheck FAILED\n")
    return 0 if ok else 1


def _cmd_bench(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 3 <= k <= MAX_K:
        parser.error(f"bench needs 3 <= k <= {MAX_K}")
    if args.repeat < 1:
        parser.error("bench needs --repeat >= 1")
    total = comb(2 * k + 1, k)
    for _ in range(args.repeat):
        flip_sequences.cache_clear()
        t0 = time.perf_counter()
        count = len(flip_sequences(k))
        t1 = time.perf_counter()
        n = sum(1 for _ in assembly.stream_gplus_vals(k, spanning.full_tree(k)))
        t2 = time.perf_counter()
        out.write(
            f"k={k} factor: {count} cycles in {t1 - t0:.3f}s | "
            f"hamilton: {n} vertices in {t2 - t1:.3f}s "
            f"({n / (t2 - t1):,.0f} vertices/s)\n"
        )
    if n != total:
        out.write(f"FAIL: streamed {n} vertices, expected {total}\n")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddgray",
        description="Hamilton cycles (cyclic Gray codes) for odd graphs and the middle-levels graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a Hamilton cycle of the odd graph K(2k+1,k)")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--format", choices=("bits", "subsets", "delta"), default="bits")
    gen.add_argument("--family", type=int, default=None, help="counting-tree bitmask (k >= 6)")

    middle = sub.add_parser("middle", help="emit a Hamilton cycle of the middle-levels graph")
    middle.add_argument("--k", type=int, required=True)
    middle.add_argument("--family", type=int, default=None)

    fac = sub.add_parser("factor", help="emit the cycle factor, one cycle per line")
    fac.add_argument("--k", type=int, required=True)

    tree = sub.add_parser("tree", help="emit the spanning tree with derivations")
    tree.add_argument("--k", type=int, required=True)
    tree.add_argument("--family", type=int, default=None)

    ver = sub.add_parser("verify", help="check a certificate file in bits format")
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument("--input", required=True, help="the cycle file, or - for stdin")
    ver.add_argument("--target", choices=("odd", "gplus", "middle"), required=True)

    chk = sub.add_parser("selfcheck", help="run the verification suites")
    chk.add_argument("--max-k", type=int, default=6)

    bench = sub.add_parser("bench", help="time factor and Hamilton-cycle generation")
    bench.add_argument("--k", type=int, default=8)
    bench.add_argument("--repeat", type=int, default=3)

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "middle": _cmd_middle,
    "factor": _cmd_factor,
    "tree": _cmd_tree,
    "verify": _cmd_verify,
    "selfcheck": _cmd_selfcheck,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, parser, stream)
    except BrokenPipeError:
        return 0
    except (ValueError, assembly.AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
