"""Command-line front end.

Subcommands: ``gen`` (odd-graph Hamilton cycle), ``middle`` (middle-levels
cycle), ``factor`` (the underlying cycle factor), ``tree`` (spanning tree as
JSON), ``verify`` (check a cycle file), ``selfcheck`` (run the
verification suites), ``bench`` (generation throughput). ``gen``, ``middle``
and ``factor`` stream their lines in blocks of BLOCK_LINES, one ``write`` per
block; identical invocations produce byte-identical output. ``gen`` renders
``assembly.stream_odd_vals``, which refuses k = 2 (the Petersen graph), k < 3
and bad masks before a line is written. ``verify`` reads a file, or stdin
with ``--input -`` (so ``oddgray gen --k 9 | oddgray verify --k 9 --target
odd --input -`` needs no file), packs each line as it reads it into
``verify.verify_cycle`` and stops at the first malformed line, holding only
the vertices seen (k = 11: about 3 s and 151 MB on a 2-vCPU Xeon).

Exit codes: 0 success, 1 verification failure, 2 bad arguments. The
environment variable ODDGRAY_MAX_K lowers the accepted k ceiling (default
``words.MAX_K``, 30), which keeps accidental huge runs out of CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice
from math import comb
from typing import IO, Iterable, Iterator

from . import assembly, spanning, verify
from .factor import _path_vals, cycle_factor, flip_sequences
from .words import MAX_K, enumerate_dyck, line_renderer, positions

# Lines joined into one string per ``out.write``.
BLOCK_LINES = 4096


def _ceiling() -> int:
    raw = os.environ.get("ODDGRAY_MAX_K")
    if raw is None:
        return MAX_K
    try:
        return max(1, min(MAX_K, int(raw)))
    except ValueError:
        raise ValueError(f"ODDGRAY_MAX_K must be an integer, got {raw!r}") from None


def _write_blocks(out: IO[str], lines: Iterable[str]) -> None:
    """Write lines (each ending in a newline) BLOCK_LINES at a time, one ``out.write`` per block."""
    lines = iter(lines)
    while block := "".join(islice(lines, BLOCK_LINES)):
        out.write(block)


def _subset_line(val: int) -> str:
    return "{" + ",".join(map(str, positions(val))) + "}\n"


def _delta_lines(odd: Iterator[int], n: int) -> Iterator[str]:
    """Per step of the cycle, and for the closing step, the one position left unflipped."""
    full = (1 << n) - 1
    labels = [f"{i}\n" for i in range(n + 1)]
    first = prev = next(odd)
    for ov in odd:
        yield labels[(full ^ (prev | ov)).bit_length()]
        prev = ov
    yield labels[(full ^ (prev | first)).bit_length()]


def _cmd_gen(args, parser, out: IO[str]) -> int:
    k = args.k
    if k > _ceiling():
        parser.error(f"gen needs 3 <= k <= {_ceiling()}")
    odd = assembly.stream_odd_vals(k, args.family)
    n = 2 * k + 1
    if args.format == "bits":
        lines = map(line_renderer(n), odd)
    elif args.format == "subsets":
        lines = map(_subset_line, odd)
    else:
        lines = _delta_lines(odd, n)
    _write_blocks(out, lines)
    return 0


def _cmd_middle(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 1 <= k <= _ceiling():
        parser.error(f"middle needs 1 <= k <= {_ceiling()}")
    render = line_renderer(2 * k + 1)
    _write_blocks(out, map(render, assembly.stream_middle_vals(k, args.family)))
    return 0


def _cmd_factor(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 1 <= k <= _ceiling():
        parser.error(f"factor needs 1 <= k <= {_ceiling()}")
    render = line_renderer(2 * k, ",")
    # each vertex renders with a trailing comma; the line's last becomes its newline
    paths = zip(enumerate_dyck(k), flip_sequences(k))
    lines = ("".join([render(v) for v in _path_vals(x.val, s)])[:-1] + "\n" for x, s in paths)
    _write_blocks(out, lines)
    return 0


def _cmd_tree(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 3 <= k <= _ceiling():
        parser.error(f"tree needs 3 <= k <= {_ceiling()}")
    from .checking import tree_json

    payload = {"k": k, "family": args.family, **tree_json(assembly._tree_for(k, args.family))}
    out.write(json.dumps(payload, indent=2))
    out.write("\n")
    return 0


def _cmd_verify(args, parser, out: IO[str]) -> int:
    k = args.k
    if not 1 <= k <= _ceiling():
        parser.error(f"verify needs 1 <= k <= {_ceiling()}")
    n = 2 * k if args.target == "gplus" else 2 * k + 1
    malformed = []

    def vals(fh):
        """Each non-blank line, packed; the first malformed one ends the stream."""
        for i, line in enumerate(filter(None, map(str.strip, fh)), 1):
            if len(line) != n or line.strip("01"):
                malformed.append(("line-format", f"line {i}: {line!r}"))
                return
            yield int(line[::-1], 2)

    stdin = args.input == "-"
    try:
        # a byte outside ASCII decodes to a lone surrogate, which fails the line format
        source = sys.stdin.fileno() if stdin else args.input
        with open(source, encoding="ascii", errors="surrogateescape", closefd=not stdin) as fh:
            report = verify.verify_cycle(k, args.target, vals(fh))
    except OSError as exc:
        parser.error(f"cannot read {args.input}: {exc}")
    failures = malformed or report.failures
    for name, item in failures:
        out.write(f"FAIL {name}: {item}\n")
    out.write("PASS\n" if not failures else "FAIL\n")
    return 0 if not failures else 1


def _iter_selfcheck(max_k: int):
    """Yield (label, report) pairs for every suite, capped per suite."""
    for k in range(1, min(max_k, 11) + 1):
        yield f"factor k={k}", verify.verify_factor(k)
        yield f"flip-sequences k={k}", verify.verify_flip_properties(k)
    for k in range(2, min(max_k, 6) + 1):
        yield f"tuple-pool k={k}", verify.verify_tuple_closure(k)
    for k in range(3, min(max_k, 9) + 1):
        yield f"tree k={k}", verify.verify_tree(k)
    for k in range(6, min(max_k, 7) + 1):
        for mask in range(1 << spanning.mask_width(k)):
            yield f"tree k={k} mask={mask}", verify.verify_tree(k, mask)
    for k in range(3, min(max_k, 8) + 1):
        yield f"odd cycle k={k}", verify.verify_certificate(assembly.hamilton_odd(k))
    for k in range(1, min(max_k, 8) + 1):
        yield (
            f"middle cycle k={k}",
            verify.verify_certificate(assembly.hamilton_middle_levels(k)),
        )


def _cmd_selfcheck(args, parser, out: IO[str]) -> int:
    max_k = min(args.max_k, _ceiling())
    if max_k < 1:
        parser.error("selfcheck needs --max-k >= 1")
    ok = True
    for label, report in _iter_selfcheck(max_k):
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
    if not 3 <= k <= _ceiling():
        parser.error(f"bench needs 3 <= k <= {_ceiling()}")
    if args.repeat < 1:
        parser.error("bench needs --repeat >= 1")
    total = comb(2 * k + 1, k)
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        count = sum(1 for _ in cycle_factor(k))
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
