"""The families workload as a library user runs it: many distinct cycles.

For each mask in order, build the odd-graph Hamilton cycle with
``hamilton_odd(k, mask)``, check it with ``verify_certificate``, and print a
header ``# mask <m> verify <pass|fail>`` followed by the cycle, one
(2k+1)-bit line per subset. Output is flushed after each cycle, so the
first byte on stdout marks the first certified cycle.

    python perfbench/families_child.py --k 8 --masks 3,17,5
"""

from __future__ import annotations

import argparse
import sys

from oddgray import hamilton_odd, verify_certificate


def _line(subset: tuple[int, ...], n: int) -> str:
    val = 0
    for i in subset:
        val |= 1 << (i - 1)
    return f"{val:0{n}b}"[::-1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--masks", required=True, help="comma-separated family masks")
    args = parser.parse_args()
    n = 2 * args.k + 1
    out = sys.stdout
    for mask in map(int, args.masks.split(",")):
        cert = hamilton_odd(args.k, mask)
        status = "pass" if verify_certificate(cert).passed else "fail"
        out.write(f"# mask {mask} verify {status}\n")
        out.write("".join(_line(v, n) + "\n" for v in cert.vertices))
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
