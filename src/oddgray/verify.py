"""Independent verification oracles.

``verify_cycle`` re-derives the target graph's vertex form and adjacency rule
from raw bit arithmetic and checks a claimed cycle of packed vertices in one
pass, marking each vertex seen in a bitmap of one bit per n-bit value (4 MB
at k = 12); nothing from the construction modules is consulted (the property
suites further down do exercise those modules, and import them locally).
``verify_lines``, which ``oddgray verify`` runs, and ``verify_certificate``
pack their vertices for it as it reads them, but a certificate the library
built passes its packed values as they are. ``brute_force_hamilton`` searches
small instances exhaustively, which pins down both positive cases and the one
genuine exception at k = 2.
"""

from __future__ import annotations

import mmap
from collections import namedtuple
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .words import Bits, Vertices, bitstring, check_memory, enumerate_dyck, positions

BRUTE_FORCE_CAP = 40
# Lines ``verify_lines`` checks and packs at a time.
LINES_PER_BLOCK = 4096


# passed: bool; failures: ((name, item), ...)
VerificationReport = namedtuple("VerificationReport", "passed failures")


def _report(failures: list[tuple[str, str]]) -> VerificationReport:
    return VerificationReport(not failures, tuple(failures))


def _bitmap(k: int, n: int) -> mmap.mmap:
    """A zeroed bitmap of one bit per n-bit value; its untouched pages cost no memory.

    A bitmap larger than physical memory is refused before any vertex is read.
    """
    size = max(1, 1 << n >> 3)
    check_memory(size, f"k = {k} needs a bitmap of {size >> 20:,} MB, one bit per {n}-bit value")
    return mmap.mmap(-1, size)


def verify_cycle(k: int, target: str, vals: Iterable[int], show=None) -> VerificationReport:
    """Check a claimed cycle of packed vertices in one pass over ``vals``.

    Each well-formed value seen is marked in a bitmap indexed by the value
    itself, which refuses a k too large for memory before ``vals`` is read; a
    malformed vertex is not counted as a repeat. ``show(i, v)`` renders vertex
    i, packed as v; by default as its positions (odd) or its bitstring (gplus
    and middle). Failures, in order: vertex-count, vertex-form (the first
    malformed vertex), distinct, and adjacency (the first failing step, the
    closing step last; reported only when every vertex is well formed).
    """
    size = comb(2 * k + 1, k)
    # Length, weights, vertex count, and the weights of a ^ b on an edge: for
    # well-formed ends, 2k bits when they are disjoint k-subsets (odd) or
    # complements (gplus), one bit when they differ in one position.
    spec = {
        "odd": (2 * k + 1, {k}, size, {2 * k}),
        "gplus": (2 * k, {k, k + 1}, size, {1, 2 * k}),
        "middle": (2 * k + 1, {k, k + 1}, 2 * size, {1}),
    }.get(target)
    if spec is None:
        return _report([("target", f"unknown target {target!r}")])
    n, weights, expected, steps = spec
    if show is None:
        show = lambda i, v: str(positions(v)) if target == "odd" else bitstring(v, n)
    bad = misstep = None
    count = 0
    repeated = False
    with _bitmap(k, n) as seen:
        for v in vals:
            if v >> n or v.bit_count() not in weights:
                bad = bad or (count, v)
            else:
                i, bit = v >> 3, 1 << (v & 7)
                byte = seen[i]
                if byte & bit:
                    repeated = True
                seen[i] = byte | bit
            if not count:
                first = v
            elif misstep is None and (prev ^ v).bit_count() not in steps:
                misstep = count - 1, prev, v
            prev = v
            count += 1
    if count and misstep is None and (prev ^ first).bit_count() not in steps:
        misstep = count - 1, prev, first

    failures: list[tuple[str, str]] = []
    if count != expected:
        failures.append(("vertex-count", f"{count} instead of {expected}"))
    if bad is not None:
        failures.append(("vertex-form", show(*bad)))
    if repeated:
        failures.append(("distinct", "repeated vertex"))
    if bad is None and misstep is not None:
        i, a, b = misstep
        failures.append(("adjacency", f"step {i}: {show(i, a)} -> {show((i + 1) % count, b)}"))
    return _report(failures)


def verify_certificate(cert) -> VerificationReport:
    """``verify_cycle`` over a certificate's vertices packed, with messages showing them as given.

    A ``Vertices`` view of the target's kind and length is read as its packed
    values. Any other odd vertex, a tuple of k elements of 1..2k+1, packs to
    the sum of their bits, of weight k exactly when they are distinct; a gplus
    or middle vertex, a ``Bits`` of the target's length, to its value; and
    anything else to a negative value, which no target accepts.
    """
    k, target, vertices = cert.k, cert.target, cert.vertices
    n = 2 * k if target == "gplus" else 2 * k + 1
    if isinstance(vertices, Vertices) and (vertices.n, vertices.odd) == (n, target == "odd"):
        vals = vertices.vals
    elif target == "odd":
        bits, miss = {i: 1 << (i - 1) for i in range(1, n + 1)}, repeat(-1 << n)
        vals = (
            sum(map(bits.get, v, miss)) if isinstance(v, tuple) and len(v) == k else -1
            for v in vertices
        )
    else:
        vals = (v.val if isinstance(v, Bits) and v.n == n else -1 for v in vertices)
    return verify_cycle(k, target, vals, lambda i, v: str(vertices[i]))


def verify_lines(k: int, target: str, lines: Iterable[str]) -> VerificationReport:
    """``verify_cycle`` over lines of bits, position 1 first, packed as they are read.

    Blank lines are skipped. The first malformed line, of the wrong length or
    with a character other than 0 and 1, ends the check and is its only
    failure: line-format, naming the line's number among the non-blank ones.
    Lines are checked and packed a block at a time, through C-level ``map``s.
    """
    n = 2 * k if target == "gplus" else 2 * k + 1
    reverse = itemgetter(slice(None, None, -1))
    malformed: list[tuple[str, str]] = []

    def blocks():
        stripped = filter(None, map(str.strip, lines))
        done = 0
        while block := list(islice(stripped, LINES_PER_BLOCK)):
            good = len(block)
            text = "".join(block)
            if set(map(len, block)) != {n} or text.count("0") + text.count("1") != len(text):
                good = next(i for i, line in enumerate(block) if len(line) != n or line.strip("01"))
            yield map(int, map(reverse, block[:good]), repeat(2))
            if good < len(block):
                malformed.append(("line-format", f"line {done + good + 1}: {block[good]!r}"))
                return
            done += good

    report = verify_cycle(k, target, chain.from_iterable(blocks()))
    return _report(malformed) if malformed else report


def _raw_graph(k: int, target: str):
    if target == "odd":
        verts = list(combinations(range(1, 2 * k + 2), k))
        return verts, {v: [w for w in verts if not set(v) & set(w)] for v in verts}
    n = 2 * k if target == "gplus" else 2 * k + 1
    vals = [v for v in range(1 << n) if v.bit_count() in (k, k + 1)]
    vset = set(vals)
    adj = {}
    for v in vals:
        nb = [v ^ (1 << i) for i in range(n) if v ^ (1 << i) in vset]
        if target == "gplus" and v.bit_count() == k:
            nb.append(v ^ ((1 << n) - 1))  # the closing edge to the complement
        adj[Bits(v, n)] = [Bits(w, n) for w in nb]
    return [Bits(v, n) for v in vals], adj


def brute_force_hamilton(k: int, target: str):
    """Some Hamilton cycle of the target graph, or None if there is none.

    Backtracking with smallest-remaining-degree branching; refuses instances
    above BRUTE_FORCE_CAP vertices before building the graph.
    """
    counts = {"odd": 1, "gplus": 1, "middle": 2}
    if target not in counts:
        raise ValueError(f"unknown target {target!r}")
    n = counts[target] * comb(2 * k + 1, k)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"{n} vertices exceed the brute-force cap of {BRUTE_FORCE_CAP}")
    if n < 3:
        return None
    verts, adj = _raw_graph(k, target)
    start = verts[0]
    used = {start}
    cycle = [start]

    def extend(cur) -> bool:
        if len(cycle) == n:
            return start in adj[cur]
        nxt = [w for w in adj[cur] if w not in used]
        nxt.sort(key=lambda w: sum(1 for z in adj[w] if z not in used))
        for w in nxt:
            used.add(w)
            cycle.append(w)
            if extend(w):
                return True
            used.remove(w)
            cycle.pop()
        return False

    return cycle if extend(start) else None


def verify_factor(k: int) -> VerificationReport:
    """Factor paths are disjoint, cover both layers, and number Catalan(k)."""
    from .checking import cycle_factor

    failures: list[tuple[str, str]] = []
    catalan = comb(2 * k, k) // (k + 1)
    seen: set[int] = set()
    count = 0
    for p in cycle_factor(k):
        count += 1
        if len(p.vertices) != 2 * k + 1:
            failures.append(("cycle-length", str(p.origin)))
        if p.vertices[-1].val != p.origin.val ^ ((1 << (2 * k)) - 1):
            failures.append(("endpoint", str(p.origin)))
        for v in p.vertices:
            if v.val in seen:
                failures.append(("disjoint", str(v)))
            seen.add(v.val)
    if count != catalan:
        failures.append(("path-count", f"{count} instead of {catalan}"))
    if len(seen) != comb(2 * k + 1, k):
        failures.append(("coverage", f"{len(seen)} of {comb(2 * k + 1, k)} vertices"))
    return _report(failures)


def verify_flip_properties(k: int) -> VerificationReport:
    """Flip sequences are alternating permutations; concatenation shifts them.

    The checks read the tables ``flip_sequences(a)`` of ``bytes``, each
    computed once per call and k's last. The concatenation identity
    F(xy) == F(x) followed by |x| + F(y) is checked over all Dyck pairs with
    semilengths summing to k, for k <= 8.
    """
    from .factor import flip_sequences

    failures: list[tuple[str, str]] = []
    sizes = range(k + 1) if k <= 8 else ()
    part = {x: s for a in sizes for x, s in zip(enumerate_dyck(a), flip_sequences(a))}
    for x, seq in zip(enumerate_dyck(k), flip_sequences(k)):
        if sorted(seq) != list(range(1, 2 * k + 1)):
            failures.append(("permutation", str(x)))
            continue
        for i, a in enumerate(seq, start=1):
            if x.bit(a) != 1 - i % 2:
                failures.append(("alternation", f"{x} step {i}"))
                break
    if k <= 8:
        for a in range(0, k + 1):
            for x in enumerate_dyck(a):
                for y in enumerate_dyck(k - a):
                    if part[x + y] != part[x] + bytes(x.n + t for t in part[y]):
                        failures.append(("concatenation", f"{x} {y}"))
    return _report(failures)


def verify_tuple_closure(k: int) -> VerificationReport:
    """Every pool tuple has a passing canonical witness; no mark conflicts."""
    from .checking import canonical_witness, conflict_violations, enumerate_tuples, is_witness

    failures: list[tuple[str, str]] = []
    tuples = enumerate_tuples(k)
    if k < 3 and tuples:
        failures.append(("empty", f"{len(tuples)} tuples below semilength 3"))
    for t in tuples:
        if not is_witness(t, canonical_witness(t)):
            failures.append(("witness", str(t)))
    for t1, t2, x in conflict_violations(tuples):
        failures.append(("conflict", f"{t1} / {t2} on {x}"))
    return _report(failures)


def verify_tree(k: int, mask: int | None = None) -> VerificationReport:
    """The (counting) tree validates, re-derives, and has edge-disjoint witnesses.

    Each entry's derivation, read back from its packed support, must be the
    only derivation of the support's members, and the support, which the
    splice reads, must be the closed-form wrap of that derivation; so the
    witness the splice reads off the support is the canonical one. The checks
    run on packed values, witness edges keyed as (lower, upper) vertex value
    pairs; a tuple of ``Bits`` is built only for ``is_witness``, at k <= 7,
    and for a failure text.
    """
    from .checking import Derivation, _derivations, is_witness, validate_tree
    from .spanning import counting_tree, full_tree

    tree = full_tree(k) if mask is None else counting_tree(k, mask)
    failures = [("tree", f) for f in validate_tree(tree).failures]
    n = tree.n
    seen_edges: set[tuple[int, int]] = set()
    for pattern, support in tree.packed:
        d = Derivation.of_support(pattern, support, n)
        wrapped = d.support_vals()[0]
        if _derivations(tuple(sorted(wrapped)), n) != (d,):
            failures.append(("closure-membership", str(d.tuple())))
        if support != wrapped:
            failures.append(("packed-entry", str(d.tuple())))
        cycle = d.witness_vals()
        if k <= 7 and not is_witness(d.tuple(), tuple(Bits(y, n) for y in cycle)):
            failures.append(("witness", str(d.tuple())))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            e = (a, b) if a < b else (b, a)
            if e in seen_edges:
                failures.append(("witness-overlap", str(d.tuple())))
            seen_edges.add(e)
    return _report(failures)


def selfcheck(max_k: int) -> Iterator[tuple[str, VerificationReport]]:
    """A (label, report) pair for every suite ``oddgray selfcheck`` runs, each capped in k."""
    from .assembly import hamilton_middle_levels, hamilton_odd
    from .spanning import mask_width

    for k in range(1, min(max_k, 11) + 1):
        yield f"factor k={k}", verify_factor(k)
        yield f"flip-sequences k={k}", verify_flip_properties(k)
    for k in range(2, min(max_k, 6) + 1):
        yield f"tuple-pool k={k}", verify_tuple_closure(k)
    for k in range(3, min(max_k, 11) + 1):
        yield f"tree k={k}", verify_tree(k)
    for k in range(6, min(max_k, 7) + 1):
        for mask in range(1 << mask_width(k)):
            yield f"tree k={k} mask={mask}", verify_tree(k, mask)
    for k in range(3, min(max_k, 8) + 1):
        yield f"odd cycle k={k}", verify_certificate(hamilton_odd(k))
    for k in range(1, min(max_k, 8) + 1):
        yield f"middle cycle k={k}", verify_certificate(hamilton_middle_levels(k))
