"""Independent verification oracles.

``verify_cycle`` re-derives the target graph's vertex form and adjacency rule
from raw bit arithmetic and checks a claimed cycle of packed vertices in one
pass, holding only the set of vertices seen; nothing from the construction
modules is consulted (the property suites further down do exercise those
modules, and import them locally). ``verify_certificate`` and ``oddgray
verify`` both pack their vertices for it. ``brute_force_hamilton`` searches
small instances exhaustively, which pins down both positive cases and the one
genuine exception at k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb
from typing import Iterable

from .words import Bits, bitstring, positions

BRUTE_FORCE_CAP = 40


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failures: tuple[tuple[str, str], ...]


def _report(failures: list[tuple[str, str]]) -> VerificationReport:
    return VerificationReport(not failures, tuple(failures))


def verify_cycle(k: int, target: str, vals: Iterable[int], show=None) -> VerificationReport:
    """Check a claimed cycle of packed vertices in one pass over ``vals``.

    Only the set of well-formed values seen is held; a malformed vertex is
    not counted as a repeat. ``show(i, v)`` renders vertex i, packed as v;
    by default as its positions (odd) or its bitstring (gplus and middle).
    Failures, in order: vertex-count, vertex-form (the first malformed
    vertex), distinct, and adjacency (the first failing step, the closing
    step last; reported only when every vertex is well formed).
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
    seen: set[int] = set()
    bad = misstep = None
    count = malformed = 0
    for v in vals:
        if v >> n or v.bit_count() not in weights:
            malformed += 1
            bad = bad or (count, v)
        else:
            seen.add(v)
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
    if len(seen) + malformed < count:
        failures.append(("distinct", "repeated vertex"))
    if bad is None and misstep is not None:
        i, a, b = misstep
        failures.append(("adjacency", f"step {i}: {show(i, a)} -> {show((i + 1) % count, b)}"))
    return _report(failures)


def verify_certificate(cert) -> VerificationReport:
    """``verify_cycle`` over a certificate's vertices packed, with messages showing them as given.

    An odd vertex, a tuple of k elements of 1..2k+1, packs to the sum of
    their bits, of weight k exactly when they are distinct; a gplus or middle
    vertex is a ``Bits`` of the target's length. Anything else packs to a
    negative value, which no target accepts.
    """
    k, target, vertices = cert.k, cert.target, cert.vertices
    if target == "odd":
        bits, miss = {i: 1 << (i - 1) for i in range(1, 2 * k + 2)}, repeat(-1 << (2 * k + 1))
        vals = [
            sum(map(bits.get, v, miss)) if isinstance(v, tuple) and len(v) == k else -1
            for v in vertices
        ]
    else:
        n = 2 * k if target == "gplus" else 2 * k + 1
        vals = [v.val if isinstance(v, Bits) and v.n == n else -1 for v in vertices]
    return verify_cycle(k, target, vals, lambda i, v: str(vertices[i]))


def _raw_graph(k: int, target: str):
    if target == "odd":
        verts = list(combinations(range(1, 2 * k + 2), k))
        return verts, {v: [w for w in verts if not set(v) & set(w)] for v in verts}
    if target in ("gplus", "middle"):
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
    raise ValueError(f"unknown target {target!r}")


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
    from .factor import cycle_factor

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
    from .words import enumerate_dyck

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

    Each entry's derivation must be the only derivation of its tuple, so the
    witness the splice takes from it is the canonical one, and each packed
    entry, which the splice reads, must be what peeling that derivation gives.
    """
    from .checking import derivations, is_witness
    from .spanning import counting_tree, full_tree, validate_tree

    failures: list[tuple[str, str]] = []
    tree = full_tree(k) if mask is None else counting_tree(k, mask)
    report = validate_tree(tree)
    for f in report.failures:
        failures.append(("tree", f))
    seen_edges: set[frozenset] = set()
    for entry, packed in zip(tree.entries, tree.packed):
        t, d = entry.tup, entry.derivation
        if derivations(t) != [d]:
            failures.append(("closure-membership", str(t)))
        if packed != (d.pattern, d.witness_vals(), d.support_vals()[0]):
            failures.append(("packed-entry", str(t)))
        cycle = d.witness()
        if k <= 7 and not is_witness(t, cycle):
            failures.append(("witness", str(t)))
        m = len(cycle)
        for i in range(m):
            e = frozenset((cycle[i], cycle[(i + 1) % m]))
            if e in seen_edges:
                failures.append(("witness-overlap", str(t)))
            seen_edges.add(e)
    return _report(failures)
