"""Independent verification oracles.

``verify_certificate`` re-derives the target graph's adjacency rule from raw
bit and subset arithmetic and checks a claimed cycle against it; nothing from
the construction modules is consulted (the property suites further down do
exercise those modules, and import them locally). ``brute_force_hamilton``
searches small instances exhaustively, which pins down both positive cases
and the one genuine exception at k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .words import Bits

BRUTE_FORCE_CAP = 40


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failures: tuple[tuple[str, str], ...]


def _report(failures: list[tuple[str, str]]) -> VerificationReport:
    return VerificationReport(not failures, tuple(failures))


def verify_certificate(cert) -> VerificationReport:
    """Check vertex count, distinctness and cyclic adjacency for the target."""
    failures: list[tuple[str, str]] = []
    k = cert.k
    vertices = cert.vertices

    if cert.target == "odd":
        expected = comb(2 * k + 1, k)
        ground = set(range(1, 2 * k + 2))

        def ok_vertex(v) -> bool:
            return (
                isinstance(v, tuple)
                and len(v) == k
                and len(set(v)) == k
                and set(v) <= ground
            )

        def adjacent(a, b) -> bool:
            return not set(a) & set(b)

    elif cert.target == "gplus":
        expected = comb(2 * k + 1, k)
        full = (1 << (2 * k)) - 1

        def ok_vertex(v) -> bool:
            return isinstance(v, Bits) and v.n == 2 * k and v.weight in (k, k + 1)

        def adjacent(a, b) -> bool:
            d = a.val ^ b.val
            return d == full or d.bit_count() == 1

    elif cert.target == "middle":
        expected = 2 * comb(2 * k + 1, k)

        def ok_vertex(v) -> bool:
            return isinstance(v, Bits) and v.n == 2 * k + 1 and v.weight in (k, k + 1)

        def adjacent(a, b) -> bool:
            return (a.val ^ b.val).bit_count() == 1

    else:
        return _report([("target", f"unknown target {cert.target!r}")])

    if len(vertices) != expected:
        failures.append(("vertex-count", f"{len(vertices)} instead of {expected}"))
    bad = [v for v in vertices if not ok_vertex(v)]
    if bad:
        failures.append(("vertex-form", str(bad[0])))
    if len(set(vertices)) != len(vertices):
        failures.append(("distinct", "repeated vertex"))
    if not bad:
        n = len(vertices)
        for i in range(n):
            a, b = vertices[i], vertices[(i + 1) % n]
            if not adjacent(a, b):
                failures.append(("adjacency", f"step {i}: {a} -> {b}"))
                break
    return _report(failures)


def _raw_graph(k: int, target: str):
    if target == "odd":
        verts = [tuple(c) for c in combinations(range(1, 2 * k + 2), k)]
        adj = {
            v: [w for w in verts if not set(v) & set(w)]
            for v in verts
        }
        return verts, adj
    if target == "gplus":
        n = 2 * k
        full = (1 << n) - 1
        vals = [v for v in range(1 << n) if v.bit_count() in (k, k + 1)]
        verts = [Bits(v, n) for v in sorted(vals)]
        vset = set(vals)
        adj = {}
        for v in vals:
            nb = [v ^ (1 << i) for i in range(n) if v ^ (1 << i) in vset]
            if v.bit_count() == k:
                nb.append(v ^ full)
            adj[Bits(v, n)] = [Bits(w, n) for w in nb]
        return verts, adj
    if target == "middle":
        n = 2 * k + 1
        vals = [v for v in range(1 << n) if v.bit_count() in (k, k + 1)]
        verts = [Bits(v, n) for v in sorted(vals)]
        vset = set(vals)
        adj = {
            Bits(v, n): [Bits(v ^ (1 << i), n) for i in range(n) if v ^ (1 << i) in vset]
            for v in vals
        }
        return verts, adj
    raise ValueError(f"unknown target {target!r}")


def brute_force_hamilton(k: int, target: str):
    """Some Hamilton cycle of the target graph, or None if there is none.

    Backtracking with smallest-remaining-degree branching; refuses instances
    above BRUTE_FORCE_CAP vertices.
    """
    verts, adj = _raw_graph(k, target)
    n = len(verts)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"{n} vertices exceed the brute-force cap of {BRUTE_FORCE_CAP}")
    if n < 3:
        return None
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

    The checks read the tables ``flip_sequences(a)``, each computed once per
    call and k's last. The concatenation identity F(xy) == F(x) followed by
    |x| + F(y) is checked over all Dyck pairs with semilengths summing to k,
    for k <= 8.
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
                    if part[x + y] != part[x] + tuple(x.n + t for t in part[y]):
                        failures.append(("concatenation", f"{x} {y}"))
    return _report(failures)


def verify_tuple_closure(k: int) -> VerificationReport:
    """Every pool tuple has a passing canonical witness; no mark conflicts."""
    from .flippable import canonical_witness, conflict_violations, enumerate_tuples, is_witness

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
    witness the splice takes from it is the canonical one.
    """
    from .flippable import derivations, is_witness
    from .spanning import counting_tree, full_tree, validate_tree

    failures: list[tuple[str, str]] = []
    tree = full_tree(k) if mask is None else counting_tree(k, mask)
    report = validate_tree(tree)
    for f in report.failures:
        failures.append(("tree", f))
    seen_edges: set[frozenset] = set()
    for entry in tree.entries:
        t = entry.tup
        if derivations(t) != [entry.derivation]:
            failures.append(("closure-membership", str(t)))
        cycle = entry.derivation.witness()
        if k <= 7 and not is_witness(t, cycle):
            failures.append(("witness", str(t)))
        m = len(cycle)
        for i in range(m):
            e = frozenset((cycle[i], cycle[(i + 1) % m]))
            if e in seen_edges:
                failures.append(("witness-overlap", str(t)))
            seen_edges.add(e)
    return _report(failures)
