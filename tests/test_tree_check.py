"""The splice's own tree check against ``checking.validate_tree``.

The splice checks the tree inside its one pass over the members and calls
``validate_tree`` only to render a failure. The texts below were recorded
from ``stream_gplus_vals`` before that check moved into the splice's pass,
and name each tuple by the members its entry holds: one broken tree per
failure kind of ``validate_tree``, one whose words close a cycle with no
mark repeated (which only the union-find catches), a tree that does not
span, and one that is both invalid and too small, whose invalidity is
reported first. A mark outside 1..2k and a support without one member per
named edge, failure kinds added later, have tests of their own. A
hypothesis property then mutates built trees, and ``assembly._splice_hops``
must reject exactly the mutants that ``validate_tree`` rejects, with its
text, also those with a wide hop too; a mutant it accepts may still fail
its hop check with an ``AssemblyError``.
"""

import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgray.assembly import AssemblyError, _splice_hops, stream_gplus_vals
from oddgray.checking import hand_tree, validate_tree
from oddgray.spanning import SpanningTree, full_tree
from oddgray.words import enumerate_dyck


def packed_tree(k, packed):
    return SpanningTree(enumerate_dyck(k), tuple(packed), 2 * k)


def with_member(entry, pos, member):
    pattern, support = entry
    return pattern, (*support[:pos], member, *support[pos + 1 :])


def broken_trees(k):
    packed = list(full_tree(k).packed)
    out = {}
    # (1) a member outside the base set: a word of entry 0 starting with 0
    x, m = packed[0][1][2]
    out["outside"] = packed_tree(k, [with_member(packed[0], 2, (x ^ 1, m)), *packed[1:]])
    # (2) shared words: entry 0 twice
    out["share"] = packed_tree(k, [packed[0], *packed])
    # (3) accounting: entry 1 dropped
    out["accounting"] = packed_tree(k, [packed[0], *packed[2:]])
    # (4) components: entry 1 replaced by a copy of another entry of its size
    j = next(j for j in range(2, len(packed)) if len(packed[j][1]) == len(packed[1][1]))
    out["components"] = packed_tree(k, [packed[0], packed[j], *packed[2:]])
    # (5) identical marks: a member at position >= 2 takes the mark another
    # entry gives its word
    holders = {}
    for i, (_, support) in enumerate(packed):
        for pos, (x, m) in enumerate(support):
            holders.setdefault(x, []).append((i, pos, m))
    i, pos, x, m = next(
        (i, pos, x, other[2])
        for x, hs in holders.items()
        for (i, pos, _) in hs
        if pos >= 2
        for other in hs
        if other[0] != i
    )
    packed[i] = with_member(packed[i], pos, (x, m))
    out["marks"] = packed_tree(k, packed)
    # (4) alone: entry 0's member at position 2 becomes its first word, under
    # a mark no entry gives that word, so the words close a cycle, the
    # count holds and no mark repeats
    packed = list(full_tree(k).packed)
    x = packed[0][1][0][0]
    used = {m for _, support in packed for xo, m in support if xo == x}
    free = min(set(range(1, 2 * k + 1)) - used)
    out["cycle"] = packed_tree(k, [with_member(packed[0], 2, (x, free)), *packed[1:]])
    # not spanning: the k - 1 tree, valid on its own words
    out["span"] = full_tree(k - 1)
    # invalid and not spanning: the k - 1 tree without its entry 1
    small = full_tree(k - 1).packed
    out["invalid_and_span"] = SpanningTree(
        enumerate_dyck(k - 1), (small[0], *small[2:]), 2 * k - 2
    )
    # a tree made by hand, without its entry 0
    t = full_tree(k)
    out["hand"] = hand_tree(t.base, [e.derivation for e in t.entries[1:]])
    return out


INVALID = "invalid spanning tree: "
SPAN = "tree does not span the Dyck words of this semilength"
RECORDED = {
    4: {
        "outside": INVALID
        + "support of {010110[0]0, 110[1]0010, 1101010[0]} leaves the base set: "
        "[Bits('01011000')]; incidence structure has 2 components",
        "share": INVALID
        + "tuples {110[1]0010, 1101010[0], 110110[0]0} and {110[1]0010, 1101010[0], 110110[0]0} "
        "share 3 words; tuple-size accounting: sum(size - 1) = 15, expected 13",
        "accounting": INVALID
        + "tuple-size accounting: sum(size - 1) = 11, expected 13; "
        "incidence structure has 3 components",
        "components": INVALID
        + "tuples {110101[0]0, 11[1]00100, 1[1]110000} and {110101[0]0, 11[1]00100, 1[1]110000} "
        "share 3 words; incidence structure has 3 components",
        "marks": INVALID
        + "tuples {110[1]0010, 1101010[0], 1101100[0]} and {1[1]001100, 1101100[0], 11101[0]00} "
        "mark 11011000 identically",
        "cycle": INVALID
        + "tuples {[1]1010010, 110[1]0010, 1101010[0]} and {1[1]001010, 11010[0]10, 1110[0]010} "
        "share 2 words; incidence structure has 2 components",
        "span": SPAN,
        "invalid_and_span": INVALID
        + "tuple-size accounting: sum(size - 1) = 2, expected 4; "
        "incidence structure has 3 components",
        "hand": INVALID
        + "tuple-size accounting: sum(size - 1) = 11, expected 13; "
        "incidence structure has 3 components",
    },
    5: {
        "outside": INVALID
        + "support of {01001110[0]0, 11001[1]0010, 110011010[0]} leaves the base set: "
        "[Bits('0100111000')]; incidence structure has 2 components",
        "share": INVALID
        + "tuples {11001[1]0010, 110011010[0], 11001110[0]0} and "
        "{11001[1]0010, 110011010[0], 11001110[0]0} share 3 words; "
        "tuple-size accounting: sum(size - 1) = 43, expected 41",
        "accounting": INVALID
        + "tuple-size accounting: sum(size - 1) = 39, expected 41; "
        "incidence structure has 3 components",
        "components": INVALID
        + "tuples {1[1]00101100, 11010[0]1100, 1110[0]01100} and "
        "{1[1]00101100, 11010[0]1100, 1110[0]01100} share 3 words; "
        "incidence structure has 3 components",
        "marks": INVALID
        + "tuples {11001[1]0010, 110011010[0], 110011100[0]} and "
        "{1100[1]01010, 11001011[0]0, 110011100[0]} mark 1100111000 identically",
        "cycle": INVALID + "incidence structure has 2 components",
        "span": SPAN,
        "invalid_and_span": INVALID
        + "tuple-size accounting: sum(size - 1) = 11, expected 13; "
        "incidence structure has 3 components",
        "hand": INVALID
        + "tuple-size accounting: sum(size - 1) = 39, expected 41; "
        "incidence structure has 3 components",
    },
}


@pytest.mark.parametrize("k", sorted(RECORDED))
@pytest.mark.parametrize("name", sorted(RECORDED[4]))
def test_failure_texts_are_unchanged(k, name):
    tree = broken_trees(k)[name]
    with pytest.raises(ValueError) as err:
        stream_gplus_vals(k, tree)
    assert str(err.value) == RECORDED[k][name]


@pytest.mark.parametrize("mark", [0, 9, 63, -1])
def test_a_mark_outside_1_to_2k_is_an_invalid_tree(mark):
    # Entry 0's member at position 2 is 11011000 under mark 7. A mark that
    # names no edge of its path is rejected with ``validate_tree``'s text,
    # which renders it from the word alone.
    k = 4
    packed = list(built_packed(k))
    x, _ = packed[0][1][2]
    tree = packed_tree(k, [with_member(packed[0], 2, (x, mark)), *packed[1:]])
    with pytest.raises(ValueError) as err:
        stream_gplus_vals(k, tree)
    assert str(err.value) == f"{INVALID}mark {mark} of 11011000 outside 1..8"


@pytest.mark.parametrize(
    "mark, copies, text",
    [
        (
            3,
            1,
            "a hop flips 4 bits: tuple {11[0]10010, 1101010[0], 110110[0]0} hops from "
            "Bits('11000111') on the factor path of 11011000 to Bits('10101110')",
        ),
        *(
            (
                m,
                2,
                f"{INVALID}mark {m} of 11010010 outside 1..8; mark {m} of 11010010 outside 1..8; "
                f"tuples {{11010010:{m}, 1101010[0], 110110[0]0}} and "
                f"{{11010010:{m}, 1101010[0], 110110[0]0}} share 3 words; "
                "tuple-size accounting: sum(size - 1) = 15, expected 13",
            )
            for m in (0, 9)
        ),
    ],
    ids=["first-mark-3", "first-mark-0-twice", "first-mark-9-twice"],
)
def test_a_tuple_whose_first_marks_fit_no_context_is_shown_packed(mark, copies, text):
    # Entry 0, the fan {110[1]0010, 1101010[0], 110110[0]0}, with its first
    # mark changed: no context of the fan fits the first two marks, so the
    # failure names the tuple by the members it holds. With the mark 3,
    # which names another edge of 11010010, a hop is wide; with 0 or 9, on
    # two copies of the entry, the tree is invalid, and the member outside
    # 1..8 is shown as word:mark.
    k = 4
    packed = list(built_packed(k))
    x, _ = packed[0][1][0]
    entry = with_member(packed[0], 0, (x, mark))
    with pytest.raises((ValueError, AssemblyError)) as err:
        stream_gplus_vals(k, packed_tree(k, [entry] * copies + packed[1:]))
    assert err.type is (AssemblyError if copies == 1 else ValueError)
    assert str(err.value) == text


def with_support(entry, support):
    return entry[0], support


def one_member(packed):
    # entry 0 keeps one member, 11010010 under the mark 6 that entry 3 gives it
    return [with_support(packed[0], ((75, 6),)), *packed[1:]]


def moved_to_entry_4(packed):
    # entry 0's three members join entry 4's: words, count and joins all hold
    moved = with_support(packed[4], packed[4][1] + packed[0][1])
    return [with_support(packed[0], ()), *packed[1:4], moved, *packed[5:]]


@pytest.mark.parametrize(
    "k, edit, text",
    [
        (
            4,
            one_member,
            "{11010[0]10} has 1 members; fan(10) names 3; tuples {11010[0]10} and "
            "{1[1]001010, 11010[0]10, 1110[0]010} mark 11010010 identically; "
            "tuple-size accounting: sum(size - 1) = 11, expected 13; "
            "incidence structure has 3 components",
        ),
        (
            5,
            moved_to_entry_4,
            "{} has 0 members; fan() names 3; {11001[1]0010, 110011010[0], 11001110[0]0, "
            "110[1]001010, 1101010[0]10, 110110[0]010} has 6 members; fan(10) names 3",
        ),
    ],
    ids=["one-member", "moved-to-entry-4"],
)
def test_a_support_without_one_member_per_named_edge_is_an_invalid_tree(k, edit, text):
    # Such an entry is named by the members it holds, as any other.
    tree = packed_tree(k, edit(list(built_packed(k))))
    assert "; ".join(validate_tree(tree).failures) == text
    with pytest.raises(ValueError) as err:
        stream_gplus_vals(k, tree)
    assert str(err.value) == INVALID + text


def first_mark_3(packed):
    # entry 0's first member, 11010010 under mark 4, takes mark 3
    return [with_member(packed[0], 0, (packed[0][1][0][0], 3)), *packed[1:]]


@pytest.mark.parametrize(
    "edit, text",
    [
        (one_member, "support has 1 members; fan(10) names 3"),
        (first_mark_3, "marks 3 and 8 fit no context of fan(10)"),
    ],
    ids=["one-member", "first-mark-3"],
)
def test_reading_back_an_entry_that_fits_no_derivation_raises_a_value_error(edit, text):
    # ``SpanningTree.entries`` reads each derivation from the first two marks:
    # an entry with one member has none to read, and marks 3 and 8 give the
    # fan a prefix of length -2.
    tree = packed_tree(4, edit(list(built_packed(4))))
    with pytest.raises(ValueError) as err:
        tree.entries
    assert str(err.value) == text


@lru_cache(maxsize=None)
def built_packed(k):
    return full_tree(k).packed


@st.composite
def mutants(draw):
    """(k, packed entries) of ``full_tree(k)`` with one or two mutations: an
    entry dropped or duplicated, its support emptied, members moved to
    another entry, or a member re-marked (also outside 1..2k) or moved to
    another word."""
    k = draw(st.integers(4, 8))
    packed = list(built_packed(k))
    kinds = ["drop", "duplicate", "empty", "move", "mark", "word"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        mutate(draw, k, packed, kind)
    return k, packed


def mutate(draw, k, packed, kind):
    i = draw(st.integers(0, len(packed) - 1))
    pattern, support = packed[i]
    if kind == "drop":
        del packed[i]
    elif kind == "duplicate":
        packed.insert(draw(st.integers(0, len(packed))), packed[i])
    elif kind == "empty":
        packed[i] = pattern, ()
    elif kind == "move":  # the members from a cut on, at least one if any, go to entry j
        j = draw(st.sampled_from([j for j in range(len(packed)) if j != i]))
        cut = draw(st.integers(0, max(len(support) - 1, 0)))
        packed[j] = with_support(packed[j], packed[j][1] + support[cut:])
        packed[i] = with_support(packed[i], support[:cut])
    elif support:  # any member, if an earlier mutation left one
        pos = draw(st.integers(0, len(support) - 1))
        x, m = support[pos]
        if kind == "word":
            # Another word, under a mark no entry gives it: the words close
            # a cycle, or reconnect the part x held, with every mark distinct.
            x = draw(st.sampled_from([w.val for w in enumerate_dyck(k) if w.val != x]))
        # Half the time the new mark is one another entry gives x, if any.
        others = sorted({mo for _, s in packed for xo, mo in s if xo == x} - {m})
        if kind == "word" or not (others and draw(st.booleans())):
            others = [a for a in range(1, 2 * k + 1) if a != m and a not in others]
            if kind == "mark":  # or a mark that names no edge of x's path
                others += [0, 2 * k + 1, 63, -1]
        packed[i] = with_member(packed[i], pos, (x, draw(st.sampled_from(others))))


@settings(deadline=None, max_examples=60)
@given(mutants())
def test_splice_rejects_exactly_the_trees_validate_tree_rejects(mutant):
    k, packed = mutant
    tree = packed_tree(k, packed)
    report = validate_tree(tree)
    try:
        _splice_hops(k, tree)
    except ValueError as err:
        assert not report.passed
        assert str(err) == INVALID + "; ".join(report.failures)
    except AssemblyError:
        assert report.passed
    else:
        assert report.passed


def test_generation_calls_validate_tree_only_to_render_a_failure():
    code = (
        "import io\n"
        "from oddgray import assembly, checking, cli, spanning\n"
        "calls = 0\n"
        "validate = checking.validate_tree\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return validate(*args)\n"
        "checking.validate_tree = counted\n"
        "for argv in (['gen', '--k', '8'], ['gen', '--k', '7', '--family', '3']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0\n"
        "print(calls)\n"
        "tree = spanning.full_tree(3)\n"
        "try:\n"
        "    broken = checking.hand_tree(tree.base, [e.derivation for e in tree.entries[1:]])\n"
        "    assembly.stream_gplus_vals(3, broken)\n"
        "except ValueError:\n"
        "    print(calls)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # the last line shows that the counter counts
    assert res.stdout.split() == ["0", "1"]
