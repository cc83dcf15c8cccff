"""The small value classes: equality, hashing, immutability, texts and fields.

``Pattern``, ``CycleCertificate``, ``TreeReport``, ``VerificationReport`` and
``Partition`` are plain immutable records. These tests pin what callers and
messages see of them, whatever class machinery defines them.
"""

import pytest

import oddgray
from oddgray import BRIDGE, QUAD, Bits, CycleCertificate, Pattern, fan, hamilton_odd

B = Bits.parse


def test_pattern_equality_and_hash():
    assert Pattern("fan", B("10")) == Pattern("fan", B("10"))
    assert hash(Pattern("fan", B("10"))) == hash(Pattern("fan", B("10")))
    assert fan() == Pattern("fan") == Pattern("fan", Bits(0, 0))
    assert fan(B("10")) != fan() and BRIDGE != QUAD and BRIDGE == Pattern("bridge")
    assert len({fan(), Pattern("fan"), BRIDGE, Pattern("bridge"), fan(B("1100"))}) == 3


def test_pattern_is_a_dict_key():
    table = {fan(): "fan", BRIDGE: "bridge", fan(B("10")): "fan(10)"}
    assert table[Pattern("fan")] == "fan"
    assert table[Pattern("bridge")] == "bridge"
    assert table[Pattern("fan", B("10"))] == "fan(10)"
    assert Pattern("quad") not in table


def test_pattern_sort_key_str_and_repr():
    assert fan().sort_key() == (0, "")
    assert fan(B("1100")).sort_key() == (0, "1100")
    assert BRIDGE.sort_key() == (1, "")
    assert Pattern("patch").sort_key() == (2, "")
    assert QUAD.sort_key() == (3, "")
    assert [str(p) for p in (fan(), fan(B("10")), BRIDGE, QUAD)] == [
        "fan()",
        "fan(10)",
        "bridge",
        "quad",
    ]
    assert repr(fan(B("10"))) == "Pattern(family='fan', inner=Bits('10'))"
    assert repr(BRIDGE) == "Pattern(family='bridge', inner=Bits(''))"


@pytest.mark.parametrize(
    "family, inner, text",
    [
        ("hexagon", Bits(0, 0), "unknown pattern family 'hexagon'"),
        ("hexagon", B("01"), "unknown pattern family 'hexagon'"),
        ("bridge", B("10"), "bridge takes no parameter"),
        ("quad", B("01"), "quad takes no parameter"),
        ("fan", B("01"), "fan parameter must be a Dyck word"),
        ("fan", B("1"), "fan parameter must be a Dyck word"),
    ],
    ids=["unknown", "unknown-with-inner", "bridge-inner", "quad-inner", "fan-non-dyck", "fan-odd"],
)
def test_pattern_rejects_bad_arguments(family, inner, text):
    with pytest.raises(ValueError) as err:
        Pattern(family, inner)
    assert str(err.value) == text


def test_pattern_is_immutable():
    p = fan(B("10"))
    with pytest.raises(AttributeError):
        p.family = "quad"
    with pytest.raises(AttributeError):
        p.inner = Bits(0, 0)
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p == fan(B("10"))


def test_cycle_certificate_equality_and_edge_set():
    cert = CycleCertificate(1, "gplus", (B("10"), B("11"), B("01")))
    assert cert == CycleCertificate(1, "gplus", (B("10"), B("11"), B("01")))
    assert hash(cert) == hash(CycleCertificate(1, "gplus", (B("10"), B("11"), B("01"))))
    assert cert != CycleCertificate(1, "middle", cert.vertices)
    assert cert != CycleCertificate(2, "gplus", cert.vertices)
    assert (cert.k, cert.target) == (1, "gplus")
    assert cert.edge_set() == {
        frozenset((B("10"), B("11"))),
        frozenset((B("11"), B("01"))),
        frozenset((B("01"), B("10"))),
    }
    assert repr(CycleCertificate(1, "odd", ((1,),))) == (
        "CycleCertificate(k=1, target='odd', vertices=((1,),))"
    )
    odd = hamilton_odd(3)
    assert odd == hamilton_odd(3) and odd.target == "odd" and len(odd.vertices) == 35
    assert len(odd.edge_set()) == 35
    with pytest.raises(AttributeError):
        odd.vertices = ()


def test_tree_report_fields():
    report = oddgray.validate_tree(oddgray.full_tree(4))
    assert report.passed is True and report.failures == ()
    bad = oddgray.TreeReport(False, ("incidence structure has 2 components",))
    assert bad.passed is False and bad.failures == ("incidence structure has 2 components",)
    assert bad == oddgray.TreeReport(False, ("incidence structure has 2 components",))
    with pytest.raises(AttributeError):
        bad.passed = True


def test_verification_report_fields():
    report = oddgray.verify_certificate(hamilton_odd(3))
    assert report.passed is True and report.failures == ()
    assert report == oddgray.VerificationReport(True, ())
    assert repr(report) == "VerificationReport(passed=True, failures=())"
    bad = oddgray.VerificationReport(False, (("distinct", "x"),))
    assert bad.passed is False and bad.failures == (("distinct", "x"),)
    with pytest.raises(AttributeError):
        bad.failures = ()


def test_partition_fields():
    p = oddgray.partition(3)
    assert p.k == 3
    assert p.steep == frozenset({B("110010")})
    assert p.flat == frozenset(oddgray.enumerate_dyck(3)) - p.steep
    assert p == oddgray.partition(3) and hash(p) == hash(oddgray.partition(3))
    with pytest.raises(AttributeError):
        p.k = 4
