"""Byte-identity of the CLI output, pinned by SHA-256 digests.

The digests were recorded by running ``cli.main`` in-process into a
``StringIO``, before the splice switched from searching each tuple's
derivation to using the one its tree entry stores. Any change to the
emitted cycles, trees or renderings changes a digest; a speed-up must leave
every one of them as it is. The ``middle --family``, k = 10 and
``hamilton_odd`` digests were recorded later, before the splice switched
from an adjacency dict over every vertex to the splice-table walker. The
``factor`` and k = 9 ``subsets`` / ``delta`` digests were recorded before
output switched to blocks of table-rendered lines. The ``gen --k 10
--family 5``, ``middle --k 9 --family 21`` and ``tree --k 9 --family 14043``
digests were recorded before the tree build switched to packed entries and
the splice to direct placement of witness vertices. The ``tree --k 10``,
``tree --k 7 --family 3``, ``tree --k 10 --family 12345`` and ``selfcheck
--max-k 7`` digests were recorded before a built tree's derivations were
read back from its packed supports instead of replayed.
"""

import hashlib
import io

import pytest

from oddgray import cli, hamilton_odd

GOLDEN = {
    "gen --k 3 --format bits": "2cb1324da834c277d629b5ac2c831c8ae49920bf60d807cb899c2e8bf7b276ee",
    "gen --k 3 --format subsets": "c4750b42c0e85f06c818fcd5bab4dfa09b5eee4ce82b9d8491b494b19dcde199",
    "gen --k 3 --format delta": "4e4e4fc0f70c4344df20e55f2b2da01bb320632f4c9ca97afb74fa6b20d53d6a",
    "gen --k 4 --format bits": "56fa2bf8975347c1648e658f58b5fa3c599574d8a63fc402c10bcf7fbf8047ef",
    "gen --k 4 --format subsets": "62ad6d9b12fe61a57910b1d8d2fc5464e91806949b4a99c7c05c29b010694fa3",
    "gen --k 4 --format delta": "1571f08ef8fe5dd812fb57b01b19e95ae977afe3e7ff741c64dd112f54015aa0",
    "gen --k 5 --format bits": "8d1715038b39738d0fe1abd8598dfa5bb7551a8be5463fd7ab1cb9bf98659866",
    "gen --k 5 --format subsets": "005ae943888dd2d201aed35e3c6d5a9dfa95b141d352c0373de8bbc50ec0daa9",
    "gen --k 5 --format delta": "36c9a91e7d28b7cab17cc267ed186205546ae52b63f06074bab6659321b4b43f",
    "gen --k 6 --format bits": "ebad1fe821c561c67e624f9770604044c77c6acfbc481fddca104f8f65e893c8",
    "gen --k 6 --format subsets": "c36ebc8260a331267dd2688a0eced0181592be29d45c9d6cbf34286fbc927de5",
    "gen --k 6 --format delta": "2eab68705b28608b23efc5b524030c28cc9d92a7431e3f2c21b4609a406a79a2",
    "gen --k 7 --format bits": "f85b71b31725b9420d940dba58375dcccf511e9e29e00333117c14c7a5b2abe6",
    "gen --k 7 --format subsets": "afdb7be4833bd26b9350be0d82068d3247f4307ca4abefd982c6cf7493829f16",
    "gen --k 7 --format delta": "a64cf5fb6e88726b45e9b0c7721f6c4f71f30d3503edd6927c8469092fc4f2ad",
    "gen --k 8 --format bits": "fe9c50c47880a6bc1bfb5382b4fe6fcfd6648e3a5e180709a4eecc57f3f160f2",
    "gen --k 8 --format subsets": "e33c28df59509c68d174d22b7b079e3ce493295a16c47dd452c029a64ca4947f",
    "gen --k 8 --format delta": "c7ebab1f1ab2dddfa33688668fffda185eac6bb74149bc08cbbbb18306518ab9",
    "gen --k 9 --format bits": "f62da6d3415843fffd0405a4776db3590f2f215bb7c9479186da2a209406fc80",
    "middle --k 3": "a6b879a6143db670772233f8e18ba5a8c05955123366c9378e0cc7a6c06e9c04",
    "middle --k 4": "71a4b7994a7d2d0f14d9ea56bdc27cae0b78804e3b572d0619428937161af1dc",
    "middle --k 5": "4cc13335c8b33bfbb5169afcb80f0afdf5f217c221aa001b4be1623d72dee100",
    "middle --k 6": "e23626a86ada8b2f7a48f8f627bebe3e8708982643c9f20b7228a39bf6c5a3e2",
    "middle --k 7": "899b1a866e398bde0a5b2212f980dd2896335dbc09c26d5c0456bc0d1c2c69bc",
    "middle --k 8": "7e5c52230ec480261cce3044464cf1987331bc0a753ba1a96899436d08f510ef",
    "tree --k 3": "9684d63f96895aa48e972149d6a1c06c0343e6ccab384b14f48a09d3570a3b7e",
    "tree --k 4": "ac60bce4f24f67c4cfaac563ebd90d0542e5e3b9793ed988c345373bea6470c0",
    "tree --k 5": "24dace3982000047b9a91c4c392709def956346872bce758feb5fb82ad349405",
    "tree --k 6": "07a727dcc04cfb0ebd15c615f42e14ac9fcd74bbe4b41bc90dea535d6eb0bdb2",
    "tree --k 7": "fb793ae675d050080d9fef128ea693858f0b7149718080a76822d57320a89a10",
    "tree --k 8": "c2aa72c8e67ce73bcddbb82f6c1dd3c9aa6b2deca14f1d71ebb73aa10559a5cc",
    "gen --k 6 --family 0": "ebad1fe821c561c67e624f9770604044c77c6acfbc481fddca104f8f65e893c8",
    "gen --k 6 --family 1": "3ddde6be8e6a81c040c2b83da6bc1940e92f77f860bd7d5991675bd8432825c0",
    "gen --k 7 --family 0": "f85b71b31725b9420d940dba58375dcccf511e9e29e00333117c14c7a5b2abe6",
    "gen --k 7 --family 1": "9136c7407031045b1247f26ee5c8ba031993956ea109ab5e2b1d925c1ead12af",
    "gen --k 7 --family 2": "e9376cdd23ebfac5c95e50c3a7cd8e0c7f961186fef5c08edf7c3b5463196ac4",
    "gen --k 7 --family 3": "4618862695cfca94e4ccc2eb469da1eaf96c31e1ea3052abb3bbbb67010de0e6",
    "gen --k 8 --family 0": "fe9c50c47880a6bc1bfb5382b4fe6fcfd6648e3a5e180709a4eecc57f3f160f2",
    "gen --k 8 --family 21": "a207a45bc65add101d68a316bc79906dd8d294e06f2573c5414a2f28f195ff93",
    "gen --k 9 --family 1582": "88b05b10e153486bb0683fc693fddcae351644fb95f3f12d7b49beef7d280cf7",
    "middle --k 7 --family 3": "d78626c1c20a266b63dce6fbd6539be5b979db2460640372b86c4884b3fa32ee",
    "middle --k 8 --family 21": "7a0a1755d02c9c360f5f4f53c16e9f59ddbecdc9f06a4e903e0a542924c23b85",
    "gen --k 10 --format delta": "5eec05bc9366b084be5d8a8c5f529d2f86e57a76a8312cd12fd1a0076a8e0920",
    "gen --k 9 --format subsets": "b9108315d9361560fe0e0b084cf22e46fd352432a787df97f918c78101cd1094",
    "gen --k 9 --format delta": "4df69af684ce2e27f3319a0a2f5c608e2b36818e254dd47d9a8b18da4c1ccc3b",
    "factor --k 1": "cf850159070cdcea0b68ab4609cb60001059c99675ed6bb3cf7aa81d18fcb2da",
    "factor --k 2": "880ebe8634742f26c051abe25c664c38064a7887fbc04b841c14da910c640fdf",
    "factor --k 3": "157931cbb4ffe9c4c492bd6d8dc5243b32594f42316eb4bdc981ac44aeaac3f4",
    "factor --k 4": "ca899e677c8c1263985aa35823a67c3cf79fea6bffb3bfd6ec77fc6aa7e2aed0",
    "factor --k 5": "33e87f10d1300d13fcc364db0dc5263887ba5ff7add32f930197e8faa7cc9fb8",
    "factor --k 6": "2c6dbe7eb02738682a858f7f9cdde912347e2388b7a8fbdaa25bd0052c842ea9",
    "factor --k 7": "17be86fa29286d0b59a1662e2b5110c6ddecea1f9627632e845ab3f7bb291025",
    "gen --k 10 --family 5": "373196bf62065253225c167cb215b0e3080f889f7208cac789e3125d83b5c2b0",
    "middle --k 9 --family 21": "1dacfb97baa391ee7645dcb09a765b59a220a7501cdee9c4f247ca5d786e39a2",
    "tree --k 9 --family 14043": "0f8a0b182599b56598e6ba5b2af0ebbc3729c5e0fcf7062b2d791cdc1b55bb92",
    "tree --k 10": "29cc7babe368de7ce6976c5e432ef98bef81b21a9ac4f77cdab35b9aeaf215fc",
    "tree --k 7 --family 3": "5aedc8081ee0dca28d8667e620f7afb7df2b6d1f74dd723296067996ec0c72a1",
    "tree --k 10 --family 12345": "830d259336bdd0cf1971b011871937a58a36961c9150979366a2b028bf18871b",
    "selfcheck --max-k 7": "8254633926d1f93b61fe012c22ef18d152b7b7e67a157da747c8c25373268b30",
}

# hamilton_odd(8, mask).vertices, one comma-separated subset per line.
GOLDEN_ODD_CERTIFICATES = {
    5: "6f99e75d7b5c92cb04dbdfd126838b8f76f1c7f12fd4d132a721ccfe71585145",
    26: "00c58ea2e03ebc359132d7fb24057d84f911d29ec086c316b163531fbafaafae",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_output_digest(argv):
    out = io.StringIO()
    assert cli.main(argv.split(), out=out) == 0
    assert hashlib.sha256(out.getvalue().encode("ascii")).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("mask", list(GOLDEN_ODD_CERTIFICATES))
def test_odd_certificate_digest(mask):
    cert = hamilton_odd(8, mask)
    text = "".join(",".join(map(str, s)) + "\n" for s in cert.vertices)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_ODD_CERTIFICATES[mask]
