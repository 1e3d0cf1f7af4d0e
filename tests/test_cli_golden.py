"""Pinned sha256 digests of ``cli.run`` stdout.

Refactors of the lattice, orbifold and render layers must leave the CLI
output byte for byte unchanged; these digests were recorded before such a
refactor and catch any drift in labels, ordering, qdims, fusion rows or the
verification report.
"""

import hashlib
import json

import pytest

from permorb.cli import run

from conftest import GRAMS

GOLDEN = {
    ("a1", "modules"): "ae7dc0133eb2f5fe51b800d845197d040f2179aeb010265b40798823004ddd7e",
    ("a1", "qdims"): "59974e0180a291ee4cda88bcb570d3f710ca16bf8aefd75613b140ec1394079d",
    ("a1", "table --csv"): "8e7751ed6f58230307d2847f9d4a32ffe508f845673634c4e750888e97ba79f8",
    ("a1", "table"): "e3bd2404e90879b54674922305c57cd320b382c92141aaa0e9e456dd3653790a",
    ("a1", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("a2", "modules"): "4dc19807bd95eb4684396c0bb3e4eaa92e982d5992b0422199eb56c10aadfdc6",
    ("a2", "qdims"): "026fb6c23f2ce27915d17ffd2feb8a7ad8bab958534453d68b3a67823dcc1b55",
    ("a2", "table --csv"): "7542ed4afdd5cbb1eaa07193fcedb111708f4fe69a2fc95979ea5eaa2fd96ecb",
    ("a2", "table"): "8c57862b4056053da150a11f2487634167ca87a0ce9a71dd9fd408597b9a8814",
    ("a2", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("odd7", "modules"): "030dc5d5783a1105a7411b83cd6f415315db46f66bdaeefba30179221b1109d4",
    ("odd7", "qdims"): "98d301a68c287ae5edc947efa502a532e43639217b492317f13d4cf7777aa84b",
    ("odd7", "table --csv"): "772a815bce79b31c8b32a8cf0100e842ff52663441954933b4bfbe6d96dc2e2c",
    ("odd7", "table"): "8050df9a3dd30a70a6721238ad0e3c511393f6a04e8ccc60c659ca2744bc6c49",
    ("odd7", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("chain3", "modules"): "c8f08f03f308070f0df80c79bf8964c07c286ee34dc0b71022509c022d1155fe",
    ("chain3", "qdims"): "d7dd65b015a1183393456a2444463c1817dd9e91ada3816642e893353d1286a9",
    ("chain3", "table --csv"): "82094d3c257cadf5f7aa682a3a4ef33b6941e5fc762ab1929e0bb75ff252d865",
    ("chain3", "table"): "bc3ddd58492f1c8ec92c4dc1c4cfc46f8ad141b51a9c73ca3ca36b659b3058db",
    ("chain3", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("d4", "modules"): "deba0837fe4078270a9ea3b1f0b7085fa176e6cb26fa4f3fcfa34a232902a9e1",
    ("d4", "qdims"): "e67aef156a9ec12604affde1d9ea1056ad0d802cef4cb9256345cb2614819635",
    ("d4", "table --csv"): "54e9b9623ef280b9d0729878f79bbecfc8bffd27415b185ce29c976a04b89aea",
    ("d4", "table"): "875eec37f9b0b9e628a2a5b49a10d3dde443572750a49f5a0a8f898cbabd6115",
    ("d4", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("e8", "modules"): "5f79c5411ecd9ee3330b560994419cdab72acd619ba29d71950bf209f65cc7e3",
    ("e8", "qdims"): "35eaf5420deebe1c1732016bceecb1a35e51efd606d62b6b42ef54dcfa2ac354",
    ("e8", "table --csv"): "b0a2eced35d0acbb9247aaa01a5c13e844d1398484cc03728a14589dcba9c21f",
    ("e8", "table"): "dfbaeb5469a79f113442ac4de9039db5d3353e694f24d457092e1fba8b164b47",
    ("e8", "verify"): "911cb9c23d15905c1448229d6a266b45be244c8497099bbc0ddbf050beca3d44",
    ("scaled12", "table --csv"): "3e5a9ba0be9bfd440133c99b6ea5e106d28d5e699052bb10dfad4aaaa27df8a2",
}


@pytest.mark.parametrize("name,command", sorted(GOLDEN), ids=lambda v: v.replace(" ", ""))
def test_stdout_digest(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"gram": GRAMS[name][0]}))
    sub, *flags = command.split()
    assert run([sub, str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(name, command)]
