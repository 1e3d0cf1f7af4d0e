"""Pinned sha256 digests of ``cli.run`` stdout.

Refactors of the lattice, orbifold and render layers must leave the CLI
output byte for byte unchanged; these digests were recorded before such a
refactor and catch any drift in labels, ordering, qdims, fusion rows,
decompositions or the verification report, in text and ``--json`` form.
"""

import hashlib
import json
import random

import pytest

from permorb import cli, render
from permorb.cli import load_gram, run
from permorb.lattice import GramLattice, format_vector, validate_lattice
from permorb.orbifold import enumerate_modules

from conftest import GRAMS

EXTRA_GRAMS = {
    "z16": [[16]],
    "z2z4": [[2, 0], [0, 4]],
    "l180": [[4, 1, 0], [1, 6, 1], [0, 1, 8]],
    "z200": [[200]],
    "a1x6": [[2 if i == j else 0 for j in range(6)] for i in range(6)],
    "a3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "z1000": [[1000]],
}

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
    # --json documents, and fuse/decompose on fixed labels: the last Diag,
    # NonDiag and Twisted label of each lattice, and a Twisted label given by
    # a non-canonical representative
    ("a1", "modules --json"): "9341e58927380eb2d46f897e0089a607eeb17f3d5c501fe1225f45b670b24dbd",
    ("a1", "qdims --json"): "301d669bceef2a7e1910f71f4922d1d5635deac9703cbead4f4b9356a7038fb5",
    ("a1", "table --json"): "3c6904612c7d5a26ff7c8123005e0b280ca8445a5874c1bf9c7914e8f9ffdb2e",
    ("a1", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("a1", "fuse T(1/2;1) T(3/2;0)"): "fd2b48926f0347c9ed97d7ed215249e7aa21cf15f0eb42fb2d24f402d30a5e2e",
    ("a1", "fuse T(1/2;1) T(3/2;0) --json"): "d5198f8c4d254b27324035d49c266d36d20a1832e16de0b7b6214faa6e5398ab",
    ("a1", "fuse N(0,1/2) N(0,1/2)"): "a13d04f1084f031af136a11e121f75c7a0ed0423e9e6e7737b5323824097cf50",
    ("a1", "fuse N(0,1/2) N(0,1/2) --json"): "5b67c6f2ddb7d247c2904e754a98bc62dc8272f40d9a9626cc55e7d0daa71427",
    ("a1", "fuse N(0,1/2) T(3/2;0)"): "7e0b8a552af5cf9bca6b16f3bb0274b8b90218408a6609db3eb0bd67c562e7f5",
    ("a1", "fuse N(0,1/2) T(3/2;0) --json"): "05b638274877d3d36b6ccca27314d5e5ef495fbc07d5ede6d55d3724942524c9",
    ("a1", "decompose D(1/2;1)"): "c792459c7a45966a739ca690a8693078b15e6b87e23b8f007cf6198738bdd8a3",
    ("a1", "decompose D(1/2;1) --json"): "dfa30a145437129a1b2c1d255184f5e05cba4a303fada6cc7c0b37066a6a98ef",
    ("a1", "decompose N(0,1/2)"): "dc7072ad049bcb4e725f1869713a3f11d629fe3d93acec6ee0f02c5165b734ac",
    ("a1", "decompose N(0,1/2) --json"): "eca13ef57f8009d61df90991dbe53849dcf92298123474134e5cd9581c2c67dc",
    ("a1", "decompose T(3/2;0)"): "cbac6c64c0f0da134b8aafc4b0c6dd928f05125345d93cc056b0f0dae7932932",
    ("a1", "decompose T(3/2;0) --json"): "a631f74f8931bb68954ef44a7f83968c5ae1beacc9b733f94fd5af0440a39792",
    ("a2", "modules --json"): "5fdae1b979cbe58fafda5a6a73ee66d1947f874cb5851ac724ce534d177fe421",
    ("a2", "qdims --json"): "4efbe30453c4b867efcb5437654eb78dbf3dd502f957c0846d3bc2946412709b",
    ("a2", "table --json"): "c50d518e7bcfcb32f59ca9bea6dcca1fd7d81bea7b9b367cac553269afac58a1",
    ("a2", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("a2", "fuse T(2/3,4/3;1) T(5/3,4/3;0)"): "70a6f3822694b6e9b597d3c484e3ac8eb8d516ba951c026d91304919187ddc22",
    ("a2", "fuse T(2/3,4/3;1) T(5/3,4/3;0) --json"): "62c88013116ca9386b5ab6542af5d77b79491006cad175d3dc4f894dbecd0efc",
    ("a2", "fuse N(1/3,2/3,2/3,4/3) N(1/3,2/3,2/3,4/3)"): "41da14e7df94a1d47717897b1ac008ba84da7098229b54ce6d08fd36daa72e63",
    ("a2", "fuse N(1/3,2/3,2/3,4/3) N(1/3,2/3,2/3,4/3) --json"): "152c23c122fb25d9799ef88df377fb31c4b186fa7add060690b6b36d73100543",
    ("a2", "fuse N(1/3,2/3,2/3,4/3) T(5/3,4/3;0)"): "ffa0b3ed97bf698d07759492e3433a979778a752a082648bc9957cad899550c2",
    ("a2", "fuse N(1/3,2/3,2/3,4/3) T(5/3,4/3;0) --json"): "62364a911024dc407826a048c6e28c68a246788baea5bbfc8e93b53443f5f45c",
    ("a2", "decompose D(2/3,4/3;1)"): "7bbc2b3d30af007052e584043c640a525331e25edde379f28dddb8ab9efbc74c",
    ("a2", "decompose D(2/3,4/3;1) --json"): "b7973bc9f3104db95f87b973956b0e61db106eb1e84cfd7c7b4d26f85b9146bc",
    ("a2", "decompose N(1/3,2/3,2/3,4/3)"): "c2e81a607fedec0d9cfc226c69131be320c117249bbc6d0ef5c47ab3e0249d3c",
    ("a2", "decompose N(1/3,2/3,2/3,4/3) --json"): "6af51abbcf1ed2a4565c78f7f8788157cfe755d8faa730d294b4e4501beef61b",
    ("a2", "decompose T(5/3,4/3;0)"): "bab4798ef312f0852348a00320f80132efd966408c3b27a4da84c12bdcc98c99",
    ("a2", "decompose T(5/3,4/3;0) --json"): "5194e95e6f98bd28bd719fb2f18cd1322978c8ede91252c6575f555ca1104d95",
    ("odd7", "modules --json"): "14cc62601dc15da57edc15fc1522b2829f25ebbedecd687559b4d0e391c5d19b",
    ("odd7", "qdims --json"): "ddc70fb021993684b0fe02805f5dd72f9787cb33b9693c2d2e8392e286842447",
    ("odd7", "table --json"): "535746a91ca2d82c93e3df58aa10565a470ff103f2aea5e04ada10239ca576f0",
    ("odd7", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("odd7", "fuse T(6/7,-12/7;1) T(13/7,-12/7;0)"): "9ecea5a5646a098bf907276772aa90a43d6291a93bcbf1fd347a36b3bbc50790",
    ("odd7", "fuse T(6/7,-12/7;1) T(13/7,-12/7;0) --json"): "daed94a2eef377006337a448d4286815491d470b4fa26f6138c9d1d3d38cac47",
    ("odd7", "fuse N(5/7,-10/7,6/7,-12/7) N(5/7,-10/7,6/7,-12/7)"): "add8fc1623670a20d328be7679946ec258fffcb280e4b345d3ee296d80723b10",
    ("odd7", "fuse N(5/7,-10/7,6/7,-12/7) N(5/7,-10/7,6/7,-12/7) --json"): "c1a4b4448e2e8d215972c0c9cd1afa7feb26654d8249f62e69af0cd99c513224",
    ("odd7", "fuse N(5/7,-10/7,6/7,-12/7) T(13/7,-12/7;0)"): "ff007baf9d33ba7c49338791c7b7467f5a55e9ad796cff2b86d94b768a94b52a",
    ("odd7", "fuse N(5/7,-10/7,6/7,-12/7) T(13/7,-12/7;0) --json"): "4e74ae30be49d650c299ea70a0b51411dd4aa096a2e56f35a5d7b685e958a64a",
    ("odd7", "decompose D(6/7,-12/7;1)"): "e38a6afd1f1a3a69089776ae2e3086f6c0b05af9a288404b1cdc51e8af08ce0b",
    ("odd7", "decompose D(6/7,-12/7;1) --json"): "7c5571244bb4b84fb6360eef3450f83d76dd566414930f42f436965ceea27fec",
    ("odd7", "decompose N(5/7,-10/7,6/7,-12/7)"): "605454a21c9d17bb316d8d38c81a3ffbdf6e8c2287d3cdb107136ae918abfe4e",
    ("odd7", "decompose N(5/7,-10/7,6/7,-12/7) --json"): "3c6d953ec264142f9dbb5c0ee092df24f6014b6baa4da96a38a3b9fc463c7eba",
    ("odd7", "decompose T(13/7,-12/7;0)"): "28c1e766efd9ec7d1be7a5d2374224c2eea55209a5d24f6770142aede977ceae",
    ("odd7", "decompose T(13/7,-12/7;0) --json"): "301e6a2c418cccb490074fb355d5435ccb3d0ea39c0e0fc61bd832e6081b8872",
    ("chain3", "modules --json"): "de85bd2c3572f28aa384fafa08632413e79bff785c8834a1cf9452abed9b726b",
    ("chain3", "qdims --json"): "c6b8685b2a230dafdadc5d1ec5f005f1a005b03a16f3676860873ca7ab026334",
    ("chain3", "table --json"): "3cc5833d340752e1d489ac40214948fdeff99d66337eca40fa4cd8ee0077a11f",
    ("chain3", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("chain3", "fuse T(3/4,-3/2,9/4;1) T(7/4,-3/2,9/4;0)"): "084b0d7b96bf05d9164640e3c86fb533a6ba573ccd8d13a4f058cf394763d8a5",
    ("chain3", "fuse T(3/4,-3/2,9/4;1) T(7/4,-3/2,9/4;0) --json"): "8f7cb9a59a0ac50bbe87cf76d9806fa275411c7b406621c26fd7c76f5960679e",
    ("chain3", "fuse N(1/2,-1,3/2,3/4,-3/2,9/4) N(1/2,-1,3/2,3/4,-3/2,9/4)"): "d7c1574ddaaa17bfe05bcb6297513d3ddf4cf34c9fff1fb87f6b95372b925f53",
    ("chain3", "fuse N(1/2,-1,3/2,3/4,-3/2,9/4) N(1/2,-1,3/2,3/4,-3/2,9/4) --json"): "4ca3757346051002706d83a8882b31e01aea3485217ced6fe6dd9cbd701c500f",
    ("chain3", "fuse N(1/2,-1,3/2,3/4,-3/2,9/4) T(7/4,-3/2,9/4;0)"): "c35b07fc63737ab6215752e71645618422bd67e573718bc0e3ad7f9d13121f6c",
    ("chain3", "fuse N(1/2,-1,3/2,3/4,-3/2,9/4) T(7/4,-3/2,9/4;0) --json"): "a9745a254ad1725b208ca67e668f2940a5164d632f7ef93a4299b257351418a7",
    ("chain3", "decompose D(3/4,-3/2,9/4;1)"): "efacc8849b9bc044f4d8da57d56ddafddc45e8adba5ca2652266389c28e4687e",
    ("chain3", "decompose D(3/4,-3/2,9/4;1) --json"): "673e38e38eb165174bc6a95a35e09e90b8b361f96423bc47cdf514ce5db3a131",
    ("chain3", "decompose N(1/2,-1,3/2,3/4,-3/2,9/4)"): "5c648f3fb8fc58d4f76c0716ba779837654366af37a526a3a52f3aac2f374869",
    ("chain3", "decompose N(1/2,-1,3/2,3/4,-3/2,9/4) --json"): "2f2e5c3a03466c67b27d372672a3093bb5c105c9e06e1b5383a61386c38106fe",
    ("chain3", "decompose T(7/4,-3/2,9/4;0)"): "3cadd5e82c4dc2725b6f97b9eb217aa59dd1a6c21e19aa54a51ebc4d9159e35e",
    ("chain3", "decompose T(7/4,-3/2,9/4;0) --json"): "74ae71688333aaf602cf7d73af7c66df0d45c2e22ec4674800542aebfac1e6ba",
    ("d4", "modules --json"): "1c90d0f83d06847b83fff230de7cdc71b0d96b3f522148369e76a46a4bf2a723",
    ("d4", "qdims --json"): "67c00508bd7002d56f2eb020b84ab5d11452e6caa3b51976f6a9780a790cfe0c",
    ("d4", "table --json"): "d3a8cbc520a20fff8b4fe6645d55318341cf72f71d144f6996a5270e6fd0f850",
    ("d4", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("d4", "fuse T(1/2,0,1,3/2;1) T(3/2,0,1,3/2;0)"): "c8ec4335b9b167ec7e8a2fb323f600e66a075b70c9f16887405ae9346f8886ed",
    ("d4", "fuse T(1/2,0,1,3/2;1) T(3/2,0,1,3/2;0) --json"): "3ebf6e5e2379006820502e9fa325ff9cbbe6acff90282a686745ca5b5eb8f32d",
    ("d4", "fuse N(0,-1/2,0,1/2,1/2,0,1,3/2) N(0,-1/2,0,1/2,1/2,0,1,3/2)"): "a86fb2cc659194739cbef988ee80125a7fec351a8447bcda24b53dfbcd9addd1",
    ("d4", "fuse N(0,-1/2,0,1/2,1/2,0,1,3/2) N(0,-1/2,0,1/2,1/2,0,1,3/2) --json"): "785dea62fd27e3c9bbbaa20995161a3998a89fa7220293a5eabb59adf2403eaa",
    ("d4", "fuse N(0,-1/2,0,1/2,1/2,0,1,3/2) T(3/2,0,1,3/2;0)"): "2b5ab09a7468ab4bd3a84a1eb7f0d66ce6bf9e7b82bd45b6e668493db60491c2",
    ("d4", "fuse N(0,-1/2,0,1/2,1/2,0,1,3/2) T(3/2,0,1,3/2;0) --json"): "6d74150625a5e358b02958ebbf93e7c1389cec7c541272c9269a9ff5c43ab0a8",
    ("d4", "decompose D(1/2,0,1,3/2;1)"): "94d58b21803a451b9ecbe91d8aaf078049d29694252954b556a4e04676d5fbce",
    ("d4", "decompose D(1/2,0,1,3/2;1) --json"): "17c840727a90b2ec09d2ea89164f71d4dc962a57f46fb67cf86be6bd59c3b11d",
    ("d4", "decompose N(0,-1/2,0,1/2,1/2,0,1,3/2)"): "f4c19a08f6b448a572d42306b577f0ee4e46241345dc0e343269cab3ef98f40a",
    ("d4", "decompose N(0,-1/2,0,1/2,1/2,0,1,3/2) --json"): "f0de50436001eb16ae7d9d37cb6ebd31b14f24f2ccd904fa3e75dcd8b46c89be",
    ("d4", "decompose T(3/2,0,1,3/2;0)"): "57819db3dd48f61b6054d170818bf92804dafa77f6da3380b518e2dc95a4527a",
    ("d4", "decompose T(3/2,0,1,3/2;0) --json"): "713e2aa3122db8b2553c7be2afe35ca678e730f2120838e3ed0e12d459d5bc2e",
    ("e8", "modules --json"): "a18d607f216cb99bd59864c9ac9cf91131f7cf5b51410fdd101814578ffdfbb5",
    ("e8", "qdims --json"): "c2fefe77798ffbcc827d017f2403f08be28f0d72256934ff5dcc65c6ef35d81e",
    ("e8", "table --json"): "596674046fc84645c06dc32c9732b1a4bb8797db593ee082f5e431b0e7cba530",
    ("e8", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("e8", "fuse T(0,0,0,0,0,0,0,0;1) T(1,0,0,0,0,0,0,0;0)"): "34e9b22082d990e674bfd0a9d96064873a51553467a3a11b286239c46169e9e2",
    ("e8", "fuse T(0,0,0,0,0,0,0,0;1) T(1,0,0,0,0,0,0,0;0) --json"): "06023449fcd1a5a0a2965d416f9e3f29f41c7314d0ce1142426012c905c761c2",
    ("e8", "fuse D(0,0,0,0,0,0,0,0;1) T(1,0,0,0,0,0,0,0;0)"): "64a42c513a7de586c65007fc83b8d84b896fc3d9e252c691ada3b2f925083463",
    ("e8", "fuse D(0,0,0,0,0,0,0,0;1) T(1,0,0,0,0,0,0,0;0) --json"): "47a3ccc31951f656d15ff393ddd52919eb5b12c3a5c3c0a1c66a676ff8a47270",
    ("e8", "decompose D(0,0,0,0,0,0,0,0;1)"): "864ea05a188f93da2d36f18098e1b55cc9e71dffc5f567c037e3b8eb27c3810e",
    ("e8", "decompose D(0,0,0,0,0,0,0,0;1) --json"): "f2adc363de1219f5e9e495da9ddeaef6023046e84f33f2e434adc68817421b6e",
    ("e8", "decompose T(1,0,0,0,0,0,0,0;0)"): "410e39017297f91dd34b4c580ef63ddb11089e3e226fbc811ed0b16b0b0447f2",
    ("e8", "decompose T(1,0,0,0,0,0,0,0;0) --json"): "9a977b409a167dbaa19d42b0ada39d1351a68daaaeedbb35ab720050f9a45512",
    # lattices with two different even divisors (a1sq: 2,2; z2z4: 2,4), a
    # non-identity Smith basis (l180) and l = 200: fuse on every kind pair,
    # with twisted labels also given by a representative whose first
    # coordinate is shifted by 3, and decompose; table and verify on the two
    # small lattices
    ("a1sq", "fuse D(0,1/2;1) D(1/2,1/2;0)"): "a5c9844ad5130b7b23b67dd2e3faec6544f3bcc12849c68cbecc8110899b41ed",
    ("a1sq", "fuse D(0,1/2;1) D(1/2,1/2;0) --json"): "57291cb27981a187eb6a1fec190f3e7bcfb00ffaa4a0358107e726a2fcb1af48",
    ("a1sq", "fuse D(0,1/2;1) N(0,1/2,1/2,1/2)"): "69b469982f0215b5374d4411acf69c6954e5aad6265d3717374eb7164045ce1a",
    ("a1sq", "fuse D(0,1/2;1) N(0,1/2,1/2,1/2) --json"): "6d86280fd445f439eedc864de82b4cdd194bcf757e1e6981e4ddae752ff9daf2",
    ("a1sq", "fuse D(0,1/2;1) T(7/2,1/2;0)"): "424c04dd8523df3a07d6c001a8be981e6b6592117312ac7ed53c6fe60df25544",
    ("a1sq", "fuse D(0,1/2;1) T(7/2,1/2;0) --json"): "a0ce6bd09b01277394b8d8708e5ffbd71b9e7d6b1e389b565c2e0612ad781edf",
    ("a1sq", "fuse N(0,1/2,1/2,1/2) N(1/2,0,1/2,1/2)"): "f9fbe970965477f552220de0b53edf18944c2a47e8bb4de5ae41441b2142902e",
    ("a1sq", "fuse N(0,1/2,1/2,1/2) N(1/2,0,1/2,1/2) --json"): "162f2709e41cec3312c13c133f6166b6045e20af4ce633751e7f3056b38982e1",
    ("a1sq", "fuse N(0,1/2,1/2,1/2) T(7/2,1/2;0)"): "4d54dca6f1395108539f677ecc7f15b00d951ff3c8bd1046c0d6022b33ad8d4e",
    ("a1sq", "fuse N(0,1/2,1/2,1/2) T(7/2,1/2;0) --json"): "2d9451e760c42d3da1a8fdd77fa6d719424756c08bf18d113850e5f69c2c0537",
    ("a1sq", "fuse T(1/2,1/2;0) T(3,1/2;1)"): "4697547d3b20f3332deaa057f8545dbc94f393d46cf42b0240490faa65e7a0e2",
    ("a1sq", "fuse T(1/2,1/2;0) T(3,1/2;1) --json"): "c73738aedbf096cf6f88f1d969c98a89ef50f7e63d31933fa7d919cbbc9bef00",
    ("a1sq", "fuse T(7/2,1/2;0) T(0,1/2;1)"): "4697547d3b20f3332deaa057f8545dbc94f393d46cf42b0240490faa65e7a0e2",
    ("a1sq", "fuse T(7/2,1/2;0) T(0,1/2;1) --json"): "4726acd81c28b154e56de8997974a3c5b4e64533565493b92cba16f75385e24d",
    ("a1sq", "fuse T(7/2,1/2;0) T(3,1/2;1)"): "4697547d3b20f3332deaa057f8545dbc94f393d46cf42b0240490faa65e7a0e2",
    ("a1sq", "fuse T(7/2,1/2;0) T(3,1/2;1) --json"): "c73738aedbf096cf6f88f1d969c98a89ef50f7e63d31933fa7d919cbbc9bef00",
    ("a1sq", "decompose D(0,1/2;1)"): "3452db9008d6e230ab4b2e4e5f0fb97d873737a2076c93c9e398ff47bf39ff7b",
    ("a1sq", "decompose D(0,1/2;1) --json"): "3dcdb78f885e44004e407169e049b2bc759d0123d214e23acb5fc81d4cd17929",
    ("a1sq", "decompose N(0,1/2,1/2,1/2)"): "a9df2a49017c0207122624ac7a1ad9913afe5abe3b9276e288ef54c74be124ca",
    ("a1sq", "decompose N(0,1/2,1/2,1/2) --json"): "3665af463e11682e228067a8603c5df07a6585221d9f20b1dea0aa425832f299",
    ("a1sq", "decompose T(1/2,1/2;0)"): "c1412988eee090bf5059863bd5c881904b36ec11855692a0e50a90fa6fa3d9e6",
    ("a1sq", "decompose T(1/2,1/2;0) --json"): "7955ad3770796ce1161725fa7f086aee56e78b6057b0bb3f5ac1258ff10483da",
    ("a1sq", "decompose T(3,1/2;1)"): "eaf6f127946b54efdcd97c85870aa542f886b44d27166ec1c9b023af9f694349",
    ("a1sq", "decompose T(3,1/2;1) --json"): "731ece2a66bef4c41ab1e9bfd195d21256a6aab46436751c9f7fcea7758213b9",
    ("a1sq", "table --csv"): "e7d724d110009f23ed0e36482518825446203cbe1a6ae6d4abc2c3616ea221a9",
    ("a1sq", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("z2z4", "fuse D(0,1/4;1) D(1/2,3/4;0)"): "a5c9844ad5130b7b23b67dd2e3faec6544f3bcc12849c68cbecc8110899b41ed",
    ("z2z4", "fuse D(0,1/4;1) D(1/2,3/4;0) --json"): "15dceea80497ec1f3acc62c0f1e6b0e135e719a5fa310810f5d9bcabcf1d8ff4",
    ("z2z4", "fuse D(0,1/4;1) N(0,1/4,1/2,3/4)"): "46f967861093703966b4f3fd6a5832aa60034d4a23a1e9a39d8f90c031083e19",
    ("z2z4", "fuse D(0,1/4;1) N(0,1/4,1/2,3/4) --json"): "d5e0d25ffedb8e62a3fcbb4c1b903090685daa77daf3617a53cc3e885fd9cf9f",
    ("z2z4", "fuse D(0,1/4;1) T(7/2,3/4;0)"): "ead3fe32ab3a785218d510aedf8bf8c34e7b3cc50c1919c6822d17f404a8aee7",
    ("z2z4", "fuse D(0,1/4;1) T(7/2,3/4;0) --json"): "e58d9b8a2e52ceca3cb01a26390008c5e20fecb0f7490cd5ddcb941a220d93a4",
    ("z2z4", "fuse N(0,1/4,1/2,3/4) N(0,1/2,1/2,1/4)"): "e65efaeb81c7499ab3632ed262bbd0c43cdd66f6c4f4fcf0bc24a80d28ee1829",
    ("z2z4", "fuse N(0,1/4,1/2,3/4) N(0,1/2,1/2,1/4) --json"): "54656dbb45c4cf28cae14a6b8eddc3ae9aa7e84a8b8a9f203fd79bd26b11a0cd",
    ("z2z4", "fuse N(0,1/4,1/2,3/4) T(7/2,3/4;0)"): "1409e8fcb263ce17be22d6f95392a34d500a9b78a7c6da4b460da207f544f00f",
    ("z2z4", "fuse N(0,1/4,1/2,3/4) T(7/2,3/4;0) --json"): "310073ade568b7b32a72128f16dcc4f77d55a8e7cce6a90e7dd823a784fa96af",
    ("z2z4", "fuse T(1/2,3/4;0) T(3,1/4;1)"): "9e155156381f598f43aa9b5a0f7cd5fa832953f95524fa772ec7fa4e1f14139e",
    ("z2z4", "fuse T(1/2,3/4;0) T(3,1/4;1) --json"): "0d76d399e286bfe1d8b662cce8370c2574783d525fb98206736b8dc8f80e0e7f",
    ("z2z4", "fuse T(7/2,3/4;0) T(0,1/4;1)"): "9e155156381f598f43aa9b5a0f7cd5fa832953f95524fa772ec7fa4e1f14139e",
    ("z2z4", "fuse T(7/2,3/4;0) T(0,1/4;1) --json"): "ac1ebb1f06a5176cea435e1e66d5d629e15772528ba03e44290e0a7559db3804",
    ("z2z4", "fuse T(7/2,3/4;0) T(3,1/4;1)"): "9e155156381f598f43aa9b5a0f7cd5fa832953f95524fa772ec7fa4e1f14139e",
    ("z2z4", "fuse T(7/2,3/4;0) T(3,1/4;1) --json"): "0d76d399e286bfe1d8b662cce8370c2574783d525fb98206736b8dc8f80e0e7f",
    ("z2z4", "decompose D(0,1/4;1)"): "07985a0258b04dcd5c9b36816f31a5b4647fd8cc9891f0a0aa1314be54125b88",
    ("z2z4", "decompose D(0,1/4;1) --json"): "ceb5c9c76802d7cdb321842979aa2a7227275e22192d885e8aaa408426884c6d",
    ("z2z4", "decompose N(0,1/4,1/2,3/4)"): "2e2995f3504e007f76b6922ffd65bc3d6e80439df9ae59d1a2706600035cc2cf",
    ("z2z4", "decompose N(0,1/4,1/2,3/4) --json"): "7a59a4bc539a87cc61cd8cdf3d7b9ef33dbbd8425e4b8da1d1b24eff1f7df9c8",
    ("z2z4", "decompose T(1/2,3/4;0)"): "fbb84007b155c34675e439046295d28a03485e81542c75bad8d99ca883303fc9",
    ("z2z4", "decompose T(1/2,3/4;0) --json"): "153ebe77df55bc5c9a1246d260b55d5397de8fb21a37f6082cdc6be3b18e9b05",
    ("z2z4", "decompose T(3,1/4;1)"): "161b815c5291a2128b94368184b30d145a34c339b6eca203f087037eec3c5e08",
    ("z2z4", "decompose T(3,1/4;1) --json"): "3c26d05f3d25e379732d371b55c08d3254abb3db4a5f6dba3c65378feb572f83",
    ("z2z4", "table --csv"): "688c27573dae7dd456a1ebc14ace9ec9a90ce3f246602563723c9dcdd9eec39f",
    ("z2z4", "verify --json"): "35453079ed76a3dd421a202e28b078cecf8618acff00dae6b17a407c77d8ba13",
    ("l180", "fuse D(1/180,-1/45,23/180;1) D(179/180,-179/45,4117/180;0)"): "2be8c0cfc9ebaae57f64d733c29036394f76671c0f720a2400677a30aa5d2936",
    ("l180", "fuse D(1/180,-1/45,23/180;1) D(179/180,-179/45,4117/180;0) --json"): "4a835498ec142b1d51234025bd922d5a9ad7ff7b3bd00df1e37e822f4a3c1288",
    ("l180", "fuse D(1/180,-1/45,23/180;1) N(1/180,-1/45,23/180,179/180,-179/45,4117/180)"): "88c8a7df5e539cf777aaadcc8c3222676ddf421febf7f88a04341957a7632030",
    ("l180", "fuse D(1/180,-1/45,23/180;1) N(1/180,-1/45,23/180,179/180,-179/45,4117/180) --json"): "2407cba4b8acc5062f27994e15c94aff01fc1cc5c015fb6aebc87bda0f6d01c2",
    ("l180", "fuse D(1/180,-1/45,23/180;1) T(719/180,-179/45,4117/180;0)"): "64bde8812cf492815b4188201e4facea30d83faf4d3593633dd443daa5dd8d41",
    ("l180", "fuse D(1/180,-1/45,23/180;1) T(719/180,-179/45,4117/180;0) --json"): "47ad1faa8c2f8cbd247e2b119da4e16b396843c917ae3f5822e9c71ada48277f",
    ("l180", "fuse N(1/180,-1/45,23/180,179/180,-179/45,4117/180) N(1/90,-2/45,23/90,91/180,-91/45,2093/180)"): "aab54224a75e715056834e4e613569bc7a49c852583cb7638f9eed75690494dc",
    ("l180", "fuse N(1/180,-1/45,23/180,179/180,-179/45,4117/180) N(1/90,-2/45,23/90,91/180,-91/45,2093/180) --json"): "c2039379b0d6cda99d406019cf419d36185ab5abd5d4c972e554b63267a9a7ea",
    ("l180", "fuse N(1/180,-1/45,23/180,179/180,-179/45,4117/180) T(719/180,-179/45,4117/180;0)"): "3430facfbe69a85ac493c2ef7055e8800637a5e74b47eb53405328946c30449e",
    ("l180", "fuse N(1/180,-1/45,23/180,179/180,-179/45,4117/180) T(719/180,-179/45,4117/180;0) --json"): "49eff68a2ad8bb87f37641e7d1958cf259b331c6c659b7fdadc912ab74cda731",
    ("l180", "fuse T(179/180,-179/45,4117/180;0) T(541/180,-1/45,23/180;1)"): "c1191a1359759a271f997955d38d72db1b83ef9a46c34f5ad00d17edc589afc6",
    ("l180", "fuse T(179/180,-179/45,4117/180;0) T(541/180,-1/45,23/180;1) --json"): "7f1de28869d490c3b330c32483d01feeea7d0c219cff298449df1cb9c4586d2b",
    ("l180", "fuse T(719/180,-179/45,4117/180;0) T(1/180,-1/45,23/180;1)"): "c1191a1359759a271f997955d38d72db1b83ef9a46c34f5ad00d17edc589afc6",
    ("l180", "fuse T(719/180,-179/45,4117/180;0) T(1/180,-1/45,23/180;1) --json"): "7f1de28869d490c3b330c32483d01feeea7d0c219cff298449df1cb9c4586d2b",
    ("l180", "fuse T(719/180,-179/45,4117/180;0) T(541/180,-1/45,23/180;1)"): "c1191a1359759a271f997955d38d72db1b83ef9a46c34f5ad00d17edc589afc6",
    ("l180", "fuse T(719/180,-179/45,4117/180;0) T(541/180,-1/45,23/180;1) --json"): "7f1de28869d490c3b330c32483d01feeea7d0c219cff298449df1cb9c4586d2b",
    ("l180", "decompose D(1/180,-1/45,23/180;1)"): "60e25cf235a54a719396c413904ed56a6065b0aa4deb84b80f42766c0446a0d9",
    ("l180", "decompose D(1/180,-1/45,23/180;1) --json"): "83dd2c540c7f69fa7fb0ad6cae91577c43a6375946d78e25529a967e9cf45daa",
    ("l180", "decompose N(1/180,-1/45,23/180,179/180,-179/45,4117/180)"): "6137a798aa1f9705fcede7b4a3a8175b75ebdf780e9bead8f66d48360cbf7561",
    ("l180", "decompose N(1/180,-1/45,23/180,179/180,-179/45,4117/180) --json"): "c481905fc52af8b07ab06967989c9d3343a52837698977fb49365bb7f851daed",
    ("l180", "decompose T(179/180,-179/45,4117/180;0)"): "64092be27fc8e743a8b026fcdcaffcf7eed4fe0df44b61d1adc3ae3bbcb801d2",
    ("l180", "decompose T(179/180,-179/45,4117/180;0) --json"): "7e21d8de2c4b1c96eab9d4e8669164e3568f8b332c8a796780abcff2c160c3fb",
    ("l180", "decompose T(541/180,-1/45,23/180;1)"): "3928e161fcca3ebc7a21ba0f98cb39e0b3975b506cc1dae662d08a222f6d6e0a",
    ("l180", "decompose T(541/180,-1/45,23/180;1) --json"): "0c6d401ebdda15b19ed0ca57d97f5912505988dec6286e49c3acc99bf9dee93e",
    ("z200", "fuse D(1/200;1) D(199/200;0)"): "0c6af72fd03cd8af985b4e6dad9110474577292f5fef2e3055799db4dd0e04a6",
    ("z200", "fuse D(1/200;1) D(199/200;0) --json"): "f62084c350e511f5bfc9539cc01dcf257983fbe3bfdeef4590882229bb5f25be",
    ("z200", "fuse D(1/200;1) N(1/200,199/200)"): "92b77f6ad1905039af906ef71eab5aafff17ca6d6fe0aa8cf6693d73472c08dc",
    ("z200", "fuse D(1/200;1) N(1/200,199/200) --json"): "b23c1bf662666dd47ed5272e9feef237995793cb43bbb524281a78a6e660c7a6",
    ("z200", "fuse D(1/200;1) T(799/200;0)"): "084e64b2a50454cb23a925ad898a8dbfc51a687a003cdad777d821f653811f2b",
    ("z200", "fuse D(1/200;1) T(799/200;0) --json"): "4a6da38478d67ff476a8a3681801da81d10c7063569866cee6b2a10109527e5d",
    ("z200", "fuse N(1/200,199/200) N(1/100,101/200)"): "3fef2df752ada58b0abc0f666e9d65b611959e251da2b4cda39e4c6ebd61a853",
    ("z200", "fuse N(1/200,199/200) N(1/100,101/200) --json"): "ea66aa5bfe7853c39382c3ff2d4a8c99cd33d87ad3ee04d4cabbbdd14b59a82a",
    ("z200", "fuse N(1/200,199/200) T(799/200;0)"): "f0b84ebb48a3b21249710347f2bba869862cae034bdcd4b3a1634dd02ba7a0f2",
    ("z200", "fuse N(1/200,199/200) T(799/200;0) --json"): "133c335fd9c71a14da71c448a6b3faa6721932209fd4afac91da19b8f15853f7",
    ("z200", "fuse T(199/200;0) T(601/200;1)"): "c5159dcb269b583edb34030c82314fcd30806a4688de95fe3bb322fbfba69830",
    ("z200", "fuse T(199/200;0) T(601/200;1) --json"): "b9406aefffbd2e719c187424f0626975d0ea9e3225fe9d9e2b452950578793da",
    ("z200", "fuse T(799/200;0) T(1/200;1)"): "c5159dcb269b583edb34030c82314fcd30806a4688de95fe3bb322fbfba69830",
    ("z200", "fuse T(799/200;0) T(1/200;1) --json"): "92d85aabd66a9f74cb8e434755cf007a28e08114bd3f33cfddf00708edbccd91",
    ("z200", "fuse T(799/200;0) T(601/200;1)"): "255bd365d6c0b929ca9354fa845d5ed9683cbc8bb66876ac51c31ded9bcece23",
    ("z200", "fuse T(799/200;0) T(601/200;1) --json"): "648843142eb5b1be5776a394876e85e1395abcdff9378198b979cbb9563c9a74",
    ("z200", "decompose D(1/200;1)"): "64cb588d9bed4e8929d09e3f463e104da8ae66ff41b8ca4691855ecf86f5be33",
    ("z200", "decompose D(1/200;1) --json"): "488d037011812484e9480989f883a5a2a42df716a429d9ab42291768932b8016",
    ("z200", "decompose N(1/200,199/200)"): "bfbc4660c488abb8d2b3af8da54acf65f358a17c1f240cc7f4670cdf0ea2b0bb",
    ("z200", "decompose N(1/200,199/200) --json"): "96f71db606301c2578bc962626cc2a146cd7e143dcf5420c33712d01fa6305dc",
    ("z200", "decompose T(199/200;0)"): "c3c2a1de3c4e469b62112f718c0a11128a980e7be23ee6f7711f9c573d379711",
    ("z200", "decompose T(199/200;0) --json"): "d91b5de58ebc88edf3b4b52034b7a49e8d1cc19bae7b447553760a800e3ade01",
    ("z200", "decompose T(601/200;1)"): "9b7d9fc28840e6a009a91d1fb33561c31d9a3306e87a7f0af72c385e61aebb8c",
    ("z200", "decompose T(601/200;1) --json"): "75e30a26b37d561e8063bce7079d6ecefb4805db0fb39b4a9d83e41060da5724",
    # decompose on the last Diag, NonDiag and Twisted label of a1x6 (rank 6,
    # l = 64, six even divisors), a3 (odd cross terms, divisors 1,1,4), a1cube
    # and z1000, each also written with a non-canonical representative: the
    # first coordinate shifted by 3 and the last by -1, the NonDiag pair
    # swapped, the parity of Diag and Twisted labels flipped
    ("a1x6", "decompose D(1/2,1/2,1/2,1/2,1/2,1/2;1)"): "3142d838ea5f252bb7a4b77a5d92e7366a0869e8b13c0ac624579f8d88033660",
    ("a1x6", "decompose D(1/2,1/2,1/2,1/2,1/2,1/2;1) --json"): "7e622c2773fcef38e9539af6375b9ad77baa6f149fcec7094b158617577a9f3a",
    ("a1x6", "decompose D(7/2,1/2,1/2,1/2,1/2,-1/2;0)"): "eb8640113dc846f0d7c2508b60d59620d6f1ca677627881327ff71df74d91e58",
    ("a1x6", "decompose D(7/2,1/2,1/2,1/2,1/2,-1/2;0) --json"): "98e197212245d2cb674e8c7e93f1062a00f5dcbf74206848b8dbe637ab35cc8e",
    ("a1x6", "decompose N(1/2,1/2,1/2,1/2,1/2,0,1/2,1/2,1/2,1/2,1/2,1/2)"): "b1c5906bd00d2ae7e5d7e3fc619fe621372b2ddcfb6293e0ebaa6c23a0c9197d",
    ("a1x6", "decompose N(1/2,1/2,1/2,1/2,1/2,0,1/2,1/2,1/2,1/2,1/2,1/2) --json"): "fbf15b11d69e5de936cfe965ec2aefff68fee88e82a54721a76795f549bd7a51",
    ("a1x6", "decompose N(7/2,1/2,1/2,1/2,1/2,-1/2,7/2,1/2,1/2,1/2,1/2,-1)"): "b1c5906bd00d2ae7e5d7e3fc619fe621372b2ddcfb6293e0ebaa6c23a0c9197d",
    ("a1x6", "decompose N(7/2,1/2,1/2,1/2,1/2,-1/2,7/2,1/2,1/2,1/2,1/2,-1) --json"): "fbf15b11d69e5de936cfe965ec2aefff68fee88e82a54721a76795f549bd7a51",
    ("a1x6", "decompose T(1/2,1/2,1/2,1/2,1/2,1/2;1)"): "394b07e0ca1af3f002ed9d4fd0e2eaf5e28264f49b88c42bcd027507dc1ead97",
    ("a1x6", "decompose T(1/2,1/2,1/2,1/2,1/2,1/2;1) --json"): "aee027679223ed364f92017d5c70afba5d25df7ecbf6903bd1cee5630244d6d9",
    ("a1x6", "decompose T(7/2,1/2,1/2,1/2,1/2,-1/2;0)"): "4018940ab85931a8193430cc9a4effd4e2cbbb560d9bbeaf2205b765d073caf1",
    ("a1x6", "decompose T(7/2,1/2,1/2,1/2,1/2,-1/2;0) --json"): "f45ec985525fd9156f79f201ae607faad9430619977fae4c8c6bef85a313833d",
    ("a3", "decompose D(3/4,3/2,9/4;1)"): "21fc84e8f393ca5e0dabd789591f5bd0b486b130b5590512948c58faef6ee1e2",
    ("a3", "decompose D(3/4,3/2,9/4;1) --json"): "b94a20b3c816dc3aac8ae04f5487719af711ce3846abb58317fcfcf081df237f",
    ("a3", "decompose D(15/4,3/2,5/4;0)"): "6348e6b484e649faeb25ef215e06238998fe5af7ebda3d5f2b6d01b7fbadbe36",
    ("a3", "decompose D(15/4,3/2,5/4;0) --json"): "3d9132933de223b0b2a9f94613af48ac10466ced6fa120cdadbf63f8fc4e3fb3",
    ("a3", "decompose N(1/2,1,3/2,3/4,3/2,9/4)"): "db1a189b752e744febe227d34b757bdf34f155eeb78984f0d2d3ef35b62f3a46",
    ("a3", "decompose N(1/2,1,3/2,3/4,3/2,9/4) --json"): "82731aa153d700f5042b12d2f25d9342686da27d35208b28feaff173c35b2df9",
    ("a3", "decompose N(15/4,3/2,5/4,7/2,1,1/2)"): "db1a189b752e744febe227d34b757bdf34f155eeb78984f0d2d3ef35b62f3a46",
    ("a3", "decompose N(15/4,3/2,5/4,7/2,1,1/2) --json"): "82731aa153d700f5042b12d2f25d9342686da27d35208b28feaff173c35b2df9",
    ("a3", "decompose T(3/4,3/2,9/4;1)"): "673cbe9ba2a2c3be225024b7273b5ba1e243a98e483eb7831153805b19ce107e",
    ("a3", "decompose T(3/4,3/2,9/4;1) --json"): "961cdd81c9776036cfaab9ed40528f73f7ce68292d7472c9bc76a2d38bf63810",
    ("a3", "decompose T(15/4,3/2,5/4;0)"): "673cbe9ba2a2c3be225024b7273b5ba1e243a98e483eb7831153805b19ce107e",
    ("a3", "decompose T(15/4,3/2,5/4;0) --json"): "961cdd81c9776036cfaab9ed40528f73f7ce68292d7472c9bc76a2d38bf63810",
    ("a1cube", "decompose D(1/2,1/2,1/2;1)"): "55ac9724269d9e030717d6527e5a4d42eaca72aed6c3a637fccc15ff214e3488",
    ("a1cube", "decompose D(1/2,1/2,1/2;1) --json"): "2451e4b26b1cf0c3c149227476b31de5ca4fc538e7cb4bd3fc27e2653682e73d",
    ("a1cube", "decompose D(7/2,1/2,-1/2;0)"): "e624dee5d5361fa82b6ec8284a53668630eb29ed7d23bb7d756033ffb4e0696f",
    ("a1cube", "decompose D(7/2,1/2,-1/2;0) --json"): "a6e24a348c8aba746426ff021e5c8e5662f6decfda8fda23e529814bf0ab9f61",
    ("a1cube", "decompose N(1/2,1/2,0,1/2,1/2,1/2)"): "d18ca4f9e75485201b6df60c923f3e79e36cfffacbd8017fe9995cd1bf9ecdf5",
    ("a1cube", "decompose N(1/2,1/2,0,1/2,1/2,1/2) --json"): "aa17d10c9ac768175fe97d900a86bd92d2b7c78ddb9b68000c27dfdbe7947501",
    ("a1cube", "decompose N(7/2,1/2,-1/2,7/2,1/2,-1)"): "d18ca4f9e75485201b6df60c923f3e79e36cfffacbd8017fe9995cd1bf9ecdf5",
    ("a1cube", "decompose N(7/2,1/2,-1/2,7/2,1/2,-1) --json"): "aa17d10c9ac768175fe97d900a86bd92d2b7c78ddb9b68000c27dfdbe7947501",
    ("a1cube", "decompose T(1/2,1/2,1/2;1)"): "0377f55ff4df037ecc5a165b5971f10b09b98d6b95d7c5564595554b64a785c3",
    ("a1cube", "decompose T(1/2,1/2,1/2;1) --json"): "7dd3c9d314399d58ab0aa5dd07afc5797b1e829c7572a93b7d76c12bf47ee849",
    ("a1cube", "decompose T(7/2,1/2,-1/2;0)"): "f3f8749b9bf9e8ec0caee7dbc423ebcf62b86b6c2e37cf7c0f066d47398a3182",
    ("a1cube", "decompose T(7/2,1/2,-1/2;0) --json"): "ab4cff385e7b4ada26bb50936ffa0af06aa6260f30e3dcb3e9f9fc939394f958",
    ("z1000", "decompose D(999/1000;1)"): "d00f05795b7aa60184ca5c43b5f5627a3fa06bff1425d1d02785cb7052d9aaac",
    ("z1000", "decompose D(999/1000;1) --json"): "05a88511719e3827e4d0e9b6116f77c0109d770d3e1883f65b57a1c6bfb24131",
    ("z1000", "decompose D(3999/1000;0)"): "e54bbed864b62c8ee89f4090df9b139a96b8ab64539a5cf24262d927fc180fdc",
    ("z1000", "decompose D(3999/1000;0) --json"): "138d7b73190415423c779637557d8be470d5f29802d1ec6ddde969260a55d38f",
    ("z1000", "decompose N(499/500,999/1000)"): "0b0296b157fbfd2c222dee5ceb13dabbd1c0ae61e35e987f8953ad315284f314",
    ("z1000", "decompose N(499/500,999/1000) --json"): "8aff509bb0a29ec0d6a437f35754015ca46bf4339f6aa2c22d387283460e1116",
    ("z1000", "decompose N(3999/1000,1999/500)"): "0b0296b157fbfd2c222dee5ceb13dabbd1c0ae61e35e987f8953ad315284f314",
    ("z1000", "decompose N(3999/1000,1999/500) --json"): "8aff509bb0a29ec0d6a437f35754015ca46bf4339f6aa2c22d387283460e1116",
    ("z1000", "decompose T(999/1000;1)"): "1cb7d084be686492134c92b766ce026a500c9a52db83fc91cc97b0663b51fcef",
    ("z1000", "decompose T(999/1000;1) --json"): "95bb90da7b210c6340f3fb4f247d8545e5f67de100f77c8f2279bf21bbb37c90",
    ("z1000", "decompose T(3999/1000;0)"): "1cb7d084be686492134c92b766ce026a500c9a52db83fc91cc97b0663b51fcef",
    ("z1000", "decompose T(3999/1000;0) --json"): "95bb90da7b210c6340f3fb4f247d8545e5f67de100f77c8f2279bf21bbb37c90",
    # Twisted x Twisted on z1000 (501 labels each, one given by a
    # non-canonical representative) and on a1x6 (rank 6), and decompose on
    # e8 labels written with non-canonical representatives
    ("z1000", "fuse T(999/1000;1) T(3999/1000;0)"): "6168c8dbe25d9e9fef60247751b66187d5eb0a9037845168ffe782fc3a0dda92",
    ("z1000", "fuse T(999/1000;1) T(3999/1000;0) --json"): "5e59f4885268dfbdc51fe6ce5310fbe368ed7240cc76d0d85f7e65a1a622fa4d",
    ("z1000", "fuse T(1/1000;0) T(2501/1000;1)"): "8e31e3e7949e94a51c9a39af20d94fd0c42b624a287c4f9848716a402fe1494e",
    ("z1000", "fuse T(1/1000;0) T(2501/1000;1) --json"): "1d160d526c3d34c29342bc9c1216108e15e3572accdb58c67a9124edca0706f0",
    ("a1x6", "fuse T(1/2,1/2,1/2,1/2,1/2,1/2;1) T(7/2,1/2,1/2,1/2,1/2,-1/2;0)"): "8e900831956fe4fd16ed937ff5e521cb8415b81bfcb25379912b536b0378d234",
    ("a1x6", "fuse T(1/2,1/2,1/2,1/2,1/2,1/2;1) T(7/2,1/2,1/2,1/2,1/2,-1/2;0) --json"): "f84ad25d6b3cd70456ae41340f2ec667161ce7b3c8b2aabe4c3b9ec6eb24159a",
    ("e8", "decompose D(1,0,0,0,0,0,0,-1;0)"): "c73c289493e6cbad6fe0e852a9a7a333c73c6f2020d40f7bf0b934b5c7125028",
    ("e8", "decompose D(1,0,0,0,0,0,0,-1;0) --json"): "4495f25ab63d6bad56b3f7f997620b55398951a6bba8ddb50fc9e4b3565592fe",
    ("e8", "decompose T(0,0,0,0,0,0,0,-1;1)"): "2358d786384e2886fbe105adf90556d07852af3d52e8b30f2835eed227ad6fe2",
    ("e8", "decompose T(0,0,0,0,0,0,0,-1;1) --json"): "a22c1749cbf58119a32737e5770493a67b11fed9d1616655d164c345502dcb8c",
    # qdims where l is a perfect square above 4 (z16 prints 4, a1x6 prints
    # 8), where sqrt(l) must stay unsimplified (z2z4 prints sqrt(8)), and at
    # l = 180 and 1000
    ("z16", "qdims"): "646fb6a1b33dd0b33aed6e30f7b99a81959974487bbbf238f566837b5b0cdd02",
    ("z16", "qdims --json"): "ad156a23a318c22e0c0069da638c84f5d2d4eb5091192942471261accc578050",
    ("a1x6", "qdims"): "a36b128a9357add8ec717fe1f24d9759639e5587a679db8d980bda95ab71db0e",
    ("a1x6", "qdims --json"): "6e258a1149665ae0b606e7efc327fb568a8ee2d80e6bd7b067df979268492fe8",
    ("z2z4", "qdims"): "0f98af647e4a4bf9f798a54eeb77407bd0165b15c6b79f21fc8196bac05407da",
    ("z2z4", "qdims --json"): "054028ec737f311b92cd59cdd428bdef742e60cf0309acbd4406049897681f0a",
    ("l180", "qdims"): "f6ac14aae16cf0cc1f38205a9c4e511ef8cd70e56a11f7dd641a575871b758fb",
    ("l180", "qdims --json"): "e068365fa1fc8fd66d9454e9a505c7a8e9c5949fdfb55662cc635feee8346fe9",
    ("z1000", "qdims"): "e5b7c77790adf02bebc5d683920a20644e43b3734fd01cdfa0fb8da1d42f4749",
    ("z1000", "qdims --json"): "9a1c43f35115d2b8b4a399c5098502d5f54b7a44135c8aee2651a0f42c3f2811",
    # the full listings of the three largest query lattices: l = 180 on a
    # non-identity Smith basis, l = 200 and a1x6 (rank 6, l = 64)
    ("l180", "modules"): "1d5e01cd02710ad455b099016cafe605b416969695c597baadc2f3703d709546",
    ("l180", "modules --json"): "37dafdb9f91019f1b2b7dbf985c0e6684cde1bc06fa1b13be6d0f5b1f232691d",
    ("z200", "modules"): "c646e4739d43634cc26b7c35c40a8ec1181fcd0a99ddccabfa943e0478ea8115",
    ("z200", "modules --json"): "d4e0ab54f16643b01798907995b7507c991f007ce70bbc77653ddeeb26d824b7",
    ("z200", "qdims"): "a20b44e3324c3affef6deafc00d19686247388d5e3bafbe8e08b8fc5bd1ae666",
    ("z200", "qdims --json"): "bc2115572e61c1784d61b9198e3509e51d4063c6e6640da45f3e4337a3222b4c",
    ("a1x6", "modules"): "dcf331851beaff2762b09acaac61383e012b67468638ffcc0c155a0b07993443",
    ("a1x6", "modules --json"): "14f1c50840674586ec968474b829edf622900b4879ddf8d5cce42d3e4f2543e5",
}


def _gram_file(tmp_path, name) -> str:
    path = tmp_path / f"{name}.json"
    gram = EXTRA_GRAMS[name] if name in EXTRA_GRAMS else GRAMS[name][0]
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


@pytest.mark.parametrize("name,command", sorted(GOLDEN), ids=lambda v: v.replace(" ", ""))
def test_stdout_digest(name, command, tmp_path, capsys):
    sub, *flags = command.split()
    assert run([sub, _gram_file(tmp_path, name), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(name, command)]


@pytest.mark.parametrize("name", sorted({name for name, _command in GOLDEN}))
def test_label_names_match_format_label(name, tmp_path):
    lat = load_gram(_gram_file(tmp_path, name))
    assert render.label_names(lat) == [render.format_label(m) for m in enumerate_modules(lat)]


# ``table`` on l180 is refused by its size guard, so it is counted on odd7
@pytest.mark.parametrize(
    "name,command",
    [
        ("l180", "modules"),
        ("l180", "modules --json"),
        ("l180", "qdims"),
        ("l180", "qdims --json"),
        ("odd7", "table"),
        ("odd7", "table --csv"),
        ("odd7", "table --json"),
    ],
    ids=lambda v: v.replace(" ", ""),
)
def test_listings_format_each_class_once(name, command, tmp_path, capsys, monkeypatch):
    calls = {"format_vector": 0, "format_label": 0}

    def counted(f):
        def wrapper(*args):
            calls[f.__name__] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(render, "format_vector", counted(render.format_vector))
    format_label = counted(render.format_label)
    for mod in (render, cli):
        monkeypatch.setattr(mod, "format_label", format_label)
    path = _gram_file(tmp_path, name)
    sub, *flags = command.split()
    assert run([sub, path, *flags]) == 0
    assert capsys.readouterr().out
    assert calls["format_vector"] <= load_gram(path).det
    assert calls["format_label"] == 0


@pytest.mark.parametrize("name", sorted({name for name, _command in GOLDEN} | {"z2e9"}))
def test_format_numerators_matches_format_vector(name, tmp_path):
    # on [[2000000000]] the numerator arrays hold Python integers (object dtype)
    lat = validate_lattice([[2000000000]]) if name == "z2e9" else load_gram(_gram_file(tmp_path, name))
    assert (lat.int_dtype == object) == (name == "z2e9")
    rng = random.Random(name)
    for m in (1, 2):
        # numerators below 3 d_j in magnitude, the range the array methods take
        rows = [[rng.randrange(-3 * d + 1, 3 * d) for d in lat.elementary_divisors] for _ in range(60)]
        rows += [[0] * lat.dim, [d - 1 for d in lat.elementary_divisors], [m * d - 1 for d in lat.elementary_divisors]]
        got = [",".join(c) for c in render.format_numerators(lat, lat.as_rows(rows), m)]
        assert got == [format_vector(lat.from_numerators(k, m)) for k in rows]


@pytest.mark.parametrize(
    "name,command",
    [
        ("z1000", "fuse T(999/1000;1) T(3999/1000;0)"),
        ("z1000", "fuse T(999/1000;1) T(3999/1000;0) --json"),
        ("l180", "fuse N(1/180,-1/45,23/180,179/180,-179/45,4117/180) N(1/90,-2/45,23/90,91/180,-91/45,2093/180)"),
        ("e8", "decompose D(1,0,0,0,0,0,0,-1;0)"),
        ("e8", "decompose T(0,0,0,0,0,0,0,-1;1) --json"),
        ("a1x6", "decompose N(1/2,1/2,1/2,1/2,1/2,0,1/2,1/2,1/2,1/2,1/2,1/2) --json"),
    ],
    ids=["z1000-TT", "z1000-TT-json", "l180-NN", "e8-D", "e8-T-json", "a1x6-N-json"],
)
def test_output_builds_no_vector(name, command, tmp_path, capsys, monkeypatch):
    # fuse and decompose print from numerators: from_numerators runs only
    # while the labels on the command line are parsed
    outside = []
    parsing = [False]
    from_numerators = GramLattice.from_numerators

    def counted(self, k, m=1):
        if not parsing[0]:
            outside.append(tuple(k))
        return from_numerators(self, k, m)

    def parse_label(lat, text):
        parsing[0] = True
        try:
            return parse(lat, text)
        finally:
            parsing[0] = False

    parse = cli.parse_label
    monkeypatch.setattr(GramLattice, "from_numerators", counted)
    monkeypatch.setattr(cli, "parse_label", parse_label)
    sub, *rest = command.split()
    assert run([sub, _gram_file(tmp_path, name), *rest]) == 0
    assert capsys.readouterr().out
    assert outside == []
