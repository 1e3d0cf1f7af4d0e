"""The names the benchmark in ``perfbench/`` imports and patches still exist.

The benchmark is frozen: it reaches into ``permorb.cli``, ``permorb.verify``
and the layer modules by attribute name.  An import cleanup that renames or
aliases one of those names breaks every traced run, so this module runs the
benchmark's own code against the package.  It only reads ``perfbench/``.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from permorb import cli, render  # noqa: E402
from permorb.verify import run_checks  # noqa: E402

from conftest import GRAMS, get_lattice  # noqa: E402


def test_install_and_uninstall_every_span():
    originals = (cli.load_gram, cli.validate_lattice, cli.verify, cli.fuse_orbifold)
    tr = Tracer()
    layers.install(tr)
    tr.uninstall()
    assert (cli.load_gram, cli.validate_lattice, cli.verify, cli.fuse_orbifold) == originals


def test_verify_check_names_match_the_benchmark():
    results = run_checks(cli.fusion_table(get_lattice("odd7")))
    assert [r.name for r in results] == list(checks.VERIFY_CHECKS)


def test_printed_labels_reparse(tmp_path):
    for name in ("a1", "a2", "odd7", "chain3"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"gram": GRAMS[name][0]}))
        lat = cli.load_gram(str(path))
        for s in map(render.format_label, cli.enumerate_modules(lat)):
            assert render.format_label(cli.parse_label(lat, s)) == s


def test_micro_spans_run(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"gram": GRAMS["a2"][0]}))
    tr = Tracer()
    layers.micro(tr, gen.LatticeGen("a2", GRAMS["a2"][0]), str(path), random.Random(1))
    assert tr.per_call_us("orbifold.induce") is not None
    assert tr.per_call_us("characters.weight_parity_sign") is not None


def test_qdims_output_passes_the_query_checker(tmp_path, capsys):
    # l = 1, 3, 7, 4 and 64: both perfect squares fold sqrt(l) into an integer
    names = ("e8", "a2", "odd7", "d4", "a1x6")
    gens = {name: gen.LatticeGen(name, gen.QUERY_LATTICES[name]) for name in names}
    grams = {}
    for name in names:
        grams[name] = str(tmp_path / f"{name}.json")
        Path(grams[name]).write_text(json.dumps({"gram": gen.QUERY_LATTICES[name]}))
    checker = checks.QueryChecker(grams, {k: g.det for k, g in gens.items()}, {k: g.dim for k, g in gens.items()})
    for name in names:
        rc = cli.run(["qdims", grams[name]])
        out, err = capsys.readouterr()
        assert checker.check(name, ("qdims",), rc, out, err) is None


def test_traced_verify_annotates_the_table_and_each_check(tmp_path, capsys):
    path = tmp_path / "odd7.json"
    path.write_text(json.dumps({"gram": GRAMS["odd7"][0]}))
    tr = Tracer()
    layers.install(tr)
    try:
        assert cli.run(["verify", str(path)]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    (table,) = [s for s in tr.spans if s[3] == "orbifold.fusion_table"]
    assert table[6]["nnz"] > 0 and table[6]["bytes"] == 2 * table[6]["labels"] ** 3
    spans = [s[3] for s in tr.spans if s[3].startswith("verify.") and s[3] != "verify.verify"]
    assert spans == [f"verify.{name}" for name in checks.VERIFY_CHECKS]
