import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permorb
from permorb import enumerate_modules
from permorb.cli import _guard_output, load_gram, parse_label, run
from permorb.errors import DegeneratePair, NotInDual, ParseError, PermorbError, TableTooLarge
from permorb.orbifold import FusionTable
from permorb.render import format_label

from conftest import GRAMS, get_lattice


@pytest.fixture
def gram_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"gram": GRAMS[name][0]}))
        return str(path)

    return write


class TestParseLabel:
    def test_diag(self, a1):
        assert format_label(parse_label(a1, "D(0;0)")) == "D(0;0)"

    def test_nondiag(self, a1):
        assert format_label(parse_label(a1, "N(1/2,0)")) == "N(0,1/2)"

    def test_twisted_canonicalizes(self, a1):
        # a generator shift crosses an odd-weight translation
        assert format_label(parse_label(a1, "T(1;0)")) == "T(0;1)"

    def test_degenerate_pair(self, a1):
        with pytest.raises(DegeneratePair):
            parse_label(a1, "N(1,0)")

    def test_not_in_dual(self, a1):
        with pytest.raises(NotInDual):
            parse_label(a1, "D(1/3;0)")

    def test_syntax_errors(self, a1, a2):
        for bad in (
            "X(0;0)",
            "D(0)",
            "D(0;2)",
            "N(1/2)",
            "D(0;0) extra",
            "D(1/0;0)",
            "D(1e1000000;0)",
            "D(,1/2;0)",
            "D(1/2,;0)",
            "D(1/2,,,,;0)",
            "D(1/2, ;0)",
            "N(,1/2,0)",
            "N(1/2;,0)",
        ):
            with pytest.raises(ParseError):
                parse_label(a1, bad)
        # an empty item must not count as a coordinate, nor be skipped
        for bad in ("T(,,0,0;1)", "D(0,,1/3;0)", "N(0,0;1/3,,1/3)"):
            with pytest.raises(ParseError, match="empty coordinate item"):
                parse_label(a2, bad)

    def test_empty_coordinate_item_exits_two(self, gram_file, capsys):
        assert run(["decompose", gram_file("a1"), "D(1/2,;0)"]) == 2
        assert capsys.readouterr() == ("", "error: empty coordinate item in '1/2,'\n")

    @pytest.mark.parametrize("name", ["a1", "a2", "odd7"])
    def test_round_trip_all_labels(self, name):
        lat = get_lattice(name)
        for m in enumerate_modules(lat):
            assert parse_label(lat, format_label(m)) == m

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_coordinates_parse_or_raise(self, data):
        # a coset representative plus an integer shift, or arbitrary rationals
        lat = get_lattice(data.draw(st.sampled_from(["a1", "a2", "odd7", "chain3"])))
        frac = st.fractions(min_value=-4, max_value=4, max_denominator=8)
        shifted = st.tuples(
            st.sampled_from(list(lat.dual_mod_lattice)), st.tuples(*([st.integers(-3, 3)] * lat.dim))
        ).map(lambda rs: tuple(r + s for r, s in zip(*rs)))
        coords = st.one_of(shifted, st.tuples(*([frac] * lat.dim)))
        text = lambda x: ",".join(map(str, x))
        kind = data.draw(st.sampled_from("DNT"))
        if kind == "N":
            label = f"N({text(data.draw(coords))},{text(data.draw(coords))})"
        else:
            label = f"{kind}({text(data.draw(coords))};{data.draw(st.sampled_from('01'))})"
        try:
            m = parse_label(lat, label)
        except PermorbError:
            return
        printed = format_label(m)
        assert parse_label(lat, printed) == m
        assert format_label(parse_label(lat, printed)) == printed

    def test_rank_two_nondiag_parses(self, a2):
        m = next(x for x in enumerate_modules(a2) if format_label(x).startswith("N"))
        assert parse_label(a2, format_label(m)) == m


class TestLoadGram:
    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[2]]}))
        with pytest.raises(ParseError):
            load_gram(str(path))

    def test_non_integer_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gram": [[2.0]]}))
        with pytest.raises(ParseError):
            load_gram(str(path))

    def test_rejected_entry_repr_is_cut(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("small.json").write_text(json.dumps({"gram": [[[0, 1]]]}))
        Path("big.json").write_text(json.dumps({"gram": [[[0] * 200_000]]}))
        assert run(["decompose", "small.json", "D(0;0)"]) == 2
        assert capsys.readouterr().err == "error: small.json: Gram entries must be integers, got [0, 1]\n"
        assert run(["decompose", "big.json", "D(0;0)"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: big.json: ") and err.endswith("0,...\n")
        assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{\x00}\x00", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "deep-array"]
    )
    def test_undecodable_file_exits_two(self, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert run(["decompose", str(path), "D(0;0)"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_file_exits_zero_or_two(self, tmp_path_factory, data):
        # arbitrary bytes, or a JSON document with or without a "gram" key
        leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
        values = st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        )
        grams = st.lists(st.lists(st.integers(-3, 12), min_size=1, max_size=3), min_size=1, max_size=3)
        documents = values | st.fixed_dictionaries({"gram": values | grams}, optional={"other": values})
        raw = st.binary(max_size=64) | documents.map(lambda doc: json.dumps(doc).encode())
        path = tmp_path_factory.mktemp("fuzz") / "gram.json"
        path.write_bytes(data.draw(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(["decompose", str(path), "D(0;0)"]) in (0, 2)


class TestRun:
    def test_modules_lines(self, capsys, gram_file):
        assert run(["modules", gram_file("a1")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 9
        assert out[0] == "D(0;0)"

    def test_modules_json(self, capsys, gram_file):
        assert run(["modules", gram_file("a2"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 15 and doc["det"] == 3

    def test_qdims(self, capsys, gram_file):
        assert run(["qdims", gram_file("a1")]) == 0
        out = capsys.readouterr().out
        assert "sqrt(2)" in out

    def test_fuse_example(self, capsys, gram_file):
        assert run(["fuse", gram_file("a1"), "T(0;0)", "T(0;1)"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["D(0;1)", "D(1/2;0)"]

    def test_fuse_beyond_int64(self, capsys, tmp_path):
        # the weight flip of 2 * 1999999999 + 1999999998 squares to about
        # 3.6e19, past int64, so this lattice runs on exact Python integers
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"gram": [[2000000000]]}))
        assert run(["fuse", str(path), "D(1999999999/2000000000;0)", "T(1999999998/2000000000;1)"]) == 0
        assert capsys.readouterr().out == "T(499999999/500000000;1)\n"

    def test_fuse_deterministic(self, capsys, gram_file):
        path = gram_file("a1")
        run(["fuse", path, "N(1/2,0)", "N(1/2,0)"])
        first = capsys.readouterr().out
        run(["fuse", path, "N(1/2,0)", "N(1/2,0)"])
        assert capsys.readouterr().out == first

    def test_decompose(self, capsys, gram_file):
        assert run(["decompose", gram_file("a1"), "D(1/2;0)"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert doc["vlplus"]["kind"] == "untwisted_split"
        assert doc["vlplus"]["sign"] == "+"

    def test_table_csv(self, capsys, gram_file):
        assert run(["table", gram_file("a1"), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a,b,c,multiplicity"
        assert len(lines) > 81

    def test_table_json(self, capsys, gram_file):
        assert run(["table", gram_file("a1"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["labels"]) == 9
        assert len(doc["products"]) == 81

    def test_table_guard_exit_code(self, capsys, tmp_path, monkeypatch):
        # the table of l = 64 fits, its JSON document would not
        def no_table(lat):
            raise AssertionError("fusion_table called")

        monkeypatch.setattr(permorb.cli, "fusion_table", no_table)
        path = tmp_path / "z64.json"
        path.write_text(json.dumps({"gram": [[64]]}))
        assert run(["table", str(path), "--json"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: table --json for l = 64 (n = 2272 labels) needs about 14.6 GiB, above the limit of 4 GiB\n",
        )

    def test_verify_guard_before_table(self, capsys, tmp_path, monkeypatch):
        # l = 90, the first l refused at rank 1: the table alone would fit, verify would not
        def no_table(lat):
            raise AssertionError("fusion_table called")

        monkeypatch.setattr(permorb.verify, "fusion_table", no_table)
        path = tmp_path / "z90.json"
        path.write_text(json.dumps({"gram": [[90]]}))
        assert run(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: verify for l = 90 (n = 4365 labels) needs about 4.1 GiB, above the limit of 4 GiB\n"
        )

    @pytest.mark.parametrize(
        "argv, gram, attrs, message",
        [
            (
                ["modules", "--json"],
                [[3000]],
                ("enumerate_modules", "label_docs"),
                "modules --json for l = 3000 (n = 4510500 labels) needs about 8.4 GiB",
            ),
            (
                ["decompose", "D(" + ",".join(["0"] * 24) + ";0)"],
                [[2 * (i == j) for j in range(24)] for i in range(24)],
                ("decompose_module", "constituents"),
                "decompose for d = 24 (16777216 constituents) needs about 120.3 GiB",
            ),
        ],
        ids=["modules-z3000", "decompose-a1^24"],
    )
    def test_output_guard_before_work(self, argv, gram, attrs, message, capsys, tmp_path, monkeypatch):
        # the functions the command calls, and those perfbench wraps on the cli module
        for attr in attrs:
            def no_work(*args, attr=attr):
                raise AssertionError(f"{attr} called")

            monkeypatch.setattr(f"permorb.cli.{attr}", no_work)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"gram": gram}))
        assert run([argv[0], str(path)] + argv[1:]) == 2
        assert capsys.readouterr() == ("", f"error: {message}, above the limit of 4 GiB\n")

    @pytest.mark.parametrize(
        "command, as_json, last",
        [
            ("modules", False, 6245),
            ("modules", True, 2068),
            ("qdims", False, 5744),
            ("qdims", True, 2927),
            ("decompose", False, 19),
            ("decompose", True, 18),
            ("table", False, 79),
            ("table", "csv", 75),
            ("table", True, 45),
        ],
    )
    def test_output_guard_cutoffs(self, command, as_json, last):
        # stand-ins with the two attributes the guard reads: a listing or a
        # table is sized by l at rank 1, a decomposition by the rank d of
        # diag(2)^d
        def lattice(size):
            if command == "decompose":
                return SimpleNamespace(det=2**size, dim=size)
            return SimpleNamespace(det=size, dim=1)

        args = SimpleNamespace(command=command, json=as_json is True, csv=as_json == "csv")
        _guard_output(lattice(last), args)
        with pytest.raises(TableTooLarge, match=r"above the limit of 4 GiB"):
            _guard_output(lattice(last + 1), args)

    def test_verify_pass(self, capsys, gram_file):
        assert run(["verify", gram_file("e8")]) == 0
        out = capsys.readouterr().out
        assert "PASS associativity" in out and "FAIL" not in out

    def test_table_and_verify_read_only_the_entries(self, capsys, gram_file, monkeypatch):
        # the dense cube of a table is for inspection; the listing and every
        # check read the nonzero entries
        def no_cube(table):
            raise AssertionError("FusionTable.tensor read")

        monkeypatch.setattr(FusionTable, "tensor", property(no_cube))
        path = gram_file("odd7")
        assert run(["verify", path]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert run(["table", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 49**2 and lines[0] == "D(0,0;0) x D(0,0;0) = D(0,0;0)"

    def test_verify_json(self, capsys, gram_file):
        assert run(["verify", gram_file("a1"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True

    def test_input_errors_exit_two(self, capsys, tmp_path, gram_file):
        missing = str(tmp_path / "nope.json")
        assert run(["modules", missing]) == 2
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"gram": [[1]]}))
        assert run(["modules", str(odd)]) == 2
        assert run(["fuse", gram_file("a1"), "D(0;0)", "bogus"]) == 2
        assert run(["fuse", gram_file("a1"), "D(0;0)", "N(1,0)"]) == 2

    @pytest.mark.parametrize("sub, attr", [("table", "fusion_table"), ("verify", "verify")])
    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError(), "MemoryError"), (MemoryError("Unable to allocate 21.8 GiB"), "Unable to allocate 21.8 GiB")],
    )
    def test_out_of_memory_exits_two(self, sub, attr, exc, message, capsys, gram_file, monkeypatch):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"permorb.cli.{attr}", exhausted)
        assert run([sub, gram_file("a1")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.startswith("permorb ")

    def test_byte_identical_reruns(self, capsys, gram_file):
        path = gram_file("a2")
        run(["table", path, "--csv"])
        first = capsys.readouterr().out
        run(["table", path, "--csv"])
        assert capsys.readouterr().out == first


class TestParserReuse:
    """One process, many ``run`` calls: the parser is built once and shared."""

    def test_no_flag_leaks_into_the_next_call(self, capsys, gram_file):
        path = gram_file("a1")
        assert run(["table", path, "--csv"]) == 0
        assert capsys.readouterr().out.startswith("a,b,c,multiplicity\r\n")
        assert run(["table", path]) == 0
        assert capsys.readouterr().out.startswith("D(0;0) x D(0;0) = D(0;0)\n")

    def test_usage_error_twice(self, capsys, gram_file):
        argv = ["fuse", gram_file("a1"), "D(0;0)"]
        assert run(argv) == 2
        first = capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr() == first
        assert first.out == "" and first.err.startswith("usage: permorb fuse ")
        assert first.err.endswith("error: the following arguments are required: b\n")

    def test_version_twice_and_help(self, capsys):
        for _ in range(2):
            assert run(["--version"]) == 0
            assert capsys.readouterr() == (f"permorb {permorb.__version__}\n", "")
        assert run(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: permorb ") and "{modules,qdims,fuse,decompose,table,verify}" in out
        assert err == ""

    def test_parser_built_once(self, gram_file, monkeypatch):
        path = gram_file("a1")
        argvs = [["fuse", path, "D(0;0)", "T(0;1)"], ["modules", path], ["fuse", path, "D(0;0)"], ["--version"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run(argvs[0])  # warm-up: the first call of the process may build it
            built = []
            init = argparse.ArgumentParser.__init__
            monkeypatch.setattr(
                argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)
            )
            for i in range(20):
                run(argvs[i % len(argvs)])
        assert built == []


class TestModuleEntryPoint:
    def test_python_m_runs_main(self, gram_file, tmp_path):
        # the package is imported from this checkout, not from an installed copy
        env = dict(os.environ, PYTHONPATH=str(Path(permorb.__file__).parents[1]))
        cmd = [sys.executable, "-m", "permorb.cli", "verify"]
        done = subprocess.run(cmd + [gram_file("a1")], env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("PASS ") and "FAIL" not in done.stdout
        missing = subprocess.run(cmd + [str(tmp_path / "nope.json")], env=env, capture_output=True, text=True)
        assert missing.returncode == 2 and missing.stderr.startswith("error: ")

    def test_verify_submodule_is_not_shadowed(self):
        import permorb.verify as V

        assert callable(V.verify) and callable(V.check_identity)
