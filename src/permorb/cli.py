"""Command-line front end.

Subcommands::

    permorb modules   gram.json [--json]
    permorb qdims     gram.json [--json]
    permorb fuse      gram.json LABEL LABEL [--json]
    permorb decompose gram.json LABEL [--json]
    permorb table     gram.json [--json|--csv]
    permorb verify    gram.json [--json]

The Gram matrix is read from a JSON document ``{"gram": [[...]]}``.  Labels
use the compact grammar ``D(coords;eps) | N(coords,coords) | T(coords;eps)``
with rational coordinates like ``1/2``.  Exit codes: 0 on success (and on a
fully passing verification), 1 when a verification check fails, 2 on any
input error (a tripped size guard included) and when memory runs out.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__
from .errors import ParseError, PermorbError
from .lattice import GramLattice, Vector, validate_lattice
# perfbench/layers.py wraps enumerate_modules, fuse_orbifold and decompose_module here
from .orbifold import (
    Diag,
    NonDiag,
    OrbifoldLabel,
    Twisted,
    constituents,
    decompose_module,
    diag,
    entry_count,
    enumerate_modules,
    fuse_orbifold,
    fusion_keys,
    fusion_table,
    guard_memory,
    label_count,
    labels_size,
    nondiag,
    qdims_by_kind,
    twisted,
)
from .render import constituent_docs, format_keys, format_label, format_qdim, label_docs, label_names
from .verify import verify

__all__ = ["parse_label", "load_gram", "run", "main"]

_LABEL_RE = re.compile(r"^\s*([DNT])\(([^()]*)\)\s*$")
# Fraction() evaluates 10**exp exactly, so its cost grows with the exponent
_EXPONENT_RE = re.compile(r"[\d.][eE][-+]?\d")
# longest repr of a rejected Gram entry that an error line quotes in full
_MAX_REPR = 60
# json.dumps(doc, sort_keys=True) with one encoder for every line
_JSON_LINE = json.JSONEncoder(sort_keys=True).encode
# peak bytes per printed item, a + b*d at rank d, by command and format;
# measured as peak RSS above the import baseline with CPython 3.11: labels on
# [[1000]] and diag(2)^8, constituents on diag(2)^d for d = 8, 12 and 16,
# taking the largest of the three label kinds, and table entries, the table
# included, at l = 16, 24, 32 and 64 on ranks 1, 4 and 6
_ITEM_BYTES = {
    "modules": (210, 10),
    "modules --json": (1700, 300),
    "qdims": (250, 10),
    "qdims --json": (1000, 0),
    "decompose": (1700, 250),
    "decompose --json": (3400, 300),
    "table": (165, 18),
    "table --csv": (190, 30),
    "table --json": (1500, 20),
}


def load_gram(path: str) -> GramLattice:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ParseError(f"{path}: expected a JSON object with a 'gram' key")
    gram = doc["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ParseError(f"{path}: 'gram' must be a list of rows")
    for row in gram:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                shown = repr(x)
                if len(shown) > _MAX_REPR:
                    shown = shown[:_MAX_REPR] + "..."
                raise ParseError(f"{path}: Gram entries must be integers, got {shown}")
    return validate_lattice(gram)


def _reject_empty_items(text: str) -> None:
    """Raise ``ParseError`` when a comma- or semicolon-separated item of
    ``text`` is blank.  Called after the count, exponent and rational checks,
    so a label with another syntax error keeps that error's message."""
    if not all(p.strip() for p in text.replace(";", ",").split(",")):
        raise ParseError(f"empty coordinate item in '{text}'")


def _parse_coords(text: str, dim: int) -> Vector:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(parts)} in '{text}'")
    if _EXPONENT_RE.search(text):
        raise ParseError(f"exponent notation is not accepted in '{text}'")
    try:
        x = tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational in '{text}': {exc}") from None
    _reject_empty_items(text)
    return x


def parse_label(lat: GramLattice, text: str) -> OrbifoldLabel:
    """Parse compact label text and canonicalize against the lattice."""
    m = _LABEL_RE.match(text)
    if not m:
        raise ParseError(f"label '{text}' does not match D(..;e) | N(..,..) | T(..;e)")
    kind, body = m.group(1), m.group(2)
    if kind == "N":
        parts = [p for p in body.replace(";", ",").split(",") if p.strip()]
        if len(parts) != 2 * lat.dim:
            raise ParseError(
                f"off-diagonal label needs {2 * lat.dim} coordinates, got {len(parts)}"
            )
        x = _parse_coords(",".join(parts[: lat.dim]), lat.dim)
        y = _parse_coords(",".join(parts[lat.dim :]), lat.dim)
        _reject_empty_items(body)
        return nondiag(lat, x, y)
    if ";" not in body:
        raise ParseError(f"label '{text}' is missing the ';eps' part")
    coords_text, eps_text = body.rsplit(";", 1)
    if eps_text.strip() not in ("0", "1"):
        raise ParseError(f"eps must be 0 or 1, got '{eps_text.strip()}'")
    eps = int(eps_text)
    x = _parse_coords(coords_text, lat.dim)
    return diag(lat, x, eps) if kind == "D" else twisted(lat, x, eps)


def _guard_output(lat: GramLattice, args) -> None:
    """Refuse a listing of the n labels or of the about 2 n^2 table entries,
    or a decomposition into 2^d constituents, whose output would not fit in
    memory."""
    what = args.command + (" --csv" if getattr(args, "csv", False) else " --json" if args.json else "")
    a, b = _ITEM_BYTES[what]
    if args.command == "decompose":
        count, size = 2**lat.dim, f"d = {lat.dim} ({2**lat.dim} constituents)"
    else:
        count, size = (entry_count if args.command == "table" else label_count)(lat), labels_size(lat)
    guard_memory(what, size, count * (a + b * lat.dim))


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _print_lines(lines: Iterable[str]) -> None:
    lines = list(lines)
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_modules(args) -> int:
    lat = load_gram(args.gram)
    _guard_output(lat, args)
    if args.json:
        mods = label_docs(lat)
        _print_json({"dim": lat.dim, "det": lat.det, "count": len(mods), "modules": mods})
    else:
        _print_lines(label_names(lat))
    return 0


def _cmd_qdims(args) -> int:
    lat = load_gram(args.gram)
    _guard_output(lat, args)
    qdims = qdims_by_kind(lat)
    # the qdim text of each kind letter, the first letter of a label
    text = {k: format_qdim(qdims[kind], lat.det) for k, kind in (("D", Diag), ("N", NonDiag), ("T", Twisted))}
    if args.json:
        _print_json({"det": lat.det, "qdims": [{"label": lab, "qdim": text[lab[0]]} for lab in label_names(lat)]})
    else:
        _print_lines(label_names(lat, {k: "  " + q for k, q in text.items()}))
    return 0


def _cmd_fuse(args) -> int:
    lat = load_gram(args.gram)
    a = parse_label(lat, args.a)
    b = parse_label(lat, args.b)
    keys, mults = zip(*fusion_keys(lat, a, b))
    out = list(zip(format_keys(lat, keys), mults))
    if args.json:
        _print_json(
            {
                "a": format_label(a),
                "b": format_label(b),
                "result": [{"label": c, "multiplicity": mult} for c, mult in out],
            }
        )
    else:
        _print_lines(c for c, _mult in out)
    return 0


def _cmd_decompose(args) -> int:
    lat = load_gram(args.gram)
    _guard_output(lat, args)
    m = parse_label(lat, args.label)
    summands = constituent_docs(lat, constituents(lat, m))
    if args.json:
        _print_json({"label": format_label(m), "summands": summands})
    else:
        _print_lines(map(_JSON_LINE, summands))
    return 0


def _table_rows(table, names: Sequence[str]):
    """``(a, b, [(c, mult), ...])`` for every ordered pair of labels, in label
    order, with ``names[i]`` standing for ``table.labels[i]``."""
    n, ptr, c, v = len(names), table.ptr.tolist(), table.c.tolist(), table.v.tolist()
    for p in range(n * n):
        entries = slice(ptr[p], ptr[p + 1])
        yield names[p // n], names[p % n], [(names[k], mult) for k, mult in zip(c[entries], v[entries])]


def _cmd_table(args) -> int:
    lat = load_gram(args.gram)
    _guard_output(lat, args)
    table = fusion_table(lat)
    names = label_names(lat)
    rows = _table_rows(table, names)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "b", "c", "multiplicity"])
        writer.writerows([a, b, c, mult] for a, b, prod in rows for c, mult in prod)
        sys.stdout.write(buf.getvalue())
    elif args.json:
        products = [
            {"a": a, "b": b, "result": [{"label": c, "multiplicity": mult} for c, mult in prod]}
            for a, b, prod in rows
        ]
        _print_json({"labels": names, "products": products})
    else:
        _print_lines(f"{a} x {b} = {' + '.join(c for c, _mult in prod)}" for a, b, prod in rows)
    return 0


def _cmd_verify(args) -> int:
    lat = load_gram(args.gram)
    report = verify(lat)
    if args.json:
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.results]
        _print_json({"all_passed": report.all_passed, "checks": checks})
    else:
        _print_lines(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f": {r.detail}" if r.detail else "")
            for r in report.results
        )
    return 0 if report.all_passed else 1


@functools.cache  # built on the first run, not at import; parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permorb",
        description="Exact fusion data of 2-permutation orbifolds of lattice VOAs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("gram", help="path to a JSON file {\"gram\": [[...]]}")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("modules", help="list the irreducible module labels")
    common(p)
    p.set_defaults(func=_cmd_modules)

    p = sub.add_parser("qdims", help="quantum dimension of every module")
    common(p)
    p.set_defaults(func=_cmd_qdims)

    p = sub.add_parser("fuse", help="fusion product of two modules")
    common(p)
    p.add_argument("a", help="first label, e.g. 'T(0;1)'")
    p.add_argument("b", help="second label")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("decompose", help="constituents over the product subalgebra")
    common(p)
    p.add_argument("label", help="orbifold label to decompose")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("table", help="full fusion table")
    common(p)
    p.add_argument("--csv", action="store_true", help="CSV rows a,b,c,multiplicity")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the fusion-ring verification suite")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PermorbError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; name the exception instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
