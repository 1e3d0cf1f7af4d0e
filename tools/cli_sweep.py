"""Byte-identity sweep of the permorb command line.

Runs a fixed, seeded list of ``permorb.cli.run`` invocations in-process and
prints one line per invocation: the exit code, the sha256 of stdout, the
sha256 of stderr and the argv.  Two source trees produce the same printout
exactly when their command lines behave the same on these inputs, so a
refactor is checked by running the sweep on both and comparing::

    COLUMNS=80 PYTHONPATH=<old tree>/src python tools/cli_sweep.py > old.txt
    COLUMNS=80 PYTHONPATH=<new tree>/src python tools/cli_sweep.py > new.txt
    diff old.txt new.txt

The inputs: every subcommand, in text and ``--json`` (and ``table --csv``),
on 15 fixed lattices, but no ``table`` or ``verify`` on a1x6 (``NO_RING``);
seeded ``fuse`` for every kind pair and seeded ``decompose`` for every kind,
on canonical labels and on labels moved by lattice vectors, and ``fuse``
once per kind pair on labels moved far beyond int64; malformed labels;
seeded ``fuse`` for every kind pair but TT on ``[[2000000000]]``, whose
parity rule needs integers beyond int64; ``verify`` in text and ``--json``
on two l = 16 lattices of rank 1 and 4; bad Gram files; and argparse's own
paths (no arguments, an unknown subcommand, a missing positional, an
unknown flag, ``--help``, ``fuse --help`` and ``--version``), 4,263
invocations in all, in 18-25 s on a 2-CPU host.  The help text wraps at the
terminal width, so run both trees with the same ``COLUMNS``.
The sweep needs only the standard library and the ``permorb`` it imports.
It writes its Gram files to a temporary directory and runs from there, so
every path in argv and in an error message is the same on every run.  A
count and the elapsed time go to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
import time
from fractions import Fraction

from permorb.cli import run

SEED = 20261018
FUSE_PER_KIND_PAIR = 6
# how far `moved` shifts a label: a few lattice vectors, or far beyond int64
NEAR, FAR = 3, 10**20
DECOMPOSE_PER_KIND = 5


def _diag(*entries):
    return [[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))]


E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]

LATTICES = {
    "a1": [[2]],
    "a1sq": _diag(2, 2),
    "a2": [[2, -1], [-1, 2]],
    "scaled4": [[4]],
    "scaled6": [[6]],
    "scaled12": [[12]],
    "odd7": [[2, 1], [1, 4]],
    "a1cube": _diag(2, 2, 2),
    "chain3": [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    "d4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
    "e8": E8,
    "r3": [[4, 1, 0], [1, 6, 1], [0, 1, 8]],
    "a1x6": _diag(2, 2, 2, 2, 2, 2),
    "z200": [[200]],
    "z1000": [[1000]],
}

# lattices the sweep runs through every subcommand but `table` and `verify`:
# the guards admit both on a1x6 (n = 2272), where they take minutes and up to
# 2.8 GB; `tools/verify_ladder.py a1x6` times `verify` there
NO_RING = {"a1x6"}

# a lattice whose parity rule outgrows int64 (2 * 1999999999 + 1999999998
# squares to about 3.6e19); its l = 2e9 labels cannot be listed, so they are
# drawn directly, and TT is left out because its product has O(l) labels
BIG_LATTICES = {"z2e9": [[2000000000]]}

# lattices with n = 184 labels, run through `verify` only
VERIFY_LATTICES = {
    "z16": [[16]],
    "a1x4": _diag(2, 2, 2, 2),
}

# file name -> raw contents; "missing.json" is never written
BAD_FILES = {
    "notjson.json": b"{",
    "nokey.json": b'{"matrix": [[2]]}',
    "notlist.json": b'{"gram": 5}',
    "float.json": b'{"gram": [[2.0]]}',
    "bool.json": b'{"gram": [[true]]}',
    "nested.json": b'{"gram": [[[0, 1]]]}',
    "longrepr.json": json.dumps({"gram": [[[0] * 1000]]}).encode(),
    "odd.json": b'{"gram": [[1]]}',
    "asym.json": b'{"gram": [[2, 1], [0, 2]]}',
    "indef.json": b'{"gram": [[2, 3], [3, 2]]}',
    "zero.json": b'{"gram": [[0]]}',
    "minor3.json": b'{"gram": [[2, 1, 0], [1, 2, 2], [0, 2, 2]]}',
    "rank0.json": b'{"gram": []}',
    "ragged.json": b'{"gram": [[2, 1], [1]]}',
    "notutf8.json": b"\xff\xfe{\x00}\x00",
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
}


def invoke(argv):
    """Run one invocation and print its line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(run(argv))
        except BaseException as exc:  # a crash is a result too, not the end of the sweep
            code = f"raised:{type(exc).__name__}"
    digest = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()
    print(code, digest(out), digest(err), shlex.join(argv))


def labels_of(path):
    """The canonical labels of a lattice, from the ``modules`` listing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(["modules", path])
    return out.getvalue().split()


def moved(label, rng, reach=NEAR):
    """``label`` with every coset vector moved by a random lattice vector
    with coordinates up to ``reach``."""
    kind, body = label[0], label[2:-1]
    coords, sep, eps = (body, "", "") if kind == "N" else body.rpartition(";")
    shifted = [str(Fraction(c) + rng.randint(-reach, reach)) for c in coords.split(",")]
    return f"{kind}({','.join(shifted)}{sep}{eps})"


def malformed(labels, dim):
    """Labels that must exit 2 or that sit near the grammar's edges."""
    zeros = ",".join(["0"] * dim)
    cosets = [m[2:].split(";")[0] for m in labels if m.startswith("D(")]
    coset = next((c for c in cosets if c != zeros), zeros)  # nonzero unless l = 1
    return [
        "X(0;0)",
        "D(0)",
        "D(0;2)",
        "D(0;-1)",
        "N(1/2)",
        "D(0;0) extra",
        "D(1/0;0)",
        "D(1e5;0)",
        "D(;0)",
        "T()",
        "",
        "D(0;0",
        "T(0;1;1)",
        f"D({zeros},0;0)",
        f"D({zeros};1 )",
        f"T( {zeros} ;0)",
        f"D({coset.replace('/', '.0/', 1)};0)",
        f"D({zeros.replace('0', '0.5', 1)};0)",
        f"D({zeros.replace('0', '1/' + str(2 * len(labels) + 1), 1)};0)",
        f"N({zeros};{zeros})",
        f"N({coset},{zeros})",
        f"D(,{coset};0)",
        f"D({coset},;0)",
        f"T({coset},,,;1)",
        f"N(,{coset},{zeros})",
        f"N({coset};,{zeros})",
        f"D({zeros.replace(',', ',,', 1)};0)",
        f"N({zeros},{coset},)",
    ]


def big_label(rng, kind, det):
    """A random canonical label of the rank-1 lattice ``[[det]]``, its cosets
    drawn from the whole range or from the top of it."""
    draw = lambda: rng.choice([rng.randrange(det), det - 1 - rng.randrange(8)])
    if kind == "N":
        a, b = draw(), draw()
        while a == b:
            b = rng.randrange(det)
        return f"N({Fraction(min(a, b), det)},{Fraction(max(a, b), det)})"
    return f"{kind}({Fraction(draw(), det)};{rng.randrange(2)})"


# argv that argparse answers itself, before any subcommand runs
PARSER_PATHS = [
    [],
    ["bogus", "a1.json"],
    ["decompose", "a1.json"],
    ["modules", "a1.json", "--bogus"],
    ["--help"],
    ["fuse", "--help"],
    ["--version"],
]


def invocations(rng):
    """Every argv of the sweep, in order; writes each Gram file first."""
    yield from PARSER_PATHS
    for name, gram in LATTICES.items():
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"gram": gram}, fh)
        for sub in ("modules", "qdims") if name in NO_RING else ("modules", "qdims", "table", "verify"):
            for fmt in ([], ["--json"], ["--csv"]) if sub == "table" else ([], ["--json"]):
                yield [sub, path] + fmt
        labels = labels_of(path)
        by_kind = {k: [m for m in labels if m[0] == k] for k in "DNT"}
        kinds = [k for k in "DNT" if by_kind[k]]
        for i, ka in enumerate(kinds):
            for kb in kinds[i:]:
                for _ in range(FUSE_PER_KIND_PAIR):
                    a, b = rng.choice(by_kind[ka]), rng.choice(by_kind[kb])
                    for pair in ((a, b), (moved(a, rng), moved(b, rng))):
                        for fmt in ([], ["--json"]):
                            yield ["fuse", path, *pair] + fmt
                a, b = rng.choice(by_kind[ka]), rng.choice(by_kind[kb])
                yield ["fuse", path, moved(a, rng, FAR), moved(b, rng, FAR)]
        for k in kinds:
            for _ in range(DECOMPOSE_PER_KIND):
                m = rng.choice(by_kind[k])
                for label in (m, moved(m, rng)):
                    for fmt in ([], ["--json"]):
                        yield ["decompose", path, label] + fmt
        for bad in malformed(labels, len(gram)):
            yield ["decompose", path, bad]
            yield ["fuse", path, labels[0], bad]
    for name, gram in BIG_LATTICES.items():
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"gram": gram}, fh)
        for sub in ("modules", "qdims", "table", "verify"):
            yield [sub, path]
        yield ["fuse", path, "D(1999999999/2000000000;0)", "T(1999999998/2000000000;1)"]
        for ka, kb in ("DD", "DN", "DT", "NN", "NT"):
            for _ in range(FUSE_PER_KIND_PAIR):
                a, b = big_label(rng, ka, gram[0][0]), big_label(rng, kb, gram[0][0])
                for pair in ((a, b), (moved(a, rng), moved(b, rng))):
                    for fmt in ([], ["--json"]):
                        yield ["fuse", path, *pair] + fmt
    for name, gram in VERIFY_LATTICES.items():
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"gram": gram}, fh)
        yield ["verify", path]
        yield ["verify", path, "--json"]
    for name, data in BAD_FILES.items():
        with open(name, "wb") as fh:
            fh.write(data)
    for name in ["missing.json", *BAD_FILES]:
        yield ["modules", name]
        yield ["qdims", name, "--json"]
        yield ["fuse", name, "D(0;0)", "D(0;0)"]
        yield ["decompose", name, "D(0;0)"]
        yield ["table", name, "--csv"]
        yield ["verify", name]


def main():
    start = time.perf_counter()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in invocations(random.Random(SEED)):
                invoke(argv)
                count += 1
        finally:
            os.chdir(cwd)
    sys.stdout.flush()
    print(f"{count} invocations in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
