"""The traced run: spans around permorb's layer functions and per-layer metrics.

Two sources of spans:

* ``install``: while a CLI invocation runs, coarse module functions
  (``load_gram``, ``validate_lattice``, ``enumerate_modules``,
  ``fusion_table``, ``verify`` and each of its checks, ...) are replaced by
  timing wrappers, so the spans follow the real call path of ``cli.run``.
  Per-label functions are not wrapped; their cost is measured by
* ``micro``: direct calls of single-label functions on seeded samples, one
  span per batch with the call count ``n`` as an attribute.
"""

from __future__ import annotations

import importlib
import random
from typing import Dict, Optional

from checks import VERIFY_CHECKS
from gen import KIND_PAIRS, LatticeGen
from tracer import Tracer

MICRO_VECTORS = 200  # dual vectors per lattice for canonicalize/halve/parity
MICRO_LABELS = 40  # labels per lattice for parse/format/decompose
MICRO_FUSES = 6  # fusions per kind pair and lattice

SUBCOMMANDS = ("modules", "qdims", "fuse", "decompose", "table", "verify")


def _kind(m) -> str:
    return type(m).__name__[0]  # Diag, NonDiag, Twisted


def install(tr: Tracer) -> None:
    from permorb import cli, orbifold

    verify = importlib.import_module("permorb.verify")  # the package re-exports a function of that name
    check_names = [a for a in dir(verify) if a.startswith("check_")]
    table_attrs = lambda t: {"labels": len(t.labels), "nnz": int((t.tensor != 0).sum()), "bytes": int(t.tensor.nbytes)}
    tr.install(cli, "load_gram", "cli.load_gram")
    tr.install(cli, "validate_lattice", "lattice.validate_lattice")
    tr.install(cli, "parse_label", "cli.parse_label")
    tr.install(cli, "fuse_orbifold", "orbifold.fuse_orbifold",
               rename=lambda a, out: "orbifold.fuse_orbifold." + "".join(sorted(_kind(m) for m in a[1:3])))
    tr.install(cli, "decompose_module", "orbifold.decompose_module")
    tr.install(cli, "verify", "verify.verify")
    for mod in (cli, orbifold, verify):
        tr.install(mod, "enumerate_modules", "orbifold.enumerate_modules")
    for mod in (cli, verify):
        tr.install(mod, "fusion_table", "orbifold.fusion_table", annotate=table_attrs)
    for attr in check_names:
        tr.install(verify, attr, "verify.check", rename=lambda a, out: f"verify.{out.name}")


def micro(tr: Tracer, g: LatticeGen, gram_path: str, rng: random.Random) -> None:
    """Direct calls into each layer on seeded samples from one lattice."""
    from permorb import cli, render
    from permorb.characters import weight_parity_sign
    from permorb.lattice import Modulus, canonicalize, halve_mod_L, validate_lattice
    from permorb.orbifold import decompose_module, fuse_orbifold, induce

    name = g.name
    fresh = validate_lattice(g.gram)
    with tr.span("lattice.dual_reps", lattice=name):
        fresh.dual_mod_lattice
    vecs = [g.dual_vector(rng) for _ in range(MICRO_VECTORS)]
    cold = validate_lattice(g.gram)
    for phase in ("cold", "warm"):
        with tr.span(f"lattice.canonicalize_{phase}", lattice=name, n=len(vecs)):
            for x in vecs:
                canonicalize(cold, x, Modulus.DUAL_MOD_LATTICE)
    with tr.span("lattice.halve_mod_L", lattice=name, n=len(vecs)):
        for x in vecs:
            halve_mod_L(cold, x)
    alphas = [g.lattice_vector(rng) for _ in vecs]
    with tr.span("characters.weight_parity_sign", lattice=name, n=len(vecs)):
        for lam, alpha in zip(vecs, alphas):
            weight_parity_sign(cold, lam, alpha)

    kinds = "DNT" if g.det > 1 else "DT"
    texts = [g.label(rng, kinds[i % len(kinds)]) for i in range(MICRO_LABELS)]
    lat = cli.load_gram(gram_path)
    with tr.span("cli.parse_label", lattice=name, n=len(texts)):
        labels = [cli.parse_label(lat, s) for s in texts]
    with tr.span("render.format_label", lattice=name, n=len(labels)):
        for m in labels:
            render.format_label(m)
    with tr.span("orbifold.decompose_module", lattice=name, n=len(labels)):
        parts = [decompose_module(lat, m) for m in labels]
    constituents = [w for m, ws in zip(labels, parts) if _kind(m) == "T" for w in ws]
    with tr.span("orbifold.induce", lattice=name, n=len(constituents)):
        for w in constituents:
            induce(lat, w)
    for pair in KIND_PAIRS:
        if any(k not in kinds for k in pair):
            continue
        ab = [(cli.parse_label(lat, g.label(rng, pair[0])), cli.parse_label(lat, g.label(rng, pair[1])))
              for _ in range(MICRO_FUSES)]
        with tr.span(f"orbifold.fuse_orbifold.{pair}", lattice=name, n=len(ab)):
            for a, b in ab:
                fuse_orbifold(lat, a, b)


def metrics(tr: Tracer, overhead_s: float) -> Dict[str, tuple]:
    """Every per-layer metric except ``cli.import_s`` (measured in fresh
    interpreters by run.py), as ``name -> (value, unit)``."""
    med = tr.median_s
    us = tr.per_call_us
    out: Dict[str, tuple] = {
        "lattice.validate_s": (med("lattice.validate_lattice"), "s"),
        "lattice.dual_reps_s": (med("lattice.dual_reps"), "s"),
        "lattice.canonicalize_cold_us": (us("lattice.canonicalize_cold"), "us"),
        "lattice.canonicalize_warm_us": (us("lattice.canonicalize_warm"), "us"),
        "lattice.halve_us": (us("lattice.halve_mod_L"), "us"),
        "characters.weight_parity_us": (us("characters.weight_parity_sign"), "us"),
        "orbifold.enumerate_s": (med("orbifold.enumerate_modules"), "s"),
    }
    for pair in KIND_PAIRS:
        out[f"orbifold.fuse_us.{pair}"] = (us(f"orbifold.fuse_orbifold.{pair}"), "us")
    tables = [s for s in tr.spans if s[3] == "orbifold.fusion_table"]
    out["orbifold.fusion_table_s"] = (med("orbifold.fusion_table"), "s")
    out["orbifold.decompose_us"] = (us("orbifold.decompose_module"), "us")
    out["orbifold.induce_us"] = (us("orbifold.induce"), "us")
    for key in ("labels", "nnz", "bytes"):
        metric = "orbifold.labels" if key == "labels" else f"orbifold.table_{key}"
        out[metric] = (tables[-1][6][key] if tables else None, "count" if key != "bytes" else "B")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = (med(f"verify.{check}"), "s")
    out["verify.total_s"] = (med("verify.verify"), "s")
    out["render.format_label_us"] = (us("render.format_label"), "us")
    out["cli.load_gram_s"] = (med("cli.load_gram"), "s")
    out["cli.parse_label_us"] = (us("cli.parse_label"), "us")
    for sub in SUBCOMMANDS:
        d = med(f"cli.run.{sub}")
        out[f"cli.run_ms.{sub}"] = (None if d is None else 1e3 * d, "ms")
    # derived: the table invocation minus the fusion_table call inside it
    render_s: Optional[float] = None
    for run in (s for s in tr.spans if s[3] == "cli.run.table"):
        inner = tr.children(run, "orbifold.fusion_table")
        if inner:
            render_s = (run[5] - run[4]) - (inner[0][5] - inner[0][4])
    out["cli.table_render_s"] = (render_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (len(tr.spans), "count")
    return out
