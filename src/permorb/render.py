"""Text and JSON rendering of labels.

The compact text grammar is::

    D(coords;eps) | N(coords,coords) | T(coords;eps)

with ``coords`` a comma-separated list of rationals in lowest terms
(integers printed without a denominator).  Printed labels re-parse to equal
canonical labels, and identical inputs produce byte-identical output.

``format_label`` prints one label object.  What the command line prints in
bulk is formatted from integer Smith numerators by ``format_numerators``,
with no ``Fraction``: label listings (``label_names``, ``label_docs``) from
one string per class of ``L*/L`` in the order of ``enumerate_modules``, a
fusion product from its keys and a decomposition from its ``Constituents``.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .characters import format_character
from .lattice import GramLattice, format_vector
from .orbifold import Constituents, Diag, Key, NonDiag, OrbifoldLabel, in_label_order

__all__ = ["format_label", "format_numerators", "format_keys", "label_names", "label_docs", "format_qdim",
           "constituent_docs"]

# the text of a label of each kind letter from its class string and its
# parity (D, T) or its second class string (N)
_FORMATS = {"D": "D({};{})", "N": "N({},{})", "T": "T({};{})"}
_NO_TAIL = dict.fromkeys(_FORMATS, "")


def format_label(m: OrbifoldLabel) -> str:
    if isinstance(m, NonDiag):
        return _FORMATS["N"].format(format_vector(m.lam), format_vector(m.mu))
    return _FORMATS["D" if isinstance(m, Diag) else "T"].format(format_vector(m.lam), m.eps)


def format_numerators(lat: GramLattice, k, m: int = 1) -> List[Tuple[str, ...]]:
    """The coordinate strings of ``lat.from_numerators(row, m)`` for each row
    of the numerator array ``k``, which joined by commas are its
    ``format_vector``: each entry of ``scaled_representatives`` over
    ``e = d_d``, reduced by their gcd."""
    e = lat.elementary_divisors[-1]
    num = lat.scaled_representatives(k, m)
    g = np.gcd(num, e)
    nums, dens = (num // g).ravel().tolist(), (e // g).ravel().tolist()
    flat = [str(a) if b == 1 else f"{a}/{b}" for a, b in zip(nums, dens)]
    return list(zip(*[iter(flat)] * lat.dim))


def format_keys(lat: GramLattice, keys: Sequence[Key]) -> List[str]:
    """``format_label`` of the label of each ``label_sort_key`` in ``keys``."""
    rows = [y for kind, x, last in keys for y in ((x, last) if kind == "N" else (x,))]
    text = map(",".join, format_numerators(lat, rows))
    return [_FORMATS[kind].format(next(text), next(text) if kind == "N" else last) for kind, _x, last in keys]


def label_names(lat: GramLattice, tail: Mapping[str, str] = _NO_TAIL) -> List[str]:
    """``format_label`` of every label of ``enumerate_modules``, in that
    order, each followed by the text ``tail`` gives for its kind letter (a
    ``str.format`` template, so braces must be doubled).  Formats each class
    of ``L*/L`` once; builds no label."""
    classes = list(map(",".join, format_numerators(lat, lat.discriminant)))
    d, n, t = ((f + tail[k]).format for k, f in _FORMATS.items())
    return in_label_order(classes, d, n, t)


def label_docs(lat: GramLattice) -> List[dict]:
    """The JSON document of every label of ``enumerate_modules``, in that
    order, with its ``label`` text.  The documents share one tuple of
    coordinate strings per class of ``L*/L``, which JSON writes as a list."""
    classes = [(",".join(c), c) for c in format_numerators(lat, lat.discriminant)]
    d = lambda x, eps: {"kind": "diag", "lambda": x[1], "eps": eps, "label": _FORMATS["D"].format(x[0], eps)}
    n = lambda x, y: {"kind": "nondiag", "lambda": x[1], "mu": y[1], "label": _FORMATS["N"].format(x[0], y[0])}
    t = lambda x, eps: {"kind": "twisted", "lambda": x[1], "eps": eps, "label": _FORMATS["T"].format(x[0], eps)}
    return in_label_order(classes, d, n, t)


def format_qdim(q: Tuple[int, int], l: int) -> str:
    """The text of ``a + b*sqrt(l)`` for ``q = (a, b)``: ``a``, ``sqrt(l)``,
    ``b*sqrt(l)``, ``a+sqrt(l)`` or ``a+b*sqrt(l)``, with ``l`` never simplified."""
    a, b = q
    if b == 0:
        return str(a)
    root = f"sqrt({l})" if b == 1 else f"{b}*sqrt({l})"
    return root if a == 0 else f"{a}+{root}"


def constituent_docs(lat: GramLattice, c: Constituents) -> List[dict]:
    """The JSON document ``{"vl": ..., "vlplus": ...}`` of each constituent."""
    coords = format_numerators(lat, c.vl if c.kind == "T" else np.concatenate([c.vl, c.part]), 2)
    vl, lam = [{"kind": "lattice", "lambda": x} for x in coords[: len(c.vl)]], coords[len(c.vl) :]
    signs = None if c.flip is None else ["-" if f else "+" for f in c.flip.tolist()]
    if c.kind == "T":
        chi = map(format_character, c.part.tolist())
        parts = [{"kind": "twisted_split", "chi": x, "sign": s} for x, s in zip(chi, signs)]
    elif c.kind == "D":
        parts = [{"kind": "untwisted_split", "lambda": x, "sign": s} for x, s in zip(lam, signs)]
    else:
        parts = [{"kind": "untwisted_nonsplit", "lambda": x} for x in lam]
    return [{"vl": v, "vlplus": p} for v, p in zip(vl, parts)]
