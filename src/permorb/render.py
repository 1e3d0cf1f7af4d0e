"""Text and JSON rendering of labels.

The compact text grammar is::

    D(coords;eps) | N(coords,coords) | T(coords;eps)

with ``coords`` a comma-separated list of rationals in lowest terms
(integers printed without a denominator).  Printed labels re-parse to equal
canonical labels, and identical inputs produce byte-identical output.

``format_label`` prints one label.  A listing of all ``n = (l^2 + 7l)/2``
labels (``label_names``) is named from one string per class of ``L*/L``
instead: each class is formatted once and every name is put together from
those ``l`` strings, in the order of ``enumerate_modules``.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from .base import NonSplit, Split, VlLabel, VlPlusLabel
from .characters import format_character
from .lattice import GramLattice, Vector, format_vector
from .orbifold import Diag, NonDiag, OrbifoldLabel, in_label_order

__all__ = ["format_label", "label_names", "format_qdim", "label_json", "vlplus_json", "vl_json"]

# the text of a label of each kind letter from its class string and its
# parity (D, T) or its second class string (N)
_FORMATS = {"D": "D({};{})", "N": "N({},{})", "T": "T({};{})"}
_NO_TAIL = dict.fromkeys(_FORMATS, "")


def format_label(m: OrbifoldLabel) -> str:
    if isinstance(m, NonDiag):
        return _FORMATS["N"].format(format_vector(m.lam), format_vector(m.mu))
    return _FORMATS["D" if isinstance(m, Diag) else "T"].format(format_vector(m.lam), m.eps)


def label_names(lat: GramLattice, tail: Mapping[str, str] = _NO_TAIL) -> List[str]:
    """``format_label`` of every label of ``enumerate_modules``, in that
    order, each followed by the text ``tail`` gives for its kind letter (a
    ``str.format`` template, so braces must be doubled).  Formats each class
    of ``L*/L`` once; builds no label."""
    classes = [format_vector(x) for x in lat.dual_mod_lattice]
    d, n, t = ((f + tail[k]).format for k, f in _FORMATS.items())
    return in_label_order(classes, d, n, t)


def format_qdim(q: Tuple[int, int], l: int) -> str:
    """The text of ``a + b*sqrt(l)`` for ``q = (a, b)``: ``a``, ``sqrt(l)``,
    ``b*sqrt(l)``, ``a+sqrt(l)`` or ``a+b*sqrt(l)``, with ``l`` never simplified."""
    a, b = q
    if b == 0:
        return str(a)
    root = f"sqrt({l})" if b == 1 else f"{b}*sqrt({l})"
    return root if a == 0 else f"{a}+{root}"


def _coords_json(x: Vector):
    return [str(c) for c in x]


def label_json(m: OrbifoldLabel) -> dict:
    if isinstance(m, Diag):
        return {"kind": "diag", "lambda": _coords_json(m.lam), "eps": m.eps}
    if isinstance(m, NonDiag):
        return {"kind": "nondiag", "lambda": _coords_json(m.lam), "mu": _coords_json(m.mu)}
    return {"kind": "twisted", "lambda": _coords_json(m.lam), "eps": m.eps}


def vl_json(v: VlLabel) -> dict:
    return {"kind": "lattice", "lambda": _coords_json(v.coords)}


def vlplus_json(m: VlPlusLabel) -> dict:
    if isinstance(m, NonSplit):
        return {"kind": "untwisted_nonsplit", "lambda": _coords_json(m.coords)}
    if isinstance(m, Split):
        return {
            "kind": "untwisted_split",
            "lambda": _coords_json(m.coords),
            "sign": "+" if m.sign > 0 else "-",
        }
    return {
        "kind": "twisted_split",
        "chi": format_character(m.chi),
        "sign": "+" if m.sign > 0 else "-",
    }
