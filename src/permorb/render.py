"""Text and JSON rendering of labels.

The compact text grammar is::

    D(coords;eps) | N(coords,coords) | T(coords;eps)

with ``coords`` a comma-separated list of rationals in lowest terms
(integers printed without a denominator).  Printed labels re-parse to equal
canonical labels, and identical inputs produce byte-identical output.
"""

from __future__ import annotations

from typing import Tuple

from .base import NonSplit, Split, VlLabel, VlPlusLabel
from .characters import format_character
from .lattice import Vector, format_vector
from .orbifold import Diag, NonDiag, OrbifoldLabel

__all__ = ["format_label", "format_qdim", "label_json", "vlplus_json", "vl_json"]


def format_label(m: OrbifoldLabel) -> str:
    if isinstance(m, Diag):
        return f"D({format_vector(m.lam)};{m.eps})"
    if isinstance(m, NonDiag):
        return f"N({format_vector(m.lam)},{format_vector(m.mu)})"
    return f"T({format_vector(m.lam)};{m.eps})"


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
