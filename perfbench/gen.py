"""Seeded input generation for the benchmark workloads.

Stdlib only, and independent of permorb: dual vectors come from the exact
inverse of the Gram matrix (``x = G^-1 n + m`` with integer ``n`` and a
random lattice shift ``m``), so every generated label is valid but, in
general, not in the canonical form permorb prints.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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


def _diag(*entries: int) -> List[List[int]]:
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


# The lattices of the query stream: rank 1 to 8, discriminant order 1 to 1000.
QUERY_LATTICES: Dict[str, List[List[int]]] = {
    "e8": E8,
    "a2": [[2, -1], [-1, 2]],
    "odd7": [[2, 1], [1, 4]],
    "d4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
    "a1x6": _diag(2, 2, 2, 2, 2, 2),
    "r3": [[4, 1, 0], [1, 6, 1], [0, 1, 8]],
    "z200": [[200]],
    "z1000": [[1000]],
}

# The lattice of the query stream on which the traced run also runs the
# whole-ring subcommands (``table`` and ``verify``).
QUERY_RING_LATTICE = "odd7"

TABLE_GRAM = _diag(2, 2, 2, 2)
VERIFY_GRAM = [[16]]

# ``modules`` and ``qdims`` print (l^2 + 7l)/2 lines; above this order they
# would dominate the stream.
LIST_MAX_L = 200

KIND_PAIRS = ("DD", "DN", "DT", "NN", "NT", "TT")
FUSES_PER_PAIR = 2

Vec = Tuple[Fraction, ...]


def _inverse_and_det(gram: Sequence[Sequence[int]]) -> Tuple[List[List[Fraction]], Fraction]:
    d = len(gram)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(gram)]
    det_ = Fraction(1)
    for c in range(d):
        p = next(r for r in range(c, d) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det_ = -det_
        det_ *= a[c][c]
        inv_p = 1 / a[c][c]
        a[c] = [x * inv_p for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[d:] for row in a], det_


def fmt_vec(x: Vec) -> str:
    return ",".join(str(c) for c in x)


class LatticeGen:
    """Random non-canonical dual vectors and labels of one lattice."""

    def __init__(self, name: str, gram: Sequence[Sequence[int]]):
        self.name = name
        self.gram = [list(r) for r in gram]
        self.dim = len(gram)
        self.inv, det_ = _inverse_and_det(gram)
        self.det = int(det_)

    def _apply_inv(self, n: Sequence[int]) -> Vec:
        return tuple(sum((r[j] * n[j] for j in range(self.dim)), Fraction(0)) for r in self.inv)

    def in_lattice(self, x: Vec) -> bool:
        return all(c.denominator == 1 for c in x)

    def in_dual(self, x: Vec) -> bool:
        return all(
            sum((self.gram[i][j] * x[j] for j in range(self.dim)), Fraction(0)).denominator == 1
            for i in range(self.dim)
        )

    def dual_vector(self, rng: random.Random) -> Vec:
        n = [rng.randrange(-self.det, self.det + 1) for _ in range(self.dim)]
        m = [rng.randrange(-2, 3) for _ in range(self.dim)]
        return tuple(c + s for c, s in zip(self._apply_inv(n), m))

    def lattice_vector(self, rng: random.Random) -> Vec:
        return tuple(Fraction(rng.randrange(-3, 4)) for _ in range(self.dim))

    def distinct_pair(self, rng: random.Random) -> Tuple[Vec, Vec]:
        """Two dual vectors in different classes of ``L*/L`` (needs l > 1)."""
        x = self.dual_vector(rng)
        while True:
            y = self.dual_vector(rng)
            if not self.in_lattice(tuple(a - b for a, b in zip(x, y))):
                return x, y

    def label(self, rng: random.Random, kind: str) -> str:
        if kind == "N":
            x, y = self.distinct_pair(rng)
            sep = ";" if rng.random() < 0.5 else ","
            return f"N({fmt_vec(x)}{sep}{fmt_vec(y)})"
        return f"{kind}({fmt_vec(self.dual_vector(rng))};{rng.randrange(2)})"

    def malformed(self, rng: random.Random) -> str:
        """A label the CLI must reject with exit code 2."""
        zero = fmt_vec(tuple(Fraction(0) for _ in range(self.dim)))
        choices = [
            f"X({zero};0)",
            f"D({zero})",
            f"T({zero};2)",
            f"D({zero},0;1)",
            f"D(1/0{',0' * (self.dim - 1)};0)",
            f"T(q{',0' * (self.dim - 1)};1)",
        ]
        if self.det > 1:
            x = self.dual_vector(rng)
            choices.append(f"N({fmt_vec(x)},{fmt_vec(x)})")
        # a rational vector outside L*: G x is not integral
        for den in range(2, 50):
            x = (Fraction(1, den),) + tuple(Fraction(0) for _ in range(self.dim - 1))
            if not self.in_dual(x):
                choices.append(f"D({fmt_vec(x)};0)")
                break
        return rng.choice(choices)


def write_gram(path: str, gram: Sequence[Sequence[int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"gram": [list(r) for r in gram]}, fh)


# A query is (lattice name, argv after the Gram path, kind tag).
Query = Tuple[str, Tuple[str, ...], str]


def query_round(rng: random.Random, gens: Dict[str, LatticeGen]) -> List[Query]:
    """One round: the same mix of query kinds every time, fresh labels, shuffled."""
    out: List[Query] = []
    for name, g in gens.items():
        for pair in KIND_PAIRS:
            if "N" in pair and g.det == 1:
                continue  # a unimodular lattice has no off-diagonal modules
            for _ in range(FUSES_PER_PAIR):
                out.append((name, ("fuse", g.label(rng, pair[0]), g.label(rng, pair[1])), "fuse." + pair))
        out.append((name, ("decompose", g.label(rng, "T")), "decompose"))
        out.append((name, ("decompose", g.label(rng, "N" if g.det > 1 else "D")), "decompose"))
        if g.det <= LIST_MAX_L:
            out.append((name, ("modules",), "modules"))
            out.append((name, ("qdims",), "qdims"))
        out.append((name, ("fuse", g.malformed(rng), g.label(rng, "D")), "malformed"))
    rng.shuffle(out)
    return out


def make_inputs(workload: str, seed: int, work: str, rounds: int) -> dict:
    """Write the Gram files of a workload into ``work`` and build its op list.

    ``table-a1x4`` and ``verify-z16`` run one fixed input, so the seed only
    matters for ``cli-queries``, where it draws the labels and their order.
    """
    os.makedirs(work, exist_ok=True)
    if workload == "table-a1x4":
        path = os.path.join(work, "a1x4.json")
        write_gram(path, TABLE_GRAM)
        return {"grams": {"a1x4": path}, "argv": ["table", path, "--csv"]}
    if workload == "verify-z16":
        path = os.path.join(work, "z16.json")
        write_gram(path, VERIFY_GRAM)
        return {"grams": {"z16": path}, "argv": ["verify", path]}
    rng = random.Random(seed)
    gens = {name: LatticeGen(name, gram) for name, gram in QUERY_LATTICES.items()}
    grams = {}
    for name, g in gens.items():
        grams[name] = os.path.join(work, f"{name}.json")
        write_gram(grams[name], g.gram)
    return {"grams": grams, "gens": gens, "rounds": [query_round(rng, gens) for _ in range(rounds)]}
