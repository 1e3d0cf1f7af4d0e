"""Machine-checkable verification suite for the orbifold fusion ring.

Every check is exact.  The associativity sweep runs only on the orbit
representatives of the table's covariant simple currents, in float64 matrix
products: every entry is an int16, so a sum of n products is an integer below
n * 2**30, far below 2**53, and the floating comparison is exact integer
arithmetic in disguise.  The NonDiag check rebuilds the expected rows of one
NonDiag label against all NonDiag labels at once from an ``l x l`` coset
addition table, and the qdim check sums the int16 table per run of one label
kind in int64; no check copies the whole table to a wider dtype.  The
commutativity and dual checks compare the table with itself one row at a time.

Checks return a ``CheckResult`` with a witness string on failure; every
check takes the fusion table as its argument so that deliberately
corrupted tensors can be fed in as negative controls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .base import TwistedSplit
from .lattice import GramLattice
from .orbifold import (
    Diag,
    FusionTable,
    NonDiag,
    Twisted,
    decompose_module,
    dual_orbifold,
    enumerate_modules,
    fusion_table,
    glob,
    guard_memory,
    induce,
    label_count,
    labels_size,
    qdims_by_kind,
)
from .render import format_label, format_qdim

__all__ = ["CheckResult", "Report", "verify", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    lattice: GramLattice
    results: List[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _witness(
    table: FusionTable,
    name: str,
    rows: Iterable[np.ndarray],
    detail: Callable[[Tuple[int, ...], Sequence[str]], str],
) -> CheckResult:
    """Pass when no row of ``rows``, a mask array or a generator of its rows,
    has a true entry; otherwise fail with ``detail(idx, names)`` for the first
    true entry ``idx`` in index order, ``names`` the labels at those indices."""
    for a, row in enumerate(rows):
        if row.any():
            idx = (a, *(int(i) for i in np.argwhere(row)[0]))
            return CheckResult(name, False, detail(idx, [format_label(table.labels[i]) for i in idx]))
    return CheckResult(name, True)


def _unit(table: FusionTable) -> int:
    return table.index[Diag(table.lattice.dual_mod_lattice[0], 0)]


def _dual_perm(table: FusionTable) -> np.ndarray:
    return np.array([table.index[dual_orbifold(table.lattice, m)] for m in table.labels])


def check_module_count(table: FusionTable) -> CheckResult:
    labels = enumerate_modules(table.lattice)
    l = table.lattice.det
    expected = (l * l + 7 * l) // 2
    counts = Counter(type(m) for m in labels)
    ok = (
        len(labels) == expected
        and len(set(labels)) == expected
        and counts[Diag] == 2 * l
        and counts[Twisted] == 2 * l
        and counts[NonDiag] == (l * l - l) // 2
    )
    return CheckResult(
        "module_count",
        ok,
        "" if ok else f"got {len(labels)} labels, expected {expected}",
    )


def check_identity(table: FusionTable) -> CheckResult:
    eye = np.eye(len(table.labels), dtype=table.tensor.dtype)
    return _witness(
        table, "identity", table.tensor[_unit(table)] != eye, lambda i, s: f"unit x {s[0]} hit {s[1]}"
    )


def check_commutativity(table: FusionTable) -> CheckResult:
    t = table.tensor
    return _witness(
        table,
        "commutativity",
        (t[a] != t[:, a] for a in range(len(t))),
        lambda i, s: f"{s[0]} x {s[1]} differs from the swapped product at {s[2]}",
    )


def _covariant(t: np.ndarray, s: np.ndarray) -> bool:
    """Whether ``N[s a, b, s c] == N[a, s b, s c] == N[a, b, c]`` for all
    ``a, b, c``: the permutation ``s`` is covariant in both multiplicand
    slots.  Compared one row ``a`` at a time, so no extra cube is held."""
    return all(
        np.array_equal(t[s[a]][:, s], t[a]) and np.array_equal(t[a][s][:, s], t[a]) for a in range(len(t))
    )


def _orbit_representatives(t: np.ndarray) -> np.ndarray:
    """The smallest label index of each orbit of the group generated by the
    table's covariant simple currents, in increasing order.

    A simple current ``J`` is a row ``t[J]`` that is a 0/1 permutation
    matrix, acting as ``x -> J x``.  Its covariance is tested only when it
    would merge orbits; a current that fails the test is not used.
    """
    n = len(t)
    eye = np.eye(n, dtype=t.dtype)
    root = list(range(n))  # union-find forest; each root is its orbit's minimum

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for row in t:
        s = row.argmax(1)
        if not (np.array_equal(row, eye[s]) and np.array_equal(np.sort(s), np.arange(n))):
            continue
        if all(find(x) == find(y) for x, y in enumerate(s)) or not _covariant(t, s):
            continue
        for x, y in enumerate(s):
            x, y = sorted((find(x), find(y)))
            root[y] = x
    return np.array([x for x in range(n) if find(x) == x])


def check_associativity(table: FusionTable) -> CheckResult:
    """``sum_e N[a,b,e] N[e,c,d] == sum_f N[b,c,f] N[a,f,d]`` for all labels,
    swept with ``a`` and ``b`` over orbit representatives only.

    This is exact: for permutations ``P``, ``Q`` covariant in both slots, both
    sides at ``(P a, Q b, c, d)`` equal those at ``(a, b, c, Q^-1 P^-1 d)``.
    So the failing ``a``, and for a fixed ``a`` the failing ``b``, are unions
    of orbits, and the first witness in label order lies on representatives.
    """
    t = table.tensor
    n = len(t)
    reps = _orbit_representatives(t)
    # rhs[b,c,d] = sum_f N[b,c,f] N[a,f,d] for the representatives b
    t_reps = t[reps].reshape(-1, n).astype(np.float64)
    for a in reps:
        # lhs[b,c,d] = sum_e N[a,b,e] N[e,c,d], over the e that a x b reaches
        row = t[a, reps]
        es = np.flatnonzero(row.any(0))
        lhs = row[:, es].astype(np.float64) @ t[es].reshape(len(es), n * n).astype(np.float64)
        rhs = t_reps @ t[a].astype(np.float64)
        lhs, rhs = lhs.reshape(-1, n, n), rhs.reshape(-1, n, n)
        if not np.array_equal(lhs, rhs):
            i = tuple(np.argwhere(lhs != rhs)[0])
            s = [format_label(table.labels[x]) for x in (a, reps[i[0]], i[1], i[2])]
            detail = f"witness ({s[0]}, {s[1]}, {s[2]}) -> {s[3]}: {int(lhs[i])} vs {int(rhs[i])}"
            return CheckResult("associativity", False, detail)
    return CheckResult("associativity", True)


def check_qdim_homomorphism(table: FusionTable) -> CheckResult:
    lat = table.lattice
    q = qdims_by_kind(lat)
    kinds = [type(m) for m in table.labels]
    qx, qy = np.array([q[k] for k in kinds], dtype=np.int64).T
    # the labels come in runs of one kind, so each sum of N[a,b,c] qdim(c)
    # is a sum over runs, counted without a wider copy of the table
    starts = [c for c, k in enumerate(kinds) if c == 0 or k is not kinds[c - 1]]
    ends = starts[1:] + [len(kinds)]
    runs = np.stack([table.tensor[:, :, a:b].sum(2, dtype=np.int64) for a, b in zip(starts, ends)], 2)
    # sums of products of qdims, kept as pairs (rational, sqrt(l)) parts
    sum_x = runs @ qx[starts]
    sum_y = runs @ qy[starts]
    lhs_x = np.outer(qx, qx) + lat.det * np.outer(qy, qy)
    lhs_y = np.outer(qx, qy) + np.outer(qy, qx)
    return _witness(
        table,
        "qdim_homomorphism",
        (lhs_x != sum_x) | (lhs_y != sum_y),
        lambda i, s: f"{s[0]} x {s[1]}: product of qdims differs from qdim of the product",
    )


def _at_least_one(q: Tuple[int, int], l: int) -> bool:
    """Whether ``a + b*sqrt(l) >= 1`` for ``q = (a, b)``, decided in integers."""
    x, y = q[0] - 1, q[1]  # the sign of x + y*sqrt(l)
    if (x >= 0) == (y >= 0):
        return x >= 0
    return x * x >= l * y * y if x >= 0 else l * y * y >= x * x


def check_qdim_lower_bound(table: FusionTable) -> CheckResult:
    l = table.lattice.det
    low = {kind for kind, q in qdims_by_kind(table.lattice).items() if not _at_least_one(q, l)}
    for m in table.labels:
        if type(m) in low:
            return CheckResult("qdim_lower_bound", False, f"{format_label(m)} has qdim < 1")
    return CheckResult("qdim_lower_bound", True)


def check_duality_pairing(table: FusionTable) -> CheckResult:
    col = table.tensor[:, :, _unit(table)]
    expected = np.zeros_like(col)
    expected[np.arange(len(table.labels)), _dual_perm(table)] = 1
    return _witness(
        table, "duality_pairing", col != expected, lambda i, s: f"N({s[0]}, {s[1]}; unit) = {int(col[i])}"
    )


def check_dual_antiautomorphism(table: FusionTable) -> CheckResult:
    t, perm = table.tensor, _dual_perm(table)
    return _witness(
        table,
        "dual_antiautomorphism",
        (t[perm[a]][perm][:, perm] != t[a] for a in range(len(t))),
        lambda i, s: f"dual of product differs at ({s[0]}, {s[1]}; {s[2]})",
    )


def check_glob(table: FusionTable) -> CheckResult:
    l = table.lattice.det
    got = glob(table.lattice)
    ok = got == (4 * l * l, 0)
    return CheckResult("glob_identity", ok, "" if ok else f"glob = {format_qdim(got, l)}, expected {4 * l * l}")


def check_decomposition_qdims(table: FusionTable) -> CheckResult:
    lat = table.lattice
    q = qdims_by_kind(lat)
    for m in table.labels:
        parts = [q[type(part)] for _vl, part in decompose_module(lat, m)]
        total = (sum(a for a, _b in parts), sum(b for _a, b in parts))
        if total != tuple(2**lat.dim * c for c in q[type(m)]):
            detail = f"{format_label(m)} decomposes with qdim sum {format_qdim(total, lat.det)}"
            return CheckResult("decomposition_qdims", False, detail)
    return CheckResult("decomposition_qdims", True)


def check_induction_roundtrip(table: FusionTable) -> CheckResult:
    lat = table.lattice
    for m in table.labels:
        if not isinstance(m, Twisted):
            continue
        parts = decompose_module(lat, m)
        if len(parts) != 2**lat.dim:
            return CheckResult(
                "induction_roundtrip", False, f"{format_label(m)} has {len(parts)} constituents"
            )
        if not all(isinstance(p, TwistedSplit) for _v, p in parts):
            return CheckResult(
                "induction_roundtrip", False, f"{format_label(m)} has a non-twisted constituent"
            )
        for w in parts:
            back = induce(lat, w)
            if back != m:
                return CheckResult(
                    "induction_roundtrip",
                    False,
                    f"constituent of {format_label(m)} induces to"
                    f" {format_label(back) if back else 'nothing'}",
                )
    return CheckResult("induction_roundtrip", True)


def check_nondiag_unified_vs_literal(table: FusionTable) -> CheckResult:
    """Every NonDiag x NonDiag row of the table against the literal case
    split, in all four orientations of the two pairs.

    For ``N(lam, mu) x N(gam, dlt)`` in one orientation, with the four coset
    sums ``lg = lam + gam``, ``md = mu + dlt``, ``mg = mu + gam`` and
    ``ld = lam + dlt``, the stated table reads:

    * ``lg == md`` and ``mg == ld``: ``D(lg; 0) + D(lg; 1) + D(mg; 0) + D(mg; 1)``;
    * ``lg != md`` and ``mg == ld``: ``N(lg, md) + D(mg; 0) + D(mg; 1)``;
    * ``lg != md`` and ``mg != ld``: ``N(lg, md) + N(mg, ld)``;
    * ``lg == md`` and ``mg != ld`` is not covered; its transpose is.

    One row ``N(lam, mu)`` at a time, every ``N(gam, dlt)`` at once: each
    case is a mask over the ``gam, dlt``, and each covered orientation's
    expected row must equal the table's.
    """
    lat = table.lattice
    reps = lat.dual_mod_lattice
    coset = {r: c for c, r in enumerate(reps)}
    # the table's column of D(c; eps) and of N(u, v) = N(v, u), by coset index
    d_col = np.array([[table.index[Diag(r, eps)] for eps in (0, 1)] for r in reps])
    n_col = np.zeros((len(reps), len(reps)), dtype=np.intp)
    for u, v in zip(*np.triu_indices(len(reps), 1)):
        n_col[u, v] = n_col[v, u] = table.index[NonDiag(reps[u], reps[v])]
    disc = lat.discriminant
    add = lat.coset_index((disc[:, None] + disc) % lat.divisors).astype(np.intp)
    nd = np.array([i for i, m in enumerate(table.labels) if isinstance(m, NonDiag)], dtype=np.intp)
    cosets = [[coset[table.labels[j].lam], coset[table.labels[j].mu]] for j in nd]
    gam, dlt = np.array(cosets, dtype=np.intp).reshape(-1, 2).T
    n = len(table.labels)
    offset = np.arange(len(nd)) * n  # of each NonDiag row in a flattened expected block
    for i in nd:
        lam, mu = coset[table.labels[i].lam], coset[table.labels[i].mu]
        lg, md, mg, ld = add[lam, gam], add[mu, dlt], add[mu, gam], add[lam, dlt]
        # swapping lam with mu, or gam with dlt, permutes the four sums
        orientations = [(lg, md, mg, ld), (mg, ld, lg, md), (ld, mg, md, lg), (md, lg, ld, mg)]
        expected = np.zeros((4, len(nd), n), dtype=table.tensor.dtype)
        covered, cells = [], []
        for o, (x, y, z, w) in enumerate(orientations):
            same1, same2 = x == y, z == w
            # orientation 2 swaps same1 and same2, so it covers what orientation 1 does not
            covered.append(~same1 | same2)
            terms = [(same1 & same2, d_col[x, 0]), (same1 & same2, d_col[x, 1])]
            terms += [(same2, d_col[z, 0]), (same2, d_col[z, 1])]
            terms += [(~same1, n_col[x, y]), (~same1 & ~same2, n_col[z, w])]
            cells += [o * len(nd) * n + (offset + col)[mask] for mask, col in terms]
        np.add.at(expected.reshape(-1), np.concatenate(cells), 1)
        bad = (np.array(covered) & (expected != table.tensor[i, nd]).any(2)).any(0)
        if bad.any():
            names = f"{format_label(table.labels[i])} x {format_label(table.labels[nd[bad.argmax()]])}"
            detail = f"{names}: literal case split disagrees with the unified rule"
            return CheckResult("nondiag_unified_vs_literal", False, detail)
    return CheckResult("nondiag_unified_vs_literal", True)


def check_multiplicities(table: FusionTable) -> CheckResult:
    t = table.tensor
    return _witness(
        table,
        "multiplicities_are_01",
        (t[a] > 1 for a in range(len(t))),
        lambda i, s: f"N({s[0]}, {s[1]}; {s[2]}) = {int(t[i])}",
    )


def run_checks(table: FusionTable) -> List[CheckResult]:
    return [
        check_module_count(table),
        check_identity(table),
        check_commutativity(table),
        check_associativity(table),
        check_qdim_homomorphism(table),
        check_qdim_lower_bound(table),
        check_duality_pairing(table),
        check_dual_antiautomorphism(table),
        check_glob(table),
        check_decomposition_qdims(table),
        check_induction_roundtrip(table),
        check_nondiag_unified_vs_literal(table),
        check_multiplicities(table),
    ]


def verify(lat: GramLattice) -> Report:
    """Run the whole suite; failures are report entries, never exceptions."""
    # peak RSS above the import baseline, measured at l = 16, 20 and 24, was
    # 10.5-11.1 n^3 bytes while the qdim check multiplied an int64 copy of the
    # table; it now sums the int16 table by label kind, and the peak at l = 24
    # is 5.6 n^3, set by the associativity sweep.  14 n^3 stays until refitted
    guard_memory("verify", labels_size(lat), 14 * label_count(lat) ** 3)
    return Report(lat, run_checks(fusion_table(lat)))
