"""Machine-checkable verification suite for the orbifold fusion ring.

Every check is exact.  The associativity sweep reads the table's nonzero
entries, about ``2 n^2`` of them: it runs only on the orbit representatives
of the table's covariant simple currents, lists every product term of both
sides with its flat index, and sums equal indices in int64, so it holds no
cube-sized temporary.  The NonDiag check rebuilds the expected rows of one
NonDiag label against all NonDiag labels at once from an ``l x l`` coset
addition table, and the qdim check sums the int16 table per run of one label
kind in int64; no check copies the whole table to a wider dtype.  The
commutativity and dual checks compare the table with itself one row at a time.

Checks return a ``CheckResult`` with a witness string on failure; every
check takes the fusion table as its argument so that deliberately
corrupted tensors can be fed in as negative controls.
"""

from __future__ import annotations

from collections import Counter, namedtuple
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


_Entries = namedtuple("_Entries", "n flat a b c v ptr")


def _entries(t: np.ndarray) -> _Entries:
    """The nonzero entries ``N[a, b, c] = v`` of the table ``t`` in index
    order, with the table flattened and ``ptr``: the entries of the pair
    ``(a, b)`` are ``ptr[a*n + b]:ptr[a*n + b + 1]``."""
    n, flat = len(t), t.reshape(-1)
    # row by row: a mask of the whole table would be n^3 bytes
    at = np.concatenate([np.flatnonzero(row != 0) + i * n * n for i, row in enumerate(t)])
    a, bc = np.divmod(at, n * n)
    ptr = np.searchsorted(at, np.arange(0, n**3 + 1, n))
    return _Entries(n, flat, a, *np.divmod(bc, n), flat[at].astype(np.int64), ptr)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The indices ``lo[i] .. hi[i] - 1`` for all ``i`` in one array, and the ``i`` of each."""
    owner = np.repeat(np.arange(len(lo)), hi - lo)
    return np.arange(len(owner)) + (hi - np.cumsum(hi - lo))[owner], owner


def _covariant(e: _Entries, s: np.ndarray) -> bool:
    """Whether ``N[s a, b, s c] == N[a, s b, s c] == N[a, b, c]`` for all
    ``a, b, c``: the permutation ``s`` is covariant in both multiplicand
    slots.  Compared on the nonzero entries only: each map is a bijection of
    cells, so when it sends every nonzero entry to an equal one, it sends the
    zeros to zeros too."""
    n, sc = e.n, s[e.c]
    return all(np.array_equal(e.flat[(x * n + y) * n + sc], e.v) for x, y in ((s[e.a], e.b), (e.a, s[e.b])))


def _orbit_representatives(e: _Entries) -> np.ndarray:
    """The smallest label index of each orbit of the group generated by the
    table's covariant simple currents, in increasing order.

    A simple current ``J`` is a row whose every pair ``(J, b)`` has exactly
    one entry, equal to 1, at ``c = s[b]`` for a permutation ``s``, acting as
    ``x -> J x``.  Its covariance is tested only when it would merge orbits; a
    current that fails the test is not used.
    """
    n = e.n
    root = list(range(n))  # union-find forest; each root is its orbit's minimum
    orbit = np.arange(n)  # the root of each label, refreshed after each merge

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for j in np.flatnonzero((np.diff(e.ptr).reshape(n, n) == 1).all(1)):
        at = e.ptr[j * n : j * n + n]
        s = e.c[at]
        if not (e.v[at] == 1).all() or len(np.unique(s)) < n:
            continue
        if np.array_equal(orbit[s], orbit) or not _covariant(e, s):
            continue
        for x, y in enumerate(s):
            x, y = sorted((find(x), find(y)))
            root[y] = x
        orbit = np.array([find(x) for x in range(n)])
    return np.flatnonzero(orbit == np.arange(n))


def check_associativity(table: FusionTable) -> CheckResult:
    """``sum_e N[a,b,e] N[e,c,d] == sum_f N[b,c,f] N[a,f,d]`` for all labels,
    swept with ``a`` and ``b`` over orbit representatives only.

    This is exact: for permutations ``P``, ``Q`` covariant in both slots, both
    sides at ``(P a, Q b, c, d)`` equal those at ``(a, b, c, Q^-1 P^-1 d)``.
    So the failing ``a``, and for a fixed ``a`` the failing ``b``, are unions
    of orbits, and the first witness in label order lies on representatives.
    For each ``a`` both sides are lists of product terms of nonzero entries,
    each with its key ``(b*n + c)*n + d``, and equal keys are summed in int64.
    """
    e = _entries(table.tensor)
    n, reps = e.n, _orbit_representatives(e)
    rows, _ = _ranges(e.ptr[reps * n], e.ptr[reps * n + n])  # N[b,c,f] for the representatives b
    for a in reps:
        # the left side: N[a,b,e] for the representatives b, times every N[e,c,d]
        left, _ = _ranges(e.ptr[a * n + reps], e.ptr[a * n + reps + 1])
        ecd, i = _ranges(e.ptr[e.c[left] * n], e.ptr[e.c[left] * n + n])
        lhs = ((e.b[left[i]] * n + e.b[ecd]) * n + e.c[ecd], e.v[left[i]] * e.v[ecd])
        # the right side: N[b,c,f] times every N[a,f,d]
        afd, i = _ranges(e.ptr[a * n + e.c[rows]], e.ptr[a * n + e.c[rows] + 1])
        rhs = ((e.a[rows[i]] * n + e.b[rows[i]]) * n + e.c[afd], e.v[rows[i]] * e.v[afd])
        keys, at = np.unique(np.concatenate([lhs[0], rhs[0]]), return_inverse=True)
        diff = np.zeros(len(keys), dtype=np.int64)
        np.add.at(diff, at, np.concatenate([lhs[1], -rhs[1]]))
        if diff.any():
            k = keys[diff.nonzero()[0][0]]
            sums = [int(val[key == k].sum()) for key, val in (lhs, rhs)]
            s = [format_label(table.labels[x]) for x in (a, *np.unravel_index(k, (n, n, n)))]
            detail = f"witness ({s[0]}, {s[1]}, {s[2]}) -> {s[3]}: {sums[0]} vs {sums[1]}"
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
    expected[np.arange(len(table.labels)), table.dual] = 1
    return _witness(
        table, "duality_pairing", col != expected, lambda i, s: f"N({s[0]}, {s[1]}; unit) = {int(col[i])}"
    )


def check_dual_antiautomorphism(table: FusionTable) -> CheckResult:
    t, perm = table.tensor, table.dual
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
    # peak RSS above the import baseline, measured at l = 16, 20, 24 and 32,
    # is 3.2, 2.7, 2.4 and 2.3 n^3 bytes: the int16 table and, at small l, the
    # nonzero entries; 4 n^3 is about 25% above the largest, so l <= 41 runs
    guard_memory("verify", labels_size(lat), 4 * label_count(lat) ** 3)
    return Report(lat, run_checks(fusion_table(lat)))
