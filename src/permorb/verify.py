"""Machine-checkable verification suite for the orbifold fusion ring.

Every check is exact and reads the table's nonzero entries, about ``2 n^2``
of them, the one form ``FusionTable`` stores; none builds an array of
``n^3`` cells.  Commutativity, the dual anti-automorphism and the covariance
of a simple current compare each entry with the table at its image under a
bijection of cells.  The associativity sweep and the NonDiag check run only
on the orbit representatives of the simple currents that are covariant
coset translations, searched once per table; both stay exact, as the
failing labels and the failing partners of each are unions of orbits.
Associativity sums the product terms of both sides by flat index in int64;
the NonDiag check rebuilds each representative's rows from an ``l x l``
coset addition table.  A failing check names its first failing cell in index
order; every check takes the table as its argument, so that deliberately
corrupted tables can be fed in as negative controls.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .base import TwistedSplit
from .lattice import GramLattice
from .orbifold import (
    Diag,
    FusionTable,
    NonDiag,
    Twisted,
    decompose_module,
    entry_count,
    enumerate_modules,
    fusion_table,
    glob,
    guard_memory,
    induce,
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
    cells: np.ndarray,
    detail: Callable[[int, Sequence[str]], str],
) -> CheckResult:
    """Pass when ``cells``, flat indices ``(a*n + b)*n + c`` of the table, is
    empty; otherwise fail with ``detail(k, names)`` for the smallest cell
    ``k``, ``names`` the labels ``a``, ``b`` and ``c`` of that cell."""
    if not len(cells):
        return CheckResult(name, True)
    k, n = int(cells.min()), len(table.labels)
    names = [format_label(table.labels[i]) for i in np.unravel_index(k, (n, n, n))]
    return CheckResult(name, False, detail(k, names))


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
    n, unit = len(table.labels), _unit(table)
    at = slice(table.ptr[unit * n], table.ptr[unit * n + n])  # the entries of the unit's row
    cells = unit * n * n + np.arange(n) * (n + 1)  # the cells (unit, b, b)
    # the entries that are off the diagonal or not 1, and the diagonal cells with no entry
    off = table.v[at] != (table.b[at] == table.c[at])
    wrong = np.concatenate([table.cells[at][off], cells[table.at(cells) == 0]])
    return _witness(table, "identity", wrong, lambda k, s: f"unit x {s[1]} hit {s[2]}")


def _moved(table: FusionTable, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The cells of the nonzero entries whose value differs from the table's
    at their images ``(a, b, c)`` under a bijection of cells, one image per
    entry, and those images.  For an involution these are exactly the cells
    whose value differs from their image's: a differing cell that holds 0 is
    the image of a differing entry."""
    n = len(table.labels)
    image = (a * n + b) * n + c
    moved = table.at(image) != table.v
    return np.concatenate([table.cells[moved], image[moved]])


def check_commutativity(table: FusionTable) -> CheckResult:
    detail = lambda k, s: f"{s[0]} x {s[1]} differs from the swapped product at {s[2]}"
    return _witness(table, "commutativity", _moved(table, table.b, table.a, table.c), detail)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The indices ``lo[i] .. hi[i] - 1`` for all ``i`` in one array, and the ``i`` of each."""
    owner = np.repeat(np.arange(len(lo)), hi - lo)
    return np.arange(len(owner)) + (hi - np.cumsum(hi - lo))[owner], owner


def _covariant(table: FusionTable, s: np.ndarray) -> bool:
    """Whether ``N[s a, b, s c] == N[a, s b, s c] == N[a, b, c]`` for all
    ``a, b, c``: the permutation ``s`` is covariant in both multiplicand
    slots.  Compared on the nonzero entries only: each map is a bijection of
    cells, so when it sends every nonzero entry to an equal one, it sends the
    zeros to zeros too."""
    sc = s[table.c]
    return not any(len(_moved(table, x, y, sc)) for x, y in ((s[table.a], table.b), (table.a, s[table.b])))


def _coset_columns(table: FusionTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``l x l`` coset addition table and the table's column of
    ``D(c; eps)`` and of ``N(u, v) = N(v, u)``, by coset index."""
    lat = table.lattice
    reps = lat.dual_mod_lattice
    d_col = np.array([[table.index[Diag(r, eps)] for eps in (0, 1)] for r in reps])
    n_col = np.zeros((len(reps), len(reps)), dtype=np.intp)
    for u, v in zip(*np.triu_indices(len(reps), 1)):
        n_col[u, v] = n_col[v, u] = table.index[NonDiag(reps[u], reps[v])]
    disc = lat.discriminant
    add = lat.coset_index((disc[:, None] + disc) % lat.divisors).astype(np.intp)
    return add, d_col, n_col


def _translates(s: np.ndarray, g: int, add: np.ndarray, d_col: np.ndarray, n_col: np.ndarray) -> bool:
    """Whether ``s`` sends each ``N(u, v)`` to ``N(u + g, v + g)`` and each
    pair ``{D(x; 0), D(x; 1)}`` onto ``{D(x + g; 0), D(x + g; 1)}``."""
    u, v = np.triu_indices(len(add), 1)
    pairs = np.array_equal(np.sort(s[d_col], 1), np.sort(d_col[add[g]], 1))
    return pairs and np.array_equal(s[n_col[u, v]], n_col[add[g, u], add[g, v]])


_REPRESENTATIVES = weakref.WeakKeyDictionary()  # of each live table, dropped with it


def _orbit_representatives(table: FusionTable) -> np.ndarray:
    """The smallest label index of each orbit of the group generated by the
    table's simple currents, in increasing order, searched once per table.

    A simple current ``J = D(g; eps)`` is a row whose every pair ``(J, b)``
    has exactly one entry, equal to 1, at ``c = s[b]`` for a permutation
    ``s``, acting as ``x -> J x``.  It is used only when it would merge
    orbits, ``s`` is the literal translation by ``g`` and the table is
    covariant under ``s``.
    """
    if table not in _REPRESENTATIVES:
        _REPRESENTATIVES[table] = _representative_search(table)
    return _REPRESENTATIVES[table]


def _representative_search(table: FusionTable) -> np.ndarray:
    n = len(table.labels)
    add, d_col, n_col = _coset_columns(table)
    root = list(range(n))  # union-find forest; each root is its orbit's minimum
    orbit = np.arange(n)  # the root of each label, refreshed after each merge

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    single = (np.diff(table.ptr).reshape(n, n) == 1).all(1)  # the rows with one entry per pair
    for (g, _eps), j in np.ndenumerate(d_col):
        at = table.ptr[j * n : j * n + n]  # the entries of (j, b) for every b, when the row is single
        if not single[j] or not (table.v[at] == 1).all() or np.array_equal(orbit[s := table.c[at]], orbit):
            continue
        if len(np.unique(s)) < n or not _translates(s, g, add, d_col, n_col) or not _covariant(table, s):
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
    n, reps, ptr, c, v = len(table.labels), _orbit_representatives(table), table.ptr, table.c, table.v
    rows, _ = _ranges(ptr[reps * n], ptr[reps * n + n])  # N[b,c,f] for the representatives b
    for a in reps:
        # the left side: N[a,b,e] for the representatives b, times every N[e,c,d]
        left, _ = _ranges(ptr[a * n + reps], ptr[a * n + reps + 1])
        ecd, i = _ranges(ptr[c[left] * n], ptr[c[left] * n + n])
        lhs = ((table.b[left[i]] * n + table.b[ecd]) * n + c[ecd], v[left[i]] * v[ecd])
        # the right side: N[b,c,f] times every N[a,f,d]
        afd, i = _ranges(ptr[a * n + c[rows]], ptr[a * n + c[rows] + 1])
        rhs = ((table.a[rows[i]] * n + table.b[rows[i]]) * n + c[afd], v[rows[i]] * v[afd])
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
    lat, n = table.lattice, len(table.labels)
    q = qdims_by_kind(lat)
    qx, qy = np.array([q[type(m)] for m in table.labels], dtype=np.int64).T
    # sum_c N[a,b,c] qdim(c) for every pair, the differences of running sums
    # over the entries; sums of products of qdims are kept as pairs
    # (rational, sqrt(l)) parts
    run, sums = np.zeros(len(table.v) + 1, dtype=np.int64), []
    for w in (qx, qy):
        np.cumsum(table.v * w[table.c], out=run[1:])
        sums.append(np.diff(run[table.ptr]).reshape(n, n))
    lhs_x = np.outer(qx, qx) + lat.det * np.outer(qy, qy)
    lhs_y = np.outer(qx, qy) + np.outer(qy, qx)
    wrong = np.flatnonzero((lhs_x != sums[0]) | (lhs_y != sums[1])) * n  # the cell (a, b, 0) of each pair
    detail = lambda k, s: f"{s[0]} x {s[1]}: product of qdims differs from qdim of the product"
    return _witness(table, "qdim_homomorphism", wrong, detail)


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
    n, unit, d = len(table.labels), _unit(table), table.dual
    at = table.c == unit
    cells = (np.arange(n) * n + d) * n + unit  # the cells (a, dual a; unit)
    off = table.v[at] != (table.b[at] == d[table.a[at]])
    wrong = np.concatenate([table.cells[at][off], cells[table.at(cells) == 0]])
    detail = lambda k, s: f"N({s[0]}, {s[1]}; unit) = {int(table.at(k))}"
    return _witness(table, "duality_pairing", wrong, detail)


def check_dual_antiautomorphism(table: FusionTable) -> CheckResult:
    d = table.dual
    detail = lambda k, s: f"dual of product differs at ({s[0]}, {s[1]}; {s[2]})"
    return _witness(table, "dual_antiautomorphism", _moved(table, d[table.a], d[table.b], d[table.c]), detail)


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
    expected row must equal the table's.  Only the NonDiag orbit
    representatives are swept, and exactly: a current ``s`` used there is the
    literal translation by some ``g``, under which the table is covariant, so
    row ``s i`` is row ``i`` moved by ``s``; all four coset sums move by
    ``g``, so the case masks stay and the expected row moves by ``s`` too.
    The failing rows, each with the same failing partners, are thus a union
    of orbits, and the first is a representative.
    """
    add, d_col, n_col = _coset_columns(table)
    gam, dlt = np.triu_indices(len(add), 1)
    nd = n_col[gam, dlt]  # the NonDiag labels N(gam, dlt), in label order
    n = len(table.labels)
    offset = np.arange(len(nd)) * n  # of each NonDiag row in a flattened expected block
    for k in np.flatnonzero(np.isin(nd, _orbit_representatives(table))):
        i, lam, mu = nd[k], gam[k], dlt[k]
        lg, md, mg, ld = add[lam, gam], add[mu, dlt], add[mu, gam], add[lam, dlt]
        # swapping lam with mu, or gam with dlt, permutes the four sums
        orientations = [(lg, md, mg, ld), (mg, ld, lg, md), (ld, mg, md, lg), (md, lg, ld, mg)]
        expected = np.zeros((4, len(nd), n), dtype=np.int16)
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
        # the table's rows N(i, j) for the NonDiag j, filled from the entries
        got = np.zeros((len(nd), n), dtype=np.int16)
        at, owner = _ranges(table.ptr[i * n + nd], table.ptr[i * n + nd + 1])
        got[owner, table.c[at]] = table.v[at]
        bad = (np.array(covered) & (expected != got).any(2)).any(0)
        if bad.any():
            names = f"{format_label(table.labels[i])} x {format_label(table.labels[nd[bad.argmax()]])}"
            detail = f"{names}: literal case split disagrees with the unified rule"
            return CheckResult("nondiag_unified_vs_literal", False, detail)
    return CheckResult("nondiag_unified_vs_literal", True)


def check_multiplicities(table: FusionTable) -> CheckResult:
    detail = lambda k, s: f"N({s[0]}, {s[1]}; {s[2]}) = {int(table.at(k))}"
    return _witness(table, "multiplicities_are_01", table.cells[table.v > 1], detail)


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
    # peak RSS above the import baseline, per table entry: 109, 123 and 228
    # bytes at l = 64 on ranks 1, 4 and 6, 104 at l = 80 on rank 1
    guard_memory("verify", labels_size(lat), entry_count(lat) * (90 + 25 * lat.dim))
    return Report(lat, run_checks(fusion_table(lat)))
