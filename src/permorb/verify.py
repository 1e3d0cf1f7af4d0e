"""Machine-checkable verification suite for the orbifold fusion ring.

Every check is exact.  The associativity sweep runs on the dense tensor in
float64 matrix products: all entries are small non-negative integers, so
every intermediate value is far below 2**53 and the floating comparison is
exact integer arithmetic in disguise.

Checks return a ``CheckResult`` with a witness string on failure; every
check takes the fusion table as its argument so that deliberately
corrupted tensors can be fed in as negative controls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import add
from typing import Callable, List, Optional, Sequence, Tuple

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
    label_sort_key,
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
    mask: np.ndarray,
    detail: Callable[[Tuple[int, ...], Sequence[str]], str],
) -> CheckResult:
    """Pass when ``mask`` has no true entry; otherwise fail with
    ``detail(idx, names)`` for the first true entry ``idx``, where ``names``
    are the formatted labels at those indices."""
    hits = np.argwhere(mask)
    if len(hits) == 0:
        return CheckResult(name, True)
    idx = tuple(int(i) for i in hits[0])
    return CheckResult(name, False, detail(idx, [format_label(table.labels[i]) for i in idx]))


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
    return _witness(
        table,
        "commutativity",
        table.tensor != table.tensor.swapaxes(0, 1),
        lambda i, s: f"{s[0]} x {s[1]} differs from the swapped product at {s[2]}",
    )


def check_associativity(table: FusionTable) -> CheckResult:
    n = len(table.labels)
    t = table.tensor.astype(np.float64)
    flat = t.reshape(n, n * n)
    for a in range(n):
        # lhs[b,c,d] = sum_e N[a,b,e] N[e,c,d];  rhs[b,c,d] = sum_f N[b,c,f] N[a,f,d]
        lhs = (t[a] @ flat).reshape(n, n, n)
        rhs = t.reshape(n * n, n) @ t[a]
        rhs = rhs.reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            name_a = format_label(table.labels[a])
            return _witness(
                table,
                "associativity",
                lhs != rhs,
                lambda i, s: f"witness ({name_a}, {s[0]}, {s[1]}) -> {s[2]}:"
                f" {int(lhs[i])} vs {int(rhs[i])}",
            )
    return CheckResult("associativity", True)


def check_qdim_homomorphism(table: FusionTable) -> CheckResult:
    lat = table.lattice
    q = qdims_by_kind(lat)
    qx, qy = np.array([q[type(m)] for m in table.labels], dtype=np.int64).T
    t = table.tensor.astype(np.int64)
    # sums of products of qdims, kept as pairs (rational, sqrt(l)) parts
    sum_x = t @ qx
    sum_y = t @ qy
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
    perm = _dual_perm(table)
    return _witness(
        table,
        "dual_antiautomorphism",
        table.tensor[np.ix_(perm, perm, perm)] != table.tensor,
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


def _literal_nondiag(lat: GramLattice, lam, mu, gam, dlt) -> Optional[Counter]:
    """Verbatim case split for ``N(lam, mu) x N(gam, dlt)`` in this fixed
    orientation of both unordered pairs, on Smith numerators.

    Returns ``None`` when no case of the stated table covers this
    orientation (its transpose is covered instead).
    """
    red = lambda x, y: lat.reduce(map(add, x, y))
    nd = lambda x, y: ("N", min(x, y), max(x, y))
    lam_gam, mu_dlt, mu_gam, lam_dlt = red(lam, gam), red(mu, dlt), red(mu, gam), red(lam, dlt)
    same1, same2 = lam_gam == mu_dlt, mu_gam == lam_dlt
    out: Counter = Counter()
    if same1 and same2:
        for eps in (0, 1):
            out[("D", lam_gam, eps)] += 1
            out[("D", mu_gam, eps)] += 1
    elif not same1 and same2:
        out[nd(lam_gam, mu_dlt)] += 1
        for eps in (0, 1):
            out[("D", mu_gam, eps)] += 1
    elif not same1 and not same2:
        out[nd(lam_gam, mu_dlt)] += 1
        out[nd(mu_gam, lam_dlt)] += 1
    else:
        return None
    return out


def check_nondiag_unified_vs_literal(table: FusionTable) -> CheckResult:
    """Every NonDiag x NonDiag row of the table against the literal case
    split, in all four orientations of the two pairs."""
    lat = table.lattice
    keys = [label_sort_key(lat, m) for m in table.labels]
    nd = [i for i, k in enumerate(keys) if k[0] == "N"]
    for i in nd:
        _, lam, mu = keys[i]
        for j in nd:
            _, gam, dlt = keys[j]
            row = table.tensor[i, j]
            unified = Counter({keys[c]: int(row[c]) for c in row.nonzero()[0]})
            orientations = [(lam, mu, gam, dlt), (mu, lam, gam, dlt), (lam, mu, dlt, gam), (mu, lam, dlt, gam)]
            literals = [x for x in (_literal_nondiag(lat, *o) for o in orientations) if x is not None]
            if literals and all(literal == unified for literal in literals):
                continue
            names = f"{format_label(table.labels[i])} x {format_label(table.labels[j])}"
            return CheckResult(
                "nondiag_unified_vs_literal",
                False,
                f"{names}: literal case split disagrees with the unified rule"
                if literals
                else f"no orientation of {names} is covered",
            )
    return CheckResult("nondiag_unified_vs_literal", True)


def check_multiplicities(table: FusionTable) -> CheckResult:
    t = table.tensor
    return _witness(
        table, "multiplicities_are_01", t > 1, lambda i, s: f"N({s[0]}, {s[1]}; {s[2]}) = {int(t[i])}"
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
    # the associativity sweep holds several float64 cubes
    guard_memory("verify", labels_size(lat), 36 * label_count(lat) ** 3)
    return Report(lat, run_checks(fusion_table(lat)))
