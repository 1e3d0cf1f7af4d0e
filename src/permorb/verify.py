"""Machine-checkable verification suite for the orbifold fusion ring.

Every check is exact.  The associativity sweep runs on the dense tensor in
float64 matrix products: all entries are small non-negative integers, so
every intermediate value is far below 2**53 and the floating comparison is
exact integer arithmetic in disguise.

Checks return a ``CheckResult`` with a witness string on failure; the
functions take the fusion table as an argument so that deliberately
corrupted tensors can be fed in as negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .base import TwistedSplit, qdim_base
from .lattice import GramLattice, Modulus, canonicalize, vec_add
from .orbifold import (
    Diag,
    FusionTable,
    NonDiag,
    Twisted,
    decompose_module,
    dual_orbifold,
    enumerate_modules,
    fuse_orbifold,
    fusion_table,
    glob,
    induce,
    nondiag,
    qdim_orbifold,
)
from .qsqrt import QSqrt
from .render import format_label

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


def check_module_count(lat: GramLattice) -> CheckResult:
    labels = enumerate_modules(lat)
    l = lat.det
    expected = (l * l + 7 * l) // 2
    counts = {
        Diag: sum(isinstance(m, Diag) for m in labels),
        NonDiag: sum(isinstance(m, NonDiag) for m in labels),
        Twisted: sum(isinstance(m, Twisted) for m in labels),
    }
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
    lat = table.lattice
    unit = table.index[Diag(lat.dual_mod_lattice[0], 0)]
    n = len(table.labels)
    slice_ = table.tensor[unit]
    ok = np.array_equal(slice_, np.eye(n, dtype=table.tensor.dtype))
    detail = ""
    if not ok:
        b, c = np.argwhere(slice_ != np.eye(n, dtype=table.tensor.dtype))[0]
        detail = f"unit x {format_label(table.labels[b])} hit {format_label(table.labels[c])}"
    return CheckResult("identity", ok, detail)


def check_commutativity(table: FusionTable) -> CheckResult:
    diff = np.argwhere(table.tensor != table.tensor.swapaxes(0, 1))
    if len(diff) == 0:
        return CheckResult("commutativity", True)
    a, b, c = diff[0]
    return CheckResult(
        "commutativity",
        False,
        f"{format_label(table.labels[a])} x {format_label(table.labels[b])}"
        f" differs from the swapped product at {format_label(table.labels[c])}",
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
            b, c, d = np.argwhere(lhs != rhs)[0]
            labels = table.labels
            return CheckResult(
                "associativity",
                False,
                f"witness ({format_label(labels[a])}, {format_label(labels[b])},"
                f" {format_label(labels[c])}) -> {format_label(labels[d])}:"
                f" {int(lhs[b, c, d])} vs {int(rhs[b, c, d])}",
            )
    return CheckResult("associativity", True)


def check_qdim_homomorphism(table: FusionTable) -> CheckResult:
    lat = table.lattice
    # qdims as integer (rational, sqrt(l)) parts; QSqrt already folds sqrt(l)
    # into the rational part when l is a perfect square
    qdims = [qdim_orbifold(lat, m) for m in table.labels]
    qx = np.array([int(q.a) for q in qdims], dtype=np.int64)
    qy = np.array([int(q.b) for q in qdims], dtype=np.int64)
    t = table.tensor.astype(np.int64)
    # sums of products of qdims, kept as pairs (rational, sqrt(l)) parts
    sum_x = t @ qx
    sum_y = t @ qy
    lhs_x = np.outer(qx, qx) + lat.det * np.outer(qy, qy)
    lhs_y = np.outer(qx, qy) + np.outer(qy, qx)
    bad = np.argwhere((lhs_x != sum_x) | (lhs_y != sum_y))
    if len(bad) == 0:
        return CheckResult("qdim_homomorphism", True)
    i, j = bad[0]
    return CheckResult(
        "qdim_homomorphism",
        False,
        f"{format_label(table.labels[i])} x {format_label(table.labels[j])}:"
        f" product of qdims differs from qdim of the product",
    )


def check_qdim_lower_bound(lat: GramLattice) -> CheckResult:
    one = QSqrt.of(1, lat.det)
    for m in enumerate_modules(lat):
        if not (qdim_orbifold(lat, m) >= one):
            return CheckResult("qdim_lower_bound", False, f"{format_label(m)} has qdim < 1")
    return CheckResult("qdim_lower_bound", True)


def check_duality_pairing(table: FusionTable) -> CheckResult:
    lat = table.lattice
    labels = table.labels
    unit = table.index[Diag(lat.dual_mod_lattice[0], 0)]
    col = table.tensor[:, :, unit]
    expected = np.zeros_like(col)
    for i, m in enumerate(labels):
        expected[i, table.index[dual_orbifold(lat, m)]] = 1
    diff = np.argwhere(col != expected)
    if len(diff) == 0:
        return CheckResult("duality_pairing", True)
    i, j = diff[0]
    return CheckResult(
        "duality_pairing",
        False,
        f"N({format_label(labels[i])}, {format_label(labels[j])}; unit) = {int(col[i, j])}",
    )


def check_dual_antiautomorphism(table: FusionTable) -> CheckResult:
    lat = table.lattice
    labels = table.labels
    perm = np.array([table.index[dual_orbifold(lat, m)] for m in labels])
    dualized = table.tensor[np.ix_(perm, perm, perm)]
    diff = np.argwhere(dualized != table.tensor)
    if len(diff) == 0:
        return CheckResult("dual_antiautomorphism", True)
    a, b, c = diff[0]
    return CheckResult(
        "dual_antiautomorphism",
        False,
        f"dual of product differs at ({format_label(labels[a])},"
        f" {format_label(labels[b])}; {format_label(labels[c])})",
    )


def check_glob(lat: GramLattice) -> CheckResult:
    expected = QSqrt.of(4 * lat.det * lat.det, lat.det)
    got = glob(lat)
    return CheckResult(
        "glob_identity", got == expected, "" if got == expected else f"glob = {got}, expected {expected}"
    )


def check_decomposition_qdims(lat: GramLattice) -> CheckResult:
    scale = QSqrt.of(2**lat.dim, lat.det)
    for m in enumerate_modules(lat):
        total = QSqrt.of(0, lat.det)
        for _vl, part in decompose_module(lat, m):
            total = total + QSqrt.of(1, lat.det) * qdim_base(lat, part)
        if total != scale * qdim_orbifold(lat, m):
            return CheckResult(
                "decomposition_qdims", False, f"{format_label(m)} decomposes with qdim sum {total}"
            )
    return CheckResult("decomposition_qdims", True)


def check_induction_roundtrip(lat: GramLattice) -> CheckResult:
    for m in enumerate_modules(lat):
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


def _literal_nondiag(lat: GramLattice, a: NonDiag, b: NonDiag) -> Optional[dict]:
    """Verbatim case split for a fixed orientation of both unordered pairs.

    Returns ``None`` when no case of the stated table covers this
    orientation (its transpose is covered instead).
    """
    lam, mu, gam, dlt = a.lam, a.mu, b.lam, b.mu
    red = lambda x: canonicalize(lat, x, Modulus.DUAL_MOD_LATTICE)
    same1 = red(vec_add(lam, gam)) == red(vec_add(mu, dlt))
    same2 = red(vec_add(mu, gam)) == red(vec_add(lam, dlt))
    out: dict = {}

    def add(lab):
        out[lab] = out.get(lab, 0) + 1

    if same1 and same2:
        for eps in (0, 1):
            add(Diag(red(vec_add(lam, gam)), eps))
            add(Diag(red(vec_add(mu, gam)), eps))
    elif not same1 and same2:
        add(nondiag(lat, vec_add(lam, gam), vec_add(mu, dlt)))
        for eps in (0, 1):
            add(Diag(red(vec_add(mu, gam)), eps))
    elif not same1 and not same2:
        add(nondiag(lat, vec_add(lam, gam), vec_add(mu, dlt)))
        add(nondiag(lat, vec_add(mu, gam), vec_add(lam, dlt)))
    else:
        return None
    return out


def check_nondiag_unified_vs_literal(lat: GramLattice) -> CheckResult:
    nd = [m for m in enumerate_modules(lat) if isinstance(m, NonDiag)]
    for a in nd:
        for b in nd:
            unified = fuse_orbifold(lat, a, b)
            orientations = [
                (NonDiag(a.lam, a.mu), NonDiag(b.lam, b.mu)),
                (NonDiag(a.mu, a.lam), NonDiag(b.lam, b.mu)),
                (NonDiag(a.lam, a.mu), NonDiag(b.mu, b.lam)),
                (NonDiag(a.mu, a.lam), NonDiag(b.mu, b.lam)),
            ]
            covered = 0
            for oa, ob in orientations:
                literal = _literal_nondiag(lat, oa, ob)
                if literal is None:
                    continue
                covered += 1
                if literal != unified:
                    return CheckResult(
                        "nondiag_unified_vs_literal",
                        False,
                        f"{format_label(a)} x {format_label(b)}: literal case split"
                        f" disagrees with the unified rule",
                    )
            if covered == 0:
                return CheckResult(
                    "nondiag_unified_vs_literal",
                    False,
                    f"no orientation of {format_label(a)} x {format_label(b)} is covered",
                )
    return CheckResult("nondiag_unified_vs_literal", True)


def check_multiplicities(table: FusionTable) -> CheckResult:
    bad = np.argwhere(table.tensor > 1)
    if len(bad) == 0:
        return CheckResult("multiplicities_are_01", True)
    a, b, c = bad[0]
    labels = table.labels
    return CheckResult(
        "multiplicities_are_01",
        False,
        f"N({format_label(labels[a])}, {format_label(labels[b])};"
        f" {format_label(labels[c])}) = {int(table.tensor[a, b, c])}",
    )


def run_checks(lat: GramLattice, table: FusionTable) -> List[CheckResult]:
    return [
        check_module_count(lat),
        check_identity(table),
        check_commutativity(table),
        check_associativity(table),
        check_qdim_homomorphism(table),
        check_qdim_lower_bound(lat),
        check_duality_pairing(table),
        check_dual_antiautomorphism(table),
        check_glob(lat),
        check_decomposition_qdims(lat),
        check_induction_roundtrip(lat),
        check_nondiag_unified_vs_literal(lat),
        check_multiplicities(table),
    ]


def verify(lat: GramLattice, max_l: int = 64) -> Report:
    """Run the whole suite; failures are report entries, never exceptions."""
    table = fusion_table(lat, max_l=max_l)
    return Report(lat, run_checks(lat, table))
