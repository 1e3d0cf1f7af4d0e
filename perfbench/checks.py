"""Output checks; every failed check counts one failed operation.

The quantum dimensions used here are the theory's (D = 1, N = 2,
T = sqrt(l)), computed by the benchmark from the label kind, not by
permorb.  Labels are re-parsed with permorb's own parser on a lattice
object separate from the one the CLI built.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Tuple

# sha256 of ``permorb table a1x4.json --csv`` (Gram diag(2,2,2,2)), recorded
# from the code the benchmark was introduced with.
A1X4_CSV_SHA256 = "5fdbb8efbd385322ade51994878696da59886d915a4d24aea5c906976df6420d"

VERIFY_CHECKS = (
    "module_count",
    "identity",
    "commutativity",
    "associativity",
    "qdim_homomorphism",
    "qdim_lower_bound",
    "duality_pairing",
    "dual_antiautomorphism",
    "glob_identity",
    "decomposition_qdims",
    "induction_roundtrip",
    "nondiag_unified_vs_literal",
    "multiplicities_are_01",
)

# qdim as (rational part, coefficient of sqrt(l))
_QDIM = {"D": (1, 0), "N": (2, 0), "T": (0, 1)}


def _mul(p: Tuple[int, int], q: Tuple[int, int], l: int) -> Tuple[int, int]:
    return (p[0] * q[0] + l * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _fold(p: Tuple[int, int], l: int) -> Tuple[int, int]:
    r = math.isqrt(l)
    return (p[0] + r * p[1], 0) if r * r == l else p


def _qdim_text(kind: str, l: int) -> str:
    if kind != "T":
        return str(_QDIM[kind][0])
    r = math.isqrt(l)
    return str(r) if r * r == l else f"sqrt({l})"


def check_table(rc: int, out: str, err: str) -> Optional[str]:
    if rc != 0 or err:
        return f"exit {rc}: {err.strip()[:200]}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != A1X4_CSV_SHA256:
        return f"CSV digest {digest} != {A1X4_CSV_SHA256}"
    return None


def check_csv_header(rc: int, out: str, err: str) -> Optional[str]:
    """A ``table --csv`` on a lattice without a recorded digest."""
    if rc != 0 or err or not out.startswith("a,b,c,multiplicity\r\n"):
        return f"exit {rc}: {err.strip()[:200]}"
    return None


def check_verify(rc: int, out: str, err: str) -> Optional[str]:
    want = [f"PASS {name}" for name in VERIFY_CHECKS]
    got = out.splitlines()
    if rc != 0 or err or got != want:
        return f"exit {rc}, {sum(l.startswith('PASS') for l in got)}/13 PASS: {err.strip()[:200]}"
    return None


class QueryChecker:
    """Checks the output of single ``cli.run`` queries of the query stream."""

    def __init__(self, grams: Dict[str, str], dets: Dict[str, int], dims: Dict[str, int]):
        from permorb import cli, render

        self._cli = cli
        self._format = render.format_label
        self._grams = grams
        self._dets = dets
        self._dims = dims
        self._lattices: Dict[str, object] = {}
        self._verified: set = set()

    def _reparse_failure(self, name: str, labels: List[str]) -> Optional[str]:
        lat = self._lattices.get(name)
        if lat is None:
            lat = self._lattices[name] = self._cli.load_gram(self._grams[name])
        for s in labels:
            back = self._format(self._cli.parse_label(lat, s))
            if back != s:
                return f"label {s} re-parses to {back}"
        return None

    def check(self, name: str, argv: Tuple[str, ...], rc: int, out: str, err: str) -> Optional[str]:
        sub = argv[0]
        l = self._dets[name]
        lines = out.splitlines()
        if rc != 0 or err:
            return f"exit {rc}: {err.strip()[:200]}"
        if sub == "fuse":
            if not lines:
                return "empty fusion product"
            want = _fold(_mul(_QDIM[argv[1][0]], _QDIM[argv[2][0]], l), l)
            got = [0, 0]
            for s in lines:
                got[0] += _QDIM[s[0]][0]
                got[1] += _QDIM[s[0]][1]
            if _fold(tuple(got), l) != want:
                return f"qdims of {' '.join(argv[1:])} sum to {got}, expected {want}"
            return self._reparse_failure(name, lines)
        if sub == "decompose":
            if len(lines) != 2 ** self._dims[name]:
                return f"{len(lines)} summands, expected {2 ** self._dims[name]}"
            for s in lines:
                doc = json.loads(s)
                if set(doc) != {"vl", "vlplus"}:
                    return f"bad summand {s[:80]}"
            return None
        n = (l * l + 7 * l) // 2
        if sub == "qdims":
            pairs = [s.split("  ") for s in lines]
            bad = [p for p in pairs if len(p) != 2 or p[1] != _qdim_text(p[0][:1], l)]
            if bad:
                return f"qdim line {bad[0]}"
            lines = [p[0] for p in pairs]
        if len(lines) != n or len(set(lines)) != n:
            return f"{len(lines)} labels ({len(set(lines))} distinct), expected {n}"
        # modules and qdims list the same labels on every call: re-parse a
        # given label list once
        key = (name, hashlib.sha256("\n".join(lines).encode()).digest())
        if key in self._verified:
            return None
        fail = self._reparse_failure(name, lines)
        if fail is None:
            self._verified.add(key)
        return fail

    @staticmethod
    def check_malformed(rc: int, out: str, err: str) -> Optional[str]:
        if rc != 2 or out or not err.startswith("error:") or "Traceback" in err:
            return f"malformed label: exit {rc}, stderr {err.strip()[:200]!r}"
        return None
