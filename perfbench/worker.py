"""One fresh benchmark process: set up, run one workload, report raw samples.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``setup`` mode only times import plus input generation; ``run``
mode then runs the workload, untraced or traced, and prints one JSON line.
Every CLI invocation goes through ``permorb.cli.run`` in this process, with
stdout and stderr written to in-memory buffers.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import permorb.cli  # noqa: E402  first import of the process, timed as the CLI's import cost

_T1 = time.perf_counter()

import argparse  # noqa: E402  (every import below follows the timed one)
import contextlib
import ctypes
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from typing import List, Optional, Tuple

import checks
import gen

ROUNDS = 4  # query rounds generated up front; later rounds reuse them in order

# Host-speed correction (README, "Host noise").  In cli-queries the probe
# is taken before every PROBE_EVERY-th query; each query's latency is scaled
# by PROBE_REF_S over the median of the PROBE_WINDOW probes around it.
PROBE_REF_S = 2.2e-3  # 10th percentile of the probe on a 2-vCPU Xeon VM at 2.0 GHz
PROBE_EVERY = 4
PROBE_WINDOW = 4


def probe() -> float:
    """Time a fixed slice of pure-Python work of the kind the query stream
    does (Fraction arithmetic, hashing, str formatting, joins); no permorb."""
    t = time.perf_counter()
    acc = {}
    x = Fraction(3, 7)
    for i in range(1, 120):
        y = Fraction(i, 13) * x + Fraction(1, i)
        v = (y, Fraction(i % 5, 3), Fraction(-i, 11))
        acc[v] = ",".join(str(c) for c in v)
        x = y - int(y)
    return time.perf_counter() - t


def host_scales(probes: List[float], probe_at: List[int]) -> List[float]:
    """Per invocation, PROBE_REF_S over the median probe around it."""
    lo = PROBE_WINDOW // 2 - 1
    return [PROBE_REF_S / statistics.median(probes[max(0, b - lo):b + PROBE_WINDOW - lo]) for b in probe_at]


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    return ap.parse_args()


def blas_threads() -> Optional[int]:
    """Threads OpenBLAS (loaded by numpy) will use, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs the workload's units: one CLI invocation, or one query round."""

    def __init__(self, workload: str, inputs: dict):
        from permorb import cli

        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.tracer = None  # set while the traced run records spans
        self.failures: List[str] = []
        self.attempted = 0
        self.probes: Optional[List[float]] = None  # probe times, while probing
        self.probe_at: List[int] = []  # per query: index of the last probe before it
        if workload == "cli-queries":
            gens = inputs["gens"]
            self.checker = checks.QueryChecker(
                inputs["grams"], {k: g.det for k, g in gens.items()}, {k: g.dim for k, g in gens.items()}
            )

    def invoke(self, argv: List[str], **attrs) -> Tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.run.{argv[0]}", **attrs) if self.tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.run(argv)
        return time.perf_counter() - t, rc, out.getvalue(), err.getvalue()

    def checked(self, argv: List[str], check, **attrs) -> Optional[float]:
        """Invoke and check; returns the latency, or None if the op failed."""
        self.attempted += 1
        try:
            dt, rc, out, err = self.invoke(argv, **attrs)
            failure = check(rc, out, err)
        except Exception:  # an escaped exception is a failed op, not a crashed run
            failure = traceback.format_exc()
            dt = None
        if failure is not None:
            self.failures.append(f"{' '.join(argv)}: {failure}")
            return None
        return dt

    def unit(self, k: int) -> List[Optional[float]]:
        """Run unit ``k``; returns per-invocation latencies (None = failed)."""
        if self.workload == "table-a1x4":
            return [self.checked(self.inputs["argv"], checks.check_table)]
        if self.workload == "verify-z16":
            return [self.checked(self.inputs["argv"], checks.check_verify)]
        rounds = self.inputs["rounds"]
        lats = []
        for j, (name, rest, tag) in enumerate(rounds[k % len(rounds)]):
            if self.probes is not None and j % PROBE_EVERY == 0:
                self.probes.append(probe())
            argv = [rest[0], self.inputs["grams"][name], *rest[1:]]
            if tag == "malformed":
                check = checks.QueryChecker.check_malformed
            else:
                check = lambda rc, out, err, name=name, rest=rest: self.checker.check(name, rest, rc, out, err)
            lats.append(self.checked(argv, check, lattice=name, tag=tag))
            if self.probes is not None:
                self.probe_at.append(len(self.probes) - 1)
        return lats


def _walls(units: List[List[Optional[float]]]) -> dict:
    latencies = [x for lats in units for x in lats if x is not None]
    unit_walls = [sum(lats) for lats in units if None not in lats]
    return {"latencies": latencies, "unit_walls": unit_walls}


def run_untraced(runner: Runner, workload: str, seconds: float) -> dict:
    units: List[List[Optional[float]]] = []  # per unit: latencies, None = failed
    if workload == "cli-queries":
        runner.probes = []
    busy = 0.0
    k = 0
    # start a unit only if, at the mean unit time so far, it ends within ``seconds``
    while k == 0 or busy + busy / k <= seconds:
        n_probes = len(runner.probes or ())
        lats = runner.unit(k)
        k += 1
        units.append(lats)
        ok = [x for x in lats if x is not None]
        busy += sum(ok) + sum((runner.probes or ())[n_probes:])
        if not ok:
            break  # nothing succeeds; do not spin for the whole run
    if runner.probes is None:
        return _walls(units)
    runner.probes.append(probe())
    scales = iter(host_scales(runner.probes, runner.probe_at))
    corrected = [[None if x is None else x * s for x, s in zip(lats, scales)] for lats in units]
    raw = _walls(units)
    return _walls(corrected) | {"raw_latencies": raw["latencies"], "raw_unit_walls": raw["unit_walls"],
                                "probes": runner.probes}


def _extra_ops(workload: str, inputs: dict, rng: random.Random):
    """The lattice of the traced run, and checked invocations of the
    subcommands the workload's own unit does not issue."""
    if workload == "cli-queries":
        g = inputs["gens"][gen.QUERY_RING_LATTICE]
        subs = ["table", "verify"]
    elif workload == "table-a1x4":
        g = gen.LatticeGen("a1x4", gen.TABLE_GRAM)
        subs = ["verify", "modules", "qdims", "fuse", "decompose"]
    else:
        g = gen.LatticeGen("z16", gen.VERIFY_GRAM)
        subs = ["table", "modules", "qdims", "fuse", "decompose"]
    path = inputs["grams"][g.name]
    ring = checks.QueryChecker({g.name: path}, {g.name: g.det}, {g.name: g.dim})
    ops = []
    for sub in subs:
        if sub == "table":
            ops.append((["table", path, "--csv"], checks.check_csv_header))
        elif sub == "verify":
            ops.append((["verify", path], checks.check_verify))
        else:
            if sub == "fuse":
                rests = [("fuse", g.label(rng, p[0]), g.label(rng, p[1])) for p in gen.KIND_PAIRS]
            elif sub == "decompose":
                rests = [("decompose", g.label(rng, "T")), ("decompose", g.label(rng, "N"))]
            else:
                rests = [(sub,)]
            for rest in rests:
                ops.append(([rest[0], path, *rest[1:]],
                            lambda rc, out, err, rest=rest: ring.check(g.name, rest, rc, out, err)))
    return g, path, ops


def run_traced(runner: Runner, workload: str, inputs: dict, seed: int) -> dict:
    import layers
    from tracer import Tracer

    tr = Tracer()

    @contextlib.contextmanager
    def tracing():
        runner.tracer = tr
        layers.install(tr)
        try:
            yield
        finally:
            tr.uninstall()
            runner.tracer = None

    # tracing overhead: the same unit untraced, then traced; a query round
    # is short, so its pair is repeated to damp host noise
    diffs = []
    for _ in range(3 if workload == "cli-queries" else 1):
        ref = runner.unit(0)
        with tracing():
            traced = runner.unit(0)
        if None not in ref + traced:
            diffs.append(sum(traced) - sum(ref))
    rng = random.Random(seed)
    g, path, ops = _extra_ops(workload, inputs, rng)
    with tracing():
        for argv, check in ops:
            runner.checked(argv, check)
    if workload == "cli-queries":
        micro = [(inputs["gens"][n], inputs["grams"][n]) for n in gen.QUERY_LATTICES]
    else:
        micro = [(g, path)]
    for mg, mpath in micro:
        layers.micro(tr, mg, mpath, rng)
    overhead = statistics.median(diffs) if diffs else None
    return {"tracer": tr, "metrics": layers.metrics(tr, overhead)}


def main() -> int:
    args = _args()
    inputs = gen.make_inputs(args.workload, args.seed, args.work, ROUNDS)
    t2 = time.perf_counter()
    here = os.path.realpath(permorb.cli.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: permorb imported from {here}, not from {args.src}", file=sys.stderr)
        return 3
    doc = {"import_s": _T1 - _T0, "setup_s": t2 - _T0}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0
    import numpy

    doc["numpy"] = numpy.__version__
    doc["blas_threads"] = blas_threads()
    runner = Runner(args.workload, inputs)
    if args.trace:
        res = run_traced(runner, args.workload, inputs, args.seed)
        trace_path = os.path.join(args.work, "trace.json")
        res["tracer"].dump(trace_path, {"workload": args.workload, "seed": args.seed})
        doc["trace_file"] = trace_path
        doc["per_layer"] = res["metrics"]
    else:
        doc.update(run_untraced(runner, args.workload, args.seconds))
    doc["attempted"] = runner.attempted
    doc["failures"] = runner.failures
    doc["failed"] = len(runner.failures)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
