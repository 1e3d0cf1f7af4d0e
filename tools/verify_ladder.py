"""Time and memory of ``permorb verify``, check by check, on a ladder of lattices.

Runs ``verify`` once per lattice, each in a fresh Python process, with the
size guards in place, and prints per lattice its rank, ``l``, the label
count ``n``, the table's nonzero entries, the seconds of ``fusion_table``
and of each check in run order, and the peak RSS (``ru_maxrss``) above the
baseline taken after ``permorb`` is imported: once when the table is built
and once at the end::

    PYTHONPATH=src python tools/verify_ladder.py            # the whole ladder
    PYTHONPATH=src python tools/verify_ladder.py z16 z32    # some of it

The default ladder runs up to ``l = 64`` (``n = 2272``) at ranks 1, 4 and 6,
where ``verify`` needs up to about 2.3 GB and several minutes; run it on an
otherwise idle host.  Times are wall-clock and vary with the host.
"""

from __future__ import annotations

import multiprocessing
import sys
import time


def _diag(*entries):
    return [[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))]


D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]

# name -> Gram matrix, at l = 16, 24, 32 and 64 on ranks 1, 4 and 6
LADDER = {
    "z16": [[16]],
    "a1x4": _diag(2, 2, 2, 2),
    "d4a1x2": [row + [0, 0] for row in D4] + [[0] * 4 + [2, 0], [0] * 4 + [0, 2]],
    "z24": [[24]],
    "z32": [[32]],
    "a1x3z4": _diag(2, 2, 2, 4),
    "z64": [[64]],
    "a1x2z4x2": _diag(2, 2, 4, 4),
    "a1x6": _diag(2, 2, 2, 2, 2, 2),
}


def measure(name, conn):
    """Run ``verify`` on ``LADDER[name]`` in this process and send back its
    figures, or the error line of a refused or failed run."""
    import resource

    import permorb.verify as V
    from permorb.errors import PermorbError
    from permorb.lattice import validate_lattice

    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    base = peak_mb()
    seconds, table_stats = {}, {}

    def timed(key, fn):
        def run(*args):
            start = time.perf_counter()
            out = fn(*args)
            seconds[key] = time.perf_counter() - start
            return out

        return run

    build = timed("fusion_table", V.fusion_table)

    def fusion_table(lat):
        table = build(lat)
        table_stats.update(n=len(table.labels), nnz=len(table.v), peak=peak_mb() - base)
        return table

    V.fusion_table = fusion_table
    for attr in [a for a in vars(V) if a.startswith("check_")]:
        setattr(V, attr, timed(attr[len("check_") :], getattr(V, attr)))
    lat = validate_lattice(LADDER[name])
    start = time.perf_counter()
    try:
        report = V.verify(lat)
    except (PermorbError, MemoryError) as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        return
    conn.send(
        {
            "rank": lat.dim,
            "l": lat.det,
            "passed": report.all_passed,
            "seconds": seconds,
            "table": table_stats,
            "total": time.perf_counter() - start,
            "peak": peak_mb() - base,
        }
    )


def run_fresh(name):
    """``measure(name)`` in a newly spawned interpreter."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=measure, args=(name, send))
    proc.start()
    send.close()
    try:
        result = recv.recv()
    except EOFError:
        result = None
    proc.join()
    return result or {"error": f"the process exited with code {proc.exitcode}"}


def main(names):
    for name in names or LADDER:
        res = run_fresh(name)
        if "error" in res:
            print(f"{name}: {res['error']}")
            continue
        t = res["table"]
        verdict = "all passed" if res["passed"] else "FAILED"
        print(f"{name}: rank {res['rank']}, l = {res['l']}, n = {t['n']}, nnz = {t['nnz']}, {verdict}")
        for step, secs in res["seconds"].items():  # the table first, then the checks in run order
            peak = f"  peak +{t['peak']:.0f} MB" if step == "fusion_table" else ""
            print(f"  {step:<28}{secs:9.3f} s{peak}")
        print(f"  {'verify':<28}{res['total']:9.3f} s  peak +{res['peak']:.0f} MB")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
