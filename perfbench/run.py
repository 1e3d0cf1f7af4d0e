"""permorb benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload table-a1x4 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The benchmark imports permorb from the
checkout's ``src`` and fails (exit 2, no result) if it is not there.  It
starts fresh interpreters for set-up timing and one worker process per run
(see worker.py), prints each metric with its unit, writes the run's
environment and raw samples to ``perfbench/_work/``, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

WORKLOADS = ("table-a1x4", "verify-z16", "cli-queries")
# fresh interpreters timed for set-up before and after the worker (whose own
# set-up is one more sample): host speed drifts over seconds, so the samples
# are spread over the run
SETUP_PROCESSES = 3
DEADLINE_S = 170  # every child process is killed by then; the contract allows 180 s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _quantile(xs: List[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _time_metrics(lat: List[float], walls: List[float]) -> Dict[str, tuple]:
    return {
        # a mean, not a median: host speed switches between regimes that
        # last seconds, and the mean weighs them by the time they cover
        "wall_s": (statistics.mean(walls) if walls else None, "s"),
        "query_p50_ms": (1e3 * _quantile(lat, 0.5) if lat else None, "ms"),
        "query_p90_ms": (1e3 * _quantile(lat, 0.9) if lat else None, "ms"),
        "queries_per_s": (len(lat) / sum(lat) if lat else None, "1/s"),
    }


def _environment(seed: int, blas: object, numpy_version: str) -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,  # None in an exported checkout; src_sha256 identifies the code then
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _child(args: List[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "permorb" / "__init__.py").is_file():
        print(f"error: no permorb sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(2, nproc))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_root = HERE / "_work"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--src", str(src)]

    deadline = time.monotonic() + DEADLINE_S
    def setup_only(phase: str) -> List[dict]:
        out = []
        for k in range(SETUP_PROCESSES):
            setup_work = work_root / f"{tag}-setup-{phase}{k}"
            out.append(_child(["setup", *common, "--work", str(setup_work)], env, deadline))
            shutil.rmtree(setup_work, ignore_errors=True)
        return out

    try:
        setups = setup_only("before")
        work = work_root / tag
        res = _child(["run", *common, "--work", str(work)], env, deadline)
        setups += setup_only("after")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    metrics: Dict[str, dict] = {}
    if args.trace:
        for name, (value, unit) in sorted(res["per_layer"].items()):
            metrics[name] = {"value": value, "unit": unit}
        metrics["cli.import_s"] = {"value": statistics.median(s["import_s"] for s in setups), "unit": "s"}
    else:
        e2e = {"setup_s": (statistics.median(s["setup_s"] for s in setups), "s")}
        e2e |= _time_metrics(res["latencies"], res["unit_walls"])
        e2e["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed, res["blas_threads"], res["numpy"]),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": res["failures"][:20],
        "samples": {k: res.get(k) for k in ("latencies", "unit_walls", "raw_latencies", "raw_unit_walls", "probes")}
        | {"setups": setups[:-1]},
        "trace_file": res.get("trace_file"),
        "finished_unix": time.time(),
    }
    out_path = work / "result.json"
    out_path.write_text(json.dumps(record, indent=1))

    env_rec = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rev={env_rec['git_rev']} "
          f"src={env_rec['src_sha256'][:12]} python={env_rec['python']} numpy={env_rec['numpy']} "
          f"blas_threads={env_rec['blas_threads']} nproc={env_rec['nproc']}")
    if not args.trace:
        print(f"# invocations={len(res['latencies'])} units={len(res['unit_walls'])}")
        if "probes" in res:
            probes = res["probes"]
            print(f"# host probe: {len(probes)} samples, median {1e3 * statistics.median(probes):.3f} ms, "
                  f"min {1e3 * min(probes):.3f} ms")
            for name, (value, unit) in _time_metrics(res["raw_latencies"], res["raw_unit_walls"]).items():
                print(f"#   uncorrected {name} = {value} {unit}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0} ({failed}/{attempted})")
    for f in res["failures"][:5]:
        print(f"FAILED: {f[:500]}", file=sys.stderr)
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
