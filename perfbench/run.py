"""The btbuildings benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``btbuildings`` from
``src/`` and needs nothing outside the standard library.  NAME is one of
window-padic, window-laurent, apartment, subsystems, or ``all`` for each in
turn.  Each workload runs in a fresh single-threaded Python process
(``worker.py``) with its inputs drawn from the seed; ``PYTHONHASHSEED`` is
fixed so that one seed gives the same work in every run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
the end of set-up, the median of several fresh processes), ``wall_s`` (the
median time of one pass over the workload's fixed operation list),
``query_p50_ms`` and ``query_p99_ms`` (latency of one query: a vertex query
on apartment, one pass elsewhere), and ``peak_rss_mb`` of the workload's
process.  Times are calibrated against a fixed pure-Python unit of work
sampled during the run (see ``worker.py``); raw pass times are printed on
the ``#`` line.  Failed checks are counted in ``failed``, out of
``attempted``.

``--trace 1`` makes exactly one pass with every layer wrapped
(``tracer.py``) and reports the per-layer metrics; its spans are written to
``perfbench/_out/``.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402

SETUP_PROBES = 6      # fresh set-up-only processes per run, besides the worker
DEADLINE_S = 170      # a run ends within 180 s


def run_worker(args, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(name, seed, seconds, trace, deadline):
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            start, out = run_worker(["--setup-only", name], deadline)
            setups.append((out["ready"] - start) * out["setup_scale"])
    start, out = run_worker([name, str(seed), str(seconds), str(int(trace)),
                         OUT_DIR], deadline)
    setups.append((out["ready"] - start) * out["setup_scale"])
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in out["layers"].items()}
    else:
        q_ms = [t * 1000 for t in out["queries"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(out["passes"]), "unit": "s"},
            "query_p50_ms": {"value": _percentile(q_ms, 50), "unit": "ms"},
            "query_p99_ms": {"value": _percentile(q_ms, 99), "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(f"# {name} seed={out['seed']} trace={int(trace)} "
          f"passes={len(out['passes'])} queries={len(out['queries'])} "
          f"calibration_samples={out['calib_samples']} "
          f"raw_pass_s={[round(t, 3) for t in out['raw_passes']]} "
          f"{json.dumps(out['summary'], sort_keys=True)}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_share {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']})")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "btbuildings",
                                       "__init__.py")):
        print(f"no btbuildings sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), deadline)
                   for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
