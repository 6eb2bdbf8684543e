"""Repeatability of the per-layer work counts, and the tracing overhead.

    python3 perfbench/repeat.py --seed 1 [--workload NAME ...]

For each workload: two traced runs at one seed, whose counts (every
per-layer metric whose unit is not seconds) and artifact digests must be
equal, and one untraced pass.  Prints, per workload, whether the counts
repeat and the overhead: traced ``trace.wall_s`` minus the untraced raw
pass time (traced runs are not calibrated, so both sides are raw).  Exits 1
if any count differs.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, run_worker  # noqa: E402
from workloads import NAMES  # noqa: E402


def _worker(name, seed, trace):
    _start, out = run_worker([name, str(seed), "0", str(trace), OUT_DIR],
                             time.monotonic() + 600)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", choices=NAMES, default=NAMES)
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    all_equal = True
    for name in args.workload:
        runs = [_worker(name, args.seed, 1) for _ in range(2)]
        first, second = (out["layers"] for out in runs)
        counts = {k: v for k, (v, unit) in first.items() if unit != "s"}
        diff = sorted(k for k, v in counts.items() if second[k][0] != v)
        if runs[0]["summary"] != runs[1]["summary"]:
            diff.append("artifact_sha256")
        all_equal &= not diff
        raw = _worker(name, args.seed, 0)["raw_passes"][0]
        traced = [layers["trace.wall_s"][0] for layers in (first, second)]
        verdict = "repeat exactly" if not diff else "DIFFER: " + ", ".join(diff)
        print(f"{name}: {len(counts)} counts {verdict}; untraced raw pass "
              f"{raw:.2f} s, traced {traced[0]:.2f} / {traced[1]:.2f} s, "
              f"overhead {traced[0] - raw:.2f} / {traced[1] - raw:.2f} s "
              f"({traced[0] / raw:.2f}x / {traced[1] / raw:.2f}x)", flush=True)
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
