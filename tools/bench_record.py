"""Turn `perfbench/run.py` outputs of a parent and a change into BENCH_<n>.json.

    python3 tools/bench_record.py --parent P1.txt P2.txt .. \\
        --change C1.txt C2.txt .. --out BENCH_6.json \\
        [--tier1-parent T1.txt --tier1-change T2.txt] \\
        [--readme-parent DIR --readme-change DIR]

Each input file is the standard output of one `perfbench/run.py` run, for
one workload or for `all`: its `# <workload> seed=<s> trace=<t> ..` lines
name the workloads, seeds and trace mode, and its last line is the JSON
result.  Untraced runs (`trace=0`) give the end-to-end metrics: per
workload, metric and side the median, the quartiles and the run count,
and, pairing the i-th parent run of a workload with its i-th change run,
how many pairs the change wins by the direction in BENCHMARK.json (ties
count for neither side).  Traced runs (`trace=1`) give the per-layer
values, keyed by seed.

A tier-1 file is the output of one tier-1 pytest run with `-s`, so that
the acceptance tests' `[criterion N] PASS (x s < B s)` lines show: it gives
the run's pass and failure counts and wall time, from pytest's closing
"N passed .. in T s" line, and each criterion's time and budget (criterion
9 prints no budget).

The README timings run each `btb` example of the README's CLI block (one
per `btb ` line, continuation lines joined) README_REPEATS times in fresh
processes against the `src/` of each checkout, the parent and the change
taking turns to run first, and record the median wall seconds per example
and side.  An example that exits nonzero is an error.  Standard library
only.
"""

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = re.compile(r"^# (\S+) seed=(-?\d+) trace=([01]) ")
CRITERION = re.compile(
    r"\[criterion (\d+)\] PASS \(([\d.]+)s(?: < ([\d.]+)s)?\)")
CLOSING = re.compile(r"^=*\s*(.*\bin ([\d.]+)s\b.*?)\s*=*$")
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|deselected)")
README_REPEATS = 10


def read_run(path):
    """[(workload, seed, traced, result)] of one run.py output file."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    heads = [HEADER.match(line) for line in lines]
    heads = [(m.group(1), int(m.group(2)), m.group(3) == "1")
             for m in heads if m]
    if not heads:
        raise ValueError(f"{path}: no '# <workload> seed=.. trace=..' line")
    last = json.loads(lines[-1])
    results = {heads[0][0]: last} if "metrics" in last else last
    return [(name, seed, traced, results[name]) for name, seed, traced in heads]


def read_tier1(path):
    """{passed, failed, wall_s, criteria} of one tier-1 pytest output."""
    with open(path) as fh:
        text = fh.read()
    closing = [m for m in map(CLOSING.match, text.splitlines())
               if m and COUNT.search(m.group(1))]
    if not closing:
        raise ValueError(f"{path}: no closing 'N passed .. in T s' line")
    counts = {kind.rstrip("s"): int(k)
              for k, kind in COUNT.findall(closing[-1].group(1))}
    criteria = {}
    for m in CRITERION.finditer(text):
        criteria[m.group(1)] = {
            "elapsed_s": float(m.group(2)),
            "budget_s": None if m.group(3) is None else float(m.group(3))}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "wall_s": float(closing[-1].group(2)),
            "criteria": dict(sorted(criteria.items(), key=lambda kv: int(kv[0])))}


def readme_examples(path):
    """The argv of each `btb` line of the CLI block of a README."""
    with open(path) as fh:
        text = fh.read()
    try:
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    except IndexError:
        raise ValueError(f"{path}: no ```sh block under '## CLI'") from None
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("btb ")]


def _run_example(checkout, argv):
    """Wall seconds of `btb argv` in a fresh process on checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONHASHSEED="0")
    start = time.perf_counter()
    code = subprocess.call([sys.executable, "-m", "btbuildings.cli"] + argv,
                           cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if code:
        raise ValueError(f"btb {shlex.join(argv)} exited {code} in {checkout}")
    return elapsed


def time_readme(examples, checkouts):
    """{command: {side: median seconds}} over README_REPEATS runs per side.

    The side that runs first alternates from one repeat to the next."""
    out = {}
    for argv in examples:
        times = {side: [] for side in checkouts}
        for repeat in range(README_REPEATS):
            order = list(checkouts.items())
            for side, checkout in order[::-1] if repeat % 2 else order:
                times[side].append(_run_example(checkout, argv))
        out[shlex.join(argv)] = {side: statistics.median(ts)
                                 for side, ts in times.items()}
    return out


def summary(values):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def record(parent_files, change_files, contract):
    better = {m["name"]: m["better"]
              for m in contract["end_to_end"] + contract["per_layer"]}
    sides = {"parent": [r for f in parent_files for r in read_run(f)],
             "change": [r for f in change_files for r in read_run(f)]}
    out = {}
    for side, runs in sides.items():
        for name, seed, traced, result in runs:
            w = out.setdefault(name, {"seeds": {"parent": [], "change": []},
                                      "failed": {"parent": 0, "change": 0},
                                      "attempted": {"parent": 0, "change": 0},
                                      "end_to_end": {}, "per_layer": {}})
            w["failed"][side] += result["failed"]
            w["attempted"][side] += result["attempted"]
            metrics = result["metrics"]
            if traced:
                layer = w["per_layer"].setdefault(str(seed), {})
                for key, m in metrics.items():
                    layer.setdefault(key, {"unit": m["unit"]})[side] = m["value"]
                continue
            w["seeds"][side].append(seed)
            for key, m in metrics.items():
                e2e = w["end_to_end"].setdefault(
                    key, {"unit": m["unit"], "parent": [], "change": []})
                e2e[side].append(m["value"])
    for w in out.values():
        for key, e2e in w["end_to_end"].items():
            pairs = list(zip(e2e["parent"], e2e["change"]))
            sign = 1 if better.get(key, "lower") == "lower" else -1
            e2e["pairs"] = len(pairs)
            e2e["change_wins"] = sum(sign * (p - c) > 0 for p, c in pairs)
            e2e["parent_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
            for side in ("parent", "change"):
                if e2e[side]:
                    e2e[side] = summary(e2e[side])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True,
                    help="run.py outputs of the parent commit")
    ap.add_argument("--change", nargs="+", required=True,
                    help="run.py outputs of the change")
    ap.add_argument("--contract", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="the benchmark declaration (metric directions)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--tier1-parent", help="tier-1 pytest -s output, parent")
    ap.add_argument("--tier1-change", help="tier-1 pytest -s output, change")
    ap.add_argument("--readme", default=os.path.join(ROOT, "README.md"),
                    help="the README whose CLI examples are timed")
    ap.add_argument("--readme-parent", help="checkout of the parent commit")
    ap.add_argument("--readme-change", help="checkout of the change")
    args = ap.parse_args(argv)
    checkouts = {side: path for side, path in (("parent", args.readme_parent),
                                               ("change", args.readme_change))
                 if path}
    try:
        with open(args.contract) as fh:
            contract = json.load(fh)
        bench = {"workloads": record(args.parent, args.change, contract)}
        tier1 = {side: read_tier1(path) for side, path in
                 (("parent", args.tier1_parent), ("change", args.tier1_change))
                 if path}
        if checkouts:
            bench["readme"] = {
                "repeats": README_REPEATS,
                "median_s": time_readme(readme_examples(args.readme),
                                        checkouts)}
    except (OSError, ValueError, KeyError) as ex:
        print(f"bench_record: {ex}", file=sys.stderr)
        return 2
    if tier1:
        bench["tier1"] = tier1
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
