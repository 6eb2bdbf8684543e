"""One workload in one fresh, single-threaded process.

Started by ``run.py``:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
    python3 perfbench/worker.py --setup-only WORKLOAD

It sets up the workload, generates the seeded inputs, runs timed passes of
the operation list (or exactly one traced pass), checks the outputs and
prints one JSON object on stdout.  ``ready`` in it is the
``time.perf_counter()`` reading at the end of set-up; ``perf_counter`` is
the system-wide monotonic clock, so the parent subtracts its own reading
taken just before it started this process.

Calibration.  The speed of a shared host drifts by up to 2x within seconds,
so raw wall times of identical work spread widely.  While an untraced run
measures, a timer signal interrupts it every ``CALIB_PERIOD_S`` and times a
fixed pure-Python unit of work on the same core.  Each operation's time
(minus the time spent in those interruptions) is scaled by
``CALIB_REF_S / mean unit time`` over the samples taken during the
operation, widened by ``CALIB_WINDOW_S`` on each side: the time the
operation takes when the unit runs in ``CALIB_REF_S``.  Set-up time is
scaled the same way by units timed just after set-up.  Raw pass times are
reported too.
"""

import bisect
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads

CALIB_PERIOD_S = 0.02
CALIB_WINDOW_S = 0.5
CALIB_REF_S = 0.0005


def _unit():
    """The calibration work: dict and int operations, like the interpreter-
    bound arithmetic of btbuildings."""
    table = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + (i * 3) % 7
        acc += (i * i) % 13
    return acc


class Calibrator:
    """Timer-driven samples of the time of `_unit`, taken in the measured
    process while it runs."""

    def __init__(self):
        self.ends = []      # perf_counter at the end of each sample
        self.costs = []     # duration of each sample
        self.spent = 0.0    # total time spent inside the signal handler

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        _unit()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def scale_now(samples=16):
        """CALIB_REF_S over the mean of `samples` unit times taken now."""
        costs = []
        for _ in range(samples):
            t0 = time.perf_counter()
            _unit()
            costs.append(time.perf_counter() - t0)
        return CALIB_REF_S / statistics.fmean(costs)

    def scale(self, t0, t1):
        """CALIB_REF_S over the mean unit time around [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0 - CALIB_WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + CALIB_WINDOW_S)
        costs = self.costs[lo:hi] or self.costs
        return CALIB_REF_S / statistics.fmean(costs)


def _checked(check, *args):
    """A check's verdict; a check that raises has failed."""
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def timed_passes(wl, seconds, tracer, calib):
    """Passes of the operation list until the next pass would end past
    `seconds`, always at least one; a traced run makes exactly one.  Returns
    the passes as lists of (start, end, busy seconds) per operation, the
    operations attempted and failed, and ru_maxrss after the first pass."""
    passes = []
    attempted = failed = 0
    peak_rss_kb = None
    start = time.perf_counter()
    while True:
        timings = []
        for index, op in enumerate(wl.ops()):
            if tracer is not None:
                tracer.op = index
            spent = calib.spent if calib else 0.0
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                t1 = time.perf_counter()
                traceback.print_exc(file=sys.stderr)
                ok = False
            else:
                t1 = time.perf_counter()
                ok = None
            busy = t1 - t0 - ((calib.spent if calib else 0.0) - spent)
            timings.append((t0, t1, busy))
            if ok is None:
                ok = _checked(op.check, result)
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {wl.name} {op.name}", file=sys.stderr)
        passes.append(timings)
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(b for *_, b in p) for p in passes)
        if tracer is not None or elapsed + typical > seconds:
            return passes, attempted, failed, peak_rss_kb


def main(argv):
    if argv[0] == "--setup-only":
        wl = workloads.make(argv[1], out_dir=".")
        wl.setup()
        ready = time.perf_counter()
        print(json.dumps({"ready": ready,
                          "setup_scale": Calibrator.scale_now()}))
        return 0
    name, seed, seconds, trace, out_dir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = workloads.make(name, out_dir)
    wl.setup()
    ready = time.perf_counter()
    setup_scale = Calibrator.scale_now()
    wl.generate(seed)
    tracer = calib = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        calib = Calibrator()
        calib.start()
    try:
        passes, attempted, failed, peak_rss_kb = timed_passes(
            wl, seconds, tracer, calib)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if calib is not None:
            calib.stop()
    try:
        verdicts = wl.sample_checks()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        verdicts = [False]
    for ok in verdicts:
        attempted += 1
        if not ok:
            failed += 1
            print(f"sample check failed: {name}", file=sys.stderr)
    raw = [[busy for *_, busy in p] for p in passes]
    if calib is None:
        scaled = raw
    else:
        scaled = [[busy * calib.scale(t0, t1) for t0, t1, busy in p]
                  for p in passes]
    out = {"ready": ready, "setup_scale": setup_scale, "seed": seed,
           "passes": [sum(p) for p in scaled],
           "raw_passes": [sum(p) for p in raw],
           "queries": ([t for p in scaled for t in p] if wl.query_is_op
                       else [sum(p) for p in scaled]),
           "calib_samples": len(calib.costs) if calib else 0,
           "attempted": attempted, "failed": failed,
           "peak_rss_kb": peak_rss_kb, "summary": wl.summary()}
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s=sum(out["passes"]))
        tracer.write_spans(f"{out_dir}/spans-{name}-{seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
