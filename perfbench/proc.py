"""One workload process: set up, warm up, run the fixed op list.

    python3 perfbench/proc.py --workload NAME --seed N --seconds S \\
        --mode setup|run|trace [--ops N] [--outputs]

``setup`` stops after the warm-up op and reports the set-up time only;
``run`` times the op list untraced; ``trace`` runs the same list with
every layer's entry points wrapped (``spans.py``).  The result is one
JSON object on the last line of standard output.  ``run.py`` starts a
fresh process of this script for every measurement, so caches and peak
memory never leak from one run into the next.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time

import fold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Invariant messages kept in the result (the count is always exact).
MAX_ERRORS = 8

#: Calibration loops timed just before and just after set-up.
SETUP_LOOPS = 3


class Calibration:
    """Host speed, from a fixed pure-Python loop timed between ops.

    The host's speed swings by a third over seconds to minutes (a shared
    machine), far more than the changes the benchmark must resolve.
    Every run therefore times this loop about every ``PERIOD_NS`` at op
    boundaries, outside any op, and scales all its host times by
    ``NOMINAL_NS / mean loop time``: host seconds on a host that runs the
    loop in ``NOMINAL_NS``.

    The loop runs none of the system's code, but it runs in the system's
    interpreter.  Whatever the system does that slows the interpreter as
    a whole (a thread competing for the GIL, a trace or profile hook left
    installed) would slow the loop as much as the ops and cancel out.
    Each sample therefore also reads :func:`interpreter_state`; a
    difference from the state before the system was imported is kept in
    ``changed`` and makes the run incorrect (``run.py``).
    """

    ITERATIONS = 60_000
    NOMINAL_NS = 5_000_000      # the loop's time here with the host idle
    PERIOD_NS = 100_000_000

    def __init__(self, baseline, loops=0):
        self.baseline = baseline
        self.changed = []
        self.samples = []
        self._last = 0
        for __ in range(loops):
            self.sample()

    @classmethod
    def _loop(cls):
        total = 0
        for index in range(cls.ITERATIONS):
            total += index * index % 7
        return total

    def sample(self):
        state = interpreter_state()
        if state != self.baseline and not self.changed:
            self.changed = ["%s %s, was %s" % (key, state[key],
                                              self.baseline[key])
                            for key in state
                            if state[key] != self.baseline[key]]
        start = time.perf_counter_ns()
        self._loop()
        end = time.perf_counter_ns()
        self.samples.append(end - start)
        self._last = end

    def due(self):
        return time.perf_counter_ns() - self._last >= self.PERIOD_NS

    def factor(self):
        """Scale for host times: below 1 when the host ran slow."""
        return self.NOMINAL_NS * len(self.samples) / sum(self.samples)


def interpreter_state():
    """What, besides the host, would slow the calibration loop."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:                     # no procfs: Python threads only
        threads = threading.active_count()
    return {"threads": threads, "trace_hook": sys.gettrace() is not None,
            "profile_hook": sys.getprofile() is not None}


class _Excluded:
    """Context manager: time spent inside belongs to no op and no layer."""

    def __init__(self, recorder):
        self.recorder = recorder

    def __enter__(self):
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.recorder.exclude(time.perf_counter_ns() - self.start)


class Recorder:
    """Times ops back to back and folds what each one produced.

    An op's latency runs from the previous op boundary to its own,
    minus excluded bookkeeping, so ops tile the timed loop exactly.
    """

    def __init__(self, calibration, pins=None, tracer=None,
                 keep_outputs=False):
        self.calibration = calibration
        self.pins = pins
        self.tracer = tracer
        self.keep_outputs = keep_outputs
        self.latencies_ns = []
        self.bounds = []
        self.outputs = []
        self.count = 0
        self.failed = 0
        self.errors = []
        self.cycles = 0
        self.instret = 0
        self.counts = {}
        self.distinct = {}
        self.digest = hashlib.sha256()
        self._start = None
        self._excluded = 0

    def excluded(self):
        return _Excluded(self)

    def exclude(self, ns):
        self._excluded += ns
        if self.tracer is not None:
            self.tracer.exclude(ns)

    def start(self):
        self.calibration.sample()
        self._excluded = 0
        self._start = time.perf_counter_ns()

    def stop(self):
        self.calibration.sample()

    def mark(self, produce=None, error=None):
        """Close the current op; *produce* returns its OpResult."""
        end = time.perf_counter_ns()
        self.latencies_ns.append(end - self._start - self._excluded)
        self.bounds.append((self._start, end))
        index = self.count
        self.count += 1
        result = None
        if produce is not None:
            try:
                result = produce()
            except Exception as exc:          # reading the output failed
                error = "reading its output: %r" % (exc,)
        errors = [error] if error else []
        if result is not None:
            errors += result.errors
            self._fold(index, result, errors)
        if errors:
            self.failed += 1
            self.errors.extend("op %d: %s" % (index, text)
                               for text in errors[:MAX_ERRORS])
        if self.calibration.due():
            self.calibration.sample()
        resumed = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.op = self.count
            self.tracer.exclude(resumed - end)
        self._excluded = 0
        self._start = resumed

    def _fold(self, index, result, errors):
        output = json.loads(json.dumps(result.output))
        if (self.pins is not None and index < len(self.pins)
                and self.pins[index] != output):
            errors.append("output differs from the pinned one")
        if self.keep_outputs:
            self.outputs.append(output)
        self.digest.update(json.dumps(output, sort_keys=True).encode())
        for snapshot in result.snapshots:
            fold.add_snapshot(self.counts, snapshot)
        fold.add_extra(self.counts, self.distinct, result.extra)
        self.cycles += result.cycles
        self.instret += result.instret

    def fail(self, ops, error):
        """Count *ops* that never ran (their campaign died) as failed."""
        self.count += ops
        self.failed += ops
        self.errors.append(error)


def load_pins(workload, ops):
    """The default seed's pinned outputs for *ops* ops, or an error."""
    path = os.path.join(HERE, "pins", workload + ".json")
    try:
        with open(path) as handle:
            pinned = json.load(handle)
    except (OSError, ValueError) as exc:
        return None, "no pinned outputs: %s" % (exc,)
    if pinned["ops"] != ops:
        return None, ("%s pins %d ops, the run has %d"
                      % (os.path.relpath(path, ROOT), pinned["ops"], ops))
    return pinned["outputs"], None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        default="run")
    parser.add_argument("--ops", type=int, default=0,
                        help="op count for toy runs, which check no pins "
                             "(default: from --seconds)")
    parser.add_argument("--outputs", action="store_true",
                        help="include every op's output (to pin them)")
    args = parser.parse_args(argv)
    baseline = interpreter_state()
    setup_calibration = Calibration(baseline, SETUP_LOOPS)
    # Set-up starts here: importing the system is part of it.
    start_ns = time.perf_counter_ns()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    return run(args, workloads, baseline, setup_calibration, start_ns)


def run(args, workloads, baseline, setup_calibration, start_ns):
    """Set up (timed from *start_ns*), warm up, then run the op list."""
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.get(args.workload, WORKDIR)
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    ops = args.ops or workloads.op_count(workload, args.seconds)
    pins = pin_error = None
    if (args.seed == workloads.DEFAULT_SEED and not args.ops
            and not args.outputs):
        pins, pin_error = load_pins(args.workload, ops)
    recorder = Recorder(Calibration(baseline), pins, tracer,
                        keep_outputs=args.outputs)
    capture = workloads.Capture(recorder)
    capture.install()
    plan = workload.plan(args.seed, ops)
    workload.warmup(plan, capture)
    setup_s = (time.perf_counter_ns() - start_ns) / 1e9
    for __ in range(SETUP_LOOPS):
        setup_calibration.sample()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "setup_calibration": setup_calibration.factor(),
                          "interpreter": setup_calibration.changed}))
        return 0

    if tracer is not None:
        tracer.reset()
    recorder.start()
    workload.execute(plan, recorder, capture)
    recorder.stop()
    if pin_error is not None:
        # The default seed's outputs could not be checked: no op passes.
        recorder.failed = recorder.count
        recorder.errors.insert(0, "every op: " + pin_error)

    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "requested": ops,
        "attempted": recorder.count, "failed": recorder.failed,
        "errors": recorder.errors[:MAX_ERRORS],
        "latencies_ns": recorder.latencies_ns,
        "cycles": recorder.cycles, "instret": recorder.instret,
        "counts": fold.counts_view(recorder.counts, recorder.distinct),
        "digest": recorder.digest.hexdigest()[:16],
        "setup_s": setup_s,
        "setup_calibration": setup_calibration.factor(),
        "calibration": recorder.calibration.factor(),
        "calibration_samples": len(recorder.calibration.samples),
        "interpreter": (setup_calibration.changed
                        or recorder.calibration.changed),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.outputs:
        result["outputs"] = recorder.outputs
    if tracer is not None:
        groups, layers = tracer.groups()
        result.update(groups=groups, layers=layers, sizes=tracer.sizes,
                      spans=len(tracer.spans),
                      overhead_ns=tracer.overhead_ns(),
                      wrapper_ns=tracer.wrapper_ns["cycle"])
        path = os.path.join(WORKDIR, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path, recorder.bounds)
        result["spans_path"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
