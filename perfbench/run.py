"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-protected --seed 1 \\
        --seconds 16 --trace 0

Run from the root of a checkout that holds ``src/repro``.  With
``--trace 0`` it prints the end-to-end metrics, measured untraced;
with ``--trace 1`` the per-layer metrics of a traced run, checked
against an untraced run of the same seed.  Every measurement runs in
a fresh process of ``proc.py``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and the metric map.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from fold import PER_LAYER, per_layer  # noqa: E402

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("sim_cycles_per_s", "1/s"), ("sim_instrs_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))

#: Extra set-up-only processes per untraced run; set-up time is the
#: median over these and the measured run's own set-up.
SETUP_PROBES = 4

#: Everything this script starts must end within this many seconds.
BUDGET_S = 170


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or printed no result."""


def child(workload, seed, seconds, mode, deadline, extra=()):
    """Run one fresh ``proc.py`` process; returns its JSON result."""
    command = [sys.executable, os.path.join(HERE, "proc.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode] + list(extra)
    # A fixed hash seed keeps set and dict layouts, and so timings,
    # identical from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s %s exited %d: %s" % (
            workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def end_to_end(main, setups, calibrated=True):
    """The end-to-end metrics of an untraced run; see README.md.

    Op latencies are scaled by the run's calibration, and each set-up
    time by its own process's, unless *calibrated* is false.
    """
    scale = main["calibration"] if calibrated else 1.0
    latencies = [ns * scale / 1e9 for ns in main["latencies_ns"]]
    wall = sum(latencies)
    setups = [probe["setup_s"]
              * (probe["setup_calibration"] if calibrated else 1.0)
              for probe in setups]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / wall,
        "sim_cycles_per_s": main["cycles"] / wall,
        "sim_instrs_per_s": main["instret"] / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def traced(main, trace):
    """The per-layer metrics of a traced run, host times calibrated."""
    counts = dict(trace["counts"], **trace["sizes"])
    scale = trace["calibration"]
    return per_layer(
        counts, len(trace["latencies_ns"]),
        {key: ns * scale for key, ns in trace["groups"].items()},
        {key: ns * scale for key, ns in trace["layers"].items()},
        sum(trace["latencies_ns"]) * scale / 1e9,
        sum(main["latencies_ns"]) * main["calibration"] / 1e9,
        trace["overhead_ns"] * scale / 1e9)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no src/repro under %s; run from the root of a "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    # Compile bytecode before anything is timed, so set-up time never
    # includes a first-run compile.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        main_run = child(args.workload, args.seed, args.seconds, "run",
                         deadline)
        notes = []
        correct = main_run["failed"] == 0
        attempted = main_run["attempted"]
        failed = main_run["failed"]
        processes = [main_run]
        if args.trace:
            trace = child(args.workload, args.seed, args.seconds, "trace",
                          deadline)
            processes.append(trace)
            attempted += trace["attempted"]
            failed += trace["failed"]
            correct = correct and trace["failed"] == 0
            if trace["digest"] != main_run["digest"]:
                correct = False
                notes.append("traced digest %s != untraced %s"
                             % (trace["digest"], main_run["digest"]))
            drift = sorted(key for key in set(trace["counts"])
                           | set(main_run["counts"])
                           if trace["counts"].get(key)
                           != main_run["counts"].get(key))
            if drift:
                correct = False
                notes.append("non-determinism: counts differ between two "
                             "runs of seed %d: %s" % (args.seed,
                                                      ", ".join(drift)))
            values = traced(main_run, trace)
            notes.append("wrapper cost %.0f ns a call, %.4g ms in all"
                         % (trace["wrapper_ns"], trace["overhead_ns"] / 1e6))
            units = [(name, unit) for name, unit, __ in PER_LAYER]
            print("spans: %d written to %s" % (trace["spans"],
                                               trace["spans_path"]))
        else:
            setups = [child(args.workload, args.seed, args.seconds, "setup",
                            deadline) for __ in range(SETUP_PROBES)]
            processes.extend(setups)
            setups.append(main_run)
            values = end_to_end(main_run, setups)
            raw = end_to_end(main_run, setups, calibrated=False)
            notes.append("calibration %.4f from %d loops"
                         % (main_run["calibration"],
                            main_run["calibration_samples"]))
            notes.append("uncalibrated " + json.dumps(raw))
            units = END_TO_END
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    # The calibration loop is only a measure of the host while the
    # interpreter is as it was before the system was imported.
    changed = sorted({text for process in processes
                      for text in process["interpreter"]})
    if changed:
        correct = False
        notes.append("calibration invalid, the system changed the "
                     "interpreter: " + "; ".join(changed))

    print("workload %s seed %d: %d ops, digest %s"
          % (args.workload, args.seed, main_run["attempted"],
             main_run["digest"]))
    print("counts " + json.dumps(main_run["counts"], sort_keys=True))
    for error in main_run["errors"]:
        print("failed " + error)
    for note in notes:
        print(note)
    for name, unit in units:
        print("%-30s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
