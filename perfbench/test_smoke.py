"""The benchmark's own smoke test, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names appears with its unit on
every workload, that no op fails, that traced and untraced runs agree
on the simulated-output digest and on every count, that another seed
changes the inputs, that every workload's pins match its op count, that
the calibration notices a change to the interpreter, and that the
benchmark refuses to run without the system's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fold  # noqa: E402
import proc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Toy op counts: one round of every paper-protected kind, one campaign
#: of each model, one variant per attack-matrix cell, two fleets.
TOY_OPS = {"paper-protected": 8, "campaign-fork": 4, "attack-matrix": 1,
           "fleet-failover": 2}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def toy_run(workload, mode, seed=workloads.DEFAULT_SEED):
    return run.child(workload, seed, 1, mode, time.monotonic() + 120,
                     extra=["--ops", str(TOY_OPS[workload])])


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(fold.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric(workload):
    untraced = toy_run(workload, "run")
    traced = toy_run(workload, "trace")
    for result in (untraced, traced):
        assert result["failed"] == 0, result["errors"]
        assert result["attempted"] >= TOY_OPS[workload]
    assert traced["digest"] == untraced["digest"]
    assert traced["counts"] == untraced["counts"]

    spec = benchmark_json()
    values = run.end_to_end(untraced, [untraced])
    for metric in spec["end_to_end"]:
        assert values[metric["name"]] > 0, metric["name"]
    layers = run.traced(untraced, traced)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["trace.unattributed_pct"] <= 10.0
    assert layers["pipeline.cycles"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_changes_the_inputs(workload):
    def plan(seed):
        bench = workloads.get(workload, None)
        return repr([vars(op) if hasattr(op, "__dict__") else op
                     for op in bench.plan(seed, TOY_OPS[workload])])

    assert plan(1) == plan(1)
    assert plan(1) != plan(2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pins_hold_the_default_op_count(workload):
    ops = workloads.op_count(workloads.get(workload, None),
                             benchmark_json()["run_seconds"])
    pins, error = proc.load_pins(workload, ops)
    assert error is None and len(pins) >= ops
    assert proc.load_pins(workload, ops + 1)[1] is not None
    assert proc.load_pins("no-such-workload", ops)[1] is not None


def test_calibration_notices_a_thread():
    calibration = proc.Calibration(proc.interpreter_state())
    calibration.sample()
    assert calibration.changed == []
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        calibration.sample()
    finally:
        stop.set()
        thread.join()
    assert calibration.changed and "threads" in calibration.changed[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-failover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
