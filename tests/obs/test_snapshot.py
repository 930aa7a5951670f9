"""Golden schema for Machine.snapshot() and the deprecation shims.

The snapshot document is the one observable contract every consumer
(CLI --stats-json, experiments, CI artifacts) builds on; these tests pin
its key set so schema drift is an explicit, reviewed change.
"""

import json

import pytest

from repro.obs import SCHEMA
from repro.pipeline.core import PipelineStats
from repro.system import build_machine
from repro.workloads import kmeans

TOP_KEYS = {"schema", "cycle", "pipeline", "memory", "rse", "kernel",
            "assertions", "obs"}
PIPELINE_KEYS = set(PipelineStats.FIELDS) | {"ipc", "predictor"}
MEMORY_KEYS = {"il1", "dl1", "il2", "dl2", "bus"}
CACHE_KEYS = {"accesses", "hits", "misses", "writebacks", "miss_rate"}
KERNEL_KEYS = {"threads", "context_switches", "syscalls",
               "timer_preemptions", "faults", "detections", "checkpoints",
               "requests", "net", "output_events"}
RSE_KEYS = {"checks_seen", "safe_mode", "ioq", "mau", "queues",
            "selfcheck_trips", "modules"}
MODULE_BASE_KEYS = {"enabled", "checks", "errors"}


def run_machine(**kwargs):
    image, __ = kmeans.program(pattern_count=20, clusters=4, iterations=1)
    machine = build_machine(**kwargs)
    result = machine.run_program(image)
    assert result.reason == "halt", result
    return machine, result


def test_bare_machine_golden_keys():
    machine, __ = run_machine()
    doc = machine.snapshot()
    assert set(doc) == TOP_KEYS
    assert doc["schema"] == SCHEMA
    assert doc["rse"] is None                    # key present, value None
    assert set(doc["pipeline"]) == PIPELINE_KEYS
    assert set(doc["memory"]) == MEMORY_KEYS
    for level in ("il1", "dl1", "il2", "dl2"):
        assert set(doc["memory"][level]) == CACHE_KEYS
    assert set(doc["kernel"]) == KERNEL_KEYS
    assert set(doc["obs"]) == {"probes", "metrics", "trace"}
    assert doc["cycle"] == machine.cycle
    assert doc["pipeline"]["instret"] > 0


def test_rse_machine_golden_keys():
    machine, __ = run_machine(with_rse=True, modules=("icm", "ddt"))
    doc = machine.snapshot()
    assert set(doc) == TOP_KEYS                  # same top level either way
    assert set(doc["rse"]) == RSE_KEYS
    assert set(doc["rse"]["modules"]) == {"ICM", "DDT"}
    for module_doc in doc["rse"]["modules"].values():
        assert MODULE_BASE_KEYS <= set(module_doc)
    assert set(doc["rse"]["ioq"]) == {"allocated", "occupancy"}


def test_snapshot_is_json_serializable():
    machine, __ = run_machine(with_rse=True, modules=("icm",))
    round_tripped = json.loads(json.dumps(machine.snapshot()))
    assert round_tripped["schema"] == SCHEMA


def test_run_result_carries_snapshot():
    machine, result = run_machine()
    assert result.snapshot is not None
    assert result.snapshot["schema"] == SCHEMA
    assert result.snapshot["pipeline"]["cycles"] == result.cycles


def test_machine_reset_stats_zeroes_counters_only():
    machine, __ = run_machine(with_rse=True, modules=("icm",))
    before = machine.snapshot()
    assert before["pipeline"]["instret"] > 0
    machine.reset_stats()
    after = machine.snapshot()
    assert after["pipeline"]["instret"] == 0
    assert after["pipeline"]["cycles"] == 0
    assert after["memory"]["il1"]["accesses"] == 0
    assert after["memory"]["bus"]["cpu_transfers"] == 0
    assert after["kernel"]["context_switches"] == 0
    assert after["rse"]["checks_seen"] == 0
    # Architectural state survives: the machine cycle keeps advancing.
    assert machine.cycle == before["cycle"]


def test_legacy_stats_shims_are_gone():
    """The pre-snapshot accessors were removed, not left half-working.

    ``snapshot()`` is the one stats surface; a stale caller should get
    an immediate AttributeError, never silently diverging counters.
    """
    machine, __ = run_machine(with_rse=True, modules=("icm",))
    assert not hasattr(machine.pipeline.stats, "as_dict")
    assert not hasattr(machine.hierarchy.dl1.stats, "as_dict")
    assert not hasattr(machine.hierarchy, "stats")
    assert not hasattr(machine.rse, "stats")
    assert set(machine.pipeline.stats.snapshot()) == \
        set(PipelineStats.FIELDS) | {"ipc"}
