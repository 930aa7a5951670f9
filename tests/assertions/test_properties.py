"""Unit tests: the catalog itself and checkers fed synthetic events."""

import pytest

from repro.assertions import PROPERTIES, catalog, shared_properties
from repro.assertions.monitor import EVENTS, AssertionMonitor
from repro.assertions.properties import ALL_ENGINES, select
from repro.rse.check import MODULE_MLR
from repro.rse.ioq import IOQEntry
from repro.rse.module import RSEModule
from repro.system import build_machine


class _FakeInstr:
    def __init__(self, is_check=True):
        self.is_check = is_check


class _FakeUop:
    def __init__(self, seq=1, pc=0x1000, is_check=True):
        self.seq = seq
        self.pc = pc
        self.instr = _FakeInstr(is_check)


def make_entry(is_check=True, seq=1):
    return IOQEntry(seq, _FakeUop(seq=seq, is_check=is_check), 0)


def fire(monitor, event, *payload):
    for handler in monitor.handlers(event):
        handler(*payload)


# ----------------------------------------------------------------- catalog

def test_catalog_has_at_least_eight_properties():
    assert len(PROPERTIES) >= 8
    entries = catalog()
    assert len(entries) == len(PROPERTIES)
    for pid, description, engines in entries:
        assert pid and description
        assert engines
        assert set(engines) <= set(ALL_ENGINES)


def test_every_engine_hosts_multiple_properties():
    for engine in ALL_ENGINES:
        assert len(select(engine)) >= 4, engine


def test_select_unknown_property_raises():
    with pytest.raises(KeyError):
        select("pipeline", properties=["no-such-property"])


def test_select_restricts_to_requested_ids():
    classes = select("pipeline", properties=["store-reaches-memory"])
    assert [cls.id for cls in classes] == ["store-reaches-memory"]


def test_shared_properties_symmetric_and_comparable():
    assert shared_properties("interp", "pipeline") == \
        shared_properties("pipeline", "interp")
    # Every fully portable property is comparable across any pair.
    assert "store-reaches-memory" in shared_properties("interp", "predecode")
    # Pipeline-only properties never enter a funcsim comparison.
    assert "ioq-alloc-encoding" not in shared_properties(
        "interp", "pipeline")


def test_checker_events_are_all_known():
    for cls in PROPERTIES.values():
        hooks = [name for name in dir(cls) if name.startswith("on_")]
        assert hooks, cls.id
        for name in hooks:
            assert name[3:] in EVENTS, (cls.id, name)


# ------------------------------------------------------- synthetic events

def test_retire_alignment_fires_on_misaligned_pc():
    monitor = AssertionMonitor("interp", properties=["retire-alignment"])
    fire(monitor, "retire", 0x1002, 0x1006, 0x1006, False, False)
    assert monitor.violated_properties() == {"retire-alignment"}


def test_retire_contiguity_tracks_expected_next():
    monitor = AssertionMonitor("interp", properties=["retire-contiguity"])
    fire(monitor, "retire", 0x1000, 0x1004, 0x1004, False, False)
    fire(monitor, "retire", 0x1004, 0x1008, 0x1008, False, False)
    assert not monitor.violations
    fire(monitor, "retire", 0x2000, 0x2004, 0x2004, False, False)
    assert monitor.violated_properties() == {"retire-contiguity"}


def test_retire_contiguity_reset_by_redirect():
    monitor = AssertionMonitor("interp", properties=["retire-contiguity"])
    fire(monitor, "retire", 0x1000, 0x1004, 0x1004, False, False)
    fire(monitor, "redirect", 0x2000)
    fire(monitor, "retire", 0x2000, 0x2004, 0x2004, False, False)
    assert not monitor.violations


def test_retire_contiguity_checks_derived_against_observed():
    monitor = AssertionMonitor("interp", properties=["retire-contiguity"])
    fire(monitor, "retire", 0x1000, 0x1004, 0x2000, False, False)
    assert monitor.violation_count() == 1


def test_ioq_alloc_encoding_flags_miscoded_entry():
    monitor = AssertionMonitor("pipeline", properties=["ioq-alloc-encoding"])
    good = make_entry(is_check=True)
    fire(monitor, "ioq_alloc", good)
    assert not monitor.violations
    bad = make_entry(is_check=True, seq=2)
    bad.check_valid = 1          # architectural bit corrupted at alloc
    fire(monitor, "ioq_alloc", bad)
    assert monitor.violated_properties() == {"ioq-alloc-encoding"}


def test_ioq_properties_stand_down_on_stuck_entries():
    """Injected stuck-at faults belong to the Table 2 watchdog."""
    monitor = AssertionMonitor("pipeline")
    entry = make_entry(is_check=True)
    entry.stuck_check_valid = 1
    fire(monitor, "ioq_alloc", entry)
    fire(monitor, "ioq_gate", entry, "ok", False)
    assert not monitor.violations


def test_ioq_gate_flags_consume_without_valid():
    monitor = AssertionMonitor("pipeline",
                               properties=["ioq-valid-before-consume"])
    entry = make_entry(is_check=True)
    fire(monitor, "ioq_gate", entry, "wait", False)     # stall is fine
    assert not monitor.violations
    fire(monitor, "ioq_gate", entry, "ok", False)       # consumed at 00
    assert monitor.violated_properties() == {"ioq-valid-before-consume"}


def test_ioq_gate_trusts_safe_mode():
    monitor = AssertionMonitor("pipeline",
                               properties=["ioq-valid-before-consume"])
    entry = make_entry(is_check=True)
    fire(monitor, "ioq_gate", entry, "ok", True)        # decoupled
    assert not monitor.violations


def test_mau_quiesce_fires_only_on_capture_with_pending():
    monitor = AssertionMonitor("pipeline",
                               properties=["mau-quiesce-before-checkpoint"])
    fire(monitor, "checkpoint", False)     # every request deliverable
    assert not monitor.violations
    fire(monitor, "checkpoint", True)      # captured an orphaned request
    assert monitor.violated_properties() == {"mau-quiesce-before-checkpoint"}

    # Through the hub: a pending request for an attached module restores
    # onto the live module; one for a detached module cannot.
    machine = build_machine(with_rse=True, modules=("mlr",))
    monitor = machine.assertions.attach(
        properties=["mau-quiesce-before-checkpoint"])
    mau = machine.rse.mau
    mau.load("MLR", 0x1000, 16, module=machine.module(MODULE_MLR))
    machine.checkpoint()
    assert not monitor.violations
    mau.load("stray", 0x1000, 16, module=RSEModule("stray"))
    machine.checkpoint()
    assert monitor.violated_properties() == {"mau-quiesce-before-checkpoint"}


def test_violation_records_carry_context():
    monitor = AssertionMonitor("pipeline", properties=["retire-alignment"])
    monitor.clock = lambda: 42
    fire(monitor, "retire", 0x1001, None, None, False, False)
    violation = monitor.violations[0]
    assert violation.property_id == "retire-alignment"
    assert violation.engine == "pipeline"
    assert violation.pc == 0x1001
    assert violation.cycle == 42
    doc = violation.to_dict()
    assert doc["property"] == "retire-alignment"
    assert doc["operands"] == {"pc": 0x1001}


def test_violation_list_is_bounded_but_counts_are_not():
    monitor = AssertionMonitor("pipeline", properties=["retire-alignment"],
                               violation_limit=3)
    for __ in range(10):
        fire(monitor, "retire", 0x1001, None, None, False, False)
    assert len(monitor.violations) == 3
    assert monitor.violation_count() == 10
