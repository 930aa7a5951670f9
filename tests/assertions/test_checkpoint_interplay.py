"""Assertions stay correct — and silent — across checkpoint/restore.

Capturing a monitored machine must leave its shadows in place and out
of the checkpoint (wrapper closures never become machine state); the
hub must emit the checkpoint/restore events and treat the restore
redirect as a sanctioned discontinuity rather than a contiguity
violation.
"""

from repro.assertions.monitor import AssertionMonitor
from repro.campaign import DEMO_WORKLOAD
from repro.isa.assembler import assemble
from repro.memory.mainmem import PAGE_SIZE
from repro.pipeline.core import EventKind
from repro.system import build_machine

STACK_TOP = 0x7FFF0000
BUDGET = 200_000


def build_monitored_machine():
    asm = assemble(DEMO_WORKLOAD)
    machine = build_machine(with_rse=False)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP
    machine.assertions.attach()
    return machine


def test_checkpoint_restore_cycle_stays_silent_and_deterministic():
    machine = build_monitored_machine()
    event = machine.pipeline.run(max_cycles=400)
    assert event.kind is EventKind.MAX_CYCLES
    captured = machine.checkpoint()

    event = machine.pipeline.run(max_cycles=BUDGET)
    assert event.kind is EventKind.HALT
    first_regs = list(machine.pipeline.regs)
    first_cycle = machine.pipeline.cycle

    machine.restore(captured)
    event = machine.pipeline.run(max_cycles=BUDGET)
    assert event.kind is EventKind.HALT
    assert list(machine.pipeline.regs) == first_regs
    assert machine.pipeline.cycle == first_cycle

    machine.assertions.detach()
    assert machine.assertions.violation_count() == 0, \
        machine.assertions.violations()[:3]


def test_shadows_resume_after_capture(monkeypatch):
    """Instrumentation must still observe commits after a checkpoint."""
    from repro.isa import semantics

    machine = build_monitored_machine()
    machine.pipeline.run(max_cycles=400)
    machine.checkpoint()
    # Break sw *after* the capture: if capturing had dropped the
    # shadows, the dropped stores would sail past unobserved.
    monkeypatch.setitem(semantics.STORE_OPS, "sw",
                        lambda memory, addr, value: None)
    machine.pipeline.run(max_cycles=5_000)
    assert "store-reaches-memory" in \
        machine.assertions.monitor.violated_properties()


def test_checkpoint_capture_excludes_wrapper_state():
    """The captured machine state equals a bare machine's capture."""
    bare = build_monitored_machine()
    bare.assertions.detach()
    bare.pipeline.run(max_cycles=400)
    bare_capture = bare.checkpoint()

    monitored = build_monitored_machine()
    monitored.pipeline.run(max_cycles=400)
    monitored_capture = monitored.checkpoint()

    monitored_fields = set(monitored_capture._state["pipeline"])
    assert monitored_fields & {"step", "run", "resume", "reset_at",
                               "_try_issue_load"} == set()
    assert monitored_fields == set(bare_capture._state["pipeline"])


# ----------------------------------------------- synthetic restore events

class _FakeMemory:
    def __init__(self, versions, page_bytes):
        self.write_versions = versions
        self._pages = page_bytes

    def load_bytes(self, base, size):
        return self._pages[base // PAGE_SIZE][:size]


class _FakeCheckpoint:
    def __init__(self, pages):
        self.pages = pages


def _restore_monitor():
    return AssertionMonitor("pipeline",
                            properties=["page-version-monotonic"])


def test_page_version_rollback_fires():
    monitor = _restore_monitor()
    memory = _FakeMemory({3: 1}, {})
    for handler in monitor.handlers("restore"):
        handler(memory, _FakeCheckpoint({}), {3: 5})
    assert monitor.violated_properties() == {"page-version-monotonic"}


def test_restored_page_content_mismatch_fires():
    monitor = _restore_monitor()
    good = bytes(PAGE_SIZE)
    bad = b"\x01" + bytes(PAGE_SIZE - 1)
    memory = _FakeMemory({0: 7}, {0: bad})
    for handler in monitor.handlers("restore"):
        handler(memory, _FakeCheckpoint({0: good}), {0: 7})
    assert monitor.violated_properties() == {"page-version-monotonic"}


def test_clean_restore_event_is_silent():
    monitor = _restore_monitor()
    payload = bytes(PAGE_SIZE)
    memory = _FakeMemory({0: 8}, {0: payload})
    for handler in monitor.handlers("restore"):
        handler(memory, _FakeCheckpoint({0: payload}), {0: 7})
    assert not monitor.violations
