"""Attribution: stuck-at IOQ faults belong to the Table 2 watchdog.

An injected stuck-at-'1' on ``checkValid`` must be reported exactly
once, by the self-checking watchdog (which reads the *effective* bits),
and never by the assertion suite (which reads the *architectural* bits
and stands down on stuck entries).  Conversely, an architectural
mis-encoding with no stuck-at override is the assertion suite's to
flag — and a single occurrence is below the watchdog's streak
threshold, so it stays silent.
"""

import sys

from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.rse.check import asm_constants
from repro.system import build_machine

sys.path.insert(0, "tests")
from probe_module import TEST_MODULE_ID, ProbeModule          # noqa: E402

STACK_TOP = 0x7FFF0000

CHECK_LOOP = """
    main:
        li $t1, 20
    loop:
        chk PROBE, BLK, 2, 0
        addi $t1, $t1, -1
        bnez $t1, loop
        halt
"""


def build_monitored(source, module):
    machine = build_machine(with_rse=True)
    machine.rse.attach(module)
    constants = asm_constants()
    constants["PROBE"] = TEST_MODULE_ID
    asm = assemble(source, constants=constants)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.rse.enable_module(TEST_MODULE_ID)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP
    machine.assertions.attach()
    return machine


def inject_alloc_fault(machine, mutate):
    original_allocate = machine.rse.ioq.allocate

    def faulty_allocate(uop, cycle):
        entry = original_allocate(uop, cycle)
        if uop.instr.is_check:
            mutate(entry)
        return entry

    machine.rse.ioq.allocate = faulty_allocate


def ioq_assertion_counts(machine):
    return {pid: count
            for pid, count in machine.assertions.monitor.counts.items()
            if pid.startswith("ioq-")}


def test_stuck_at_1_goes_to_watchdog_not_assertions():
    module = ProbeModule(delay=5)
    machine = build_monitored(CHECK_LOOP, module)

    def stuck(entry):
        entry.stuck_check_valid = 1

    inject_alloc_fault(machine, stuck)
    event = machine.pipeline.run(max_cycles=100_000)
    machine.assertions.detach()
    assert event.kind is EventKind.HALT
    # One detection channel fired: the watchdog decoupled ...
    assert machine.rse.safe_mode
    assert any("stuck-at-1" in trip.reason
               for trip in machine.rse.selfcheck.trips)
    # ... and the assertion suite attributed nothing to itself.
    assert ioq_assertion_counts(machine) == {}


def test_architectural_miscode_goes_to_assertions_not_watchdog(monkeypatch):
    # Count what the property is shown: every CHECK entry, and nothing
    # else, since only CHECKs have IOQ entries.
    from repro.assertions.properties import IOQAllocEncoding
    shown = {True: 0, False: 0}
    original = IOQAllocEncoding.on_ioq_alloc

    def counting(self, entry):
        shown[entry.uop.instr.is_check] += 1
        original(self, entry)

    monkeypatch.setattr(IOQAllocEncoding, "on_ioq_alloc", counting)
    module = ProbeModule(delay=5)
    machine = build_monitored(CHECK_LOOP, module)
    seen = {"count": 0}

    def miscode_once(entry):
        if seen["count"] == 0:
            entry.check_valid = 1          # real bit corrupted, no override
        seen["count"] += 1

    inject_alloc_fault(machine, miscode_once)
    event = machine.pipeline.run(max_cycles=100_000)
    machine.assertions.detach()
    assert event.kind is EventKind.HALT
    # One mis-encoded alloc is below the watchdog's stuck-at-1 streak
    # threshold, so the framework stays coupled ...
    assert not machine.rse.safe_mode
    assert not machine.rse.selfcheck.trips
    # ... and the assertion suite flagged exactly that entry.
    assert ioq_assertion_counts(machine) == {"ioq-alloc-encoding": 1}
    assert shown[True] >= 20 and shown[False] == 0


def test_healthy_check_traffic_is_silent_everywhere():
    module = ProbeModule(delay=3)
    machine = build_monitored(CHECK_LOOP, module)
    event = machine.pipeline.run(max_cycles=100_000)
    machine.assertions.detach()
    assert event.kind is EventKind.HALT
    assert not machine.rse.safe_mode
    assert not machine.rse.selfcheck.trips
    assert machine.assertions.violation_count() == 0
