"""Engine behaviour: IOQ gating (Table 1), enable/disable, MAU, squash."""

from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.rse.check import OP_ENABLE, asm_constants
from repro.system import build_machine

from probe_module import TEST_MODULE_ID, ProbeModule


def build_probe_machine(source, module=None, enable=True):
    machine = build_machine(with_rse=True)
    probe = module or ProbeModule()
    machine.rse.attach(probe)
    constants = asm_constants()
    constants["PROBE"] = TEST_MODULE_ID
    asm = assemble(source, constants=constants)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    if enable:
        machine.rse.enable_module(TEST_MODULE_ID)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = 0x7FFF0000
    return machine, probe


BLOCKING_CHECK = """
    main:
        li $t0, 1
        chk PROBE, BLK, 2, 0x33
        li $t0, 2
        halt
"""


def test_blocking_check_stalls_then_commits():
    machine, probe = build_probe_machine(BLOCKING_CHECK)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    assert machine.pipeline.regs[8] == 2
    assert probe.seen and probe.seen[0][0] == 2
    assert machine.pipeline.stats.check_wait_cycles > 0


def test_blocking_check_error_flushes():
    machine, probe = build_probe_machine(BLOCKING_CHECK,
                                         module=ProbeModule(error=True))
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.CHECK_ERROR
    # The instruction after the failing CHECK never committed.
    assert machine.pipeline.regs[8] == 1


def test_nonblocking_check_does_not_stall():
    machine, probe = build_probe_machine("""
        main:
            chk PROBE, NBLK, 2, 7
            li $t0, 9
            halt
    """, module=ProbeModule(delay=500))
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    # Far less than the module delay: commit never waited for it.
    assert machine.pipeline.stats.cycles < 400


def test_payload_delivered_through_regfile_data():
    machine, probe = build_probe_machine("""
        main:
            li $a0, 0x1234
            li $a1, 0x5678
            chk PROBE, BLK, 0x12, 0
            halt
    """)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    assert probe.seen[0][2] == (0x1234, 0x5678)


def test_enable_via_check_instruction():
    machine, probe = build_probe_machine("""
        main:
            chk PROBE, NBLK, 2, 1          # ignored: module disabled
            chk PROBE, NBLK, OP_ENABLE, 0
            chk PROBE, NBLK, 2, 2          # now delivered
            halt
    """, enable=False)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    assert probe.enabled
    assert [param for __, param, __ in probe.seen] == [2]


def test_disable_via_check_instruction():
    machine, probe = build_probe_machine("""
        main:
            chk PROBE, NBLK, 2, 1
            chk PROBE, NBLK, OP_DISABLE, 0
            chk PROBE, NBLK, 2, 2          # desensitised: constant '10'
            halt
    """)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    assert not probe.enabled
    assert [param for __, param, __ in probe.seen] == [1]


def test_unknown_module_check_commits():
    machine, __ = build_probe_machine("""
        main:
            chk 9, BLK, 2, 0          # no module 9 attached
            li $t0, 4
            halt
    """)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    assert machine.pipeline.regs[8] == 4


def test_wrong_path_check_has_no_permanent_effect():
    # A CHECK sits on the wrong path of a branch.  Like the real ICM, a
    # module may *start* a speculative check (Figure 6 starts work right
    # after fetch), but a squashed CHECK must never gate commit or flush
    # the pipeline — even when the module declares an error for it.
    machine, probe = build_probe_machine("""
        main:
            li $t0, 1
            li $t2, 40
        loop:
            beqz $t0, skipped          # never taken
            j over
        skipped:
            chk PROBE, BLK, 2, 0xBAD
        over:
            addi $t2, $t2, -1
            bnez $t2, loop
            li $t1, 5
            halt
    """, module=ProbeModule(error=True, delay=1))
    event = machine.pipeline.run(max_cycles=50_000)
    assert event.kind is EventKind.HALT          # error never surfaced
    assert machine.pipeline.regs[9] == 5
    assert len(machine.rse.ioq) == 0          # squashed entries freed


def test_ioq_frees_entries():
    machine, __ = build_probe_machine(BLOCKING_CHECK)
    machine.pipeline.run(max_cycles=10_000)
    assert len(machine.rse.ioq) == 0
    assert machine.rse.snapshot()["ioq"]["allocated"] >= 4


def test_mau_moves_data_and_counts():
    machine, probe = build_probe_machine("main: halt")
    machine.memory.store_bytes(0x9000, b"\xAA" * 64)
    results = []
    probe.on_mau_complete = lambda request: results.append(request.result)
    machine.rse.mau.load("test", 0x9000, 64, module=probe)
    machine.rse.mau.store("test", 0xA000, b"\x55" * 32)
    machine.pipeline.run(max_cycles=10_000)
    for __ in range(200):          # drain the MAU after halt
        machine.rse.step(machine.pipeline.cycle)
        machine.pipeline.cycle += 1
    assert results == [b"\xAA" * 64]
    assert machine.memory.load_bytes(0xA000, 32) == b"\x55" * 32
    assert machine.rse.mau.requests_total == 2
    assert machine.hierarchy.bus.mau_transfers == 2


def test_engine_stats_shape():
    machine, __ = build_probe_machine(BLOCKING_CHECK)
    machine.pipeline.run(max_cycles=10_000)
    stats = machine.rse.snapshot()
    assert stats["checks_seen"] >= 1
    assert "Probe" in stats["modules"]
