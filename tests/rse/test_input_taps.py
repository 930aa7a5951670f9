"""Fidelity of the Execute_Out / Memory_Out / Regfile_Data taps.

A passive observer module records what arrives on each tap; the values
must match architectural truth (effective addresses, loaded values,
operand values) — this is the data the DDT/ICM class of modules feeds
on.
"""

from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.system import build_machine

from probe_module import TapObserver


def run(source):
    machine = build_machine(with_rse=True)
    observer = machine.rse.attach(TapObserver())
    machine.rse.enable_module(TapObserver.MODULE_ID)
    asm = assemble(source)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = 0x7FFF0000
    event = machine.pipeline.run(max_cycles=100_000)
    assert event.kind is EventKind.HALT
    machine.rse.drain()          # deliver the last latched commits
    return machine, asm, observer


def test_memory_out_carries_loaded_values():
    machine, asm, observer = run("""
        .data
        vals: .word 11, 22, 33
        .text
        main:
            la $t0, vals
            lw $t1, 0($t0)
            lw $t2, 4($t0)
            lw $t3, 8($t0)
            halt
    """)
    # Memory_Out reflects *completion* order (out-of-order writeback);
    # all three architectural values must arrive exactly once.
    values = [value for __, value in observer.mem_loads]
    assert sorted(values) == [11, 22, 33]


def test_execute_out_carries_effective_addresses():
    machine, asm, observer = run("""
        .data
        slot: .word 0
        .text
        main:
            la $t0, slot
            li $t1, 5
            sw $t1, 0($t0)
            halt
    """)
    store_records = [(name, addr) for name, addr, __ in observer.executed
                     if name == "sw"]
    assert store_records == [("sw", asm.symbols["slot"])]


def test_commit_order_is_program_order():
    machine, asm, observer = run("""
        main:
            li $t0, 4
        loop:
            addi $t0, $t0, -1
            bnez $t0, loop
            halt
    """)
    pcs = observer.commits
    # In-order commit: the loop body repeats addi/bnez pairs in program
    # order, bracketed by the li and the halt.
    assert pcs[0] == asm.symbols["main"]
    assert pcs[-1] == asm.symbols["loop"] + 8          # the halt instruction
    assert len(pcs) == 1 + 2 * 4 + 1          # li + 4x(addi,bnez) + halt
    body = pcs[1:-1]
    assert body == [asm.symbols["loop"], asm.symbols["loop"] + 4] * 4


def test_wrong_path_loads_never_reach_memory_out():
    # The never-taken branch waits on a divide, and a first-seen branch
    # is predicted taken, so the core runs down `wrong` meanwhile.  Its
    # load depends on the divide too and completes one cycle before the
    # branch resolves: Memory_Out latches it, and the squash flushes it
    # before the latch delivers.  The two warm-ups put the poison line
    # in dl1 and the `wrong` block in il1, so the load is that fast.
    machine, asm, observer = run("""
        .data
        good: .word 1
        poison: .word 0xDEAD
        .text
        main:
            la $t5, poison
            lw $t4, 0($t5)
            jal warm
            li $t1, 1
            li $t0, 0
            div $t2, $t0, $t1
            move $t7, $t2
            addi $t7, $t7, 0
            addi $t7, $t7, 0
            addi $t7, $t7, 0
            bnez $t7, wrong
            lw $t6, good
            halt
        warm:
            jr $ra
        wrong:
            add $t8, $t5, $t2
            lw $t3, 0($t8)
            halt
    """)
    wrong_load = asm.symbols["wrong"] + 4
    # Three loads completed: the warm-up, the wrong-path one and `good`.
    assert machine.rse.queues.memory_out.pushed_total == 3
    assert [pc for pc, __ in observer.mem_loads] == [
        asm.symbols["main"] + 8, asm.symbols["warm"] - 8]
    assert wrong_load not in [pc for pc, __ in observer.mem_loads]
    for pc in range(asm.symbols["wrong"], asm.symbols["wrong"] + 12, 4):
        assert pc not in observer.commits
