"""Runtime re-randomization (the Section 4.1 extension)."""

import random

from repro.memory.mainmem import PAGE_SIZE
from repro.program.layout import MemoryLayout
from repro.security.rerandomize import (
    register_pointer_table,
    rerandomize_heap,
)
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

# The program allocates a heap buffer, stores its address in a pointer
# variable listed in the "special data section" (ptr_table), writes a
# value through the pointer, then waits for the host to re-randomize and
# finally re-reads through the (patched) pointer.
PROGRAM = """
.data
heap_ptr:  .word 0               # a pointer variable (compiler-identified)
ptr_table: .word heap_ptr        # the special data section
phase:     .word 0
readback:  .word 0

.text
main:
    li $v0, SYS_SBRK
    li $a0, 4096
    syscall
    la $t0, heap_ptr
    sw $v0, 0($t0)               # heap_ptr = sbrk(4096)
    li $t1, 0xBEEF
    sw $t1, 0($v0)               # *heap_ptr = 0xBEEF
    # signal the host and wait for re-randomization
    la $t0, phase
    li $t1, 1
    sw $t1, 0($t0)
wait:
    li $v0, SYS_YIELD
    syscall
    lw $t0, phase
    li $t1, 2
    bne $t0, $t1, wait
    # read back through the (re-randomized) pointer
    lw $t0, heap_ptr
    lw $t1, 0($t0)
    la $t2, readback
    sw $t1, 0($t2)
    halt
"""


def run_to_phase_1(machine, asm):
    """Run until the guest signals phase 1 (pipeline drained at events)."""
    for __ in range(10_000):
        machine.kernel.run(max_cycles=2000)
        if machine.memory.load_word(asm.symbols["phase"]) == 1:
            return
    raise AssertionError("guest never reached phase 1")


def run_scenario(seed=7, image=None, asm=None):
    machine = build_machine()
    if image is None:
        image, asm = build_workload_image(PROGRAM, MemoryLayout())
    machine.kernel.load_process(image)
    register_pointer_table(machine.kernel, asm.symbols["ptr_table"], 1)

    # Run until the guest signals phase 1 (pipeline drained at events).
    report = None
    for __ in range(10_000):
        result = machine.kernel.run(max_cycles=2000)
        if machine.memory.load_word(asm.symbols["phase"]) == 1 \
                and report is None:
            old_ptr = machine.memory.load_word(asm.symbols["heap_ptr"])
            report = rerandomize_heap(machine.kernel,
                                      rng=random.Random(seed))
            machine.memory.store_word(asm.symbols["phase"], 2)
            new_ptr = machine.memory.load_word(asm.symbols["heap_ptr"])
            break
    assert report is not None, "guest never reached phase 1"
    result = machine.kernel.run(max_cycles=10_000_000)
    return machine, asm, result, report, old_ptr, new_ptr


def test_heap_moves_and_pointers_are_patched():
    machine, asm, result, report, old_ptr, new_ptr = run_scenario()
    assert result.reason == "halt"
    assert report.pages_moved >= 1
    assert report.pointers_patched == 1
    assert new_ptr == old_ptr + report.delta
    # The guest's post-re-randomization read sees its own data.
    assert machine.memory.load_word(asm.symbols["readback"]) == 0xBEEF


def test_old_heap_location_is_retired():
    machine, asm, result, report, old_ptr, __ = run_scenario()
    # Old pages are unmapped (a stale hardcoded pointer now crashes) and
    # scrubbed (no information leak).
    page = old_ptr >> 12
    assert page not in machine.kernel.page_perms
    assert machine.memory.load_word(old_ptr) == 0


def test_rerandomization_is_seed_dependent():
    __, __, __, report_a, __, __ = run_scenario(seed=1)
    __, __, __, report_b, __, __ = run_scenario(seed=2)
    assert report_a.delta != report_b.delta


def test_unregistered_pointers_break():
    """Without the compiler's pointer table the stale pointer crashes —
    exactly why the paper needs the special data section."""
    machine = build_machine()
    image, asm = build_workload_image(PROGRAM, MemoryLayout())
    machine.kernel.load_process(image)
    # note: no register_pointer_table call
    for __ in range(10_000):
        machine.kernel.run(max_cycles=2000)
        if machine.memory.load_word(asm.symbols["phase"]) == 1:
            rerandomize_heap(machine.kernel, rng=random.Random(3))
            machine.memory.store_word(asm.symbols["phase"], 2)
            break
    result = machine.kernel.run(max_cycles=10_000_000)
    assert result.reason == "fault"          # stale heap_ptr, unmapped page


def test_rerandomization_leaves_a_shared_image_alone():
    """A second machine loading the same image after a re-randomization
    starts with the image's own heap, not the moved one."""
    image, asm = build_workload_image(PROGRAM, MemoryLayout())
    heap_base = image.layout.heap_base
    machine, __, __, report, __, __ = run_scenario(image=image, asm=asm)
    assert (machine.kernel.loaded.image.layout.heap_base
            == heap_base + report.delta)
    assert image.layout.heap_base == heap_base

    second = build_machine()
    second.kernel.load_process(image)
    assert second.kernel.brk == heap_base + PAGE_SIZE
    assert second.kernel.loaded.image.layout.heap_base == heap_base


def test_checkpoints_share_the_loaded_process():
    machine = build_machine()
    image, asm = build_workload_image(PROGRAM, MemoryLayout())
    machine.kernel.load_process(image)
    checkpoint = machine.checkpoint()
    assert checkpoint._state["kernel"]["loaded"] is machine.kernel.loaded
    machine.restore(checkpoint)
    assert checkpoint._state["kernel"]["loaded"] is machine.kernel.loaded


def test_restore_after_rerandomization_brings_back_the_old_heap():
    machine = build_machine()
    image, asm = build_workload_image(PROGRAM, MemoryLayout())
    machine.kernel.load_process(image)
    register_pointer_table(machine.kernel, asm.symbols["ptr_table"], 1)
    run_to_phase_1(machine, asm)
    before = machine.kernel.loaded
    brk = machine.kernel.brk
    checkpoint = machine.checkpoint()

    report = rerandomize_heap(machine.kernel, rng=random.Random(7))
    assert machine.kernel.loaded is not before
    assert machine.kernel.brk == brk + report.delta

    machine.restore(checkpoint)
    assert machine.kernel.loaded is before
    assert machine.kernel.loaded.image.layout.heap_base == \
        image.layout.heap_base
    assert machine.kernel.brk == brk
