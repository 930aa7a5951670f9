#!/usr/bin/env python3
"""Quickstart: build a machine with the RSE, run a program, catch an error.

This walks the library's core loop end to end:

1. write a small assembly program and assemble it;
2. build a simulated machine with the RSE framework and the Instruction
   Checker Module (ICM) attached;
3. provision the ICM's CheckerMemory from a static parse of the binary
   and enable runtime CHECK insertion for all control-flow instructions;
4. run the clean program (every check passes);
5. flip one bit of a branch instruction in memory — modelling a
   multi-bit-upset on the memory-to-dispatch path — and watch the ICM
   stop the pipeline before the corrupted instruction can retire.

Run:  python examples/quickstart.py
"""

import _bootstrap  # noqa: F401  (sys.path for repo checkouts)

from repro.isa.assembler import assemble
from repro.isa.encoding import flip_bit
from repro.pipeline.core import EventKind
from repro.rse.check import MODULE_ICM
from repro.rse.modules.icm import arm_icm
from repro.system import build_machine

PROGRAM = """
    main:
        li  $t0, 0          # sum
        li  $t1, 100        # counter
    loop:
        add $t0, $t0, $t1
        addi $t1, $t1, -1
        bnez $t1, loop      # <- control flow: checked by the ICM
        halt
"""


def build():
    machine = build_machine(with_rse=True, modules=("icm",))
    asm = assemble(PROGRAM)
    machine.memory.store_bytes(asm.text_base, asm.text)

    arm_icm(machine, asm.text_base, len(asm.text))
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = 0x7FFF0000
    return machine, asm, machine.module(MODULE_ICM)


def main():
    print("== clean run " + "=" * 50)
    machine, asm, icm = build()
    event = machine.pipeline.run(max_cycles=200_000)
    stats = machine.pipeline.stats
    print("event:            %s" % event.kind.value)
    print("sum(1..100):      %d" % machine.pipeline.regs[8])
    print("cycles:           %d   instructions: %d   IPC: %.2f"
          % (stats.cycles, stats.instret, stats.ipc))
    print("ICM checks:       %d   Icm_Cache hit rate: %.1f%%"
          % (icm.checks_completed, 100 * icm.cache_hit_rate))
    assert event.kind is EventKind.HALT and machine.pipeline.regs[8] == 5050

    print()
    print("== corrupted run " + "=" * 46)
    machine, asm, icm = build()
    branch_pc = min(icm.checker_map)          # first checked instruction
    word = machine.memory.load_word(branch_pc)
    corrupted = flip_bit(word, 20)
    machine.memory.store_word(branch_pc, corrupted)
    print("flipped bit 20 of the instruction at 0x%08x "
          "(0x%08x -> 0x%08x)" % (branch_pc, word, corrupted))
    event = machine.pipeline.run(max_cycles=200_000)
    print("event:            %s (%s)" % (event.kind.value, event.cause))
    print("ICM mismatches:   %d" % icm.mismatches)
    assert event.kind is EventKind.CHECK_ERROR
    print()
    print("The ICM compared the fetched binary against its redundant copy")
    print("and flushed the pipeline before the corrupt branch committed.")


if __name__ == "__main__":
    main()
