"""ICM: redundant-copy checking, Icm_Cache behaviour, detection."""

from repro.isa.assembler import assemble
from repro.isa.encoding import flip_bit
from repro.pipeline.core import EventKind
from repro.rse.check import MODULE_ICM
from repro.rse.modules.icm import ICM, build_checker_memory, make_icm_injector
from repro.system import build_machine

LOOP_PROGRAM = """
    main:
        li $t0, 0
        li $t1, 30
    loop:
        addi $t0, $t0, 1
        blt $t0, $t1, loop
        halt
"""


def build_icm_machine(source, predicate=None):
    machine = build_machine(with_rse=True, modules=("icm",))
    asm = assemble(source)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    icm = machine.module(MODULE_ICM)
    checker_map = build_checker_memory(machine.memory, asm.text_base,
                                       len(asm.text), predicate=predicate)
    icm.configure(checker_map)
    machine.rse.enable_module(MODULE_ICM)
    machine.pipeline.check_injector = make_icm_injector(checker_map)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = 0x7FFF0000
    return machine, asm, icm


def test_clean_program_passes_all_checks():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.HALT
    assert machine.pipeline.regs[8] == 30
    assert icm.checks_completed >= 29          # one per loop branch commit
    assert icm.mismatches == 0
    assert machine.pipeline.stats.committed_checks >= 29


def test_cache_hits_dominate_in_loops():
    machine, __, icm = build_icm_machine(LOOP_PROGRAM)
    machine.pipeline.run(max_cycles=200_000)
    assert icm.cache_misses >= 1          # cold miss
    assert icm.cache_hits > icm.cache_misses


def test_detects_single_bit_flip_in_branch():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    # Corrupt the branch ("blt" expands to slt+bne; the bne is checked) in
    # *instruction memory* after the redundant copy was taken.
    branch_pc = None
    for offset in range(0, len(asm.text), 4):
        pc = asm.text_base + offset
        if pc in icm.checker_map:
            branch_pc = pc
            break
    assert branch_pc is not None
    word = machine.memory.load_word(branch_pc)
    machine.memory.store_word(branch_pc, flip_bit(word, 3))
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.CHECK_ERROR
    assert icm.mismatches >= 1


def test_detects_multi_bit_corruption():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    branch_pc = next(pc for pc in sorted(icm.checker_map))
    word = machine.memory.load_word(branch_pc)
    for bit in (1, 7, 19):
        word = flip_bit(word, bit)
    machine.memory.store_word(branch_pc, word)
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.CHECK_ERROR


def test_corruption_to_illegal_instruction_still_detected():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    branch_pc = next(pc for pc in sorted(icm.checker_map))
    machine.memory.store_word(branch_pc, 0xF4000000)          # undecodable
    event = machine.pipeline.run(max_cycles=200_000)
    # Either the ICM flags the mismatch or the decoder faults; the ICM
    # should win because the CHECK is older than the poisoned fetch.
    assert event.kind is EventKind.CHECK_ERROR


def test_checker_memory_contiguous():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    slots = sorted(icm.checker_map.values())
    assert all(b - a == 4 for a, b in zip(slots, slots[1:]))


def test_injector_only_fires_on_checked_pcs():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    injector = machine.pipeline.check_injector
    checked = sorted(icm.checker_map)
    assert injector(checked[0], None) is not None
    assert injector(asm.text_base, None) is None          # li, not control


def test_icm_disabled_means_no_checks():
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    machine.rse.disable_module(MODULE_ICM)
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.HALT
    assert icm.checks_completed == 0


def test_unmapped_pc_check_is_benign():
    # Inject CHECKs for every instruction but only map branches: non-branch
    # checks complete without error.
    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    machine.pipeline.check_injector = lambda pc, instr: \
        make_icm_injector(dict.fromkeys(
            range(asm.text_base, asm.text_base + len(asm.text), 4), 0)
        )(pc, instr) if False else None
    # Simpler: directly ask the module to check an unmapped pc via a map
    # that includes a non-control pc.
    bogus_map = dict(icm.checker_map)
    bogus_map[asm.text_base] = None          # no CheckerMemory slot
    machine.pipeline.check_injector = make_icm_injector(bogus_map)
    icm.checker_map.pop(asm.text_base, None)
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.HALT
    assert icm.unmapped_checks >= 1


def test_coverage_predicates():
    from repro.rse.modules.icm import (
        cover_all,
        cover_control,
        cover_memory,
        cover_region,
    )
    from repro.isa.encoding import decode, encode
    from repro.isa.instructions import SPEC_BY_NAME

    branch = decode(encode(SPEC_BY_NAME["beq"], rs=1, rt=2, imm=1))
    load = decode(encode(SPEC_BY_NAME["lw"], rt=1, rs=2, imm=0))
    alu = decode(encode(SPEC_BY_NAME["add"], rd=1, rs=2, rt=3))
    assert cover_control(branch) and not cover_control(load)
    assert cover_memory(load) and not cover_memory(branch)
    assert cover_all(alu) and cover_all(load) and cover_all(branch)
    region = cover_region(0x1000, 0x2000)
    assert region(alu, 0x1000) and not region(alu, 0x2000)


def test_memory_coverage_detects_load_corruption():
    from repro.rse.modules.icm import cover_memory
    from repro.isa.encoding import flip_bit

    source = """
        .data
        v: .word 5
        .text
        main:
            la $t0, v
            li $t1, 6
        loop:
            lw $t2, 0($t0)
            addi $t1, $t1, -1
            bnez $t1, loop
            halt
    """
    machine, asm, icm = build_icm_machine(source, predicate=cover_memory)
    load_pc = next(iter(icm.checker_map))
    word = machine.memory.load_word(load_pc)
    machine.memory.store_word(load_pc, flip_bit(word, 17))
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.CHECK_ERROR


def test_critical_region_coverage():
    from repro.rse.modules.icm import cover_region

    machine, asm, icm = build_icm_machine(LOOP_PROGRAM)
    region_map = __import__("repro.rse.modules.icm", fromlist=["x"]) \
        .build_checker_memory(machine.memory, asm.text_base, 8,
                              base=0x21000000,
                              predicate=cover_region(asm.text_base,
                                                     asm.text_base + 8))
    # Only the first two instructions are covered.
    assert sorted(region_map) == [asm.text_base, asm.text_base + 4]


def test_next_event_names_the_soonest_compare():
    # The pipeline skips dead cycles up to the RSE's next event, so an
    # in-flight compare must bound it (misses wait on the MAU instead).
    machine, __, icm = build_icm_machine(LOOP_PROGRAM)
    assert icm.next_event(0) is None
    while not any(check.due_cycle is not None for check in icm._inflight):
        machine.pipeline.step()
    due = min(check.due_cycle for check in icm._inflight
              if check.due_cycle is not None)
    cycle = machine.pipeline.cycle
    assert icm.next_event(cycle) == due
    assert machine.rse.quiescent(cycle) <= due
