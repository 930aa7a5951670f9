"""Predecode differential: cache-on must be bit-identical to cache-off.

The predecode cache is a pure speed layer — ``predecode_enabled=False``
selects the reference fetch/decode/dispatch interpreter, and these tests
drive both engines over the real workloads (the bare-machine sources
from :mod:`repro.workloads` used throughout the experiments) and over
text-segment corruption of the kind the fault-injection campaigns
produce, asserting identical architectural outcomes.
"""

import pytest

from repro.experiments import table4
from repro.funcsim import FuncSim, StepResult
from repro.isa.assembler import assemble
from repro.isa.encoding import encode, flip_bit
from repro.isa.instructions import SPEC_BY_NAME
from repro.memory.mainmem import MainMemory
from repro.pipeline import PipelineConfig
from tests.helpers import load_assembly, make_pipeline

WORKLOADS = table4.workload_sources(quick=True)


def build_sim(source, predecode_enabled, constants=None, jit_enabled=False):
    asm = assemble(source, constants=constants)
    mem = MainMemory()
    mem.store_bytes(asm.text_base, asm.text)
    mem.store_bytes(asm.data_base, asm.data)
    sim = FuncSim(mem, entry=asm.entry, sp=0x7FFF0000,
                  predecode_enabled=predecode_enabled,
                  jit_enabled=jit_enabled)
    return sim, asm


def architectural_state(sim):
    return (sim.pc, sim.instret, sim.halted, sim.fault, tuple(sim.regs))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_funcsim_cache_on_off_identical(workload):
    source = WORKLOADS[workload]
    ref, __ = build_sim(source, predecode_enabled=False)
    fast, __ = build_sim(source, predecode_enabled=True)
    jit, __ = build_sim(source, predecode_enabled=True, jit_enabled=True)
    ref_result = ref.run(max_steps=2_000_000)
    fast_result = fast.run(max_steps=2_000_000)
    jit_result = jit.run(max_steps=2_000_000)
    assert ref_result is fast_result is jit_result is StepResult.HALTED
    assert architectural_state(ref) == architectural_state(fast)
    assert architectural_state(ref) == architectural_state(jit)
    assert jit.trace_cache.stats()["compiled"] > 0


def test_step_and_run_agree_through_the_cache():
    source = WORKLOADS["kmeans"]
    stepped, __ = build_sim(source, predecode_enabled=True)
    ran, __ = build_sim(source, predecode_enabled=True)
    while stepped.step() is StepResult.OK:
        pass
    assert ran.run(max_steps=2_000_000) is StepResult.HALTED
    assert architectural_state(stepped) == architectural_state(ran)


SELF_MODIFYING = """
    main:
        li $t0, 0
        la $t1, patch          # address of the instruction to overwrite
        lw $t2, new_word
        sw $t2, 0($t1)         # store into the text segment
    patch:
        addi $t0, $t0, 1       # replaced before it ever executes
        halt
    .data
    new_word: .word NEW_WORD
"""


@pytest.mark.parametrize("predecode_enabled", [False, True])
def test_self_modifying_code_executes_stored_word(predecode_enabled):
    # The store rewrites `patch` from addi+1 to addi+77 before the pc
    # reaches it; a stale decoded entry would still add 1.
    new_word = encode(SPEC_BY_NAME["addi"], rt=8, rs=8, imm=77)
    sim, __ = build_sim(SELF_MODIFYING, predecode_enabled,
                        constants={"NEW_WORD": new_word})
    assert sim.run(max_steps=100) is StepResult.HALTED
    assert sim.reg(8) == 77


COUNT_LOOP = """
    main:
        li $t0, 0
        li $t1, 200
    loop:
        addi $t0, $t0, 1
        addi $t1, $t1, -1
        bnez $t1, loop
        halt
"""


def corrupt_after(sim, asm, steps, target_label_offset, bit):
    """Run *steps* instructions, then flip *bit* of a text word — the
    shape of a campaign ``mem-flip``/``instr-flip`` landing on text."""
    for __ in range(steps):
        assert sim.step() is StepResult.OK
    addr = asm.text_base + target_label_offset
    word = sim.memory.load_word(addr)
    sim.memory.store_word(addr, flip_bit(word, bit))
    return addr, flip_bit(word, bit)


def test_corrupting_already_executed_text_changes_execution():
    # The corrupted word sits in the loop body and has already been
    # decoded, compiled and executed dozens of times when the flip
    # lands; both engines must still see the new word from then on.
    results = {}
    for predecode_enabled in (False, True):
        sim, asm = build_sim(COUNT_LOOP, predecode_enabled)
        # Text layout: li, li, addi, addi, bnez, halt -> the first addi
        # is the 3rd word.  Flip bit 1 of its immediate (+1 -> +3).
        addr, corrupted = corrupt_after(sim, asm, steps=50,
                                        target_label_offset=8, bit=1)
        result = sim.run(max_steps=10_000)
        # ICM-style binary comparison reads memory, not the cache: the
        # raw corrupted word must be what memory returns.
        assert sim.memory.load_word(addr) == corrupted
        results[predecode_enabled] = (result, architectural_state(sim))
    assert results[True] == results[False]
    # And the corruption really did change the outcome: a clean run
    # leaves $t0 == 200, the corrupted one must not.
    clean, __ = build_sim(COUNT_LOOP, predecode_enabled=True)
    clean.run(max_steps=10_000)
    assert clean.reg(8) == 200
    assert results[True][1][4][8] != 200


# --------------------------------------------------------------- pipeline

class RecordingRSE:
    """Minimal pipeline-attachment stub that records the commit trace."""

    def __init__(self):
        self.commits = []

    def on_dispatch(self, uop, cycle):
        pass

    def on_operands(self, uop, cycle, values):
        pass

    def on_execute(self, uop, cycle):
        pass

    def on_mem_load(self, uop, cycle, value):
        pass

    def ioq_gate(self, uop, cycle):
        return False

    def pre_commit_store(self, uop, cycle):
        return False

    def check_blocks_loads(self, instr):
        return False

    def on_commit(self, uop, cycle):
        self.commits.append((cycle, uop.pc, uop.instr.name))

    def on_squash(self, uops, cycle):
        pass

    def step(self, cycle):
        pass


@pytest.mark.parametrize("workload", ["vpr-route"])
def test_pipeline_commit_trace_identical_with_and_without_predecode(workload):
    traces = {}
    for predecode in (False, True):
        asm, mem = load_assembly(WORKLOADS[workload])
        rse = RecordingRSE()
        pipe = make_pipeline(mem, asm.entry,
                             config=PipelineConfig(predecode=predecode),
                             rse=rse)
        event = pipe.run(max_cycles=3_000_000)
        traces[predecode] = (event.kind.value, pipe.cycle,
                             tuple(pipe.regs), rse.commits)
    assert traces[True] == traces[False]
    assert traces[True][0] == "halt"
    assert len(traces[True][3]) > 1000
