"""Shared test utilities: build and run small machines from assembly."""

from repro.funcsim import FuncSim
from repro.isa.assembler import assemble
from repro.memory.bus import BASELINE_TIMING
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import MainMemory
from repro.pipeline import Pipeline, PipelineConfig

STACK_TOP = 0x7FFF0000


def load_assembly(source, constants=None):
    asm = assemble(source, constants=constants)
    mem = MainMemory()
    mem.store_bytes(asm.text_base, asm.text)
    mem.store_bytes(asm.data_base, asm.data)
    return asm, mem


def make_pipeline(mem, entry, timing=BASELINE_TIMING, config=None, rse=None,
                  cache_configs=None):
    hierarchy = MemoryHierarchy(timing, cache_configs)
    pipeline = Pipeline(mem, hierarchy, config=config or PipelineConfig(),
                        rse=rse)
    pipeline.reset_at(entry)
    pipeline.regs[29] = STACK_TOP
    return pipeline


def run_pipeline(source, max_cycles=2_000_000, constants=None, config=None,
                 rse=None, timing=BASELINE_TIMING):
    """Assemble, run on the OoO pipeline until an event; returns (pipeline, asm, event)."""
    asm, mem = load_assembly(source, constants=constants)
    pipeline = make_pipeline(mem, asm.entry, timing=timing, config=config,
                             rse=rse)
    event = pipeline.run(max_cycles=max_cycles)
    return pipeline, asm, event


def run_func(source, max_steps=5_000_000, constants=None):
    """Assemble, run on the functional simulator; returns (sim, asm, result)."""
    asm, mem = load_assembly(source, constants=constants)
    sim = FuncSim(mem, entry=asm.entry, sp=STACK_TOP)
    result = sim.run(max_steps)
    return sim, asm, result


def assert_same_architectural_state(source, regs_of_interest=range(2, 32),
                                    mem_words=(), constants=None):
    """Run *source* on both engines and compare registers and memory words."""
    func_sim, func_asm, func_result = run_func(source, constants=constants)
    pipe, pipe_asm, event = run_pipeline(source, constants=constants)
    assert func_result.value == "halted", func_result
    assert event.kind.value == "halt", event
    for reg in regs_of_interest:
        if reg == 1:
            continue          # $at is assembler scratch
        assert pipe.regs[reg] == func_sim.regs[reg], (
            "reg %d: pipeline=0x%08x func=0x%08x" % (
                reg, pipe.regs[reg], func_sim.regs[reg]))
    for label_or_addr in mem_words:
        addr = (func_asm.symbols[label_or_addr]
                if isinstance(label_or_addr, str) else label_or_addr)
        assert (pipe.memory.load_word(addr) ==
                func_sim.memory.load_word(addr)), hex(addr)
    assert pipe.stats.instret == func_sim.instret, (
        "instret: pipeline=%d func=%d" % (pipe.stats.instret,
                                          func_sim.instret))
    return pipe, func_sim
