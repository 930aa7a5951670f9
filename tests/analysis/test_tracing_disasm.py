"""Disassembler and tracing tools."""

import pytest

from repro.obs.tracer import trace_functional
from repro.isa.assembler import assemble
from repro.isa.disasm import disassemble_image, disassemble_segment
from repro.memory.mainmem import MainMemory
from repro.pipeline.core import EventKind
from repro.program.layout import MemoryLayout
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

SOURCE = """
    main:
        li $t0, 2
    loop:
        addi $t0, $t0, -1
        bnez $t0, loop
        halt
"""


def load(source=SOURCE):
    asm = assemble(source)
    memory = MainMemory()
    memory.store_bytes(asm.text_base, asm.text)
    memory.store_bytes(asm.data_base, asm.data)
    return asm, memory


def test_disassemble_roundtrips_mnemonics():
    asm, memory = load()
    lines = disassemble_segment(memory, asm.text_base, len(asm.text),
                                symbols=asm.symbols)
    mnemonics = [line.text.split()[0] for line in lines]
    assert mnemonics == ["addi", "addi", "bne", "halt"]


def test_disassemble_annotates_branch_targets():
    asm, memory = load()
    lines = disassemble_segment(memory, asm.text_base, len(asm.text),
                                symbols=asm.symbols)
    branch_line = lines[2]
    assert "<loop>" in branch_line.text
    assert lines[1].label == "loop"


def test_disassemble_handles_garbage_words():
    memory = MainMemory()
    memory.store_word(0x1000, 0xF4000000)
    lines = disassemble_segment(memory, 0x1000, 4)
    assert lines[0].text == ".word 0xf4000000"


def test_disassemble_image():
    image, asm = build_workload_image(SOURCE, MemoryLayout())
    listing = disassemble_image(image)
    assert "main:" in listing
    assert "halt" in listing


def test_functional_trace_records_register_writes():
    asm, memory = load()
    entries, sim = trace_functional(memory, asm.entry)
    assert entries[0].pc == asm.entry
    assert entries[0].reg_writes == ((8, 2),)          # li $t0, 2
    assert entries[-1].text == "halt"
    rendered = entries[0].render()
    assert "$t0=0x00000002" in rendered


def test_functional_trace_stops_on_fault():
    memory = MainMemory()
    memory.store_word(0x1000, 0xF4000000)
    entries, sim = trace_functional(memory, 0x1000, max_steps=10)
    assert len(entries) == 1
    assert "fetch fault" in entries[0].text or sim.fault


def test_commit_tracer_records_retirement_stream():
    machine = build_machine(with_rse=True)
    tracer = machine.obs.attach("commit").tracer
    asm = assemble(SOURCE)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.pipeline.reset_at(asm.entry)
    event = machine.pipeline.run(max_cycles=10_000)
    assert event.kind is EventKind.HALT
    machine.rse.drain()
    texts = [entry.text for entry in tracer.entries]
    assert texts[-1] == "halt"
    assert len(tracer.entries) == machine.pipeline.stats.instret
    cycles = [entry.cycle for entry in tracer.entries]
    assert cycles == sorted(cycles)          # retirement is in time order
    assert "halt" in tracer.render(last=1)


def test_commit_tracer_requires_rse():
    machine = build_machine()
    with pytest.raises(ValueError):
        machine.obs.attach("commit")


def test_commit_tracer_limit():
    machine = build_machine(with_rse=True)
    tracer = machine.obs.attach("commit", limit=3).tracer
    asm = assemble(SOURCE)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.run(max_cycles=10_000)
    machine.rse.drain()
    assert len(tracer.entries) == 3
