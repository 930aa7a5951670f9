"""Every text-mutation path must invalidate cached predecoded entries.

The predecode cache revalidates entries against
:attr:`MainMemory.write_versions`, so the contract is simple: anything
that changes memory bumps the page's counter, and the next fetch of any
pc on that page re-decodes.  These tests drive one cached instruction
through every mutation path the system has — each store variant,
``restore_page``, and the fault-injection campaign's instr-flip /
mem-flip recipe (``load_word``/``flip_bit``/``store_word``) — and
assert the *re-decoded* semantics execute.
"""

import pytest

from repro.funcsim import FuncSim, StepResult
from repro.isa.assembler import assemble
from repro.isa.encoding import encode, flip_bit
from repro.isa.instructions import SPEC_BY_NAME
from repro.isa.predecode import cache_for
from repro.memory.mainmem import PAGE_SIZE, PAGE_SHIFT, MainMemory

SOURCE = """
main:
    addi $s0, $s0, 1
    halt
"""


def build():
    asm = assemble(SOURCE)
    mem = MainMemory()
    mem.store_bytes(asm.text_base, asm.text)
    mem.store_bytes(asm.data_base, asm.data)
    return asm, mem


def run_fresh(mem, asm):
    sim = FuncSim(mem, entry=asm.entry, sp=0x7FFF0000,
                  predecode_enabled=True)
    assert sim.run(1000) is StepResult.HALTED
    return sim


def prime_cache(mem, asm):
    """Execute once so the addi at the entry pc is cached; return its pc
    and the simulator, whose reference keeps the shared cache alive (the
    memory registers it weakly)."""
    sim = run_fresh(mem, asm)
    pc = asm.entry
    assert pc in cache_for(mem).entries
    return pc, sim


def addi_word(imm):
    return encode(SPEC_BY_NAME["addi"], rs=16, rt=16, imm=imm)


def mutate_store_word(mem, pc):
    mem.store_word(pc, addi_word(42))
    return 42


def mutate_store_half(mem, pc):
    # Little-endian: the low half of the word is the immediate field.
    mem.store_half(pc, 42)
    return 42


def mutate_store_byte(mem, pc):
    mem.store_byte(pc, 42)
    return 42


def mutate_store_bytes(mem, pc):
    word = addi_word(42)
    mem.store_bytes(pc, bytes([word & 0xFF, (word >> 8) & 0xFF,
                               (word >> 16) & 0xFF, (word >> 24) & 0xFF]))
    return 42


def mutate_restore_page(mem, pc):
    page_base = (pc >> PAGE_SHIFT) << PAGE_SHIFT
    payload = bytearray(mem.load_bytes(page_base, PAGE_SIZE))
    word = addi_word(42)
    offset = pc - page_base
    payload[offset:offset + 4] = bytes([word & 0xFF, (word >> 8) & 0xFF,
                                        (word >> 16) & 0xFF,
                                        (word >> 24) & 0xFF])
    mem.restore_page(pc >> PAGE_SHIFT, bytes(payload))
    return 42


def mutate_campaign_flip(mem, pc):
    # The instr-flip / mem-flip models' arm() recipe, verbatim:
    # read the word, flip a bit, store it back with store_word.
    word = flip_bit(mem.load_word(pc), 1)          # imm 1 -> 3
    mem.store_word(pc, word)
    return 3


MUTATORS = [mutate_store_word, mutate_store_half, mutate_store_byte,
            mutate_store_bytes, mutate_restore_page, mutate_campaign_flip]


@pytest.mark.parametrize("mutate", MUTATORS,
                         ids=[m.__name__ for m in MUTATORS])
def test_mutation_path_invalidates_cached_text(mutate):
    asm, mem = build()
    pc, primer = prime_cache(mem, asm)
    cached_imm = cache_for(mem).entries[pc][3].imm
    assert cached_imm == 1
    expected = mutate(mem, pc)
    # A fresh simulator over the same memory shares the same cache; the
    # stale entry must be dropped and the new immediate must execute.
    sim = run_fresh(mem, asm)
    assert sim._cache is primer._cache
    assert sim.regs[16] == expected
    assert cache_for(mem).entries[pc][3].imm == expected


@pytest.mark.parametrize("mutate", MUTATORS,
                         ids=[m.__name__ for m in MUTATORS])
def test_mutation_path_bumps_write_version(mutate):
    asm, mem = build()
    pc, __ = prime_cache(mem, asm)
    page = pc >> PAGE_SHIFT
    before = mem.write_versions.get(page, 0)
    mutate(mem, pc)
    assert mem.write_versions.get(page, 0) > before


def test_cache_fetch_level_revalidation():
    # Below the simulator: PredecodeCache.fetch itself must re-decode.
    asm, mem = build()
    cache = cache_for(mem)
    pc = asm.entry
    assert cache.fetch(pc)[3].imm == 1
    mem.store_word(pc, addi_word(7))
    assert cache.fetch(pc)[3].imm == 7
