"""The predecode layer: closure-vs-oracle equivalence and cache invalidation.

The closures :func:`repro.isa.predecode.compile_instr` emits are
generated from the templates in :mod:`repro.isa.semantics` (bias-trick
compares, baked immediates); these tests pin them to the table
callables next to those templates, which remain the reference.
"""

import pytest

from repro.isa import predecode, semantics
from repro.isa.encoding import decode, encode, flip_bit
from repro.isa.instructions import SPEC_BY_NAME
from repro.memory.mainmem import MainMemory


def make(name, **fields):
    return decode(encode(SPEC_BY_NAME[name], **fields))


class FakeSim:
    """The slice of FuncSim state the compiled closures touch."""

    def __init__(self):
        self.regs = [0] * 32
        self.trace_mem = None
        self.halted = False


def run_closure(instr, pc=0x1000, memory=None, a=0, b=0, sim=None):
    """Compile *instr* and execute it once with rs=$2=a, rt=$3=b."""
    if sim is None:
        sim = FakeSim()
    sim.regs[2] = a
    sim.regs[3] = b
    fn = predecode.compile_instr(pc, instr, memory or MainMemory())
    return fn(sim), sim


EDGE_VALUES = [0, 1, 2, 31, 32, 0x7FFF, 0x8000, 0x12345678,
               0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]

R3_OPS = ["add", "sub", "and", "or", "xor", "nor", "slt", "sltu",
          "sllv", "srlv", "srav", "mul", "div", "rem", "divu", "remu"]
IMM_OPS = ["addi", "slti", "sltiu"]
UIMM_OPS = ["andi", "ori", "xori"]
SHIFT_OPS = ["sll", "srl", "sra"]
BRANCHES = ["beq", "bne", "blez", "bgtz", "bltz", "bgez"]


@pytest.mark.parametrize("name", R3_OPS)
def test_r3_closures_match_alu_result(name):
    instr = make(name, rd=4, rs=2, rt=3)
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            try:
                expected = semantics.alu_result(instr, a, b)
            except semantics.ArithmeticFault:
                with pytest.raises(semantics.ArithmeticFault):
                    run_closure(instr, a=a, b=b)
                continue
            nxt, sim = run_closure(instr, a=a, b=b)
            assert sim.regs[4] == expected, (name, hex(a), hex(b))
            assert nxt == 0x1004


@pytest.mark.parametrize("name,signed", [(n, True) for n in IMM_OPS]
                         + [(n, False) for n in UIMM_OPS])
def test_immediate_closures_match_alu_result(name, signed):
    imms = [-32768, -1, 0, 1, 0x7FFF] if signed else [0, 1, 0x8000, 0xFFFF]
    for imm in imms:
        instr = make(name, rt=4, rs=2, imm=imm & 0xFFFF)
        for a in EDGE_VALUES:
            expected = semantics.alu_result(instr, a, 0)
            __, sim = run_closure(instr, a=a)
            assert sim.regs[4] == expected, (name, hex(a), imm)


@pytest.mark.parametrize("name", SHIFT_OPS)
def test_shift_closures_match_alu_result(name):
    for shamt in (0, 1, 4, 31):
        instr = make(name, rd=4, rt=3, shamt=shamt)
        for b in EDGE_VALUES:
            expected = semantics.alu_result(instr, 0, b)
            __, sim = run_closure(instr, b=b)
            assert sim.regs[4] == expected, (name, hex(b), shamt)


def test_lui_closure():
    instr = make("lui", rt=4, imm=0xABCD)
    __, sim = run_closure(instr)
    assert sim.regs[4] == semantics.alu_result(instr, 0, 0) == 0xABCD0000


def test_zero_dest_alu_closure_does_not_write_r0():
    instr = make("add", rd=0, rs=2, rt=3)
    __, sim = run_closure(instr, a=5, b=7)
    assert sim.regs[0] == 0


def test_zero_dest_divide_still_faults():
    instr = make("div", rd=0, rs=2, rt=3)
    with pytest.raises(semantics.ArithmeticFault):
        run_closure(instr, a=1, b=0)


@pytest.mark.parametrize("name", BRANCHES)
def test_branch_closures_match_control_target(name):
    pc = 0x2000
    for imm in (0x10, 0xFFF0):          # forward and backward offsets
        instr = make(name, rs=2, rt=3, imm=imm)
        for a in EDGE_VALUES:
            for b in (0, a, 0xFFFFFFFF):
                expected = semantics.control_target(instr, pc, a, b)
                nxt, __ = run_closure(instr, pc=pc, a=a, b=b)
                assert nxt == expected, (name, hex(a), hex(b), imm)


def test_jump_closures():
    pc = 0x40001000
    j = make("j", target=0x123)
    assert run_closure(j, pc=pc)[0] == semantics.jump_target(j, pc)
    jal = make("jal", target=0x123)
    nxt, sim = run_closure(jal, pc=pc)
    assert nxt == semantics.jump_target(jal, pc)
    assert sim.regs[31] == pc + 4
    jr = make("jr", rs=2)
    assert run_closure(jr, pc=pc, a=0x5678)[0] == 0x5678


def test_jalr_link_written_before_target_read():
    # rd == rs: the reference interpreter writes the link and then reads
    # the target register, so the jump lands on pc+4.  The closure must
    # preserve that exact (if surprising) order.
    pc = 0x3000
    instr = make("jalr", rd=2, rs=2)
    nxt, sim = run_closure(instr, pc=pc, a=0xABC0)
    assert nxt == pc + 4
    assert sim.regs[2] == pc + 4


def test_load_store_closures_and_trace_order(tmp_path):
    mem = MainMemory()
    mem.store_word(0x5000, 0x80FF8001)
    events = []
    sim = FakeSim()
    sim.trace_mem = lambda s, i, addr, st: events.append((i.name, addr, st))
    for name, expected in [("lw", 0x80FF8001), ("lhu", 0x8001),
                           ("lh", 0xFFFF8001), ("lbu", 0x80),
                           ("lb", 0xFFFFFF80)]:
        instr = make(name, rt=4, rs=2, imm=0)
        if name in ("lbu", "lb"):
            instr = make(name, rt=4, rs=2, imm=1)
        run_closure(instr, memory=mem, a=0x5000, sim=sim)
        assert sim.regs[4] == expected, name
    sw = make("sw", rt=3, rs=2, imm=8)
    run_closure(sw, memory=mem, a=0x5000, b=0xCAFEBABE, sim=sim)
    assert mem.load_word(0x5008) == 0xCAFEBABE
    assert events[0] == ("lw", 0x5000, False)
    assert events[-1] == ("sw", 0x5008, True)


def test_halt_closure_sets_halted():
    instr = make("halt")
    nxt, sim = run_closure(instr)
    assert nxt == predecode.HALT
    assert sim.halted


def test_serializing_closures_touch_nothing():
    for name, sentinel in [("syscall", predecode.SYSCALL)]:
        instr = make(name)
        nxt, sim = run_closure(instr)
        assert nxt == sentinel
        assert not sim.halted and sim.regs == [0] * 30 + [0, 0]


# ------------------------------------------------------------------- cache

def word_of(name, **fields):
    return encode(SPEC_BY_NAME[name], **fields)


def test_cache_entry_holds_version_closure_word_instr():
    mem = MainMemory()
    word = word_of("add", rd=4, rs=2, rt=3)
    mem.store_word(0x1000, word)
    cache = predecode.cache_for(mem)
    entry = cache.fetch(0x1000)
    assert entry[0] == mem.write_versions[0x1000 >> 12]
    assert callable(entry[1])
    assert entry[2] == word
    assert entry[3].name == "add"


def test_store_to_cached_text_invalidates_only_that_page():
    mem = MainMemory()
    mem.store_word(0x1000, word_of("add", rd=4, rs=2, rt=3))
    mem.store_word(0x9000, word_of("sub", rd=4, rs=2, rt=3))
    cache = predecode.cache_for(mem)
    first = cache.fetch(0x1000)
    other = cache.fetch(0x9000)
    # Corrupt the first word in place (an injected instr-flip).
    mem.store_word(0x1000, flip_bit(first[2], 1))
    fresh = cache.fetch(0x1000)
    assert fresh is not first
    assert fresh[2] == flip_bit(first[2], 1)
    # The untouched page revalidates without a refill.
    assert cache.fetch(0x9000) is other


def test_byte_and_bulk_stores_invalidate():
    mem = MainMemory()
    cache = predecode.cache_for(mem)
    mem.store_word(0x1000, word_of("add", rd=4, rs=2, rt=3))
    before = cache.fetch(0x1000)
    mem.store_byte(0x1001, 0xFF)
    assert cache.fetch(0x1000) is not before
    before = cache.fetch(0x1000)
    mem.store_bytes(0x1000, bytes(4))
    after = cache.fetch(0x1000)
    assert after is not before
    assert after[2] == 0


def test_restore_page_invalidates():
    mem = MainMemory()
    cache = predecode.cache_for(mem)
    page = 0x1000 >> 12
    mem.store_word(0x1000, word_of("add", rd=4, rs=2, rt=3))
    snap = mem.snapshot_page(page)
    before = cache.fetch(0x1000)
    mem.restore_page(page, snap)
    assert cache.fetch(0x1000) is not before


def test_cache_cap_clears_instead_of_growing():
    mem = MainMemory()
    cache = predecode.cache_for(mem)
    cache.entries = {pc: None for pc in range(cache.MAX_ENTRIES)}
    mem.store_word(0x1000, word_of("add", rd=4, rs=2, rt=3))
    cache.refill(0x1000)
    assert len(cache.entries) == 1


def test_cache_for_is_shared_per_memory():
    mem_a, mem_b = MainMemory(), MainMemory()
    assert predecode.cache_for(mem_a) is predecode.cache_for(mem_a)
    assert predecode.cache_for(mem_a) is not predecode.cache_for(mem_b)
