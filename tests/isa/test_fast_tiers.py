"""Every fast tier computes what the semantics table's callable computes.

The predecode closures and the trace JIT's inline expressions are both
generated from the templates in :mod:`repro.isa.semantics`.  This file
holds each generated form equal to the hand-written callable next to its
template, for every ALU and branch mnemonic, over the signed-arithmetic
edge grid of ``test_semantics_edges.py``.  The operand registers include
r0 and rs == rt, and the immediates and shift amounts include zero, so
every move-idiom collapse of the trace emitter runs too.
"""

import pytest

from repro.isa import predecode, semantics, traces
from repro.isa.encoding import decode, encode
from repro.isa.instructions import SPEC_BY_NAME
from repro.memory.mainmem import MainMemory
from tests.isa.test_semantics_edges import EDGES

DIVIDES = {"div", "rem", "divu", "remu"}
PC = 0x1000
DEST = 4
OPERAND_REGS = ((2, 3), (0, 3), (2, 0), (0, 0), (2, 2))
IMMS = (-32768, -1, 0, 1, 0x7FFF)
SHAMTS = (0, 1, 15, 31)


class FakeSim:
    def __init__(self, regs):
        self.regs = regs
        self.trace_mem = None
        self.halted = False


def variants(name, template):
    """Instructions of *name* over the operand and immediate grid."""
    spec = SPEC_BY_NAME[name]
    fields = semantics.template_fields(template or "{a}{b}")
    imms = IMMS if set(fields) & {"imm", "uimm", "imm32", "bimm"} else (0,)
    if name in semantics.BRANCH_OPS:
        imms = (-4, 4)          # taken and fall-through pcs differ
    shamts = SHAMTS if "shamt" in fields else (0,)
    seen = set()
    for rs, rt in OPERAND_REGS:
        for imm in imms:
            for shamt in shamts:
                if spec.fmt == "R":
                    word = encode(spec, rd=DEST, rs=rs, rt=rt, shamt=shamt)
                elif name in semantics.BRANCH_OPS:
                    word = encode(spec, rs=rs, rt=rt if "b" in fields else 0,
                                  imm=imm)
                else:
                    word = encode(spec, rs=rs, rt=DEST, imm=imm)
                if word not in seen:
                    seen.add(word)
                    yield decode(word)


def grid_regs():
    for a in EDGES:
        for b in EDGES:
            regs = [0] * 32
            regs[2] = a
            regs[3] = b
            yield regs


def trace_expr(instr, render):
    """The trace emitter's expression for *instr*, compiled."""
    emitter = traces._Emitter(PC, [PC], [instr])
    return compile(render(emitter, instr), "<expr>", "eval")


def env(regs):
    return {"r%d" % reg: regs[reg] for reg in range(1, 32)}


def check_alu(name):
    template = semantics.ALU_TEMPLATES.get(name)
    assert template is not None or name in DIVIDES, name
    op = semantics.ALU_OPS[name]
    for instr in variants(name, template):
        expr = None
        if template is not None:
            expr = trace_expr(instr, traces._Emitter._alu_expr)
        for regs in grid_regs():
            try:
                expected = op(instr, regs[instr.rs], regs[instr.rt])
            except semantics.ArithmeticFault:
                with pytest.raises(semantics.ArithmeticFault):
                    predecode.compile_instr(PC, instr, MainMemory())(
                        FakeSim(list(regs)))
                continue
            sim = FakeSim(list(regs))
            fn = predecode.compile_instr(PC, instr, MainMemory())
            assert fn(sim) == PC + 4
            assert sim.regs[DEST] == expected, (instr, regs[2], regs[3])
            if expr is not None:
                assert eval(expr, {}, env(regs)) == expected, \
                    (instr, regs[2], regs[3])


def check_branch(name):
    template = semantics.BRANCH_TEMPLATES.get(name)
    assert template is not None, name
    op = semantics.BRANCH_OPS[name]
    for instr in variants(name, template):
        expr = trace_expr(instr, traces._Emitter._branch_cond)
        taken_pc = semantics.branch_target(instr, PC)
        for regs in grid_regs():
            taken = op(regs[instr.rs], regs[instr.rt])
            fn = predecode.compile_instr(PC, instr, MainMemory())
            assert fn(FakeSim(list(regs))) == (taken_pc if taken
                                               else PC + 4), instr
            assert bool(eval(expr, {}, env(regs))) == taken, \
                (instr, regs[2], regs[3])


@pytest.mark.parametrize("name", sorted(semantics.ALU_OPS))
def test_alu_tiers_match_the_table(name):
    check_alu(name)


@pytest.mark.parametrize("name", sorted(semantics.BRANCH_OPS))
def test_branch_tiers_match_the_table(name):
    check_branch(name)


def test_only_the_divides_lack_a_template():
    assert set(semantics.ALU_OPS) - set(semantics.ALU_TEMPLATES) == DIVIDES
    assert set(semantics.ALU_TEMPLATES) <= set(semantics.ALU_OPS)
    assert set(semantics.BRANCH_TEMPLATES) == set(semantics.BRANCH_OPS)


def test_the_grid_meets_every_collapse():
    for name, field in traces._COLLAPSES:
        assert any(not traces._STATIC[field](instr) for instr in
                   variants(name, semantics.ALU_TEMPLATES[name])), \
            (name, field)
    assert any(instr.rs == instr.rt for instr in
               variants("mul", semantics.ALU_TEMPLATES["mul"]))


@pytest.mark.parametrize("tier", ["predecode", "trace"])
def test_a_wrong_template_fails_the_check(monkeypatch, tier):
    wrong = "{a} | {b}"          # xor's template, broken
    if tier == "predecode":
        monkeypatch.setattr(predecode, "_ALU_FACTORIES", dict(
            predecode._ALU_FACTORIES,
            **predecode._factories({"xor": wrong}, branch=False)))
    else:
        monkeypatch.setitem(semantics.ALU_TEMPLATES, "xor", wrong)
    with pytest.raises(AssertionError):
        check_alu("xor")
    wrong = "{a} > 2147483648"          # bltz's template, off by one
    if tier == "predecode":
        monkeypatch.setattr(predecode, "_BRANCH_FACTORIES", dict(
            predecode._BRANCH_FACTORIES,
            **predecode._factories({"bltz": wrong}, branch=True)))
    else:
        monkeypatch.setitem(semantics.BRANCH_TEMPLATES, "bltz", wrong)
    with pytest.raises(AssertionError):
        check_branch("bltz")


def test_loads_extend_like_their_callables():
    memory = MainMemory()
    memory.store_word(0x5000, 0x80FF8001)
    for name, (width, __) in semantics.LOADS.items():
        instr = decode(encode(SPEC_BY_NAME[name], rt=DEST, rs=2))
        assert semantics.access_size(instr) == width
        for addr in range(0x5000, 0x5004, width):
            raw = int.from_bytes(memory.load_bytes(addr, 4), "little")
            assert semantics.load_value(instr, raw) == \
                semantics.load_from(memory, instr, addr), (name, addr)
