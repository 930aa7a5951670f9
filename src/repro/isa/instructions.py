"""Instruction specifications and the decoded instruction record.

The ISA is a 32-bit MIPS/DLX-flavoured RISC (the paper's SimpleScalar
substrate "implements an instruction set architecture very similar to
MIPS"), plus the paper's ``CHK`` instruction — the software interface to
the Reliability and Security Engine (Section 3.3 of the paper).

Instruction formats
-------------------

======  =================================================================
R       ``opcode(6) rs(5) rt(5) rd(5) shamt(5) funct(6)``
I       ``opcode(6) rs(5) rt(5) imm(16)``
J       ``opcode(6) target(26)``
CHK     ``opcode(6)=0x3F module(4) blk(1) operation(5) param(16)``
======  =================================================================

The ``CHK`` fields mirror Section 3.3: *Module#* selects the RSE module,
*BLK/NBLK* selects blocking (synchronous) vs non-blocking (asynchronous)
operation, *Operation* selects the module-specific operation and
*Parameter* carries a 16-bit immediate.  Pointer-sized parameters are
passed by convention in registers ``a0``/``a1``, which the RSE receives
through the ``Regfile_Data`` input queue.
"""

import enum


class InstrClass(enum.Enum):
    """Coarse functional class of an instruction.

    The pipeline uses the class to pick a functional unit and the RSE
    modules use it to filter the ``Fetch_Out`` queue (e.g. the DDT module
    reacts only to loads and stores, the ICM checks control flow).
    """

    ALU = "alu"
    MDU = "mdu"          # multiply / divide unit
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"    # conditional control flow
    JUMP = "jump"        # unconditional control flow
    SYSCALL = "syscall"
    CHECK = "check"      # RSE CHK instruction
    NOP = "nop"
    HALT = "halt"


#: Classes that redirect the program counter.
CONTROL_CLASSES = frozenset({InstrClass.BRANCH, InstrClass.JUMP})
#: Classes that access data memory.
MEMORY_CLASSES = frozenset({InstrClass.LOAD, InstrClass.STORE})


class InstrSpec:
    """Static description of one opcode: format, encoding and operand syntax.

    ``syntax`` drives both the assembler (operand parsing) and the decoder
    (source/destination register extraction):

    ========  =============================  =======================
    syntax    assembly operands              register usage
    ========  =============================  =======================
    rrr       rd, rs, rt                     dest rd, src rs+rt
    rri       rt, rs, imm                    dest rt, src rs
    rrs       rd, rt, shamt                  dest rd, src rt
    rrv       rd, rt, rs                     dest rd, src rt+rs
    ri        rt, imm                        dest rt
    mem       rt, off(rs)                    load: dest rt, src rs;
                                             store: src rs+rt
    br2       rs, rt, label                  src rs+rt
    br1       rs, label                      src rs
    j         label                          (jal: dest ra)
    r         rs                             src rs
    rr        rd, rs                         dest rd, src rs
    none      (no operands)
    chk       module, blk, op, param         src a0+a1 (payload regs)
    ========  =============================  =======================
    """

    __slots__ = ("name", "fmt", "opcode", "funct", "rt_sel", "iclass", "syntax")

    def __init__(self, name, fmt, opcode, iclass, syntax, funct=0, rt_sel=None):
        self.name = name
        self.fmt = fmt
        self.opcode = opcode
        self.funct = funct
        self.rt_sel = rt_sel      # REGIMM branches select on the rt field
        self.iclass = iclass
        self.syntax = syntax

    def __repr__(self):
        return "InstrSpec(%s)" % self.name


OP_RTYPE = 0x00
OP_REGIMM = 0x01
OP_CHK = 0x3F

_C = InstrClass

#: Every real (non-pseudo) instruction in the ISA.
SPECS = [
    # --- R-type ALU --------------------------------------------------------
    InstrSpec("sll", "R", OP_RTYPE, _C.ALU, "rrs", funct=0x00),
    InstrSpec("srl", "R", OP_RTYPE, _C.ALU, "rrs", funct=0x02),
    InstrSpec("sra", "R", OP_RTYPE, _C.ALU, "rrs", funct=0x03),
    InstrSpec("sllv", "R", OP_RTYPE, _C.ALU, "rrv", funct=0x04),
    InstrSpec("srlv", "R", OP_RTYPE, _C.ALU, "rrv", funct=0x06),
    InstrSpec("srav", "R", OP_RTYPE, _C.ALU, "rrv", funct=0x07),
    InstrSpec("add", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x20),
    InstrSpec("sub", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x22),
    InstrSpec("and", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x24),
    InstrSpec("or", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x25),
    InstrSpec("xor", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x26),
    InstrSpec("nor", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x27),
    InstrSpec("slt", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x2A),
    InstrSpec("sltu", "R", OP_RTYPE, _C.ALU, "rrr", funct=0x2B),
    # --- R-type multiply / divide (issue to the MDU) -----------------------
    InstrSpec("mul", "R", OP_RTYPE, _C.MDU, "rrr", funct=0x18),
    InstrSpec("div", "R", OP_RTYPE, _C.MDU, "rrr", funct=0x1A),
    InstrSpec("rem", "R", OP_RTYPE, _C.MDU, "rrr", funct=0x1B),
    InstrSpec("divu", "R", OP_RTYPE, _C.MDU, "rrr", funct=0x1C),
    InstrSpec("remu", "R", OP_RTYPE, _C.MDU, "rrr", funct=0x1D),
    # --- R-type control / system -------------------------------------------
    InstrSpec("jr", "R", OP_RTYPE, _C.JUMP, "r", funct=0x08),
    InstrSpec("jalr", "R", OP_RTYPE, _C.JUMP, "rr", funct=0x09),
    InstrSpec("syscall", "R", OP_RTYPE, _C.SYSCALL, "none", funct=0x0C),
    InstrSpec("halt", "R", OP_RTYPE, _C.HALT, "none", funct=0x3F),
    # --- I-type ALU ---------------------------------------------------------
    InstrSpec("addi", "I", 0x08, _C.ALU, "rri"),
    InstrSpec("slti", "I", 0x0A, _C.ALU, "rri"),
    InstrSpec("sltiu", "I", 0x0B, _C.ALU, "rri"),
    InstrSpec("andi", "I", 0x0C, _C.ALU, "rri"),
    InstrSpec("ori", "I", 0x0D, _C.ALU, "rri"),
    InstrSpec("xori", "I", 0x0E, _C.ALU, "rri"),
    InstrSpec("lui", "I", 0x0F, _C.ALU, "ri"),
    # --- loads / stores ------------------------------------------------------
    InstrSpec("lb", "I", 0x20, _C.LOAD, "mem"),
    InstrSpec("lh", "I", 0x21, _C.LOAD, "mem"),
    InstrSpec("lw", "I", 0x23, _C.LOAD, "mem"),
    InstrSpec("lbu", "I", 0x24, _C.LOAD, "mem"),
    InstrSpec("lhu", "I", 0x25, _C.LOAD, "mem"),
    InstrSpec("sb", "I", 0x28, _C.STORE, "mem"),
    InstrSpec("sh", "I", 0x29, _C.STORE, "mem"),
    InstrSpec("sw", "I", 0x2B, _C.STORE, "mem"),
    # --- branches ------------------------------------------------------------
    InstrSpec("beq", "I", 0x04, _C.BRANCH, "br2"),
    InstrSpec("bne", "I", 0x05, _C.BRANCH, "br2"),
    InstrSpec("blez", "I", 0x06, _C.BRANCH, "br1"),
    InstrSpec("bgtz", "I", 0x07, _C.BRANCH, "br1"),
    InstrSpec("bltz", "I", OP_REGIMM, _C.BRANCH, "br1", rt_sel=0x00),
    InstrSpec("bgez", "I", OP_REGIMM, _C.BRANCH, "br1", rt_sel=0x01),
    # --- jumps ----------------------------------------------------------------
    InstrSpec("j", "J", 0x02, _C.JUMP, "j"),
    InstrSpec("jal", "J", 0x03, _C.JUMP, "j"),
    # --- RSE interface ----------------------------------------------------------
    InstrSpec("chk", "CHK", OP_CHK, _C.CHECK, "chk"),
]

SPEC_BY_NAME = {spec.name: spec for spec in SPECS}

# Encoded word 0x00000000 is "sll zero, zero, 0"; it is the canonical NOP and
# decodes with its own class so the pipeline and the cache-overhead experiment
# (Section 5.1: rewrite the code segment with NOPs in place of CHECKs) can
# treat it uniformly.
NOP_WORD = 0x00000000

#: Payload registers for CHK instructions (a0, a1): pointer-sized CHECK
#: parameters travel in these registers and reach the RSE via Regfile_Data.
CHK_PAYLOAD_REGS = (4, 5)

#: CHK operations with this bit set read the payload registers.  Checks
#: that carry no register payload (e.g. the ICM's instruction check) must
#: not create artificial dependencies on a0/a1 in the pipeline.
CHK_OP_PAYLOAD_BIT = 0x10


class Instr:
    """One decoded instruction.

    Instances are immutable value objects produced by
    :func:`repro.isa.encoding.decode` (or directly by the assembler) and
    shared freely between the pipeline, the functional simulator and the
    RSE input queues.
    """

    __slots__ = (
        "word", "name", "iclass", "fmt",
        "rs", "rt", "rd", "shamt", "imm", "uimm", "target",
        "module", "blk", "op", "param",
        "dest", "srcs",
        # Class predicates, precomputed because the pipeline consults
        # them millions of times per simulated run.
        "is_control", "is_mem", "is_load", "is_store", "is_check",
        "serializing",
    )

    def __init__(self, word, name, iclass, fmt, rs=0, rt=0, rd=0, shamt=0,
                 imm=0, uimm=0, target=0, module=0, blk=0, op=0, param=0,
                 dest=None, srcs=()):
        self.word = word
        self.name = name
        self.iclass = iclass
        self.fmt = fmt
        self.rs = rs
        self.rt = rt
        self.rd = rd
        self.shamt = shamt
        self.imm = imm          # sign-extended 16-bit immediate
        self.uimm = uimm        # zero-extended 16-bit immediate
        self.target = target    # 26-bit jump target field
        self.module = module    # CHK: module number
        self.blk = blk          # CHK: 1 = blocking (synchronous)
        self.op = op            # CHK: module-specific operation
        self.param = param      # CHK: 16-bit immediate parameter
        self.dest = dest        # architectural destination register or None
        self.srcs = srcs        # architectural source registers (tuple)
        self.is_control = iclass in CONTROL_CLASSES
        self.is_mem = iclass in MEMORY_CLASSES
        self.is_load = iclass is InstrClass.LOAD
        self.is_store = iclass is InstrClass.STORE
        self.is_check = iclass is InstrClass.CHECK
        #: Syscalls and halt drain the pipeline before taking effect.
        self.serializing = (iclass is InstrClass.SYSCALL
                            or iclass is InstrClass.HALT)

    def __deepcopy__(self, memo):
        # Immutable: machine checkpoints share decoded instructions with
        # the live machine instead of cloning every one in flight.
        return self

    def __repr__(self):
        return "<Instr %s word=0x%08x>" % (self.disassemble(), self.word)

    def disassemble(self):
        """Render a human-readable assembly string for this instruction."""
        from repro.isa.registers import reg_name

        name = self.name
        syntax = SPEC_BY_NAME[name].syntax if name in SPEC_BY_NAME else "none"
        if name == "nop":
            return "nop"
        if syntax == "rrr":
            return "%s $%s, $%s, $%s" % (
                name, reg_name(self.rd), reg_name(self.rs), reg_name(self.rt))
        if syntax == "rri":
            return "%s $%s, $%s, %d" % (
                name, reg_name(self.rt), reg_name(self.rs), self.imm)
        if syntax == "rrs":
            return "%s $%s, $%s, %d" % (
                name, reg_name(self.rd), reg_name(self.rt), self.shamt)
        if syntax == "rrv":
            return "%s $%s, $%s, $%s" % (
                name, reg_name(self.rd), reg_name(self.rt), reg_name(self.rs))
        if syntax == "ri":
            return "%s $%s, %d" % (name, reg_name(self.rt), self.uimm)
        if syntax == "mem":
            return "%s $%s, %d($%s)" % (
                name, reg_name(self.rt), self.imm, reg_name(self.rs))
        if syntax == "br2":
            return "%s $%s, $%s, %d" % (
                name, reg_name(self.rs), reg_name(self.rt), self.imm)
        if syntax == "br1":
            return "%s $%s, %d" % (name, reg_name(self.rs), self.imm)
        if syntax == "j":
            return "%s 0x%x" % (name, self.target << 2)
        if syntax == "r":
            return "%s $%s" % (name, reg_name(self.rs))
        if syntax == "rr":
            return "%s $%s, $%s" % (name, reg_name(self.rd), reg_name(self.rs))
        if syntax == "chk":
            return "chk m=%d %s op=%d param=%d" % (
                self.module, "BLK" if self.blk else "NBLK", self.op, self.param)
        return name


def extract_regs(spec, rs, rt, rd):
    """Return ``(dest, srcs)`` for an instruction built from *spec*.

    Centralised so the decoder and the assembler produce identical
    dependency information.
    """
    syntax = spec.syntax
    iclass = spec.iclass
    if syntax == "rrr":
        return rd, (rs, rt)
    if syntax == "rri":
        return rt, (rs,)
    if syntax == "rrs":
        return rd, (rt,)
    if syntax == "rrv":
        return rd, (rt, rs)
    if syntax == "ri":
        return rt, ()
    if syntax == "mem":
        if iclass is InstrClass.LOAD:
            return rt, (rs,)
        return None, (rs, rt)
    if syntax == "br2":
        return None, (rs, rt)
    if syntax == "br1":
        return None, (rs,)
    if syntax == "j":
        return (31, ()) if spec.name == "jal" else (None, ())
    if syntax == "r":
        return None, (rs,)
    if syntax == "rr":
        return rd, (rs,)
    if syntax == "chk":
        return None, CHK_PAYLOAD_REGS
    return None, ()
