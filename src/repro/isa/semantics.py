"""Architectural semantics of the ISA: the one definition of every opcode.

Every execution engine reads this module, so "what an instruction
computes" has a single source of truth; the engines differ only in
*when* things happen.  Register values are unsigned 32-bit Python ints
everywhere.

Each mnemonic has a **callable** (:data:`ALU_OPS`, :data:`BRANCH_OPS`,
:data:`LOAD_OPS`, :data:`STORE_OPS`), which the reference interpreter,
the pipeline and the tests call through :func:`alu_result`,
:func:`branch_taken`, :func:`load_from` and :func:`store_to`.  Next to
it sits an **expression template** (:data:`ALU_TEMPLATES`,
:data:`BRANCH_TEMPLATES`; the load callables are generated from
:data:`LOADS`) over ``{a}``/``{b}`` (the rs/rt values) and the
immediate fields of :data:`IMM_FIELDS`.  The fast tiers are generated
from the templates: the predecode closures (:mod:`repro.isa.predecode`)
at import time, the trace JIT's code (:mod:`repro.isa.traces`) per
trace.  Signed compares use the xor-bias form, ``a <s b`` iff ``(a ^
2**31) < (b ^ 2**31)``.  The divides have no template: a divide can
fault, so every tier calls its table op.  ``tests/isa/
test_fast_tiers.py`` holds every generated form equal to its callable.
"""

import re

from repro.isa.instructions import InstrClass

MASK32 = 0xFFFFFFFF


class ArithmeticFault(Exception):
    """Integer divide (or remainder) by zero."""

    def __init__(self, pc=None):
        super().__init__("integer divide by zero"
                         + ("" if pc is None else " at 0x%08x" % pc))
        self.pc = pc


def to_signed(value):
    """Interpret an unsigned 32-bit value as two's-complement."""
    return value - 0x100000000 if value & 0x80000000 else value


def to_unsigned(value):
    """Truncate a Python int to its unsigned 32-bit representation."""
    return value & MASK32


# ALU / MDU -----------------------------------------------------------------
#
# Every entry has the uniform signature ``op(instr, a, b) -> value`` with
# *a* the rs-operand and *b* the rt-operand (unsigned 32-bit); immediates
# and shift amounts come from *instr*.  The uniform shape is what lets
# the fast tiers fall back to any of these, as they do for the divides.

def _op_div(instr, a, b):
    if b == 0:
        raise ArithmeticFault()
    if a == 0x80000000 and b == MASK32:
        # INT_MIN / -1 overflows a 32-bit quotient; it wraps to
        # INT_MIN under MASK32 (no trap), identically in every engine.
        return 0x80000000
    quotient = abs(to_signed(a)) // abs(to_signed(b))
    if (to_signed(a) < 0) != (to_signed(b) < 0):
        quotient = -quotient
    return quotient & MASK32


def _op_rem(instr, a, b):
    if b == 0:
        raise ArithmeticFault()
    if a == 0x80000000 and b == MASK32:
        return 0          # INT_MIN % -1: the wrapped quotient is exact
    sa, sb = to_signed(a), to_signed(b)
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & MASK32


def _op_divu(instr, a, b):
    if b == 0:
        raise ArithmeticFault()
    return a // b


def _op_remu(instr, a, b):
    if b == 0:
        raise ArithmeticFault()
    return a % b


#: name -> op(instr, a, b) for every ALU and MDU mnemonic.
ALU_OPS = {
    "add": lambda instr, a, b: (a + b) & MASK32,
    "addi": lambda instr, a, b: (a + instr.imm) & MASK32,
    "sub": lambda instr, a, b: (a - b) & MASK32,
    "and": lambda instr, a, b: a & b,
    "andi": lambda instr, a, b: a & instr.uimm,
    "or": lambda instr, a, b: a | b,
    "ori": lambda instr, a, b: a | instr.uimm,
    "xor": lambda instr, a, b: a ^ b,
    "xori": lambda instr, a, b: a ^ instr.uimm,
    "nor": lambda instr, a, b: ~(a | b) & MASK32,
    "slt": lambda instr, a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "slti": lambda instr, a, b: 1 if to_signed(a) < instr.imm else 0,
    "sltu": lambda instr, a, b: 1 if a < b else 0,
    "sltiu": lambda instr, a, b: 1 if a < (instr.imm & MASK32) else 0,
    "sll": lambda instr, a, b: (b << instr.shamt) & MASK32,
    "srl": lambda instr, a, b: b >> instr.shamt,
    "sra": lambda instr, a, b: (to_signed(b) >> instr.shamt) & MASK32,
    "sllv": lambda instr, a, b: (b << (a & 31)) & MASK32,
    "srlv": lambda instr, a, b: b >> (a & 31),
    "srav": lambda instr, a, b: (to_signed(b) >> (a & 31)) & MASK32,
    "lui": lambda instr, a, b: (instr.uimm << 16) & MASK32,
    "mul": lambda instr, a, b: (to_signed(a) * to_signed(b)) & MASK32,
    "div": _op_div,
    "rem": _op_rem,
    "divu": _op_divu,
    "remu": _op_remu,
}

#: name -> expression template computing what the :data:`ALU_OPS` entry
#: computes, for every ALU op that cannot fault (all but the divides).
ALU_TEMPLATES = {
    "add": "({a} + {b}) & 4294967295",
    "addi": "({a} + {imm}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "and": "{a} & {b}",
    "andi": "{a} & {uimm}",
    "or": "{a} | {b}",
    "ori": "{a} | {uimm}",
    "xor": "{a} ^ {b}",
    "xori": "{a} ^ {uimm}",
    "nor": "~({a} | {b}) & 4294967295",
    "slt": "(1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0)",
    "slti": "(1 if ({a} ^ 2147483648) < {bimm} else 0)",
    "sltu": "(1 if {a} < {b} else 0)",
    "sltiu": "(1 if {a} < {imm32} else 0)",
    "sll": "({b} << {shamt}) & 4294967295",
    "srl": "{b} >> {shamt}",
    "sra": "(({b} - (({b} & 2147483648) << 1)) >> {shamt}) & 4294967295",
    "sllv": "({b} << ({a} & 31)) & 4294967295",
    "srlv": "{b} >> ({a} & 31)",
    "srav": "(({b} - (({b} & 2147483648) << 1)) >> ({a} & 31))"
            " & 4294967295",
    "lui": "({uimm} << 16) & 4294967295",
    "mul": "(({a} - (({a} & 2147483648) << 1))"
           " * ({b} - (({b} & 2147483648) << 1))) & 4294967295",
}

#: Template operand -> the register field of ``instr`` it reads.
OPERANDS = {"a": "rs", "b": "rt"}

#: Immediate fields a template may name, as expressions over the decoded
#: ``instr``.  The fast tiers evaluate each once, when they compile the
#: instruction, so no template pays for a mask or a bias at run time.
IMM_FIELDS = {
    "imm": "instr.imm",
    "uimm": "instr.uimm",
    "shamt": "instr.shamt",
    "imm32": "instr.imm & 4294967295",
    "bimm": "(instr.imm & 4294967295) ^ 2147483648",
}


def template_fields(template):
    """The fields *template* names, in first-use order, each once."""
    return tuple(dict.fromkeys(re.findall(r"{(\w+)}", template)))


def alu_result(instr, a, b):
    """Result of an ALU or MDU instruction.

    *a* is the rs-operand value, *b* the rt-operand value (both unsigned
    32-bit).  Immediates are taken from the instruction itself.
    """
    op = ALU_OPS.get(instr.name)
    if op is None:
        raise ValueError("not an ALU/MDU instruction: %r" % (instr,))
    return op(instr, a, b)


# Control flow --------------------------------------------------------------

#: name -> taken(a, b) for every conditional branch (*a* = rs, *b* = rt).
BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blez": lambda a, b: to_signed(a) <= 0,
    "bgtz": lambda a, b: to_signed(a) > 0,
    "bltz": lambda a, b: to_signed(a) < 0,
    "bgez": lambda a, b: to_signed(a) >= 0,
}

#: name -> taken-condition template for every :data:`BRANCH_OPS` entry.
BRANCH_TEMPLATES = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blez": "({a} ^ 2147483648) <= 2147483648",
    "bgtz": "({a} ^ 2147483648) > 2147483648",
    "bltz": "{a} >= 2147483648",
    "bgez": "{a} < 2147483648",
}


def branch_taken(instr, a, b):
    """Whether a conditional branch is taken (*a* = rs value, *b* = rt value)."""
    op = BRANCH_OPS.get(instr.name)
    if op is None:
        raise ValueError("not a branch: %r" % (instr,))
    return op(a, b)


def branch_target(instr, pc):
    """Target address of a taken conditional branch at *pc*."""
    return (pc + 4 + (instr.imm << 2)) & MASK32


def jump_target(instr, pc, rs_value=0):
    """Target address of an unconditional jump at *pc*."""
    name = instr.name
    if name in ("j", "jal"):
        return ((pc + 4) & 0xF0000000) | (instr.target << 2)
    if name in ("jr", "jalr"):
        return rs_value & MASK32
    raise ValueError("not a jump: %r" % (instr,))


def control_target(instr, pc, a=0, b=0):
    """Next PC after executing control-flow *instr* with operand values."""
    if instr.iclass is InstrClass.BRANCH:
        return branch_target(instr, pc) if branch_taken(instr, a, b) \
            else (pc + 4) & MASK32
    return jump_target(instr, pc, a)


def effective_address(instr, rs_value):
    """Effective address of a load or store."""
    return (rs_value + instr.imm) & MASK32


# Memory --------------------------------------------------------------------

#: name -> (bytes read, extension template) for every load mnemonic.  In
#: the template ``{v}`` is the zero-extended value of the bytes read; the
#: template gives the register value the load writes.
LOADS = {
    "lw": (4, "{v}"),
    "lh": (2, "({v} - 65536 if {v} & 32768 else {v}) & 4294967295"),
    "lhu": (2, "{v}"),
    "lb": (1, "({v} - 256 if {v} & 128 else {v}) & 4294967295"),
    "lbu": (1, "{v}"),
}

_READERS = {4: "load_word", 2: "load_half", 1: "load_byte"}


def _load_fn(params, read, extend):
    """Compile ``def (params): v = read; return extend`` into a function."""
    namespace = {}
    exec("def load(%s):\n    v = %s\n    return %s\n"
         % (params, read, extend.format(v="v")), namespace)
    return namespace["load"]


#: name -> load(memory, addr) for every load mnemonic.
LOAD_OPS = {
    name: _load_fn("memory, addr", "memory.%s(addr)" % _READERS[width],
                   extend)
    for name, (width, extend) in LOADS.items()
}

#: name -> extend(raw): the value the load yields when the low bytes of
#: *raw* hold the bytes it reads (the pipeline's store forwarding).
_LOAD_EXTEND = {
    name: _load_fn("raw", "raw & %d" % ((1 << 8 * width) - 1), extend)
    for name, (width, extend) in LOADS.items()
}

#: name -> store(memory, addr, value) for every store mnemonic.
STORE_OPS = {
    "sw": lambda memory, addr, value: memory.store_word(addr, value),
    "sh": lambda memory, addr, value: memory.store_half(addr, value),
    "sb": lambda memory, addr, value: memory.store_byte(addr, value),
}


def load_from(memory, instr, addr):
    """Perform the load described by *instr* at *addr* against *memory*."""
    op = LOAD_OPS.get(instr.name)
    if op is None:
        raise ValueError("not a load: %r" % (instr,))
    return op(memory, addr)


def load_value(instr, raw):
    """The value load *instr* yields from *raw*, its bytes low byte first."""
    return _LOAD_EXTEND[instr.name](raw)


def store_to(memory, instr, addr, value):
    """Perform the store described by *instr*."""
    op = STORE_OPS.get(instr.name)
    if op is None:
        raise ValueError("not a store: %r" % (instr,))
    op(memory, addr, value)


#: name -> bytes touched, for every load and store mnemonic.
ACCESS_SIZES = dict({name: width for name, (width, __) in LOADS.items()},
                    sw=4, sh=2, sb=1)


def access_size(instr):
    """Bytes touched by a load/store instruction."""
    return ACCESS_SIZES[instr.name]
