"""Two-pass assembler for the reproduction ISA.

The assembler turns assembly text into an :class:`Assembly` — raw
``.text``/``.data`` segment bytes plus a symbol table — which the program
loader (:mod:`repro.program.loader`) converts into a runnable process
image.  All workloads in :mod:`repro.workloads` are written in this
assembly language (the paper compiled SPEC2000 ``vpr`` and kMeans for
SimpleScalar's MIPS-like ISA; we assemble behavioural equivalents).

Supported syntax
----------------

* Labels: ``name:`` (own line or prefixing a statement).
* Comments: ``#`` or ``;`` to end of line.
* Directives: ``.text``, ``.data``, ``.word``, ``.half``, ``.byte``,
  ``.space N``, ``.asciiz "s"``, ``.align N`` (byte alignment as 2**N),
  ``.set NAME, expr``, ``.globl`` (accepted, ignored).
* Operand expressions: integers (decimal, ``0x`` hex, ``'c'`` chars),
  symbols/constants, and ``a+b`` / ``a-b`` combinations; ``hi(sym)`` and
  ``lo(sym)`` extract halves.
* Pseudo-instructions: ``nop``, ``li``, ``la``, ``move``, ``b``, ``beqz``,
  ``bnez``, ``blt``, ``bgt``, ``ble``, ``bge``, ``neg``, ``not``, ``ret``,
  ``lw/sw rt, label`` (label-addressed memory access via ``$at``).
* ``chk MODULE, BLK|NBLK, op, param`` — the RSE CHECK instruction.

Every instruction and pseudo-instruction takes exactly the operands its
syntax names, and a section may not outgrow :data:`MAX_SECTION_BYTES`.
Any malformed statement raises :class:`AssemblyError` with its line.
"""

import re
import string

from repro.isa.encoding import encode
from repro.isa.instructions import (
    Instr,
    InstrClass,
    SPEC_BY_NAME,
    extract_regs,
)
from repro.isa.registers import REG_NAMES, RegisterError, reg_num

DEFAULT_TEXT_BASE = 0x00400000
DEFAULT_DATA_BASE = 0x10000000

_AT = 1          # assembler temporary register
_ZERO = 0
_RA = 31

#: Largest ``.text`` or ``.data`` section the assembler builds (16 MiB).
MAX_SECTION_BYTES = 1 << 24

#: Operand count of each instruction syntax (``InstrSpec.syntax``) ...
_SYNTAX_OPERANDS = {"rrr": 3, "rri": 3, "rrs": 3, "rrv": 3, "ri": 2,
                    "mem": 2, "br2": 3, "br1": 2, "j": 1, "r": 1, "rr": 2,
                    "none": 0, "chk": 4}
#: ... and of each pseudo-instruction.
_PSEUDO_OPERANDS = {"nop": 0, "move": 2, "neg": 2, "not": 2, "ret": 0,
                    "b": 1, "beqz": 2, "bnez": 2, "blt": 3, "bgt": 3,
                    "ble": 3, "bge": 3, "subi": 3, "li": 2, "la": 2}


class AssemblyError(ValueError):
    """Raised on any syntax or semantic error, with line information."""

    def __init__(self, message, lineno=None, line=None):
        location = " (line %s: %r)" % (lineno, line) if lineno else ""
        super().__init__(message + location)
        self.lineno = lineno


class Assembly:
    """Result of assembling one source unit.

    Attributes:
        text: ``bytearray`` of the text segment (encoded instructions).
        data: ``bytearray`` of the data segment.
        text_base / data_base: load addresses the symbols were resolved
            against.
        symbols: mapping of label -> absolute address.
        entry: address execution starts at (``_start`` or ``main`` label
            when present, otherwise the text base).
    """

    def __init__(self, text, data, text_base, data_base, symbols):
        self.text = text
        self.data = data
        self.text_base = text_base
        self.data_base = data_base
        self.symbols = dict(symbols)
        if "_start" in self.symbols:
            self.entry = self.symbols["_start"]
        elif "main" in self.symbols:
            self.entry = self.symbols["main"]
        else:
            self.entry = text_base

    def instructions(self):
        """Decode the text segment back into ``Instr`` objects (for tests)."""
        from repro.isa.encoding import decode

        words = []
        for offset in range(0, len(self.text), 4):
            word = int.from_bytes(self.text[offset:offset + 4], "little")
            words.append(decode(word))
        return words


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_TOKEN_RE = re.compile(r"\s*([+-])\s*")

#: ``$name`` -> register number, the spelling nearly every operand uses;
#: any other spelling goes through :func:`reg_num`.
_DOLLAR_REGS = {"$" + name: num for num, name in enumerate(REG_NAMES)}

#: First characters of a term :func:`_parse_int` always rejects.
_IDENT_START = frozenset(string.ascii_letters + "_.$")


def _parse_int(text):
    text = text.strip()
    if len(text) == 3 and text[0] == "'" and text[2] == "'":
        return ord(text[1])
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if text.lower().startswith("0x"):
        value = int(text, 16)
    elif text.isdigit():
        value = int(text, 10)
    else:
        raise ValueError(text)
    return -value if negative else value


class _Statement:
    """One parsed source statement, sized during pass 1, emitted in pass 2."""

    __slots__ = ("kind", "name", "operands", "address", "size",
                 "lineno", "line", "section")

    def __init__(self, kind, name, operands, lineno, line, section):
        self.kind = kind              # "instr" | "directive"
        self.name = name
        self.operands = operands
        self.lineno = lineno
        self.line = line
        self.section = section
        self.address = 0
        self.size = 0


class Assembler:
    """Two-pass assembler.  See the module docstring for the syntax."""

    def __init__(self, text_base=DEFAULT_TEXT_BASE, data_base=DEFAULT_DATA_BASE,
                 constants=None):
        self.text_base = text_base
        self.data_base = data_base
        self.constants = dict(constants or {})
        self.symbols = {}

    # ------------------------------------------------------------------ API

    def assemble(self, source):
        """Assemble *source* text and return an :class:`Assembly`."""
        statements = self._pass1(source)
        return self._pass2(statements)

    # --------------------------------------------------------------- pass 1

    def _pass1(self, source):
        statements = []
        section = ".text"
        offsets = {".text": 0, ".data": 0}
        pending_labels = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                pending_labels.append((match.group(1), lineno, raw))
                line = line[match.end():].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            name = parts[0].lower()
            operand_text = parts[1] if len(parts) > 1 else ""

            if name == ".text":
                section = ".text"
                self._bind_labels(pending_labels, section, offsets)
                continue
            if name == ".data":
                section = ".data"
                self._bind_labels(pending_labels, section, offsets)
                continue
            if name == ".set":
                const_name, __, expr = operand_text.partition(",")
                if not __:
                    raise AssemblyError(".set needs NAME, value", lineno, raw)
                self.constants[const_name.strip()] = self._eval(
                    expr, lineno, raw, allow_symbols=False)
                continue
            if name == ".globl" or name == ".global":
                continue

            kind = "directive" if name.startswith(".") else "instr"
            operands = self._split_operands(operand_text)
            stmt = _Statement(kind, name, operands, lineno, raw, section)
            self._check_operand_count(stmt)
            stmt.size = self._statement_size(stmt, offsets[section])
            offsets[section] = self._align_for(stmt, offsets[section])
            if pending_labels:
                self._bind_labels(pending_labels, section, offsets)
            stmt.address = offsets[section]
            offsets[section] += stmt.size
            if offsets[section] > MAX_SECTION_BYTES:
                raise AssemblyError("%s section exceeds %d bytes"
                                    % (section, MAX_SECTION_BYTES),
                                    lineno, raw)
            statements.append(stmt)
        self._bind_labels(pending_labels, section, offsets)
        return statements

    def _bind_labels(self, pending_labels, section, offsets):
        base = self.text_base if section == ".text" else self.data_base
        for label, lineno, raw in pending_labels:
            if label in self.symbols:
                raise AssemblyError("duplicate label %r" % label, lineno, raw)
            self.symbols[label] = base + offsets[section]
        pending_labels.clear()

    def _check_operand_count(self, stmt):
        """Exactly the operands the instruction's syntax names: one for
        ``.space`` and ``.align``."""
        name = stmt.name
        if stmt.kind == "instr":
            spec = SPEC_BY_NAME.get(name)
            expected = (_SYNTAX_OPERANDS[spec.syntax] if spec is not None
                        else _PSEUDO_OPERANDS.get(name))
            if expected is None:
                raise AssemblyError("unknown instruction %r" % name,
                                    stmt.lineno, stmt.line)
        elif name in (".space", ".align"):
            expected = 1
        else:
            return
        if len(stmt.operands) != expected:
            raise AssemblyError(
                "%s takes %d operand%s, got %d"
                % (name, expected, "" if expected == 1 else "s",
                   len(stmt.operands)), stmt.lineno, stmt.line)

    def _align_for(self, stmt, offset):
        if stmt.kind == "instr" or stmt.name in (".word",):
            return (offset + 3) & ~3
        if stmt.name == ".half":
            return (offset + 1) & ~1
        if stmt.name == ".align":
            power = self._eval(stmt.operands[0], stmt.lineno, stmt.line,
                               allow_symbols=False)
            if not 0 <= power <= 16:
                raise AssemblyError(".align takes a power of two from 0 "
                                    "to 16", stmt.lineno, stmt.line)
            alignment = 1 << power
            return (offset + alignment - 1) & ~(alignment - 1)
        return offset

    def _statement_size(self, stmt, offset):
        if stmt.kind == "instr":
            return 4 * self._expansion_length(stmt)
        name = stmt.name
        if name == ".word":
            return 4 * len(stmt.operands)
        if name == ".half":
            return 2 * len(stmt.operands)
        if name == ".byte":
            return len(stmt.operands)
        if name == ".space":
            size = self._eval(stmt.operands[0], stmt.lineno, stmt.line,
                              allow_symbols=False)
            if size < 0:
                raise AssemblyError(".space needs a size of 0 or more",
                                    stmt.lineno, stmt.line)
            return size
        if name == ".asciiz":
            return len(self._string_literal(stmt)) + 1
        if name == ".align":
            return 0
        raise AssemblyError("unknown directive %r" % name, stmt.lineno,
                            stmt.line)

    def _expansion_length(self, stmt):
        """Number of machine instructions a (pseudo-)instruction expands to.

        :meth:`_check_operand_count` has already rejected unknown names.
        """
        name = stmt.name
        spec = SPEC_BY_NAME.get(name)
        if spec is not None:
            if spec.syntax == "mem" and "(" not in stmt.operands[1]:
                return 3          # label-addressed pseudo form (via $at)
            return 1
        if name in ("blt", "bgt", "ble", "bge", "la"):
            return 2
        if name == "li":
            value = self._eval(stmt.operands[1], stmt.lineno, stmt.line,
                               allow_symbols=False)
            return 1 if -0x8000 <= value <= 0xFFFF else 2
        return 1          # nop, move, b, beqz, bnez, neg, not, ret, subi

    # --------------------------------------------------------------- pass 2

    def _pass2(self, statements):
        text = bytearray()
        data = bytearray()
        for stmt in statements:
            buf = text if stmt.section == ".text" else data
            if len(buf) < stmt.address:
                buf.extend(b"\x00" * (stmt.address - len(buf)))
            if stmt.kind == "instr":
                pc = self.text_base + stmt.address
                for word in self._emit(stmt, pc):
                    buf.extend(word.to_bytes(4, "little"))
            else:
                buf.extend(self._emit_directive(stmt))
        return Assembly(text, data, self.text_base, self.data_base,
                        self.symbols)

    def _emit_directive(self, stmt):
        name = stmt.name
        if name == ".word":
            out = bytearray()
            for operand in stmt.operands:
                value = self._eval(operand, stmt.lineno, stmt.line) & 0xFFFFFFFF
                out.extend(value.to_bytes(4, "little"))
            return out
        if name == ".half":
            out = bytearray()
            for operand in stmt.operands:
                value = self._eval(operand, stmt.lineno, stmt.line) & 0xFFFF
                out.extend(value.to_bytes(2, "little"))
            return out
        if name == ".byte":
            return bytes(self._eval(op, stmt.lineno, stmt.line) & 0xFF
                         for op in stmt.operands)
        if name == ".space":
            return b"\x00" * stmt.size
        if name == ".asciiz":
            try:
                return self._string_literal(stmt).encode("latin-1") + b"\x00"
            except UnicodeEncodeError:
                raise AssemblyError(".asciiz holds a character outside "
                                    "Latin-1", stmt.lineno, stmt.line) from None
        if name == ".align":
            return b""
        raise AssemblyError("unknown directive %r" % name, stmt.lineno,
                            stmt.line)

    # -------------------------------------------------------- instruction emit

    def _emit(self, stmt, pc):
        name = stmt.name
        ops = stmt.operands
        err = lambda msg: AssemblyError(msg, stmt.lineno, stmt.line)

        if name == "nop":
            return [0x00000000]

        # Pseudo-instructions -------------------------------------------------
        if name == "move":
            rd, rs = self._regs(ops, err)
            return [self._enc("or", rd=rd, rs=rs, rt=_ZERO)]
        if name == "neg":
            rd, rs = self._regs(ops, err)
            return [self._enc("sub", rd=rd, rs=_ZERO, rt=rs)]
        if name == "not":
            rd, rs = self._regs(ops, err)
            return [self._enc("nor", rd=rd, rs=rs, rt=_ZERO)]
        if name == "ret":
            return [self._enc("jr", rs=_RA)]
        if name == "b":
            return [self._branch("beq", _ZERO, _ZERO, ops[0], pc, stmt)]
        if name == "beqz":
            rs = self._reg(ops[0], err)
            return [self._branch("beq", rs, _ZERO, ops[1], pc, stmt)]
        if name == "bnez":
            rs = self._reg(ops[0], err)
            return [self._branch("bne", rs, _ZERO, ops[1], pc, stmt)]
        if name in ("blt", "bgt", "ble", "bge"):
            rs = self._reg(ops[0], err)
            rt = self._reg(ops[1], err)
            if name in ("blt", "bge"):
                slt = self._enc("slt", rd=_AT, rs=rs, rt=rt)
            else:
                slt = self._enc("slt", rd=_AT, rs=rt, rt=rs)
            branch_name = "bne" if name in ("blt", "bgt") else "beq"
            branch = self._branch(branch_name, _AT, _ZERO, ops[2], pc + 4,
                                  stmt)
            return [slt, branch]
        if name == "subi":
            rt, rs = self._regs(ops[:2], err)
            imm = self._eval(ops[2], stmt.lineno, stmt.line)
            return [self._enc("addi", rt=rt, rs=rs, imm=-imm)]
        if name == "li":
            rt = self._reg(ops[0], err)
            value = self._eval(ops[1], stmt.lineno, stmt.line,
                               allow_symbols=False)
            return self._load_imm(rt, value)
        if name == "la":
            rt = self._reg(ops[0], err)
            value = self._eval(ops[1], stmt.lineno, stmt.line)
            return [
                self._enc("lui", rt=rt, imm=(value >> 16) & 0xFFFF),
                self._enc("ori", rt=rt, rs=rt, imm=value & 0xFFFF),
            ]
        if name == "chk":
            return [self._emit_chk(stmt)]

        spec = SPEC_BY_NAME[name]
        syntax = spec.syntax

        if syntax == "mem" and "(" not in ops[1]:
            # Label-addressed pseudo form: expands through $at.
            rt = self._reg(ops[0], err)
            value = self._eval(ops[1], stmt.lineno, stmt.line)
            return [
                self._enc("lui", rt=_AT, imm=(value >> 16) & 0xFFFF),
                self._enc("ori", rt=_AT, rs=_AT, imm=value & 0xFFFF),
                self._enc(name, rt=rt, rs=_AT, imm=0),
            ]

        return [self._emit_plain(spec, stmt, pc)]

    def _emit_plain(self, spec, stmt, pc):
        ops = stmt.operands
        err = lambda msg: AssemblyError(msg, stmt.lineno, stmt.line)
        syntax = spec.syntax
        if syntax == "rrr":
            rd, rs, rt = self._regs(ops, err)
            return self._enc(spec.name, rd=rd, rs=rs, rt=rt)
        if syntax == "rri":
            rt, rs = self._regs(ops[:2], err)
            imm = self._eval(ops[2], stmt.lineno, stmt.line)
            self._check_imm(imm, spec.name, err)
            return self._enc(spec.name, rt=rt, rs=rs, imm=imm)
        if syntax == "rrs":
            rd, rt = self._regs(ops[:2], err)
            shamt = self._eval(ops[2], stmt.lineno, stmt.line,
                               allow_symbols=False)
            if not 0 <= shamt < 32:
                raise err("shift amount out of range")
            return self._enc(spec.name, rd=rd, rt=rt, shamt=shamt)
        if syntax == "rrv":
            rd, rt, rs = self._regs(ops, err)
            return self._enc(spec.name, rd=rd, rt=rt, rs=rs)
        if syntax == "ri":
            rt = self._reg(ops[0], err)
            imm = self._eval(ops[1], stmt.lineno, stmt.line)
            return self._enc(spec.name, rt=rt, imm=imm)
        if syntax == "mem":
            rt = self._reg(ops[0], err)
            offset, base = self._mem_operand(ops[1], stmt)
            return self._enc(spec.name, rt=rt, rs=base, imm=offset)
        if syntax == "br2":
            rs, rt = self._regs(ops[:2], err)
            return self._branch(spec.name, rs, rt, ops[2], pc, stmt)
        if syntax == "br1":
            rs = self._reg(ops[0], err)
            return self._branch(spec.name, rs, 0, ops[1], pc, stmt)
        if syntax == "j":
            value = self._eval(ops[0], stmt.lineno, stmt.line)
            return self._enc(spec.name, target=(value >> 2) & 0x03FFFFFF)
        if syntax == "r":
            rs = self._reg(ops[0], err)
            return self._enc(spec.name, rs=rs)
        if syntax == "rr":
            rd, rs = self._regs(ops, err)
            return self._enc(spec.name, rd=rd, rs=rs)
        if syntax == "none":
            return self._enc(spec.name)
        raise err("unhandled syntax %r" % syntax)

    def _emit_chk(self, stmt):
        """``chk MODULE, BLK|NBLK, op, param`` — Section 3.3 fields."""
        ops = stmt.operands
        module = self._eval(ops[0], stmt.lineno, stmt.line)
        mode = ops[1].strip().lower()
        if mode not in ("blk", "nblk"):
            raise AssemblyError("chk mode must be BLK or NBLK", stmt.lineno,
                                stmt.line)
        op = self._eval(ops[2], stmt.lineno, stmt.line)
        param = self._eval(ops[3], stmt.lineno, stmt.line)
        return encode(SPEC_BY_NAME["chk"], module=module,
                      blk=1 if mode == "blk" else 0, op=op, param=param)

    # ------------------------------------------------------------- helpers

    def _branch(self, name, rs, rt, target_expr, pc, stmt):
        target = self._eval(target_expr, stmt.lineno, stmt.line)
        offset = (target - (pc + 4)) >> 2
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblyError("branch target out of range", stmt.lineno,
                                stmt.line)
        return self._enc(name, rs=rs, rt=rt, imm=offset)

    def _load_imm(self, rt, value):
        if -0x8000 <= value < 0x8000:
            return [self._enc("addi", rt=rt, rs=_ZERO, imm=value)]
        if 0 <= value <= 0xFFFF:
            return [self._enc("ori", rt=rt, rs=_ZERO, imm=value)]
        words = [self._enc("lui", rt=rt, imm=(value >> 16) & 0xFFFF)]
        words.append(self._enc("ori", rt=rt, rs=rt, imm=value & 0xFFFF))
        return words

    def _enc(self, name, **fields):
        return encode(SPEC_BY_NAME[name], **fields)

    @staticmethod
    def _check_imm(imm, name, err):
        if name in ("andi", "ori", "xori"):
            if not 0 <= imm <= 0xFFFF:
                raise err("unsigned immediate out of range: %d" % imm)
        elif not -0x8000 <= imm <= 0x7FFF:
            raise err("immediate out of range: %d" % imm)

    def _mem_operand(self, text, stmt):
        text = text.strip()
        open_paren = text.index("(")
        if not text.endswith(")"):
            raise AssemblyError("malformed memory operand %r" % text,
                                stmt.lineno, stmt.line)
        offset_text = text[:open_paren].strip()
        offset = (self._eval(offset_text, stmt.lineno, stmt.line)
                  if offset_text else 0)
        base = self._reg(text[open_paren + 1:-1],
                         lambda msg: AssemblyError(msg, stmt.lineno,
                                                   stmt.line))
        return offset, base

    def _reg(self, text, err):
        num = _DOLLAR_REGS.get(text)
        if num is not None:
            return num
        try:
            return reg_num(text)
        except RegisterError as exc:
            raise err(str(exc)) from None

    def _regs(self, ops, err):
        return tuple(self._reg(op, err) for op in ops)

    def _split_operands(self, text):
        """Split on commas that are not inside parens or string literals."""
        if not text:
            return []
        if '"' not in text and "(" not in text and ")" not in text:
            return [operand.strip() for operand in text.split(",")]
        operands = []
        depth = 0
        in_string = False
        current = []
        for ch in text:
            if in_string:
                current.append(ch)
                if ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
                current.append(ch)
            elif ch == "(":
                depth += 1
                current.append(ch)
            elif ch == ")":
                depth -= 1
                current.append(ch)
            elif ch == "," and depth == 0:
                operands.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        operands.append("".join(current).strip())
        return operands

    def _string_literal(self, stmt):
        text = ",".join(stmt.operands).strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblyError(".asciiz needs a quoted string", stmt.lineno,
                                stmt.line)
        return (text[1:-1].replace("\\n", "\n").replace("\\t", "\t")
                .replace("\\0", "\0"))

    def _eval(self, expr, lineno, line, allow_symbols=True):
        """Evaluate an integer expression: terms joined with ``+``/``-``."""
        expr = expr.strip()
        if expr.startswith("hi(") and expr.endswith(")"):
            return (self._eval(expr[3:-1], lineno, line) >> 16) & 0xFFFF
        if expr.startswith("lo(") and expr.endswith(")"):
            return self._eval(expr[3:-1], lineno, line) & 0xFFFF
        if not expr:
            raise AssemblyError("empty expression", lineno, line)
        if "+" not in expr and "-" not in expr:
            return self._term(expr, lineno, line, allow_symbols)
        if expr[0] == "-":
            expr = "0" + expr          # unary minus: evaluate as 0 - term
        tokens = _TOKEN_RE.split(expr)
        total = self._term(tokens[0], lineno, line, allow_symbols)
        index = 1
        while index < len(tokens):
            operator = tokens[index]
            term = self._term(tokens[index + 1], lineno, line, allow_symbols)
            total = total + term if operator == "+" else total - term
            index += 2
        return total

    def _term(self, text, lineno, line, allow_symbols):
        text = text.strip()
        if text[:1] not in _IDENT_START:
            try:
                return _parse_int(text)
            except ValueError:
                pass
        if text in self.constants:
            return self.constants[text]
        if allow_symbols and text in self.symbols:
            return self.symbols[text]
        if allow_symbols:
            raise AssemblyError("undefined symbol %r" % text, lineno, line)
        raise AssemblyError("expected a constant, got %r" % text, lineno, line)


def assemble(source, text_base=DEFAULT_TEXT_BASE, data_base=DEFAULT_DATA_BASE,
             constants=None):
    """Convenience wrapper: assemble *source* and return the :class:`Assembly`."""
    return Assembler(text_base=text_base, data_base=data_base,
                     constants=constants).assemble(source)
