"""Disassembler: segments and program images back to readable listings."""

from repro.isa.encoding import DecodeError, decode
from repro.isa.instructions import InstrClass
from repro.isa.semantics import branch_target, jump_target


class DisasmLine:
    """One listing line: address, raw word, mnemonic text, label if any."""

    __slots__ = ("pc", "word", "text", "label")

    def __init__(self, pc, word, text, label=None):
        self.pc = pc
        self.word = word
        self.text = text
        self.label = label

    def render(self):
        prefix = "%s:\n" % self.label if self.label else ""
        return "%s    %08x:  %08x    %s" % (prefix, self.pc, self.word,
                                            self.text)


def disassemble_segment(memory, base, length, symbols=None):
    """Disassemble *length* bytes at *base*; returns a list of lines.

    *symbols* (label -> address) annotates branch targets and labels
    lines.  Undecodable words render as ``.word``.
    """
    by_addr = {}
    if symbols:
        for name, addr in symbols.items():
            by_addr.setdefault(addr, name)
    lines = []
    for offset in range(0, length, 4):
        pc = base + offset
        word = memory.load_word(pc)
        try:
            instr = decode(word)
            text = instr.disassemble()
            target = _control_target(instr, pc)
            if target is not None and target in by_addr:
                text += "    <%s>" % by_addr[target]
        except DecodeError:
            text = ".word 0x%08x" % word
        lines.append(DisasmLine(pc, word, text, by_addr.get(pc)))
    return lines


def _control_target(instr, pc):
    if instr.iclass is InstrClass.BRANCH:
        return branch_target(instr, pc)
    if instr.name in ("j", "jal"):
        return jump_target(instr, pc)
    return None


def disassemble_image(image, memory=None):
    """Disassemble a process image's text segment into one string.

    When *memory* is given the listing reflects the *current* memory
    contents (post-corruption, post-PLT-rewrite); otherwise the image's
    original bytes are used.
    """
    from repro.memory.mainmem import MainMemory

    text = image.segment(".text")
    if memory is None:
        memory = MainMemory()
        memory.store_bytes(text.base, text.data)
    lines = disassemble_segment(memory, text.base, len(text.data),
                                symbols=image.symbols)
    return "\n".join(line.render() for line in lines)
