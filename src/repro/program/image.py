"""Executable images: segments, the MLR "special header", and GOT/PLT.

The paper's MLR flow (Figure 3) has the program loader assemble a
*special header* in memory — code/data segment locations and sizes plus
the stack / heap / shared-library bases — and hand its address to the
MLR module via a CHECK instruction.  This module defines that header's
binary format, the segment containers, and the PLT entry encoding whose
rewriting the MLR module performs in hardware.

PLT entries.  Each PLT entry is "an indirect jump to a library function
through an entry in the GOT" (paper, footnote 7).  In our ISA one entry
is four words::

    lui  $at, hi(got_entry)
    ori  $at, $at, lo(got_entry)
    lw   $at, 0($at)
    jr   $at

Rewriting an entry for a relocated GOT replaces the address embedded in
the first two words — exactly the paper's "replacing the address value
in the indirect jump pointing to the old GOT".
"""

from repro.isa.encoding import decode, encode
from repro.isa.instructions import SPEC_BY_NAME

HEADER_MAGIC = 0x52534531          # "RSE1"
HEADER_WORDS = 13
HEADER_BYTES = HEADER_WORDS * 4

# Word offsets inside the special header.
(H_MAGIC, H_CODE_START, H_CODE_LEN, H_DATA_START, H_DATA_LEN, H_BSS_LEN,
 H_SHLIB_BASE, H_STACK_BASE, H_HEAP_BASE, H_GOT_ADDR, H_GOT_ENTRIES,
 H_PLT_ADDR, H_PLT_ENTRIES) = range(HEADER_WORDS)

PLT_ENTRY_WORDS = 4
PLT_ENTRY_BYTES = PLT_ENTRY_WORDS * 4

_AT = 1


class ExecutableHeader:
    """The special header the MLR module parses (Figure 3(B))."""

    FIELDS = ("code_start", "code_len", "data_start", "data_len", "bss_len",
              "shlib_base", "stack_base", "heap_base", "got_addr",
              "got_entries", "plt_addr", "plt_entries")

    def __init__(self, **fields):
        for name in self.FIELDS:
            setattr(self, name, fields.get(name, 0))

    def pack(self):
        """Serialise to the little-endian in-memory representation."""
        words = [HEADER_MAGIC]
        words.extend(getattr(self, name) & 0xFFFFFFFF for name in self.FIELDS)
        return b"".join(word.to_bytes(4, "little") for word in words)

    @classmethod
    def unpack(cls, payload):
        """Parse a header from *payload* bytes; validates the magic."""
        if len(payload) < HEADER_BYTES:
            raise ValueError("header too short")
        words = [int.from_bytes(payload[i * 4:i * 4 + 4], "little")
                 for i in range(HEADER_WORDS)]
        if words[H_MAGIC] != HEADER_MAGIC:
            raise ValueError("bad header magic 0x%08x" % words[H_MAGIC])
        return cls(**dict(zip(cls.FIELDS, words[1:])))

    def __repr__(self):
        inner = ", ".join("%s=0x%x" % (name, getattr(self, name))
                          for name in self.FIELDS)
        return "ExecutableHeader(%s)" % inner


class Segment:
    """One loadable region: name, base address, initial bytes, permissions."""

    __slots__ = ("name", "base", "data", "perms")

    def __init__(self, name, base, data, perms):
        self.name = name
        self.base = base
        self.data = bytes(data)
        self.perms = perms          # subset of "rwx"

    @property
    def end(self):
        return self.base + len(self.data)

    def __repr__(self):
        return "Segment(%s @0x%08x, %d bytes, %s)" % (
            self.name, self.base, len(self.data), self.perms)


class ProcessImage:
    """A fully described, loadable process."""

    def __init__(self, segments, entry, header, symbols, layout):
        self.segments = list(segments)
        self.entry = entry
        self.header = header
        self.symbols = dict(symbols)
        self.layout = layout

    def segment(self, name):
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(name)


def build_image(assembly, layout, got_symbol=None, got_entries=0,
                plt_symbol=None, plt_entries=0):
    """Build a :class:`ProcessImage` from an :class:`~repro.isa.assembler.Assembly`.

    The GOT/PLT, when present, live inside the assembly's own segments
    (Section 5.3's "application private dynamic loader" approach: the
    target program carries its GOT and PLT as user data); *got_symbol* /
    *plt_symbol* name their start labels.
    """
    if assembly.text_base != layout.text_base:
        raise ValueError("assembly text base 0x%x != layout 0x%x" % (
            assembly.text_base, layout.text_base))
    got_addr = assembly.symbols[got_symbol] if got_symbol else 0
    plt_addr = assembly.symbols[plt_symbol] if plt_symbol else 0
    header = ExecutableHeader(
        code_start=assembly.text_base,
        code_len=len(assembly.text),
        data_start=assembly.data_base,
        data_len=len(assembly.data),
        bss_len=0,
        shlib_base=layout.shlib_base,
        stack_base=layout.stack_top,
        heap_base=layout.heap_base,
        got_addr=got_addr,
        got_entries=got_entries,
        plt_addr=plt_addr,
        plt_entries=plt_entries,
    )
    segments = [
        Segment(".text", assembly.text_base, assembly.text, "rx"),
        Segment(".data", assembly.data_base, assembly.data, "rw"),
    ]
    return ProcessImage(segments, assembly.entry, header, assembly.symbols,
                        layout)


# ----------------------------------------------------------------- PLT ops

def build_plt_entry(got_entry_addr):
    """Encode one PLT entry (4 words) jumping through *got_entry_addr*."""
    lui = SPEC_BY_NAME["lui"]
    ori = SPEC_BY_NAME["ori"]
    lw = SPEC_BY_NAME["lw"]
    jr = SPEC_BY_NAME["jr"]
    return [
        encode(lui, rt=_AT, imm=(got_entry_addr >> 16) & 0xFFFF),
        encode(ori, rt=_AT, rs=_AT, imm=got_entry_addr & 0xFFFF),
        encode(lw, rt=_AT, rs=_AT, imm=0),
        encode(jr, rs=_AT),
    ]


def plt_entry_target(words):
    """Extract the GOT-entry address embedded in a PLT entry's words."""
    lui = decode(words[0])
    ori = decode(words[1])
    if lui.name != "lui" or ori.name != "ori":
        raise ValueError("not a PLT entry")
    return ((lui.uimm << 16) | ori.uimm) & 0xFFFFFFFF


def rewrite_plt_entry(words, new_got_entry_addr):
    """Return the entry's words redirected to *new_got_entry_addr*.

    Only the two address-carrying words change — the load and the jump
    are untouched, matching the hardware's narrow rewrite.
    """
    fresh = build_plt_entry(new_got_entry_addr)
    return [fresh[0], fresh[1], words[2], words[3]]


def rewrite_plt(data, delta):
    """Redirect every PLT entry in *data* by *delta* (the GOT's move).

    Returns ``(rewritten, bad)``: the rewritten PLT bytes, and whether
    some entry did not decode as a PLT entry (it is left as it was).
    """
    rewritten = bytearray(data)
    bad = False
    for index in range(len(data) // PLT_ENTRY_BYTES):
        offset = index * PLT_ENTRY_BYTES
        words = [int.from_bytes(data[offset + i * 4:offset + i * 4 + 4],
                                "little") for i in range(PLT_ENTRY_WORDS)]
        try:
            target = plt_entry_target(words)
        except ValueError:
            bad = True
            continue
        new_words = rewrite_plt_entry(words, (target + delta) & 0xFFFFFFFF)
        for i, word in enumerate(new_words):
            rewritten[offset + i * 4:offset + i * 4 + 4] = \
                word.to_bytes(4, "little")
    return bytes(rewritten), bad
