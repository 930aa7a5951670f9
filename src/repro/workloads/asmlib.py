"""Shared assembly tooling for the workload programs."""

import re

from repro.isa.assembler import assemble
from repro.kernel import syscalls
from repro.program.image import HEADER_BYTES, build_image
from repro.program.layout import MemoryLayout
from repro.rse import check


def std_constants(layout=None):
    """Assembler constants every workload gets: syscalls, RSE ops, layout."""
    constants = {}
    constants.update(syscalls.asm_constants())
    constants.update(check.asm_constants())
    layout = layout or MemoryLayout()
    constants["HDR_BASE"] = layout.header_base
    constants["HDR_SIZE"] = HEADER_BYTES
    constants["STACK_TOP"] = layout.stack_top
    constants["HEAP_BASE"] = layout.heap_base
    return constants


#: Mnemonics the ICM checks in the Table 4 configuration ("all
#: control-flow instructions"), including the pseudo-branches that
#: expand to slt + branch.
_CONTROL_MNEMONICS = frozenset({
    "j", "jal", "jr", "jalr", "ret",
    "beq", "bne", "blez", "bgtz", "bltz", "bgez",
    "b", "beqz", "bnez", "blt", "bgt", "ble", "bge",
})

_LABEL_PREFIX_RE = re.compile(r"^(\s*(?:[A-Za-z_.$][\w.$]*:\s*)*)(.*)$")


def insert_nops_before_control(source):
    """Insert a NOP before every control-flow instruction in *source*.

    This is the paper's cache-overhead methodology (Section 5.1):
    runtime-inserted CHECKs never occupy instruction memory, so their
    I-cache pressure is measured by "rewrit[ing] the code segment of the
    process inserting NOP instructions wherever a CHECK instruction has
    to be placed and running the baseline simulator".  Labels stay bound
    to the NOP (jump targets then execute NOP-then-branch, preserving
    semantics).
    """
    out = []
    for line in source.splitlines():
        code = line.split("#", 1)[0].split(";", 1)[0]
        match = _LABEL_PREFIX_RE.match(code)
        body = match.group(2).strip() if match else ""
        mnemonic = body.split(None, 1)[0].lower() if body else ""
        if mnemonic in _CONTROL_MNEMONICS:
            prefix = match.group(1)
            if prefix.strip():
                out.append(prefix.rstrip())
            out.append("    nop")
            out.append("    " + body)
        else:
            out.append(line)
    return "\n".join(out)


def assemble_workload(source, layout=None):
    """Assemble *source* against *layout* with :func:`std_constants`."""
    layout = layout or MemoryLayout()
    return assemble(source, text_base=layout.text_base,
                    data_base=layout.data_base,
                    constants=std_constants(layout))


def build_workload_image(source, layout=None, **image_kwargs):
    """Assemble *source* against *layout* and wrap it in a process image."""
    layout = layout or MemoryLayout()
    asm = assemble_workload(source, layout)
    return build_image(asm, layout, **image_kwargs), asm
