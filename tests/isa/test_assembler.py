"""Assembler behaviour: labels, directives, pseudo-ops, expressions."""

import pytest

from repro.isa.assembler import AssemblyError, assemble
from repro.isa.encoding import decode


def _words(assembly):
    return [int.from_bytes(assembly.text[i:i + 4], "little")
            for i in range(0, len(assembly.text), 4)]


def test_simple_program():
    asm = assemble("""
        main:
            addi $t0, $zero, 5
            add  $t1, $t0, $t0
            halt
    """)
    instrs = asm.instructions()
    assert [i.name for i in instrs] == ["addi", "add", "halt"]
    assert asm.entry == asm.symbols["main"] == asm.text_base


def test_branch_offset_backward():
    asm = assemble("""
        loop:
            addi $t0, $t0, -1
            bne  $t0, $zero, loop
            halt
    """)
    branch = asm.instructions()[1]
    # branch at pc+4; target = pc_branch + 4 + imm*4 == loop
    assert branch.imm == -2


def test_branch_offset_forward():
    asm = assemble("""
            beq $t0, $zero, done
            addi $t1, $zero, 1
        done:
            halt
    """)
    assert asm.instructions()[0].imm == 1


def test_labels_in_data_section():
    asm = assemble("""
        .data
        table:  .word 1, 2, 3
        msg:    .asciiz "hi"
        .text
        main:   la $t0, table
                lw $t1, 0($t0)
                halt
    """)
    assert asm.symbols["table"] == asm.data_base
    assert asm.symbols["msg"] == asm.data_base + 12
    assert asm.data[:4] == (1).to_bytes(4, "little")
    assert asm.data[12:15] == b"hi\x00"


def test_la_loads_full_address():
    asm = assemble("""
        .data
        x: .word 42
        .text
        main: la $t0, x
              halt
    """)
    lui, ori = asm.instructions()[:2]
    addr = (lui.uimm << 16) | ori.uimm
    assert addr == asm.symbols["x"]


def test_li_small_and_large():
    asm = assemble("""
        main:
            li $t0, 7
            li $t1, -9
            li $t2, 0x12345678
            halt
    """)
    names = [i.name for i in asm.instructions()]
    assert names == ["addi", "addi", "lui", "ori", "halt"]


def test_pseudo_blt_expansion():
    asm = assemble("""
        main:
            blt $t0, $t1, target
            halt
        target:
            halt
    """)
    instrs = asm.instructions()
    assert [i.name for i in instrs[:2]] == ["slt", "bne"]
    assert instrs[0].rd == 1          # uses $at


def test_label_addressed_load_pseudo():
    asm = assemble("""
        .data
        v: .word 99
        .text
        main:
            lw $t0, v
            halt
    """)
    names = [i.name for i in asm.instructions()]
    assert names == ["lui", "ori", "lw", "halt"]


def test_chk_instruction():
    asm = assemble("""
        .set ICM, 1
        main:
            chk ICM, BLK, 2, 0x10
            halt
    """)
    chk = asm.instructions()[0]
    assert chk.name == "chk"
    assert chk.module == 1 and chk.blk == 1 and chk.op == 2
    assert chk.param == 0x10


def test_chk_from_constants_dict():
    asm = assemble("chk DDT, NBLK, 0, 0\nhalt\n", constants={"DDT": 3})
    assert asm.instructions()[0].module == 3


def test_set_and_expressions():
    asm = assemble("""
        .set SIZE, 16
        .data
        buf: .space SIZE
        end: .word buf+4, end-buf
        .text
        main: halt
    """)
    assert asm.symbols["end"] == asm.data_base + 16
    word0 = int.from_bytes(asm.data[16:20], "little")
    word1 = int.from_bytes(asm.data[20:24], "little")
    assert word0 == asm.data_base + 4
    assert word1 == 16


def test_hi_lo_operators():
    asm = assemble("""
        .data
        x: .word 0
        .text
        main:
            lui $t0, hi(x)
            ori $t0, $t0, lo(x)
            halt
    """)
    lui, ori = asm.instructions()[:2]
    assert ((lui.uimm << 16) | ori.uimm) == asm.symbols["x"]


def test_align_directive():
    asm = assemble("""
        .data
        a: .byte 1
        .align 2
        b: .word 2
        .text
        main: halt
    """)
    assert asm.symbols["b"] == asm.data_base + 4


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("x: halt\nx: halt\n")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblyError):
        assemble("main: j nowhere\n")


def test_unknown_instruction_rejected():
    with pytest.raises(AssemblyError):
        assemble("main: frobnicate $t0\n")


def test_immediate_range_checked():
    with pytest.raises(AssemblyError):
        assemble("main: addi $t0, $zero, 70000\n")


def test_entry_prefers_start():
    asm = assemble("""
        helper: halt
        _start: halt
        main:   halt
    """)
    assert asm.entry == asm.symbols["_start"]


def test_comments_and_blank_lines():
    asm = assemble("""
        # leading comment
        main:   addi $t0, $zero, 1   # trailing
                ; semicolon comment
                halt
    """)
    assert [i.name for i in asm.instructions()] == ["addi", "halt"]


@pytest.mark.parametrize("line", [
    "sw $t0",
    "addi $t0, $t0",
    "li $t0",
    "beqz $t0",
    "move $t0",
    "addi $t0, $t0, 1, 5",
    "add $t0, $t1, $t2, $t3",
    "j main, 4",
    "halt 7",
    "ret $ra",
    "la $t0, main, 8",
    "chk 1, BLK, 2",
])
def test_operand_count_is_exact(line):
    with pytest.raises(AssemblyError) as info:
        assemble("main:\n    nop\n    %s\n    halt\n" % line)
    assert info.value.lineno == 3
    assert "operand" in str(info.value)


def test_unknown_base_register_names_its_line():
    with pytest.raises(AssemblyError) as info:
        assemble("main:\n    lw $t0, 4($bogus)\n    halt\n")
    assert info.value.lineno == 2
    assert "bogus" in str(info.value)


@pytest.mark.parametrize("line", [
    ".space", ".space -4", ".space 4, 8", ".align", ".align -1",
    ".align 40", ".space 0x7fffffff", '.asciiz "€"',
])
def test_bad_directives_are_assembly_errors(line):
    with pytest.raises(AssemblyError) as info:
        assemble(".data\nbuf:\n    %s\n.text\nmain:\n    halt\n" % line)
    assert info.value.lineno == 3


_FUZZ_CHARS = ",()$-+x0123456789abt .#:'\""
_FUZZ_REGS = ("$t0", "$zero", "$ra", "$q9", "$32", "t", "")


def _mutate(rng, source):
    """One seeded edit of *source*: the kinds of slip a hand edit makes."""
    lines = source.splitlines()
    index = rng.randrange(len(lines))
    line = lines[index]
    kind = rng.randrange(8)
    if kind == 0 and "," in line:
        line = line.rsplit(",", 1)[0]                  # drop an operand
    elif kind == 1:
        line = line + rng.choice((", 4", ", $t0", ",", " 7"))
    elif kind == 2 and line:
        at = rng.randrange(len(line))
        line = line[:at] + line[at + 1:]
    elif kind == 3:
        at = rng.randrange(len(line) + 1)
        line = line[:at] + rng.choice(_FUZZ_CHARS) + line[at:]
    elif kind == 4 and "$" in line:
        start = line.index("$")
        end = start + 1
        while end < len(line) and line[end].isalnum():
            end += 1
        line = line[:start] + rng.choice(_FUZZ_REGS) + line[end:]
    elif kind == 5:
        return "\n".join(lines[:index] + [line[:rng.randrange(len(line) + 1)]])
    elif kind == 6:
        lines.insert(index, line)                      # duplicate a line
    elif kind == 7 and line:
        at = rng.randrange(len(line))
        line = line[:at] + str(rng.choice((0, 9, 99999, -1))) + line[at:]
    lines[index] = line
    return "\n".join(lines)


def test_mutated_workload_sources_fail_only_with_assembly_error():
    import random

    from repro.experiments import table4
    from repro.security.attackgen import ATTACK_CLASSES, generate_variant
    from repro.workloads import fleet_server
    from repro.workloads.asmlib import std_constants

    sources = [(source, None) for source
               in table4.workload_sources(quick=True).values()]
    sources.append((fleet_server.source(0, 3, 2), std_constants()))
    # Generated attacks: hi()/lo(), .space, eight-word .word lines, chk.
    sources += [(generate_variant(attack_class, 7, config="mlr").source,
                 std_constants()) for attack_class in ATTACK_CLASSES]
    rng = random.Random(2004)
    rejected = 0
    for round_ in range(300):
        base, constants = sources[round_ % len(sources)]
        mutant = base
        for __ in range(rng.randrange(1, 4)):
            mutant = _mutate(rng, mutant)
        try:
            assemble(mutant, constants=constants)
        except AssemblyError:
            rejected += 1
        except Exception as exc:          # pragma: no cover - the failure
            pytest.fail("mutant %d raised %s: %s\n%s"
                        % (round_, type(exc).__name__, exc, mutant))
    assert rejected > 75


# ------------------------------------------------------------ output pin

def _pinned_assemblies():
    """Every workload source family the repository assembles."""
    from repro.difftest.generator import MODES, generate
    from repro.experiments import table4
    from repro.workloads import fleet_server, gotplt, server
    from repro.workloads.asmlib import build_workload_image

    for quick in (True, False):
        for __, source in sorted(table4.workload_sources(quick).items()):
            yield build_workload_image(source)[1]
    for workers in (1, 4, 10):
        yield build_workload_image(server.source(workers))[1]
    for node in range(3):
        yield build_workload_image(fleet_server.source(node, 3, 2))[1]
    for entries in (32, 64, 128):
        yield gotplt.software_version(entries)[1]
        yield gotplt.rse_version(entries)[1]
    for mode in MODES:
        for seed in range(20):
            yield assemble(generate(seed, mode).source)


#: SHA-256 over the text, data, symbols and entry of every assembly
#: above: any change to the assembler's output bytes shows up here.
ASSEMBLER_DIGEST = ("daf0107ee96c2565c8b23be06270ffe8"
                    "b80beff9e75397de5c51573bbdb258ca")


def test_assembler_output_is_pinned():
    import hashlib
    import json

    digest = hashlib.sha256()
    for asm in _pinned_assemblies():
        for part in (bytes(asm.text), bytes(asm.data),
                     json.dumps(sorted(asm.symbols.items())).encode(),
                     str(asm.entry).encode()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    assert digest.hexdigest() == ASSEMBLER_DIGEST
