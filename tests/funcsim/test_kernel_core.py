"""The functional engines under the kernel (:class:`FunctionalCore`).

One kernel serves every engine: the same program prints the same guest
output on the pipeline and on interp, predecode and jit; the trace JIT
keeps compiling traces with the kernel's fetch check attached; a fetch
the check refuses faults at the same pc and instret whichever
functional engine runs it; and after ``mprotect`` takes execute
permission away from code that already ran, all four engines stop at
the same pc after the same count, because each asks the permission
once per page per run, trace heads included.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.funcsim.core import FunctionalCore
from repro.kernel import Kernel
from repro.memory.mainmem import MainMemory
from repro.program.layout import MemoryLayout
from repro.security.attackgen import generate_variant
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

SYSCALLS = pathlib.Path(__file__).with_name("syscalls.s")
MPROTECT = pathlib.Path(__file__).with_name("mprotect.s")
MPROTECT_TRACED = pathlib.Path(__file__).with_name("mprotect_traced.s")
ENGINES = ("pipeline", "interp", "predecode", "jit")


def test_syscalls_program_prints_the_same_on_every_engine(capsys):
    outputs = {}
    for engine in ENGINES:
        assert main(["run", "--engine", engine, "--json",
                     str(SYSCALLS)]) == 0
        outputs[engine] = json.loads(capsys.readouterr().out)["output"]
    # 11887313 is the kernel PRNG's first draw from its default seed.
    expected = [77, 1, "A", 11887313, 15]
    assert outputs == {engine: expected for engine in ENGINES}


@pytest.mark.parametrize("engine", ["interp", "predecode", "jit"])
def test_functional_run_prints_guest_output(capsys, engine):
    assert main(["run", "--engine", engine, str(SYSCALLS)]) == 0
    out = capsys.readouterr().out
    assert "functional run (%s): halted" % engine in out
    assert "guest output: 77\nguest output: 1\nguest output: A\n" in out


@pytest.mark.parametrize("engine", ["interp", "predecode", "jit"])
def test_functional_run_exit_status_follows_the_process(tmp_path, capsys,
                                                      engine):
    source = tmp_path / "prog.s"
    source.write_text("main: li $t0, 1\n div $t1, $t0, $zero\n halt\n")
    assert main(["run", "--engine", engine, str(source)]) == 1
    assert "fault: pc=0x" in capsys.readouterr().out


def test_preempted_threads_keep_the_invariants(tmp_path, capsys):
    # Two threads outlive a 5,000-cycle quantum, so the kernel switches
    # them on timer events; a switch is a redirect, not a broken flow.
    source = tmp_path / "threads.s"
    source.write_text("""
        main:
            li $v0, SYS_SPAWN
            la $a0, child
            syscall
            move $s1, $v0
            li $s0, 3000
        spin:
            addi $s0, $s0, -1
            bnez $s0, spin
            move $a0, $s1
            li $v0, SYS_JOIN
            syscall
            halt
        child:
            li $s0, 3000
        child_spin:
            addi $s0, $s0, -1
            bnez $s0, child_spin
            li $v0, SYS_EXIT
            syscall
    """)
    assert main(["run", "--engine", "interp", "--assert", str(source)]) == 0
    assert "assertions: all properties held" in capsys.readouterr().out


def test_trace_serves_syscalls(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        main:
            li $v0, SYS_PRINT_INT
            li $a0, 99
            syscall
            li $v0, SYS_GETTID
            syscall
            halt
    """)
    assert main(["trace", str(source)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # One entry per instruction; gettid's result shows on its syscall.
    assert [line.split()[2] for line in lines[:6]] == [
        "addi", "addi", "syscall", "addi", "syscall", "halt"]
    assert lines[4].endswith("$v0=0x00000001")
    assert lines[6:] == ["guest output: 99"]


def _smash(engine):
    """The stack smash against a non-executable stack, on *engine*.

    The payload is baked into the variant's ``.data``; without the
    executable-stack model the return into the buffer is refused."""
    memory = MainMemory()
    core = FunctionalCore(memory, engine)
    kernel = Kernel(core, memory)
    kernel.load_process(generate_variant("stack-smash", 1234).image)
    return kernel.run(max_cycles=100_000), kernel, core


def test_jit_runs_traces_under_the_kernel():
    result, __, core = _smash("jit")
    assert result.reason == "fault"
    stats = core.sim.trace_cache.stats()
    assert stats["compiled"] >= 1
    assert stats["deopt_runs"] == 0


def test_refused_fetch_faults_alike_on_every_functional_engine():
    stops = {}
    for engine in ("interp", "predecode", "jit"):
        result, kernel, core = _smash(engine)
        assert result.reason == "fault"
        (__, pc, cause), = kernel.faults
        stops[engine] = (pc, core.sim.instret, cause)
    assert len(set(stops.values())) == 1, stops
    pc, __, cause = stops["jit"]
    assert cause == "x-access violation at 0x%08x (page is rw)" % pc


def _revoked(engine, program):
    """Run *program* on *engine* under the kernel until it faults."""
    image, asm = build_workload_image(program.read_text(), MemoryLayout())
    if engine == "pipeline":
        machine = build_machine()
        kernel, core = machine.kernel, None
    else:
        memory = MainMemory()
        core = FunctionalCore(memory, engine)
        kernel = Kernel(core, memory)
    kernel.load_process(image)
    assert kernel.run(max_cycles=100_000).reason == "fault"
    (__, pc, cause), = kernel.faults
    retired = (machine.pipeline.stats.instret if core is None
               else core.sim.instret)
    return (pc, retired, cause), asm, core


@pytest.mark.parametrize("program", [MPROTECT, MPROTECT_TRACED],
                         ids=["plain", "traced"])
def test_revoked_exec_faults_alike_on_every_engine(program):
    stops = {}
    for engine in ENGINES:          # jit last: *core* is the jit's
        stops[engine], asm, core = _revoked(engine, program)
    assert len(set(stops.values())) == 1, stops
    pc, retired, cause = stops["pipeline"]
    assert cause == "x-access violation at 0x%08x (page is rw)" % pc
    if program is MPROTECT:
        assert (pc, retired) == (0x00400034, 25)
    else:
        # The fault lands on the head of a trace the jit compiled while
        # the page was still executable.
        assert pc == asm.symbols["loop"]
        assert core.sim.trace_cache.entries[pc][1] is not None
