"""Each RSE input port latches only what an attached module reads.

``RSE.attach`` wires every input port to the attached modules whose
class overrides the port's hook; a port with no reader counts its
pushes and holds nothing.  Simulated behaviour must not move: the
cycles and ``rse`` snapshot sections in :data:`PINNED` were recorded
when every port latched every item, on a framework-only machine and on
each module's machine.  They hold too while every per-instruction hook
has a reader (the ``rse`` probe, an assertion monitor and pass-through
shadows of the remaining hooks), so that the pipeline calls each hook
for every instruction.
"""

import sys

import pytest

from repro import system
from repro.assertions.adapters import ShadowSet
from repro.experiments import fig9
from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.rse.check import MODULE_AHBM, MODULE_DDT, asm_constants
from repro.rse.engine import PORT_HOOKS
from repro.rse.modules.cfc import CFC, MODULE_CFC, build_cfg
from repro.rse.modules.icm import arm_icm
from repro.system import build_machine
from repro.workloads import gotplt, server

from helpers import STACK_TOP
from probe_module import TAP_MODULE_ID, TapObserver

#: A module number nothing attaches: its CHECKs complete unrouted.
ABSENT = 8

#: Loads, a store, divides, a mispredicted loop exit and two CHECKs
#: addressed to ``TARGET``.  The divide chain holds the ROB head while
#: independent instructions fill the window, so the first CHECK
#: dispatches in a cycle in which older instructions commit: the CHECK
#: and their Commit_Out items share one delivery.
MIXED = """
    .data
vals:   .word 3, 5, 7, 11
out:    .word 0
    .text
main:
    la $t0, vals
    li $t2, 7
    div $t3, $t2, $t2
    div $t3, $t3, $t2
    div $t3, $t3, $t2
    div $t3, $t3, $t2
    div $t3, $t3, $t2
%s
    chk TARGET, NBLK, OP_ENABLE, 0
    li $t1, 4
    li $t2, 0
loop:
    lw $t3, 0($t0)
    add $t2, $t2, $t3
    div $t4, $t2, $t3
    addi $t0, $t0, 4
    addi $t1, $t1, -1
    bnez $t1, loop
    la $t5, out
    sw $t2, 0($t5)
    chk TARGET, BLK, OP_DISABLE, 0
    halt
""" % "\n".join("    addi $t%d, $zero, %d" % (4 + i % 4, i) for i in range(15))

AHBM_BEATS = """
main:
    li $a0, 7
    chk AHBM, NBLK, OP_AHBM_REGISTER, 0
    li $t0, 3
beat:
    li $a0, 7
    chk AHBM, NBLK, OP_AHBM_HEARTBEAT, 0
    li $t1, 40
delay:
    addi $t1, $t1, -1
    bnez $t1, delay
    addi $t0, $t0, -1
    bnez $t0, beat
    li $t1, 60
    li $t2, 3
silence:
    div $t3, $t1, $t2
    addi $t1, $t1, -1
    bnez $t1, silence
    halt
"""


def load(machine, source=MIXED, target=ABSENT):
    """Place *source* in memory and point the core at it (no kernel)."""
    asm = assemble(source, constants=dict(asm_constants(), TARGET=target))
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP
    return asm


def enable_icm(machine, asm):
    arm_icm(machine, asm.text_base, len(asm.text))


def run_to_halt(machine):
    event = machine.pipeline.run(max_cycles=200_000)
    assert event.kind is EventKind.HALT
    return machine


def tap_counts(observer):
    return {"executed": len(observer.executed),
            "mem_loads": len(observer.mem_loads),
            "commits": len(observer.commits)}


def framework():
    machine = build_machine(with_rse=True)
    load(machine)
    return run_to_halt(machine), {}


def tap():
    machine = build_machine(with_rse=True)
    observer = machine.rse.attach(TapObserver())
    machine.rse.enable_module(TAP_MODULE_ID)
    load(machine)
    return run_to_halt(machine), tap_counts(observer)


def tap_enabled_by_check():
    # Attached but disabled until the program's first CHECK enables it:
    # items latched for it while disabled share that CHECK's delivery.
    machine = build_machine(with_rse=True)
    observer = machine.rse.attach(TapObserver())
    load(machine, target=TAP_MODULE_ID)
    return run_to_halt(machine), tap_counts(observer)


def icm():
    machine = build_machine(with_rse=True, modules=("icm",))
    enable_icm(machine, load(machine))
    return run_to_halt(machine), {}


def cfc():
    machine = build_machine(with_rse=True)
    module = machine.rse.attach(CFC())
    asm = load(machine)
    module.configure(*build_cfg(machine.memory, asm.text_base,
                                len(asm.text)))
    machine.rse.enable_module(MODULE_CFC)
    return run_to_halt(machine), {}


def ahbm():
    machine = build_machine(with_rse=True, modules=("ahbm",))
    machine.module(MODULE_AHBM).sample_period = 64
    machine.rse.enable_module(MODULE_AHBM)
    load(machine, AHBM_BEATS)
    return run_to_halt(machine), {}


def mlr():
    image, __ = gotplt.rse_version(16)
    machine = build_machine(with_rse=True, modules=("mlr",))
    result = machine.run_program(image, max_cycles=2_000_000)
    assert result.reason == "halt"
    return machine, {}


def ddt():
    machine = build_machine(with_rse=True, modules=("ddt",),
                            kernel_config=fig9._kernel_config())
    machine.rse.enable_module(MODULE_DDT)
    image, __ = server.program(2, work_iters=50)
    machine.kernel.set_request_source(2)
    machine.kernel.load_process(image)
    result = machine.kernel.run(max_cycles=2_000_000)
    assert result.reason == "halt"
    return machine, {}


SCENARIOS = {
    "framework": framework,
    "tap": tap,
    "tap-enabled-by-check": tap_enabled_by_check,
    "icm": icm,
    "cfc": cfc,
    "ahbm": ahbm,
    "mlr": mlr,
    "ddt": ddt,
}


def observe(name):
    machine, extra = SCENARIOS[name]()
    return dict(extra, cycle=machine.pipeline.cycle,
                rse=machine.snapshot()["rse"])


def build_read(**options):
    """``build_machine`` with a reader on every per-instruction hook."""
    machine = system.build_machine(**options)
    machine.obs.attach("rse")
    machine.assertions.attach()
    rse = machine.rse
    shadows = ShadowSet()
    for hook in sorted(set(PORT_HOOKS) - rse.reads):
        def passing(*args, _hook=getattr(rse, hook)):
            return _hook(*args)
        shadows.shadow(rse, hook, passing)
    assert rse.reads >= set(PORT_HOOKS)
    return machine


#: Recorded with every port latching every item.
PINNED = {
    "ahbm":
        {"cycle": 437,
         "rse": {"checks_seen": 5,
                 "ioq": {"allocated": 503, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {"AHBM": {"beats_total": 3,
                                      "checks": 5,
                                      "enabled": True,
                                      "entities_monitored": 1,
                                      "errors": 0,
                                      "failures": 0}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 446},
                            "Execute_Out": {"dropped": 0, "pushed": 441},
                            "Fetch_Out": {"dropped": 0, "pushed": 503},
                            "Memory_Out": {"dropped": 0, "pushed": 0},
                            "Regfile_Data": {"dropped": 0, "pushed": 448}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "cfc":
        {"cycle": 250,
         "rse": {"checks_seen": 2,
                 "ioq": {"allocated": 65, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {"CFC": {"checks": 0,
                                     "enabled": True,
                                     "errors": 0,
                                     "transfers_checked": 4,
                                     "violations": 0}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 56},
                            "Execute_Out": {"dropped": 0, "pushed": 55},
                            "Fetch_Out": {"dropped": 0, "pushed": 65},
                            "Memory_Out": {"dropped": 0, "pushed": 5},
                            "Regfile_Data": {"dropped": 0, "pushed": 57}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "ddt":
        {"cycle": 23595,
         "rse": {"checks_seen": 0,
                 "ioq": {"allocated": 1941, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {"DDT": {"checks": 0,
                                     "dependencies_logged": 3,
                                     "dependencies_missed": 0,
                                     "enabled": True,
                                     "errors": 0,
                                     "pst_evictions": 0,
                                     "save_pages_raised": 6}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 1896},
                            "Execute_Out": {"dropped": 0, "pushed": 1767},
                            "Fetch_Out": {"dropped": 0, "pushed": 1941},
                            "Memory_Out": {"dropped": 0, "pushed": 133},
                            "Regfile_Data": {"dropped": 0, "pushed": 1782}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "framework":
        {"cycle": 250,
         "rse": {"checks_seen": 2,
                 "ioq": {"allocated": 65, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 56},
                            "Execute_Out": {"dropped": 0, "pushed": 55},
                            "Fetch_Out": {"dropped": 0, "pushed": 65},
                            "Memory_Out": {"dropped": 0, "pushed": 5},
                            "Regfile_Data": {"dropped": 0, "pushed": 57}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "icm":
        {"cycle": 302,
         "rse": {"checks_seen": 6,
                 "ioq": {"allocated": 59, "occupancy": 0},
                 "mau": {"bytes_loaded": 96, "bytes_stored": 0, "requests": 3},
                 "modules": {"ICM": {"cache_hit_rate": 0.25,
                                     "cache_hits": 1,
                                     "cache_misses": 3,
                                     "checks": 4,
                                     "checks_completed": 4,
                                     "enabled": True,
                                     "errors": 0,
                                     "mismatches": 0,
                                     "unmapped_checks": 0}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 60},
                            "Execute_Out": {"dropped": 0, "pushed": 58},
                            "Fetch_Out": {"dropped": 0, "pushed": 59},
                            "Memory_Out": {"dropped": 0, "pushed": 4},
                            "Regfile_Data": {"dropped": 0, "pushed": 58}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "mlr":
        {"cycle": 4912,
         "rse": {"checks_seen": 6,
                 "ioq": {"allocated": 11341, "occupancy": 0},
                 "mau": {"bytes_loaded": 320,
                         "bytes_stored": 320,
                         "requests": 4},
                 "modules": {"MLR": {"checks": 5,
                                     "enabled": True,
                                     "errors": 0,
                                     "operations_done": 5,
                                     "pi_rand_cycles": None,
                                     "pi_rand_finished": None,
                                     "pi_rand_started": None}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 11333},
                            "Execute_Out": {"dropped": 0, "pushed": 11328},
                            "Fetch_Out": {"dropped": 0, "pushed": 11341},
                            "Memory_Out": {"dropped": 0, "pushed": 1412},
                            "Regfile_Data": {"dropped": 0, "pushed": 11329}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "tap":
        {"commits": 54,
         "cycle": 250,
         "executed": 54,
         "mem_loads": 4,
         "rse": {"checks_seen": 2,
                 "ioq": {"allocated": 65, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {"Tap": {"checks": 0,
                                     "enabled": True,
                                     "errors": 0}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 56},
                            "Execute_Out": {"dropped": 0, "pushed": 55},
                            "Fetch_Out": {"dropped": 0, "pushed": 65},
                            "Memory_Out": {"dropped": 0, "pushed": 5},
                            "Regfile_Data": {"dropped": 0, "pushed": 57}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
    "tap-enabled-by-check":
        {"commits": 39,
         "cycle": 250,
         "executed": 27,
         "mem_loads": 4,
         "rse": {"checks_seen": 2,
                 "ioq": {"allocated": 65, "occupancy": 0},
                 "mau": {"bytes_loaded": 0, "bytes_stored": 0, "requests": 0},
                 "modules": {"Tap": {"checks": 0,
                                     "enabled": False,
                                     "errors": 0}},
                 "queues": {"Commit_Out": {"dropped": 0, "pushed": 56},
                            "Execute_Out": {"dropped": 0, "pushed": 55},
                            "Fetch_Out": {"dropped": 0, "pushed": 65},
                            "Memory_Out": {"dropped": 0, "pushed": 5},
                            "Regfile_Data": {"dropped": 0, "pushed": 57}},
                 "safe_mode": False,
                 "selfcheck_trips": 0}},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS)
                         + [name + "+readers" for name in sorted(SCENARIOS)])
def test_rse_section_matches_every_port_latching(name, monkeypatch):
    name, readers, __ = name.partition("+readers")
    if readers:
        monkeypatch.setattr(sys.modules[__name__], "build_machine",
                            build_read)
    assert observe(name) == PINNED[name]


@pytest.mark.parametrize("config", ["framework", "icm"])
def test_unread_ports_hold_nothing_between_slices(config):
    machine = build_machine(with_rse=True,
                            modules=("icm",) if config == "icm" else ())
    asm = load(machine)
    if config == "icm":
        enable_icm(machine, asm)
    queues = machine.rse.queues
    # The ICM reads Fetch_Out and the squash notices Commit_Out carries.
    unread = [queues.regfile_data, queues.execute_out, queues.memory_out]
    if config == "framework":
        unread.append(queues.commit_out)
    slices = 0
    while True:
        event = machine.pipeline.run(max_cycles=5)
        slices += 1
        for queue in unread:
            assert len(queue) == 0, (queue.name, machine.pipeline.cycle)
        if config == "framework":
            assert all(item[1][1].instr.is_check
                       for item in queues.fetch_out._items)
        if event.kind is not EventKind.MAX_CYCLES:
            break
    assert event.kind is EventKind.HALT
    assert slices > 10
    for queue in unread:
        assert queue.pushed_total > 0, queue.name


def test_detached_commit_probe_leaves_no_reader_behind():
    def run(probed):
        machine = build_machine(with_rse=True)
        load(machine)
        if probed:
            tracer = machine.obs.attach("commit").tracer
        assert machine.pipeline.run(max_cycles=40).kind is \
            EventKind.MAX_CYCLES
        if probed:
            assert tracer.entries
            assert len(machine.rse.queues.commit_out) > 0
            machine.obs.detach("commit")
        return run_to_halt(machine)

    probed, plain = run(True), run(False)
    assert probed.pipeline.cycle == plain.pipeline.cycle
    assert probed.snapshot()["rse"] == plain.snapshot()["rse"]
    assert len(probed.rse.queues.commit_out) == 0
