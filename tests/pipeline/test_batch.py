"""Batch vs stepped driver of the one cycle loop: cycle-exact equivalence.

:meth:`Pipeline.run` drives the cycle loop in one of two ways.  One
call runs the whole budget, unless ``step`` is shadowed: then each
cycle is one :meth:`Pipeline.step` call, which runs the same loop for
one cycle.  :func:`drive_stepped` shadows it to get that reference.
The drivers differ only in what a call spanning many cycles may do:
jump over provably-dead cycles (replaying their fetch stalls and CHECK
waits), keep the same-block I-fetch memo across cycles, and reuse a
page's fetch permission.  The contract is *identity*: events, cycle counts,
architectural state, every stats counter and the whole ``rse``
snapshot section must be equal.  These tests compare complete
fingerprints across the Table 4 quick workloads on both cache
geometries, seeded generated programs, the paper's protected
configurations (framework, ICM, MLR, DDT, AHBM), and every edge a skip
or the memo meets: the timer, ``mem_check`` faults, self-modifying
code, CHECK errors and the self-checker's watchdog.
"""

import pytest

from repro.campaign.runner import build_campaign_machine
from repro.difftest import generator
from repro.difftest.oracle import CommitRecorder
from repro.experiments import fig9, table4
from repro.isa.assembler import assemble
from repro.isa.encoding import flip_bit
from repro.pipeline.core import EventKind
from repro.rse.check import MODULE_AHBM, MODULE_ICM, asm_constants
from repro.rse.module import ModuleMode, RSEModule
from repro.rse.modules.icm import arm_icm
from repro.program.layout import MemoryLayout
from repro.system import build_machine
from repro.workloads import gotplt
from repro.workloads.asmlib import build_workload_image

from helpers import STACK_TOP, load_assembly, make_pipeline
from probe_module import TEST_MODULE_ID


def drive_stepped(pipeline):
    """Shadow ``pipeline.step`` so that :meth:`Pipeline.run` takes one
    ``step()`` per cycle: the stepped driver the batch one must match."""
    step = pipeline.step
    pipeline.step = lambda: step()


def fingerprint(pipeline, event):
    doc = {"kind": event.kind.value, "pc": event.pc,
           "cycle": pipeline.cycle, "regs": list(pipeline.regs)}
    doc.update(vars(pipeline.stats))
    return doc


def run_pair(source, max_cycles=2_000_000, prep=None, constants=None,
             cache_configs=None):
    """Run *source* under batch and step configs; return both prints."""
    prints = {}
    for batch in (False, True):
        asm, mem = load_assembly(source, constants=constants)
        pipeline = make_pipeline(mem, asm.entry, cache_configs=cache_configs)
        if not batch:
            drive_stepped(pipeline)
        if prep is not None:
            prep(pipeline)
        event = pipeline.run(max_cycles=max_cycles)
        prints[batch] = fingerprint(pipeline, event)
    return prints


def assert_identical(prints):
    assert prints[True] == prints[False], {
        key: (prints[False][key], prints[True][key])
        for key in prints[False]
        if prints[False][key] != prints[True][key]}


def test_table4_workloads_cycle_exact():
    # On the Figure 1 caches and on the scaled ones the Table 4 runs
    # use.  The scaled il1 (128 B, direct-mapped) evicts often enough
    # that a miss on one block displaces the block a redirect returns
    # to: the same-block I-fetch memo must follow misses too.
    for caches in (None, table4.scaled_cache_configs()):
        for name, source in table4.workload_sources(quick=True).items():
            prints = run_pair(source, max_cycles=50_000_000,
                              cache_configs=caches)
            assert prints[True]["kind"] == "halt", name
            assert_identical(prints)


def test_timer_fires_at_identical_cycle():
    source = """
main:
    li $t0, 0
loop:
    addi $t0, $t0, 1
    j loop
"""

    def arm(pipeline):
        pipeline.timer_deadline = 137

    prints = run_pair(source, max_cycles=10_000, prep=arm)
    assert prints[True]["kind"] == "timer"
    assert_identical(prints)


def test_mem_check_fault_is_identical():
    source = """
    .data
x:  .word 0
    .text
main:
    la $t0, x
    li $t1, 1
    sw $t1, 0($t0)
    halt
"""

    def deny(pipeline):
        pipeline.mem_check = (lambda addr, size, kind:
                              "write denied" if kind == "w"
                              and addr >= 0x10000000 else None)

    prints = run_pair(source, max_cycles=10_000, prep=deny)
    assert prints[True]["kind"] == "fault"
    assert_identical(prints)


def test_revoked_fetch_permission_faults_on_the_next_run():
    # mem_check may change only between run() calls; the fused loop
    # probes fetch once per page per call, so when the kernel revokes
    # "x" on a page between two runs, the very next fetch from it must
    # fault, as it does under step().
    source = """
main:
    li $t0, 0
loop:
    addi $t0, $t0, 1
    j loop
"""
    prints = {}
    for batch in (False, True):
        machine = build_machine()
        if not batch:
            drive_stepped(machine.pipeline)
        image, asm = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        assert machine.kernel.run(max_cycles=333).reason == "max_cycles"
        page = asm.symbols["loop"] >> 12
        assert "x" in machine.kernel.page_perms[page]
        machine.kernel.page_perms[page] = "r"
        assert machine.kernel.run(max_cycles=500).reason == "fault"
        __, pc, cause = machine.kernel.faults[-1]
        assert pc >> 12 == page and cause.startswith("x-access violation")
        prints[batch] = {"faults": machine.kernel.faults,
                         "cycle": machine.pipeline.cycle,
                         "stats": vars(machine.pipeline.stats)}
    assert_identical(prints)


def test_self_modifying_code_is_identical():
    from repro.isa.encoding import encode
    from repro.isa.instructions import SPEC_BY_NAME

    patched = encode(SPEC_BY_NAME["addi"], rs=16, rt=16, imm=5)
    source = """
main:
    li $t1, PATCH
    la $t0, target
    sw $t1, 0($t0)
target:
    addi $s0, $s0, 0
    addi $s0, $s0, 0
    halt
"""
    prints = run_pair(source, max_cycles=10_000,
                      constants={"PATCH": patched})
    assert prints[True]["kind"] == "halt"
    # The store really rewrote straight-line code the pipeline had
    # already fetched: both engines must refetch and see +5.
    assert prints[True]["regs"][16] == 5
    assert_identical(prints)


def test_rse_and_check_injector_are_identical():
    # The protected campaign machine carries the RSE, the ICM, and the
    # CHECK injector, all of which the fused loop drives.  Batch on/off
    # must agree cycle for cycle.
    source = table4.workload_sources(quick=True)["kmeans"]
    asm = assemble(source)
    prints = {}
    for batch in (False, True):
        machine, __ = build_campaign_machine(asm, protected=True)
        if not batch:
            drive_stepped(machine.pipeline)
        event = machine.pipeline.run(max_cycles=50_000_000)
        prints[batch] = fingerprint(machine.pipeline, event)
    assert prints[True]["kind"] == "halt"
    assert_identical(prints)


def test_shadowed_step_deopts_to_reference_loop():
    # Anything that monkeypatches step() (adapters, tests) must win:
    # run() may not take the fused path around it.
    source = "main:\n li $t0, 3\n halt\n"
    asm, mem = load_assembly(source)
    pipeline = make_pipeline(mem, asm.entry)
    seen = []
    original = pipeline.step

    def spy():
        seen.append(pipeline.cycle)
        return original()

    pipeline.step = spy
    event = pipeline.run(max_cycles=1_000)
    assert event.kind is EventKind.HALT
    assert len(seen) == pipeline.cycle    # every cycle went through spy


# ------------------------------------------------- protected machines

def record_events(pipeline):
    """Shadow ``pipeline.run`` to log every event a run returns."""
    events = []
    run = pipeline.run

    def recording(max_cycles=None):
        event = run(max_cycles=max_cycles)
        events.append((event.kind.value, event.pc, event.cause,
                       pipeline.cycle))
        return event

    pipeline.run = recording
    return events


def machine_print(machine, events):
    doc = {"events": events, "cycle": machine.pipeline.cycle,
           "regs": list(machine.pipeline.regs)}
    doc.update(vars(machine.pipeline.stats))
    if machine.rse is not None:
        doc["rse"] = machine.snapshot()["rse"]
        doc["rse_cycle"] = machine.rse.cycle
        doc["trips"] = [(trip.cycle, trip.reason)
                        for trip in machine.rse.selfcheck.trips]
    if machine.obs.attached():
        doc["obs"] = machine.obs.tracer.events()
    return doc


def paired(run, probes=()):
    """Fingerprints of ``run(build)`` with batch off and on.

    *run* builds its machine through *build*, which takes
    :func:`build_machine`'s options and attaches *probes*.
    """
    prints = {}
    for batch in (False, True):
        built = []

        def build(**options):
            machine = build_machine(**options)
            if not batch:
                drive_stepped(machine.pipeline)
            for name in probes:
                machine.obs.attach(name)
            built.append((machine, record_events(machine.pipeline)))
            return machine

        run(build)
        prints[batch] = machine_print(*built[-1])
    return prints


def load(machine, source, constants=None, icm=False):
    """Place *source* in memory and point the core at it (no kernel)."""
    asm = assemble(source, constants=constants)
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    if icm:
        arm_icm(machine, asm.text_base, len(asm.text))
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP


def test_table4_protected_cells_are_identical(monkeypatch):
    for source in table4.workload_sources(quick=True).values():
        for cell in (table4.run_framework, table4.run_framework_icm):
            def run(build):
                monkeypatch.setattr(table4, "build_machine", build)
                cell(source)

            assert_identical(paired(run))


@pytest.mark.parametrize("config", ["bare", "icm"])
def test_probe_streams_are_identical(monkeypatch, config):
    # Probes read pipeline.cycle mid-run: the fused loop must keep it
    # current every cycle, not only when run() returns.
    source = table4.workload_sources(quick=True)["kmeans"]
    cell = (table4.run_baseline if config == "bare"
            else table4.run_framework_icm)
    probes = ("mispredict", "fetch_stall")
    if config == "icm":
        probes += ("rse",)

    def run(build):
        monkeypatch.setattr(table4, "build_machine", build)
        cell(source)

    prints = paired(run, probes)
    stamps = {cycle for cycle, kind, __ in prints[True]["obs"]
              if kind == "mispredict"}
    assert len(stamps) > 100
    assert_identical(prints)


@pytest.mark.parametrize("entries", [16, 96])
def test_mlr_loader_is_identical(entries):
    # With 16 entries the PLT rewrite completes and its pending store
    # bounds a skip; with 96, as at every Table 5 size, the rewrite
    # outlasts the self-checker's watchdog, which decouples the RSE.
    def run(build):
        image, __ = gotplt.rse_version(entries)
        machine = build(with_rse=True, modules=("mlr",))
        result = machine.run_program(image, max_cycles=2_000_000)
        assert result.reason == "halt"

    prints = paired(run)
    assert prints[True]["rse"]["mau"]["requests"] > 0
    assert bool(prints[True]["trips"]) == (entries == 96)
    assert_identical(prints)


def slice_runs(pipeline, cycles):
    """Split every ``pipeline.run`` into runs of at most *cycles*."""
    run = pipeline.run

    def sliced(max_cycles=None):
        limit = None if max_cycles is None else pipeline.cycle + max_cycles
        while True:
            budget = (cycles if limit is None
                      else min(cycles, limit - pipeline.cycle))
            event = run(max_cycles=budget)
            if (event.kind is not EventKind.MAX_CYCLES
                    or limit is not None and pipeline.cycle >= limit):
                return event

    pipeline.run = sliced


@pytest.mark.parametrize("slice_cycles", [None, 7])
def test_ddt_server_is_identical(monkeypatch, slice_cycles):
    # Cut into 7-cycle runs, many runs start inside a freeze window.
    def run(build):
        def sliced_build(**options):
            machine = build(**options)
            if slice_cycles:
                slice_runs(machine.pipeline, slice_cycles)
            return machine

        monkeypatch.setattr(fig9, "build_machine", sliced_build)
        fig9.run_server(3, True, requests=3, work_iters=100)

    prints = paired(run)
    assert prints[True]["savepage_stalls"] > 0          # freeze windows
    assert "timer" in {event[0] for event in prints[True]["events"]}
    assert_identical(prints)


AHBM_SILENCE = """
main:
    li $a0, 42
    chk AHBM, NBLK, OP_AHBM_REGISTER, 0
    li $t0, 6
beat:
    li $a0, 42
    chk AHBM, NBLK, OP_AHBM_HEARTBEAT, 0
    li $t1, 100
delay:
    addi $t1, $t1, -1
    bnez $t1, delay
    addi $t0, $t0, -1
    bnez $t0, beat
    li $t1, 200
    li $t2, 3
silence:
    div $t3, $t1, $t2
    div $t3, $t3, $t2
    addi $t1, $t1, -1
    bnez $t1, silence
    halt
"""


def test_ahbm_heartbeat_failure_is_identical():
    # The silent divide chain leaves long dead stretches; skipping them
    # must still stop at every sample point while the entity is alive.
    failures = []

    def run(build):
        machine = build(with_rse=True, modules=("ahbm",))
        machine.module(MODULE_AHBM).sample_period = 64
        machine.rse.enable_module(MODULE_AHBM)
        load(machine, AHBM_SILENCE, constants=asm_constants())
        event = machine.pipeline.run(max_cycles=200_000)
        assert event.kind is EventKind.HALT
        failures.append(list(machine.module(MODULE_AHBM).failures))

    prints = paired(run)
    assert failures[0] and failures[0] == failures[1]
    assert_identical(prints)


ICM_LOOP = """
main:
    li $t0, 0
    li $t1, 30
loop:
    addi $t0, $t0, 1
    blt $t0, $t1, loop
    halt
"""


def test_icm_mismatch_check_error_is_identical():
    def run(build):
        machine = build(with_rse=True, modules=("icm",))
        load(machine, ICM_LOOP, icm=True)
        icm = machine.module(MODULE_ICM)
        branch_pc = min(icm.checker_map)
        word = machine.memory.load_word(branch_pc)
        machine.memory.store_word(branch_pc, flip_bit(word, 3))
        event = machine.pipeline.run(max_cycles=200_000)
        assert event.kind is EventKind.CHECK_ERROR

    assert_identical(paired(run))


class SilentModule(RSEModule):
    """Answers CHECKs through ``finish_check`` and has no timed work."""

    MODULE_ID = TEST_MODULE_ID
    MODE = ModuleMode.SYNC

    def on_check(self, uop, entry, cycle):
        self.finish_check(entry, False, cycle)


def test_watchdog_trip_is_identical():
    # A no_progress module never answers: the CHECK waits at commit
    # through dead cycles until the self-checker's watchdog deadline,
    # which the skip must land on exactly.
    def run(build):
        machine = build(with_rse=True)
        module = machine.rse.attach(SilentModule())
        module.fault_mode = "no_progress"
        machine.rse.enable_module(TEST_MODULE_ID)
        constants = dict(asm_constants(), PROBE=TEST_MODULE_ID)
        load(machine, "main:\n chk PROBE, BLK, 2, 0\n li $t0, 1\n halt\n",
             constants=constants)
        event = machine.pipeline.run(max_cycles=20_000)
        assert event.kind is EventKind.HALT
        assert machine.rse.safe_mode

    prints = paired(run)
    assert prints[True]["check_wait_cycles"] > 400
    assert prints[True]["trips"]
    assert_identical(prints)


@pytest.mark.parametrize("config", ["bare", "framework", "icm"])
def test_run_stops_exactly_at_its_budget(config):
    source = table4.workload_sources(quick=True)["kmeans"]
    prints = {}
    for batch in (False, True):
        machine = build_machine(
            with_rse=config != "bare",
            modules=("icm",) if config == "icm" else (),
            cache_configs=table4.scaled_cache_configs())
        load(machine, source, icm=config == "icm")
        pipeline = machine.pipeline
        if not batch:
            drive_stepped(pipeline)
        stamps = []          # the RSE's clock wherever a slice stopped
        while True:
            start = pipeline.cycle
            event = pipeline.run(max_cycles=7)
            if event.kind is not EventKind.MAX_CYCLES:
                assert event.kind is EventKind.HALT
                assert pipeline.cycle <= start + 7
                break
            assert pipeline.cycle == start + 7
            stamps.append(machine.rse and machine.rse.cycle)
        prints[batch] = machine_print(machine, stamps)
    assert_identical(prints)


class FreezingRecorder(CommitRecorder):
    """RSE stand-in: the first store freezes the core for 300 cycles,
    and the stand-in has one timed event inside that window."""

    def __init__(self):
        super().__init__()
        self.event_at = None
        self.acted = []

    def pre_commit_store(self, uop, cycle):
        if self.event_at is not None:
            return 0
        self.event_at = cycle + 100
        return 300

    def step(self, cycle):
        if cycle == self.event_at:
            self.acted.append(cycle)
            return True
        return False

    def quiescent(self, cycle):
        if self.event_at is not None and cycle <= self.event_at:
            return self.event_at
        return None


def test_timed_rse_work_inside_a_freeze_window():
    source = """
    .data
x:  .word 0
    .text
main:
    la $t0, x
    li $t1, 9
    sw $t1, 0($t0)
    lw $t2, 0($t0)
    addi $t2, $t2, 1
    halt
"""
    prints = {}
    for batch in (False, True):
        asm, mem = load_assembly(source)
        tap = FreezingRecorder()
        pipeline = make_pipeline(mem, asm.entry, rse=tap)
        if not batch:
            drive_stepped(pipeline)
        event = pipeline.run(max_cycles=10_000)
        prints[batch] = dict(fingerprint(pipeline, event), acted=tap.acted,
                             stream=tap.stream)
    assert prints[True]["savepage_stalls"] == 1
    assert prints[True]["acted"] == [tap.event_at]
    assert_identical(prints)


# ------------------------------------------------- generated programs

GENERATED_CACHES = (("fig1", None), ("scaled", table4.scaled_cache_configs()))


def test_generated_programs_are_cycle_exact():
    # Seeded difftest programs (ALU, divides that fault, forwarding,
    # branches, jal/jr/jalr, CHECKs, self-modifying code) on the bare
    # core, on the Figure 1 caches and on the scaled il1 whose misses
    # exercise the I-fetch memo.
    failed = []
    for name, caches in GENERATED_CACHES:
        for seed in range(200):
            source = generator.generate(seed, "all").source
            prints = run_pair(source, max_cycles=100_000,
                              cache_configs=caches)
            if prints[True] != prints[False]:
                failed.append((name, seed))
    assert not failed, failed


def test_generated_programs_on_the_framework_are_cycle_exact():
    # The same through the kernel on an RSE machine, comparing the rse
    # section too.  Mode "check": the kernel maps text r-x, so the
    # self-modifying idioms would stop at their first store.
    failed = []
    for name, caches in GENERATED_CACHES:
        for seed in range(100):
            image, __ = build_workload_image(
                generator.generate(seed, "check").source, MemoryLayout())

            def run(build):
                machine = build(with_rse=True, cache_configs=caches)
                machine.run_program(image, max_cycles=100_000)

            prints = paired(run)
            if prints[True] != prints[False]:
                failed.append((name, seed))
    assert not failed, failed
