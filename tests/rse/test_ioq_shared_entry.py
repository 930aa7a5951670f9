"""The IOQ holds exactly the in-flight CHECKs.

Only CHECK entries ever change or reach the commit gate; every other
instruction's entry would be the constant '10', so it has none.  The
snapshot's occupancy still counts one entry per instruction in flight,
the ROB, and checkpoints — live and wire — must restore each CHECK
entry together with its uop.
"""

import pytest

from repro.checkpoint import MachineCheckpoint
from repro.experiments import table4
from repro.isa.encoding import decode
from repro.pipeline.core import EventKind, Uop
from repro.rse.ioq import IOQ
from repro.rse.modules.icm import make_icm_injector
from repro.system import build_machine
from repro.workloads import gotplt

SOURCE = table4.workload_sources(quick=True)["kmeans"]


def check_every_slice(machine, cycles, check):
    """Cut every ``pipeline.run`` into runs of at most *cycles* and call
    *check* at each boundary."""
    pipeline = machine.pipeline
    run = pipeline.run

    def sliced(max_cycles=None):
        limit = None if max_cycles is None else pipeline.cycle + max_cycles
        while True:
            budget = (cycles if limit is None
                      else min(cycles, limit - pipeline.cycle))
            event = run(max_cycles=budget)
            check(machine)
            if (event.kind is not EventKind.MAX_CYCLES
                    or limit is not None and pipeline.cycle >= limit):
                return event

    pipeline.run = sliced


def run_config(config, build, check):
    """Run one paper configuration with *check* at every 5-cycle slice."""
    if config == "mlr":
        image, __ = gotplt.rse_version(16)
        machine = build(with_rse=True, modules=("mlr",))
        check_every_slice(machine, 5, check)
        assert machine.run_program(image, max_cycles=2_000_000).reason \
            == "halt"
        return

    def sliced_build(**options):
        machine = build(**options)
        check_every_slice(machine, 5, check)
        return machine

    original = table4.build_machine
    table4.build_machine = sliced_build
    try:
        cell = (table4.run_framework if config == "framework"
                else table4.run_framework_icm)
        cell(SOURCE)
    finally:
        table4.build_machine = original


def ioq_matches_rob(machine):
    rob = machine.pipeline.rob
    ioq = machine.rse.ioq
    assert machine.rse.occupancy() == len(rob)
    assert machine.snapshot()["rse"]["ioq"]["occupancy"] == len(rob)
    assert [entry.seq for entry in ioq.entries()] == \
        [uop.seq for uop in rob if uop.instr.is_check]
    for uop in rob:
        entry = ioq.get(uop.seq)
        if uop.instr.is_check:
            assert entry.uop is uop
        else:
            assert entry is None


@pytest.mark.parametrize("config", ["framework", "icm", "mlr"])
def test_occupancy_is_the_dispatched_rob(config):
    boundaries = []

    def check(machine):
        ioq_matches_rob(machine)
        boundaries.append(len(machine.pipeline.rob))

    run_config(config, build_machine, check)
    assert len(boundaries) > 100 and max(boundaries) > 4


def test_only_a_check_gets_an_entry():
    ioq = IOQ()
    check = Uop(5, 0x400000, make_icm_injector({0x400004: 0})(0x400004, None))
    other = Uop(6, 0x400004, decode(0))
    entry = ioq.allocate(check, 7)
    assert ioq.get(check.seq) is entry and entry.uop is check
    assert (entry.check_valid, entry.check, entry.alloc_cycle) == (0, 0, 7)
    assert ioq.get(other.seq) is None
    assert ioq.oldest_pending_check() is entry
    ioq.free(check.seq)
    assert len(ioq) == 0 and ioq.get(check.seq) is None


class _Stop(Exception):
    def __init__(self, machine):
        super().__init__()
        self.machine = machine


def _mid_run_icm_machine():
    """An ICM machine stopped with CHECKs and other instructions in
    flight."""
    def check(machine):
        rob = machine.pipeline.rob
        if len(rob) >= 8 and any(uop.instr.is_check for uop in rob[1:]):
            raise _Stop(machine)

    try:
        run_config("icm", build_machine, check)
    except _Stop as stop:
        del stop.machine.pipeline.run          # checkpoints copy fields
        return stop.machine
    pytest.fail("the ICM run never held a mixed window")


def test_checkpoints_restore_check_entries_with_their_uops():
    donor = _mid_run_icm_machine()
    entries = donor.rse.ioq.entries()
    assert entries and len(entries) < len(donor.pipeline.rob)
    checkpoint = donor.checkpoint()
    wire = MachineCheckpoint.from_bytes(checkpoint.to_bytes())

    for image in (checkpoint, wire):
        target = build_machine(with_rse=True, modules=("icm",),
                               cache_configs=table4.scaled_cache_configs())
        target.restore(image)
        ioq_matches_rob(target)
        restored = target.rse.ioq.entries()
        assert [entry.seq for entry in restored] == \
            [entry.seq for entry in entries]
        for entry in restored:
            assert entry not in entries          # CHECK entries copy
        # Queued MAU requests complete on the target's own modules, never
        # on a clone of the donor's.
        mau = target.rse.mau
        requests = list(mau._queue) + [mau._active]
        modules = [request.module for request in requests
                   if request is not None and request.module is not None]
        assert modules
        assert all(module is target.rse.modules[module.MODULE_ID]
                   for module in modules)
