"""The IOQ's shared '10' entry for non-CHECK instructions.

Only CHECK entries ever change or reach the commit gate, so every other
in-flight instruction holds :data:`repro.rse.ioq.NON_CHECK_ENTRY`.
Occupancy and lookups must read as with one entry per instruction, the
shared entry must refuse writes, and checkpoints — live and wire — must
hand back the very same object.
"""

import copy
import pickle

import pytest

from repro.checkpoint import MachineCheckpoint
from repro.experiments import table4
from repro.pipeline.core import EventKind
from repro.rse.ioq import NON_CHECK_ENTRY, IOQEntry
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
    assert len(ioq) == len(rob)
    for uop in rob:
        entry = ioq.get(uop.seq)
        if uop.instr.is_check:
            assert entry is not NON_CHECK_ENTRY and entry.uop is uop
        else:
            assert entry is NON_CHECK_ENTRY


@pytest.mark.parametrize("config", ["framework", "icm", "mlr"])
def test_occupancy_is_the_dispatched_rob(config):
    boundaries = []

    def check(machine):
        ioq_matches_rob(machine)
        boundaries.append(len(machine.pipeline.rob))

    run_config(config, build_machine, check)
    assert len(boundaries) > 100 and max(boundaries) > 4


def test_shared_entry_is_the_constant_10():
    assert NON_CHECK_ENTRY.effective_check_valid == 1
    assert NON_CHECK_ENTRY.effective_check == 0
    for name in ("check_valid", "check", "stuck_check_valid",
                 "stuck_check", "payload", "seq"):
        with pytest.raises(AttributeError):
            setattr(NON_CHECK_ENTRY, name, 0)
    with pytest.raises(AttributeError):
        NON_CHECK_ENTRY.complete(True, 5)
    assert NON_CHECK_ENTRY.check_valid == 1 and NON_CHECK_ENTRY.check == 0
    assert copy.copy(NON_CHECK_ENTRY) is NON_CHECK_ENTRY
    assert copy.deepcopy(NON_CHECK_ENTRY) is NON_CHECK_ENTRY
    assert pickle.loads(pickle.dumps(NON_CHECK_ENTRY)) is NON_CHECK_ENTRY
    # A CHECK still gets an entry of its own, allocated as '00'.
    assert isinstance(IOQEntry(1, None, 0, True), IOQEntry)


class _Stop(Exception):
    def __init__(self, machine):
        super().__init__()
        self.machine = machine


def _mid_run_icm_machine():
    """An ICM machine stopped with CHECK and non-CHECK entries in flight."""
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


def test_checkpoints_map_the_shared_entry_back_to_itself():
    donor = _mid_run_icm_machine()
    entries = donor.rse.ioq.entries()
    assert NON_CHECK_ENTRY in entries
    assert any(entry is not NON_CHECK_ENTRY for entry in entries)
    checkpoint = donor.checkpoint()
    wire = MachineCheckpoint.from_bytes(checkpoint.to_bytes())

    for image in (checkpoint, wire):
        target = build_machine(with_rse=True, modules=("icm",),
                               cache_configs=table4.scaled_cache_configs())
        target.restore(image)
        ioq_matches_rob(target)
        restored = target.rse.ioq.entries()
        assert ([entry is NON_CHECK_ENTRY for entry in restored]
                == [entry is NON_CHECK_ENTRY for entry in entries])
        for entry in restored:
            if entry is not NON_CHECK_ENTRY:
                assert entry not in entries          # CHECK entries copy
