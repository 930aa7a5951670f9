"""A dropped machine, fleet or campaign is freed by reference counting.

Every back-reference inside a machine is weak or absent (DESIGN.md,
"Machine lifetime"), so dropping the last outside reference frees the
machine at once: its memory with every page, its caches with every
set, its pipeline, kernel and RSE.  These tests run each case with the
cyclic collector off, drop it, and check that every machine built
along the way is already gone and that a collection then finds no
``repro`` object.
"""

import gc
import weakref

import pytest

from repro import system
from repro.campaign.options import ExecutionOptions
from repro.campaign.runner import DEMO_WORKLOAD, CampaignSpec, run_campaign
from repro.experiments import table4
from repro.fleet.run import FleetSpec, run_fleet
from repro.program.layout import MemoryLayout
from repro.rse.modules.icm import arm_icm
from repro.security.attackgen import generate_variant, run_variant
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

SOURCE = table4.workload_sources(quick=True)["kmeans"]


def _components(machine):
    """A machine and every component that owns pages or cache sets."""
    hierarchy = machine.hierarchy
    parts = [machine, machine.memory, hierarchy, hierarchy.il1,
             hierarchy.dl1, hierarchy.il2, hierarchy.dl2, machine.pipeline,
             machine.kernel]
    if machine.rse is not None:
        parts.append(machine.rse)
        parts.extend(machine.rse.modules.values())
    return parts


def _run_bare():
    machine = build_machine()
    image, __ = build_workload_image(SOURCE, MemoryLayout())
    assert machine.run_program(image).reason == "halt"
    return machine


def _run_protected():
    machine = build_machine(with_rse=True,
                            modules=("icm", "mlr", "ddt", "ahbm", "cfc"))
    machine.enable_ddt_recovery()
    image, asm = build_workload_image(SOURCE, MemoryLayout())
    machine.kernel.load_process(image)
    arm_icm(machine, asm.text_base, len(asm.text))
    assert machine.kernel.run().reason == "halt"
    return machine


def _run_fleet(protected):
    spec = FleetSpec(nodes=2, requests=6, seed=3, protected=protected,
                     mean_gap=2_000, checkpoint_interval=10_000,
                     kills=((1, 15_000),))
    run = run_fleet(spec)
    assert run.served() == spec.requests
    assert any(event.reason == "killed" for node in run.nodes
               for event in node.failovers)
    return run


def _run_fork_campaign():
    spec = CampaignSpec(DEMO_WORKLOAD, model="reg-flip", protected=True,
                        injections=4, seed=3)
    run = run_campaign(spec, ExecutionOptions(fork=True))
    assert len(run.records) == 4
    return run


def _run_variant(config):
    run = run_variant(generate_variant("stack-smash", 5, config))
    assert run.machine is not None
    return run


CASES = {
    "bare-machine": _run_bare,
    "protected-machine": _run_protected,
    "bare-fleet": lambda: _run_fleet(False),
    "protected-fleet": lambda: _run_fleet(True),
    "fork-campaign": _run_fork_campaign,
    "variant-cfc": lambda: _run_variant("cfc"),
    "variant-mlr+icm": lambda: _run_variant("mlr+icm"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_case_is_freed_without_the_cycle_collector(case,
                                                           monkeypatch):
    built = []
    init = system.Machine.__init__

    def recording_init(machine, *args, **kwargs):
        init(machine, *args, **kwargs)
        built.extend(weakref.ref(part) for part in _components(machine))

    monkeypatch.setattr(system.Machine, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        result = CASES[case]()
        assert built
        del result
        alive = sorted({type(ref()).__name__ for ref in built
                        if ref() is not None})
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = sorted({"%s.%s" % (type(obj).__module__,
                                 type(obj).__qualname__)
                      for obj in gc.garbage
                      if type(obj).__module__.startswith("repro")})
    gc.garbage.clear()
    assert alive == [], "still alive after the drop: %s" % alive
    assert garbage == [], "left to the cycle collector: %s" % garbage
