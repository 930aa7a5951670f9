"""Checkpointed components declare their state, and nothing else moves.

A checkpoint takes from each component only the fields its class names
in ``STATE``.  So every other instance attribute must be wiring or
config that stays on the machine it was built for; the per-class lists
below name those.  Building every machine shape, running it, and
comparing its attributes with the declaration and the list catches a
new field that would otherwise go uncaptured, and the last test checks
that callbacks and other wiring really stay on the target.
"""

import pytest

from repro.checkpoint import CheckpointError, MachineCheckpoint, _components
from repro.experiments.table4 import workload_sources
from repro.fleet.net import NetworkConfig, NetworkDevice
from repro.kernel.kernel import Kernel
from repro.memory.bus import MemoryBus
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    CacheConfig,
    MemoryHierarchy,
    default_cache_configs,
)
from repro.obs.tracer import CommitTracer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.predictor import BranchPredictor, GsharePredictor
from repro.program.layout import MemoryLayout
from repro.rse.engine import RSE
from repro.rse.ioq import IOQ
from repro.rse.mau import MemoryAccessUnit
from repro.rse.modules.ahbm import AHBM, MODULE_AHBM
from repro.rse.modules.cfc import CFC, MODULE_CFC, build_cfg
from repro.rse.modules.ddt import DDT, MODULE_DDT
from repro.rse.modules.icm import ICM, arm_icm
from repro.rse.modules.mlr import MLR, MODULE_MLR, cycle_counter_entropy
from repro.rse.queues import InputQueue
from repro.rse.selfcheck import SelfChecker
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

_MODULE_WIRING = {"name", "engine"}

#: Per class: the instance attributes a checkpoint must not carry.
WIRING = {
    Pipeline: {"memory", "hierarchy", "config", "rse", "check_injector",
               "mem_check", "_predecode"},
    MemoryHierarchy: {"l1_latency", "l2_latency"},
    Cache: {"name", "size_bytes", "assoc", "block_bytes", "num_sets",
            "_block_shift", "_set_mask"},
    BranchPredictor: {"_bimodal_mask", "_btb_mask"},
    GsharePredictor: {"_bimodal_mask", "_btb_mask", "history_bits",
                      "_history_mask"},
    MemoryBus: {"timing"},
    Kernel: {"pipeline", "memory", "rse", "config", "netif",
             "snapshot_provider"},
    RSE: {"memory", "hierarchy", "queues", "ioq", "mau", "selfcheck",
          "modules", "_pipeline", "_fetch_readers", "_execute_readers",
          "_mem_load_readers", "_commit_readers", "_squash_readers",
          "_store_readers", "_steppers", "_module_reads"},
    MemoryAccessUnit: {"memory", "hierarchy"},
    IOQ: set(),
    SelfChecker: {"engine", "watchdog_timeout", "error_threshold",
                  "stuck1_threshold", "scan_period"},
    InputQueue: {"name", "depth"},
    ICM: _MODULE_WIRING | {"cache_entries", "replacement_group"},
    MLR: _MODULE_WIRING | {"entropy_source"},
    DDT: _MODULE_WIRING | {"pst_capacity", "model_lag",
                           "save_page_handler"},
    AHBM: _MODULE_WIRING | {"sample_period", "initial_timeout",
                            "min_timeout", "on_failure"},
    CFC: _MODULE_WIRING | {"on_violation"},
    CommitTracer: _MODULE_WIRING | {"limit"},
}


def _loaded(**kwargs):
    machine = build_machine(**kwargs)
    image, __ = build_workload_image(workload_sources(quick=True)["kmeans"],
                                     MemoryLayout())
    machine.kernel.load_process(image)
    return machine, image.segment(".text")


def _bare():
    return _loaded()[0]


def _framework():
    return _loaded(with_rse=True)[0]


def _icm():
    machine, text = _loaded(with_rse=True, modules=("icm",))
    arm_icm(machine, text.base, len(text.data))
    return machine


def _enabled(name, module_id):
    def build():
        machine = _loaded(with_rse=True, modules=(name,))[0]
        machine.rse.enable_module(module_id)
        return machine
    return build


def _ddt():
    machine = _enabled("ddt", MODULE_DDT)()
    machine.enable_ddt_recovery()
    return machine


def _cfc():
    machine, text = _loaded(with_rse=True, modules=("cfc",))
    machine.module(MODULE_CFC).configure(
        *build_cfg(machine.memory, text.base, len(text.data)))
    machine.rse.enable_module(MODULE_CFC)
    return machine


def _gshare():
    return _loaded(pipeline_config=PipelineConfig(predictor="gshare"))[0]


def _fleet_node():
    machine = _bare()
    NetworkDevice(1, NetworkConfig()).attach(0, machine.kernel)
    assert machine.kernel.netif is not None
    return machine


def _commit_probe():
    machine = _framework()
    machine.obs.attach("commit")
    return machine


SHAPES = {
    "bare": _bare,
    "framework": _framework,
    "icm": _icm,
    "mlr": _enabled("mlr", MODULE_MLR),
    "ddt": _ddt,
    "ahbm": _enabled("ahbm", MODULE_AHBM),
    "cfc": _cfc,
    "gshare": _gshare,
    "fleet-node": _fleet_node,
    "commit-probe": _commit_probe,
}


def _checked_objects(machine):
    """Every component the checkpoint walks, plus the objects restore
    refills: the predictor, the bus and the caches."""
    hierarchy = machine.hierarchy
    return ([component for __, component in _components(machine)]
            + [machine.pipeline.predictor, hierarchy.bus, hierarchy.il1,
               hierarchy.dl1, hierarchy.il2, hierarchy.dl2])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_instance_attribute_is_declared_state_or_wiring(shape):
    machine = SHAPES[shape]()
    machine.kernel.run(max_cycles=4_000)
    for obj in _checked_objects(machine):
        cls = type(obj)
        assert cls in WIRING, "%s has no wiring list here" % cls.__name__
        declared = set(cls.STATE)
        attributes = set(vars(obj))
        assert declared <= attributes, (
            "%s declares fields it never sets: %s"
            % (cls.__name__, sorted(declared - attributes)))
        assert not declared & WIRING[cls], (
            "%s: declared state listed as wiring: %s"
            % (cls.__name__, sorted(declared & WIRING[cls])))
        undeclared = attributes - declared - WIRING[cls]
        assert not undeclared, (
            "%s has attributes that are neither STATE nor wiring: %s"
            % (cls.__name__, sorted(undeclared)))
        assert set(getattr(cls, "REFILL", ())) <= declared


def _observed(machine):
    """Registers, page contents (restore bumps versions by design) and
    the snapshot sections a restore must carry over."""
    document = machine.snapshot()
    pages, __ = machine.memory.capture_state()
    return (list(machine.pipeline.regs), pages,
            [document[section]
             for section in ("cycle", "pipeline", "memory", "rse", "kernel")])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_round_trips_through_the_wire(shape):
    """What a shape leaves undeclared must not matter: a fresh machine
    restored from the wire runs on exactly like the donor."""
    donor = SHAPES[shape]()
    donor.kernel.run(max_cycles=3_000)
    payload = donor.checkpoint().to_bytes()
    donor.kernel.run(max_cycles=2_000)

    target = SHAPES[shape]()
    target.restore(MachineCheckpoint.from_bytes(payload))
    target.kernel.run(max_cycles=2_000)
    assert _observed(target) == _observed(donor)


def test_wiring_stays_on_the_target():
    """Callbacks and the MLR's entropy source are wiring: a restore
    leaves the target's own, and the donor's checkpoint serializes
    although its callbacks are lambdas."""
    failures, violations = [], []
    donor = build_machine(with_rse=True, modules=("ahbm", "cfc"))
    donor.rse.attach(MLR(entropy_source=lambda cycle: 4096))
    donor.module(MODULE_AHBM).on_failure = \
        lambda entity, cycle: failures.append(entity)
    donor.module(MODULE_CFC).on_violation = violations.append
    donor.pipeline.run(max_cycles=200)
    checkpoint = donor.checkpoint()
    wire = MachineCheckpoint.from_bytes(checkpoint.to_bytes())

    for image in (checkpoint, wire):
        target = build_machine(with_rse=True, modules=("ahbm", "cfc", "mlr"))
        target.restore(image)
        assert target.module(MODULE_AHBM).on_failure is None
        assert target.module(MODULE_CFC).on_violation is None
        assert target.module(MODULE_MLR).entropy_source \
            is cycle_counter_entropy
        assert target.pipeline.cycle == donor.pipeline.cycle


def _small_dl1():
    configs = default_cache_configs()
    configs["dl1"] = CacheConfig("dl1", 1024, 1)
    return build_machine(cache_configs=configs)


@pytest.mark.parametrize("target_factory", [
    lambda: build_machine(pipeline_config=PipelineConfig(predictor="gshare")),
    _small_dl1,
], ids=["gshare-predictor", "1kb-dl1"])
def test_refill_of_another_class_or_geometry_is_refused(target_factory):
    """A checkpoint refills the predictor and caches in place, so one
    taken on a bimodal, 8 KB-dl1 machine must be refused by a machine
    with a gshare predictor or a 1 KB dl1, before anything changes."""
    image, __ = build_workload_image(workload_sources(quick=True)["kmeans"])
    donor = build_machine()
    donor.kernel.load_process(image)
    donor.kernel.run(max_cycles=2_000)
    checkpoint = donor.checkpoint()
    target = target_factory()
    target.kernel.load_process(image)
    target.kernel.run(max_cycles=500)
    pages, __ = target.memory.capture_state()
    for candidate in (checkpoint,
                      MachineCheckpoint.from_bytes(checkpoint.to_bytes())):
        with pytest.raises(CheckpointError, match="same configuration"):
            target.restore(candidate)
        assert target.pipeline.cycle == 500
        assert target.memory.capture_state()[0] == pages
