"""One-call assembly of a complete simulated machine.

:class:`Machine` wires together main memory, the cache hierarchy, the
out-of-order pipeline, optionally the RSE with any subset of its modules,
and the kernel — the configuration Figure 1 draws.  Examples, tests and
benchmarks build machines through :func:`build_machine`.
"""

from repro.assertions.hub import AssertionHub
from repro.kernel.kernel import Kernel, KernelConfig
from repro.memory.bus import BASELINE_TIMING, FRAMEWORK_TIMING
from repro.obs import Observability
from repro.memory.hierarchy import MemoryHierarchy, default_cache_configs
from repro.memory.mainmem import MainMemory
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import Pipeline
from repro.recovery.recovery import RecoveryManager
from repro.rse.check import MODULE_DDT
from repro.rse.engine import RSE
from repro.rse.modules.ahbm import AHBM
from repro.rse.modules.cfc import CFC
from repro.rse.modules.ddt import DDT
from repro.rse.modules.icm import ICM
from repro.rse.modules.mlr import MLR
from repro.weak import weak_method


class Machine:
    """A fully wired simulated system."""

    def __init__(self, memory, hierarchy, pipeline, rse, kernel):
        self.memory = memory
        self.hierarchy = hierarchy
        self.pipeline = pipeline
        self.rse = rse
        self.kernel = kernel
        # The telemetry hub: every component registers its snapshot()
        # provider here, in document order.  "rse" is always present in
        # the document (None for bare machines) so the schema is stable.
        self.obs = Observability(self)
        self.obs.register("pipeline", pipeline.snapshot)
        self.obs.register("memory", hierarchy.snapshot)
        self.obs.register("rse", rse.snapshot if rse is not None else None)
        self.obs.register("kernel", kernel.snapshot)
        # The assertion hub: the standing invariant suite, opt-in like
        # obs probes ("assertions" is always a document section so the
        # schema is stable whether or not monitoring ever ran).
        self.assertions = AssertionHub(self)
        self.obs.register("assertions", self.assertions.snapshot)
        kernel.snapshot_provider = weak_method(self.snapshot)

    # Convenience accessors -------------------------------------------------

    @property
    def cycle(self):
        return self.pipeline.cycle

    def snapshot(self):
        """One schema-stable nested document covering every component.

        Top-level keys: ``schema``, ``cycle``, ``pipeline``, ``memory``,
        ``rse`` (None without the framework), ``kernel``,
        ``assertions``, ``obs``.
        """
        return self.obs.document()

    def reset_stats(self):
        """Zero every component's counters (warm-up / steady-state cuts).

        Architectural state — registers, memory, caches' residency, RSE
        tables, threads — is untouched; only reporting counters reset.
        """
        self.pipeline.reset_stats()
        self.hierarchy.reset_stats()
        if self.rse is not None:
            self.rse.reset_stats()
        self.kernel.reset_stats()
        self.obs.reset()

    def module(self, module_id):
        return self.rse.modules[module_id] if self.rse else None

    def checkpoint(self):
        """Snapshot the whole machine (see :mod:`repro.checkpoint`)."""
        from repro.checkpoint import capture
        return capture(self)

    def restore(self, checkpoint):
        """Rewind this machine to *checkpoint*; reusable, returns self."""
        from repro.checkpoint import restore
        return restore(self, checkpoint)

    def enable_ddt_recovery(self):
        """Attach the recovery manager (requires an attached DDT module)."""
        ddt = self.rse.modules[MODULE_DDT]
        self.kernel.recovery = RecoveryManager(ddt)
        return self.kernel.recovery

    def run_program(self, image, max_cycles=50_000_000):
        """Load *image* as a process and run it to completion."""
        self.kernel.load_process(image)
        return self.kernel.run(max_cycles=max_cycles)


def build_machine(with_rse=False, modules=(), pipeline_config=None,
                  kernel_config=None, cache_configs=None, bus_timing=None):
    """Construct a :class:`Machine`.

    Args:
        with_rse: attach the RSE framework.  This alone switches the
            memory bus from the baseline 18/2 timing to the 19/3 timing
            (the arbiter the framework inserts on the memory path) —
            the paper's "framework overhead" configuration.
        modules: iterable of module names to attach and leave *disabled*
            (the application enables them via CHECK or the kernel API):
            any of ``"icm"``, ``"mlr"``, ``"ddt"``, ``"ahbm"``.
        bus_timing: explicit override of the bus timing (ablations).
    """
    memory = MainMemory()
    if bus_timing is None:
        bus_timing = FRAMEWORK_TIMING if with_rse else BASELINE_TIMING
    hierarchy = MemoryHierarchy(bus_timing,
                                cache_configs or default_cache_configs())
    rse = None
    if with_rse:
        config = pipeline_config or PipelineConfig()
        rse = RSE(memory, hierarchy, rob_entries=config.rob_entries)
        factory = {"icm": ICM, "mlr": MLR, "ddt": DDT, "ahbm": AHBM,
                   "cfc": CFC}
        for name in modules:
            rse.attach(factory[name]())
    elif modules:
        raise ValueError("modules require with_rse=True")
    pipeline = Pipeline(memory, hierarchy, config=pipeline_config, rse=rse)
    kernel = Kernel(pipeline, memory, rse=rse,
                    config=kernel_config or KernelConfig())
    return Machine(memory, hierarchy, pipeline, rse, kernel)
