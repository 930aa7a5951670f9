"""A functional engine behind the pipeline's event interface.

:class:`~repro.kernel.Kernel` drives a core through a handful of
attributes: ``run(max_cycles)`` returning a
:class:`~repro.pipeline.core.PipelineEvent`, ``regs``, ``cycle``,
``advance_cycles``, ``resume``, ``timer_deadline`` and the
``mem_check`` page-permission probe.  :class:`FunctionalCore` gives a
:class:`FuncSim` that interface, so the one kernel loads, protects,
serves syscalls and schedules threads for the interp, predecode and
jit engines exactly as it does for the pipeline.

Time is one cycle per retired instruction plus whatever the kernel
charges through ``advance_cycles``.  Only instruction fetch is checked
against ``mem_check`` (through ``FuncSim.fetch_check``), once per page
per :meth:`FunctionalCore.run`, as the pipeline probes it: the
functional engines have no data-access hook.
"""

from repro.funcsim.interp import FuncSim, StepResult
from repro.pipeline.core import EventKind, PipelineEvent

MASK32 = 0xFFFFFFFF

#: The engines a :class:`FunctionalCore` runs.
FUNCTIONAL_ENGINES = ("interp", "predecode", "jit")


class FunctionalCore:
    """Kernel-facing adapter over a :class:`FuncSim` on *memory*."""

    def __init__(self, memory, engine):
        if engine not in FUNCTIONAL_ENGINES:
            raise ValueError("unknown functional engine %r (have: %s)"
                             % (engine, ", ".join(FUNCTIONAL_ENGINES)))
        self.memory = memory
        # Every syscall stops the run and surfaces as a SYSCALL event.
        self.sim = FuncSim(memory, syscall_handler=lambda sim: False,
                           predecode_enabled=engine != "interp",
                           jit_enabled=engine == "jit")
        self.regs = self.sim.regs
        self.mem_check = None
        self.timer_deadline = None
        self._charged = 0

    @property
    def mem_check(self):
        """The kernel's page-permission probe, or None."""
        return self._mem_check

    @mem_check.setter
    def mem_check(self, check):
        # The sim asks it on fetch; the closure holds the probe, not
        # this core, so the sim closes no reference cycle.
        self._mem_check = check
        self.sim.fetch_check = (None if check is None
                                else lambda pc: check(pc, 4, "x"))

    @property
    def cycle(self):
        return self.sim.instret + self._charged

    def advance_cycles(self, count):
        """Charge *count* cycles the kernel spent on the core's behalf."""
        self._charged += count

    def resume(self, pc):
        self.sim.pc = pc & MASK32
        self.sim.halted = False

    def run(self, max_cycles):
        """Run until an event; returns the :class:`PipelineEvent`."""
        sim = self.sim
        timer = self.timer_deadline
        if timer is not None:
            max_cycles = min(max_cycles, timer - self.cycle)
        result = sim.run(max_cycles) if max_cycles > 0 else StepResult.OK
        if result is StepResult.SYSCALL:
            return PipelineEvent(EventKind.SYSCALL, pc=(sim.pc - 4) & MASK32)
        if result is StepResult.HALTED:
            return PipelineEvent(EventKind.HALT, pc=sim.pc)
        if result is StepResult.FAULT:
            pc, cause = sim.fault
            return PipelineEvent(EventKind.FAULT, pc=pc, cause=cause)
        if timer is not None and self.cycle >= timer:
            return PipelineEvent(EventKind.TIMER, pc=sim.pc)
        return PipelineEvent(EventKind.MAX_CYCLES, pc=sim.pc)
