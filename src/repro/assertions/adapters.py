"""Engine adapters: compile the neutral events onto each engine.

The pipeline adapter uses the same attach-time method shadowing as
:mod:`repro.obs.probes`, through the same :class:`ShadowSet` — an
instance attribute wins the lookup over the class method, so a
detached machine runs the bare class methods with literally zero
residual dispatch cost.  The set remembers what each shadow displaced,
so shadows *chain* over an already-instrumented method (e.g. an obs
RSE probe) and detach puts back exactly what was there.  A checkpoint never
captures a shadow: it takes only the fields each component's class
declares in ``STATE``, and neither a shadowed method nor a bare
pipeline's ``rse`` tap is one.

The funcsim adapter deliberately does NOT shadow — see
:class:`FuncSimAdapter` for why the interpreter's instance dict must
keep its key-sharing layout.
"""

from repro.funcsim.interp import StepResult
from repro.isa import semantics
from repro.isa.encoding import DecodeError, decode
from repro.isa.instructions import InstrClass
from repro.memory.mainmem import PAGE_SHIFT, MemoryFault
from repro.obs.probes import ShadowSet
from repro.pipeline.core import S_WAIT
from repro.rse.engine import NullTap

MASK32 = 0xFFFFFFFF


# ---------------------------------------------------------------- funcsim

class FuncSimAdapter:
    """Feed a monitor from a :class:`~repro.funcsim.FuncSim`.

    The ``step`` override peeks the instruction about to execute,
    precomputes an *independent* next-pc from the semantics tables
    (``derived_next``) plus the jump operands, runs the bare step, and
    emits retire/store/jump events only when the instruction actually
    retired.  A step that starts away from where the last one left the
    pc was moved by the platform (the kernel switching threads on a
    :class:`~repro.funcsim.core.FunctionalCore`) and first emits a
    redirect.  ``run`` is overridden with a plain step loop so the hot
    closure-cache path goes through the instrumented ``step``.  Stores
    are observed through the existing ``trace_mem`` hook, which both
    the reference ``_execute`` path and the predecode closures call —
    the adapter chains it, preserving any user hook.

    Unlike the pipeline adapter, this one must NOT install a
    :class:`ShadowSet`: adding (and later deleting) keys on the sim's
    ``__dict__`` converts CPython's key-sharing instance dict into a
    combined one, and every ``self.x`` load in the interpreter hot loop
    then pays for it *forever* — ~10% on kMeans even after detach
    (``benchmarks/test_perf_assertions.py`` gates this at 2%; swapping
    ``sim.__class__`` materialises the dict just the same).  All three
    attachment points — ``step``, ``run``, ``trace_mem`` — are
    predeclared as instance attributes in ``FuncSim.__init__``, so
    attach and detach are plain value assignments that never change
    the dict's key set, leaving a detached sim bit-identical to one
    never instrumented.
    """

    def __init__(self, sim, monitor):
        self.sim = sim
        self.monitor = monitor
        self._saved = None             # (step, run, trace_mem) originals
        self._pending_stores = []
        monitor.clock = lambda: sim.instret

    def attach(self):
        sim = self.sim
        monitor = self.monitor
        pending = self._pending_stores
        retire_handlers = monitor.handlers("retire")
        store_handlers = monitor.handlers("store")
        jump_handlers = monitor.handlers("jump")
        redirect_handlers = monitor.handlers("redirect")
        left_at = [sim.pc]          # the pc the last step left behind

        prev_trace = sim.trace_mem

        def trace_mem(tsim, instr, addr, is_store):
            if is_store:
                pending.append((addr, semantics.access_size(instr),
                                tsim.regs[instr.rt]))
            if prev_trace is not None:
                prev_trace(tsim, instr, addr, is_store)

        orig_step = sim.step

        def step():
            if sim.halted:
                return orig_step()
            pc = sim.pc
            if pc != left_at[0]:
                for handler in redirect_handlers:
                    handler(pc)
            instr = self._peek(pc)
            if instr is None:          # fetch/decode fault: nothing retires
                return orig_step()
            iclass = instr.iclass
            serializing = instr.serializing
            derived = None
            jump_info = None
            regs = sim.regs
            if iclass is InstrClass.BRANCH:
                derived = semantics.control_target(
                    instr, pc, regs[instr.rs], regs[instr.rt])
            elif iclass is InstrClass.JUMP:
                rs_before = regs[instr.rs]
                link = (pc + 4) & MASK32
                rs_for_target = (link if instr.dest and instr.dest == instr.rs
                                 else rs_before)
                derived = semantics.jump_target(instr, pc, rs_for_target)
                jump_info = (instr.dest, instr.rs, link, rs_before,
                             instr.name in ("jr", "jalr"))
            elif not serializing:
                derived = (pc + 4) & MASK32
            del pending[:]
            result = orig_step()
            left_at[0] = sim.pc
            if result is StepResult.FAULT:
                del pending[:]
                return result
            observed = None if serializing else sim.pc
            for handler in retire_handlers:
                handler(pc, observed, derived, serializing, False)
            if pending:
                memory = sim.memory
                for addr, size, value in pending:
                    for handler in store_handlers:
                        handler(pc, addr, size, value, memory)
                del pending[:]
            if jump_info is not None:
                dest, rs, link, rs_before, register_jump = jump_info
                written = regs[dest] if dest else None
                for handler in jump_handlers:
                    handler(pc, dest, rs, link, rs_before, sim.pc,
                            register_jump, written)
            return result

        def run(max_steps=10_000_000):
            if sim.halted:
                return StepResult.HALTED
            for __ in range(max_steps):
                result = sim.step()
                if result is not StepResult.OK:
                    return result
            return StepResult.OK

        # Value assignments only — the keys are predeclared in
        # FuncSim.__init__, so the instance dict keeps its shared layout.
        self._saved = (orig_step, sim.run, prev_trace)
        sim.trace_mem = trace_mem
        sim.step = step
        sim.run = run

    def _peek(self, pc):
        """The instruction about to execute at *pc*, or None on a fault."""
        sim = self.sim
        cache = sim._cache
        try:
            if cache is None:
                return decode(sim.memory.load_word(pc))
            entry = cache.entries.get(pc)
            if (entry is None or
                    sim.memory.write_versions.get(pc >> PAGE_SHIFT, 0)
                    != entry[0]):
                entry = cache.refill(pc)
            return entry[3]
        except (MemoryFault, DecodeError):
            return None

    def detach(self):
        if self._saved is not None:
            sim = self.sim
            sim.step, sim.run, sim.trace_mem = self._saved
            self._saved = None
        self.monitor.finish(self.sim.memory)


def attach_funcsim(sim, properties=None, metrics=None, monitor=None):
    """Attach an assertion monitor to *sim*; returns the adapter."""
    if monitor is None:
        from repro.assertions.monitor import AssertionMonitor
        engine = "predecode" if sim.predecode_enabled else "interp"
        monitor = AssertionMonitor(engine, properties, metrics)
    adapter = FuncSimAdapter(sim, monitor)
    adapter.attach()
    return adapter


# --------------------------------------------------------------- pipeline

class PipelineAdapter:
    """Feed a monitor from the out-of-order core's commit stream.

    Events come from the RSE attachment points (retirement order is the
    architectural story): ``on_commit`` yields retire/store/jump,
    ``on_dispatch``/``ioq_gate`` yield the IOQ lifecycle, and the load
    issue path yields disambiguation decisions.  ``resume``/``reset_at``
    are platform redirects (kernel context switches, fault handling).
    """

    def __init__(self, pipeline, monitor):
        self.pipeline = pipeline
        self.monitor = monitor
        self.shadows = ShadowSet()
        self._owns_tap = False
        monitor.clock = lambda: pipeline.cycle

    def attach(self):
        pipeline = self.pipeline
        monitor = self.monitor
        shadows = self.shadows
        retire_handlers = monitor.handlers("retire")
        store_handlers = monitor.handlers("store")
        jump_handlers = monitor.handlers("jump")
        forward_handlers = monitor.handlers("forward")
        redirect_handlers = monitor.handlers("redirect")
        alloc_handlers = monitor.handlers("ioq_alloc")
        gate_handlers = monitor.handlers("ioq_gate")

        if pipeline.rse is None:
            shadows.shadow(pipeline, "rse", NullTap())
            self._owns_tap = True
        rse = pipeline.rse
        memory = pipeline.memory

        orig_commit = rse.on_commit

        def on_commit(uop, cycle):
            orig_commit(uop, cycle)
            instr = uop.instr
            pc = uop.pc
            if instr.serializing:
                observed = None
            elif uop.injected:
                observed = pc          # the checked instr follows at pc
            elif uop.actual_next is not None:
                observed = uop.actual_next
            else:
                observed = (pc + 4) & MASK32
            for handler in retire_handlers:
                handler(pc, observed, None, instr.serializing, uop.injected)
            if instr.is_store:
                for handler in store_handlers:
                    handler(pc, uop.eff_addr, uop.mem_size, uop.store_value,
                            memory)
            if instr.iclass is InstrClass.JUMP:
                written = uop.value if instr.dest else None
                for handler in jump_handlers:
                    handler(pc, instr.dest, instr.rs, (pc + 4) & MASK32,
                            None, uop.actual_next,
                            instr.name in ("jr", "jalr"), written)

        shadows.shadow(rse, "on_commit", on_commit)

        if forward_handlers:
            orig_load = pipeline._try_issue_load

            def try_issue_load(uop, index, cycle):
                issued = orig_load(uop, index, cycle)
                if issued and uop.fault is None:
                    stores = [(older.eff_addr, older.mem_size)
                              for older in pipeline.rob[:index]
                              if older.instr.is_store
                              and older.state != S_WAIT
                              and older.eff_addr is not None]
                    for handler in forward_handlers:
                        handler(uop.pc, uop.eff_addr, uop.mem_size,
                                uop.forwarded, stores)
                return issued

            shadows.shadow(pipeline, "_try_issue_load", try_issue_load)

        if redirect_handlers:
            orig_resume = pipeline.resume
            orig_reset = pipeline.reset_at

            def resume(pc):
                orig_resume(pc)
                for handler in redirect_handlers:
                    handler(pc & MASK32)

            def reset_at(pc, regs=None):
                orig_reset(pc, regs)
                for handler in redirect_handlers:
                    handler(pc & MASK32)

            shadows.shadow(pipeline, "resume", resume)
            shadows.shadow(pipeline, "reset_at", reset_at)

        ioq = getattr(rse, "ioq", None)
        if ioq is not None and (alloc_handlers or gate_handlers):
            if alloc_handlers:
                # Only a CHECK gets an IOQ entry; the self-checker sees
                # each one as it is allocated, and so does the monitor.
                selfcheck = rse.selfcheck
                orig_observe = selfcheck.observe_alloc

                def observe_alloc(entry):
                    orig_observe(entry)
                    for handler in alloc_handlers:
                        handler(entry)

                shadows.shadow(selfcheck, "observe_alloc", observe_alloc)
            if gate_handlers:
                orig_gate = rse.ioq_gate

                def ioq_gate(uop, cycle):
                    verdict = orig_gate(uop, cycle)
                    entry = ioq.get(uop.seq)
                    for handler in gate_handlers:
                        handler(entry, verdict, rse.safe_mode)
                    return verdict

                shadows.shadow(rse, "ioq_gate", ioq_gate)

    def detach(self):
        self.shadows.remove()
        self._owns_tap = False
        self.monitor.finish(self.pipeline.memory)


def attach_pipeline(pipeline, properties=None, metrics=None, monitor=None):
    """Attach an assertion monitor to *pipeline*; returns the adapter."""
    if monitor is None:
        from repro.assertions.monitor import AssertionMonitor
        monitor = AssertionMonitor("pipeline", properties, metrics)
    adapter = PipelineAdapter(pipeline, monitor)
    adapter.attach()
    return adapter
