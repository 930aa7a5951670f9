"""The functional interpreter."""

import enum
from types import MethodType

from repro.isa import predecode, semantics, traces
from repro.isa.encoding import DecodeError, decode
from repro.isa.instructions import InstrClass
from repro.isa.registers import NUM_REGS
from repro.memory.mainmem import PAGE_SHIFT, MemoryFault
from repro.weak import weak_method


class StepResult(enum.Enum):
    """Outcome of executing one instruction."""

    OK = "ok"
    HALTED = "halted"
    SYSCALL = "syscall"
    FAULT = "fault"


class SimFault(Exception):
    """An architectural fault (bad fetch, illegal instruction, memory or
    arithmetic error) raised when no fault handler is installed."""

    def __init__(self, pc, cause):
        super().__init__("fault at pc=0x%08x: %s" % (pc, cause))
        self.pc = pc
        self.cause = cause


class FuncSim:
    """In-order functional simulator over a shared :class:`MainMemory`.

    Execution runs through the predecode cache
    (:mod:`repro.isa.predecode`): each pc decodes and compiles once into
    a bound closure, revalidated against the memory's per-page write
    versions so stores into cached text (self-modifying code, injected
    faults) are always honoured.  One loop, :meth:`_dispatch`, calls
    the closures: it serves :meth:`run` and, one instruction at a
    time, :meth:`step`, and with ``jit_enabled`` it also enters the
    traces of :mod:`repro.isa.traces` (never from :meth:`step`).
    ``predecode_enabled=False`` selects the original
    fetch/decode/dispatch interpreter, :meth:`_execute`, the reference
    the differential tests compare the closures against.

    Hooks:

    * ``syscall_handler(sim) -> bool`` — invoked on ``syscall``; return
      True to continue, False to stop (e.g. thread blocked/exited).  The
      handler reads/writes ``sim.regs`` and ``sim.memory`` directly.
    * ``chk_handler(sim, instr)`` — invoked on CHECK instructions, so a
      functional RSE model can observe them; default is a no-op (the
      pipeline treats CHECKs as NOPs everywhere except commit).
    * ``trace_mem(sim, instr, addr, is_store)`` — observation hook used
      by functional DDT experiments.  While it is set no trace runs,
      and attaching it from a handler mid-run turns traces off for the
      rest of that run.
    * ``fetch_check(pc) -> error | None`` — instruction-fetch permission
      check, under the contract of the pipeline's ``mem_check``: it
      must be page-granular (every pc of a page gets the same answer)
      and may change its answers only between :meth:`run` or
      :meth:`step` calls.  Each call asks it once per page it fetches
      from, trace heads included, and a yes holds for the rest of the
      call; a trace never leaves its head's page, so the head's answer
      covers every instruction it runs.  A non-None return is an
      architectural fault with that cause.
    """

    def __init__(self, memory, entry=0, sp=0, gp=0, syscall_handler=None,
                 chk_handler=None, trace_mem=None, predecode_enabled=True,
                 jit_enabled=False):
        self.memory = memory
        self.regs = [0] * NUM_REGS
        self.regs[29] = sp
        self.regs[28] = gp
        self.pc = entry
        self.halted = False
        self.instret = 0          # retired instruction count
        self.syscall_handler = syscall_handler
        self.chk_handler = chk_handler
        self.trace_mem = trace_mem
        self.fetch_check = None
        self.fault = None         # (pc, cause) of the last fault, if any
        self.predecode_enabled = predecode_enabled
        self._cache = predecode.cache_for(memory) if predecode_enabled \
            else None
        # Superblock trace JIT (repro.isa.traces): only meaningful on top
        # of the predecode cache — traces are discovered through it and
        # fall back to its closures on any deopt condition.
        self.jit_enabled = bool(jit_enabled) and predecode_enabled
        self._traces = traces.traces_for(memory) if self.jit_enabled \
            else None
        # Optional list the dispatch loop appends each retired pc to;
        # mirrors the retired-pc stream a step() loop would observe (the
        # difftest oracle compares engines on exactly this stream).
        self.retire_log = None
        # Instrumentation points (repro.assertions): predeclared as
        # instance attributes so an attach/detach cycle only ever
        # *assigns* these keys.  Adding or deleting instance-dict keys
        # would convert CPython's key-sharing instance dict into a
        # combined one and permanently slow every ``self.x`` load in the
        # hot loop (~10% on kMeans; gated by
        # benchmarks/test_perf_assertions.py).  They hold the bare
        # methods bound weakly, since a bound method kept on its own
        # object closes a reference cycle; adapters swap the values,
        # detach restores.
        self.step = weak_method(self.step)
        self.run = weak_method(self.run)

    @property
    def trace_cache(self):
        """The shared :class:`~repro.isa.traces.TraceCache`, or None."""
        return self._traces

    # ------------------------------------------------------------------ run

    def step(self):
        """Execute one instruction; returns a :class:`StepResult`."""
        if self.halted:
            return StepResult.HALTED
        if self._cache is not None:
            return self._dispatch(1, False)
        pc = self.pc
        if self.fetch_check is not None:
            err = self.fetch_check(pc)
            if err:
                return self._fault(pc, err)
        try:
            instr = decode(self.memory.load_word(pc))
        except (MemoryFault, DecodeError) as exc:
            return self._fault(pc, str(exc))
        return self._execute(instr, pc)

    def run(self, max_steps=10_000_000):
        """Run until halt, fault, or *max_steps*; returns the stop reason.

        Without the predecode cache every instruction is one ``step``
        call, to a shadow of :meth:`step` installed before the call
        when there is one.
        """
        if self._cache is None:
            step = self.step
            if getattr(step, "__func__", None) is FuncSim.step:
                # Not shadowed: skip the weak closure __init__ keeps.
                step = MethodType(FuncSim.step, self)
            for __ in range(max_steps):
                result = step()
                if result is not StepResult.OK:
                    return result
            return StepResult.OK
        if self.halted:
            return StepResult.HALTED
        return self._dispatch(max_steps, self._traces is not None)

    def _dispatch(self, max_steps, traced):
        """The closure-dispatch loop: run at most *max_steps* instructions.

        The per-instruction work is one page compare, one dict probe,
        one page-version compare, one closure call and an int compare.
        ``pc`` and the remaining ``budget`` live in locals; ``pc`` and
        ``instret`` are written back to the simulator only at stop
        points (halt, syscall, CHECK, fault, budget spent), none of
        which can observe them stale.  ``fetch_check`` is asked at the
        first fetch from each page (the class docstring's contract).

        With *traced*, control-transfer targets are looked up in the
        trace cache (heat accounting and trace builds happen there
        too, so traces anchor at block heads), and a trace is entered
        only when its whole minimum retirement fits the remaining
        budget.  ``retire_log``, when set, gets every retired pc, from
        traces through their logging variants.  A ``trace_mem`` set at
        entry, or attached by a handler, keeps traces off.
        """
        trace_cache = self._traces
        if traced and self.trace_mem is not None:
            # Per-instruction telemetry is attached: traces would skip
            # its events, so this run executes closure-at-a-time.
            trace_cache.deopt_runs += 1
            traced = False
        if traced:
            tentries_get = trace_cache.entries.get
            heat = trace_cache.heat
            heat_get = heat.get
            regs = self.regs
        entries_get = self._cache.entries.get
        refill = self._cache.refill
        versions_get = self.memory.write_versions.get
        fetch_check = self.fetch_check
        fetchable = set()          # pages fetch_check let this call fetch
        checked_page = -1          # the page of the last fetch
        rlog = self.retire_log
        pc = self.pc
        budget = synced = max_steps     # synced: budget at the last sync
        probe = traced
        while budget > 0:
            page = pc >> PAGE_SHIFT
            if page != checked_page:
                if fetch_check is not None and page not in fetchable:
                    err = fetch_check(pc)
                    if err:
                        self.pc = pc
                        self.instret += synced - budget
                        return self._fault(pc, err)
                    fetchable.add(page)
                checked_page = page
            if probe:
                tentry = tentries_get(pc)
                if tentry is None:
                    hits = heat_get(pc, 0) + 1
                    if hits >= traces.HEAT_THRESHOLD:
                        heat.pop(pc, None)
                        tentry = trace_cache.build(pc)
                    else:
                        heat[pc] = hits
                elif versions_get(tentry[4], 0) != tentry[0]:
                    tentry = trace_cache.rebuild(pc)
                if (tentry is not None and tentry[1] is not None
                        and tentry[2] <= budget):
                    fn = tentry[1]
                    if rlog is not None:
                        # The logging variant appends each retired pc
                        # itself (compiled lazily per trace).
                        fn = tentry[5] or trace_cache.ensure_logging(pc)[5]
                    if fn is not None:
                        try:
                            if rlog is None:
                                new_pc, retired = fn(regs, budget)
                            else:
                                new_pc, retired = fn(regs, budget, rlog)
                        except traces.TraceFault as tf:
                            self.pc = tf.pc
                            self.instret += synced - budget + tf.retired
                            return self._fault(tf.pc, str(tf.exc))
                        budget -= retired
                        pc = new_pc
                        continue
            entry = entries_get(pc)
            if entry is None or versions_get(page, 0) != entry[0]:
                try:
                    entry = refill(pc)
                except (MemoryFault, DecodeError) as exc:
                    self.pc = pc
                    self.instret += synced - budget
                    return self._fault(pc, str(exc))
            try:
                nxt = entry[1](self)
            except (MemoryFault, semantics.ArithmeticFault) as exc:
                self.pc = pc
                self.instret += synced - budget
                return self._fault(pc, str(exc))
            if nxt >= 0:
                if rlog is not None:
                    rlog.append(pc)
                budget -= 1
                if traced:
                    probe = nxt != ((pc + 4) & 0xFFFFFFFF)
                pc = nxt
                continue
            if nxt == predecode.HALT:
                if rlog is not None:
                    rlog.append(pc)
                self.pc = pc
                self.instret += synced - budget + 1
                return StepResult.HALTED
            if nxt == predecode.SYSCALL:
                # The syscall retires before its handler runs.
                if rlog is not None:
                    rlog.append(pc)
                budget -= 1
                self.pc = (pc + 4) & 0xFFFFFFFF
                self.instret += synced - budget
                synced = budget
                handler = self.syscall_handler
                if handler is None:
                    raise SimFault(pc, "syscall with no handler")
                try:
                    keep_running = handler(self)
                except (MemoryFault, semantics.ArithmeticFault) as exc:
                    return self._fault(pc, str(exc))
                if not keep_running:
                    return StepResult.SYSCALL
                if self.halted:
                    return StepResult.HALTED
                pc = self.pc          # the handler may redirect control
            else:
                # CHECK: the hook sees self.pc at the chk instruction,
                # which retires after it.
                self.pc = pc
                self.instret += synced - budget
                if self.chk_handler is not None:
                    try:
                        self.chk_handler(self, entry[3])
                    except (MemoryFault, semantics.ArithmeticFault) as exc:
                        return self._fault(pc, str(exc))
                if rlog is not None:
                    rlog.append(pc)
                budget -= 1
                synced = budget
                pc = self.pc = (pc + 4) & 0xFFFFFFFF
                self.instret += 1
                if self.halted:
                    return StepResult.HALTED
            if traced and self.trace_mem is not None:   # attached mid-run
                trace_cache.deopt_runs += 1
                traced = False
            probe = traced
        self.pc = pc
        self.instret += synced - budget
        return StepResult.OK

    # -------------------------------------------------------------- execute

    def _execute(self, instr, pc):
        """Reference (non-predecoded) execution of one instruction.

        This is the semantics oracle the compiled closures are tested
        against; it must stay behaviourally identical to them.
        """
        regs = self.regs
        iclass = instr.iclass
        next_pc = (pc + 4) & 0xFFFFFFFF
        try:
            if iclass is InstrClass.ALU or iclass is InstrClass.MDU:
                value = semantics.alu_result(instr, regs[instr.rs],
                                             regs[instr.rt])
                if instr.dest:
                    regs[instr.dest] = value
            elif iclass is InstrClass.LOAD:
                addr = semantics.effective_address(instr, regs[instr.rs])
                if self.trace_mem is not None:
                    self.trace_mem(self, instr, addr, False)
                value = semantics.load_from(self.memory, instr, addr)
                if instr.dest:
                    regs[instr.dest] = value
            elif iclass is InstrClass.STORE:
                addr = semantics.effective_address(instr, regs[instr.rs])
                if self.trace_mem is not None:
                    self.trace_mem(self, instr, addr, True)
                semantics.store_to(self.memory, instr, addr, regs[instr.rt])
            elif iclass is InstrClass.BRANCH:
                next_pc = semantics.control_target(instr, pc, regs[instr.rs],
                                                   regs[instr.rt])
            elif iclass is InstrClass.JUMP:
                if instr.dest:          # jal / jalr link
                    regs[instr.dest] = (pc + 4) & 0xFFFFFFFF
                next_pc = semantics.jump_target(instr, pc, regs[instr.rs])
            elif iclass is InstrClass.SYSCALL:
                self.pc = next_pc
                self.instret += 1
                if self.syscall_handler is None:
                    raise SimFault(pc, "syscall with no handler")
                keep_running = self.syscall_handler(self)
                return StepResult.OK if keep_running else StepResult.SYSCALL
            elif iclass is InstrClass.HALT:
                self.halted = True
                self.instret += 1
                return StepResult.HALTED
            elif iclass is InstrClass.CHECK:
                if self.chk_handler is not None:
                    self.chk_handler(self, instr)
            elif iclass is InstrClass.NOP:
                pass
            else:          # pragma: no cover - all classes handled above
                raise SimFault(pc, "unhandled class %s" % iclass)
        except (MemoryFault, semantics.ArithmeticFault) as exc:
            return self._fault(pc, str(exc))
        regs[0] = 0
        self.pc = next_pc
        self.instret += 1
        return StepResult.OK

    def _fault(self, pc, cause):
        self.fault = (pc, cause)
        self.halted = True
        return StepResult.FAULT

    # -------------------------------------------------------------- helpers

    def reg(self, index):
        return self.regs[index]

    def set_reg(self, index, value):
        if index:
            self.regs[index] = value & 0xFFFFFFFF
