"""The functional interpreter."""

import enum

from repro.isa import predecode, semantics, traces
from repro.isa.encoding import DecodeError, decode
from repro.isa.instructions import InstrClass
from repro.isa.registers import NUM_REGS
from repro.memory.mainmem import PAGE_SHIFT, MemoryFault


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
    faults) are always honoured.  ``predecode_enabled=False`` selects the
    original fetch/decode/dispatch interpreter — the reference the
    differential tests compare the cache against.

    Hooks:

    * ``syscall_handler(sim) -> bool`` — invoked on ``syscall``; return
      True to continue, False to stop (e.g. thread blocked/exited).  The
      handler reads/writes ``sim.regs`` and ``sim.memory`` directly.
    * ``chk_handler(sim, instr)`` — invoked on CHECK instructions, so a
      functional RSE model can observe them; default is a no-op (the
      pipeline treats CHECKs as NOPs everywhere except commit).
    * ``trace_mem(sim, instr, addr, is_store)`` — observation hook used
      by functional DDT experiments.
    * ``fetch_check(pc) -> error | None`` — instruction-fetch permission
      check, consulted whenever a pc is (re)decoded: every step on the
      reference interpreter, at predecode-cache refill otherwise, and
      before the trace JIT builds or rebuilds a trace at its head.  It
      must be page-granular (every pc of a page gets the same answer):
      a trace never leaves its head's page, so the head's check covers
      every instruction it runs.  Refill-time checking has ITLB-fill
      semantics: a pc already cached (or traced) for the current page
      version is not re-checked until a store to its page bumps the
      write version (which also forces a re-decode).  A non-None
      return is an architectural fault with that cause.
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
        # Optional list the JIT run loop appends each retired pc to;
        # mirrors the retired-pc stream a step() loop would observe (the
        # difftest oracle compares engines on exactly this stream).
        self.retire_log = None
        # Instrumentation points (repro.assertions): predeclared as
        # instance attributes so an attach/detach cycle only ever
        # *assigns* these keys.  Adding or deleting instance-dict keys
        # would convert CPython's key-sharing instance dict into a
        # combined one and permanently slow every ``self.x`` load in the
        # hot loop (~10% on kMeans; gated by
        # benchmarks/test_perf_assertions.py).
        self.step = self.step          # the bound bare methods; adapters
        self.run = self.run            # swap the values, detach restores

    @property
    def trace_cache(self):
        """The shared :class:`~repro.isa.traces.TraceCache`, or None."""
        return self._traces

    # ------------------------------------------------------------------ run

    def step(self):
        """Execute one instruction; returns a :class:`StepResult`."""
        if self.halted:
            return StepResult.HALTED
        pc = self.pc
        cache = self._cache
        if cache is None:
            if self.fetch_check is not None:
                err = self.fetch_check(pc)
                if err:
                    return self._fault(pc, err)
            try:
                word = self.memory.load_word(pc)
                instr = decode(word)
            except (MemoryFault, DecodeError) as exc:
                return self._fault(pc, str(exc))
            return self._execute(instr, pc)
        try:
            entry = cache.entries.get(pc)
            if (entry is None or
                    self.memory.write_versions.get(pc >> PAGE_SHIFT, 0)
                    != entry[0]):
                if self.fetch_check is not None:
                    err = self.fetch_check(pc)
                    if err:
                        return self._fault(pc, err)
                entry = cache.refill(pc)
        except (MemoryFault, DecodeError) as exc:
            return self._fault(pc, str(exc))
        try:
            nxt = entry[1](self)
        except (MemoryFault, semantics.ArithmeticFault) as exc:
            return self._fault(pc, str(exc))
        if nxt >= 0:
            self.pc = nxt
            self.instret += 1
            return StepResult.OK
        if nxt == predecode.HALT:
            self.instret += 1
            return StepResult.HALTED
        if nxt == predecode.SYSCALL:
            self.pc = (pc + 4) & 0xFFFFFFFF
            self.instret += 1
            if self.syscall_handler is None:
                raise SimFault(pc, "syscall with no handler")
            try:
                keep_running = self.syscall_handler(self)
            except (MemoryFault, semantics.ArithmeticFault) as exc:
                return self._fault(pc, str(exc))
            return StepResult.OK if keep_running else StepResult.SYSCALL
        # CHECK: hook runs with self.pc still at the chk instruction.
        if self.chk_handler is not None:
            try:
                self.chk_handler(self, entry[3])
            except (MemoryFault, semantics.ArithmeticFault) as exc:
                return self._fault(pc, str(exc))
        self.pc = (pc + 4) & 0xFFFFFFFF
        self.instret += 1
        return StepResult.OK

    def run(self, max_steps=10_000_000):
        """Run until halt, fault, or *max_steps*; returns the stop reason."""
        if self._cache is None:
            for __ in range(max_steps):
                result = self.step()
                if result is not StepResult.OK:
                    return result
            return StepResult.OK
        if self.halted:
            return StepResult.HALTED
        if self._traces is not None:
            if self.trace_mem is None:
                return self._run_traced(max_steps)
            # Per-instruction telemetry is attached: traces would skip
            # its events, so this run executes closure-at-a-time.
            self._traces.deopt_runs += 1
        return self._run_predecode(max_steps)

    def _run_predecode(self, max_steps):
        """Closure-at-a-time hot loop (predecode cache, no traces)."""
        # Hot path.  The per-step work is one dict probe, one page-version
        # compare, one closure call and an int compare; ``pc`` and the
        # retired-count delta ``n`` live in locals and are written back to
        # the simulator only at stop points (halt/syscall/chk/fault/exit),
        # none of which can observe them stale.
        entries_get = self._cache.entries.get
        refill = self._cache.refill
        versions_get = self.memory.write_versions.get
        fetch_check = self.fetch_check
        arith_fault = semantics.ArithmeticFault
        halt_marker = predecode.HALT
        syscall_marker = predecode.SYSCALL
        pc = self.pc
        n = 0
        for __ in range(max_steps):
            entry = entries_get(pc)
            if entry is None or versions_get(pc >> PAGE_SHIFT, 0) != entry[0]:
                if fetch_check is not None:
                    err = fetch_check(pc)
                    if err:
                        self.pc = pc
                        self.instret += n
                        return self._fault(pc, err)
                try:
                    entry = refill(pc)
                except (MemoryFault, DecodeError) as exc:
                    self.pc = pc
                    self.instret += n
                    return self._fault(pc, str(exc))
            try:
                nxt = entry[1](self)
            except (MemoryFault, arith_fault) as exc:
                self.pc = pc
                self.instret += n
                return self._fault(pc, str(exc))
            if nxt >= 0:
                pc = nxt
                n += 1
                continue
            if nxt == halt_marker:
                self.pc = pc
                self.instret += n + 1
                return StepResult.HALTED
            if nxt == syscall_marker:
                syscall_pc = pc
                self.pc = pc = (pc + 4) & 0xFFFFFFFF
                self.instret += n + 1
                n = 0
                handler = self.syscall_handler
                if handler is None:
                    raise SimFault(syscall_pc, "syscall with no handler")
                try:
                    keep_running = handler(self)
                except (MemoryFault, arith_fault) as exc:
                    return self._fault(syscall_pc, str(exc))
                if not keep_running:
                    return StepResult.SYSCALL
                pc = self.pc          # the handler may redirect control
                if self.halted:
                    return StepResult.HALTED
                continue
            # CHECK: hook sees self.pc at the chk instruction itself.
            self.pc = pc
            self.instret += n
            n = 0
            if self.chk_handler is not None:
                try:
                    self.chk_handler(self, entry[3])
                except (MemoryFault, arith_fault) as exc:
                    return self._fault(pc, str(exc))
                if self.halted:
                    self.pc = (pc + 4) & 0xFFFFFFFF
                    self.instret += 1
                    return StepResult.HALTED
            pc = (pc + 4) & 0xFFFFFFFF
            self.pc = pc
            self.instret += 1
        self.pc = pc
        self.instret += n
        return StepResult.OK

    def _run_traced(self, max_steps):
        """Trace-dispatching hot loop (``jit_enabled``).

        Architecturally identical to :meth:`_run_predecode`: traces are
        only entered when their whole minimum retirement fits the
        remaining step budget, fault/halt/syscall/CHECK stop points sync
        pc/instret exactly as the closure loop does, and any condition a
        trace cannot honour (stale page version, serializing
        instruction, a head ``fetch_check`` refuses, mid-run attach of
        ``trace_mem``) falls back to the per-instruction closures.
        ``probe`` limits trace-cache lookups and heat accounting to
        control-transfer targets, so traces are anchored at block heads
        instead of rotating through every pc of a straight-line run.
        """
        trace_cache = self._traces
        tentries_get = trace_cache.entries.get
        heat = trace_cache.heat
        heat_get = heat.get
        heat_threshold = traces.HEAT_THRESHOLD
        trace_fault = traces.TraceFault
        entries_get = self._cache.entries.get
        refill = self._cache.refill
        versions_get = self.memory.write_versions.get
        fetch_check = self.fetch_check
        arith_fault = semantics.ArithmeticFault
        halt_marker = predecode.HALT
        syscall_marker = predecode.SYSCALL
        regs = self.regs
        rlog = self.retire_log
        pc = self.pc
        budget = max_steps
        n = 0
        probe = True
        while budget > 0:
            if probe:
                # A head the fetch check refuses gets no trace; the
                # fallback below faults at its refill, as predecode does.
                tentry = tentries_get(pc)
                if tentry is None:
                    hits = heat_get(pc, 0) + 1
                    if hits >= heat_threshold:
                        heat.pop(pc, None)
                        if fetch_check is None or not fetch_check(pc):
                            tentry = trace_cache.build(pc)
                    else:
                        heat[pc] = hits
                elif versions_get(tentry[4], 0) != tentry[0]:
                    tentry = (trace_cache.rebuild(pc)
                              if fetch_check is None or not fetch_check(pc)
                              else None)
                if tentry is not None:
                    fn = tentry[1]
                    if fn is not None and tentry[2] <= budget:
                        if rlog is not None:
                            # The logging variant appends each retired
                            # pc itself (compiled lazily per trace).
                            fn = tentry[5]
                            if fn is None:
                                tentry = trace_cache.ensure_logging(pc)
                                fn = tentry[5]
                        if fn is not None:
                            try:
                                if rlog is None:
                                    new_pc, retired = fn(regs, budget)
                                else:
                                    new_pc, retired = fn(regs, budget, rlog)
                            except trace_fault as tf:
                                self.pc = tf.pc
                                self.instret += n + tf.retired
                                return self._fault(tf.pc, str(tf.exc))
                            budget -= retired
                            n += retired
                            pc = new_pc
                            continue
            # Per-instruction fallback: exactly the _run_predecode body,
            # plus retire logging and re-probe at control transfers.
            entry = entries_get(pc)
            if entry is None or versions_get(pc >> PAGE_SHIFT, 0) != entry[0]:
                if fetch_check is not None:
                    err = fetch_check(pc)
                    if err:
                        self.pc = pc
                        self.instret += n
                        return self._fault(pc, err)
                try:
                    entry = refill(pc)
                except (MemoryFault, DecodeError) as exc:
                    self.pc = pc
                    self.instret += n
                    return self._fault(pc, str(exc))
            try:
                nxt = entry[1](self)
            except (MemoryFault, arith_fault) as exc:
                self.pc = pc
                self.instret += n
                return self._fault(pc, str(exc))
            if nxt >= 0:
                if rlog is not None:
                    rlog.append(pc)
                n += 1
                budget -= 1
                probe = nxt != ((pc + 4) & 0xFFFFFFFF)
                pc = nxt
                continue
            if nxt == halt_marker:
                if rlog is not None:
                    rlog.append(pc)
                self.pc = pc
                self.instret += n + 1
                return StepResult.HALTED
            if nxt == syscall_marker:
                syscall_pc = pc
                if rlog is not None:
                    rlog.append(pc)
                self.pc = pc = (pc + 4) & 0xFFFFFFFF
                self.instret += n + 1
                n = 0
                budget -= 1
                handler = self.syscall_handler
                if handler is None:
                    raise SimFault(syscall_pc, "syscall with no handler")
                try:
                    keep_running = handler(self)
                except (MemoryFault, arith_fault) as exc:
                    return self._fault(syscall_pc, str(exc))
                if not keep_running:
                    return StepResult.SYSCALL
                pc = self.pc          # the handler may redirect control
                if self.halted:
                    return StepResult.HALTED
                if self.trace_mem is not None:          # attached mid-run
                    trace_cache.deopt_runs += 1
                    return self._deopt_tail(budget)
                probe = True
                continue
            # CHECK: hook sees self.pc at the chk instruction itself.
            self.pc = pc
            self.instret += n
            n = 0
            if self.chk_handler is not None:
                try:
                    self.chk_handler(self, entry[3])
                except (MemoryFault, arith_fault) as exc:
                    return self._fault(pc, str(exc))
                if self.halted:
                    if rlog is not None:
                        rlog.append(pc)
                    self.pc = (pc + 4) & 0xFFFFFFFF
                    self.instret += 1
                    return StepResult.HALTED
            if rlog is not None:
                rlog.append(pc)
            pc = (pc + 4) & 0xFFFFFFFF
            self.pc = pc
            self.instret += 1
            budget -= 1
            if self.trace_mem is not None:          # attached mid-run
                trace_cache.deopt_runs += 1
                return self._deopt_tail(budget)
            probe = True
        self.pc = pc
        self.instret += n
        return StepResult.OK

    def _deopt_tail(self, remaining):
        """Finish a JIT run per-instruction after a mid-run deopt."""
        if remaining <= 0:
            return StepResult.OK
        if self.retire_log is None:
            return self._run_predecode(remaining)
        rlog = self.retire_log
        for __ in range(remaining):
            pc = self.pc
            result = self.step()
            if result is StepResult.OK:
                rlog.append(pc)
                continue
            if result is StepResult.HALTED:
                rlog.append(pc)
            return result
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
