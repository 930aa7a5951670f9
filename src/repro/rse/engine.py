"""The RSE framework engine: input interface, IOQ, MAU, module routing.

The engine is the object the pipeline talks to (Figure 1).  It owns the
five input queues, the Instruction Output Queue, the Memory Access Unit
and the registered hardware modules, and it implements:

* IOQ allocation at dispatch and the Table 1 commit gate;
* the module enable/disable unit (disabled modules' IOQ paths are
  desensitised to constant '10');
* CHECK routing — including deferring payload-carrying CHECKs until
  ``Regfile_Data`` has delivered their a0/a1 values;
* squash handling (queues flushed, no speculative module state);
* safe-mode decoupling driven by the self-checker.
"""

from collections import deque

from repro.rse.check import OP_DISABLE, OP_ENABLE, op_reads_payload
from repro.rse.ioq import IOQ
from repro.rse.mau import MemoryAccessUnit
from repro.rse.queues import InputInterface
from repro.rse.selfcheck import SelfChecker


class RSE:
    """The Reliability and Security Engine."""

    def __init__(self, memory, hierarchy, rob_entries=16):
        self.memory = memory
        self.hierarchy = hierarchy
        self.queues = InputInterface(rob_entries)
        self.ioq = IOQ()
        self.mau = MemoryAccessUnit(memory, hierarchy)
        self.selfcheck = SelfChecker(self)
        self.modules = {}             # module number -> RSEModule
        self.safe_mode = False
        self.safe_mode_reason = None
        self.current_tid = 0
        self.cycle = 0
        self.checks_seen = 0
        self.kernel = None            # set by the kernel for exception paths
        # Blocking CHECKs are delivered to each module strictly in program
        # order (the hardware module scans Fetch_Out in order); a CHECK
        # whose a0/a1 payload has not yet issued holds younger same-module
        # CHECKs behind it.
        self._blk_queues = {}             # module id -> deque of (uop, entry)
        # Non-blocking (asynchronous) CHECKs mutate module state only at
        # commit — "the module ... on receiving the commit signal from the
        # pipeline, logs the permanent state" (Section 3.2).  Squashed
        # ones are dropped without ever reaching the module.
        self._commit_deferred = {}        # seq -> (module, uop, entry)

    # -------------------------------------------------------------- modules

    def attach(self, module):
        """Plug *module* into the framework (initially disabled)."""
        if module.MODULE_ID in self.modules:
            raise ValueError("module id %d already attached"
                             % module.MODULE_ID)
        self.modules[module.MODULE_ID] = module
        module.attached(self)
        return module

    def module(self, module_id):
        return self.modules[module_id]

    def enable_module(self, module_id):
        """Direct (kernel-side) enable, equivalent to an OP_ENABLE CHECK."""
        module = self.modules[module_id]
        module.enabled = True
        module.on_enable()

    def disable_module(self, module_id):
        module = self.modules[module_id]
        module.enabled = False
        module.on_disable()

    def _enabled_modules(self):
        return [m for m in self.modules.values() if m.enabled]

    # ------------------------------------------------- pipeline attachment

    def on_dispatch(self, uop, cycle):
        """Fetch_Out: instruction enters the window; allocate its IOQ entry."""
        entry = self.ioq.allocate(uop, cycle)
        self.queues.fetch_out.push(cycle, (uop.seq, uop))
        self.selfcheck.observe_alloc(entry)

    def on_operands(self, uop, cycle, values):
        """Regfile_Data: operand values read at issue."""
        self.queues.regfile_data.push(cycle, (uop.seq, values))
        entry = self.ioq.get(uop.seq)
        if entry is not None:
            entry.payload = values

    def on_execute(self, uop, cycle):
        """Execute_Out: result / effective address available."""
        self.queues.execute_out.push(cycle, (uop.seq, uop))

    def on_mem_load(self, uop, cycle, value):
        """Memory_Out: load data arrived."""
        self.queues.memory_out.push(cycle, (uop.seq, uop, value))

    def on_commit(self, uop, cycle):
        """Commit_Out: *uop* retired.

        The running thread id is stamped at commit time: delivery happens
        a latch-cycle later, possibly after a context switch, and modules
        reading ``current_tid`` must see the committing thread.
        """
        self.queues.commit_out.push(cycle, ("commit", uop, self.current_tid))
        self.ioq.free(uop.seq)

    def on_squash(self, uops, cycle):
        """Commit_Out: the pipeline squashed *uops* (flush/mispredict)."""
        seqs = {uop.seq for uop in uops}
        for seq in seqs:
            self.ioq.free(seq)
        self.queues.discard_squashed(seqs)
        self.queues.commit_out.push(cycle, ("squash", seqs))

    def pre_commit_store(self, uop, cycle):
        """Synchronous pre-retire hook for stores; returns stall cycles."""
        if self.safe_mode:
            return 0
        stall = 0
        for module in self._enabled_modules():
            stall += module.pre_commit_store(uop, cycle)
        return stall

    def check_blocks_loads(self, instr):
        """True when a blocking CHECK for this module is a load barrier.

        Modules that write memory through the MAU (the MLR's GOT copy and
        PLT rewrite, its randomized-base results) must not be overtaken by
        younger loads, which would read the pre-update values: synchronous
        mode means "the pipeline can commit only when the check ...
        completes", and loads reading module output must also wait.
        """
        if instr.blk == 0:
            return False
        module = self.modules.get(instr.module)
        return bool(module is not None and module.enabled
                    and getattr(module, "WRITES_MEMORY", False))

    def ioq_gate(self, uop, cycle):
        """Commit gate for CHECK instructions (Table 1 semantics).

        Returns ``"wait"``, ``"ok"`` or ``"error"``.
        """
        if self.safe_mode:
            return "ok"          # decoupled: constant checkValid=1, check=0
        entry = self.ioq.get(uop.seq)
        if entry is None:
            return "ok"
        if entry.effective_check_valid == 0:
            return "wait"
        return "error" if entry.effective_check else "ok"

    # ------------------------------------------------------------------ step

    def step(self, cycle):
        """Advance the framework one machine cycle.

        Returns True when the step changed framework state: a latched
        input reached the framework, a blocked CHECK was delivered, or
        timed MAU, module or self-check work fell due.  A cycle with no
        queue head due builds no lists.
        """
        self.cycle = cycle
        due = self.queues.next_due()
        worked = due is not None and due <= cycle
        if worked:
            self._deliver(cycle)
        if self._blk_queues and self._drain_blk_queues(cycle):
            worked = True
        for module in self.modules.values():
            if module.step(cycle):
                worked = True
        if self.mau.step(cycle):
            worked = True
        if self.selfcheck.step(cycle):
            worked = True
        return worked

    def _deliver(self, cycle):
        """Route every input-queue item visible at *cycle* to the modules."""
        enabled = self._enabled_modules()

        for seq, uop in self.queues.fetch_out.pop_ready(cycle):
            if uop.instr.is_check:
                self._handle_check(uop, cycle)
            else:
                for module in enabled:
                    module.on_fetch(uop, cycle)

        # Regfile_Data entries already annotated the IOQ at on_operands();
        # draining keeps queue occupancy bounded and the stats meaningful.
        self.queues.regfile_data.pop_ready(cycle)

        for seq, uop in self.queues.execute_out.pop_ready(cycle):
            for module in enabled:
                module.on_execute(uop, cycle)

        for seq, uop, value in self.queues.memory_out.pop_ready(cycle):
            for module in enabled:
                module.on_mem_load(uop, cycle, value)

        for item in self.queues.commit_out.pop_ready(cycle):
            if item[0] == "commit":
                __, committed, commit_tid = item
                deferred = self._commit_deferred.pop(committed.seq, None)
                live_tid = self.current_tid
                self.current_tid = commit_tid
                try:
                    if deferred is not None:
                        # Enabled-ness was decided at scan time (the
                        # module acquired the CHECK then); commit makes
                        # the state change permanent.
                        module, uop, entry = deferred
                        module.on_check(uop, entry, cycle)
                    for module in enabled:
                        module.on_commit(committed, cycle)
                finally:
                    self.current_tid = live_tid
            else:
                for kill in item[1]:
                    self._commit_deferred.pop(kill, None)
                for module in enabled:
                    module.on_squash(item[1], cycle)

    def quiescent(self, cycle):
        """Next-event query: the first cycle at which :meth:`step` can act.

        That is *cycle* itself (or earlier) while an input queue holds
        an item, and otherwise the soonest of the MAU transfer's
        completion (or *cycle* while a request waits to start), each
        module's :meth:`RSEModule.next_event` and the self-checker's
        watchdog deadline.  None means only new pipeline input can
        wake the framework.  Every :meth:`step` before the answer is a
        pure cycle stamp, which lets the pipeline skip dead cycles
        with modules attached.  Asked right after ``step(cycle - 1)``:
        blocked CHECKs still queued then wait for a payload or a squash
        that only a pipeline hook delivers, and deferred commits wait
        for their Commit_Out item.
        """
        soonest = self.queues.next_due()
        for source in (self.mau, self.selfcheck, *self.modules.values()):
            due = source.next_event(cycle)
            if due is not None and (soonest is None or due < soonest):
                soonest = due
        return soonest

    def drain(self, cycles=4):
        """Step the framework past the latch delay with the pipeline idle.

        After a ``halt`` the pipeline stops stepping the engine, but
        queued Commit_Out entries (latched one cycle earlier) still hold
        the final instructions; asynchronous modules must see them to
        finish their permanent-state logging.
        """
        for __ in range(cycles):
            self.cycle += 1
            self.step(self.cycle)

    # -------------------------------------------------------- CHECK routing

    def _handle_check(self, uop, cycle):
        instr = uop.instr
        entry = self.ioq.get(uop.seq)
        if entry is None:
            return          # squashed before the latch delivered it
        self.checks_seen += 1
        module = self.modules.get(instr.module)
        if module is None:
            # No such module: nothing can gate the instruction; let it
            # commit (the safe default the enable/disable unit produces).
            entry.complete(False, cycle)
            return
        if instr.op == OP_ENABLE:
            module.enabled = True
            module.on_enable()
            entry.complete(False, cycle)
            return
        if instr.op == OP_DISABLE:
            module.enabled = False
            module.on_disable()
            entry.complete(False, cycle)
            return
        if not module.enabled or self.safe_mode:
            # Desensitised path: constant checkValid=1 / check=0.
            entry.complete(False, cycle)
            return
        module.checks_received += 1
        if instr.blk == 0:
            # Asynchronous mode: checkValid is set "immediately after [the
            # module] scans the Fetch_Out queue"; the module's permanent
            # state changes only when the commit signal arrives.
            entry.complete(False, cycle)
            self._commit_deferred[uop.seq] = (module, uop, entry)
            return
        queue = self._blk_queues.setdefault(instr.module, deque())
        queue.append((uop, entry))
        self._drain_blk_queues(cycle)

    def _drain_blk_queues(self, cycle):
        """Deliver blocking CHECKs in per-module program order.

        Returns True when any CHECK left a queue.
        """
        drained = False
        for module_id, queue in self._blk_queues.items():
            while queue:
                uop, entry = queue[0]
                if self.ioq.get(uop.seq) is not entry:
                    queue.popleft()          # squashed meanwhile
                    drained = True
                    continue
                if op_reads_payload(uop.instr.op) and entry.payload is None:
                    break          # hold younger CHECKs behind this one
                queue.popleft()
                drained = True
                module = self.modules.get(module_id)
                if module is not None and module.enabled:
                    module.on_check(uop, entry, cycle)
                else:
                    entry.complete(False, cycle)
        return drained

    def note_error_transition(self, module, entry, cycle):
        """A module set an IOQ check (error) bit; feed the self-checker."""
        self.selfcheck.record_error(module, cycle)

    # ------------------------------------------------------------ safe mode

    def decouple(self, reason):
        """Switch to safe mode: the framework no longer gates the pipeline."""
        self.safe_mode = True
        self.safe_mode_reason = reason

    def recouple(self):
        """Re-attach the framework (after repair / for testing)."""
        self.safe_mode = False
        self.safe_mode_reason = None

    # -------------------------------------------------------- kernel facing

    def set_current_thread(self, tid):
        """Kernel notifies the framework of the running thread (context switch)."""
        self.current_tid = tid

    def snapshot(self):
        """The RSE's section of the machine snapshot document."""
        return {
            "checks_seen": self.checks_seen,
            "safe_mode": self.safe_mode,
            "ioq": {
                "allocated": self.ioq.allocated_total,
                "occupancy": len(self.ioq),
            },
            "mau": {
                "requests": self.mau.requests_total,
                "bytes_loaded": self.mau.bytes_loaded,
                "bytes_stored": self.mau.bytes_stored,
            },
            "queues": {queue.name: {"pushed": queue.pushed_total,
                                    "dropped": queue.dropped_overflow}
                       for queue in self.queues.all_queues()},
            "selfcheck_trips": len(self.selfcheck.trips),
            "modules": {m.name: m.snapshot()
                        for m in self.modules.values()},
        }

    def reset_stats(self):
        """Zero framework counters (machine-wide warm-up reset).

        Architectural state (enabled bits, safe mode, IOQ contents,
        module tables) is untouched; only the reporting counters go
        back to zero.
        """
        self.checks_seen = 0
        self.ioq.allocated_total = 0
        self.mau.requests_total = 0
        self.mau.bytes_loaded = 0
        self.mau.bytes_stored = 0
        for queue in self.queues.all_queues():
            queue.pushed_total = 0
            queue.dropped_overflow = 0
        self.selfcheck.trips.clear()
        for module in self.modules.values():
            module.reset_stats()

