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

Each input port is wired, on every attach and detach, to the attached
modules whose class overrides the port's
:class:`~repro.rse.module.RSEModule` hook
(:func:`~repro.rse.module.overrides`, the rule
:meth:`RSEModule.next_event` applies to ``step``).  :attr:`RSE.reads`
names the hooks the pipeline calls for every instruction: those a
module reads and those an instance attribute shadows (an obs probe, an
assertion adapter), which it looks up when asked, so a shadow needs no
rewiring.  The pipeline calls the other hooks only for a CHECK, or
never.  So Fetch_Out gets every CHECK, which gets its IOQ entry and is
routed, and, while a module reads ``on_fetch``, each CHECK's successor
(``seq + 1``), the one other instruction a module is shown.
Regfile_Data gets CHECKs, whose payload goes into their IOQ entry;
Commit_Out gets CHECKs, whose entry it frees, and every squash batch.
A port latches an item only for a reader, and Commit_Out also while an
asynchronous CHECK waits for its commit.  The pipeline counts every
item each port had, called or not, and hands the counts over
(:meth:`RSE.count_inputs`), so the snapshot's per-port ``pushed`` does
not depend on who reads.  Liveness follows attached modules, never
enabled ones: a CHECK can enable a module while items latched for it
still wait for delivery.

The IOQ holds exactly the in-flight CHECKs, since every other
instruction's entry would be the constant '10', which nothing reads;
the snapshot still reports the paper's IOQ, one allocation per
dispatch and one entry per instruction in flight
(:meth:`RSE.occupancy`).  :meth:`RSE.step` calls out only to what can
act on its cycle: the blocking-CHECK drain while a CHECK is queued, the
MAU when a transfer is due or a request waits, and the self-checker on
its scan cycles while the framework is coupled.
"""

import weakref
from collections import deque

from repro.rse.check import OP_DISABLE, OP_ENABLE, op_reads_payload
from repro.rse.ioq import IOQ
from repro.rse.mau import MemoryAccessUnit
from repro.rse.module import overrides
from repro.rse.queues import InputInterface
from repro.rse.selfcheck import SelfChecker

#: The pipeline attachment points a reader can ask to see for every
#: instruction.  The others are per CHECK (``ioq_gate``,
#: ``check_blocks_loads``), per squash batch (``on_squash``) or per
#: cycle (``step``, ``quiescent``).
PORT_HOOKS = ("on_dispatch", "on_operands", "on_execute", "on_mem_load",
              "on_commit", "pre_commit_store")


def _read_hooks(tap, base):
    """The :data:`PORT_HOOKS` that *tap* does not take from class *base*:
    a subclass overrides it, or an instance attribute shadows it.  A
    wrapper installed on *base* itself changes nothing."""
    return {hook for hook in PORT_HOOKS
            if getattr(getattr(tap, hook), "__func__", None)
            is not getattr(base, hook)}


class RSE:
    """The Reliability and Security Engine."""

    #: What a checkpoint carries (:mod:`repro.checkpoint`); the queues,
    #: IOQ, MAU, self-checker and modules are checkpointed on their own.
    STATE = ("safe_mode", "safe_mode_reason", "current_tid", "cycle",
             "checks_seen", "_blk_queues", "_blk_queued", "_commit_deferred",
             "check_successor")

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
        # Blocking CHECKs are delivered to each module strictly in program
        # order (the hardware module scans Fetch_Out in order); a CHECK
        # whose a0/a1 payload has not yet issued holds younger same-module
        # CHECKs behind it.
        # Drained deques stay (module order decides MAU request order),
        # so a count of queued CHECKs, not the keys, says when to drain.
        self._blk_queues = {}             # module id -> deque of (uop, entry)
        self._blk_queued = 0              # CHECKs held in those deques
        # Non-blocking (asynchronous) CHECKs mutate module state only at
        # commit — "the module ... on receiving the commit signal from the
        # pipeline, logs the permanent state" (Section 3.2).  Squashed
        # ones are dropped without ever reaching the module.
        self._commit_deferred = {}        # seq -> (module, uop, entry)
        # The seq after the last CHECK dispatched: the one non-CHECK
        # instruction Fetch_Out carries to its readers.
        self.check_successor = None
        self._pipeline = None             # weak reference: see connect()
        self._wire()

    # -------------------------------------------------------------- modules

    def attach(self, module):
        """Plug *module* into the framework (initially disabled).

        From the next latched item on, every port whose hook *module*'s
        class overrides feeds it as well.
        """
        if module.MODULE_ID in self.modules:
            raise ValueError("module id %d already attached"
                             % module.MODULE_ID)
        self.modules[module.MODULE_ID] = module
        module.attached(self)
        self._wire()
        return module

    def detach(self, module_id):
        """Unplug module *module_id* and return it.

        A port that loses its last reader stops latching, and a queue
        that can no longer hold items drops what it latched.
        """
        module = self.modules.pop(module_id)
        self._wire()
        return module

    def _wire(self):
        """Work out which modules read each port, in attach order.

        The tuples and the modules' part of :attr:`reads` derive from
        :attr:`modules`, so they are not :attr:`STATE`.  Fetch_Out and
        Commit_Out can always hold items (CHECK routing, deferred
        commits); the other queues only while read.
        """
        modules = tuple(self.modules.values())

        def readers(hook):
            return tuple(module for module in modules
                         if overrides(module, hook))

        self._fetch_readers = readers("on_fetch")
        self._execute_readers = readers("on_execute")
        self._mem_load_readers = readers("on_mem_load")
        self._commit_readers = readers("on_commit")
        self._squash_readers = readers("on_squash")
        self._store_readers = readers("pre_commit_store")
        self._steppers = readers("step")
        reads = {"successor"} if self._fetch_readers else set()
        for hook, port_readers in (("on_execute", self._execute_readers),
                                   ("on_mem_load", self._mem_load_readers),
                                   ("on_commit", self._commit_readers),
                                   ("pre_commit_store", self._store_readers)):
            if port_readers:
                reads.add(hook)
        self._module_reads = frozenset(reads)
        queues = self.queues
        live = [queues.fetch_out, queues.commit_out]
        if self._execute_readers:
            live.append(queues.execute_out)
        if self._mem_load_readers:
            live.append(queues.memory_out)
        queues.set_live(live)

    @property
    def reads(self):
        """The hooks the pipeline calls for every instruction.

        They are the :data:`PORT_HOOKS` an attached module reads or an
        instance attribute shadows, and ``"successor"`` while a module
        reads ``on_fetch``: the pipeline then also calls ``on_dispatch``
        for :attr:`check_successor`.  Shadows are looked up on each
        access, and the pipeline asks once per run.
        """
        return self._module_reads | _read_hooks(self, RSE)

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

    # ------------------------------------------------- pipeline attachment

    def connect(self, pipeline):
        """Plug in the pipeline that drives this engine.

        The engine keeps it weakly (the machine owns both), to read the
        paper's IOQ occupancy off its ROB.
        """
        self._pipeline = weakref.ref(pipeline)

    def count_inputs(self, dispatched, operands, executed, loaded,
                     committed):
        """Add what the input ports carried, as the pipeline counted it.

        The pipeline counts, on its RSE path and whether or not it
        called the port's hook: instructions dispatched (Fetch_Out, whose
        count is also the paper's IOQ allocations), issued with their operands
        (Regfile_Data), written back (Execute_Out), loads written back
        without a fault (Memory_Out) and commits (Commit_Out, which also
        counts each squash batch itself).  It hands them over at the end
        of every run.
        """
        queues = self.queues
        queues.fetch_out.pushed_total += dispatched
        queues.regfile_data.pushed_total += operands
        queues.execute_out.pushed_total += executed
        queues.memory_out.pushed_total += loaded
        queues.commit_out.pushed_total += committed

    def occupancy(self):
        """Instructions between dispatch and commit or squash.

        That is the paper's IOQ occupancy, one entry per instruction in
        flight: the length of the connected pipeline's ROB.
        """
        return len(self._pipeline().rob)

    def on_dispatch(self, uop, cycle):
        """Fetch_Out: *uop* enters the window.

        A CHECK gets its IOQ entry and is latched for routing; its
        successor is latched while a module reads ``on_fetch``.
        """
        if uop.instr.is_check:
            entry = self.ioq.allocate(uop, cycle)
            self.queues.fetch_out.push(cycle, (uop.seq, uop))
            self.selfcheck.observe_alloc(entry)
            self.check_successor = uop.seq + 1
        elif self._fetch_readers and uop.seq == self.check_successor:
            self.queues.fetch_out.push(cycle, (uop.seq, uop))

    def on_operands(self, uop, cycle, values):
        """Regfile_Data: a CHECK's operand values, written to its IOQ entry.

        No other instruction has an entry, so its values go nowhere.
        """
        entry = self.ioq.get(uop.seq)
        if entry is not None:
            entry.payload = values

    def on_execute(self, uop, cycle):
        """Execute_Out: result / effective address available."""
        if self._execute_readers:
            self.queues.execute_out.push(cycle, (uop.seq, uop))

    def on_mem_load(self, uop, cycle, value):
        """Memory_Out: load data arrived."""
        if self._mem_load_readers:
            self.queues.memory_out.push(cycle, (uop.seq, uop, value))

    def on_commit(self, uop, cycle):
        """Commit_Out: *uop* retired; a CHECK's IOQ entry is freed.

        The running thread id is stamped at commit time: delivery happens
        a latch-cycle later, possibly after a context switch, and modules
        reading ``current_tid`` must see the committing thread.
        """
        if self._commit_readers or self._commit_deferred:
            self.queues.commit_out.push(
                cycle, ("commit", uop, self.current_tid))
        self.ioq.free(uop.seq)

    def on_squash(self, uops, cycle):
        """Commit_Out: the pipeline squashed *uops* (flush/mispredict)."""
        seqs = {uop.seq for uop in uops}
        for seq in seqs:
            self.ioq.free(seq)
        queues = self.queues
        queues.discard_squashed(seqs)
        queues.commit_out.pushed_total += 1
        if self._squash_readers or self._commit_deferred:
            queues.commit_out.push(cycle, ("squash", seqs))

    def pre_commit_store(self, uop, cycle):
        """Synchronous pre-retire hook for stores; returns stall cycles."""
        if self.safe_mode:
            return 0
        stall = 0
        for module in self._store_readers:
            if module.enabled:
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
        queue head due builds no lists, and the drain, the MAU and the
        self-checker are called only on a cycle where they can act.
        """
        self.cycle = cycle
        due = self.queues.next_due()
        worked = due is not None and due <= cycle
        if worked:
            self._deliver(cycle)
        if self._blk_queued and self._drain_blk_queues(cycle):
            worked = True
        for module in self._steppers:
            if module.step(cycle):
                worked = True
        # The MAU acts when its transfer is due or a request waits.
        mau = self.mau
        active = mau._active
        if ((mau._queue if active is None else active.done_cycle <= cycle)
                and mau.step(cycle)):
            worked = True
        selfcheck = self.selfcheck
        if (not self.safe_mode and not cycle % selfcheck.scan_period
                and selfcheck.step(cycle)):
            worked = True
        return worked

    def _deliver(self, cycle):
        """Route every latched item visible at *cycle* to its port's readers.

        Enabled-ness is sampled once, before any item moves: a CHECK
        that enables a module routes none of the same delivery's younger
        items to it.
        """
        queues = self.queues
        on_fetch = [m for m in self._fetch_readers if m.enabled]
        on_execute = [m for m in self._execute_readers if m.enabled]
        on_mem_load = [m for m in self._mem_load_readers if m.enabled]
        on_commit = [m for m in self._commit_readers if m.enabled]
        on_squash = [m for m in self._squash_readers if m.enabled]

        for seq, uop in queues.fetch_out.pop_ready(cycle):
            if uop.instr.is_check:
                self._handle_check(uop, cycle)
            else:
                for module in on_fetch:
                    module.on_fetch(uop, cycle)

        if self._execute_readers:
            for seq, uop in queues.execute_out.pop_ready(cycle):
                for module in on_execute:
                    module.on_execute(uop, cycle)

        if self._mem_load_readers:
            for seq, uop, value in queues.memory_out.pop_ready(cycle):
                for module in on_mem_load:
                    module.on_mem_load(uop, cycle, value)

        for item in queues.commit_out.pop_ready(cycle):
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
                    for module in on_commit:
                        module.on_commit(committed, cycle)
                finally:
                    self.current_tid = live_tid
            else:
                for kill in item[1]:
                    self._commit_deferred.pop(kill, None)
                for module in on_squash:
                    module.on_squash(item[1], cycle)

    def quiescent(self, cycle):
        """Next-event query: the first cycle at which :meth:`step` can act.

        That is *cycle* itself (or earlier) while an input queue holds
        an item, and otherwise the soonest of the MAU transfer's
        completion (or *cycle* while a request waits to start), the
        :meth:`RSEModule.next_event` of each module that overrides
        ``step`` and the self-checker's watchdog deadline.  None means
        only new pipeline input can wake the framework.  Every
        :meth:`step` before the answer is a pure cycle stamp, which lets
        the pipeline skip dead cycles with modules attached.  Asked
        right after ``step(cycle - 1)``: blocked CHECKs still queued
        then wait for a payload or a squash that only a pipeline hook
        delivers, and deferred commits wait for their Commit_Out item.
        """
        soonest = self.queues.next_due()
        for source in (self.mau, self.selfcheck, *self._steppers):
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
        self._blk_queued += 1
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
                    self._blk_queued -= 1
                    drained = True
                    continue
                if op_reads_payload(uop.instr.op) and entry.payload is None:
                    break          # hold younger CHECKs behind this one
                queue.popleft()
                self._blk_queued -= 1
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
                "allocated": self.queues.fetch_out.pushed_total,
                "occupancy": self.occupancy(),
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
        self.mau.requests_total = 0
        self.mau.bytes_loaded = 0
        self.mau.bytes_stored = 0
        for queue in self.queues.all_queues():
            queue.pushed_total = 0
            queue.dropped_overflow = 0
        self.selfcheck.trips.clear()
        for module in self.modules.values():
            module.reset_stats()


class NullTap:
    """A do-nothing stand-in in the pipeline's RSE slot.

    Every attachment point the cycle loop calls answers as ``rse=None``
    behaves: the IOQ gate passes, stores never stall, CHECKs never block
    loads, and there is no work and no timed work (so the loop skips
    dead cycles), which makes it architecturally invisible.  Subclasses
    override only what they observe: the difftest ``CommitRecorder``
    records the commit stream, and the assertion adapter installs one
    in a bare pipeline to shadow its ``on_commit``.  A hook a subclass
    overrides, or an instance attribute shadows, is called for every
    instruction (:attr:`reads`); the others only for CHECKs, or never.
    """

    @property
    def reads(self):
        """The :data:`PORT_HOOKS` overridden or shadowed, looked up on
        each access."""
        return frozenset(_read_hooks(self, NullTap))

    def connect(self, pipeline):
        pass

    def count_inputs(self, dispatched, operands, executed, loaded,
                     committed):
        pass

    def on_dispatch(self, uop, cycle):
        pass

    def on_operands(self, uop, cycle, values):
        pass

    def on_execute(self, uop, cycle):
        pass

    def on_mem_load(self, uop, cycle, value):
        pass

    def on_commit(self, uop, cycle):
        pass

    def on_squash(self, uops, cycle):
        pass

    def step(self, cycle):
        return False

    def quiescent(self, cycle):
        return None

    def ioq_gate(self, uop, cycle):
        return None

    def pre_commit_store(self, uop, cycle):
        return 0

    def check_blocks_loads(self, instr):
        return False
