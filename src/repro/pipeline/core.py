"""The out-of-order core: fetch, dispatch, issue, writeback, commit.

Modelled on SimpleScalar's ``sim-outorder`` (the paper's substrate,
Section 5.1): an in-order front end feeding a 16-entry ROB/RUU, wake-up
based out-of-order issue over a fixed functional-unit mix, and in-order
commit.  One call to :meth:`Pipeline.step` simulates one machine cycle.

RSE attachment points (Figure 1 of the paper):

* ``Fetch_Out``     — :meth:`RSE.on_dispatch` as instructions enter the ROB
  (the paper allocates the RSE entry "simultaneously with the instruction
  being dispatched");
* ``Regfile_Data``  — operand values at issue (:meth:`RSE.on_operands`);
* ``Execute_Out``   — ALU results / effective addresses at writeback;
* ``Memory_Out``    — load values at writeback;
* ``Commit_Out``    — committed and squashed instructions.

A hook is called for every instruction only while something reads it
(the RSE's ``reads``: a module, an obs or assertion shadow, or a
stand-in's override).  Otherwise ``on_dispatch``, ``on_operands`` and
``on_commit`` are called for CHECKs alone, ``on_dispatch`` also for
each CHECK's successor (``rse.check_successor``) while a module reads
Fetch_Out, and ``on_execute``, ``on_mem_load`` and ``pre_commit_store``
not at all.
The cycle loop counts what each port carried and hands the counts to
the RSE at the end of every run, so the RSE's snapshot is the same
whoever reads.

CHECK instructions travel the pipeline as NOPs except at commit, where
the IOQ's ``check``/``checkValid`` bits gate retirement (Table 1): the
pipeline stalls on '00', commits on '10', and flushes on '11'.

CHECK *insertion* follows the paper's methodology exactly: "CHECK
instructions are embedded at runtime, not at compile time.  When an
instruction is fetched, the simulator determines whether the instruction
has to be checked and, if so, inserts a CHECK instruction before it into
the instruction stream."  Inserted CHECKs therefore consume fetch,
dispatch, ROB and commit bandwidth but do **not** touch the I-cache —
the cache-side cost is measured by the separate NOP-rewriting experiment
(Section 5.1, "Cache overhead simulation").
"""

import copy
import enum

from repro.isa import predecode, semantics
from repro.isa.encoding import DecodeError, decode
from repro.isa.instructions import InstrClass
from repro.memory.mainmem import PAGE_SHIFT, MemoryFault
from repro.pipeline.config import PipelineConfig
from repro.pipeline.predictor import BranchPredictor, GsharePredictor

MASK32 = 0xFFFFFFFF

# Uop states.
S_WAIT = 0          # in ROB, waiting for operands / issue
S_EXEC = 1          # issued, completing at done_cycle
S_DONE = 2          # result available, awaiting commit


class EventKind(enum.Enum):
    HALT = "halt"
    SYSCALL = "syscall"
    FAULT = "fault"
    TIMER = "timer"
    CHECK_ERROR = "check_error"
    MAX_CYCLES = "max_cycles"


def _fault_marker(word=0):
    """A poison pseudo-instruction for fetch-path faults."""
    from repro.isa.instructions import Instr

    return Instr(word, "fault", InstrClass.NOP, "FAULT")


_FAULT_MARKER = _fault_marker()

#: A cycle later than any the machine reaches: the cycle loop's stand-in
#: for "no limit" and "no timer", so each is one int compare per cycle.
_NEVER = 1 << 62


def _every_cycle(cycle):
    """Next-event answer for an RSE stand-in without ``quiescent``: it
    may act on any cycle, so the cycle loop never skips past one."""
    return cycle


class PipelineEvent:
    """Why :meth:`Pipeline.run` stopped."""

    __slots__ = ("kind", "pc", "cause", "uop")

    def __init__(self, kind, pc=0, cause=None, uop=None):
        self.kind = kind
        self.pc = pc
        self.cause = cause
        self.uop = uop

    def __repr__(self):
        return "PipelineEvent(%s, pc=0x%08x, cause=%r)" % (
            self.kind.value, self.pc, self.cause)


class Uop:
    """One in-flight instruction (ROB entry)."""

    __slots__ = (
        "seq", "pc", "instr", "state", "injected",
        "pred_next", "actual_next",
        "wait_a", "wait_b", "val_a", "val_b",
        "value", "eff_addr", "mem_size", "store_value",
        "done_cycle", "fault", "forwarded",
    )

    def __init__(self, seq, pc, instr, injected=False):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.state = S_WAIT
        self.injected = injected
        self.pred_next = (pc + 4) & MASK32
        self.actual_next = None
        self.wait_a = None          # producer uop for first source, if pending
        self.wait_b = None
        self.val_a = 0
        self.val_b = 0
        self.value = None
        self.eff_addr = None
        self.mem_size = 0
        self.store_value = 0
        self.done_cycle = 0
        self.fault = None           # (pc, cause) when this uop faults
        self.forwarded = False      # load satisfied by store forwarding

    def __deepcopy__(self, memo):
        # Slot walk for machine checkpoints: only the producer links go
        # through the memo, so a uop shared by the ROB, the rename map,
        # an IOQ entry and an RSE queue clones exactly once.  ``instr``
        # is an immutable shared value; every other slot holds an int,
        # a bool, None or a tuple of those.
        clone = object.__new__(Uop)
        memo[id(self)] = clone
        for name in _UOP_VALUE_SLOTS:
            setattr(clone, name, getattr(self, name))
        wait = self.wait_a
        clone.wait_a = None if wait is None else copy.deepcopy(wait, memo)
        wait = self.wait_b
        clone.wait_b = None if wait is None else copy.deepcopy(wait, memo)
        return clone

    def __repr__(self):
        return "<Uop #%d pc=0x%08x %s state=%d>" % (
            self.seq, self.pc, self.instr.name, self.state)


_UOP_VALUE_SLOTS = tuple(name for name in Uop.__slots__
                         if name not in ("wait_a", "wait_b"))


class PipelineStats:
    """Counters reported by the benchmark harnesses."""

    FIELDS = ("cycles", "instret", "committed_checks", "committed_nops",
              "branches", "mispredicts", "loads", "stores", "load_forwards",
              "check_wait_cycles", "fetch_stall_cycles", "savepage_stalls",
              "squashed")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def __deepcopy__(self, memo):
        # Counters are ints; walking FIELDS with getattr/setattr keeps
        # the original's (and clone's) inline-values attribute fast path
        # intact — these counters are bumped every simulated cycle.
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name in self.FIELDS:
            setattr(clone, name, getattr(self, name))
        return clone

    def snapshot(self):
        doc = {name: getattr(self, name) for name in self.FIELDS}
        doc["ipc"] = self.ipc
        return doc

    def reset(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def ipc(self):
        return self.instret / self.cycles if self.cycles else 0.0


class Pipeline:
    """The out-of-order core.

    Parameters:
        memory: :class:`~repro.memory.mainmem.MainMemory` (shared with
            the kernel and RSE).
        hierarchy: :class:`~repro.memory.hierarchy.MemoryHierarchy`.
        config: :class:`~repro.pipeline.config.PipelineConfig`.
        rse: optional RSE engine implementing the attachment interface
            (see :mod:`repro.rse.engine`); None runs a bare machine.

    Hooks (set after construction when needed):

    * ``check_injector(pc, instr) -> Instr | None`` — runtime CHECK
      insertion policy (Section 5.1).
    * ``mem_check(addr, size, kind) -> str | None`` — page-permission
      probe installed by the kernel; returns a fault cause or None.
      It must be page-granular (every address of a page gets the same
      yes or no for a kind, though a cause may name the address) and
      may change its answers, or be replaced, only between
      :meth:`run` calls: the cycle loop probes instruction fetch once
      per page per call and reuses a yes for the rest of the call
      (a whole :meth:`run`, or one cycle when a shadowed :meth:`step`
      drives it).  The functional engines ask ``FuncSim.fetch_check``
      under the same contract.
    """

    #: What a checkpoint carries (:mod:`repro.checkpoint`).  Restore
    #: refills the predictor in place, so a probe on it keeps counting.
    STATE = ("predictor", "regs", "stats", "cycle", "fetch_pc",
             "fetch_enabled", "rob", "fetch_buffer", "rename", "_lsq_used",
             "_seq", "_pending_fetch", "_held", "_injected_for_held",
             "timer_deadline", "_pending_timer", "freeze_until")
    REFILL = ("predictor",)

    def __init__(self, memory, hierarchy, config=None, rse=None):
        self.memory = memory
        self.hierarchy = hierarchy
        self.config = config or PipelineConfig()
        self.rse = rse
        if rse is not None:
            rse.connect(self)
        predictor_cls = (GsharePredictor
                         if self.config.predictor == "gshare"
                         else BranchPredictor)
        self.predictor = predictor_cls(self.config.bimodal_entries,
                                       self.config.btb_entries)
        self.regs = [0] * 32
        self.stats = PipelineStats()

        self.cycle = 0
        self.fetch_pc = 0
        self.fetch_enabled = False
        self.rob = []
        self.fetch_buffer = []
        self.rename = {}
        self._lsq_used = 0
        self._seq = 0
        self._pending_fetch = None      # (pc, ready_cycle): I-cache miss
        self._held = None               # (pc, instr): decoded, awaiting slot
        self._injected_for_held = False
        self.timer_deadline = None
        self._pending_timer = False
        self.freeze_until = 0           # global stall (e.g. SavePage handler)

        self.check_injector = None
        self.mem_check = None
        #: Shared predecode cache (same object the functional simulator
        #: uses when it executes from this memory); None decodes direct.
        self._predecode = (predecode.cache_for(memory)
                           if self.config.predecode else None)

    # ------------------------------------------------------------------ API

    def snapshot(self):
        """The pipeline's section of the machine snapshot document."""
        doc = self.stats.snapshot()
        doc["predictor"] = {
            "lookups": self.predictor.lookups,
            "hits": self.predictor.hits,
            "accuracy": self.predictor.accuracy,
        }
        return doc

    def reset_stats(self):
        """Zero every counter without disturbing architectural state."""
        self.stats.reset()
        self.predictor.lookups = 0
        self.predictor.hits = 0

    def reset_at(self, pc, regs=None):
        """Hard-reset the core to start executing at *pc*."""
        self.flush_all()
        if regs is not None:
            self.regs = list(regs)
        self.fetch_pc = pc & MASK32
        self.fetch_enabled = True
        self._pending_timer = False

    def resume(self, pc):
        """Resume fetch at *pc* after an event (kernel returned control)."""
        if self.rob or self.fetch_buffer:
            raise RuntimeError("resume with in-flight instructions")
        self.fetch_pc = pc & MASK32
        self.fetch_enabled = True
        self._pending_fetch = None
        self._held = None
        self._pending_timer = False

    def advance_cycles(self, count):
        """Charge *count* opaque cycles (kernel handler time)."""
        self.cycle += count
        self.stats.cycles += count

    def run(self, max_cycles=None):
        """Simulate until an event occurs; returns the :class:`PipelineEvent`.

        Returns a ``MAX_CYCLES`` event exactly *max_cycles* cycles later
        when no other event comes first.  One :meth:`_cycles` call runs
        the whole budget and jumps over provably-dead cycles.  Only
        when :meth:`step` is shadowed is each cycle one ``step()`` call,
        so anything that shadows it (a test observing every cycle, or
        driving the loop one cycle per call as a reference) misses none.
        """
        limit = _NEVER if max_cycles is None else self.cycle + max_cycles
        if getattr(self.step, "__func__", None) is Pipeline.step:
            event = self._cycles(limit)
        else:
            event = self.step()
            while event is None and self.cycle < limit:
                event = self.step()
        if event is None:
            event = PipelineEvent(EventKind.MAX_CYCLES, pc=self.fetch_pc)
        return event

    def step(self):
        """Advance one machine cycle; returns an event or None."""
        return self._cycles(self.cycle + 1)

    def _cycles(self, limit):
        """The cycle loop: run until an event or cycle *limit*.

        Each cycle runs writeback, commit, issue, dispatch and fetch,
        in that order, with hot attributes cached in locals, on every
        machine.  The RSE attachment points are bound methods hoisted
        once per call from the instance (so obs and assertion shadows
        keep firing), together with ``rse.reads``, which says which of
        them to call for every instruction rather than for CHECKs only
        (see the module docstring).  Whatever the hooks called, the
        loop counts each port's items and hands the counts to
        ``rse.count_inputs`` when the call ends.  The timer and
        SavePage freeze windows are handled here too.  A same-block
        I-fetch memo short-circuits the cache
        model for straight-line runs (the block is MRU with identical
        hit/latency/stats outcomes either way), and the fetch
        permission of a page, once ``mem_check`` allows it, holds for
        the rest of the call (see the ``mem_check`` contract above).

        After a dead cycle — no pipeline state changed and
        ``rse.step`` reported no work — every cycle before the next
        horizon would repeat the same no-op.  The horizons are a uop's
        ``done_cycle``, the pending I-fetch, the timer, the end of a
        freeze window, *limit* and the RSE's next event
        (:meth:`RSE.quiescent`).  While *limit* is ahead the loop jumps
        to the nearest one, replays the skipped cycles'
        ``fetch_stall_cycles`` and ``check_wait_cycles``, and stamps
        the RSE with the last skipped cycle; a one-cycle call never
        looks.  Returns the event that ended the run, or None at
        *limit*.
        """
        stats = self.stats
        config = self.config
        regs = self.regs
        rename = self.rename
        predictor = self.predictor
        hierarchy = self.hierarchy
        ifetch = hierarchy.ifetch
        il1_stats = hierarchy.il1.stats
        iblock_shift = hierarchy.il1._block_shift
        memo_ok = hierarchy.l1_latency == 1
        last_iblock = -1
        mem_check = self.mem_check
        fetchable = set()          # pages mem_check let this call fetch
        cache = self._predecode
        centries_get = cache.entries.get if cache is not None else None
        memory = self.memory
        vget = memory.write_versions.get
        dstore = hierarchy.dstore
        alu_result = semantics.alu_result
        branch_taken = semantics.branch_taken
        branch_target = semantics.branch_target
        jump_target = semantics.jump_target
        store_to = semantics.store_to
        ArithmeticFault = semantics.ArithmeticFault
        ALU = InstrClass.ALU
        MDU = InstrClass.MDU
        LOAD = InstrClass.LOAD
        STORE = InstrClass.STORE
        BRANCH = InstrClass.BRANCH
        JUMP = InstrClass.JUMP
        CHECK = InstrClass.CHECK
        NOP = InstrClass.NOP
        SYSCALL = InstrClass.SYSCALL
        HALT_CLS = InstrClass.HALT
        EK_FAULT = EventKind.FAULT
        EK_SYSCALL = EventKind.SYSCALL
        EK_HALT = EventKind.HALT
        EK_CHECK_ERROR = EventKind.CHECK_ERROR
        rse = self.rse
        on_execute = on_mem_load = pre_commit_store = None
        n_dispatch = n_operands = n_execute = n_mem_load = n_commit = 0
        if rse is not None:
            rse_step = rse.step
            rse_next = getattr(rse, "quiescent", _every_cycle)
            reads = rse.reads
            on_dispatch = rse.on_dispatch
            every_dispatch = "on_dispatch" in reads
            successors = "successor" in reads
            on_operands = rse.on_operands
            every_operands = "on_operands" in reads
            on_commit = rse.on_commit
            every_commit = "on_commit" in reads
            ioq_gate = rse.ioq_gate
            if "on_execute" in reads:
                on_execute = rse.on_execute
            if "on_mem_load" in reads:
                on_mem_load = rse.on_mem_load
            if "pre_commit_store" in reads:
                pre_commit_store = rse.pre_commit_store
        fetch_width = config.fetch_width
        buffer_entries = config.fetch_buffer_entries
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        rob_entries = config.rob_entries
        lsq_entries = config.lsq_entries
        int_alus = config.int_alus
        mdus = config.mdus
        mem_ports = config.mem_ports
        alu_latency = config.alu_latency
        mul_latency = config.mul_latency
        div_latency = config.div_latency
        pending_timer = self._pending_timer
        timer_at = self.timer_deadline
        if pending_timer or timer_at is None:
            timer_at = _NEVER
        frozen_until = self.freeze_until
        cycle = self.cycle
        start = cycle
        try:
            while True:
                if cycle < frozen_until:
                    # SavePage freeze window: the pipeline idles and only
                    # the RSE steps.  Once it reports no work, jump to its
                    # next event or to the end of the window.
                    worked = rse is not None and rse_step(cycle)
                    cycle += 1
                    self.cycle = cycle
                    if not worked and cycle < limit:
                        horizon = min(frozen_until, limit)
                        if rse is not None:
                            due = rse_next(cycle)
                            if due is not None and due < horizon:
                                horizon = due
                        if cycle < horizon:
                            cycle = horizon
                            self.cycle = cycle
                            if rse is not None:
                                rse_step(cycle - 1)
                    if cycle >= limit:
                        return None
                    continue
                active = False
                event = None
                if cycle >= timer_at:
                    # Quantum expired: stop fetching, drain, then stop.
                    pending_timer = self._pending_timer = True
                    self.fetch_enabled = False
                    timer_at = _NEVER
                    active = True
                rob = self.rob
                if rob:
                    # ---- writeback --------------------------------------
                    index = 0
                    for uop in rob:
                        if uop.state == S_EXEC and uop.done_cycle <= cycle:
                            active = True
                            uop.state = S_DONE
                            if rse is not None:
                                n_execute += 1
                                if on_execute is not None:
                                    on_execute(uop, cycle)
                                if uop.instr.is_load and uop.fault is None:
                                    n_mem_load += 1
                                    if on_mem_load is not None:
                                        on_mem_load(uop, cycle, uop.value)
                            nxt = uop.actual_next
                            if nxt is not None:
                                instr = uop.instr
                                taken = nxt != ((uop.pc + 4) & MASK32)
                                if instr.iclass is BRANCH:
                                    predictor.update(uop.pc, taken, nxt)
                                elif instr.name in ("jr", "jalr"):
                                    predictor.update(uop.pc, True, nxt)
                                correct = nxt == uop.pred_next
                                predictor.record_hit(correct)
                                if not correct:
                                    stats.mispredicts += 1
                                    self._flush_younger(index)
                                    self.fetch_pc = nxt
                                    self.fetch_enabled = not pending_timer
                                    break
                        index += 1
                    # ---- commit -----------------------------------------
                    committed = 0
                    while rob and committed < commit_width:
                        uop = rob[0]
                        if uop.state != S_DONE:
                            break
                        instr = uop.instr
                        if rse is not None and instr.is_check:
                            gate = ioq_gate(uop, cycle)
                            if gate == "wait":
                                stats.check_wait_cycles += 1
                                break
                            if gate == "error":
                                module = instr.module
                                pc = uop.pc
                                self.flush_all()
                                self.fetch_enabled = False
                                event = PipelineEvent(
                                    EK_CHECK_ERROR, pc=pc,
                                    cause="module %d" % module, uop=uop)
                                break
                        if uop.fault is not None:
                            pc, cause = uop.fault
                            self.flush_all()
                            self.fetch_enabled = False
                            event = PipelineEvent(EK_FAULT, pc=pc,
                                                  cause=cause, uop=uop)
                            break
                        smc_flush = False
                        if instr.is_store:
                            if pre_commit_store is not None:
                                stall = pre_commit_store(uop, cycle)
                                if stall:
                                    frozen_until = cycle + stall
                                    self.freeze_until = frozen_until
                                    stats.savepage_stalls += 1
                            store_to(memory, instr, uop.eff_addr,
                                     uop.store_value)
                            dstore(cycle, uop.eff_addr)
                            stats.stores += 1
                            smc_flush = self._smc_hazard(
                                uop.eff_addr >> PAGE_SHIFT)
                        dest = instr.dest
                        if dest:
                            if uop.value is not None:
                                regs[dest] = uop.value
                            if rename.get(dest) is uop:
                                del rename[dest]
                        del rob[0]
                        if instr.is_mem:
                            self._lsq_used -= 1
                        committed += 1
                        iclass = instr.iclass
                        if instr.is_check:
                            stats.committed_checks += 1
                            if not uop.injected:
                                stats.instret += 1
                        elif iclass is NOP:
                            stats.committed_nops += 1
                            stats.instret += 1
                        else:
                            stats.instret += 1
                        if instr.is_load:
                            stats.loads += 1
                        if instr.is_control:
                            stats.branches += 1
                        if rse is not None:
                            n_commit += 1
                            if every_commit or instr.is_check:
                                on_commit(uop, cycle)
                        if smc_flush:
                            # Store rewrote a page younger in-flight
                            # instructions were decoded from: squash and
                            # refetch so they re-decode what memory now
                            # holds, as the in-order interpreter does.
                            self.flush_all()
                            self.fetch_pc = (uop.pc + 4) & MASK32
                            self.fetch_enabled = not pending_timer
                            break
                        if iclass is SYSCALL:
                            event = PipelineEvent(EK_SYSCALL, pc=uop.pc,
                                                  uop=uop)
                            break
                        if iclass is HALT_CLS:
                            event = PipelineEvent(EK_HALT, pc=uop.pc,
                                                  uop=uop)
                            break
                        if frozen_until > cycle:
                            break          # SavePage suspended the process
                    if committed:
                        active = True
                if event is not None:
                    if rse is not None:
                        rse_step(cycle)
                    cycle += 1
                    self.cycle = cycle
                    return event
                rob_nonempty = bool(rob)
                rob = self.rob          # commit may have swapped the list
                fetch_buffer = self.fetch_buffer
                # ---- issue ----------------------------------------------
                if rob_nonempty:
                    budget = issue_width
                    alu_free = int_alus
                    mdu_free = mdus
                    mem_free = mem_ports
                    index = -1
                    for uop in rob:
                        index += 1
                        if budget == 0:
                            break
                        if uop.state:          # != S_WAIT
                            continue
                        producer = uop.wait_a
                        if producer is not None:
                            if producer.state == S_DONE:
                                value = producer.value
                                uop.val_a = 0 if value is None else value
                                uop.wait_a = None
                            else:
                                continue
                        producer = uop.wait_b
                        if producer is not None:
                            if producer.state == S_DONE:
                                value = producer.value
                                uop.val_b = 0 if value is None else value
                                uop.wait_b = None
                            else:
                                continue
                        instr = uop.instr
                        iclass = instr.iclass
                        if iclass is LOAD:
                            if (mem_free == 0 or
                                    not self._try_issue_load(uop, index,
                                                             cycle)):
                                continue
                            mem_free -= 1
                            # A load that faults at issue sends nothing.
                            if rse is not None and uop.fault is None:
                                n_operands += 1
                                if every_operands:
                                    on_operands(uop, cycle, (
                                        self._rs_rt_values(uop)[0], 0))
                        elif iclass is STORE:
                            if mem_free == 0:
                                continue
                            self._issue_store(uop, cycle)
                            mem_free -= 1
                            if rse is not None:
                                n_operands += 1
                                if every_operands:
                                    on_operands(uop, cycle,
                                                self._rs_rt_values(uop))
                        else:          # ALU / MDU / branch / jump / CHECK
                            if iclass is MDU:
                                if mdu_free == 0:
                                    continue
                                mdu_free -= 1
                            else:
                                if alu_free == 0:
                                    continue
                                alu_free -= 1
                            uop.state = S_EXEC
                            uop.done_cycle = cycle + alu_latency
                            if iclass is CHECK:
                                if rse is not None:
                                    n_operands += 1
                                    on_operands(uop, cycle, (uop.val_a,
                                                             uop.val_b))
                            else:
                                rs_val = rt_val = 0
                                srcs = instr.srcs
                                if srcs:
                                    reg = srcs[0]
                                    if reg == instr.rs:
                                        rs_val = uop.val_a
                                    if reg == instr.rt:
                                        rt_val = uop.val_a
                                    if len(srcs) > 1:
                                        reg = srcs[1]
                                        if reg == instr.rs:
                                            rs_val = uop.val_b
                                        if reg == instr.rt:
                                            rt_val = uop.val_b
                                try:
                                    if iclass is ALU:
                                        uop.value = alu_result(instr, rs_val,
                                                               rt_val)
                                    elif iclass is MDU:
                                        uop.done_cycle = cycle + (
                                            mul_latency
                                            if instr.name == "mul"
                                            else div_latency)
                                        uop.value = alu_result(instr, rs_val,
                                                               rt_val)
                                    elif iclass is BRANCH:
                                        uop.actual_next = (
                                            branch_target(instr, uop.pc)
                                            if branch_taken(instr, rs_val,
                                                            rt_val)
                                            else (uop.pc + 4) & MASK32)
                                    else:          # JUMP
                                        dest = instr.dest
                                        if dest:
                                            uop.value = (uop.pc + 4) & MASK32
                                            if dest == instr.rs:
                                                rs_val = uop.value
                                        uop.actual_next = jump_target(
                                            instr, uop.pc, rs_val)
                                except ArithmeticFault:
                                    uop.fault = (uop.pc,
                                                 "integer divide by zero")
                                if rse is not None:
                                    n_operands += 1
                                    if every_operands:
                                        on_operands(uop, cycle,
                                                    (rs_val, rt_val))
                        budget -= 1
                    if budget != issue_width:
                        active = True
                # ---- dispatch -------------------------------------------
                if fetch_buffer:
                    dbudget = dispatch_width
                    while dbudget and fetch_buffer:
                        if len(rob) >= rob_entries:
                            break
                        uop = fetch_buffer[0]
                        instr = uop.instr
                        serializing = instr.serializing
                        if serializing and rob:
                            break
                        is_mem = instr.is_mem
                        if is_mem and self._lsq_used >= lsq_entries:
                            break
                        del fetch_buffer[0]
                        srcs = instr.srcs
                        if srcs:
                            reg = srcs[0]
                            producer = rename.get(reg)
                            if producer is None:
                                uop.val_a = regs[reg]
                            elif (producer.state == S_DONE
                                    and producer.value is not None):
                                uop.val_a = producer.value
                            else:
                                uop.wait_a = producer
                            if len(srcs) > 1:
                                reg = srcs[1]
                                producer = rename.get(reg)
                                if producer is None:
                                    uop.val_b = regs[reg]
                                elif (producer.state == S_DONE
                                        and producer.value is not None):
                                    uop.val_b = producer.value
                                else:
                                    uop.wait_b = producer
                        dest = instr.dest
                        if dest:
                            rename[dest] = uop
                        rob.append(uop)
                        if is_mem:
                            self._lsq_used += 1
                        if (serializing or instr.iclass is NOP
                                or instr.fmt == "FAULT"):
                            uop.state = S_DONE
                        if rse is not None:
                            n_dispatch += 1
                            if (every_dispatch or instr.is_check
                                    or successors
                                    and uop.seq == rse.check_successor):
                                on_dispatch(uop, cycle)
                        dbudget -= 1
                        active = True
                        if serializing:
                            break
                # ---- fetch ----------------------------------------------
                if self.fetch_enabled:
                    check_injector = self.check_injector
                    fbudget = fetch_width
                    while fbudget and len(fetch_buffer) < buffer_entries:
                        pc = self.fetch_pc
                        if (self._held is not None
                                or self._pending_fetch is not None
                                or pc & 3):
                            triple = self._next_fetch(cycle)
                            if triple is None:
                                break
                            pc, instr, fault_cause = triple
                        else:
                            fault_cause = None
                            if (mem_check is not None
                                    and pc >> PAGE_SHIFT not in fetchable):
                                fault_cause = mem_check(pc, 4, "x")
                                if fault_cause is None:
                                    fetchable.add(pc >> PAGE_SHIFT)
                            if fault_cause is not None:
                                instr = _FAULT_MARKER
                            else:
                                block = pc >> iblock_shift
                                if memo_ok and block == last_iblock:
                                    # Same block as the immediately
                                    # preceding I-fetch: guaranteed L1
                                    # hit, already MRU — bump the same
                                    # counters and skip the model.
                                    il1_stats.accesses += 1
                                    il1_stats.hits += 1
                                else:
                                    done = ifetch(cycle, pc)
                                    # Hit or miss, the block is now
                                    # installed and MRU.
                                    last_iblock = block
                                    if done > cycle + 1:
                                        self._pending_fetch = (pc, done)
                                        stats.fetch_stall_cycles += 1
                                        break
                                entry = (centries_get(pc)
                                         if centries_get is not None
                                         else None)
                                if (entry is not None
                                        and vget(pc >> PAGE_SHIFT, 0)
                                        == entry[0]):
                                    instr = entry[3]
                                else:
                                    __, instr, fault_cause = \
                                        self._decode_at(pc)
                        if (check_injector is not None
                                and not self._injected_for_held
                                and (fault_cause is not None
                                     or not instr.is_check)):
                            check = check_injector(pc, instr)
                            if check is not None:
                                self._held = (pc, instr, fault_cause)
                                self._injected_for_held = True
                                uop = Uop(self._seq, pc, check,
                                          injected=True)
                                self._seq += 1
                                uop.pred_next = pc
                                fetch_buffer.append(uop)
                                fbudget -= 1
                                active = True
                                continue
                        self._held = None
                        self._injected_for_held = False
                        uop = Uop(self._seq, pc, instr)
                        self._seq += 1
                        if fault_cause is not None:
                            uop.fault = (pc, fault_cause)
                            uop.state = S_DONE
                            fetch_buffer.append(uop)
                            self.fetch_enabled = False
                            active = True
                            break
                        iclass = instr.iclass
                        if iclass is BRANCH:
                            pred = (branch_target(instr, pc)
                                    if predictor.predict_direction(pc)
                                    else (pc + 4) & MASK32)
                        elif iclass is JUMP:
                            if instr.name in ("j", "jal"):
                                pred = jump_target(instr, pc)
                            else:
                                target = predictor.predict_target(pc)
                                predictor.lookups += 1
                                pred = (target if target is not None
                                        else (pc + 4) & MASK32)
                        else:
                            pred = (pc + 4) & MASK32
                        uop.pred_next = pred
                        fetch_buffer.append(uop)
                        self.fetch_pc = pred
                        fbudget -= 1
                        active = True
                        if instr.serializing:
                            self.fetch_enabled = False
                            break
                if pending_timer and not self.rob and not fetch_buffer:
                    event = PipelineEvent(EventKind.TIMER, pc=self.fetch_pc)
                if rse is not None and rse_step(cycle):
                    active = True
                cycle += 1
                self.cycle = cycle
                if event is not None:
                    return event
                if not active and cycle < limit:
                    # ---- dead cycle: jump to the next horizon -----------
                    horizon = limit
                    rob = self.rob
                    for uop in rob:
                        if uop.state == S_EXEC and uop.done_cycle < horizon:
                            horizon = uop.done_cycle
                    pending = self._pending_fetch
                    if pending is not None and pending[1] < horizon:
                        horizon = pending[1]
                    if timer_at < horizon:
                        horizon = timer_at
                    if rse is not None:
                        due = rse_next(cycle)
                        if due is not None and due < horizon:
                            horizon = due
                    if cycle < horizon < _NEVER:
                        skip = horizon - cycle
                        if (pending is not None and self.fetch_enabled
                                and self._held is None
                                and len(self.fetch_buffer) < buffer_entries):
                            # Each skipped cycle would have retried the
                            # pending I-fetch and counted one stall.
                            stats.fetch_stall_cycles += skip
                        if rob and rob[0].state == S_DONE:
                            # A finished head a dead cycle left uncommitted
                            # is a CHECK the IOQ gate holds: each skipped
                            # cycle counts one wait.
                            stats.check_wait_cycles += skip
                        cycle = horizon
                        self.cycle = cycle
                        if rse is not None:
                            # The skipped rse.step() calls were pure
                            # cycle stamps; replay the last one.
                            rse_step(cycle - 1)
                if cycle >= limit:
                    return None
        finally:
            stats.cycles += cycle - start
            if rse is not None:
                rse.count_inputs(n_dispatch, n_operands, n_execute,
                                 n_mem_load, n_commit)

    # ----------------------------------------------------------------- issue

    def _rs_rt_values(self, uop):
        instr = uop.instr
        rs_val = rt_val = 0
        srcs = instr.srcs
        if srcs:
            reg = srcs[0]
            if reg == instr.rs:
                rs_val = uop.val_a
            if reg == instr.rt:
                rt_val = uop.val_a
            if len(srcs) > 1:
                reg = srcs[1]
                if reg == instr.rs:
                    rs_val = uop.val_b
                if reg == instr.rt:
                    rt_val = uop.val_b
        return rs_val, rt_val

    def _issue_store(self, uop, cycle):
        instr = uop.instr
        rs_val, rt_val = self._rs_rt_values(uop)
        uop.eff_addr = semantics.effective_address(instr, rs_val)
        uop.mem_size = semantics.access_size(instr)
        uop.store_value = rt_val
        uop.state = S_EXEC
        uop.done_cycle = cycle + 1
        if (uop.mem_size > 1) and (uop.eff_addr % uop.mem_size):
            uop.fault = (uop.pc, "unaligned store at 0x%08x" % uop.eff_addr)
        elif self.mem_check is not None:
            cause = self.mem_check(uop.eff_addr, uop.mem_size, "w")
            if cause is not None:
                uop.fault = (uop.pc, cause)

    def _try_issue_load(self, uop, index, cycle):
        instr = uop.instr
        rs_val, __ = self._rs_rt_values(uop)
        addr = semantics.effective_address(instr, rs_val)
        size = semantics.access_size(instr)
        # Memory disambiguation against older stores still in the ROB.
        forward_from = None
        rse = self.rse
        for older in self.rob[:index]:
            if (rse is not None and older.instr.is_check
                    and rse.check_blocks_loads(older.instr)):
                return False          # module output not yet in memory
            if not older.instr.is_store:
                continue
            if older.state == S_WAIT:
                return False          # unknown address: conservative stall
            if older.eff_addr is None:
                return False
            lo, hi = older.eff_addr, older.eff_addr + older.mem_size
            if lo < addr + size and addr < hi:
                if lo <= addr and addr + size <= hi:
                    # Exact containment: every loaded byte comes from this
                    # store (youngest containing store wins).
                    forward_from = older
                else:
                    return False          # partial overlap: wait for commit
        uop.eff_addr = addr
        uop.mem_size = size
        uop.state = S_EXEC
        if (size > 1) and (addr % size):
            uop.fault = (uop.pc, "unaligned load at 0x%08x" % addr)
            uop.done_cycle = cycle + 1
            return True
        if self.mem_check is not None:
            cause = self.mem_check(addr, size, "r")
            if cause is not None:
                uop.fault = (uop.pc, cause)
                uop.done_cycle = cycle + 1
                return True
        if forward_from is not None:
            # Shift the contained bytes down to the load's position (the
            # store's value is little-endian, so byte k of the stored
            # range lives at bit 8k) before width extraction.
            raw = forward_from.store_value >> (
                8 * (addr - forward_from.eff_addr))
            uop.value = semantics.load_value(instr, raw)
            uop.forwarded = True
            uop.done_cycle = cycle + 1
            self.stats.load_forwards += 1
        else:
            try:
                uop.value = semantics.load_from(self.memory, instr, addr)
            except MemoryFault as exc:
                uop.fault = (uop.pc, str(exc))
                uop.done_cycle = cycle + 1
                return True
            uop.done_cycle = self.hierarchy.dload(cycle, addr)
        return True

    # ----------------------------------------------------------------- fetch

    def _next_fetch(self, cycle):
        """``(pc, instr, fault_cause)`` for a fetch off the plain path.

        That is a held instruction (its injected CHECK went first), a
        pending I-cache miss (None, counting one stall, until it is
        ready) or an unaligned pc (a poison marker explained by
        *fault_cause*).
        """
        if self._held is not None:
            return self._held
        if self._pending_fetch is not None:
            pc, ready = self._pending_fetch
            if cycle < ready:
                self.stats.fetch_stall_cycles += 1
                return None
            self._pending_fetch = None
            return self._decode_at(pc)
        return self.fetch_pc, _FAULT_MARKER, "unaligned fetch"

    def _decode_at(self, pc):
        cache = self._predecode
        try:
            if cache is None:
                return pc, decode(self.memory.load_word(pc)), None
            entry = cache.entries.get(pc)
            if (entry is None or
                    self.memory.write_versions.get(pc >> PAGE_SHIFT, 0)
                    != entry[0]):
                entry = cache.refill(pc)
            return pc, entry[3], None
        except DecodeError as exc:
            # Keep the raw word on the marker so the ICM's binary
            # comparison sees what was actually fetched.
            return pc, _fault_marker(exc.word), str(exc)
        except MemoryFault as exc:
            return pc, _FAULT_MARKER, str(exc)

    # ----------------------------------------------------------------- flush

    def _smc_hazard(self, page):
        """Does any in-flight instruction live on text page *page*?

        Called when a store commits: instructions already fetched from
        that page were decoded from the pre-store bytes and must be
        squashed.  Instructions whose fetch is still pending decode
        later (against post-store memory) and need no flush.
        """
        for uop in self.rob:
            if uop.pc >> PAGE_SHIFT == page:
                return True
        for uop in self.fetch_buffer:
            if uop.pc >> PAGE_SHIFT == page:
                return True
        held = self._held
        return held is not None and (held[0] >> PAGE_SHIFT) == page

    def _flush_younger(self, index):
        """Squash every uop younger than ``rob[index]`` (mispredict recovery)."""
        squashed = self.rob[index + 1:]
        del self.rob[index + 1:]
        squashed.extend(self.fetch_buffer)
        self.fetch_buffer.clear()
        self._pending_fetch = None
        self._held = None
        self._injected_for_held = False
        self._lsq_used = sum(1 for u in self.rob if u.instr.is_mem)
        self.rename.clear()
        for uop in self.rob:
            dest = uop.instr.dest
            if dest:
                self.rename[dest] = uop
        self.stats.squashed += len(squashed)
        if squashed and self.rse is not None:
            self.rse.on_squash(squashed, self.cycle)

    def flush_all(self):
        """Squash the entire window (faults, CHECK errors, context switch)."""
        squashed = self.rob + self.fetch_buffer
        self.rob = []
        self.fetch_buffer = []
        self.rename.clear()
        self._lsq_used = 0
        self._pending_fetch = None
        self._held = None
        self._injected_for_held = False
        self.stats.squashed += len(squashed)
        if squashed and self.rse is not None:
            self.rse.on_squash(squashed, self.cycle)
