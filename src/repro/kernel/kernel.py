"""The kernel: process loading, scheduling, syscalls, exceptions, recovery.

The kernel drives the pipeline through its event interface: the pipeline
simulates until a syscall / fault / timer / halt / CHECK-error surfaces,
the kernel handles it (charging handler cycles), and resumes — possibly
in a different thread.  Context switches only ever happen on a drained
pipeline, matching Table 3's argument that CHECK instructions never
straddle a context switch.
"""

from repro.kernel.checkpoints import CheckpointStore, RecoveryImpossible
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.syscalls import (
    NRECV_EMPTY,
    NRECV_POLL,
    RECV_EXHAUSTED,
    SYS_CYCLE,
    SYS_EXIT,
    SYS_GETTID,
    SYS_MMAP,
    SYS_MPROTECT,
    SYS_NRECV,
    SYS_NSEND,
    SYS_PRINT_INT,
    SYS_PUTC,
    SYS_JOIN,
    SYS_RAND,
    SYS_RECV,
    SYS_SLEEP,
    SYS_SBRK,
    SYS_SEND,
    SYS_SPAWN,
    SYS_YIELD,
    perm_string,
)
from repro.kernel.threads import Thread, ThreadState
from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE
from repro.pipeline.core import EventKind
from repro.program.loader import Loader
from repro.rse.check import MODULE_DDT
from repro.weak import weak_method

MASK32 = 0xFFFFFFFF

#: Provisional wake cycle for a thread blocked in SYS_NRECV with nothing
#: in flight.  Far beyond any reachable cycle; replaced by the actual
#: delivery cycle the moment a datagram is queued (``net_refresh``).
NET_WAIT = 1 << 62


def permission_probe(page_perms):
    """The ``mem_check`` probe a core asks before an access.

    It reads only *page_perms*, which the kernel owns and keeps as one
    dict for its whole life (restore refills it in place), so the core
    holding the probe holds no reference back to the kernel.  An empty
    map means no process is loaded, and nothing is enforced.
    """
    get = page_perms.get

    def mem_check(addr, size, kind):
        perms = get(addr >> PAGE_SHIFT)
        if perms is None:
            if not page_perms:
                return None       # no process: nothing to enforce (bare runs)
            return "access to unmapped address 0x%08x" % addr
        if kind not in perms:
            return "%s-access violation at 0x%08x (page is %s)" % (
                kind, addr, perms)
        return None
    return mem_check


class ProcessExit(Exception):
    """Raised internally to unwind when the whole process terminates."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class KernelConfig:
    """Kernel cost model and policy knobs.

    Cost/latency knobs are validated here, in one place, so nothing
    downstream has to re-check them: ``io_recv_jitter=0`` is legal (the
    jitter draw is skipped entirely — no ``% 0``), negative latencies
    and costs are rejected at construction instead of surfacing as
    time-travelling wake cycles mid-run.
    """

    def __init__(self,
                 quantum_cycles=5000,
                 context_switch_cost=60,
                 syscall_cost=20,
                 savepage_cost=None,          # None: derived from bus timing
                 io_recv_latency=1500,
                 io_recv_jitter=3000,
                 io_send_cost=150,
                 thread_stack_bytes=16 * 1024,
                 rng_seed=0x5EED,
                 checkpoint_max=100_000,
                 checkpoint_gc_age=None):
        if quantum_cycles < 1:
            raise ValueError("quantum_cycles must be >= 1, got %r"
                             % (quantum_cycles,))
        for name, value in (("context_switch_cost", context_switch_cost),
                            ("syscall_cost", syscall_cost),
                            ("io_recv_latency", io_recv_latency),
                            ("io_recv_jitter", io_recv_jitter),
                            ("io_send_cost", io_send_cost)):
            if value < 0:
                raise ValueError("%s must be >= 0, got %r" % (name, value))
        if savepage_cost is not None and savepage_cost < 0:
            raise ValueError("savepage_cost must be >= 0 or None, got %r"
                             % (savepage_cost,))
        self.quantum_cycles = quantum_cycles
        self.context_switch_cost = context_switch_cost
        self.syscall_cost = syscall_cost
        self.savepage_cost = savepage_cost
        self.io_recv_latency = io_recv_latency
        self.io_recv_jitter = io_recv_jitter
        self.io_send_cost = io_send_cost
        self.thread_stack_bytes = thread_stack_bytes
        self.rng_seed = rng_seed
        self.checkpoint_max = checkpoint_max
        self.checkpoint_gc_age = checkpoint_gc_age


class RunResult:
    """Outcome of :meth:`Kernel.run`.

    ``snapshot`` carries the machine's full telemetry document
    (``Machine.snapshot()``) taken when the run stopped — None for
    kernels driven outside a :class:`~repro.system.Machine`.
    """

    def __init__(self, reason, cycles, event=None, snapshot=None):
        self.reason = reason          # "halt" | "all_exited" | "fault" |
                                      # "check_error" | "max_cycles" |
                                      # "recovery_impossible"
        self.cycles = cycles
        self.event = event
        self.snapshot = snapshot

    def __repr__(self):
        return "RunResult(%s, cycles=%d)" % (self.reason, self.cycles)


class Kernel:
    """The operating system of the simulated machine."""

    #: What a checkpoint carries (:mod:`repro.checkpoint`).  Restore
    #: refills ``page_perms`` in place: the core's ``mem_check`` probe
    #: holds that dict.  A fleet's ``netif`` is wiring, so a checkpoint
    #: restored onto a spare node keeps the spare's interface.
    STATE = ("page_perms", "threads", "scheduler", "current", "checkpoints",
             "loaded", "brk", "output", "responses", "requests_total",
             "_next_request", "request_arrivals", "_next_tid",
             "_next_stack_index", "_rng_state", "recovery",
             "recovery_reports", "detections", "check_error_policy",
             "faults", "os_heartbeat_id", "context_switches",
             "syscalls_handled", "timer_preemptions")
    REFILL = ("page_perms",)

    def __init__(self, pipeline, memory, rse=None, config=None):
        self.pipeline = pipeline
        self.memory = memory
        self.rse = rse
        self.config = config or KernelConfig()
        self.page_perms = {}
        self.threads = {}
        self.scheduler = RoundRobinScheduler(self.config.quantum_cycles)
        self.current = None
        self.checkpoints = CheckpointStore(self.config.checkpoint_max,
                                           self.config.checkpoint_gc_age)
        self.loaded = None
        self.brk = 0
        self.output = []              # (kind, value) from print syscalls
        self.responses = {}           # request id -> response value
        self.requests_total = 0
        self._next_request = 0
        #: Optional open-loop arrival schedule: sorted absolute cycles,
        #: one per provisioned request (set_request_source).
        self.request_arrivals = None
        #: NetworkInterface wired in by a fleet's NetworkDevice (attach);
        #: None on a standalone machine.  Wiring, not in :attr:`STATE`.
        self.netif = None
        self._next_tid = 1
        self._next_stack_index = 1
        self._rng_state = self.config.rng_seed & MASK32
        self.recovery = None          # RecoveryManager, when enabled
        self.recovery_reports = []
        self.detections = []          # CHECK_ERROR events observed
        self.check_error_policy = "terminate"          # or "retry"
        self.faults = []
        self.os_heartbeat_id = None
        self.context_switches = 0
        self.syscalls_handled = 0
        self.timer_preemptions = 0
        #: Set by Machine: zero-arg callable returning the machine-wide
        #: snapshot document, attached to every RunResult.
        self.snapshot_provider = None
        pipeline.mem_check = permission_probe(self.page_perms)
        if rse is not None:
            ddt = rse.modules.get(MODULE_DDT)
            if ddt is not None:
                ddt.save_page_handler = weak_method(self.checkpoint_page)

    # ------------------------------------------------------------- processes

    def load_process(self, image, name="main"):
        """Load *image* and create its main thread."""
        loaded = Loader(self.memory).load(image)
        self.loaded = loaded
        self.page_perms.update(loaded.page_perms)
        self.brk = image.layout.heap_base + PAGE_SIZE
        regs = [0] * 32
        regs[29] = loaded.initial_sp
        regs[28] = loaded.initial_gp
        thread = self._create_thread(loaded.entry, regs, name)
        return thread

    def _create_thread(self, pc, regs, name):
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid, pc, regs, name=name,
                        spawn_cycle=self.pipeline.cycle)
        self.threads[tid] = thread
        self.scheduler.make_ready(thread)
        if self.rse is not None:
            ddt = self.rse.modules.get(MODULE_DDT)
            if ddt is not None:
                ddt.register_thread(tid)
        return thread

    def spawn_thread(self, entry_pc, arg=0, name=None):
        """Kernel-side thread creation (also backs SYS_SPAWN)."""
        if self.loaded is None:
            raise RuntimeError("no process loaded")
        layout = self.loaded.image.layout
        self._next_stack_index += 1
        sp = (layout.stack_top
              - self._next_stack_index * self.config.thread_stack_bytes)
        if sp - self.config.thread_stack_bytes < layout.stack_base:
            raise RuntimeError("out of stack space for new thread")
        regs = [0] * 32
        regs[29] = sp & ~0x7
        regs[28] = self.loaded.initial_gp
        regs[4] = arg & MASK32
        return self._create_thread(entry_pc, regs, name)

    def alive_threads(self):
        return [t for t in self.threads.values() if t.alive]

    # ------------------------------------------------------------------ run

    def run(self, max_cycles=50_000_000):
        """Run the machine until the process ends or *max_cycles* elapse.

        The returned :class:`RunResult` carries the machine snapshot
        document when the kernel is part of a wired
        :class:`~repro.system.Machine`.
        """
        result = self._run(max_cycles)
        if self.snapshot_provider is not None:
            result.snapshot = self.snapshot_provider()
        return result

    def run_slice(self, max_cycles):
        """Run for at most *max_cycles* without attaching a snapshot.

        The fleet bridge's hot path: it resumes a node thousands of
        times per run, and a full ``Machine.snapshot()`` per slice would
        dominate the cost.  Never overshoots the deadline — an idle
        kernel advances exactly to it and reports ``max_cycles``.
        """
        return self._run(max_cycles)

    def _run(self, max_cycles):
        pipeline = self.pipeline
        deadline = pipeline.cycle + max_cycles
        try:
            while True:
                if self.current is None:
                    scheduled = self._schedule(deadline)
                    if scheduled is False:
                        raise ProcessExit("all_exited")
                    if scheduled is None:
                        # Every thread sleeps past the deadline; the
                        # idle advance stopped exactly there.
                        return RunResult("max_cycles", pipeline.cycle)
                remaining = deadline - pipeline.cycle
                if remaining <= 0:
                    return RunResult("max_cycles", pipeline.cycle)
                event = pipeline.run(max_cycles=remaining)
                self._heartbeat_os()
                kind = event.kind
                if kind is EventKind.SYSCALL:
                    self._handle_syscall(event)
                elif kind is EventKind.TIMER:
                    self._handle_timer(event)
                elif kind is EventKind.HALT:
                    if self.rse is not None:
                        self.rse.drain()          # flush latched Commit_Out
                    return RunResult("halt", pipeline.cycle, event)
                elif kind is EventKind.FAULT:
                    self._handle_fault(event)
                elif kind is EventKind.CHECK_ERROR:
                    result = self._handle_check_error(event)
                    if result is not None:
                        return result
                elif kind is EventKind.MAX_CYCLES:
                    return RunResult("max_cycles", pipeline.cycle)
        except ProcessExit as exit_info:
            return RunResult(exit_info.reason, pipeline.cycle)

    # ------------------------------------------------------------ scheduling

    def _schedule(self, deadline=None):
        """Pick the next thread and switch the pipeline onto it.

        Returns True when a thread was scheduled, False when no thread
        can ever run again (process over), and None when every thread
        sleeps past *deadline* — in that case the pipeline is advanced
        exactly to the deadline, never beyond it, so a bounded run
        (``run_slice``) stays inside its cycle budget even while idle.
        """
        pipeline = self.pipeline
        while True:
            self._wake_sleepers(pipeline.cycle)
            thread = self.scheduler.pick_next()
            if thread is not None:
                break
            sleepers = [t for t in self.threads.values()
                        if t.state is ThreadState.BLOCKED]
            if not sleepers:
                return False
            # Idle until the earliest sleeper wakes, capped at deadline.
            wake = min(t.wake_cycle for t in sleepers)
            if deadline is not None and wake > deadline:
                if deadline > pipeline.cycle:
                    pipeline.advance_cycles(deadline - pipeline.cycle)
                return None
            if wake > pipeline.cycle:
                pipeline.advance_cycles(wake - pipeline.cycle)
        pipeline.advance_cycles(self.config.context_switch_cost)
        self.context_switches += 1
        self.current = thread
        pipeline.regs[:] = thread.regs
        pipeline.resume(thread.pc)
        pipeline.timer_deadline = pipeline.cycle + self.config.quantum_cycles
        if self.rse is not None:
            self.rse.set_current_thread(thread.tid)
        return True

    def _wake_sleepers(self, cycle):
        for thread in self.threads.values():
            if (thread.state is ThreadState.BLOCKED
                    and thread.wake_cycle <= cycle):
                self.scheduler.make_ready(thread)

    def _save_current(self, pc):
        thread = self.current
        thread.pc = pc
        thread.regs = list(self.pipeline.regs)
        self.current = None

    def _handle_timer(self, event):
        self.timer_preemptions += 1
        thread = self.current
        self._save_current(event.pc)
        self.scheduler.make_ready(thread)

    # -------------------------------------------------------------- syscalls

    def _handle_syscall(self, event):
        self.syscalls_handled += 1
        pipeline = self.pipeline
        pipeline.advance_cycles(self.config.syscall_cost)
        regs = pipeline.regs
        number = regs[2]
        a0, a1, a2 = regs[4], regs[5], regs[6]
        next_pc = (event.pc + 4) & MASK32
        thread = self.current

        if number == SYS_EXIT:
            thread.exit_code = a0
            self._terminate(thread)          # clears self.current
            return
        if number == SYS_SPAWN:
            child = self.spawn_thread(a0, arg=a1)
            regs[2] = child.tid
        elif number == SYS_YIELD:
            self._save_current(next_pc)
            self.scheduler.make_ready(thread)
            return
        elif number == SYS_GETTID:
            regs[2] = thread.tid
        elif number == SYS_SBRK:
            regs[2] = self._sbrk(a0)
        elif number == SYS_PRINT_INT:
            self.output.append(("int", a0))
        elif number == SYS_PUTC:
            self.output.append(("char", chr(a0 & 0xFF)))
        elif number == SYS_RECV:
            if self._next_request >= self.requests_total:
                regs[2] = RECV_EXHAUSTED
            else:
                arrivals = self.request_arrivals
                if (arrivals is not None
                        and arrivals[self._next_request] > pipeline.cycle):
                    # Open-loop source: the next request hasn't arrived
                    # yet.  Sleep until it does, then retry the syscall.
                    thread.state = ThreadState.BLOCKED
                    thread.wake_cycle = arrivals[self._next_request]
                    self._save_current(event.pc)
                    return
                request_id = self._next_request
                self._next_request += 1
                regs[2] = request_id
                # io_recv_jitter == 0 means "no jitter": the modulus is
                # never taken with a zero divisor (KernelConfig rejects
                # negative values outright).
                latency = self.config.io_recv_latency
                if self.config.io_recv_jitter:
                    latency += self._rand() % self.config.io_recv_jitter
                thread.state = ThreadState.BLOCKED
                thread.wake_cycle = pipeline.cycle + latency
                self._save_current(next_pc)
                return
        elif number == SYS_SEND:
            self.responses[a0] = a1
            pipeline.advance_cycles(self.config.io_send_cost)
        elif number == SYS_MMAP:
            self._map_range(a0, a1, "rw")
        elif number == SYS_MPROTECT:
            self._map_range(a0, a1, perm_string(a2))
        elif number == SYS_CYCLE:
            regs[2] = pipeline.cycle & MASK32
        elif number == SYS_RAND:
            regs[2] = self._rand()
        elif number == SYS_SLEEP:
            thread.state = ThreadState.BLOCKED
            thread.wake_cycle = pipeline.cycle + max(a0, 1)
            self._save_current(next_pc)
            return
        elif number == SYS_NSEND:
            if self.netif is None:
                self._fault_thread(event.pc, "nsend with no network device")
                return
            pipeline.advance_cycles(self.config.io_send_cost)
            regs[2] = self.netif.send(a0, a1, pipeline.cycle)
        elif number == SYS_NRECV:
            if self.netif is None:
                self._fault_thread(event.pc, "nrecv with no network device")
                return
            thread.net_waiting = False
            delivery = self.netif.poll(pipeline.cycle)
            if delivery is not None:
                regs[2], regs[5] = delivery
            elif a0 & NRECV_POLL:
                regs[2] = NRECV_EMPTY
            else:
                # Block until something is deliverable, then retry the
                # syscall (same re-execute idiom as SYS_JOIN).  The wake
                # cycle is provisional: net_refresh() pulls it in when
                # a datagram is queued for us.
                thread.state = ThreadState.BLOCKED
                thread.net_waiting = True
                upcoming = self.netif.next_delivery()
                thread.wake_cycle = (NET_WAIT if upcoming is None
                                     else max(upcoming, pipeline.cycle + 1))
                self._save_current(event.pc)
                return
        elif number == SYS_JOIN:
            target = self.threads.get(a0)
            if target is None:
                regs[2] = MASK32          # unknown tid
            elif not target.alive:
                regs[2] = (target.exit_code or 0) & MASK32
            else:
                # Re-issue the join after a short block; the syscall
                # retries until the target terminates.
                thread.state = ThreadState.BLOCKED
                thread.wake_cycle = pipeline.cycle + 200
                self._save_current(event.pc)          # re-execute syscall
                return
        else:
            self._fault_thread(event.pc, "unknown syscall %d" % number)
            return
        pipeline.resume(next_pc)

    def _sbrk(self, nbytes):
        old = self.brk
        new = old + nbytes
        self._map_range(old, max(nbytes, 0), "rw")
        self.brk = (new + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        return old

    def _map_range(self, addr, length, perms):
        if length <= 0:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self.page_perms[page] = perms

    def _rand(self):
        self._rng_state = (self._rng_state * 1103515245 + 12345) & MASK32
        return self._rng_state >> 8

    # ----------------------------------------------------- faults & recovery

    def _handle_fault(self, event):
        self._fault_thread(event.pc, event.cause)

    def _fault_thread(self, pc, cause):
        thread = self.current
        thread.fault = (pc, cause)
        self.faults.append((thread.tid, pc, cause))
        self._terminate(thread)
        self.current = None
        if self.recovery is not None:
            try:
                report = self.recovery.recover(self, thread.tid,
                                               self.pipeline.cycle)
            except RecoveryImpossible:
                for other in self.alive_threads():
                    self._terminate(other)
                raise ProcessExit("recovery_impossible")
            self.recovery_reports.append(report)
            return          # survivors keep running via the main loop
        if not self.alive_threads():
            raise ProcessExit("fault")
        # No recovery support: the conservative kill-all policy the paper
        # motivates DDT against.
        for other in self.alive_threads():
            self._terminate(other)
        raise ProcessExit("fault")

    def _terminate(self, thread):
        thread.state = ThreadState.TERMINATED
        self.scheduler.remove(thread)
        if thread is self.current:
            self.current = None

    def terminate_thread(self, tid, by_recovery=False):
        """Terminate *tid* (recovery manager path)."""
        thread = self.threads[tid]
        thread.killed_by_recovery = by_recovery
        self._terminate(thread)

    def _handle_check_error(self, event):
        self.detections.append(event)
        if self.check_error_policy == "retry":
            # Paper (Table 2): the pipeline is flushed and restarts at the
            # same CHECK instruction to attempt recovery.
            self.pipeline.resume(event.pc)
            return None
        thread = self.current
        if thread is not None:
            thread.fault = (event.pc, "check error: %s" % event.cause)
            self._terminate(thread)
        return RunResult("check_error", self.pipeline.cycle, event)

    # ---------------------------------------------------- SavePage handling

    def checkpoint_page(self, page, writer_tid, cycle):
        """OS SavePage exception handler: snapshot the page's pre-image.

        Returns the handler cost in cycles; the pipeline freezes for that
        long ("the process is suspended, and no subsequent stores can be
        executed until the entire memory page has been saved").
        """
        self.checkpoints.save_from(self.memory, page, cycle, writer_tid)
        if self.config.checkpoint_gc_age is not None:
            self.checkpoints.garbage_collect(cycle)
        cost = self.config.savepage_cost
        if cost is None:
            timing = self.pipeline.hierarchy.bus.timing
            cost = 2 * timing.transfer_latency(PAGE_SIZE)
        return cost

    # ----------------------------------------------------------------- stats

    def snapshot(self):
        """The kernel's section of the machine snapshot document."""
        return {
            "threads": {
                "created": len(self.threads),
                "alive": len(self.alive_threads()),
            },
            "context_switches": self.context_switches,
            "syscalls": self.syscalls_handled,
            "timer_preemptions": self.timer_preemptions,
            "faults": len(self.faults),
            "detections": len(self.detections),
            "checkpoints": {
                "saves_total": self.checkpoints.saves_total,
                "gc_removed": self.checkpoints.gc_removed,
            },
            "requests": {
                "provisioned": self.requests_total,
                "received": self._next_request,
                "responded": len(self.responses),
            },
            "net": (self.netif.snapshot() if self.netif is not None
                    else None),
            "output_events": len(self.output),
        }

    def reset_stats(self):
        """Zero scheduling/syscall counters (machine-wide warm-up reset)."""
        self.context_switches = 0
        self.syscalls_handled = 0
        self.timer_preemptions = 0

    # --------------------------------------------------------------- helpers

    def set_request_source(self, count, arrivals=None):
        """Provision *count* network requests for SYS_RECV.

        Request ids are dense, starting at 0, so the id space must stay
        clear of the ``RECV_EXHAUSTED`` sentinel: a source whose id
        range would include 0xFFFFFFFF is refused here, at provision
        time, instead of silently handing a guest an id it cannot tell
        apart from exhaustion.

        *arrivals*, when given, makes the source open-loop: a sorted
        sequence of absolute cycles, one per request; SYS_RECV blocks
        until the next request's arrival cycle before accepting it.
        """
        if count > RECV_EXHAUSTED:
            raise ValueError(
                "request source of %d would provision id 0x%08X, which is "
                "reserved as the RECV_EXHAUSTED sentinel" %
                (count, RECV_EXHAUSTED))
        if arrivals is not None:
            arrivals = tuple(arrivals)
            if len(arrivals) != count:
                raise ValueError("arrival schedule has %d entries for %d "
                                 "requests" % (len(arrivals), count))
            if any(b < a for a, b in zip(arrivals, arrivals[1:])):
                raise ValueError("arrival schedule must be non-decreasing")
            if arrivals and arrivals[0] < 0:
                raise ValueError("arrival cycles must be >= 0")
        self.requests_total = count
        self.request_arrivals = arrivals
        self._next_request = 0
        self.responses.clear()

    # ------------------------------------------------------------ networking

    def net_refresh(self):
        """Re-aim threads blocked in SYS_NRECV at the next delivery.

        Called by the network device after queueing a datagram for this
        node: a blocked receiver's provisional wake cycle (possibly
        NET_WAIT, i.e. "never") is pulled in to the actual delivery
        cycle so the retry happens exactly when the datagram lands.
        """
        if self.netif is None:
            return
        upcoming = self.netif.next_delivery()
        if upcoming is None:
            return
        wake = max(upcoming, self.pipeline.cycle + 1)
        for thread in self.threads.values():
            if (thread.state is ThreadState.BLOCKED and thread.net_waiting
                    and thread.wake_cycle > wake):
                thread.wake_cycle = wake

    def net_idle(self):
        """True when this node cannot progress without a datagram.

        Used by the fleet bridge for distributed-stall detection: every
        alive thread is blocked waiting on the network with nothing in
        flight toward us.
        """
        if self.current is not None or self.scheduler.has_ready():
            return False
        alive = self.alive_threads()
        if not alive:
            return False
        return all(thread.state is ThreadState.BLOCKED
                   and thread.wake_cycle >= NET_WAIT
                   for thread in alive)

    def _heartbeat_os(self):
        if self.os_heartbeat_id is not None and self.rse is not None:
            from repro.rse.check import MODULE_AHBM
            ahbm = self.rse.modules.get(MODULE_AHBM)
            if ahbm is not None:
                ahbm.beat(self.os_heartbeat_id, self.pipeline.cycle)
