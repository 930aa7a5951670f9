"""Data Dependency Tracker (DDT) module — Section 4.2 / Figures 4 and 5.

The DDT tracks page-granularity data dependencies between the threads of
a process so that, after a (possibly malicious) thread crashes, the
healthy threads — those not data-dependent on the faulty one — can keep
running while contaminated pages are rolled back.

Two hardware structures (Figure 4):

* **PST** (page status table): ``PageID -> (write-owner, read-owner)``,
  kept small by LRU replacement ("due to memory access locality, only a
  small number of 'hot' pages need to be kept in the PST");
* **DDM** (data dependency matrix): bit (x, y) set means thread *y* is
  data-dependent on thread *x*; the relation is transitive but not
  symmetric.

Transition rules (the four outcomes enumerated in Section 4.2.1, with
*t* the current thread, *t'* the read-owner, *t''* the write-owner):

1. load,  t == t'  — no action;
2. load,  t != t'  — read-owner := t, log dependency t'' -> t;
3. store, t == t'' — no action;
4. store, t != t'' — SavePage exception: the OS handler checkpoints the
   page (pre-image) while the process is suspended; then both owners
   become t.

Loads are processed from the asynchronous ``Commit_Out`` path (the
module "can lag behind the pipeline in completing the logging of the
dependencies").  Stores use the synchronous :meth:`pre_commit_store`
hook, because the pre-image must be captured before the store retires —
the hardware analogue of the MMU raising the copy-on-write exception.

``model_lag=True`` reproduces the paper's noted imperfection: the module
"may lag behind the pipeline by at most 1 cycle.  If a new load which
creates a new dependency arrives within this time the module fails to
log the dependency" — used by the ablation benchmark.
"""

from repro.memory.mainmem import PAGE_SHIFT
from repro.rse.check import MODULE_DDT, OP_DDT_DUMP
from repro.rse.module import ModuleMode, RSEModule


class DDT(RSEModule):
    """The Data Dependency Tracker."""

    MODULE_ID = MODULE_DDT
    MODE = ModuleMode.ASYNC
    STATE = RSEModule.STATE + ("pst", "ddm", "threads", "dependencies_logged",
                               "dependencies_missed", "save_pages_raised",
                               "pst_evictions", "_last_log_cycle")

    def __init__(self, pst_capacity=4096, model_lag=False):
        super().__init__("DDT")
        self.pst_capacity = pst_capacity
        self.model_lag = model_lag
        self.pst = {}                 # page -> [write_owner, read_owner]
        self.ddm = {}                 # producer tid -> set of consumer tids
        self.threads = set()
        self.save_page_handler = None     # set by the kernel
        self.dependencies_logged = 0
        self.dependencies_missed = 0
        self.save_pages_raised = 0
        self.pst_evictions = 0
        self._last_log_cycle = None

    def _snapshot_extra(self):
        return {
            "dependencies_logged": self.dependencies_logged,
            "dependencies_missed": self.dependencies_missed,
            "save_pages_raised": self.save_pages_raised,
            "pst_evictions": self.pst_evictions,
        }

    def reset_stats(self):
        super().reset_stats()
        self.dependencies_logged = 0
        self.dependencies_missed = 0
        self.save_pages_raised = 0
        self.pst_evictions = 0

    # ------------------------------------------------------------- kernel API

    def register_thread(self, tid):
        self.threads.add(tid)
        self.ddm.setdefault(tid, set())

    def forget_thread(self, tid):
        """Drop a terminated thread from the PST and DDM."""
        self.threads.discard(tid)
        self.ddm.pop(tid, None)
        for consumers in self.ddm.values():
            consumers.discard(tid)
        for owners in self.pst.values():
            if owners[0] == tid:
                owners[0] = None
            if owners[1] == tid:
                owners[1] = None

    def dependents_of(self, tid):
        """Transitive closure of threads data-dependent on *tid*."""
        closure = set()
        frontier = [tid]
        while frontier:
            producer = frontier.pop()
            for consumer in self.ddm.get(producer, ()):
                if consumer != tid and consumer not in closure:
                    closure.add(consumer)
                    frontier.append(consumer)
        return closure

    def reset_tracking(self):
        self.pst.clear()
        for consumers in self.ddm.values():
            consumers.clear()

    # ------------------------------------------------------------- PST access

    def _pst_entry(self, page):
        entry = self.pst.get(page)
        if entry is not None:
            # LRU touch: move to MRU position.
            del self.pst[page]
            self.pst[page] = entry
            return entry
        if len(self.pst) >= self.pst_capacity:
            self.pst.pop(next(iter(self.pst)))
            self.pst_evictions += 1
        entry = [None, None]
        self.pst[page] = entry
        return entry

    # ---------------------------------------------------------------- inputs

    def on_commit(self, uop, cycle):
        """Asynchronous dependency logging for committed loads."""
        if not uop.instr.is_load or uop.eff_addr is None:
            return
        tid = self.engine.current_tid
        page = uop.eff_addr >> PAGE_SHIFT
        entry = self._pst_entry(page)
        write_owner, read_owner = entry
        if read_owner == tid:
            return          # outcome (1): no action
        entry[1] = tid
        if write_owner is None or write_owner == tid:
            return
        if self.model_lag and self._last_log_cycle is not None \
                and cycle - self._last_log_cycle <= 1:
            self.dependencies_missed += 1
            return
        self._last_log_cycle = cycle
        if tid not in self.ddm.setdefault(write_owner, set()):
            self.ddm[write_owner].add(tid)
            self.dependencies_logged += 1

    def pre_commit_store(self, uop, cycle):
        """Synchronous SavePage path for stores (outcome 4)."""
        if not uop.instr.is_store or uop.eff_addr is None:
            return 0
        tid = self.engine.current_tid
        page = uop.eff_addr >> PAGE_SHIFT
        entry = self._pst_entry(page)
        if entry[0] == tid:
            return 0          # outcome (3): already the write-owner
        self.save_pages_raised += 1
        stall = 0
        if self.save_page_handler is not None:
            stall = self.save_page_handler(page, tid, cycle)
        entry[0] = tid
        entry[1] = tid
        return stall

    def on_check(self, uop, entry, cycle):
        if uop.instr.op == OP_DDT_DUMP:
            self._dump(entry, cycle)
        else:
            self.finish_check(entry, False, cycle)

    # ------------------------------------------------------------------ dump

    def _dump(self, entry, cycle):
        """The "size query and retrieval" CHECK: serialise DDM to memory.

        Format at a0: word count N of registered threads, then N thread
        ids, then N*N dependency bits packed one byte per cell (row =
        producer, column = consumer).
        """
        dest = (entry.payload or (0, 0))[0]
        tids = sorted(self.threads)
        blob = bytearray()
        blob += len(tids).to_bytes(4, "little")
        for tid in tids:
            blob += tid.to_bytes(4, "little")
        for producer in tids:
            consumers = self.ddm.get(producer, set())
            for consumer in tids:
                blob.append(1 if consumer in consumers else 0)
        # Tag-based completion (no closure) so a pending dump survives a
        # machine checkpoint/restore.
        self.engine.mau.store(self.name, dest, bytes(blob),
                              module=self, tag=entry)

    def on_mau_complete(self, request):
        """The serialised DDM reached memory: release the waiting CHECK."""
        self.finish_check(request.tag, False, self.engine.cycle)
