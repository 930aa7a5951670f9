"""The recovery algorithm (Section 4.2.2 and the Figure 8 scenario).

On a thread crash:

1. query the DDM for the transitive closure of threads data-dependent on
   the faulty thread — these, plus the faulty thread, form the kill set
   ("we identify and terminate all threads that are data-dependent on
   tf");
2. undo the memory updates of the kill set: every page whose checkpoint
   history shows a kill-set thread becoming write-owner is restored to
   the pre-image captured just before that first contaminating store
   ("the memory updates due to tf and its dependent threads are undone
   so that they do not impact the future execution of the healthy
   threads");
3. surviving threads "continue executing ... from where they are last
   suspended by the scheduler" — no execution rollback, because a
   healthy thread by definition consumed no kill-set data;
4. if a needed snapshot was garbage-collected, the whole process is
   terminated (:class:`~repro.kernel.checkpoints.RecoveryImpossible`
   propagates to the kernel).

The paper defers algorithmic details to the first author's thesis [38];
step 2's "earliest contaminating snapshot" rule is our concrete
realisation and is documented as such in DESIGN.md.
"""


class RecoveryReport:
    """What one recovery pass did."""

    def __init__(self, faulty_tid, kill_set, pages_restored, survivors,
                 cycle):
        self.faulty_tid = faulty_tid
        self.kill_set = set(kill_set)
        self.pages_restored = list(pages_restored)
        self.survivors = set(survivors)
        self.cycle = cycle

    def __repr__(self):
        return ("RecoveryReport(faulty=%d, killed=%s, pages=%d, "
                "survivors=%s)" % (self.faulty_tid, sorted(self.kill_set),
                                   len(self.pages_restored),
                                   sorted(self.survivors)))


class RecoveryManager:
    """System-software recovery driver over DDT + checkpoint state.

    The kernel holds its manager (``kernel.recovery``, which every
    checkpoint captures) and passes itself to :meth:`recover`; the
    manager keeps no reference back, so the pair forms no cycle.
    """

    def __init__(self, ddt):
        self.ddt = ddt

    def recover(self, kernel, faulty_tid, cycle):
        """Run recovery of *kernel*'s thread *faulty_tid*; returns a report.

        Raises :class:`RecoveryImpossible` when required snapshots were
        garbage-collected, in which case the kernel must kill the whole
        process.
        """
        kill_set = {faulty_tid} | self.ddt.dependents_of(faulty_tid)
        checkpoints = kernel.checkpoints
        memory = kernel.memory

        # Determine the rollback set *before* mutating anything, so a
        # RecoveryImpossible leaves memory untouched for the kill-all path.
        to_restore = []
        for page in checkpoints.pages_touched():
            snapshot = checkpoints.rollback_snapshot(page, kill_set)
            if snapshot is not None:
                to_restore.append(snapshot)

        for snapshot in to_restore:
            memory.restore_page(snapshot.page, snapshot.data)

        for tid in kill_set:
            thread = kernel.threads.get(tid)
            if thread is not None and thread.alive:
                kernel.terminate_thread(tid, by_recovery=True)
            self.ddt.forget_thread(tid)

        survivors = {t.tid for t in kernel.alive_threads()}
        return RecoveryReport(faulty_tid, kill_set,
                              [s.page for s in to_restore], survivors, cycle)
