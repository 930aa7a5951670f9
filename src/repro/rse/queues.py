"""The RSE input interface queues (Section 3.1).

Five queues deliver pipeline state into the framework:

* ``Fetch_Out``    — instructions entering the window;
* ``Regfile_Data`` — operand values;
* ``Execute_Out``  — ALU results / effective addresses;
* ``Memory_Out``   — values loaded from memory;
* ``Commit_Out``   — committed and squashed instructions.

Table 3: pipeline outputs are latched into a register before reaching
the framework, so "information passed by the pipeline is available to
the framework only after a delay of one cycle".  The queues implement
that latch: an item enqueued at cycle *c* becomes visible at *c + 1*.
Queue depth equals the re-order buffer size (Section 3.1).

A port latches an item only when an attached module reads it (the
engine works that out on every attach and detach), and the pipeline
calls a port's hook only for CHECKs unless something reads it
(:attr:`repro.rse.engine.RSE.reads`).  A queue's ``pushed_total``
counts every item the pipeline had for the port, latched or not: the
pipeline keeps those counts and hands them over
(:meth:`repro.rse.engine.RSE.count_inputs`), so pushing an item counts
nothing.  Only the queues the engine marks live can hold items, and
only those are scanned for due items and squash flushes.
"""

from collections import deque

LATCH_DELAY = 1


class InputQueue:
    """One latched input queue feeding the framework."""

    def __init__(self, name, depth=16):
        self.name = name
        self.depth = depth
        self._items = deque()
        self.pushed_total = 0          # items the port had, latched or not
        self.dropped_overflow = 0

    def push(self, cycle, payload):
        """Latch *payload*; it becomes visible at ``cycle + LATCH_DELAY``."""
        if len(self._items) >= self.depth:
            # Cannot happen when depth == ROB size (at most one entry per
            # in-flight instruction), but guard against misconfiguration.
            self.dropped_overflow += 1
            self._items.popleft()
        self._items.append((cycle + LATCH_DELAY, payload))

    def pop_ready(self, cycle):
        """Return (and consume) every item visible at *cycle*, in order."""
        ready = []
        items = self._items
        while items and items[0][0] <= cycle:
            ready.append(items.popleft()[1])
        return ready

    def discard(self, predicate):
        """Drop queued items matching *predicate* (squash handling)."""
        self._items = deque(item for item in self._items
                            if not predicate(item[1]))

    def __len__(self):
        return len(self._items)


class InputInterface:
    """The full set of input queues, sized to the ROB."""

    QUEUE_NAMES = ("fetch_out", "regfile_data", "execute_out", "memory_out",
                   "commit_out")

    def __init__(self, depth=16):
        self.fetch_out = InputQueue("Fetch_Out", depth)
        self.regfile_data = InputQueue("Regfile_Data", depth)
        self.execute_out = InputQueue("Execute_Out", depth)
        self.memory_out = InputQueue("Memory_Out", depth)
        self.commit_out = InputQueue("Commit_Out", depth)
        self._queues = tuple(getattr(self, name) for name in self.QUEUE_NAMES)
        # Until the engine wires the ports, every queue can hold items.
        self._live = self._queues

    def all_queues(self):
        return list(self._queues)

    def set_live(self, live):
        """Let only the queues in *live* hold items; empty the others."""
        self._live = tuple(queue for queue in self._queues if queue in live)
        for queue in self._queues:
            if queue not in self._live:
                queue._items.clear()

    def next_due(self):
        """The soonest cycle any queued item becomes visible, or None."""
        soonest = None
        for queue in self._live:
            items = queue._items
            if items and (soonest is None or items[0][0] < soonest):
                soonest = items[0][0]
        return soonest

    def discard_squashed(self, seqs):
        """Flush queued entries of the squashed instructions in set *seqs*.

        Section 3.1: "the RSE uses this information to flush the input
        queues ... no speculative state is maintained in the RSE modules."
        Commit_Out keeps its items: squash notices travel through it.
        """
        commit_out = self.commit_out
        for queue in self._live:
            if queue._items and queue is not commit_out:
                queue.discard(lambda payload: payload[0] in seqs)
