"""Memory bus timing, and the arbiter shared by the pipeline and the MAU.

Memory access is pipelined (Section 4.3): the first chunk (one bus width)
of a transfer arrives after a long initial latency and each subsequent
chunk after a short inter-chunk latency.  The paper's evaluation uses

* baseline:   first chunk 18 cycles, inter-chunk 2 cycles;
* framework:  first chunk 19 cycles, inter-chunk 3 cycles —
  the +1 cycle being the arbiter inserted between the L2 caches and
  memory so the RSE's Memory Access Unit (MAU) can share the bus
  (Table 3 rationale: arbitrating on the rarely-used L2<->memory path
  rather than the hot L1<->CPU path).

The :class:`MemoryBus` also models *occupancy*: concurrent transfers
serialise, and the pipeline always wins arbitration against the MAU.
"""


class BusTiming:
    """Latency parameters for the pipelined memory interface."""

    __slots__ = ("first_chunk", "inter_chunk", "bus_width")

    def __init__(self, first_chunk, inter_chunk, bus_width=8):
        self.first_chunk = first_chunk
        self.inter_chunk = inter_chunk
        self.bus_width = bus_width

    def transfer_latency(self, nbytes):
        """Cycles to move *nbytes* from/to memory."""
        if nbytes <= 0:
            return 0
        chunks = -(-nbytes // self.bus_width)
        return self.first_chunk + (chunks - 1) * self.inter_chunk

    def __repr__(self):
        return "BusTiming(first=%d, inter=%d, width=%d)" % (
            self.first_chunk, self.inter_chunk, self.bus_width)


#: Section 5.2: baseline memory timing (no RSE attached).
BASELINE_TIMING = BusTiming(first_chunk=18, inter_chunk=2)
#: Section 5.2: timing with the RSE arbiter on the memory path (+1 cycle).
FRAMEWORK_TIMING = BusTiming(first_chunk=19, inter_chunk=3)


class MemoryBus:
    """Shared, occupancy-tracked memory bus with pipeline-priority arbitration.

    Callers ask for a transfer starting at the current cycle; the bus
    returns the completion cycle, accounting for an in-flight transfer.
    The pipeline (CPU) path is called first each machine cycle, which
    realises the paper's "main pipeline has higher priority" rule: an MAU
    request issued in the same cycle queues behind the CPU's.
    """

    #: What a checkpoint carries (:mod:`repro.checkpoint`); the
    #: hierarchy refills its live bus with these, so the timing stays.
    STATE = ("busy_until", "cpu_transfers", "mau_transfers",
             "mau_wait_cycles")

    def __init__(self, timing):
        self.timing = timing
        self.busy_until = 0
        self.cpu_transfers = 0
        self.mau_transfers = 0
        self.mau_wait_cycles = 0

    def __deepcopy__(self, memo):
        # A clone holding only STATE, all ints.  Generic deepcopy would
        # read ``__dict__``, which costs CPython's inline-values
        # attribute fast path on this per-miss object for good.
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name in self.STATE:
            setattr(clone, name, getattr(self, name))
        return clone

    def cpu_transfer(self, now, nbytes):
        """Start a pipeline-side transfer; returns its completion cycle."""
        start = max(now, self.busy_until)
        done = start + self.timing.transfer_latency(nbytes)
        self.busy_until = done
        self.cpu_transfers += 1
        return done

    def mau_transfer(self, now, nbytes):
        """Start an MAU-side transfer; returns its completion cycle.

        Waits for any in-flight transfer (the CPU always schedules first
        within a cycle, so the pipeline wins simultaneous requests).
        """
        start = max(now, self.busy_until)
        self.mau_wait_cycles += start - now
        done = start + self.timing.transfer_latency(nbytes)
        self.busy_until = done
        self.mau_transfers += 1
        return done

    def snapshot(self):
        """The bus's section of the machine snapshot document."""
        return {
            "cpu_transfers": self.cpu_transfers,
            "mau_transfers": self.mau_transfers,
            "mau_wait_cycles": self.mau_wait_cycles,
        }

    def reset_stats(self):
        self.cpu_transfers = 0
        self.mau_transfers = 0
        self.mau_wait_cycles = 0
