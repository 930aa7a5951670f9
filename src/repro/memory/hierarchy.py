"""Composed cache hierarchy with the paper's simulated configuration.

Figure 1 of the paper lists split L1 and split L2 caches:

=========  =======  ======  ===========
cache      size     assoc   block
=========  =======  ======  ===========
il1        8 KB     1-way   32 B
dl1        8 KB     1-way   32 B
il2        64 KB    2-way   32 B
dl2        128 KB   2-way   32 B
=========  =======  ======  ===========

Hit latencies are 1 cycle (L1) and 6 cycles (L2); an L2 miss performs a
pipelined block transfer over the :class:`~repro.memory.bus.MemoryBus`
(18 + 2/chunk baseline, 19 + 3/chunk with the RSE arbiter attached).
"""

from repro.memory.bus import MemoryBus
from repro.memory.cache import Cache

L1_HIT_LATENCY = 1
L2_HIT_LATENCY = 6
DEFAULT_BLOCK_BYTES = 32


class CacheConfig:
    """Geometry for one cache level."""

    __slots__ = ("name", "size_bytes", "assoc", "block_bytes")

    def __init__(self, name, size_bytes, assoc, block_bytes=DEFAULT_BLOCK_BYTES):
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes

    def build(self):
        return Cache(self.name, self.size_bytes, self.assoc, self.block_bytes)


def default_cache_configs():
    """The paper's simulated cache configuration (Figure 1)."""
    return {
        "il1": CacheConfig("il1", 8 * 1024, 1),
        "dl1": CacheConfig("dl1", 8 * 1024, 1),
        "il2": CacheConfig("il2", 64 * 1024, 2),
        "dl2": CacheConfig("dl2", 128 * 1024, 2),
    }


class MemoryHierarchy:
    """Split two-level cache hierarchy over one shared memory bus.

    All methods take the current cycle and return the cycle at which the
    access completes, so bus occupancy (and therefore MAU contention) is
    modelled naturally.
    """

    #: What a checkpoint carries (:mod:`repro.checkpoint`): the caches
    #: and bus, each refilled in place with its own ``STATE``, so probes
    #: on them keep counting and their geometry and timing stay put.
    STATE = ("il1", "dl1", "il2", "dl2", "bus")
    REFILL = STATE

    def __init__(self, bus_timing, configs=None):
        configs = configs or default_cache_configs()
        self.il1 = configs["il1"].build()
        self.dl1 = configs["dl1"].build()
        self.il2 = configs["il2"].build()
        self.dl2 = configs["dl2"].build()
        self.bus = MemoryBus(bus_timing)
        self.l1_latency = L1_HIT_LATENCY
        self.l2_latency = L2_HIT_LATENCY

    # ------------------------------------------------------------- access

    def _access(self, l1, l2, now, addr, is_write):
        hit, __ = l1.access(addr, is_write)
        done = now + self.l1_latency
        if hit:
            return done
        hit, writeback = l2.access(addr, is_write=False)
        done += self.l2_latency
        if hit:
            return done
        done = self.bus.cpu_transfer(done, l2.block_bytes)
        if writeback is not None:
            # The dirty victim drains after the demand fill completes.
            self.bus.cpu_transfer(done, l2.block_bytes)
        return done

    def ifetch(self, now, addr):
        """Instruction fetch of one block through il1/il2."""
        return self._access(self.il1, self.il2, now, addr, is_write=False)

    def dload(self, now, addr):
        """Data load through dl1/dl2."""
        return self._access(self.dl1, self.dl2, now, addr, is_write=False)

    def dstore(self, now, addr):
        """Data store (write-back, write-allocate) through dl1/dl2."""
        return self._access(self.dl1, self.dl2, now, addr, is_write=True)

    def mau_access(self, now, nbytes):
        """Memory access on behalf of the RSE's MAU.

        Bypasses the caches entirely (Section 3.2: framework accesses
        "do not pollute the cache with data that is irrelevant to the
        application") and arbitrates for the bus at CPU-loses-nothing
        priority.
        """
        return self.bus.mau_transfer(now, nbytes)

    # -------------------------------------------------------------- stats

    def snapshot(self):
        """The memory section of the machine snapshot document."""
        return {
            "il1": self.il1.snapshot(),
            "dl1": self.dl1.snapshot(),
            "il2": self.il2.snapshot(),
            "dl2": self.dl2.snapshot(),
            "bus": self.bus.snapshot(),
        }

    def reset_stats(self):
        for cache in (self.il1, self.dl1, self.il2, self.dl2):
            cache.stats.reset()
        self.bus.reset_stats()
