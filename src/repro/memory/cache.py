"""Set-associative cache timing model (write-back, write-allocate, LRU).

Matches SimpleScalar's cache module in spirit: the cache decides hit or
miss and tracks dirty state; actual data always lives in main memory.
The paper's simulated configuration (Figure 1) is:

========  ======  =============
il1       8 KB    direct-mapped
dl1       8 KB    direct-mapped
il2       64 KB   2-way
dl2       128 KB  2-way
========  ======  =============
"""


class CacheStats:
    """Counters reported in Table 4 (#accesses, miss rate)."""

    __slots__ = ("accesses", "hits", "misses", "writebacks")

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def snapshot(self):
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }


class Cache:
    """One cache level.

    Sets are dicts ``tag -> dirty_flag`` whose insertion order is the LRU
    order (Python dicts preserve insertion order; re-inserting on access
    moves a tag to MRU position).  This gives true-LRU with O(1) hits.

    ``_sets`` maps a set index to its set and holds only sets that have
    held a block: a never-touched set is empty, so creating it on its
    first miss changes no hit, victim or counter.  Building a cache, and
    copying or pickling one, costs what its run touched rather than its
    geometry (the Figure 1 caches have 3,584 sets between them).
    """

    #: What a checkpoint carries (:mod:`repro.checkpoint`); the
    #: hierarchy refills a live cache with these, so its geometry stays.
    STATE = ("_sets", "stats")

    def __init__(self, name, size_bytes, assoc, block_bytes):
        if size_bytes % (assoc * block_bytes):
            raise ValueError("cache geometry does not divide evenly")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (assoc * block_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._block_shift = block_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._sets = {}                  # set index -> resident set
        self.stats = CacheStats()

    @property
    def geometry(self):
        """What a checkpoint's sets are indexed under: a restore refuses
        a cache of another geometry (:func:`repro.checkpoint.restore`)."""
        return self.size_bytes, self.assoc, self.block_bytes

    def __deepcopy__(self, memo):
        """An independent cache of the same geometry with a copy of
        :attr:`STATE`.  The generic machinery would pay a deepcopy
        dispatch per resident tag; set contents are int->bool, so a plain
        dict copy per resident set is already a deep copy."""
        clone = memo[id(self)] = type(self)(
            self.name, self.size_bytes, self.assoc, self.block_bytes)
        clone._sets = {index: dict(block_set)
                       for index, block_set in self._sets.items()}
        for field in CacheStats.__slots__:
            setattr(clone.stats, field, getattr(self.stats, field))
        return clone

    # ------------------------------------------------------------ access

    def access(self, addr, is_write=False):
        """Access one block.  Returns ``(hit, writeback_block_addr_or_None)``.

        On a miss the block is allocated (write-allocate); if a dirty
        victim is evicted its block address is returned so the caller can
        charge a writeback transfer.
        """
        block = addr >> self._block_shift
        cache_set = self._sets.get(block & self._set_mask)
        if cache_set is None:                 # first touch: an empty set
            cache_set = self._sets[block & self._set_mask] = {}
        stats = self.stats
        stats.accesses += 1
        if block in cache_set:
            stats.hits += 1
            dirty = cache_set.pop(block) or is_write
            cache_set[block] = dirty          # move to MRU
            return True, None
        stats.misses += 1
        writeback = None
        if len(cache_set) >= self.assoc:
            victim, dirty = next(iter(cache_set.items()))
            del cache_set[victim]
            if dirty:
                stats.writebacks += 1
                writeback = victim << self._block_shift
        cache_set[block] = is_write
        return False, writeback

    def snapshot(self):
        """This level's section of the machine snapshot document."""
        return self.stats.snapshot()

    def probe(self, addr):
        """Return True when the block containing *addr* is resident.

        Does not touch LRU state or statistics.
        """
        block = addr >> self._block_shift
        return block in self._sets.get(block & self._set_mask, ())

    def flush(self):
        """Invalidate every block; returns the number of dirty lines dropped."""
        dirty_lines = 0
        for cache_set in self._sets.values():
            dirty_lines += sum(1 for dirty in cache_set.values() if dirty)
        self._sets.clear()
        return dirty_lines

    def block_addr(self, addr):
        """Base address of the block containing *addr*."""
        return (addr >> self._block_shift) << self._block_shift

    def __repr__(self):
        return "Cache(%s: %dB, %d-way, %dB blocks)" % (
            self.name, self.size_bytes, self.assoc, self.block_bytes)
