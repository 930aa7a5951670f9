"""Instruction Checker Module (ICM) — Section 4.3.

The ICM "preemptively checks for errors in an instruction just at the
time the instruction is dispatched, by comparing the binary of the
instruction in the pipeline with a redundant copy of the instruction
fetched from memory", covering multi-bit errors anywhere between memory
and dispatch (including residency in the on-chip caches).

Implementation points reproduced from the paper:

* the program is statically parsed and all checked instructions are
  stored **contiguously** in a separate chunk of memory (the
  *CheckerMemory*) — :func:`build_checker_memory`, which
  :func:`arm_icm` pairs with the ICM's configuration and the CHECK
  injector;
* a dedicated cache (*Icm_Cache*, default 256 entries) inside the ICM
  reduces CheckerMemory traffic; LRU replacement with a replacement
  group of 8 entries — contiguous placement makes a single fetch bring
  in 8 neighbouring checked instructions (spatial locality);
* the module is a three-stage pipeline (ICM_IDLE scans Fetch_Out,
  ICM_MEMREQ awaits the redundant copy, ICM_COMP compares and writes
  the IOQ);
* Figure 6 timeline: on an Icm_Cache hit the comparison result reaches
  the IOQ two cycles after the CHECK is seen, so it is available to the
  commit stage at t+5 — normally before the instruction is ready to
  retire;
* on a miss the redundant copy comes through the MAU at main-memory
  latency, which is when the pipeline can stall at commit.
"""

from repro.isa.encoding import encode
from repro.isa.instructions import SPEC_BY_NAME
from repro.rse.check import MODULE_ICM, OP_ICM_CHECK
from repro.rse.module import ModuleMode, RSEModule

#: Default base address of the CheckerMemory region.
CHECKER_MEMORY_BASE = 0x20000000

#: Figure 6: cache access + comparison, in cycles, after the CHECK (and
#: the checked instruction) have been seen in Fetch_Out.
HIT_PIPELINE_CYCLES = 2
#: Comparison stage alone (applied after a missing copy arrives).
COMPARE_CYCLES = 1


# Coverage predicates: Section 4.3 — "the instruction checked can be a
# control flow, load/store or a critical code section of the application".

def cover_control(instr):
    """Check all control-flow instructions (the Table 4 configuration)."""
    return instr.is_control


def cover_memory(instr):
    """Check all loads and stores."""
    return instr.is_mem


def cover_all(instr):
    """Check every instruction (maximum coverage, maximum cost)."""
    return not instr.is_check


def cover_region(lo, hi):
    """Check a critical code section: every instruction in [lo, hi).

    Region predicates receive ``(instr, pc)``; :func:`build_checker_memory`
    detects the two-argument form automatically.
    """
    def predicate(instr, pc):
        return lo <= pc < hi

    return predicate


def build_checker_memory(memory, text_base, text_length, base=CHECKER_MEMORY_BASE,
                         predicate=None):
    """Statically parse a text segment and build the CheckerMemory.

    Every instruction selected by *predicate* (default: all control-flow
    instructions, the configuration evaluated in Table 4) has its word
    copied to a contiguous slot starting at *base*.  Returns the
    ``pc -> checker_address`` map the ICM is configured with.
    """
    import inspect

    from repro.isa.encoding import DecodeError, decode

    if predicate is None:
        predicate = cover_control
    wants_pc = len(inspect.signature(predicate).parameters) == 2
    checker_map = {}
    slot = base
    for offset in range(0, text_length, 4):
        pc = text_base + offset
        word = memory.load_word(pc)
        try:
            instr = decode(word)
        except DecodeError:
            continue
        selected = predicate(instr, pc) if wants_pc else predicate(instr)
        if selected:
            memory.store_word(slot, word)
            checker_map[pc] = slot
            slot += 4
    return checker_map


def make_icm_injector(checker_map):
    """Runtime CHECK-insertion policy for the pipeline (Section 5.1).

    Returns a callable for ``Pipeline.check_injector`` that inserts a
    blocking ICM CHECK before every instruction whose PC has a
    CheckerMemory slot.
    """
    from repro.isa.encoding import decode

    chk_word = encode(SPEC_BY_NAME["chk"], module=MODULE_ICM, blk=1,
                      op=OP_ICM_CHECK)
    chk_instr = decode(chk_word)

    def injector(pc, instr):
        if pc in checker_map:
            return chk_instr
        return None

    return injector


def arm_icm(machine, text_base, text_length, predicate=None):
    """Point *machine*'s attached ICM at the loaded text; returns the map.

    Builds the CheckerMemory for ``[text_base, text_base +
    text_length)`` (*predicate* as in :func:`build_checker_memory`),
    configures and enables the ICM, and installs the CHECK injector on
    the pipeline, in that order.
    """
    checker_map = build_checker_memory(machine.memory, text_base,
                                       text_length, predicate=predicate)
    machine.module(MODULE_ICM).configure(checker_map)
    machine.rse.enable_module(MODULE_ICM)
    machine.pipeline.check_injector = make_icm_injector(checker_map)
    return checker_map


class _InflightCheck:
    """One check moving through the ICM's internal pipeline."""

    __slots__ = ("entry", "pc", "pipeline_word", "checker_addr", "due_cycle",
                 "redundant_word", "seq")

    def __init__(self, entry, seq, pc, pipeline_word, checker_addr):
        self.entry = entry
        self.seq = seq
        self.pc = pc
        self.pipeline_word = pipeline_word
        self.checker_addr = checker_addr
        self.due_cycle = None
        self.redundant_word = None


class ICM(RSEModule):
    """The Instruction Checker Module."""

    MODULE_ID = MODULE_ICM
    MODE = ModuleMode.SYNC
    STATE = RSEModule.STATE + ("checker_map", "_cache", "_waiting",
                               "_inflight", "cache_hits", "cache_misses",
                               "checks_completed", "mismatches",
                               "unmapped_checks")

    def __init__(self, cache_entries=256, replacement_group=8):
        super().__init__("ICM")
        self.cache_entries = cache_entries
        self.replacement_group = replacement_group
        self.checker_map = {}
        # Icm_Cache: checker word address -> word; dict order is LRU order.
        self._cache = {}
        self._waiting = {}            # seq of checked instr -> (chk uop, entry)
        self._inflight = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.checks_completed = 0
        self.mismatches = 0
        self.unmapped_checks = 0

    def configure(self, checker_map):
        """Install the pc -> CheckerMemory-slot map from the static parse."""
        self.checker_map = dict(checker_map)

    # --------------------------------------------------------------- inputs

    def on_check(self, uop, entry, cycle):
        if uop.instr.op != OP_ICM_CHECK:
            entry.complete(False, cycle)
            return
        # The instruction to check follows the CHECK in the stream; its
        # Fetch_Out entry carries the binary as fetched by the pipeline.
        self._waiting[uop.seq + 1] = (uop, entry)

    def on_fetch(self, uop, cycle):
        """A CHECK's successor: compare it if an ICM CHECK waits for it."""
        pending = self._waiting.pop(uop.seq, None)
        if pending is None:
            return
        chk_uop, entry = pending
        checker_addr = self.checker_map.get(uop.pc)
        if checker_addr is None:
            # No redundant copy was provisioned for this PC; nothing to
            # compare against — treat as unchecked.
            self.unmapped_checks += 1
            self.finish_check(entry, False, cycle)
            return
        check = _InflightCheck(entry, chk_uop.seq, uop.pc, uop.instr.word,
                               checker_addr)
        if checker_addr in self._cache:
            word = self._cache.pop(checker_addr)
            self._cache[checker_addr] = word          # LRU touch
            self.cache_hits += 1
            check.redundant_word = word
            check.due_cycle = cycle + HIT_PIPELINE_CYCLES
        else:
            self.cache_misses += 1
            self._request_fill(check, cycle)
        self._inflight.append(check)

    def _request_fill(self, check, cycle):
        """ICM_MEMREQ: fetch a replacement group through the MAU.

        The request carries the in-flight check as its *tag* (no closure)
        so a machine checkpointed mid-miss restores with the fill still
        pending and deliverable.
        """
        group_bytes = self.replacement_group * 4
        group_base = check.checker_addr - (check.checker_addr % group_bytes)
        self.engine.mau.load(self.name, group_base, group_bytes,
                             module=self, tag=check)

    def on_mau_complete(self, request):
        """A replacement group arrived: install it and start the compare."""
        check = request.tag
        data = request.result
        # Install the whole group (contiguous checked instructions).
        for index in range(self.replacement_group):
            addr = request.addr + index * 4
            word = int.from_bytes(data[index * 4:index * 4 + 4], "little")
            self._cache.pop(addr, None)
            self._cache[addr] = word
        self._evict_to_capacity()
        check.redundant_word = self._cache[check.checker_addr]
        check.due_cycle = self.engine.cycle + COMPARE_CYCLES

    def _evict_to_capacity(self):
        """Drop least-recently-used entries, a replacement group at a time."""
        while len(self._cache) > self.cache_entries:
            for __ in range(min(self.replacement_group,
                                len(self._cache) - self.cache_entries)):
                self._cache.pop(next(iter(self._cache)))

    # ----------------------------------------------------------------- step

    def step(self, cycle):
        if not self._inflight:
            return False
        remaining = []
        for check in self._inflight:
            if check.due_cycle is None or check.due_cycle > cycle:
                remaining.append(check)
                continue
            error = check.redundant_word != check.pipeline_word
            if error:
                self.mismatches += 1
            self.checks_completed += 1
            self.finish_check(check.entry, error, cycle)
        completed = len(remaining) != len(self._inflight)
        self._inflight = remaining
        return completed

    def next_event(self, cycle):
        """The soonest in-flight compare; checks still awaiting their
        redundant copy wait on the MAU, which answers for itself."""
        due = [check.due_cycle for check in self._inflight
               if check.due_cycle is not None]
        return min(due) if due else None

    def on_squash(self, seqs, cycle):
        self._waiting = {seq: pending for seq, pending in self._waiting.items()
                         if pending[0].seq not in seqs and seq not in seqs}
        self._inflight = [check for check in self._inflight
                          if check.seq not in seqs]

    # ---------------------------------------------------------------- stats

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def _snapshot_extra(self):
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "checks_completed": self.checks_completed,
            "mismatches": self.mismatches,
            "unmapped_checks": self.unmapped_checks,
        }

    def reset_stats(self):
        super().reset_stats()
        self.cache_hits = 0
        self.cache_misses = 0
        self.checks_completed = 0
        self.mismatches = 0
        self.unmapped_checks = 0
