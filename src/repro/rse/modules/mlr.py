"""Memory Layout Randomization (MLR) module — Section 4.1 / Figure 3.

The randomization task is split between the program loader and this
module.  The loader assembles a *special header* (segment locations and
sizes, stack/heap/shared-library bases) and drives the module with the
CHECK sequence I0..I11 of Figure 3(A):

====  ==================  ================================================
I1    OP_MLR_EXEC_HDR     a0 = header location, a1 = header size
I2    OP_MLR_PI_RAND      randomize position-independent regions: parse
                          the header, add a value derived from the clock
                          cycle counter to each base, write the results
                          to predefined memory locations
I5    OP_MLR_GOT_OLD      a0 = old GOT address, a1 = GOT size (bytes)
I6    OP_MLR_GOT_NEW      a0 = new GOT address
I7    OP_MLR_COPY_GOT     hardware copy old GOT -> GOT buffer -> new GOT
I8    OP_MLR_PLT_INFO     a0 = PLT address, a1 = PLT size (bytes)
I10   OP_MLR_WRITE_PLT    copy PLT into the PLT buffer, rewrite every
                          entry to point into the new GOT (four adders
                          update 4 entries in parallel), write back
====  ==================  ================================================

All memory traffic goes through the framework's MAU.  The entropy source
is the clock cycle counter, exactly as in Figure 3(B); tests may inject
a deterministic source.  :class:`FunctionalMLR` performs the same
operations synchronously for the functional engines, which have no RSE.
"""

import weakref

from repro.memory.mainmem import PAGE_SIZE
from repro.program.image import ExecutableHeader, PLT_ENTRY_BYTES, rewrite_plt
from repro.program.layout import (
    MLR_RESULT_HEAP,
    MLR_RESULT_SHLIB,
    MLR_RESULT_STACK,
)
from repro.rse.check import (
    MODULE_MLR,
    OP_DISABLE,
    OP_ENABLE,
    OP_MLR_COPY_GOT,
    OP_MLR_EXEC_HDR,
    OP_MLR_GOT_NEW,
    OP_MLR_GOT_OLD,
    OP_MLR_PI_RAND,
    OP_MLR_PLT_INFO,
    OP_MLR_WRITE_PLT,
)
from repro.rse.module import ModuleMode, RSEModule

#: Register-transfer cycles for parsing the header and the three parallel
#: adds of Figure 3(B) (one cycle to parse/latch, one for the adders).
PARSE_AND_ADD_CYCLES = 2
#: Adders available for parallel PLT entry updates (Section 5.3: "4
#: adders are used to update the PLT Table entries in parallel").
PLT_ADDERS = 4

MASK32 = 0xFFFFFFFF


def cycle_counter_entropy(cycle):
    """Derive a page-aligned random offset from the clock cycle counter.

    The paper "computes the randomized address values ... by adding the
    value from the clock cycle counter".  Adding the raw counter would
    break alignment, so the hardware masks it to whole pages; the
    multiplier spreads low-entropy early-boot counter values across the
    offset range.
    """
    pages = ((cycle * 2654435761) >> 8) & 0x3FF          # up to 1023 pages
    return (pages | 1) * PAGE_SIZE


def randomize_bases(header, now, entropy_source):
    """Figure 3(B)'s three parallel adds at cycle counter value *now*.

    Returns ``(bases, results)``: the randomized shlib/stack/heap bases
    by name, and the 12 bytes written to the header's three adjacent
    predefined result words.
    """
    assert (MLR_RESULT_STACK == MLR_RESULT_SHLIB + 4 and
            MLR_RESULT_HEAP == MLR_RESULT_SHLIB + 8)
    shlib = (header.shlib_base + entropy_source(now)) & MASK32
    heap = (header.heap_base + entropy_source(now + 1)) & MASK32
    stack = (header.stack_base - entropy_source(now + 2)) & MASK32
    results = (shlib.to_bytes(4, "little") + stack.to_bytes(4, "little") +
               heap.to_bytes(4, "little"))
    return {"shlib": shlib, "stack": stack, "heap": heap}, results


class MLR(RSEModule):
    """The Memory Layout Randomization module."""

    MODULE_ID = MODULE_MLR
    MODE = ModuleMode.SYNC
    #: MLR writes memory through the MAU; blocking MLR CHECKs are load
    #: barriers in the pipeline (see RSE.check_blocks_loads).
    WRITES_MEMORY = True

    def __init__(self, entropy_source=cycle_counter_entropy):
        super().__init__("MLR")
        self.entropy_source = entropy_source
        # Latched CHECK parameters (Figure 3(B) registers).
        self.hdr_addr = 0
        self.hdr_size = 0
        self.got_old = 0
        self.got_size = 0
        self.got_new = 0
        self.plt_addr = 0
        self.plt_size = 0
        # Internal buffers.
        self.header = None
        self.got_buffer = b""
        self.plt_buffer = b""
        # Results of the last PI randomization (also written to memory).
        self.randomized = {}
        self.operations_done = 0
        self._pending_store = None
        # Measured latency of the last position-independent randomization
        # (the Section 5.3 "penalty for position independent regions").
        self.pi_rand_started = None
        self.pi_rand_finished = None

    def _snapshot_extra(self):
        started, finished = self.pi_rand_started, self.pi_rand_finished
        return {
            "operations_done": self.operations_done,
            "pi_rand_started": started,
            "pi_rand_finished": finished,
            "pi_rand_cycles": (finished - started
                               if started is not None
                               and finished is not None else None),
        }

    def reset_stats(self):
        super().reset_stats()
        self.operations_done = 0

    # --------------------------------------------------------------- checks

    def on_check(self, uop, entry, cycle):
        op = uop.instr.op
        payload = entry.payload or (0, 0)
        if op == OP_MLR_EXEC_HDR:
            self.hdr_addr, self.hdr_size = payload
            self._done(entry, cycle)
        elif op == OP_MLR_GOT_OLD:
            self.got_old, self.got_size = payload
            self._done(entry, cycle)
        elif op == OP_MLR_GOT_NEW:
            self.got_new = payload[0]
            self._done(entry, cycle)
        elif op == OP_MLR_PLT_INFO:
            self.plt_addr, self.plt_size = payload
            self._done(entry, cycle)
        elif op == OP_MLR_PI_RAND:
            self._pi_randomize(entry, cycle)
        elif op == OP_MLR_COPY_GOT:
            self._copy_got(entry, cycle)
        elif op == OP_MLR_WRITE_PLT:
            self._write_plt(entry, cycle)
        else:
            self._done(entry, cycle)

    def _done(self, entry, cycle, error=False):
        self.operations_done += 1
        self.finish_check(entry, error, cycle)

    # --------------------------------------------------- MAU continuations

    def on_mau_complete(self, request):
        """Take the next step of the CHECK whose MAU transfer finished.

        The tag is ``(step, entry, value)``: which step comes next, the
        blocking CHECK's IOQ entry, and what the step kept from submit
        time (the GOT delta for a PLT load, the error flag for a final
        store).
        """
        step, entry, value = request.tag
        cycle = self.engine.cycle
        if step == "header":
            self._header_loaded(entry, request.result)
        elif step == "results":
            self.pi_rand_finished = cycle
            self._done(entry, cycle)
        elif step == "got":
            self.got_buffer = request.result
            self.engine.mau.store(self.name, self.got_new, request.result,
                                  module=self, tag=("done", entry, False))
        elif step == "plt":
            self._plt_loaded(entry, request.result, value)
        else:                   # "done": the CHECK's last store landed
            self._done(entry, cycle, error=value)

    # --------------------------------- position-independent randomization

    def _pi_randomize(self, entry, cycle):
        """I2: parse the header, randomize stack/heap/shlib bases."""
        self.pi_rand_started = cycle
        self.pi_rand_finished = None
        self.engine.mau.load(self.name, self.hdr_addr, self.hdr_size or 64,
                             module=self, tag=("header", entry, None))

    def _header_loaded(self, entry, data):
        try:
            header = ExecutableHeader.unpack(data)
        except ValueError:
            self._done(entry, self.engine.cycle, error=True)
            return
        self.header = header
        self.randomized, results = randomize_bases(
            header, self.engine.cycle + PARSE_AND_ADD_CYCLES,
            self.entropy_source)
        # One store covers the three adjacent predefined locations.
        self.engine.mau.store(self.name, self.hdr_addr + MLR_RESULT_SHLIB,
                              results, module=self,
                              tag=("results", entry, None))

    # ------------------------------------------------------------ GOT copy

    def _copy_got(self, entry, cycle):
        """I7: copy the old GOT into the GOT buffer, then to its new home."""
        if not self.got_size or not self.got_new:
            self._done(entry, cycle, error=True)
            return
        self.engine.mau.load(self.name, self.got_old, self.got_size,
                             module=self, tag=("got", entry, None))

    # ----------------------------------------------------------- PLT rewrite

    def _write_plt(self, entry, cycle):
        """I10: rewrite the PLT so entries indirect through the new GOT."""
        if not self.plt_size or not self.got_new:
            self._done(entry, cycle, error=True)
            return
        delta = (self.got_new - self.got_old) & MASK32
        self.engine.mau.load(self.name, self.plt_addr, self.plt_size,
                             module=self, tag=("plt", entry, delta))

    def _plt_loaded(self, entry, data, delta):
        """Rewrite the PLT buffer, charging the adders' latency."""
        self.plt_buffer = data
        rewritten, bad = rewrite_plt(data, delta)
        # Four adders update four entries per cycle (footnote in 5.3).
        rewrite_cycles = -(-(len(data) // PLT_ENTRY_BYTES) // PLT_ADDERS)
        self._pending_store = (self.engine.cycle + rewrite_cycles, entry,
                               rewritten, bad)

    def step(self, cycle):
        pending = self._pending_store
        if pending is None:
            return False
        due, entry, data, bad = pending
        if cycle < due:
            return False
        self._pending_store = None
        self.engine.mau.store(self.name, self.plt_addr, data, module=self,
                              tag=("done", entry, bad))
        return True

    def next_event(self, cycle):
        """The cycle the rewritten PLT's store is due, if one is pending."""
        pending = self._pending_store
        return None if pending is None else pending[0]


class FunctionalMLR:
    """The MLR CHECK operations done synchronously, for the functional
    engines (install :meth:`chk` as a ``FuncSim`` CHECK handler).

    Mirrors :class:`MLR`: the same header parse, entropy derivation, GOT
    copy and PLT rewrite, with no MAU and no latency.  The entropy comes
    from *core*'s cycle counter (a
    :class:`~repro.funcsim.core.FunctionalCore` counts retired
    instructions plus kernel-charged cycles), so the offsets differ from
    the pipeline's; the outcomes cannot.
    """

    def __init__(self, core):
        # The core's sim holds this module's chk: hold the core weakly.
        self.core = weakref.proxy(core)
        self.enabled = False
        # Latched CHECK parameters (Figure 3(B) registers).
        self.hdr_addr = self.hdr_size = 0
        self.got_old = self.got_size = self.got_new = 0
        self.plt_addr = self.plt_size = 0

    def chk(self, sim, instr):
        if instr.module != MODULE_MLR:
            return
        op = instr.op
        if op in (OP_ENABLE, OP_DISABLE):
            self.enabled = op == OP_ENABLE
            return
        if not self.enabled:
            return
        memory = self.core.memory
        a0, a1 = sim.regs[4], sim.regs[5]
        if op == OP_MLR_EXEC_HDR:
            self.hdr_addr, self.hdr_size = a0, a1
        elif op == OP_MLR_GOT_OLD:
            self.got_old, self.got_size = a0, a1
        elif op == OP_MLR_GOT_NEW:
            self.got_new = a0
        elif op == OP_MLR_PLT_INFO:
            self.plt_addr, self.plt_size = a0, a1
        elif op == OP_MLR_PI_RAND:
            header = ExecutableHeader.unpack(
                memory.load_bytes(self.hdr_addr, self.hdr_size or 64))
            __, results = randomize_bases(header, self.core.cycle,
                                          cycle_counter_entropy)
            memory.store_bytes(self.hdr_addr + MLR_RESULT_SHLIB, results)
        elif op == OP_MLR_COPY_GOT:
            memory.store_bytes(self.got_new, memory.load_bytes(
                self.got_old, self.got_size))
        elif op == OP_MLR_WRITE_PLT:
            rewritten, __ = rewrite_plt(
                memory.load_bytes(self.plt_addr, self.plt_size),
                (self.got_new - self.got_old) & MASK32)
            memory.store_bytes(self.plt_addr, rewritten)
