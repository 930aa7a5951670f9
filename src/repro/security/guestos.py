"""Engine-independent guest runtime for the attack programs.

The attack outcomes (:mod:`repro.security.attacks`,
:mod:`repro.security.attackgen`) are read from architectural state —
a marker flag, a fault, a completion word — so they should be a
property of the *program*, not of the engine that ran it.  The pipeline
path gets its OS surface from :class:`repro.kernel.Kernel`; this module
provides the same surface over the functional simulator so the
identical process image classifies identically on the interp,
predecode and jit engines:

* the page-permission model the loader produces, enforced on
  instruction fetch through FuncSim's ``fetch_check`` hook (the kernel
  enforces it through ``pipeline.mem_check``) — without it a hijacked
  return into unmapped memory nop-slides through zero-filled pages to
  the step budget instead of faulting like the pipeline does;
* the few syscalls the attack programs use (exit/mmap/mprotect/sbrk/
  cycle/output), with the same :func:`~repro.kernel.syscalls
  .perm_string` mprotect semantics;
* a functional model of the MLR module's CHECK operations, mirroring
  :class:`repro.rse.modules.mlr.MLR` synchronously: same header parse,
  same entropy derivation (instruction count standing in for the cycle
  counter — the offsets differ across engines, the *outcomes* cannot),
  same GOT copy and PLT rewrite through the shared
  :mod:`repro.program.image` helpers.

Deliberately not modelled: threads (the malicious-thread attack classes
are pipeline-only) and data-access permissions (no attack program here
reads or writes a page the kernel would refuse; fetch rights are what
the classification hinges on).
"""

from repro.funcsim import FuncSim, StepResult
from repro.kernel.syscalls import (
    SYS_CYCLE,
    SYS_EXIT,
    SYS_GETTID,
    SYS_MMAP,
    SYS_MPROTECT,
    SYS_PRINT_INT,
    SYS_PUTC,
    SYS_RAND,
    SYS_SBRK,
    SYS_SLEEP,
    SYS_YIELD,
    perm_string,
)
from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE, MainMemory, MemoryFault
from repro.program.image import ExecutableHeader, rewrite_plt
from repro.program.layout import MLR_RESULT_SHLIB
from repro.program.loader import Loader
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
from repro.rse.modules.mlr import cycle_counter_entropy, randomize_bases

MASK32 = 0xFFFFFFFF

#: Engines :func:`run_image` accepts (the kernel covers "pipeline").
FUNCSIM_ENGINES = ("interp", "predecode", "jit")


class GuestRun:
    """How a guest program stopped on a functional engine.

    ``reason`` uses the kernel's :class:`~repro.kernel.kernel.RunResult`
    vocabulary ("halt" / "fault" / "max_cycles") so attack classifiers
    can share one code path across engines.
    """

    __slots__ = ("reason", "sim", "guest", "fault")

    def __init__(self, reason, sim, guest):
        self.reason = reason
        self.sim = sim
        self.guest = guest
        self.fault = sim.fault

    def __repr__(self):
        return "GuestRun(%s)" % self.reason


class GuestOS:
    """Functional-kernel shim: perms, syscalls, and a synchronous MLR."""

    def __init__(self, image, memory, exec_stack=False,
                 entropy_source=cycle_counter_entropy):
        self.loaded = Loader(memory).load(image)
        self.memory = memory
        self.page_perms = dict(self.loaded.page_perms)
        self.brk = image.layout.heap_base + PAGE_SIZE
        # 2004-era executable stack: the loaded stack range is rwx and —
        # unlike the harness bug fixed in this module's sibling — later
        # stack-area mappings (the MLR prologue's mmap of the randomized
        # region) come up rwx too, regardless of mapping order.
        self.exec_stack = exec_stack
        if exec_stack:
            layout = image.layout
            first = layout.stack_base >> PAGE_SHIFT
            last = (layout.stack_top - 1) >> PAGE_SHIFT
            for page in range(first, last + 1):
                self.page_perms[page] = "rwx"
        self.entropy_source = entropy_source
        self.output = []
        self.mlr_enabled = False
        # Latched MLR CHECK parameters (Figure 3(B) registers).
        self.hdr_addr = 0
        self.hdr_size = 0
        self.got_old = 0
        self.got_size = 0
        self.got_new = 0
        self.plt_addr = 0
        self.plt_size = 0
        self.randomized = {}

    # -------------------------------------------------------------- perms

    def map_range(self, addr, length, perms):
        if length <= 0:
            return
        if self.exec_stack and perms == "rw":
            perms = "rwx"
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self.page_perms[page] = perms

    def fetch_check(self, pc):
        """FuncSim ``fetch_check`` hook: fetch rights for *pc*."""
        perms = self.page_perms.get(pc >> PAGE_SHIFT)
        if perms is None:
            return "fetch from unmapped address 0x%08x" % pc
        if "x" not in perms:
            return "fetch violates %s page at 0x%08x" % (perms, pc)
        return None

    # ------------------------------------------------------------ syscalls

    def syscall(self, sim):
        """FuncSim syscall handler covering the attack programs' needs."""
        regs = sim.regs
        number = regs[2]
        a0, a1, a2 = regs[4], regs[5], regs[6]
        if number == SYS_EXIT:
            sim.halted = True
        elif number == SYS_MMAP:
            self.map_range(a0, a1, "rw")
        elif number == SYS_MPROTECT:
            self.map_range(a0, a1, perm_string(a2))
        elif number == SYS_SBRK:
            old = self.brk
            self.map_range(old, max(a0, 0), "rw")
            self.brk = (old + a0 + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            regs[2] = old
        elif number == SYS_CYCLE:
            regs[2] = sim.instret & MASK32
        elif number == SYS_GETTID:
            regs[2] = 0
        elif number == SYS_PRINT_INT:
            self.output.append(("int", a0))
        elif number == SYS_PUTC:
            self.output.append(("char", chr(a0 & 0xFF)))
        elif number in (SYS_YIELD, SYS_SLEEP, SYS_RAND):
            # Single-threaded shim: yielding/sleeping is a no-op, and
            # nothing here consumes randomness.
            regs[2] = 0
        else:
            raise MemoryFault(sim.pc, "unsupported syscall %d in guest "
                                      "shim" % number)
        return True

    # ----------------------------------------------------------- MLR model

    def chk(self, sim, instr):
        """FuncSim chk handler: the MLR operations, synchronously."""
        if instr.module != MODULE_MLR:
            return
        op = instr.op
        if op == OP_ENABLE:
            self.mlr_enabled = True
            return
        if op == OP_DISABLE:
            self.mlr_enabled = False
            return
        if not self.mlr_enabled:
            return
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
            self._pi_randomize(sim)
        elif op == OP_MLR_COPY_GOT:
            data = self.memory.load_bytes(self.got_old, self.got_size)
            self.memory.store_bytes(self.got_new, data)
        elif op == OP_MLR_WRITE_PLT:
            self._write_plt()

    def _pi_randomize(self, sim):
        header = ExecutableHeader.unpack(
            self.memory.load_bytes(self.hdr_addr, self.hdr_size or 64))
        # The shim's monotonic "cycle counter" is the instruction count.
        self.randomized, results = randomize_bases(header, sim.instret,
                                                   self.entropy_source)
        self.memory.store_bytes(self.hdr_addr + MLR_RESULT_SHLIB, results)

    def _write_plt(self):
        data = self.memory.load_bytes(self.plt_addr, self.plt_size)
        rewritten, __ = rewrite_plt(data,
                                    (self.got_new - self.got_old) & MASK32)
        self.memory.store_bytes(self.plt_addr, rewritten)


def run_image(image, engine, max_steps=1_000_000, exec_stack=False,
              entropy_source=cycle_counter_entropy, setup=None):
    """Load *image* and run it on a functional *engine*.

    *setup*, if given, is called as ``setup(memory, guest)`` after the
    load and before the first step — the slot where attack harnesses
    plant their request payloads, mirroring the host-side pokes the
    kernel path does between ``load_process`` and ``run``.

    Returns a :class:`GuestRun` whose ``reason`` matches the kernel's
    stop vocabulary, plus the simulator and shim for forensic reads.
    """
    if engine not in FUNCSIM_ENGINES:
        raise ValueError("unknown functional engine %r (have: %s)"
                         % (engine, ", ".join(FUNCSIM_ENGINES)))
    memory = MainMemory()
    guest = GuestOS(image, memory, exec_stack=exec_stack,
                    entropy_source=entropy_source)
    loaded = guest.loaded
    if setup is not None:
        setup(memory, guest)
    sim = FuncSim(memory, entry=loaded.entry, sp=loaded.initial_sp,
                  gp=loaded.initial_gp, syscall_handler=guest.syscall,
                  chk_handler=guest.chk,
                  predecode_enabled=(engine != "interp"),
                  jit_enabled=(engine == "jit"))
    sim.fetch_check = guest.fetch_check
    result = sim.run(max_steps)
    if result is StepResult.HALTED:
        reason = "halt"
    elif result is StepResult.FAULT:
        reason = "fault"
    else:          # OK (budget exhausted) or an unhandled SYSCALL stop
        reason = "max_cycles"
    return GuestRun(reason, sim, guest)
