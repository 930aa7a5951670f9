"""Cycle-event tracing: bounded ring buffer, JSONL export, guest traces.

Two levels of tracing live here:

* :class:`CycleTracer` — the machine-wide event ring that probes
  (:mod:`repro.obs.probes`) feed: fetch stalls, mispredicts, bus
  arbitration, RSE check/error events, kernel scheduling.  Bounded by a
  ``deque(maxlen=...)`` so a long run costs O(capacity) memory; the
  drop count is derivable (``emitted - buffered``) and exported.
* guest-program tracers — :func:`trace_functional` and
  :func:`trace_process` (architectural instruction traces on the
  functional simulator, bare or under the kernel) and
  :class:`CommitTracer` (an RSE observer module recording the pipeline's
  retirement stream).
"""

import json
from collections import deque

from repro.funcsim.core import FunctionalCore
from repro.funcsim.interp import FuncSim
from repro.isa.encoding import DecodeError, decode
from repro.isa.registers import reg_name
from repro.kernel import Kernel
from repro.memory.mainmem import MainMemory, MemoryFault
from repro.rse.module import ModuleMode, RSEModule

DEFAULT_CAPACITY = 65536


class CycleTracer:
    """Bounded ring buffer of ``(cycle, kind, data)`` machine events.

    ``emit`` is the per-event hot call — one tuple build and one deque
    append; the deque's maxlen does the eviction, so there is no
    explicit overflow branch.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self.buffer = deque(maxlen=capacity)
        self.emitted_total = 0

    def emit(self, cycle, kind, data=None):
        self.buffer.append((cycle, kind, data))
        self.emitted_total += 1

    @property
    def dropped(self):
        return self.emitted_total - len(self.buffer)

    def events(self, kind=None):
        """Buffered events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self.buffer)
        return [event for event in self.buffer if event[1] == kind]

    def clear(self):
        self.buffer.clear()
        self.emitted_total = 0

    def export_jsonl(self, path):
        """Write the buffered events to *path*, one JSON object per line.

        Returns the number of events written.  The first line is a
        header record (``kind="trace"``) carrying capacity/drop info so
        a reader knows whether the window is complete.
        """
        with open(path, "w") as handle:
            header = {"kind": "trace", "capacity": self.capacity,
                      "emitted": self.emitted_total,
                      "buffered": len(self.buffer),
                      "dropped": self.dropped}
            handle.write(json.dumps(header) + "\n")
            for cycle, kind, data in self.buffer:
                record = {"kind": "event", "cycle": cycle, "event": kind}
                if data is not None:
                    record["data"] = data
                handle.write(json.dumps(record) + "\n")
        return len(self.buffer)

    def snapshot(self):
        return {"capacity": self.capacity, "emitted": self.emitted_total,
                "buffered": len(self.buffer), "dropped": self.dropped}

    def __len__(self):
        return len(self.buffer)


# --------------------------------------------------------- guest tracing


class TraceEntry:
    """One retired/executed instruction in a trace."""

    __slots__ = ("index", "pc", "text", "reg_writes", "cycle")

    def __init__(self, index, pc, text, reg_writes=(), cycle=None):
        self.index = index
        self.pc = pc
        self.text = text
        self.reg_writes = reg_writes
        self.cycle = cycle

    def render(self):
        effects = "  ".join("$%s=0x%08x" % (reg_name(reg), value)
                            for reg, value in self.reg_writes)
        stamp = "" if self.cycle is None else "[%8d] " % self.cycle
        line = "%s%6d  %08x  %-36s %s" % (stamp, self.index, self.pc,
                                          self.text, effects)
        return line.rstrip()


def _record_steps(sim, entries):
    """Shadow ``sim.step`` so each step appends one :class:`TraceEntry`.

    ``step`` is predeclared as an instance attribute in
    :class:`FuncSim`, so the shadow is a plain value assignment.
    Returns a callable that re-reads the last entry's register writes,
    for results that land after its step (a kernel's syscall handler).
    """
    bare_step = sim.step
    before = []

    def writes():
        return tuple((reg, value) for reg, value in enumerate(sim.regs)
                     if value != before[reg])

    def step():
        pc = sim.pc
        try:
            text = decode(sim.memory.load_word(pc)).disassemble()
        except (DecodeError, MemoryFault) as exc:
            text = "<fetch fault: %s>" % exc
        before[:] = sim.regs
        result = bare_step()
        entries.append(TraceEntry(len(entries), pc, text, writes()))
        return result

    def reread_last():
        entries[-1].reg_writes = writes()

    sim.step = step
    return reread_last


def trace_functional(memory, entry, sp=0x7FFF0000, max_steps=10_000):
    """Run a bare program (no OS) on the interpreter, recording every step.

    Returns ``(entries, sim)``; each entry carries the disassembly and
    the architectural register writes it performed.  A ``syscall`` has
    no handler here: trace a program that needs an OS with
    :func:`trace_process`.
    """
    sim = FuncSim(memory, entry=entry, sp=sp, predecode_enabled=False)
    entries = []
    _record_steps(sim, entries)
    sim.run(max_steps)
    return entries, sim


def trace_process(image, max_steps=10_000):
    """Run *image* as a process under the kernel, recording every step.

    The kernel (:mod:`repro.kernel`) loads the image and serves its
    syscalls and threads on an ``interp``
    :class:`~repro.funcsim.core.FunctionalCore`, which records one
    entry per instruction up to *max_steps*; a syscall's entry shows
    the registers its handler wrote.  Returns ``(entries, kernel)``.
    """
    memory = MainMemory()
    core = FunctionalCore(memory, "interp")
    kernel = Kernel(core, memory)
    kernel.load_process(image)
    entries = []
    reread_last = _record_steps(core.sim, entries)
    handle_syscall = kernel._handle_syscall

    def handle_and_record(event):
        handle_syscall(event)
        reread_last()          # core.regs are still the caller's here

    kernel._handle_syscall = handle_and_record
    # A cycle retires at most one instruction, so a slice budgeted with
    # the entries still owed never overshoots *max_steps*.
    while len(entries) < max_steps:
        if kernel.run(max_steps - len(entries)).reason != "max_cycles":
            break
    return entries, kernel


class CommitTracer(RSEModule):
    """RSE module recording the pipeline's retirement stream."""

    MODULE_ID = 10
    MODE = ModuleMode.ASYNC
    STATE = RSEModule.STATE + ("entries",)

    def __init__(self, limit=100_000):
        super().__init__("CommitTracer")
        self.limit = limit
        self.entries = []

    def on_commit(self, uop, cycle):
        if len(self.entries) >= self.limit:
            return
        self.entries.append(TraceEntry(len(self.entries), uop.pc,
                                       uop.instr.disassemble(),
                                       cycle=cycle))

    def render(self, last=None):
        entries = self.entries if last is None else self.entries[-last:]
        return "\n".join(entry.render() for entry in entries)
