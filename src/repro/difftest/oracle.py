"""Lockstep oracle: one program, up to four engines, first divergence wins.

The engines are:

* ``interp`` — :class:`~repro.funcsim.FuncSim` with
  ``predecode_enabled=False``: the fetch/decode/dispatch reference.
* ``predecode`` — the same simulator through the closure cache.
* ``jit`` (opt-in via ``jit=True``) — the simulator with the superblock
  trace compiler (:mod:`repro.isa.traces`) on top of the closure cache;
  its retired-pc stream comes from the JIT run loop's ``retire_log``,
  so compiled traces (including their logging variants) are what is
  actually under test.
* ``pipeline`` — the out-of-order core; its architectural story is the
  in-order commit stream.

Comparison points, in order of diagnostic value:

0. with ``assertions=True``, the set of invariant properties that
   fired (:mod:`repro.assertions`): an assertion firing on one engine
   but not another is itself a divergence — compared first because a
   property violation localises a bug far better than the downstream
   state drift it causes.  Only properties both engines support are
   compared; symmetric firings are not a divergence but still surface
   through ``OracleResult.violations``,
1. the retired-instruction pc stream (first mismatching index),
2. stop state: halt vs fault vs step/cycle limit, and for faults the
   faulting pc plus a normalised cause class (the engines word their
   messages differently — "unaligned word load at 0x.." vs "unaligned
   fetch" — but must agree on *where* and *what kind*),
3. final registers ``r1..r31``,
4. retired-instruction count,
5. every memory page any engine dirtied.

The first mismatch becomes a :class:`Divergence` carrying a disassembled
window around the offending pc, rendered from the reference engine's
memory so self-modifying programs show what was actually executed.
"""

from repro.assertions import attach_funcsim, attach_pipeline
from repro.assertions.properties import shared_properties
from repro.funcsim import FuncSim, StepResult
from repro.isa.assembler import assemble
from repro.isa.disasm import disassemble_segment
from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE, MainMemory
from repro.memory.bus import BASELINE_TIMING
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.core import EventKind
from repro.rse.engine import NullTap

STACK_TOP = 0x7FFF0000
ENGINES = ("interp", "predecode", "pipeline")

DEFAULT_MAX_STEPS = 400_000
#: The OoO core retires one instruction in a handful of cycles at worst
#: (mispredict + refetch); 16x steps is a generous ceiling.
CYCLES_PER_STEP = 16


class CommitRecorder(NullTap):
    """A no-op RSE whose only job is recording the pipeline commit stream."""

    def __init__(self):
        self.stream = []

    def on_commit(self, uop, cycle):
        self.stream.append(uop.pc)


class EngineRun:
    """Outcome of one engine executing one program."""

    __slots__ = ("engine", "stream", "regs", "instret", "stop",
                 "fault_pc", "fault_cause", "memory", "violations")

    def __init__(self, engine, stream, regs, instret, stop,
                 fault_pc, fault_cause, memory, violations=None):
        self.engine = engine
        self.stream = stream            # retired pcs, in order
        self.regs = regs                # final r0..r31
        self.instret = instret
        self.stop = stop                # "halt" | "fault" | "limit"
        self.fault_pc = fault_pc
        self.fault_cause = fault_cause  # normalised class, None unless fault
        self.memory = memory
        self.violations = violations    # Violation list, None if not watched

    def violated(self):
        """Property ids that fired on this run (empty when unwatched)."""
        if not self.violations:
            return set()
        return {violation.property_id for violation in self.violations}


def classify_cause(cause):
    """Collapse an engine-specific fault message to a comparable class."""
    if cause is None:
        return None
    text = str(cause).lower()
    if "divide" in text:
        return "arith"
    if "unaligned" in text:
        return "unaligned"
    if "decode" in text or "illegal" in text or "unknown" in text:
        return "decode"
    return "other"


class Divergence:
    """First observed disagreement between two engines."""

    def __init__(self, kind, engines, detail, pc=None, index=None,
                 window=""):
        self.kind = kind                # stream|stop|regs|instret|mem
        self.engines = engines          # (reference_name, other_name)
        self.detail = detail
        self.pc = pc
        self.index = index
        self.window = window

    def report(self):
        lines = ["DIVERGENCE [%s] %s vs %s: %s" % (
            self.kind, self.engines[0], self.engines[1], self.detail)]
        if self.pc is not None:
            lines.append("  at pc=0x%08x" % self.pc)
        if self.index is not None:
            lines.append("  retire index %d" % self.index)
        if self.window:
            lines.append(self.window)
        return "\n".join(lines)

    def to_dict(self):
        return {"kind": self.kind, "engines": list(self.engines),
                "detail": self.detail,
                "pc": None if self.pc is None else "0x%08x" % self.pc,
                "index": self.index, "window": self.window}

    def __repr__(self):
        return "Divergence(%s, %s, %r)" % (self.kind, self.engines,
                                           self.detail)


class OracleResult:
    """Outcome of running one program through all three engines."""

    def __init__(self, divergence, runs, limited=False):
        self.divergence = divergence
        self.runs = runs                # engine name -> EngineRun
        self.limited = limited          # every engine hit its step limit

    @property
    def ok(self):
        return self.divergence is None

    @property
    def violations(self):
        """engine name -> violation dicts, for engines that fired any."""
        doc = {}
        for name, run in self.runs.items():
            if run.violations:
                doc[name] = [v.to_dict() for v in run.violations]
        return doc


# ------------------------------------------------------------------- running

def _fresh_memory(asm):
    mem = MainMemory()
    mem.store_bytes(asm.text_base, asm.text)
    mem.store_bytes(asm.data_base, asm.data)
    return mem


def _run_funcsim(engine, asm, max_steps, assertions=False):
    mem = _fresh_memory(asm)
    sim = FuncSim(mem, entry=asm.entry, sp=STACK_TOP,
                  predecode_enabled=(engine != "interp"),
                  jit_enabled=(engine == "jit"))
    adapter = attach_funcsim(sim) if assertions else None
    stream = []
    stop = "limit"
    if engine == "jit" and adapter is None:
        # Run through the trace-JIT dispatch loop so compiled traces
        # (and their retire-logging variants) are what is under test;
        # the step loop below would bypass them entirely.  With the
        # monitor attached the adapter overrides run() with a step
        # loop anyway — the documented deopt path.
        sim.retire_log = stream
        result = sim.run(max_steps)
        if result is StepResult.HALTED:
            stop = "halt"
        elif result is StepResult.FAULT:
            stop = "fault"
        elif result is StepResult.SYSCALL:
            stop = "syscall"
    else:
        for __ in range(max_steps):
            pc = sim.pc
            result = sim.step()
            if result is StepResult.OK:
                stream.append(pc)
                continue
            if result is StepResult.HALTED:
                stream.append(pc)
                stop = "halt"
            elif result is StepResult.FAULT:
                stop = "fault"
            else:          # syscall: the generator never emits one
                stop = "syscall"
            break
    violations = None
    if adapter is not None:
        adapter.detach()          # runs the end-of-run sweeps
        violations = adapter.monitor.violations
    fault_pc, cause = sim.fault if sim.fault else (None, None)
    return EngineRun(engine, stream, list(sim.regs), sim.instret, stop,
                     fault_pc, classify_cause(cause), mem,
                     violations=violations)


def _run_pipeline(asm, max_steps, assertions=False):
    mem = _fresh_memory(asm)
    recorder = CommitRecorder()
    pipeline = Pipeline(mem, MemoryHierarchy(BASELINE_TIMING),
                        config=PipelineConfig(), rse=recorder)
    adapter = attach_pipeline(pipeline) if assertions else None
    pipeline.reset_at(asm.entry)
    pipeline.regs[29] = STACK_TOP
    event = pipeline.run(max_cycles=max_steps * CYCLES_PER_STEP)
    violations = None
    if adapter is not None:
        adapter.detach()
        violations = adapter.monitor.violations
    kind = event.kind
    if kind is EventKind.HALT:
        stop = "halt"
    elif kind is EventKind.FAULT:
        stop = "fault"
    elif kind is EventKind.MAX_CYCLES:
        stop = "limit"
    else:
        stop = kind.value
    fault_pc = event.pc if stop == "fault" else None
    cause = event.cause if stop == "fault" else None
    return EngineRun("pipeline", recorder.stream, list(pipeline.regs),
                     pipeline.stats.instret, stop, fault_pc,
                     classify_cause(cause), mem, violations=violations)


# ----------------------------------------------------------------- comparing

def _disasm_window(asm, ref_mem, pc, radius=4):
    """Disassemble ``radius`` instructions either side of *pc*.

    Rendered from the reference engine's final memory, so a program
    that rewrote its own text shows the word that actually executed.
    """
    if pc is None:
        return ""
    base = max(asm.text_base, (pc - radius * 4) & ~3)
    length = (2 * radius + 1) * 4
    try:
        lines = disassemble_segment(ref_mem, base, length,
                                    symbols=asm.symbols)
    except Exception:          # window fell off mapped memory
        return ""
    rendered = []
    for line in lines:
        marker = ">>" if line.pc == pc else "  "
        rendered.append("  %s %08x:  %08x    %s" % (marker, line.pc,
                                                    line.word, line.text))
    return "\n".join(rendered)


def _compare(asm, ref, other):
    """First divergence between *ref* and *other*, or None."""
    pair = (ref.engine, other.engine)
    window = lambda pc: _disasm_window(asm, ref.memory, pc)

    # 0. Assertion asymmetry (only when both runs were monitored): the
    # same invariant suite watched both engines, so a property firing
    # on one side only is a divergence in its own right — and a far
    # sharper one than the state drift it eventually causes.  Restrict
    # to properties both engines host; compare fired-property *sets*
    # (counts differ legitimately, e.g. retire cascades).
    if ref.violations is not None and other.violations is not None:
        comparable = shared_properties(ref.engine, other.engine)
        ref_fired = ref.violated() & comparable
        other_fired = other.violated() & comparable
        if ref_fired != other_fired:
            asym = sorted(ref_fired ^ other_fired)
            fired_on = ref if asym[0] in ref_fired else other
            first = next(v for v in fired_on.violations
                         if v.property_id == asym[0])
            return Divergence(
                "assertion", pair,
                "property %r fired on %s but not %s: %s"
                % (asym[0], fired_on.engine,
                   (other if fired_on is ref else ref).engine,
                   first.detail),
                pc=first.pc, window=window(first.pc))

    # 1. Retired pc streams.
    for index, (a, b) in enumerate(zip(ref.stream, other.stream)):
        if a != b:
            return Divergence(
                "stream", pair,
                "%s retired pc=0x%08x, %s retired pc=0x%08x"
                % (ref.engine, a, other.engine, b),
                pc=a, index=index, window=window(a))
    if len(ref.stream) != len(other.stream):
        longer = ref if len(ref.stream) > len(other.stream) else other
        index = min(len(ref.stream), len(other.stream))
        pc = longer.stream[index]
        return Divergence(
            "stream", pair,
            "retired %d vs %d instructions; first extra pc=0x%08x in %s"
            % (len(ref.stream), len(other.stream), pc, longer.engine),
            pc=pc, index=index, window=window(pc))

    # 2. Stop state.
    if ref.stop != other.stop:
        return Divergence(
            "stop", pair, "%s stopped with %s, %s with %s"
            % (ref.engine, ref.stop, other.engine, other.stop),
            pc=ref.fault_pc or other.fault_pc,
            window=window(ref.fault_pc or other.fault_pc))
    if ref.stop == "fault":
        if (ref.fault_pc, ref.fault_cause) != (other.fault_pc,
                                               other.fault_cause):
            return Divergence(
                "stop", pair,
                "%s faulted at pc=%s (%s), %s at pc=%s (%s)"
                % (ref.engine, _hex(ref.fault_pc), ref.fault_cause,
                   other.engine, _hex(other.fault_pc), other.fault_cause),
                pc=ref.fault_pc, window=window(ref.fault_pc))

    # 3. Registers (r0 is hardwired; include $at — both engines run the
    # same expanded instructions, so even scratch must agree).
    for reg in range(1, 32):
        if ref.regs[reg] != other.regs[reg]:
            return Divergence(
                "regs", pair,
                "r%d: %s=0x%08x %s=0x%08x"
                % (reg, ref.engine, ref.regs[reg], other.engine,
                   other.regs[reg]))

    # 4. Retired counts.
    if ref.instret != other.instret:
        return Divergence(
            "instret", pair, "%s retired %d, %s retired %d"
            % (ref.engine, ref.instret, other.engine, other.instret))

    # 5. Dirtied memory, page by page.
    pages = sorted(set(ref.memory.write_versions)
                   | set(other.memory.write_versions))
    for page in pages:
        base = page << PAGE_SHIFT
        a = ref.memory.load_bytes(base, PAGE_SIZE)
        b = other.memory.load_bytes(base, PAGE_SIZE)
        if a != b:
            offset = next(i for i in range(PAGE_SIZE) if a[i] != b[i])
            addr = base + offset
            return Divergence(
                "mem", pair,
                "byte at 0x%08x: %s=0x%02x %s=0x%02x"
                % (addr, ref.engine, a[offset], other.engine, b[offset]))
    return None


def _hex(value):
    return "None" if value is None else "0x%08x" % value


def run_source(source, max_steps=DEFAULT_MAX_STEPS, constants=None,
               engines=ENGINES, assertions=False, jit=False):
    """Run *source* through the engines and compare against ``interp``.

    Returns an :class:`OracleResult`; ``result.divergence`` is the first
    mismatch found (predecode first, then jit, then pipeline), or None.
    With *assertions*, every engine runs under the invariant suite and
    asymmetric property firings are a fourth divergence class.  With
    *jit*, the trace-JIT functional simulator joins as a fourth engine
    so trace-compilation bugs surface as first-divergence reports.
    """
    asm = assemble(source, constants=constants)
    if jit and "jit" not in engines:
        engines = tuple(engines) + ("jit",)
    runs = {"interp": _run_funcsim("interp", asm, max_steps,
                                   assertions=assertions)}
    if "predecode" in engines:
        runs["predecode"] = _run_funcsim("predecode", asm, max_steps,
                                         assertions=assertions)
    if "jit" in engines:
        runs["jit"] = _run_funcsim("jit", asm, max_steps,
                                   assertions=assertions)
    if "pipeline" in engines:
        runs["pipeline"] = _run_pipeline(asm, max_steps,
                                         assertions=assertions)
    limited = all(run.stop == "limit" for run in runs.values())
    divergence = None
    for name in ("predecode", "jit", "pipeline"):
        if name in runs:
            divergence = _compare(asm, runs["interp"], runs[name])
            if divergence is not None:
                break
    return OracleResult(divergence, runs, limited=limited)
