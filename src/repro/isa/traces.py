"""Superblock trace JIT layered on the predecode cache.

The predecode layer (:mod:`repro.isa.predecode`) got the functional
simulator to ~2.4M instrs/s by paying one closure call per instruction.
This module removes the per-instruction call too: straight-line runs of
instructions — ending at a branch, jump, serializing instruction
(syscall/halt/CHECK), page boundary or length cap — are compiled into a
*single* Python function via ``compile()``/``exec``, with every
architectural register the run touches promoted to a local variable and
each instruction's expression rendered from its template in
:mod:`repro.isa.semantics` (``ALU_TEMPLATES``, ``BRANCH_TEMPLATES``,
``LOADS``), the templates the predecode closures are generated from
too; no opcode is restated here.  A run whose
terminating branch jumps back to its own head becomes a *loop trace*:
the compiled function iterates internally, retiring a whole iteration
per pass, and only returns when the loop exits, the step budget would be
exceeded, or a deopt condition occurs.

Invalidation rides the existing per-page write-version protocol:

* a trace is keyed by its head pc and records ``(page, page_version)``
  for the single text page it was compiled from (traces never cross a
  page boundary, so one pair suffices);
* the dispatcher revalidates that pair before every entry, so stores
  into cached text — self-modifying code, campaign instr/mem-flips,
  ``Machine.restore()``'s monotonic version bumps — make the trace
  unreachable exactly like a stale predecode closure;
* a store *inside* a running trace that hits the trace's own text page
  exits the trace immediately after the store retires (the remaining
  instructions were compiled from the pre-store bytes), and the caller
  resumes per-instruction, re-decoding what memory now holds.

Compiled-function protocol (the contract with
:meth:`repro.funcsim.FuncSim._dispatch`):

* ``fn(regs, budget) -> (next_pc, retired)`` executes against the
  register file list and the bound memory.  ``retired`` instructions
  have fully retired (registers and memory updated); ``next_pc`` is the
  architectural pc to continue at.  The function never retires more
  than ``budget`` instructions; the dispatcher only enters when the
  trace's minimum retirement fits the remaining budget, so step-limit
  stops land on exactly the same instruction as per-closure execution.
* on a memory/arithmetic fault the function restores every promoted
  register it holds (instructions before the faulting one have retired,
  the faulting one has not touched state — the same atomicity the
  closures guarantee) and raises :class:`TraceFault` carrying the
  retired count, the faulting pc and the original exception.
* ``regs[0]`` is read as the literal 0 and never written, which is
  sound because no engine path ever stores a nonzero value there.

Deopt is the caller's job and is complete by construction: the
dispatcher in :class:`~repro.funcsim.FuncSim` only runs traces while no
``trace_mem`` hook is attached, and :mod:`repro.assertions` replaces
``sim.run`` outright — either way execution falls back to the
per-instruction closures, which carry every observation hook.
"""

import weakref

from repro.isa.encoding import DecodeError
from repro.isa.instructions import InstrClass
from repro.isa.predecode import cache_for
from repro.isa.semantics import (
    ACCESS_SIZES,
    ALU_OPS,
    ALU_TEMPLATES,
    BRANCH_TEMPLATES,
    IMM_FIELDS,
    LOADS,
    OPERANDS,
    ArithmeticFault,
    branch_target,
    jump_target,
    template_fields,
)
from repro.memory.mainmem import PAGE_SHIFT, MemoryFault

MASK32 = 0xFFFFFFFF

#: Dispatches from a cold head before the trace is compiled.
HEAT_THRESHOLD = 4
#: Instructions per trace (superblocks are short; page crossing caps too).
MAX_TRACE_LEN = 128
#: Pending inlined ``jal`` calls discovery will trace through.
MAX_INLINE_DEPTH = 4
#: Straight runs shorter than this are not worth the dispatch overhead.
MIN_TRACE_LEN = 2
#: Invalidations of one head before it is blacklisted (pathological SMC).
REBUILD_LIMIT = 8
#: Trace-entry bound; overflowing clears the table (predecode-style).
MAX_TRACES = 1 << 13
#: Heat-counter bound (one counter per candidate head pc).
MAX_HEAT_ENTRIES = 1 << 16


class TraceFault(Exception):
    """A fault raised while executing inside a compiled trace.

    ``retired`` instructions of the trace completed before the fault;
    ``pc`` is the faulting instruction's address; ``exc`` is the
    original :class:`~repro.memory.mainmem.MemoryFault` or
    :class:`~repro.isa.semantics.ArithmeticFault`.  Registers were
    written back before raising, so architectural state is exactly what
    per-instruction execution would leave.
    """

    def __init__(self, retired, pc, exc):
        super().__init__("trace fault at pc=0x%08x: %s" % (pc, exc))
        self.retired = retired
        self.pc = pc
        self.exc = exc


# ---------------------------------------------------------------- codegen

_WB = "__WB__"          # placeholder; replaced by the register writeback

#: Template field -> its compile-time value for one instruction: the
#: register number for the operands ``a``/``b``, else the immediate.
_STATIC = {field: eval("lambda instr: " + source) for field, source
           in dict(IMM_FIELDS, **{operand: "instr." + reg for operand, reg
                                  in OPERANDS.items()}).items()}

#: Move idioms: (name, field) -> the template the op collapses to when
#: *field* is statically zero (register r0, or a zero immediate); fields
#: are tried in ``_ZERO_FIELDS`` order.  Registers hold the unsigned-32
#: invariant, so an identity drops the mask too.
_COLLAPSES = {
    ("add", "b"): "{a}", ("add", "a"): "{b}", ("addi", "imm"): "{a}",
    ("sub", "b"): "{a}", ("and", "b"): "0", ("and", "a"): "0",
    ("andi", "uimm"): "0", ("or", "b"): "{a}", ("or", "a"): "{b}",
    ("ori", "uimm"): "{a}", ("xor", "b"): "{a}", ("xor", "a"): "{b}",
    ("xori", "uimm"): "{a}", ("sll", "shamt"): "{b}",
    ("srl", "shamt"): "{b}", ("sra", "shamt"): "{b}",
}
_ZERO_FIELDS = ("b", "a", "imm", "uimm", "shamt")
#: A square (``mul rd, rs, rs``) sign-converts its operand once.
_SQUARE = "((_t := ({a} - (({a} & 2147483648) << 1))) * _t) & 4294967295"

#: Access width -> the noun :class:`MainMemory` names it by in faults.
_WIDTH_NOUN = {4: "word", 2: "halfword"}


class _Unsupported(Exception):
    """Instruction the emitter cannot lower (ends the trace before it)."""


class _Emitter:
    """Lowers one discovered run into Python source for ``exec``."""

    def __init__(self, head, pcs, instrs, logging=False):
        self.head = head
        self.pcs = pcs
        self.instrs = instrs
        self.head_page = head >> PAGE_SHIFT
        self.logging = logging
        self.reads = set()
        self.writes = set()
        self.lines = []
        self.faultable = False
        self.has_mem = False
        self._prefix = ""
        # Forward branches whose target lands back inside this trace
        # compile to *internal skips* (the skipped instructions live in
        # an ``else`` block) instead of side exits, so loop bodies with
        # if/then diamonds stay resident in one compiled function.  The
        # local ``_d`` accumulates skipped instruction counts, keeping
        # every retired-count exactly equal to per-instruction execution.
        # Inlined calls duplicate callee pcs, so targets resolve to the
        # *nearest* following occurrence; the scan stops at a jump
        # because only jumps break the pc-contiguity of the fallthrough
        # path (nested branches are fine — the region is emitted
        # recursively with full branch handling).
        self.internal = {}
        last = len(instrs) - 1
        for k, instr in enumerate(instrs):
            if instr.iclass is not InstrClass.BRANCH or k == last:
                continue
            target = branch_target(instr, pcs[k])
            if target == head:
                continue          # lowers to ``continue``, not a skip
            for j in range(k + 1, last + 1):
                if pcs[j] == target:
                    self.internal[k] = j
                    break
                if instrs[j].iclass is InstrClass.JUMP:
                    break
        self.has_skips = bool(self.internal)
        # Loop shape: the trace compiles to ``while 1:`` when any branch
        # transfers control back to the head — the terminator (classic
        # loop), or a mid-trace backward branch to the head, which
        # lowers to a literal ``continue`` (loops written with several
        # continue-style back edges stay resident in one function).
        last = instrs[-1]
        last_pc = pcs[-1]
        if last.iclass is InstrClass.BRANCH:
            ends = (branch_target(last, last_pc), (last_pc + 4) & MASK32)
        elif last.iclass is InstrClass.JUMP and last.name in ("j", "jal"):
            ends = (jump_target(last, last_pc),)
        else:
            ends = ()
        self.loop = head in ends or any(
            instr.iclass is InstrClass.BRANCH
            and branch_target(instr, pc) == head
            for pc, instr in zip(pcs[:-1], instrs[:-1]))

    # ----------------------------------------------------------- operands

    def _ref(self, reg):
        """Expression for reading architectural register *reg*."""
        if reg == 0:
            return "0"
        self.reads.add(reg)
        return "r%d" % reg

    def _wref(self, reg):
        """Local assigned for writing *reg* (caller guarantees reg != 0)."""
        self.writes.add(reg)
        return "r%d" % reg

    def line(self, text):
        """Append one body line at the current block prefix."""
        self.lines.append(self._prefix + text)

    def _count(self, retired):
        """Retired-count expression after *retired* instrs of an iteration."""
        base = "n + %d" % retired if self.loop else "%d" % retired
        return base + " - _d" if self.has_skips else base

    # ------------------------------------------------------------- opcodes

    def _render(self, template, instr):
        """*template* with its operands read and its immediates inlined."""
        values = {}
        for field in template_fields(template):
            value = _STATIC[field](instr)
            values[field] = (self._ref(value) if field in OPERANDS
                             else "%d" % value)
        return template.format(**values)

    def _alu_expr(self, instr):
        """Value expression of a templated ALU op (collapsing move idioms
        such as ``or rd, rs, r0`` and ``sll rd, rt, 0`` to plain copies)."""
        name = instr.name
        template = ALU_TEMPLATES.get(name)
        if template is None:
            raise _Unsupported(name)
        for field in _ZERO_FIELDS:
            if (name, field) in _COLLAPSES and not _STATIC[field](instr):
                template = _COLLAPSES[name, field]
                break
        if name == "mul" and instr.rs == instr.rt:
            template = _SQUARE
        return self._render(template, instr)

    def _branch_cond(self, instr):
        """Taken-condition expression of a conditional branch."""
        template = BRANCH_TEMPLATES.get(instr.name)
        if template is None:
            raise _Unsupported(instr.name)
        return self._render(template, instr)

    # ------------------------------------------------------- instructions

    def _emit_alu(self, index, pc, instr):
        name = instr.name
        dest = instr.dest
        if name not in ALU_TEMPLATES:
            # A divide: its table op can fault, so call it.
            self.faultable = True
            call = "_%s(_INS[%d], %s, %s)" % (
                name, index, self._ref(instr.rs), self._ref(instr.rt))
            self.line("_i = %d" % index)
            if dest:
                self.line("%s = %s" % (self._wref(dest), call))
            else:
                self.line(call)          # fault side effect only
        else:
            expr = self._alu_expr(instr)
            if dest:
                self.line("%s = %s" % (self._wref(dest), expr))
            # No destination and no fault path: the instruction is a no-op.
        if self.logging:
            self.line("_lg(%d)" % pc)

    def _emit_page(self):
        """Page lookup for the address in ``_a`` (page index in ``_x``,
        page bytearray in ``_lp``).

        Inlines :meth:`MainMemory._page`'s fast path with a last-page
        cache: the common same-page-as-before access pays one integer
        compare instead of a dict probe.  Caching the bytearray is
        sound because pages are mutated in place, never replaced, for
        the memory's lifetime.  ``_mkpage`` materialises zero-filled
        pages exactly as the memory object would, so first-touch
        behaviour (visible to ``page_numbers()`` and the checkpoint
        layer) is unchanged.
        """
        self.has_mem = True
        self.line("_x = _a >> %d" % PAGE_SHIFT)
        self.line("if _x != _lx:")
        self.line("    _lp = _pages(_x)")
        self.line("    if _lp is None:")
        self.line("        _lp = _mkpage(_a)")
        self.line("    _lx = _x")

    def _fault_exit(self, index, pc, message):
        """Cold-path fault raise: write back and raise :class:`TraceFault`.

        Memory ops can only fault on the alignment check emitted right
        here, so the fault protocol is inlined at the (never-hot) raise
        site instead of paying ``_i`` bookkeeping on the hot path.
        """
        self.line("    %s" % _WB)
        self.line("    raise _TF(%s, %d, _MF(_a, '%s'))"
                  % (self._count(index), pc, message))

    def _emit_access(self, index, pc, instr, kind):
        """``_a`` = the effective address, the alignment fault and the
        page lookup of a load or store; returns its width in bytes."""
        width = ACCESS_SIZES.get(instr.name)
        if width is None:
            raise _Unsupported(instr.name)
        self.line("_a = (%s + %d) & 4294967295"
                  % (self._ref(instr.rs), instr.imm))
        if width > 1:
            self.line("if _a & %d:" % (width - 1))
            self._fault_exit(index, pc, "unaligned %s %s"
                             % (_WIDTH_NOUN[width], kind))
        self._emit_page()
        if width > 1:
            self.line("_o = _a & 4095")
        return width

    def _emit_load(self, index, pc, instr):
        # Inlined MainMemory.load_word/half/byte (same alignment faults,
        # same first-touch page materialisation, little-endian bytes),
        # then the load's extension template from LOADS.
        width = self._emit_access(index, pc, instr, "load")
        if width > 1:
            value = "_fb(_lp[_o:_o + %d], 'little')" % width
        else:
            value = "_lp[_a & 4095]"
        extend = LOADS[instr.name][1]
        if extend != "{v}":
            self.line("_v = %s" % value)
            value = extend.format(v="_v")
        if instr.dest:
            self.line("%s = %s" % (self._wref(instr.dest), value))
        # Without a destination the alignment fault and the first-touch
        # page materialisation above are the load's only effects.
        if self.logging:
            self.line("_lg(%d)" % pc)

    def _emit_store(self, index, pc, instr):
        # Inlined MainMemory.store_word/half/byte including the per-page
        # write-version bump every cached view revalidates against.
        width = self._emit_access(index, pc, instr, "store")
        value = self._ref(instr.rt)
        if width == 4:
            # Register values hold the unsigned-32 invariant, so the
            # store_word mask would be a no-op (to_bytes still range-checks).
            self.line("_lp[_o:_o + 4] = (%s).to_bytes(4, 'little')" % value)
        elif width == 2:
            self.line("_lp[_o:_o + 2] = (%s & 65535)"
                      ".to_bytes(2, 'little')" % value)
        else:
            self.line("_lp[_a & 4095] = %s & 255" % value)
        self.line("_versions[_x] = _vget(_x, 0) + 1")
        if self.logging:
            self.line("_lg(%d)" % pc)
        # Store into the trace's own text page: everything younger in
        # this trace was compiled from the pre-store bytes.  The store
        # itself has retired; exit so the caller re-decodes the rest.
        self.line("if _x == %d:" % self.head_page)
        self.line("    %s" % _WB)
        self.line("    return (%d, %s)"
                  % ((pc + 4) & MASK32, self._count(index + 1)))

    def _emit_plain(self, index, pc, instr):
        """One non-control instruction (also used inside skip blocks)."""
        iclass = instr.iclass
        if iclass is InstrClass.ALU or iclass is InstrClass.MDU:
            self._emit_alu(index, pc, instr)
        elif iclass is InstrClass.LOAD:
            self._emit_load(index, pc, instr)
        elif iclass is InstrClass.STORE:
            self._emit_store(index, pc, instr)
        elif iclass is InstrClass.NOP:
            if self.logging:
                self.line("_lg(%d)" % pc)
        else:          # pragma: no cover - discovery excludes the rest
            raise _Unsupported(instr.name)

    def _emit_jump(self, index, pc, instr):
        """A jump traced *through* mid-trace.

        Discovery continued at the jump's destination, which is
        ``pcs[index + 1]`` by construction.  ``j`` and ``jal`` are
        unconditional, so nothing is checked at run time (``jal`` writes
        its link).  An inlined ``jr`` — the return of a traced-through
        call — guards on the value the target register actually holds:
        when it differs from the return site recorded at discovery the
        trace side-exits to the architecturally correct pc.
        """
        if self.logging:          # the jump retires on every path
            self.line("_lg(%d)" % pc)
        name = instr.name
        if name in ("j", "jal"):
            if instr.dest:
                self.line("%s = %d"
                          % (self._wref(instr.dest), (pc + 4) & MASK32))
            return
        if name != "jr":          # pragma: no cover - discovery excludes
            raise _Unsupported(name)
        reg = self._ref(instr.rs)
        self.line("if %s != %d:" % (reg, self.pcs[index + 1]))
        self.line("    %s" % _WB)
        self.line("    return (%s & 4294967295, %s)"
                  % (reg, self._count(index + 1)))

    def _emit_branch(self, index, pc, instr, end):
        """A conditional branch mid-trace (before index *end*).

        Three lowerings: a backward branch to the trace's own head is a
        literal ``continue`` (one loop iteration ends here; the while
        top re-checks the budget and resets the skip counter); a branch
        whose target resolves inside the current region compiles to an
        *internal skip* — taken adds the skipped width to ``_d``, not
        taken executes the region in the ``else`` block (recursively,
        so nested diamonds stay resident); anything else is a side exit
        retiring exactly ``index + 1`` instructions.  Returns the next
        instruction index to emit.
        """
        if self.logging:          # the branch retires on every path
            self.line("_lg(%d)" % pc)
        if branch_target(instr, pc) == self.head:
            self.line("if %s:" % self._branch_cond(instr))
            self.line("    n += %d%s"
                      % (index + 1, " - _d" if self.has_skips else ""))
            self.line("    continue")
            return index + 1
        target_index = self.internal.get(index)
        if target_index is None or target_index > end:
            self.line("if %s:" % self._branch_cond(instr))
            self.line("    %s" % _WB)
            self.line("    return (%d, %s)"
                      % (branch_target(instr, pc), self._count(index + 1)))
            return index + 1
        width = target_index - index - 1
        if width == 0:          # branch to the next pc: retires, no effect
            return index + 1
        self.line("if %s:" % self._branch_cond(instr))
        self.line("    _d += %d" % width)
        self.line("else:")
        outer = self._prefix
        self._prefix = outer + "    "
        before = len(self.lines)
        self._emit_range(index + 1, target_index)
        if len(self.lines) == before:          # skipped region was all NOPs
            self.line("pass")
        self._prefix = outer
        return target_index

    def _emit_range(self, start, end):
        """Emit instruction indices ``[start, end)`` with full control
        handling (plain instrs, branches, traced-through jumps)."""
        index = start
        while index < end:
            pc = self.pcs[index]
            instr = self.instrs[index]
            iclass = instr.iclass
            if iclass is InstrClass.BRANCH:
                index = self._emit_branch(index, pc, instr, end)
            elif iclass is InstrClass.JUMP:
                self._emit_jump(index, pc, instr)
                index += 1
            else:
                self._emit_plain(index, pc, instr)
                index += 1

    def _emit_terminator(self, pc, instr):
        """Close the trace after its last instruction.

        In loop mode every path first accounts the full iteration
        (``n += total``); a path that transfers control back to the head
        simply falls to the ``while`` top, every other path writes back
        and returns ``(next_pc, n)``.  In straight-line mode the counts
        are the usual literal prefixes.
        """
        total = len(self.instrs)
        iclass = instr.iclass
        is_control = (iclass is InstrClass.BRANCH
                      or iclass is InstrClass.JUMP)
        if self.logging and is_control:          # plain instrs logged already
            self.line("_lg(%d)" % pc)
        if self.loop:
            self.line("n += %d%s"
                      % (total, " - _d" if self.has_skips else ""))
            cnt = "n"          # the line above accounted this iteration
        else:
            cnt = self._count(total)
        if iclass is InstrClass.BRANCH:
            cond = self._branch_cond(instr)
            taken = branch_target(instr, pc)
            fall = (pc + 4) & MASK32
            if self.loop and taken == self.head and fall == self.head:
                return          # both arms re-enter: the while just loops
            if self.loop and taken == self.head:
                self.line("if not (%s):" % cond)
                self.line("    %s" % _WB)
                self.line("    return (%d, n)" % fall)
                return
            if self.loop and fall == self.head:
                self.line("if %s:" % cond)
                self.line("    %s" % _WB)
                self.line("    return (%d, n)" % taken)
                return
            self.line(_WB)
            self.line("return ((%d if %s else %d), %s)"
                      % (taken, cond, fall, cnt))
            return
        if iclass is InstrClass.JUMP:
            # The link is written before jr/jalr read their target
            # register (the predecode/interpreter order, visible when
            # rd == rs).
            if instr.dest:
                self.line("%s = %d" % (self._wref(instr.dest),
                                       (pc + 4) & MASK32))
            if instr.name in ("j", "jal"):
                target = jump_target(instr, pc)
                if self.loop and target == self.head:
                    return          # unconditional back edge: while loops
                target = "%d" % target
            else:
                target = "%s & 4294967295" % self._ref(instr.rs)
            self.line(_WB)
            self.line("return (%s, %s)" % (target, cnt))
            return
        # Non-control end (page boundary / length cap / serializing next);
        # the instruction itself was already emitted (and logged) above.
        self.line(_WB)
        self.line("return (%d, %s)" % ((pc + 4) & MASK32, cnt))

    # ------------------------------------------------------------ assembly

    def emit(self):
        """Return the full function source, or raise :class:`_Unsupported`."""
        last = len(self.instrs) - 1
        last_class = self.instrs[last].iclass
        control_last = (last_class is InstrClass.BRANCH
                        or last_class is InstrClass.JUMP)
        self._emit_range(0, last if control_last else last + 1)
        self._emit_terminator(self.pcs[last], self.instrs[last])

        used = sorted(self.reads | self.writes)
        writeback = "; ".join("regs[%d] = r%d" % (reg, reg)
                              for reg in sorted(self.writes)) or "pass"
        indent = "    "
        header = "def _trace(regs, budget, _log):" if self.logging \
            else "def _trace(regs, budget):"
        out = [header]
        if self.logging:
            out.append(indent + "_lg = _log.append")
        for reg in used:
            out.append(indent + "r%d = regs[%d]" % (reg, reg))
        if self.has_mem:
            out.append(indent + "_lx = -1")          # last-page cache
        if self.loop:
            out.append(indent + "n = 0")
        if self.faultable:
            out.append(indent + "_i = 0")
        if self.has_skips:
            out.append(indent + "_d = 0")
        depth = 1
        if self.faultable:
            out.append(indent * depth + "try:")
            depth += 1
        if self.loop:
            out.append(indent * depth + "while 1:")
            depth += 1
            out.append(indent * depth + "if n + %d > budget:"
                       % len(self.instrs))
            out.append(indent * depth + "    break")
            if self.has_skips:
                out.append(indent * depth + "_d = 0")
        for line in self.lines:
            out.append(indent * depth + line.replace(_WB, writeback))
        if self.faultable:
            out.append(indent + "except (_MF, _AF) as exc:")
            out.append(indent * 2 + writeback)
            retired = "n + _i" if self.loop else "_i"
            if self.has_skips:
                retired += " - _d"
            out.append(indent * 2 + "raise _TF(%s, _PCS[_i], exc)" % retired)
        if self.loop:
            out.append(indent + writeback)
            out.append(indent + "return (%d, n)" % self.head)
        return "\n".join(out) + "\n"


def compile_trace(head, pcs, instrs, memory, logging=False):
    """Compile one discovered run into ``fn(regs, budget)``.

    With ``logging=True`` the function takes ``(regs, budget, log)`` and
    appends every retired pc to *log* as it executes — the exact stream
    a step() loop would record — at the cost of one append per retired
    instruction.  The dispatcher uses this variant whenever a retire log
    is attached (the difftest oracle), so the compared stream is
    produced by the real compiled code, not reconstructed.

    Returns None when the run contains an instruction the emitter cannot
    lower (the head is then recorded as a no-trace sentinel).
    """
    emitter = _Emitter(head, list(pcs), list(instrs), logging=logging)
    try:
        source = emitter.emit()
    except _Unsupported:
        return None
    code = compile(source, "<trace@0x%08x>" % head, "exec")
    namespace = {}
    bindings = {
        "_MF": MemoryFault, "_AF": ArithmeticFault, "_TF": TraceFault,
        "_PCS": tuple(pcs),
        # Memory internals for the inlined load/store fast paths.  The
        # _pages and write_versions *dict objects* are stable for the
        # memory's lifetime (checkpoint restore mutates them in place),
        # so binding their methods here cannot go stale.
        "_pages": memory._pages.get, "_mkpage": memory._page,
        "_versions": memory.write_versions,
        "_vget": memory.write_versions.get,
        "_fb": int.from_bytes,
        # Untemplated (faulting) ALU ops call their table op.
        "_INS": tuple(instrs),
    }
    bindings.update(("_" + name, op) for name, op in ALU_OPS.items()
                    if name not in ALU_TEMPLATES)
    exec(code, bindings, namespace)
    return namespace["_trace"]


# ------------------------------------------------------------------- cache

#: Instruction classes that end a run *before* themselves: they need the
#: caller's fully-synced architectural state (hooks, handlers, halt).
_SERIAL = (InstrClass.SYSCALL, InstrClass.HALT, InstrClass.CHECK)


class TraceCache:
    """Head-pc-indexed cache of compiled traces over one memory.

    Entries are ``(page_version, fn, max_retire, pcs, page, fn_log)``
    tuples; an entry is valid while ``memory.write_versions.get(page,
    0)`` still equals ``page_version``.  ``fn is None`` marks a head not
    worth (or not able) to trace, so the dispatcher skips rediscovery
    until the page changes.  ``max_retire`` is the most one entry (one
    loop iteration) can retire — the dispatcher only enters when it fits
    the remaining step budget, making step-limit stops exact.  ``pcs``
    is one iteration's pc sequence (fault attribution); ``fn_log`` is
    the retire-logging variant, compiled lazily on first logged
    dispatch.
    """

    __slots__ = ("memory", "predecode", "entries", "heat", "rebuilds",
                 "compiled", "invalidated", "notraces", "deopt_runs",
                 "__weakref__")

    def __init__(self, memory):
        self.memory = memory
        self.predecode = cache_for(memory)
        self.entries = {}
        self.heat = {}
        self.rebuilds = {}
        self.compiled = 0          # traces compiled (incl. recompiles)
        self.invalidated = 0       # dispatch-time version mismatches
        self.notraces = 0          # no-trace sentinels installed
        self.deopt_runs = 0        # run() calls forced per-instruction

    # ------------------------------------------------------------ building

    def _discover(self, head):
        """Collect the superblock starting at *head*.

        Discovery follows the expected-hot path: forward conditional
        branches become side exits or internal skips and tracing
        continues past them (the superblock bet: hot code mostly falls
        through its forward branches); a backward branch to the head
        lowers to ``continue``; ``j``/``jal`` are traced *through*
        (static targets — ``jal`` pushes its return site and a later
        ``jr`` pops it, inlining direct calls under a run-time link
        guard).  Backward branches to other blocks, dynamic jumps with
        no pending call, serializing instructions, page crossings and
        the length cap terminate the block — the length cap also bounds
        discovery through any jump cycle that avoids the head.
        """
        head_page = head >> PAGE_SHIFT
        pcs = []
        instrs = []
        pc = head
        fetch = self.predecode.fetch
        stack = []          # return sites of traced-through jal calls
        while len(instrs) < MAX_TRACE_LEN:
            if pc >> PAGE_SHIFT != head_page:
                break          # single-page traces only
            try:
                entry = fetch(pc)
            except (MemoryFault, DecodeError):
                break
            instr = entry[3]
            iclass = instr.iclass
            if iclass in _SERIAL:
                break
            pcs.append(pc)
            instrs.append(instr)
            if iclass is InstrClass.JUMP:
                name = instr.name
                if name in ("j", "jal"):
                    target = jump_target(instr, pc)
                    if target == head:
                        break          # back edge: loop terminator
                    if name == "jal":
                        if len(stack) >= MAX_INLINE_DEPTH:
                            break
                        stack.append((pc + 4) & MASK32)
                    elif target <= pc:
                        # Backward ``j``: another block's loop back
                        # edge.  Tracing through it would unroll that
                        # loop body instead of letting its own head
                        # form a resident loop trace.
                        break
                    pc = target
                    continue
                if name == "jr" and stack:
                    pc = stack.pop()          # guarded inline return
                    continue
                break          # jalr / bare jr: dynamic terminator
            if iclass is InstrClass.BRANCH:
                taken = branch_target(instr, pc)
                if taken <= pc and taken != head:
                    break      # backward to another block: terminator
            pc = (pc + 4) & MASK32
        return pcs, instrs

    def build(self, head):
        """(Re)discover and compile the trace at *head*; install the entry."""
        page = head >> PAGE_SHIFT
        version = self.memory.write_versions.get(page, 0)
        pcs, instrs = self._discover(head)
        fn = None
        if instrs and (len(instrs) >= MIN_TRACE_LEN
                       or _Emitter(head, pcs, instrs).loop):
            fn = compile_trace(head, pcs, instrs, self.memory)
        entries = self.entries
        if len(entries) >= MAX_TRACES:
            entries.clear()
        if len(self.heat) >= MAX_HEAT_ENTRIES:
            self.heat.clear()
        if fn is None:
            entry = (version, None, 0, (), page, None)
            self.notraces += 1
        else:
            entry = (version, fn, len(pcs), tuple(pcs), page, None)
            self.compiled += 1
        entries[head] = entry
        return entry

    def ensure_logging(self, head):
        """Attach the retire-logging variant to a valid entry at *head*.

        Rediscovers under the entry's (just revalidated) page version,
        so the logging function is compiled from the same instructions.
        """
        entry = self.entries[head]
        pcs, instrs = self._discover(head)
        if tuple(pcs) != entry[3]:          # pragma: no cover - paranoia
            return self.build(head)
        fn_log = compile_trace(head, pcs, instrs, self.memory, logging=True)
        entry = entry[:5] + (fn_log,)
        self.entries[head] = entry
        return entry

    def rebuild(self, head):
        """Replace a version-stale entry; blacklist pathological heads."""
        self.invalidated += 1
        count = self.rebuilds.get(head, 0) + 1
        self.rebuilds[head] = count
        if count > REBUILD_LIMIT:
            page = head >> PAGE_SHIFT
            entry = (self.memory.write_versions.get(page, 0), None, 0, (),
                     page, None)
            self.entries[head] = entry
            self.notraces += 1
            return entry
        return self.build(head)

    # --------------------------------------------------------------- stats

    def stats(self):
        """Counters for ``repro info`` / ``--stats-json`` reporting."""
        live = sum(1 for entry in self.entries.values()
                   if entry[1] is not None)
        return {
            "traces_live": live,
            "notrace_heads": len(self.entries) - live,
            "compiled": self.compiled,
            "invalidated": self.invalidated,
            "notraces": self.notraces,
            "deopt_runs": self.deopt_runs,
            "heat_tracked": len(self.heat),
        }

    def publish(self, registry, prefix="trace"):
        """Mirror :meth:`stats` into a metrics registry as gauges."""
        for name, value in self.stats().items():
            registry.gauge("%s.%s" % (prefix, name)).set(value)


def traces_for(memory):
    """The shared :class:`TraceCache` for *memory* (created on demand).

    Attached to the memory object itself — like the predecode cache —
    so every simulator executing from the same memory shares one trace
    table and one invalidation protocol, and whole-machine checkpoint
    (which never walks memory attributes) cannot capture stale traces:
    restore's monotonic version bumps make them unreachable instead.
    The registration is a weak reference, since the cache and its
    traces hold the memory: the cache lives while an engine holds it.
    """
    ref = getattr(memory, "trace_cache", None)
    cache = None if ref is None else ref()
    if cache is None:
        cache = TraceCache(memory)
        memory.trace_cache = weakref.ref(cache)
    return cache
