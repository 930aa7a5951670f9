"""PC-indexed predecode cache with closure-compiled instruction semantics.

Both execution engines used to pay for every simulated instruction
twice: ``decode(memory.load_word(pc))`` on every fetch, then a
name-string dispatch for the operation itself.  This module removes
both costs while keeping memory the single source of architectural
truth:

* :class:`PredecodeCache` maps ``pc -> (page_version, exec_closure,
  raw_word, Instr)``.  The functional simulator's step loop executes the
  closure; the pipeline's fetch stage reads the ``Instr``.  Entries
  revalidate against :attr:`MainMemory.write_versions` — the per-page
  store counters — so a store that hits cached text (self-modifying
  code, a campaign ``instr-flip``/``mem-flip`` landing in the text
  segment, a page restore) invalidates exactly the affected page and the
  engines decode what is actually in memory.

* :func:`compile_instr` lowers one decoded instruction at one pc into a
  bound closure, threaded-code style: operand register indices,
  immediates, branch targets, bound memory accessors and the operation
  are baked in at compile time, so executing the instruction is a single
  call with no dispatch.  No opcode is restated here: the ALU and branch
  closure factories are generated at import time from the templates in
  :mod:`repro.isa.semantics`, and the divides and destination-less ALU
  instructions call their ``ALU_OPS`` entry.  ``tests/isa/
  test_predecode.py`` and ``test_fast_tiers.py`` pin every closure to
  the table callables.

Closure protocol (the contract with :class:`repro.funcsim.FuncSim`):

* ``fn(sim)`` executes the instruction against ``sim.regs`` and the
  bound memory and returns the **next pc** (a non-negative int).  It
  does not touch ``sim.pc`` or ``sim.instret`` — the caller owns those,
  keeping them in locals on the hot loop and syncing at stop points.
* Serializing cases return a negative sentinel instead: :data:`HALT`
  (closure has set ``sim.halted``), :data:`SYSCALL` or :data:`CHECK`
  (closure has done nothing; the caller runs the hook with fully synced
  architectural state, exactly like the reference interpreter).
* It may raise :class:`~repro.memory.mainmem.MemoryFault` or
  :class:`~repro.isa.semantics.ArithmeticFault`; the caller converts
  those into an architectural fault at the instruction's pc.  No
  architectural state (registers, memory) has been modified when that
  happens.
* The ``trace_mem`` hook fires from load/store closures (same event
  order as the reference interpreter); during a hot ``run()`` loop it
  may observe a stale ``sim.pc``/``sim.instret``, which no consumer
  reads.
"""

import weakref

from repro.isa.encoding import decode
from repro.isa.instructions import InstrClass
from repro.isa.semantics import (
    ALU_OPS,
    ALU_TEMPLATES,
    BRANCH_TEMPLATES,
    IMM_FIELDS,
    LOAD_OPS,
    OPERANDS,
    STORE_OPS,
    branch_target,
    jump_target,
    template_fields,
)
from repro.memory.mainmem import PAGE_SHIFT

MASK32 = 0xFFFFFFFF

#: Sentinel next-pc values (negative, so ``nxt >= 0`` is the fast test).
HALT = -1          # closure set sim.halted; instruction retired
SYSCALL = -2       # caller must sync state and run the syscall handler
CHECK = -3         # caller must run the chk hook, then advance pc by 4


# --------------------------------------------------------------- compilers
#
# The ALU and branch closures are generated from the templates in
# repro.isa.semantics: one factory per opcode, compiled when this module
# is imported.  A factory bakes one instruction's register indices and
# immediate fields and returns fn(sim) -> next_pc per the module
# protocol.  An operand the template reads twice is loaded once; a
# template that reads no register (lui) folds to a constant.

def _factory_source(template, branch):
    """Source of ``make(instr, next_pc)`` (branches: ``..., taken)``)."""
    fields = template_fields(template)
    names = dict(zip(fields, fields))
    head = (["def make(instr, next_pc, taken):"] if branch else
            ["def make(instr, next_pc):", "    dest = instr.dest"])
    body = ["    def fn(sim):", "        regs = sim.regs"]
    for field in fields:
        index = OPERANDS.get(field)
        if index is None:
            head.append("    %s = %s" % (field, IMM_FIELDS[field]))
            continue
        head.append("    %s = instr.%s" % (index, index))
        if template.count("{%s}" % field) > 1:
            body.append("        %s = regs[%s]" % (field, index))
        else:
            names[field] = "regs[%s]" % index
    expr = template.format(**names)
    if not set(fields) & set(OPERANDS):
        head.append("    value = " + expr)
        expr = "value"
    if branch:
        body.append("        return taken if %s else next_pc" % expr)
    else:
        body += ["        regs[dest] = " + expr, "        return next_pc"]
    return "\n".join(head + body + ["    return fn", ""])


def _factories(templates, branch):
    factories = {}
    for name, template in templates.items():
        namespace = {}
        exec(compile(_factory_source(template, branch),
                     "<predecode %s>" % name, "exec"), namespace)
        factories[name] = namespace["make"]
    return factories


#: name -> make(instr, next_pc) for every templated ALU op.
_ALU_FACTORIES = _factories(ALU_TEMPLATES, branch=False)
#: name -> make(instr, next_pc, taken_pc) for every branch.
_BRANCH_FACTORIES = _factories(BRANCH_TEMPLATES, branch=True)


def _compile_alu(pc, instr, next_pc):
    dest = instr.dest
    make = _ALU_FACTORIES.get(instr.name)
    if make is not None and dest:
        return make(instr, next_pc)
    # A divide, whose table op can fault, or an instruction without a
    # destination, whose only possible effect is that fault: call the op.
    op = ALU_OPS[instr.name]
    rs = instr.rs
    rt = instr.rt
    def fn(sim):
        regs = sim.regs
        value = op(instr, regs[rs], regs[rt])
        if dest:
            regs[dest] = value
        return next_pc
    return fn


def _compile_load(pc, instr, next_pc, memory):
    dest = instr.dest
    rs = instr.rs
    imm = instr.imm
    # lw calls the memory's own method: one frame fewer on the hot load.
    op = type(memory).load_word if instr.name == "lw" \
        else LOAD_OPS[instr.name]
    if not dest:
        def fn(sim):
            addr = (sim.regs[rs] + imm) & MASK32
            trace = sim.trace_mem
            if trace is not None:
                trace(sim, instr, addr, False)
            op(memory, addr)          # alignment fault still applies
            return next_pc
        return fn
    def fn(sim):
        regs = sim.regs
        addr = (regs[rs] + imm) & MASK32
        trace = sim.trace_mem
        if trace is not None:
            trace(sim, instr, addr, False)
        regs[dest] = op(memory, addr)
        return next_pc
    return fn


def _compile_store(pc, instr, next_pc, memory):
    rs = instr.rs
    rt = instr.rt
    imm = instr.imm
    # sw calls the memory's own method: one frame fewer on the hot store.
    op = type(memory).store_word if instr.name == "sw" \
        else STORE_OPS[instr.name]
    def fn(sim):
        regs = sim.regs
        addr = (regs[rs] + imm) & MASK32
        trace = sim.trace_mem
        if trace is not None:
            trace(sim, instr, addr, True)
        op(memory, addr, regs[rt])
        return next_pc
    return fn


def _compile_jump(pc, instr, next_pc):
    name = instr.name
    dest = instr.dest
    rs = instr.rs
    if name in ("j", "jal"):
        target = jump_target(instr, pc)
        if not dest:
            return _compile_constant(target)
        def fn(sim):          # jal link
            sim.regs[dest] = next_pc
            return target
        return fn
    # jr / jalr: the link is written before the target register is read,
    # matching the reference interpreter (visible when rd == rs).
    if dest:
        def fn(sim):
            regs = sim.regs
            regs[dest] = next_pc
            return regs[rs] & MASK32
    else:
        def fn(sim):
            return sim.regs[rs] & MASK32
    return fn


def _compile_halt():
    def fn(sim):
        sim.halted = True
        return HALT
    return fn


def _compile_constant(next_pc):
    def fn(sim):
        return next_pc
    return fn


def compile_instr(pc, instr, memory):
    """Compile *instr* at *pc* into an execution closure bound to *memory*."""
    iclass = instr.iclass
    next_pc = (pc + 4) & MASK32
    if iclass is InstrClass.ALU or iclass is InstrClass.MDU:
        return _compile_alu(pc, instr, next_pc)
    if iclass is InstrClass.LOAD:
        return _compile_load(pc, instr, next_pc, memory)
    if iclass is InstrClass.STORE:
        return _compile_store(pc, instr, next_pc, memory)
    if iclass is InstrClass.BRANCH:
        return _BRANCH_FACTORIES[instr.name](instr, next_pc,
                                             branch_target(instr, pc))
    if iclass is InstrClass.JUMP:
        return _compile_jump(pc, instr, next_pc)
    if iclass is InstrClass.SYSCALL:
        return _compile_constant(SYSCALL)
    if iclass is InstrClass.HALT:
        return _compile_halt()
    if iclass is InstrClass.CHECK:
        return _compile_constant(CHECK)
    if iclass is InstrClass.NOP:
        return _compile_constant(next_pc)
    raise ValueError("cannot compile %r" % (instr,))          # pragma: no cover


# ------------------------------------------------------------------- cache

class PredecodeCache:
    """PC-indexed cache of decoded + compiled instructions over one memory.

    Entries are ``(page_version, exec_closure, raw_word, instr)`` tuples.
    An entry is valid while its page's counter in
    ``memory.write_versions`` still equals ``page_version``; consumers
    on a hot path inline that check and call :meth:`refill` on a miss.
    """

    #: Entry bound; reached only by pathological self-modifying code, in
    #: which case the whole cache is dropped and rebuilt on demand.
    MAX_ENTRIES = 1 << 16

    __slots__ = ("memory", "entries", "__weakref__")

    def __init__(self, memory):
        self.memory = memory
        self.entries = {}

    def refill(self, pc):
        """(Re)build the entry for *pc* from what memory currently holds.

        Raises :class:`~repro.memory.mainmem.MemoryFault` on a bad fetch
        address and :class:`~repro.isa.encoding.DecodeError` when the
        word is not a valid instruction; neither is cached.
        """
        memory = self.memory
        version = memory.write_versions.get(pc >> PAGE_SHIFT, 0)
        word = memory.load_word(pc)
        instr = decode(word)
        entry = (version, compile_instr(pc, instr, memory), word, instr)
        entries = self.entries
        if len(entries) >= self.MAX_ENTRIES:
            entries.clear()
        entries[pc] = entry
        return entry

    def fetch(self, pc):
        """Return the validated entry for *pc* (decode/fetch may raise)."""
        entry = self.entries.get(pc)
        if (entry is None or
                self.memory.write_versions.get(pc >> PAGE_SHIFT, 0)
                != entry[0]):
            entry = self.refill(pc)
        return entry


def cache_of(memory):
    """The live shared :class:`PredecodeCache` of *memory*, or None."""
    ref = getattr(memory, "predecode_cache", None)
    return None if ref is None else ref()


def cache_for(memory):
    """The shared :class:`PredecodeCache` for *memory* (created on demand).

    Registered on the memory object itself so every engine executing
    from the same memory — the functional simulator and the pipeline of
    one machine, say — shares one cache and one invalidation protocol.
    The registration is a weak reference, since the cache and its
    closures hold the memory: the cache lives while an engine holds it.
    """
    cache = cache_of(memory)
    if cache is None:
        cache = PredecodeCache(memory)
        memory.predecode_cache = weakref.ref(cache)
    return cache
