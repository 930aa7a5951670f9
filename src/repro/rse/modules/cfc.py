"""Control-Flow Checker (CFC) — an additional framework module.

The paper positions the RSE as "a versatile framework, capable of
incorporating a variety of reliability as well as security checking
routines" and cites embedded signature monitoring for control-flow
checking (Wilken & Kong [15]) as the kind of dedicated mechanism the
framework generalises.  This module demonstrates that versatility: it is
*not* one of the paper's four evaluated modules, but a fifth one built
purely against the public module interface — no engine changes.

Design (derived-signature monitoring, asynchronous mode):

* a static parse of the program builds the control-flow graph: for every
  control-transfer instruction the set of legal successor PCs (branch
  target + fall-through; jump target; ``jal`` targets; ``jr``/``jalr``
  may land on any *registered* function entry or return site);
* at run time the module watches ``Commit_Out``: whenever a control
  instruction retires, the next committed PC must be a legal successor —
  anything else is a control-flow error (a corrupted target, a hijacked
  return, a wild jump);
* asynchronous mode: detection, not prevention — errors are reported
  through a callback (kernel alarm), mirroring watchdog-processor-style
  CFC.
"""

from repro.isa.encoding import DecodeError, decode
from repro.isa.semantics import branch_target, jump_target
from repro.rse.module import ModuleMode, RSEModule

#: Module number on the CHECK interface (1..4 are the paper's modules).
MODULE_CFC = 5

MASK32 = 0xFFFFFFFF


def build_cfg(memory, text_base, text_length):
    """Static parse: successor sets for every control instruction.

    Returns ``(successors, indirect_targets)`` where *successors* maps a
    control instruction's PC to a frozen set of legal next PCs and
    *indirect_targets* is the set of legal landing sites for ``jr``/
    ``jalr`` (function entries = ``jal`` targets, plus every return site
    = the instruction after a call).
    """
    from repro.isa.instructions import InstrClass

    instrs = {}
    for offset in range(0, text_length, 4):
        pc = text_base + offset
        try:
            instrs[pc] = decode(memory.load_word(pc))
        except DecodeError:
            continue

    indirect_targets = set()
    for pc, instr in instrs.items():
        if instr.name == "jal":
            indirect_targets.add(jump_target(instr, pc))          # entry
            indirect_targets.add((pc + 4) & MASK32)          # return site
        elif instr.name == "jalr":
            indirect_targets.add((pc + 4) & MASK32)

    successors = {}
    for pc, instr in instrs.items():
        if instr.iclass is InstrClass.BRANCH:
            successors[pc] = frozenset({branch_target(instr, pc),
                                        (pc + 4) & MASK32})
        elif instr.name in ("j", "jal"):
            successors[pc] = frozenset({jump_target(instr, pc)})
        elif instr.name in ("jr", "jalr"):
            successors[pc] = None          # checked against indirect_targets
    return successors, frozenset(indirect_targets)


class ControlFlowViolation:
    """One detected illegal control transfer."""

    __slots__ = ("cycle", "from_pc", "to_pc", "kind")

    def __init__(self, cycle, from_pc, to_pc, kind):
        self.cycle = cycle
        self.from_pc = from_pc
        self.to_pc = to_pc
        self.kind = kind          # "direct" or "indirect"

    def __repr__(self):
        return ("ControlFlowViolation(0x%08x -> 0x%08x, %s, cycle=%d)"
                % (self.from_pc, self.to_pc, self.kind, self.cycle))


class CFC(RSEModule):
    """The control-flow checker module."""

    MODULE_ID = MODULE_CFC
    MODE = ModuleMode.ASYNC
    STATE = RSEModule.STATE + ("successors", "indirect_targets", "violations",
                               "transfers_checked", "_pending_control")

    def __init__(self):
        super().__init__("CFC")
        self.successors = {}
        self.indirect_targets = frozenset()
        self.violations = []
        self.on_violation = None          # callback(violation)
        self.transfers_checked = 0
        # Last committed control uop, per thread: commits interleave at
        # context switches, and the checker must not match one thread's
        # branch against another thread's next instruction.
        self._pending_control = {}

    def _snapshot_extra(self):
        return {
            "transfers_checked": self.transfers_checked,
            "violations": len(self.violations),
        }

    def reset_stats(self):
        super().reset_stats()
        self.transfers_checked = 0

    def configure(self, successors, indirect_targets):
        """Install the statically derived control-flow graph."""
        self.successors = dict(successors)
        self.indirect_targets = frozenset(indirect_targets)

    # ---------------------------------------------------------------- inputs

    def on_commit(self, uop, cycle):
        tid = self.engine.current_tid if self.engine else 0
        pending = self._pending_control.pop(tid, None)
        if pending is not None:
            self._verify(pending, uop.pc, cycle)
        if uop.instr.is_control and uop.pc in self.successors:
            self._pending_control[tid] = uop

    def on_squash(self, seqs, cycle):
        # Commits are in order and never squashed; nothing pending can be.
        pass

    def _verify(self, control_uop, next_pc, cycle):
        self.transfers_checked += 1
        allowed = self.successors.get(control_uop.pc)
        if allowed is None:          # jr/jalr: indirect transfer
            legal = next_pc in self.indirect_targets
            kind = "indirect"
        else:
            legal = next_pc in allowed
            kind = "direct"
        if not legal:
            violation = ControlFlowViolation(cycle, control_uop.pc, next_pc,
                                             kind)
            self.violations.append(violation)
            self.errors_raised += 1
            if self.on_violation is not None:
                self.on_violation(violation)
