"""Instruction Output Queue (IOQ) — Table 1 semantics.

In the paper an IOQ entry is allocated for every instruction when it is
forwarded to the framework (at dispatch) and freed at commit/squash.
Two bits per entry communicate module results back to the commit unit:

=========  ======  ==========================================================
checkValid check   meaning
=========  ======  ==========================================================
0          0       CHECK allocated, module still executing — commit may stall
1          0       non-CHECK instruction, or CHECK finished with no error
1          1       CHECK finished, error detected — pipeline is flushed
=========  ======  ==========================================================

Entries also support stuck-at fault injection on either bit (the error
scenarios of Table 2); the effective value seen by the pipeline and the
self-checking watchdog honours the stuck-at override.

Only a CHECK's bits ever change or reach the commit gate, and every
other instruction's entry is the constant '10', so this queue holds
exactly the in-flight CHECKs, keyed by sequence number.  The counts the
snapshot reports for the paper's IOQ — one allocation per dispatched
instruction, one entry per instruction in flight — come from the
pipeline: the dispatches Fetch_Out counts
(:meth:`repro.rse.engine.RSE.count_inputs`) and the ROB
(:meth:`repro.rse.engine.RSE.occupancy`).
"""

import copy


class IOQEntry:
    """The IOQ entry of one in-flight CHECK, keyed by its sequence number."""

    __slots__ = ("seq", "uop", "check_valid", "check", "alloc_cycle",
                 "payload", "stuck_check_valid", "stuck_check",
                 "valid_set_cycle", "error_transitions")

    def __init__(self, seq, uop, cycle):
        self.seq = seq
        self.uop = uop
        self.alloc_cycle = cycle
        # Table 1: a CHECK allocates '00'.
        self.check_valid = 0
        self.check = 0
        self.payload = None          # (a0, a1) once Regfile_Data delivers
        self.stuck_check_valid = None
        self.stuck_check = None
        self.valid_set_cycle = None
        self.error_transitions = 0

    def __deepcopy__(self, memo):
        # Slot walk for machine checkpoints: ``uop`` goes through the
        # memo so the entry and the ROB share one clone; every other
        # slot holds an int, None or a tuple of ints.
        clone = object.__new__(IOQEntry)
        memo[id(self)] = clone
        for name in _ENTRY_VALUE_SLOTS:
            setattr(clone, name, getattr(self, name))
        clone.uop = copy.deepcopy(self.uop, memo)
        return clone

    # ------------------------------------------------------ effective bits

    @property
    def effective_check_valid(self):
        if self.stuck_check_valid is not None:
            return self.stuck_check_valid
        return self.check_valid

    @property
    def effective_check(self):
        if self.stuck_check is not None:
            return self.stuck_check
        return self.check

    # ------------------------------------------------------------- writes

    def complete(self, error, cycle):
        """Module writes its result: sets checkValid and the check bit."""
        self.check_valid = 1
        self.valid_set_cycle = cycle
        if error:
            if self.check == 0:
                self.error_transitions += 1
            self.check = 1
        else:
            self.check = 0

    def __repr__(self):
        return "IOQEntry(seq=%d, cv=%d, chk=%d)" % (
            self.seq, self.effective_check_valid, self.effective_check)


_ENTRY_VALUE_SLOTS = tuple(name for name in IOQEntry.__slots__
                           if name != "uop")


class IOQ:
    """The queue itself: CHECK allocation, result lookup, and freeing."""

    #: What a checkpoint carries (:mod:`repro.checkpoint`).
    STATE = ("_entries",)

    def __init__(self):
        self._entries = {}

    def allocate(self, uop, cycle):
        """Allocate the '00' entry of the dispatched CHECK *uop*."""
        entry = IOQEntry(uop.seq, uop, cycle)
        self._entries[uop.seq] = entry
        return entry

    def get(self, seq):
        """The entry of in-flight CHECK *seq*; None for any other seq."""
        return self._entries.get(seq)

    def free(self, seq):
        self._entries.pop(seq, None)

    def oldest_pending_check(self):
        """The first-allocated CHECK entry whose module has not yet
        produced a result, or None (allocation order is alloc-cycle
        order)."""
        for entry in self._entries.values():
            if entry.effective_check_valid == 0:
                return entry
        return None

    def entries(self):
        return list(self._entries.values())

    def __len__(self):
        return len(self._entries)
