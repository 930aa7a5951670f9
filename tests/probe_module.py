"""Test modules: a minimal synchronous one for engine/self-check tests,
and a passive observer of the Execute_Out, Memory_Out and Commit_Out
taps."""

from repro.rse.module import ModuleMode, RSEModule

TEST_MODULE_ID = 7


class ProbeModule(RSEModule):
    """Synchronous module completing after a fixed delay, for gate tests."""

    MODULE_ID = TEST_MODULE_ID
    MODE = ModuleMode.SYNC

    def __init__(self, delay=3, error=False):
        super().__init__("Probe")
        self.delay = delay
        self.error = error
        self.seen = []
        self._due = []

    def on_check(self, uop, entry, cycle):
        self.seen.append((uop.instr.op, uop.instr.param, entry.payload))
        self._due.append((cycle + self.delay, entry))

    def step(self, cycle):
        still_due = []
        for due, entry in self._due:
            if cycle >= due:
                self.finish_check(entry, self.error, cycle)
            else:
                still_due.append((due, entry))
        self._due = still_due


TAP_MODULE_ID = 9


class TapObserver(RSEModule):
    """Records what arrives on the Execute_Out, Memory_Out and Commit_Out
    taps, the inputs no shipped module reads."""

    MODULE_ID = TAP_MODULE_ID
    MODE = ModuleMode.ASYNC

    def __init__(self):
        super().__init__("Tap")
        self.executed = []          # (name, eff_addr, value)
        self.mem_loads = []         # (pc, value)
        self.commits = []           # pcs in commit order

    def on_execute(self, uop, cycle):
        self.executed.append((uop.instr.name, uop.eff_addr, uop.value))

    def on_mem_load(self, uop, cycle, value):
        self.mem_loads.append((uop.pc, value))

    def on_commit(self, uop, cycle):
        self.commits.append(uop.pc)
