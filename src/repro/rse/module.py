"""Base class for RSE hardware modules.

A module (Section 3.2) has, irrespective of functionality:

* a mechanism to scan ``Fetch_Out`` for CHECK instructions addressed to
  it (the engine routes them to :meth:`on_check`);
* a memory buffer, filled through the MAU;
* module-specific checking logic.

Modules operate synchronously (the pipeline commits only after the check
completes — e.g. the ICM) or asynchronously (the module lags the pipeline
and logs permanent state at commit — e.g. the DDT).

``fault_mode`` implements the error scenarios of Table 2 for the
self-checking experiments:

* ``"no_progress"``   — the module never produces a result;
* ``"false_alarm"``   — the module always declares an error;
* ``"false_negative"``— the module always declares no error.
"""

import enum
import weakref


class ModuleMode(enum.Enum):
    SYNC = "synchronous"
    ASYNC = "asynchronous"


FAULT_MODES = (None, "no_progress", "false_alarm", "false_negative")


class RSEModule:
    """Common behaviour for ICM / MLR / DDT / AHBM (and test modules)."""

    #: Module number on the CHECK interface; subclasses override.
    MODULE_ID = 0
    #: Default operating mode; subclasses override.
    MODE = ModuleMode.ASYNC

    def __init__(self, name=None):
        self.name = name or type(self).__name__
        self.engine = None          # set by RSE.attach()
        self.enabled = False
        self.fault_mode = None
        self.checks_received = 0
        self.errors_raised = 0

    # ----------------------------------------------------------- lifecycle

    def attached(self, engine):
        """Called once when the module is plugged into the framework.

        The engine owns its modules, so the module's way back is a weak
        proxy: a dropped machine is freed by reference counting.
        """
        self.engine = weakref.proxy(engine)

    def on_enable(self):
        """Hook: module was enabled via a CHECK instruction."""

    def on_disable(self):
        """Hook: module was disabled via a CHECK instruction."""

    # ------------------------------------------------------- input routing
    # The engine feeds a module an input port's items only when the
    # module's class overrides that port's hook (see :func:`overrides`).

    def on_check(self, uop, entry, cycle):
        """A CHECK instruction addressed to this module arrived.

        *entry* is the instruction's IOQ entry; ``entry.payload`` holds
        the (a0, a1) values for payload-carrying operations.  The module
        must eventually call :meth:`finish_check` for blocking checks.
        """

    def on_fetch(self, uop, cycle):
        """Fetch_Out: the instruction dispatched right after a CHECK.

        That is the CHECK's successor (``seq + 1``), the only non-CHECK
        instruction Fetch_Out carries to a module.
        """

    def on_execute(self, uop, cycle):
        """Execute_Out: result or effective address became available."""

    def on_mem_load(self, uop, cycle, value):
        """Memory_Out: a load's value arrived from the memory stage."""

    def on_commit(self, uop, cycle):
        """Commit_Out: the pipeline committed *uop*."""

    def on_squash(self, seqs, cycle):
        """Commit_Out: the pipeline squashed the given sequence numbers."""

    def pre_commit_store(self, uop, cycle):
        """Synchronous hook before a store retires; return stall cycles."""
        return 0

    def step(self, cycle):
        """Advance module-internal state one machine cycle.

        Returns True when that changed module or IOQ state.
        """
        return False

    def next_event(self, cycle):
        """The first cycle at which :meth:`step` can act, or None.

        None means the module has no timed work: only an input routed
        to it can change its state.  A subclass that overrides
        :meth:`step` without answering here is stepped every cycle.
        """
        if not overrides(self, "step"):
            return None
        return cycle

    def on_mau_complete(self, request):
        """An MAU request submitted by this module finished.

        *request* is the :class:`~repro.rse.mau.MAURequest`; its ``tag``
        is whatever continuation token the module attached at submit
        time and ``result`` holds the loaded bytes (loads only).  The
        default is a no-op so fire-and-forget stores need no handler.
        """

    # ---------------------------------------------------------------- stats

    def snapshot(self):
        """This module's entry in the machine snapshot document.

        Subclasses add counters via :meth:`_snapshot_extra` rather than
        overriding, so the common key set stays uniform across modules.
        """
        doc = {
            "enabled": self.enabled,
            "checks": self.checks_received,
            "errors": self.errors_raised,
        }
        doc.update(self._snapshot_extra())
        return doc

    def _snapshot_extra(self):
        """Module-specific counters merged into :meth:`snapshot`."""
        return {}

    def reset_stats(self):
        """Zero the module's counters (machine-wide warm-up reset)."""
        self.checks_received = 0
        self.errors_raised = 0

    # -------------------------------------------------------------- results

    def finish_check(self, entry, error, cycle):
        """Write a check result to the IOQ, honouring ``fault_mode``."""
        if self.fault_mode == "no_progress":
            return          # never completes: the watchdog must catch this
        if self.fault_mode == "false_alarm":
            error = True
        elif self.fault_mode == "false_negative":
            error = False
        if error:
            self.errors_raised += 1
        entry.complete(error, cycle)
        if error and self.engine is not None:
            self.engine.note_error_transition(self, entry, cycle)

    def __repr__(self):
        return "<%s module=%d %s%s>" % (
            self.name, self.MODULE_ID, self.MODE.value,
            " enabled" if self.enabled else "")


def overrides(module, hook):
    """True when *module*'s class overrides the :class:`RSEModule` *hook*.

    The engine steps, and feeds an input port to, only such modules.
    """
    return getattr(type(module), hook) is not getattr(RSEModule, hook)
