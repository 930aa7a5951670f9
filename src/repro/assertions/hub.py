"""``Machine.assertions`` — the per-machine assertion hub.

Mirrors ``Machine.obs``: strictly opt-in, attach-time method shadowing,
zero residual cost when never attached.  Attaching instruments the
machine's pipeline (and RSE, when present) with a pipeline-engine
:class:`~repro.assertions.monitor.AssertionMonitor`, mirrors
per-property counters into the obs metrics registry
(``assertions.<id>``), and contributes an ``assertions`` section to
``Machine.snapshot()`` carrying the violation records.

Checkpoint interplay: the checkpoint layer never captures a shadow (it
takes only the fields each component's class declares in ``STATE``), so
a monitored machine captures exactly what a bare one does.  The hub
shadows ``machine.checkpoint`` and ``machine.restore`` only to emit the
``checkpoint``/``restore`` events the MAU-quiesce and page-version
properties consume.
"""

import weakref

from repro.assertions.adapters import PipelineAdapter, ShadowSet
from repro.assertions.monitor import AssertionMonitor


def _pending_orphans(rse):
    """Does the MAU hold a request for a module the RSE does not attach?

    The checkpoint layer pins only attached modules, so a restored
    request for any other module would complete into a deep-copied
    orphan instead of a live module.
    """
    if rse is None:
        return False
    mau = rse.mau
    pending = list(mau._queue)
    if mau._active is not None:
        pending.append(mau._active)
    attached = {id(module) for module in rse.modules.values()}
    return any(request.module is not None
               and id(request.module) not in attached
               for request in pending)


class AssertionHub:
    """Attach/detach assertion monitoring on one :class:`Machine`."""

    def __init__(self, machine):
        # Weak, like Observability.machine: the machine owns its hub.
        self._machine = weakref.ref(machine)
        self.monitor = None          # survives detach: snapshot keeps results
        self._adapter = None
        self._machine_shadows = None

    @property
    def machine(self):
        return self._machine()

    # -------------------------------------------------------------- attach

    def is_attached(self):
        return self._adapter is not None

    def attach(self, properties=None):
        """Start monitoring; returns the :class:`AssertionMonitor`."""
        if self._adapter is not None:
            raise RuntimeError("assertions already attached; detach() first")
        machine = self.machine
        monitor = AssertionMonitor("pipeline", properties,
                                   metrics=machine.obs.metrics)
        adapter = PipelineAdapter(machine.pipeline, monitor)
        adapter.attach()
        shadows = ShadowSet()
        checkpoint_handlers = monitor.handlers("checkpoint")
        restore_handlers = monitor.handlers("restore")
        redirect_handlers = monitor.handlers("redirect")

        orig_checkpoint = machine.checkpoint
        orig_restore = machine.restore

        def checkpoint():
            orphans = _pending_orphans(machine.rse)
            captured = orig_checkpoint()
            for handler in checkpoint_handlers:
                handler(orphans)
            return captured

        def restore(captured):
            pre_versions = dict(machine.memory.write_versions)
            result = orig_restore(captured)
            for handler in restore_handlers:
                handler(machine.memory, captured, pre_versions)
            for handler in redirect_handlers:
                handler(machine.pipeline.fetch_pc)
            return result

        shadows.shadow(machine, "checkpoint", checkpoint)
        shadows.shadow(machine, "restore", restore)

        self.monitor = monitor
        self._adapter = adapter
        self._machine_shadows = shadows
        return monitor

    def detach(self):
        """Stop monitoring (runs the final sweeps); results stay readable."""
        if self._adapter is None:
            return
        self._machine_shadows.remove()
        self._machine_shadows = None
        adapter, self._adapter = self._adapter, None
        adapter.detach()

    # ------------------------------------------------------------- results

    def violation_count(self):
        return 0 if self.monitor is None else self.monitor.violation_count()

    def violations(self):
        return [] if self.monitor is None else list(self.monitor.violations)

    def snapshot(self):
        """The hub's section of the machine snapshot document."""
        doc = {"attached": self.is_attached()}
        if self.monitor is None:
            doc.update(properties=[], counts={}, violations=[])
        else:
            sub = self.monitor.snapshot()
            doc.update(properties=sub["properties"], counts=sub["counts"],
                       violations=sub["violations"])
        return doc
