"""The Observability hub: one object per machine owning all telemetry.

``machine.obs`` aggregates the three telemetry mechanisms behind one
surface:

* **sections** — components register a ``snapshot() -> dict`` provider
  (``obs.register("pipeline", pipeline.snapshot)``); ``obs.document()``
  composes them into the single schema-stable nested document that
  ``Machine.snapshot()`` returns and ``repro run --stats-json`` writes.
* **metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` fed by
  probes.
* **tracer** — a :class:`~repro.obs.tracer.CycleTracer` event ring,
  also fed by probes, exported with :meth:`export_jsonl`.

Probes are strictly opt-in: ``obs.attach("fetch_stall")`` instruments
the machine (see :mod:`repro.obs.probes` for the attach-time shadowing
that makes detached probes literally free), ``obs.detach()`` removes
every trace of them.
"""

import weakref

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import PROBES
from repro.obs.tracer import CycleTracer

#: Version tag carried by every snapshot document.  Bump only on
#: incompatible key-structure changes; adding counters is compatible.
SCHEMA = "repro.obs/1"


class Observability:
    """Per-machine telemetry hub (sections + metrics + tracer + probes)."""

    def __init__(self, machine=None, trace_capacity=None):
        # The machine owns its hub, so the way back is weak: a dropped
        # machine is freed by reference counting, not the cycle collector.
        self._machine = None if machine is None else weakref.ref(machine)
        self.metrics = MetricsRegistry()
        self.tracer = (CycleTracer(trace_capacity) if trace_capacity
                       else CycleTracer())
        self._sections = {}          # name -> snapshot provider, in order
        self._probes = {}            # name -> attached Probe instance
        self._probe_kwargs = {}      # name -> kwargs it was attached with

    @property
    def machine(self):
        """The machine this hub reports on (None when unbound)."""
        return None if self._machine is None else self._machine()

    # ------------------------------------------------------------ sections

    def register(self, name, provider):
        """Register a component's ``snapshot``-style provider.

        *provider* is a zero-argument callable returning a plain dict
        (or None for an absent component); registration order is the
        document's key order.
        """
        self._sections[name] = provider

    def sections(self):
        return list(self._sections)

    def document(self, cycle=None):
        """Compose the full snapshot document from every registered section."""
        if cycle is None and self.machine is not None:
            cycle = self.machine.cycle
        doc = {"schema": SCHEMA, "cycle": cycle}
        for name, provider in self._sections.items():
            doc[name] = provider() if provider is not None else None
        doc["obs"] = self.snapshot()
        return doc

    def snapshot(self):
        """The hub's own section: probe roster, metrics, trace summary."""
        return {"probes": sorted(self._probes),
                "metrics": self.metrics.snapshot(),
                "trace": self.tracer.snapshot()}

    # -------------------------------------------------------------- probes

    def attach(self, name, **kwargs):
        """Attach probe *name* (see ``repro.obs.probes.PROBES``).

        Returns the probe instance (e.g. the ``commit`` probe exposes
        the :class:`CommitTracer` module as ``.tracer``).

        Re-attaching an already-attached probe with the same kwargs is
        a no-op returning the existing instance; different kwargs raise
        (the live probe was built with the old ones — detach first).
        """
        if self.machine is None:
            raise RuntimeError("hub is not bound to a machine")
        if name in self._probes:
            if kwargs != self._probe_kwargs[name]:
                raise ValueError(
                    "probe %r is already attached with %r; detach it "
                    "before re-attaching with %r"
                    % (name, self._probe_kwargs[name], kwargs))
            return self._probes[name]
        factory = PROBES.get(name)
        if factory is None:
            raise KeyError("unknown probe %r (available: %s)"
                           % (name, ", ".join(sorted(PROBES))))
        probe = factory(**kwargs)
        probe.attach(self.machine, self)
        self._probes[name] = probe
        self._probe_kwargs[name] = kwargs
        return probe

    def detach(self, name=None):
        """Detach probe *name*, or every attached probe when None."""
        if name is None:
            for attached in list(self._probes):
                self.detach(attached)
            return
        probe = self._probes.pop(name, None)
        self._probe_kwargs.pop(name, None)
        if probe is not None:
            probe.detach(self.machine)

    def attached(self):
        return sorted(self._probes)

    def probe(self, name):
        return self._probes.get(name)

    # ------------------------------------------------------------- export

    def export_jsonl(self, path):
        """Write the trace ring to *path* (JSONL); returns events written."""
        return self.tracer.export_jsonl(path)

    def reset(self):
        """Clear hub-side telemetry (metrics and trace ring)."""
        self.metrics.reset()
        self.tracer.clear()
