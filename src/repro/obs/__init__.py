"""repro.obs — the machine-wide telemetry layer.

One unified stats/trace API over every simulated component:

* ``Machine.snapshot()`` — a single, schema-stable nested document
  (:data:`~repro.obs.hub.SCHEMA`) composed from per-component
  ``snapshot()`` providers registered on the machine's
  :class:`Observability` hub;
* :class:`MetricsRegistry` — counters / gauges / histograms fed by
  probes (IOQ occupancy, bus MAU-wait distribution, CHECK-to-commit
  latency, ...);
* :class:`CycleTracer` — a bounded cycle-event ring with JSONL export;
* probes (:data:`PROBES`) — opt-in instrumentation that is zero-cost
  when detached (attach-time method shadowing, no per-event guards).
"""

from repro.obs.hub import SCHEMA, Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probes import PROBES, Probe
from repro.obs.tracer import (
    CommitTracer,
    CycleTracer,
    TraceEntry,
    trace_functional,
    trace_process,
)

__all__ = [
    "SCHEMA", "Observability",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "PROBES", "Probe",
    "CycleTracer", "CommitTracer", "TraceEntry",
    "trace_functional", "trace_process",
]
