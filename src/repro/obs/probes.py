"""Pluggable machine probes — zero-cost when detached.

A probe instruments a component by **shadowing** one of its bound
methods with a wrapping closure stored as an *instance attribute*
(instance attributes win the lookup over class methods).  Detaching
puts back what the shadow displaced: the class method, or the shadow
of another probe or of an assertion monitor underneath (both go
through :class:`ShadowSet`, so shadows chain in either attach order).
With no probe attached there is not a single extra branch, flag test
or indirection anywhere in the simulation hot paths — the guard
happens once, at attach time, not per event.

Available probes (``PROBES`` registry, used by
``machine.obs.attach(name)``):

=============  ========================================================
name           instruments
=============  ========================================================
fetch_stall    I-fetch misses (latency histogram + events)
mispredict     branch/jump mispredictions at writeback
bus            bus arbitration: CPU/MAU transfer waits (MAU histogram)
rse            IOQ occupancy, CHECK-to-commit latency, error
               transitions
sched          kernel context switches (thread id events)
commit         retirement trace via the :class:`CommitTracer` RSE
               module
=============  ========================================================
"""

from repro.obs.tracer import CommitTracer


class ShadowSet:
    """Instance-attribute shadows that chain and restore.

    Each shadow remembers what it displaced, so a shadow can sit over
    another set's and :meth:`remove` puts back exactly what was there.
    A set shadows each attribute at most once.
    """

    def __init__(self):
        self._records = []          # (obj, attr, had, displaced, wrapper)

    def shadow(self, obj, attr, wrapper):
        had = attr in obj.__dict__
        self._records.append((obj, attr, had, obj.__dict__.get(attr),
                              wrapper))
        setattr(obj, attr, wrapper)

    def remove(self):
        """Put every displaced value back.

        Raises :class:`RuntimeError`, changing nothing, while another
        set's shadow sits over one of these: that one comes off first.
        """
        for obj, attr, __, __, wrapper in self._records:
            if obj.__dict__.get(attr) is not wrapper:
                raise RuntimeError("%s.%s is shadowed over; remove that "
                                   "shadow first" % (type(obj).__name__,
                                                     attr))
        for obj, attr, had, displaced, __ in reversed(self._records):
            if had:
                setattr(obj, attr, displaced)
            else:
                delattr(obj, attr)
        self._records.clear()


class Probe:
    """Base class: the probe's shadows, removed on detach."""

    name = None

    def __init__(self):
        self.shadows = ShadowSet()

    def attach(self, machine, obs):
        raise NotImplementedError

    def detach(self, machine):
        self.shadows.remove()


class FetchStallProbe(Probe):
    """I-cache miss latency, observed at the hierarchy's ifetch port."""

    name = "fetch_stall"

    def attach(self, machine, obs):
        hierarchy = machine.hierarchy
        orig = hierarchy.ifetch
        misses = obs.metrics.counter("pipeline.fetch_miss_events")
        latency = obs.metrics.histogram("pipeline.fetch_miss_latency")
        emit = obs.tracer.emit

        def ifetch(now, addr):
            done = orig(now, addr)
            wait = done - now
            if wait > 1:          # anything beyond an L1 hit stalls fetch
                misses.inc()
                latency.observe(wait)
                emit(now, "fetch_stall", {"pc": addr, "latency": wait})
            return done

        self.shadows.shadow(hierarchy, "ifetch", ifetch)


class MispredictProbe(Probe):
    """Branch/jump direction+target misses, observed at predictor update."""

    name = "mispredict"

    def attach(self, machine, obs):
        pipeline = machine.pipeline
        predictor = pipeline.predictor
        orig = predictor.record_hit
        count = obs.metrics.counter("pipeline.mispredict_events")
        emit = obs.tracer.emit

        def record_hit(correct):
            if not correct:
                count.inc()
                emit(pipeline.cycle, "mispredict",
                     {"fetch_pc": pipeline.fetch_pc})
            orig(correct)

        self.shadows.shadow(predictor, "record_hit", record_hit)


class BusProbe(Probe):
    """Bus arbitration: per-side transfer waits (MAU wait distribution)."""

    name = "bus"

    def attach(self, machine, obs):
        bus = machine.hierarchy.bus
        orig_cpu = bus.cpu_transfer
        orig_mau = bus.mau_transfer
        cpu_wait = obs.metrics.histogram("bus.cpu_wait")
        mau_wait = obs.metrics.histogram("bus.mau_wait")
        conflicts = obs.metrics.counter("bus.arbitration_conflicts")
        emit = obs.tracer.emit

        def cpu_transfer(now, nbytes):
            wait = bus.busy_until - now
            if wait > 0:
                conflicts.inc()
                cpu_wait.observe(wait)
                emit(now, "bus_wait", {"side": "cpu", "wait": wait,
                                       "bytes": nbytes})
            return orig_cpu(now, nbytes)

        def mau_transfer(now, nbytes):
            wait = max(bus.busy_until - now, 0)
            mau_wait.observe(wait)
            if wait > 0:
                conflicts.inc()
                emit(now, "bus_wait", {"side": "mau", "wait": wait,
                                       "bytes": nbytes})
            return orig_mau(now, nbytes)

        self.shadows.shadow(bus, "cpu_transfer", cpu_transfer)
        self.shadows.shadow(bus, "mau_transfer", mau_transfer)


class RSEProbe(Probe):
    """Framework telemetry: IOQ occupancy, CHECK latency, error events."""

    name = "rse"

    def attach(self, machine, obs):
        rse = machine.rse
        if rse is None:
            raise ValueError("the 'rse' probe needs a machine with the RSE")
        orig_dispatch = rse.on_dispatch
        orig_commit = rse.on_commit
        orig_error = rse.note_error_transition
        ioq = rse.ioq
        ioq_occupancy = rse.occupancy
        occupancy = obs.metrics.histogram("rse.ioq_occupancy",
                                          bounds=(1, 2, 4, 8, 16, 32))
        latency = obs.metrics.histogram("rse.check_commit_latency")
        errors = obs.metrics.counter("rse.error_transitions")
        emit = obs.tracer.emit

        def on_dispatch(uop, cycle):
            orig_dispatch(uop, cycle)
            occupancy.observe(ioq_occupancy())

        def on_commit(uop, cycle):
            # Read the entry before the engine frees it at commit.
            if uop.instr.is_check:
                entry = ioq.get(uop.seq)
                if entry is not None:
                    wait = cycle - entry.alloc_cycle
                    latency.observe(wait)
                    emit(cycle, "check_commit",
                         {"pc": uop.pc, "module": uop.instr.module,
                          "latency": wait})
            orig_commit(uop, cycle)

        def note_error_transition(module, entry, cycle):
            errors.inc()
            emit(cycle, "rse_error", {"module": module.name,
                                      "seq": entry.seq})
            orig_error(module, entry, cycle)

        shadow = self.shadows.shadow
        shadow(rse, "on_dispatch", on_dispatch)
        shadow(rse, "on_commit", on_commit)
        shadow(rse, "note_error_transition", note_error_transition)


class SchedProbe(Probe):
    """Kernel scheduling: one event per context switch."""

    name = "sched"

    def attach(self, machine, obs):
        kernel = machine.kernel
        orig = kernel._schedule
        switches = obs.metrics.counter("kernel.sched_events")
        emit = obs.tracer.emit

        def _schedule(deadline=None):
            picked = orig(deadline)
            if picked:
                emit(kernel.pipeline.cycle, "sched",
                     {"tid": kernel.current.tid,
                      "name": kernel.current.name})
                switches.inc()
            return picked

        self.shadows.shadow(kernel, "_schedule", _schedule)


class CommitTraceProbe(Probe):
    """Retirement trace: attaches the :class:`CommitTracer` RSE module.

    ``machine.obs.attach("commit", limit=...)`` returns the probe; the
    tracer module is its ``tracer`` attribute.
    """

    name = "commit"

    def __init__(self, limit=100_000):
        super().__init__()
        self.limit = limit
        self.tracer = None

    def attach(self, machine, obs):
        if machine.rse is None:
            raise ValueError("commit tracing needs a machine with the RSE")
        self.tracer = machine.rse.attach(CommitTracer(self.limit))
        machine.rse.enable_module(CommitTracer.MODULE_ID)

    def detach(self, machine):
        if self.tracer is not None and machine.rse is not None:
            machine.rse.disable_module(CommitTracer.MODULE_ID)
            machine.rse.detach(CommitTracer.MODULE_ID)
        self.tracer = None
        super().detach(machine)


PROBES = {probe.name: probe
          for probe in (FetchStallProbe, MispredictProbe, BusProbe,
                        RSEProbe, SchedProbe, CommitTraceProbe)}
