"""Adaptive Heartbeat Monitor (AHBM) — Section 4.4 / Figure 7.

Hardware structures from the block diagram:

* ``ENTITY_IDX``   — a content-addressable memory holding the IDs of the
  monitored processes (or the OS);
* ``COUNTER_RAM``  — per-entity heartbeat counters, incremented by the
  *Increment Counter Value* CHECK instruction (or, for the OS, by a
  kernel driver writing directly);
* ``TIMEOUT_MEM``  — per-entity dynamic timeout values.

The *Adaptive Timeout Monitor* samples the counters at a fixed interval
and recomputes each timeout dynamically.  The paper omits its algorithm
"due to space limitations"; we implement a Jacobson-style estimator
(documented in DESIGN.md as our substitution): on every observed
heartbeat the inter-beat gap updates an EWMA mean and mean deviation,
and the timeout is ``mean + 4*dev + sample_period``.  An entity whose
counter has not advanced for longer than its timeout is declared failed
and the failure callback fires once.
"""

from repro.rse.check import (
    MODULE_AHBM,
    OP_AHBM_HEARTBEAT,
    OP_AHBM_REGISTER,
    OP_AHBM_UNREGISTER,
)
from repro.rse.module import ModuleMode, RSEModule

#: EWMA gains (Jacobson/Karels style).
GAIN_MEAN = 0.125
GAIN_DEV = 0.25
DEVIATION_FACTOR = 4


class MonitoredEntity:
    """State for one monitored process/thread/OS id."""

    __slots__ = ("entity_id", "counter", "last_change_cycle", "mean_gap",
                 "gap_dev", "beats_seen", "alive", "registered_cycle")

    def __init__(self, entity_id, cycle):
        self.entity_id = entity_id
        self.counter = 0
        self.last_change_cycle = cycle
        self.mean_gap = None
        self.gap_dev = 0.0
        self.beats_seen = 0
        self.alive = True
        self.registered_cycle = cycle

    def observe_beat(self, cycle):
        gap = cycle - self.last_change_cycle
        self.last_change_cycle = cycle
        self.counter += 1
        self.beats_seen += 1
        if self.mean_gap is None:
            self.mean_gap = float(gap)
            self.gap_dev = gap / 2.0
        else:
            error = gap - self.mean_gap
            self.mean_gap += GAIN_MEAN * error
            self.gap_dev += GAIN_DEV * (abs(error) - self.gap_dev)


class AHBM(RSEModule):
    """The Adaptive Heartbeat Monitor."""

    MODULE_ID = MODULE_AHBM
    MODE = ModuleMode.ASYNC
    STATE = RSEModule.STATE + ("entities", "failures", "beats_total")

    def __init__(self, sample_period=256, initial_timeout=20_000,
                 min_timeout=512):
        super().__init__("AHBM")
        self.sample_period = sample_period
        self.initial_timeout = initial_timeout
        self.min_timeout = min_timeout
        self.entities = {}          # ENTITY_IDX + COUNTER_RAM + TIMEOUT_MEM
        self.failures = []          # (cycle, entity_id)
        self.on_failure = None      # callback(entity_id, cycle)
        self.beats_total = 0

    def _snapshot_extra(self):
        return {
            "beats_total": self.beats_total,
            "entities_monitored": len(self.entities),
            "failures": len(self.failures),
        }

    def reset_stats(self):
        super().reset_stats()
        self.beats_total = 0

    # ------------------------------------------------------------- direct API

    def register(self, entity_id, cycle=None):
        """Start monitoring *entity_id* (kernel driver path)."""
        cycle = self.engine.cycle if cycle is None else cycle
        self.entities[entity_id] = MonitoredEntity(entity_id, cycle)

    def unregister(self, entity_id):
        self.entities.pop(entity_id, None)

    def beat(self, entity_id, cycle=None):
        """Increment *entity_id*'s counter (kernel driver heartbeat path)."""
        cycle = self.engine.cycle if cycle is None else cycle
        entity = self.entities.get(entity_id)
        if entity is not None:
            entity.observe_beat(cycle)
            self.beats_total += 1

    def timeout_for(self, entity):
        """The TIMEOUT_MEM value: adaptive once enough beats were seen.

        ``2*mean + 4*dev + sample_period``: the doubled mean keeps a
        benign cadence slowdown (e.g. a load spike halving the heartbeat
        rate) from being declared a failure even when the observed
        deviation has converged to ~0, while a genuinely silent entity is
        still flagged within about two of its own periods.
        """
        if entity.mean_gap is None or entity.beats_seen < 2:
            return self.initial_timeout
        timeout = (2 * entity.mean_gap + DEVIATION_FACTOR * entity.gap_dev
                   + self.sample_period)
        return max(self.min_timeout, int(timeout))

    # ----------------------------------------------------------------- checks

    def on_check(self, uop, entry, cycle):
        op = uop.instr.op
        entity_id = (entry.payload or (0, 0))[0]
        if op == OP_AHBM_REGISTER:
            self.register(entity_id, cycle)
        elif op == OP_AHBM_HEARTBEAT:
            self.beat(entity_id, cycle)
        elif op == OP_AHBM_UNREGISTER:
            self.unregister(entity_id)
        self.finish_check(entry, False, cycle)

    # ------------------------------------------------------------------- step

    def step(self, cycle):
        if cycle % self.sample_period:
            return False
        failed = False
        for entity in self.entities.values():
            if not entity.alive:
                continue
            silence = cycle - entity.last_change_cycle
            if silence > self.timeout_for(entity):
                entity.alive = False
                failed = True
                self.failures.append((cycle, entity.entity_id))
                if self.on_failure is not None:
                    self.on_failure(entity.entity_id, cycle)
        return failed

    def next_event(self, cycle):
        """The next sample point, while any monitored entity is alive."""
        if not any(entity.alive for entity in self.entities.values()):
            return None
        return -(-cycle // self.sample_period) * self.sample_period

    def is_alive(self, entity_id):
        entity = self.entities.get(entity_id)
        return entity.alive if entity is not None else None
