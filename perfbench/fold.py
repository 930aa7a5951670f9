"""Counts and per-layer metrics: the metric -> layer -> workload map.

Counts come from ``Machine.snapshot()`` documents and op results.  They
are integers summed over a run's timed ops and must repeat exactly for
one seed; ratios are formed from the sums, never averaged.  Layer times
come from a traced run (``spans.py``) and are self times per op.
"""

_CACHES = ("il1", "dl1", "il2", "dl2")


def add_snapshot(counts, doc):
    """Fold one ``Machine.snapshot()`` document into *counts*."""
    pipeline = doc["pipeline"]
    for key in ("cycles", "instret", "squashed", "fetch_stall_cycles",
                "check_wait_cycles"):
        _add(counts, "pipeline." + key, pipeline[key])
    memory = doc["memory"]
    for level in _CACHES:
        _add(counts, "memory.%s.accesses" % level, memory[level]["accesses"])
        _add(counts, "memory.%s.misses" % level, memory[level]["misses"])
    _add(counts, "memory.bus.mau_wait_cycles",
         memory["bus"]["mau_wait_cycles"])
    rse = doc["rse"]
    if rse is not None:
        _add(counts, "rse.ioq.allocated", rse["ioq"]["allocated"])
        _add(counts, "rse.mau.requests", rse["mau"]["requests"])
        for queue in rse["queues"].values():
            _add(counts, "rse.queues.pushed", queue["pushed"])
            _add(counts, "rse.queues.dropped", queue["dropped"])
        icm = rse["modules"].get("ICM")
        if icm is not None:
            _add(counts, "rse.icm.cache_hits", icm["cache_hits"])
            _add(counts, "rse.icm.cache_misses", icm["cache_misses"])
    kernel = doc["kernel"]
    _add(counts, "kernel.syscalls", kernel["syscalls"])
    _add(counts, "kernel.context_switches", kernel["context_switches"])
    _add(counts, "kernel.savepages", kernel["checkpoints"]["saves_total"])


def add_extra(counts, distinct, extra):
    """Fold an op's result-derived counts; strings count distinct values."""
    for key, value in extra.items():
        if isinstance(value, str):
            distinct.setdefault(key, set()).add(value)
        else:
            _add(counts, "result." + key, value)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _ratio(num, den):
    return num / den if den else 0.0


#: Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
#: exactly these, in this order.
PER_LAYER = (
    ("pipeline.self_ms", "ms", "lower"),
    ("pipeline.host_us_per_cycle", "us", "lower"),
    ("pipeline.cycles", "count", "lower"),
    ("pipeline.instret", "count", "lower"),
    ("pipeline.ipc", "ratio", "higher"),
    ("pipeline.squash_ratio", "ratio", "lower"),
    ("pipeline.fetch_stall_cycles", "count", "lower"),
    ("pipeline.check_wait_cycles", "count", "lower"),
    ("pipeline.share", "%", "lower"),
    ("rse.hooks_ms", "ms", "lower"),
    ("rse.hook_share", "%", "lower"),
    ("rse.ioq.allocated", "count", "lower"),
    ("rse.queues.pushed", "count", "lower"),
    ("rse.queues.dropped", "count", "lower"),
    ("rse.mau.requests", "count", "lower"),
    ("rse.icm.cache_hit_rate", "ratio", "higher"),
    ("rse.share", "%", "lower"),
    ("memory.access_ms", "ms", "lower"),
    ("memory.il1.miss_rate", "ratio", "lower"),
    ("memory.dl1.miss_rate", "ratio", "lower"),
    ("memory.il2.miss_rate", "ratio", "lower"),
    ("memory.dl2.miss_rate", "ratio", "lower"),
    ("memory.bus.mau_wait_cycles", "count", "lower"),
    ("memory.share", "%", "lower"),
    ("kernel.self_ms", "ms", "lower"),
    ("kernel.load_process_ms", "ms", "lower"),
    ("kernel.syscalls", "count", "lower"),
    ("kernel.context_switches", "count", "lower"),
    ("kernel.savepages", "count", "lower"),
    ("kernel.share", "%", "lower"),
    ("isa.assemble_ms", "ms", "lower"),
    ("isa.share", "%", "lower"),
    ("system.build_machine_ms", "ms", "lower"),
    ("system.share", "%", "lower"),
    ("checkpoint.capture_ms", "ms", "lower"),
    ("checkpoint.restore_ms", "ms", "lower"),
    ("checkpoint.encode_ms", "ms", "lower"),
    ("checkpoint.decode_ms", "ms", "lower"),
    ("checkpoint.wire_bytes", "B", "lower"),
    ("checkpoint.share", "%", "lower"),
    ("campaign.context_ms", "ms", "lower"),
    ("campaign.classify_ms", "ms", "lower"),
    ("campaign.store_ms", "ms", "lower"),
    ("campaign.prefix_reuse", "ratio", "higher"),
    ("campaign.hung_ratio", "ratio", "lower"),
    ("campaign.not_triggered_ratio", "ratio", "lower"),
    ("campaign.share", "%", "lower"),
    ("security.generate_ms", "ms", "lower"),
    ("security.stopped_ratio", "ratio", "higher"),
    ("security.unclassified", "count", "lower"),
    ("security.share", "%", "lower"),
    ("fleet.bridge_ms", "ms", "lower"),
    ("fleet.failover_ms", "ms", "lower"),
    ("fleet.slices_per_request", "ratio", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("fleet.net.sent", "count", "lower"),
    ("fleet.net.dropped", "count", "lower"),
    ("fleet.share", "%", "lower"),
    ("experiments.share", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.wrapper_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
)


def per_layer(counts, ops, groups, layers, wall_s, untraced_wall_s,
              wrappers_s):
    """Every per-layer metric of one workload run, as ``{name: value}``.

    *counts* is the traced run's :func:`counts_view`, *ops* its op
    count, *groups* / *layers* its self nanoseconds per metric group and
    per layer, *wall_s* its summed op wall, *untraced_wall_s* the
    untraced run's, for the tracing overhead, and *wrappers_s* the
    wrappers' own cost, which no layer's self time holds.  Shares are of
    the op wall without that cost.
    """
    net_s = wall_s - wrappers_s

    def ms(ns):
        return ns / 1e6 / ops

    def share(ns):
        return 100.0 * _ratio(ns / 1e9, net_s)

    def per_op(key):
        return counts.get(key, 0) / ops

    group = groups.get
    cycles = counts.get("pipeline.cycles", 0)
    instret = counts.get("pipeline.instret", 0)
    squashed = counts.get("pipeline.squashed", 0)
    # Simulating: Pipeline.run and the per-cycle RSE and memory calls.
    simulate_ns = (group("pipeline.run", 0) + group("rse.hooks", 0)
                   + group("memory.access", 0))
    served = counts.get("result.served", 0)
    attributed = sum(layers.values())
    values = {
        "pipeline.self_ms": ms(group("pipeline.run", 0)),
        "pipeline.host_us_per_cycle": _ratio(simulate_ns / 1e3, cycles),
        "pipeline.cycles": cycles / ops,
        "pipeline.instret": instret / ops,
        "pipeline.ipc": _ratio(instret, cycles),
        "pipeline.squash_ratio": _ratio(squashed, squashed + instret),
        "pipeline.fetch_stall_cycles": per_op("pipeline.fetch_stall_cycles"),
        "pipeline.check_wait_cycles": per_op("pipeline.check_wait_cycles"),
        "rse.hooks_ms": ms(group("rse.hooks", 0)),
        "rse.hook_share": 100.0 * _ratio(group("rse.hooks", 0),
                                         simulate_ns),
        "rse.ioq.allocated": per_op("rse.ioq.allocated"),
        "rse.queues.pushed": per_op("rse.queues.pushed"),
        "rse.queues.dropped": per_op("rse.queues.dropped"),
        "rse.mau.requests": per_op("rse.mau.requests"),
        "rse.icm.cache_hit_rate": _ratio(
            counts.get("rse.icm.cache_hits", 0),
            counts.get("rse.icm.cache_hits", 0)
            + counts.get("rse.icm.cache_misses", 0)),
        "memory.access_ms": ms(group("memory.access", 0)),
        "memory.bus.mau_wait_cycles": per_op("memory.bus.mau_wait_cycles"),
        "kernel.self_ms": ms(group("kernel.run", 0)),
        "kernel.load_process_ms": ms(group("kernel.load_process", 0)),
        "kernel.syscalls": per_op("kernel.syscalls"),
        "kernel.context_switches": per_op("kernel.context_switches"),
        "kernel.savepages": per_op("kernel.savepages"),
        "isa.assemble_ms": ms(group("isa.assemble", 0)),
        "system.build_machine_ms": ms(group("system.build_machine", 0)),
        "checkpoint.capture_ms": ms(group("checkpoint.capture", 0)),
        "checkpoint.restore_ms": ms(group("checkpoint.restore", 0)),
        "checkpoint.encode_ms": ms(group("checkpoint.encode", 0)),
        "checkpoint.decode_ms": ms(group("checkpoint.decode", 0)),
        "checkpoint.wire_bytes": per_op("checkpoint.wire"),
        "campaign.context_ms": ms(group("campaign.context", 0)),
        "campaign.classify_ms": ms(group("campaign.classify", 0)),
        "campaign.store_ms": ms(group("campaign.store", 0)),
        "campaign.prefix_reuse": _ratio(counts.get("result.struck", 0),
                                        counts.get("distinct.prefix", 0)),
        "campaign.hung_ratio": _ratio(counts.get("result.hung", 0), ops),
        "campaign.not_triggered_ratio": _ratio(
            counts.get("result.not_triggered", 0), ops),
        "security.generate_ms": ms(group("security.generate", 0)),
        "security.stopped_ratio": _ratio(counts.get("result.stopped", 0),
                                         ops),
        "security.unclassified": counts.get("result.unclassified", 0),
        "fleet.bridge_ms": ms(group("fleet.bridge", 0)),
        "fleet.failover_ms": ms(group("fleet.failover", 0)),
        "fleet.slices_per_request": _ratio(counts.get("result.slices", 0),
                                           served),
        "fleet.failovers": per_op("result.failovers"),
        "fleet.net.sent": per_op("result.net_sent"),
        "fleet.net.dropped": per_op("result.net_dropped"),
        "trace.overhead_pct": 100.0 * (_ratio(wall_s, untraced_wall_s) - 1.0),
        "trace.wrapper_pct": 100.0 * _ratio(wrappers_s, net_s),
        "trace.unattributed_pct": 100.0 * (1.0 - _ratio(attributed / 1e9,
                                                        net_s)),
    }
    for level in _CACHES:
        values["memory.%s.miss_rate" % level] = _ratio(
            counts.get("memory.%s.misses" % level, 0),
            counts.get("memory.%s.accesses" % level, 0))
    for layer, ns in layers.items():
        values[layer + ".share"] = share(ns)
    return values


def counts_view(counts, distinct):
    """The deterministic count record compared between two runs."""
    view = dict(counts)
    for key, values in distinct.items():
        view["distinct." + key] = len(values)
    return dict(sorted(view.items()))
