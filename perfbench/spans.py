"""Traced mode: time each layer's public entry points from outside.

Every entry point is wrapped at class or module level, never on an
instance: an instance attribute would un-share CPython's key-sharing
dicts and slow the code being measured.  ``Pipeline.step`` is never
wrapped, because shadowing it sends ``Pipeline.run`` to the reference
loop.

Each wrapper measures its call and keeps the **self time**: the call's
duration minus the time its wrapped callees took, so nested layers
never count twice.  A wrapper's own cost falls outside the duration it
measures, in its caller; :meth:`Tracer.install` times each kind of
wrapper around a no-op first, and every call credits that cost to its
caller's callee time, so it lands in no layer's self time.  The run
reports the sum as the wrappers' cost.  Entry points called every simulated cycle (RSE
hooks, hierarchy accesses) or every kernel slice keep only a summed
time and a call count.  The rest also record a span
``(name, start_ns, end_ns, parent, op)`` in memory; :meth:`Tracer.dump`
writes them out when the run ends.
"""

import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter_ns

#: (layer, group, "module:qualname", per_cycle).  ``group`` names the
#: per-layer metric the entry point's self time folds into.
ENTRIES = (
    ("pipeline", "pipeline.run", "repro.pipeline.core:Pipeline.run", True),
) + tuple(
    ("rse", "rse.hooks", "repro.rse.engine:RSE." + hook, True)
    for hook in ("step", "on_dispatch", "on_operands", "on_execute",
                 "on_mem_load", "on_commit", "on_squash", "ioq_gate",
                 "pre_commit_store", "check_blocks_loads", "quiescent")
) + tuple(
    ("memory", "memory.access", "repro.memory.hierarchy:MemoryHierarchy."
     + access, True)
    for access in ("ifetch", "dload", "dstore", "mau_access")
) + (
    ("kernel", "kernel.run", "repro.kernel.kernel:Kernel.run", False),
    ("kernel", "kernel.run", "repro.kernel.kernel:Kernel.run_slice", True),
    ("kernel", "kernel.load_process",
     "repro.kernel.kernel:Kernel.load_process", False),
    ("isa", "isa.assemble", "repro.isa.assembler:Assembler.assemble", False),
    ("isa", "isa.assemble", "repro.workloads.asmlib:build_workload_image",
     False),
    ("system", "system.build_machine", "repro.system:build_machine", False),
    ("system", "system.build_machine",
     "repro.campaign.runner:build_campaign_machine", False),
    ("system", "system.build_machine",
     "repro.security.attackgen:_build_config_machine", False),
    ("checkpoint", "checkpoint.capture", "repro.checkpoint:capture", False),
    ("checkpoint", "checkpoint.capture", "repro.checkpoint:warm", False),
    ("checkpoint", "checkpoint.restore", "repro.checkpoint:restore", False),
    ("checkpoint", "checkpoint.encode",
     "repro.checkpoint:MachineCheckpoint.to_bytes", False),
    ("checkpoint", "checkpoint.decode",
     "repro.checkpoint:MachineCheckpoint.from_bytes", False),
    ("campaign", "campaign.run", "repro.campaign.runner:run_campaign", False),
    ("campaign", "campaign.context",
     "repro.campaign.runner:CampaignContext.__init__", False),
    ("campaign", "campaign.context",
     "repro.campaign.runner:ForkEngine.__init__", False),
    ("campaign", "campaign.context", "repro.campaign.runner:sample_injections",
     False),
    ("campaign", "campaign.run", "repro.campaign.runner:ForkEngine.strike",
     False),
    ("campaign", "campaign.classify", "repro.campaign.runner:classify", False),
    ("campaign", "campaign.store",
     "repro.campaign.store:ResultStore.write_header", False),
    ("campaign", "campaign.store", "repro.campaign.store:ResultStore.append",
     False),
    ("campaign", "campaign.store", "repro.campaign.store:ResultStore.close",
     False),
    ("security", "security.generate",
     "repro.security.attackgen:generate_variant", False),
    ("security", "security.run", "repro.security.attackgen:run_variant",
     False),
    ("security", "security.run",
     "repro.security.attackgen:AttackCorpus.execute", False),
    ("fleet", "fleet.run", "repro.fleet.run:run_fleet", False),
    ("fleet", "fleet.bridge", "repro.fleet.bridge:CycleBridge.run", False),
    ("fleet", "fleet.failover", "repro.fleet.failover:fail_over", False),
    ("fleet", "fleet.run", "repro.fleet.failover:take_checkpoint", False),
    ("experiments", "experiments.run",
     "repro.experiments.table4:run_framework", False),
    ("experiments", "experiments.run",
     "repro.experiments.table4:run_framework_icm", False),
    ("experiments", "experiments.run", "repro.experiments.fig9:run_server",
     False),
)

#: Entry points whose results' lengths are summed (wire image bytes).
_SIZED = {"repro.checkpoint:MachineCheckpoint.to_bytes": "checkpoint.wire"}


class Tracer:
    """Self time per entry point, plus spans for the coarse ones."""

    def __init__(self):
        self.self_ns = [0] * len(ENTRIES)
        self.calls = [0] * len(ENTRIES)
        self.cost_ns = [0] * len(ENTRIES)     # each wrapper's own, per call
        self.wrapper_ns = {}                  # the same, per wrapper kind
        self.sizes = {}
        self.spans = []
        self.op = 0
        # Time the current frame's wrapped callees took; each wrapper
        # saves its caller's value, so nesting needs no explicit stack.
        self._child = [0]
        self._stack = []

    def reset(self):
        """Forget everything measured so far (after the warm-up op)."""
        self.self_ns[:] = [0] * len(ENTRIES)
        self.calls[:] = [0] * len(ENTRIES)
        self.sizes.clear()
        self.spans.clear()

    def exclude(self, ns):
        """Treat *ns* of benchmark bookkeeping as no layer's self time."""
        self._child[0] += ns

    # ------------------------------------------------------------ wrappers

    def _per_cycle(self, fn, index, costs):
        params = _positional(fn)
        if params is None:
            return self._generic(fn, index, costs)
        namespace = {}
        exec(_PER_CYCLE.format(params=", ".join(params)), namespace)
        self.cost_ns[index] = cost = costs["cycle"]
        return namespace["factory"](fn, index, self.self_ns, self.calls,
                                    self._child, perf_counter_ns, cost)

    def _generic(self, fn, index, costs):
        self_ns, calls, child = self.self_ns, self.calls, self._child
        self.cost_ns[index] = cost = costs["generic"]

        def wrapper(*args, **kwargs):
            outer = child[0]
            child[0] = 0
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[index] += elapsed - child[0]
                calls[index] += 1
                child[0] = outer + elapsed + cost

        return wrapper

    def _span(self, fn, index, costs, name, sized):
        tracer = self
        self_ns, calls, child = self.self_ns, self.calls, self._child
        spans, stack, sizes = self.spans, self._stack, self.sizes
        self.cost_ns[index] = cost = costs["span"]

        def wrapper(*args, **kwargs):
            outer = child[0]
            child[0] = 0
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                self_ns[index] += elapsed - child[0]
                calls[index] += 1
                child[0] = outer + elapsed + cost
                spans[span] = (name, start, end, parent, tracer.op)
                if sized is not None and result is not None:
                    sizes[sized] = sizes.get(sized, 0) + len(result)

        return wrapper

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap every entry point; call before any machine is built."""
        self.wrapper_ns = costs = _wrapper_costs()
        for index, (layer, group, target, per_cycle) in enumerate(ENTRIES):
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, __, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if per_cycle:
                wrapped = self._per_cycle(fn, index, costs)
            else:
                wrapped = self._span(fn, index, costs, qualname,
                                     _SIZED.get(target))
            if owner_name:
                setattr(owner, attr,
                        classmethod(wrapped) if is_classmethod else wrapped)
            else:
                _rebind(fn, wrapped)

    # ----------------------------------------------------------------- fold

    def groups(self):
        """Self nanoseconds summed per metric group and per layer."""
        groups, layers = {}, {}
        for (layer, group, __, ___), ns in zip(ENTRIES, self.self_ns):
            groups[group] = groups.get(group, 0) + ns
            layers[layer] = layers.get(layer, 0) + ns
        return groups, layers

    def overhead_ns(self):
        """The wrappers' own cost over the calls made since the reset."""
        return sum(calls * cost
                   for calls, cost in zip(self.calls, self.cost_ns))

    def dump(self, path, ops):
        """Write the spans, op boundaries and call counts of this run."""
        calls = {target: count for (__, ___, target, ____), count
                 in zip(ENTRIES, self.calls) if count}
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "ops": ops, "calls": calls, "spans": self.spans},
                      handle)


#: The per-cycle wrapper, generated with the wrapped function's exact
#: positional signature: no argument packing and no try/finally, which
#: halves its cost.  A hook that raises ends its op anyway, so losing
#: that one call's accounting is harmless.
_PER_CYCLE = """
def factory(fn, index, self_ns, calls, child, clock, cost):
    def wrapper({params}):
        outer = child[0]
        child[0] = 0
        start = clock()
        result = fn({params})
        elapsed = clock() - start
        self_ns[index] += elapsed - child[0]
        calls[index] += 1
        child[0] = outer + elapsed + cost
        return result
    return wrapper
"""


def _wrapper_costs(calls=20_000, pairs=7):
    """Each wrapper kind's own cost per call, in nanoseconds.

    Calls a no-op *calls* times bare and then through a throwaway
    wrapper of each kind, *pairs* times over after one warm-up pair, and
    keeps the median difference per call, so a change in host speed
    between pairs cannot skew it.
    """
    probe = Tracer()
    zero = {"cycle": 0, "generic": 0, "span": 0}

    def noop(first, second):
        return None

    wrappers = {"cycle": probe._per_cycle(noop, 0, zero),
                "generic": probe._generic(noop, 0, zero),
                "span": probe._span(noop, 0, zero, "noop", None)}
    costs = {}
    for kind, wrapped in wrappers.items():
        differences = []
        for __ in range(pairs + 1):
            times = []
            for fn in (noop, wrapped):
                start = perf_counter_ns()
                for __ in range(calls):
                    fn(1, 2)
                times.append(perf_counter_ns() - start)
            probe.spans.clear()
            differences.append((times[1] - times[0]) / calls)
        costs[kind] = max(0, round(statistics.median(differences[1:])))
    return costs


def _positional(fn):
    """*fn*'s parameter names if all are plain positional, else None."""
    parameters = inspect.signature(fn).parameters.values()
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD or p.default is not p.empty
           for p in parameters):
        return None
    return [p.name for p in parameters]


def _rebind(original, wrapped):
    """Point every loaded module's binding of *original* at *wrapped*.

    Module-level functions are imported by name into other modules
    (``from repro.system import build_machine``), so the wrapper has to
    replace each of those bindings, not just the defining one.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapped
