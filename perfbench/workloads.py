"""The benchmark's four workloads: seeded inputs, op lists, output checks.

Every workload is a closed loop with one client, one process and one
thread.  ``plan(seed, ops)`` regenerates every input from the seed;
``execute(plan, recorder, capture)`` runs the fixed op list and reports
each op to the recorder (see ``proc.py``) with its simulated output, the
snapshots its counts come from and any invariant it broke.

The op count is fixed before the timed loop starts and never depends
on a clock, so two runs of one seed always do the same simulated work.
"""

import hashlib
import json
import os
import random
import shutil
import tempfile

from repro.campaign import runner as campaign_runner
from repro.campaign.options import ExecutionOptions
from repro.campaign.runner import (CampaignSpec, DEMO_WORKLOAD,
                                   build_campaign_machine, run_campaign)
from repro.campaign.store import ResultStore
from repro.experiments import fig9, table4
from repro.fleet.loadgen import generate
from repro.fleet.run import FleetSpec, run_fleet
from repro.isa.assembler import assemble
from repro.pipeline.core import EventKind
from repro.security.attackgen import ATTACK_CLASSES
from repro.security.coverage import DEFAULT_CONFIGS
from repro.system import Machine, build_machine
from repro.workloads import gotplt, kmeans, vpr_place, vpr_route

#: The seed whose per-op outputs are pinned in ``pins/<workload>.json``.
DEFAULT_SEED = 1

#: A p90 is only meaningful with at least ten samples beyond it.
MIN_OPS = 100


def digest(value):
    """Short SHA-256 of a value's canonical JSON form."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class OpResult:
    """What one op produced: its output, simulated work and counts."""

    def __init__(self, output, cycles, instret, snapshots=(), extra=None,
                 errors=()):
        self.output = output            # pinned and digested
        self.cycles = cycles            # simulated cycles the op stands for
        self.instret = instret          # committed instructions, same sum
        self.snapshots = list(snapshots)  # Machine.snapshot() documents
        self.extra = dict(extra or {})  # result-derived counts
        self.errors = list(errors)      # broken invariants


class Capture:
    """Read-only hooks that hand each op's machines and records back.

    Installed at class or module level, after any tracing wrappers, so
    they sit outside every traced span.  The one hook that runs inside
    an op (the snapshot at classify time) excludes its own time.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.machines = []
        self.records = []
        self.classified = []

    def install(self):
        capture = self
        machine_init = Machine.__init__

        def init(machine, *args, **kwargs):
            machine_init(machine, *args, **kwargs)
            capture.machines.append(machine)

        Machine.__init__ = init
        append = ResultStore.append

        def store_append(store, record):
            append(store, record)
            capture.records.append(record)

        ResultStore.append = store_append
        classify = campaign_runner.classify

        def classify_hook(machine, ctx, event):
            outcome = classify(machine, ctx, event)
            with capture.recorder.excluded():
                capture.classified.append(machine.snapshot())
            return outcome

        campaign_runner.classify = classify_hook

    def reset(self):
        self.machines.clear()
        self.records.clear()
        self.classified.clear()


def _machine_result(machine, output_extra, errors):
    snapshot = machine.snapshot()
    pipeline = snapshot["pipeline"]
    output = {"cycles": pipeline["cycles"], "instret": pipeline["instret"],
              "regs": digest(list(machine.pipeline.regs))}
    output.update(output_extra)
    return OpResult(output, pipeline["cycles"], pipeline["instret"],
                    snapshots=[snapshot], errors=errors)


def _run_campaign(workdir, spec, fork, progress=None):
    """One serial campaign with a JSONL store that is deleted after."""
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        return run_campaign(
            spec, ExecutionOptions(
                fork=fork, store=os.path.join(directory, "store.jsonl")),
            progress=progress)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _campaign_ops(workdir, spec, fork, recorder, capture, result):
    """Run one campaign; every record it lands is one op."""
    capture.reset()
    marked = recorder.count

    def progress(done, total):
        recorder.mark(result)
        capture.reset()

    try:
        _run_campaign(workdir, spec, fork, progress)
    except Exception as exc:                   # the campaign itself failed
        recorder.fail(spec.injections - (recorder.count - marked), repr(exc))


# ------------------------------------------------------------ paper-protected

class PaperProtected:
    """Fresh-machine runs of the paper's RSE-attached experiment cells."""

    name = "paper-protected"
    rate = 5.5                  # ops per second of --seconds (op_count)

    #: Op kinds, cycled in this order.  Table 4 cells run on the scaled
    #: caches (dl1 512 B, dl2 8 KB); MLR and DDT on the Figure 1 caches.
    KINDS = ("kmeans/framework", "kmeans/framework+icm",
             "vpr-place/framework", "vpr-place/framework+icm",
             "vpr-route/framework", "vpr-route/framework+icm",
             "gotplt/mlr", "fig9/ddt")
    KMEANS = dict(pattern_count=40, clusters=4, iterations=1)
    VPR_PLACE = dict(cells=24, nets=36, moves=30)
    VPR_ROUTE = dict(width=8, height=8, routes=4)
    GOT_ENTRIES = (64, 128)             # inclusive range
    FIG9 = dict(requests=3, work_iters=100)
    FIG9_THREADS = (2, 3, 4)

    def plan(self, seed, ops):
        rng = random.Random(seed)
        plan = []
        rounds = -(-ops // len(self.KINDS))     # every kind equally often
        for index in range(rounds * len(self.KINDS)):
            kind = self.KINDS[index % len(self.KINDS)]
            program = kind.split("/")[0]
            instance = rng.getrandbits(31)
            if program == "kmeans":
                arg = kmeans.source(seed=instance, **self.KMEANS)
            elif program == "vpr-place":
                arg = vpr_place.source(seed=instance, **self.VPR_PLACE)
            elif program == "vpr-route":
                arg = vpr_route.source(seed=instance, **self.VPR_ROUTE)
            elif program == "gotplt":
                low, high = self.GOT_ENTRIES
                arg = low + instance % (high - low + 1)
            else:
                arg = self.FIG9_THREADS[instance % len(self.FIG9_THREADS)]
            plan.append((kind, arg))
        return plan

    def run_op(self, kind, arg):
        """Run one cell; returns ``(output extras, errors)``."""
        program, config = kind.split("/")
        if config == "framework":
            table4.run_framework(arg)
        elif config == "framework+icm":
            table4.run_framework_icm(arg)
        elif program == "gotplt":
            image, __ = gotplt.rse_version(arg)
            result = build_machine(with_rse=True, modules=("mlr",)) \
                .run_program(image, max_cycles=2_000_000)
            if result.reason != "halt":
                return {}, ["gotplt ended with %r" % result.reason]
        else:
            run = fig9.run_server(arg, True, **self.FIG9)
            return {"saved_pages": run.saved_pages,
                    "dependencies": run.dependencies,
                    "responses": digest(sorted(run.responses.items()))}, []
        return {}, []

    @staticmethod
    def result(kind, machine, extra, errors):
        if machine.rse is None:
            errors.append("%s ran without the RSE" % kind)
        elif machine.kernel.detections:
            errors.append("%s raised a CHECK error" % kind)
        return _machine_result(machine, dict(extra, kind=kind), errors)

    def warmup(self, plan, capture):
        self.run_op(*plan[0])
        capture.reset()

    def execute(self, plan, recorder, capture):
        for kind, arg in plan:
            capture.reset()
            try:
                extra, errors = self.run_op(kind, arg)
            except Exception as exc:           # the op failed; keep going
                recorder.mark(error="%s: %r" % (kind, exc))
                continue
            machine = capture.machines[-1]
            recorder.mark(lambda: self.result(kind, machine, extra, errors))


# -------------------------------------------------------------- campaign-fork

class CampaignFork:
    """Protected (RSE+ICM) fork campaigns; one op is one injection."""

    name = "campaign-fork"
    rate = 24.0
    MODELS = ("reg-flip", "mem-flip")
    INJECTIONS = 32             # per campaign, fewer only in toy runs

    def __init__(self, workdir):
        self.workdir = workdir

    @staticmethod
    def protected_golden_cycles():
        machine, __ = build_campaign_machine(assemble(DEMO_WORKLOAD),
                                             protected=True)
        event = machine.pipeline.run(max_cycles=1_000_000)
        if event.kind is not EventKind.HALT:
            raise RuntimeError("protected golden run did not halt")
        return machine.pipeline.cycle

    def plan(self, seed, ops):
        rng = random.Random(seed)
        injections = min(self.INJECTIONS, -(-ops // len(self.MODELS)))
        campaigns = -(-ops // injections)
        campaigns += campaigns % len(self.MODELS)
        # Twice the protected golden length: long enough for every
        # benign tail, short enough that a hung injection costs about
        # as much as two benign ones.
        budget = 2 * self.protected_golden_cycles()
        return [CampaignSpec(DEMO_WORKLOAD,
                             model=self.MODELS[index % len(self.MODELS)],
                             protected=True, injections=injections,
                             seed=rng.getrandbits(31), max_cycles=budget)
                for index in range(campaigns)]

    def warmup(self, plan, capture):
        spec = plan[0]
        _run_campaign(self.workdir,
                      CampaignSpec(spec.source, model=spec.model,
                                   protected=True, injections=2,
                                   seed=spec.seed ^ 1,
                                   max_cycles=spec.max_cycles),
                      fork=True)
        capture.reset()

    def execute(self, plan, recorder, capture):
        for spec in plan:
            _campaign_ops(self.workdir, spec, True, recorder, capture,
                          lambda: self.result(spec, capture))

    @staticmethod
    def result(spec, capture):
        record = capture.records[-1]
        snapshots = capture.classified[-1:]
        errors = []
        if record["outcome"] == "crashed":
            errors.append("injection %d crashed" % record["id"])
        instret = snapshots[0]["pipeline"]["instret"] if snapshots else 0
        extra = {"hung": int(record["outcome"] == "hung"),
                 "not_triggered": int(record["outcome"] == "not_triggered")}
        if snapshots:
            # Struck injections at one trigger cycle share one prefix.
            extra["struck"] = 1
            extra["prefix"] = "%d@%d" % (spec.seed, record["params"]["cycle"])
        return OpResult(record, record["cycles"], instret,
                        snapshots=snapshots, extra=extra, errors=errors)


# -------------------------------------------------------------- attack-matrix

class AttackMatrix:
    """Generated attack variants over the standing module x class matrix."""

    name = "attack-matrix"
    rate = 140.0
    MAX_CYCLES = 300_000

    def __init__(self, workdir):
        self.workdir = workdir

    def plan(self, seed, ops):
        cells = [(config, attack_class) for config in DEFAULT_CONFIGS
                 for attack_class in ATTACK_CLASSES]
        variants = -(-ops // len(cells))
        campaign_seed = random.Random(seed).getrandbits(31)
        return [self.spec(attack_class, config, variants, campaign_seed)
                for config, attack_class in cells]

    def spec(self, attack_class, config, variants, seed):
        # The campaign repro.security.coverage.attack_cell runs per cell.
        return CampaignSpec(
            source="attack:%s" % attack_class, model="attack",
            model_options={"attack_class": attack_class, "config": config},
            injections=variants, seed=seed, max_cycles=self.MAX_CYCLES)

    def warmup(self, plan, capture):
        options = plan[0].model_options
        _run_campaign(self.workdir,
                      self.spec(options["attack_class"], options["config"],
                                1, plan[0].seed ^ 1),
                      fork=False)
        capture.reset()

    def execute(self, plan, recorder, capture):
        for spec in plan:
            _campaign_ops(self.workdir, spec, False, recorder, capture,
                          lambda: self.result(capture))

    @staticmethod
    def result(capture):
        record = capture.records[-1]
        snapshots = [machine.snapshot() for machine in capture.machines[-1:]]
        attack = record["attack"]
        errors = []
        if record["outcome"] == "crashed":
            errors.append("variant %d crashed" % record["id"])
        if attack["outcome"] == "unclassified":
            errors.append("variant %d unclassified" % record["id"])
        instret = snapshots[0]["pipeline"]["instret"] if snapshots else 0
        extra = {"stopped": int(attack["outcome"] not in ("hijacked",
                                                          "unclassified")),
                 "unclassified": int(attack["outcome"] == "unclassified")}
        output = {"outcome": attack["outcome"], "cycles": record["cycles"],
                  "detections": attack["detections"]}
        return OpResult(output, record["cycles"], instret,
                        snapshots=snapshots, extra=extra, errors=errors)


# ------------------------------------------------------------- fleet-failover

class FleetFailover:
    """Bare 3-node fleets under bursty traffic with a kill and a strike."""

    name = "fleet-failover"
    rate = 4.5
    NODES = 3
    REQUESTS = 18
    MEAN_GAP = 2_000            # arrivals span about two intervals
    INTERVAL = 10_000           # checkpoint interval: several images a node
    #: A node checkpoints at the first slice boundary at or past its due
    #: cycle, and the next falls due an interval later, so checkpoints
    #: lag the multiples of INTERVAL (by at most ~200 cycles in 500
    #: seeded fleets), and a kill fires at the first boundary at or past
    #: its cycle.  Strikes and kills keep this far from the multiples.
    LAG = 1_000

    def plan(self, seed, ops):
        rng = random.Random(seed)
        plan = []
        for __ in range(ops):
            spec = FleetSpec(nodes=self.NODES, requests=self.REQUESTS,
                             seed=rng.getrandbits(31),
                             mean_gap=self.MEAN_GAP,
                             checkpoint_interval=self.INTERVAL)
            # The kill lands between the victim's first and last arrival
            # (moved at most LAG cycles clear of a checkpoint), so it
            # always strikes while traffic flows, and often after one or
            # two interval checkpoints, so the failover restores a
            # mid-run wire image.  The strike hits the victim after its
            # last checkpoint before the kill, so that image predates
            # it: a strike that a later checkpoint captures can hang a
            # bare node for good (see README.md).
            arrivals = generate(spec.load_spec(), self.NODES)
            victim = rng.randrange(self.NODES)
            first, last = arrivals[victim][0], arrivals[victim][-1]
            kill = rng.randrange(first + 1, last)
            checkpoint = kill - kill % self.INTERVAL
            kill = min(max(kill, checkpoint + self.LAG + 1),
                       checkpoint + self.INTERVAL - self.LAG)
            spec.kills = ((victim, kill),)
            spec.strikes = (("reg-flip", victim,
                             rng.randrange(checkpoint + self.LAG, kill),
                             rng.getrandbits(31)),)
            plan.append(spec)
        return plan

    def warmup(self, plan, capture):
        run_fleet(plan[0])
        capture.reset()

    def execute(self, plan, recorder, capture):
        for spec in plan:
            capture.reset()
            try:
                run = run_fleet(spec)
            except Exception as exc:           # the op failed; keep going
                recorder.mark(error=repr(exc))
                continue
            recorder.mark(lambda: self.result(spec, run))

    @staticmethod
    def result(spec, run):
        served = run.served()
        failovers = [event.to_dict() for node in run.nodes
                     for event in node.failovers]
        strikes = [strike.to_dict() for node in run.nodes
                   for strike in node.strikes]
        errors = []
        if served != spec.requests:
            errors.append("served %d of %d" % (served, spec.requests))
        victim = spec.kills[0][0]
        if not any(event["node"] == victim and event["reason"] == "killed"
                   for event in failovers):
            errors.append("scripted failover of node %d never fired" % victim)
        if not all(strike["fired"] for strike in strikes):
            errors.append("strike never fired")
        snapshots = [node.machine.snapshot() for node in run.nodes]
        net = run.device.snapshot()
        output = {"log": digest(run.merged_log()), "served": served,
                  "failovers": failovers, "strikes": strikes}
        extra = {"slices": run.bridge.slices, "served": served,
                 "failovers": len(failovers), "net_sent": net["sent"],
                 "net_dropped": net["dropped"]}
        return OpResult(output,
                        sum(s["pipeline"]["cycles"] for s in snapshots),
                        sum(s["pipeline"]["instret"] for s in snapshots),
                        snapshots=snapshots, extra=extra, errors=errors)


WORKLOADS = ("paper-protected", "campaign-fork", "attack-matrix",
             "fleet-failover")


def get(name, workdir):
    """The workload called *name*; *workdir* holds its temporary stores."""
    if name == "paper-protected":
        return PaperProtected()
    if name == "campaign-fork":
        return CampaignFork(workdir)
    if name == "attack-matrix":
        return AttackMatrix(workdir)
    if name == "fleet-failover":
        return FleetFailover()
    raise ValueError("unknown workload %r (have: %s)"
                     % (name, ", ".join(WORKLOADS)))


def op_count(workload, seconds):
    """Ops requested for one run: the workload's rate times *seconds*.

    A rate sizes the op list; it is not the measured ops_per_s.
    """
    return max(MIN_OPS, int(round(workload.rate * seconds)))
