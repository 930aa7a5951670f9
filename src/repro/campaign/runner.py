"""Resumable campaign execution.

The engine fixes the structural costs of a naive per-injection loop:

* the workload is **assembled once per campaign** (once per worker
  process when sharded), not once per injection — only the cheap
  machine build and memory image copy happen per run;
* every injection derives from ``(campaign_seed, id)`` alone, so records
  are identical regardless of worker count or completion order.

Fork mode (``fork=True`` / ``repro campaign --fork``) removes the third
structural cost — re-simulating the fault-free warmup prefix for every
injection.  For fault models whose :meth:`~repro.campaign.models
.FaultModel.arm` is pure (reg-flip, mem-flip: arming only picks the
trigger cycle), injections are grouped by trigger cycle, each distinct
prefix is simulated once on a trunk machine, checkpointed with
:meth:`repro.system.Machine.checkpoint`, and every injection at that
trigger is restore-and-strike.  Because checkpoint/restore is
cycle-exact, forked and cold campaigns produce byte-identical records —
the flag is an execution detail and deliberately not part of the spec
fingerprint.  Models that arm by mutating the machine (instr-flip,
cf-corrupt) silently keep the fresh-machine path.

:func:`run_campaign` runs the campaign in this process — the reference
executor.  With more than one worker (or any shards) it hands the
campaign to the sharded service (:mod:`repro.campaign.service`), whose
worker processes run the same :class:`ForkEngine` from a shipped
machine image and survive SIGKILL.  A Python-level failure inside one
injection is caught and classified :data:`Outcome.CRASHED` on either
path.
"""

import hashlib
import json

from repro.campaign.models import Outcome, get_model
from repro.campaign.options import ExecutionOptions
from repro.campaign.space import sample_injections
from repro.campaign.store import ResultStore
from repro.isa.assembler import assemble
from repro.isa.encoding import DecodeError, decode
from repro.pipeline.core import EventKind
from repro.rse.modules.icm import arm_icm, build_checker_memory
from repro.system import build_machine

STACK_TOP = 0x7FFF0000

#: Built-in demo workload: 16 passes of a running-checksum loop over a
#: live data array, giving every fault model a non-trivial space
#: (checked branches, registers carrying state across thousands of
#: cycles, data words read and written every iteration) and enough
#: cycles per run that parallel campaigns beat serial ones.
DEMO_WORKLOAD = """
    .data
arr:    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
    .text
main:
    li $s1, 0
    li $t5, 16
    li $s0, 0
pass:
    li $t0, 0
    li $t1, 16
    la $t3, arr
loop:
    lw $t2, 0($t3)
    add $s0, $s0, $t2
    sw $s0, 0($t3)
    addi $t3, $t3, 4
    andi $t4, $t0, 3
    beqz $t4, skip
    addi $s0, $s0, 7
skip:
    addi $t0, $t0, 1
    blt $t0, $t1, loop
    addi $s1, $s1, 1
    blt $s1, $t5, pass
    halt
"""


class CampaignSpec:
    """Everything that defines a campaign's *results* (picklable).

    Execution details — worker count, shards, store path — live
    outside the spec so they never affect the fingerprint: the same spec
    run serially, in parallel, or resumed must produce the same records.
    """

    def __init__(self, source, model="instr-flip", model_options=None,
                 protected=True, injections=50, seed=99,
                 max_cycles=500_000, result_regs=(16,), assertions=False):
        self.source = source
        self.model = model
        self.model_options = dict(model_options or {})
        self.protected = protected
        self.injections = injections
        self.seed = seed
        self.max_cycles = max_cycles
        self.result_regs = tuple(result_regs)
        self.assertions = assertions

    def to_dict(self):
        doc = {"source": self.source, "model": self.model,
               "model_options": self.model_options,
               "protected": self.protected, "injections": self.injections,
               "seed": self.seed, "max_cycles": self.max_cycles,
               "result_regs": list(self.result_regs)}
        if self.assertions:
            # Only serialized when on: monitoring changes classification
            # (the ASSERTION outcome), so it belongs in the fingerprint,
            # but omitting the key when off keeps every pre-existing
            # store's fingerprint valid.
            doc["assertions"] = True
        return doc

    @classmethod
    def from_dict(cls, payload):
        return cls(source=payload["source"], model=payload["model"],
                   model_options=payload.get("model_options") or {},
                   protected=payload["protected"],
                   injections=payload["injections"], seed=payload["seed"],
                   max_cycles=payload["max_cycles"],
                   result_regs=tuple(payload.get("result_regs") or (16,)),
                   assertions=payload.get("assertions", False))

    def fingerprint(self):
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class CampaignContext:
    """Per-campaign facts shared by every injection, built once.

    Assembly, the golden (fault-free) run, and the target enumerations
    all happen here — exactly once per process — instead of inside the
    per-injection loop.
    """

    def __init__(self, spec, golden=None):
        self.spec = spec
        self.model = get_model(spec.model, **spec.model_options)
        if not getattr(self.model, "needs_workload", True):
            # Generative models (the attack corpus) synthesise a guest
            # program per injection: spec.source is only a fingerprint
            # tag, and there is nothing to assemble, enumerate or run
            # golden here.
            self.asm = None
            self.stack_top = STACK_TOP
            self.checked_pcs = []
            self.control_pcs = []
            self.data_words = []
            self.golden_regs = {}
            self.golden_cycles = spec.max_cycles
            return
        self.asm = assemble(spec.source)
        self.stack_top = STACK_TOP
        # Checked pcs: what the ICM would provision (used as the target
        # set whether or not the campaign machine carries the ICM, so
        # protected and baseline campaigns hit the same instructions).
        self.checked_pcs = self._enumerate_checked()
        self.control_pcs = self._enumerate_control()
        self.data_words = [self.asm.data_base + offset
                           for offset in range(0, len(self.asm.data) & ~3, 4)]
        if golden is not None:
            # Precomputed golden results (a CampaignImage shipped them):
            # skip re-simulating the fault-free workload in this process.
            self.golden_regs = {int(reg): value
                                for reg, value in golden["regs"].items()}
            self.golden_cycles = golden["cycles"]
        else:
            self.golden_regs, self.golden_cycles = self._golden_run()

    def _enumerate_checked(self):
        from repro.memory.mainmem import MainMemory

        memory = MainMemory()
        memory.store_bytes(self.asm.text_base, self.asm.text)
        checker_map = build_checker_memory(memory, self.asm.text_base,
                                           len(self.asm.text))
        return sorted(checker_map)

    def _enumerate_control(self):
        pcs = []
        text = self.asm.text
        for offset in range(0, len(text) & ~3, 4):
            word = int.from_bytes(text[offset:offset + 4], "little")
            try:
                instr = decode(word)
            except DecodeError:
                continue
            if instr.is_control:
                pcs.append(self.asm.text_base + offset)
        return pcs

    def _golden_run(self):
        machine, __ = build_campaign_machine(self.asm, protected=False)
        event = machine.pipeline.run(max_cycles=self.spec.max_cycles)
        if event.kind is not EventKind.HALT:
            raise RuntimeError("golden run did not halt: %r" % event)
        golden = {reg: machine.pipeline.regs[reg]
                  for reg in self.spec.result_regs}
        return golden, machine.pipeline.cycle


def build_campaign_machine(asm, protected, assertions=False):
    """Fresh machine loaded with the (pre-assembled) workload image."""
    machine = build_machine(with_rse=protected,
                            modules=("icm",) if protected else ())
    machine.memory.store_bytes(asm.text_base, asm.text)
    machine.memory.store_bytes(asm.data_base, asm.data)
    checker_map = {}
    if protected:
        checker_map = arm_icm(machine, asm.text_base, len(asm.text))
    machine.pipeline.reset_at(asm.entry)
    machine.pipeline.regs[29] = STACK_TOP
    if assertions:
        machine.assertions.attach()
    return machine, checker_map


def classify(machine, ctx, event):
    """Map how the run ended to an :class:`Outcome`.

    Module detection (CHECK_ERROR) outranks the assertion channel: the
    paper's modules are the mechanism under evaluation, the invariant
    suite is the harness watching the machine itself.  A run that
    neither module caught but that broke a microarchitectural invariant
    classifies ASSERTION regardless of how it ended — the violation is
    the earliest, most localised evidence of the corruption.
    """
    if event.kind is EventKind.CHECK_ERROR:
        return Outcome.DETECTED
    if machine.assertions.violation_count():
        return Outcome.ASSERTION
    if event.kind is EventKind.FAULT:
        return Outcome.FAULTED
    if event.kind is EventKind.MAX_CYCLES:
        return Outcome.HUNG
    if event.kind is EventKind.HALT:
        intact = all(machine.pipeline.regs[reg] == value
                     for reg, value in ctx.golden_regs.items())
        return Outcome.BENIGN if intact else Outcome.CORRUPTED
    return Outcome.CRASHED      # SYSCALL/TIMER: escaped the fault model


def strike_injection(ctx, machine, injection):
    """Arm, trigger and classify one injection on a ready *machine*.

    *machine* must hold the pristine (cycle-boundary) workload state —
    freshly built, or just restored from a checkpoint image.  Raises on
    simulator failure; callers own crash isolation.
    """
    budget = ctx.spec.max_cycles
    trigger = ctx.model.arm(machine, ctx, injection.params)
    if trigger:
        if not 0 < trigger < budget:
            # The model sampled a trigger outside the run budget.
            # Clamping would fire the fault at a cycle the model
            # never chose; report the run as never injected instead.
            return not_triggered_record(injection)
        event = machine.pipeline.run(max_cycles=trigger)
        if event.kind is not EventKind.MAX_CYCLES:
            # The workload ended before the armed trigger: fire()
            # never ran, so no fault landed and the outcome says
            # nothing about detection.
            return not_triggered_record(injection, event=event,
                                        cycles=machine.pipeline.cycle)
        # Reached the trigger point: strike, then run out the rest
        # of the budget.
        ctx.model.fire(machine, ctx, injection.params)
        event = machine.pipeline.run(max_cycles=budget - trigger)
    else:
        event = machine.pipeline.run(max_cycles=budget)
    return struck_record(ctx, machine, injection, event)


def struck_record(ctx, machine, injection, event):
    """Classify a run that ended with *event* and build its record."""
    outcome = classify(machine, ctx, event)
    record = injection_record(injection, outcome, event.kind.value,
                              event.pc, machine.pipeline.cycle)
    if ctx.spec.assertions:
        record["assertions"] = machine.assertions.violation_count()
    return record


def execute_injection(ctx, injection):
    """Run one injection on a fresh machine; returns its record dict."""
    try:
        if getattr(ctx.model, "owns_execution", False):
            return ctx.model.execute(ctx, injection)
        machine, __ = build_campaign_machine(ctx.asm, ctx.spec.protected,
                                             assertions=ctx.spec.assertions)
        return strike_injection(ctx, machine, injection)
    except Exception as exc:                         # crash-isolate the run
        return crashed_record(injection, repr(exc))


def injection_record(injection, outcome, event, pc, cycles):
    """The record every run produces: the injection, then how it ended."""
    return {"id": injection.id, "model": injection.model,
            "seed": injection.seed, "params": injection.params,
            "outcome": outcome.value, "event": event, "pc": pc,
            "cycles": cycles}


def crashed_record(injection, error):
    record = injection_record(injection, Outcome.CRASHED, "crash", 0, 0)
    record["error"] = error
    return record


def not_triggered_record(injection, event=None, cycles=0):
    """Record for a run whose fault never fired.

    With *event* the workload ended there before reaching the armed
    trigger; without, the sampled trigger fell outside the cycle budget
    and the run was skipped outright.
    """
    if event is None:
        return injection_record(injection, Outcome.NOT_TRIGGERED, "skipped",
                                0, cycles)
    return injection_record(injection, Outcome.NOT_TRIGGERED,
                            event.kind.value, event.pc, cycles)


# ------------------------------------------------------------ fork-at-trigger

class ForkEngine:
    """Restore-and-strike execution on one trunk machine.

    Keeps the trunk plus two checkpoints: the pristine machine (cycle 0)
    and the latest trigger prefix.  The pristine checkpoint is captured
    from the freshly built trunk or, with *image*, is the
    :class:`~repro.checkpoint.CampaignImage` the sharded service ships
    to its workers; an image warmed for another spec, or on a machine of
    another shape, raises :class:`~repro.checkpoint.CheckpointError`
    here rather than mid-shard.

    :meth:`strike` simulates each distinct trigger prefix once and
    restores the trunk once per injection.  Triggers should arrive in
    ascending order for maximal prefix reuse; a smaller trigger simply
    rewinds to the base checkpoint and re-advances.
    :meth:`strike_from_base` runs a whole injection from the pristine
    state instead, for impure models and unforked runs.
    """

    def __init__(self, ctx, image=None):
        self.ctx = ctx
        self.machine, __ = build_campaign_machine(ctx.asm, ctx.spec.protected)
        if image is None:
            self.base = self.machine.checkpoint()
        else:
            self.base = image.verify(ctx.spec.fingerprint()).checkpoint()
            self.machine.restore(self.base)
        self.prefix = self.base
        # (event, end_cycle) once the fault-free workload is known to end
        # before some trigger; the prefix is deterministic, so this holds
        # for every trigger >= end_cycle.
        self.terminal = None

    def _advance_to(self, trigger):
        """Put the trunk at cycle *trigger* exactly, with ``self.prefix``
        its checkpoint there.

        Restores once: the prefix itself when the trigger is shared, or
        the nearest earlier prefix (or ``base``), which then runs forward
        and is captured — the trunk already is the new prefix, so no
        second restore follows.  Returns True when the trigger is
        reachable; False when the fault-free workload ends first
        (``self.terminal`` then holds the terminal event, matching what a
        cold run would report).
        """
        if self.terminal is not None and trigger >= self.terminal[1]:
            return False
        if trigger < self.prefix.cycle:
            self.prefix = self.base
        machine = self.machine
        machine.restore(self.prefix)
        if self.prefix.cycle == trigger:
            return True
        event = machine.pipeline.run(max_cycles=trigger - self.prefix.cycle)
        if event.kind is EventKind.MAX_CYCLES:
            self.prefix = machine.checkpoint()
            return True
        self.terminal = (event, machine.pipeline.cycle)
        return False

    def strike(self, injection, trigger):
        """Advance the trunk to *trigger*, fire, run out the budget."""
        ctx = self.ctx
        if not self._advance_to(trigger):
            event, cycles = self.terminal
            return not_triggered_record(injection, event=event, cycles=cycles)
        machine = self.machine
        ctx.model.fire(machine, ctx, injection.params)
        event = machine.pipeline.run(
            max_cycles=ctx.spec.max_cycles - trigger)
        return struck_record(ctx, machine, injection, event)

    def strike_from_base(self, injection):
        """Rewind to the pristine checkpoint and run *injection* whole."""
        try:
            self.machine.restore(self.base)
            return strike_injection(self.ctx, self.machine, injection)
        except Exception:
            # Cold-path fallback produces the identical record (and owns
            # crash isolation); the trunk may be mid-strike, so never
            # reuse it for the failed injection.
            return execute_injection(self.ctx, injection)


def forked_injection(ctx, engine, injection):
    """One injection through the fork engine, with a cold-path fallback.

    Any failure inside the checkpoint machinery falls back to
    :func:`execute_injection` on a fresh machine, which produces the
    identical record (just without the shared-prefix saving).
    """
    try:
        trigger = ctx.model.arm(None, ctx, injection.params)
        if not (trigger and 0 < trigger < ctx.spec.max_cycles):
            return not_triggered_record(injection)
        return engine.strike(injection, trigger)
    except Exception:
        return execute_injection(ctx, injection)


def _fork_order(ctx, injections):
    """Ascending-trigger order, id-stable, for maximal prefix reuse."""
    def key(injection):
        try:
            trigger = ctx.model.arm(None, ctx, injection.params)
        except Exception:
            trigger = 0
        return (trigger or 0, injection.id)
    return sorted(injections, key=key)


class CampaignRun:
    """The outcome of :func:`run_campaign`: ordered records + metrics.

    Carries the :class:`~repro.campaign.options.ExecutionOptions` the
    campaign actually ran with — records never depend on them, but
    audits and reports want to know how the numbers were produced.
    """

    def __init__(self, spec, records, options=None):
        self.spec = spec
        self.options = options if options is not None else ExecutionOptions()
        self.records = sorted(records, key=lambda record: record["id"])

    def count(self, outcome):
        value = outcome.value if isinstance(outcome, Outcome) else outcome
        return sum(1 for record in self.records
                   if record["outcome"] == value)

    def summary(self):
        return {outcome.value: self.count(outcome) for outcome in Outcome}

    @property
    def injected_runs(self):
        """Runs whose fault actually landed (NOT_TRIGGERED excluded)."""
        return len(self.records) - self.count(Outcome.NOT_TRIGGERED)

    @property
    def detection_rate(self):
        """DETECTED over runs where a fault was injected.

        NOT_TRIGGERED runs never had :meth:`FaultModel.fire` called, so
        counting them in the denominator would deflate coverage with
        runs that say nothing about detection.
        """
        injected = self.injected_runs
        if not injected:
            return 0.0
        return self.count(Outcome.DETECTED) / injected

    def __repr__(self):
        return "CampaignRun(%s)" % self.summary()


# ------------------------------------------------------------------- campaign

def _full_coverage(spec, records):
    """True when *records* already hold every id the spec defines."""
    done = {record["id"] for record in records}
    return set(range(spec.injections)) <= done


def run_campaign(spec, options=None, progress=None):
    """Execute (or resume) a campaign; returns a :class:`CampaignRun`.

    Args:
        spec: the :class:`CampaignSpec` defining the campaign — the
            only input that affects the records.
        options: an :class:`~repro.campaign.options.ExecutionOptions`
            describing how to run (workers, fork, shards, store).
            ``options.workers > 1`` or ``options.shards > 0`` routes
            execution through the sharded campaign service, with
            ``shards or workers`` shards; otherwise the campaign runs
            serially in this process.
        progress: optional ``callback(done, total)`` fired as records
            land (including records recovered from the store).
    """
    options = options if options is not None else ExecutionOptions()
    if options.shards or options.workers > 1:
        from repro.campaign.service import run_service

        return run_service(spec, options, progress=progress)

    store = ResultStore(options.store) if options.store else None
    prior = []
    if store is not None and store.exists():
        __, prior = store.verify(spec.fingerprint())
        if _full_coverage(spec, prior):
            # The store already covers the whole spec: a pure store
            # read.  No sampling, no assembly, no golden run — resumes
            # over million-injection stores must not pay simulation
            # costs to return existing records.
            if progress is not None:
                progress(spec.injections, spec.injections)
            return CampaignRun(spec, prior, options)

    ctx = CampaignContext(spec)
    injections = sample_injections(ctx.model, ctx, spec.injections, spec.seed)
    if prior:
        done = {record["id"] for record in prior}
        todo = [injection for injection in injections
                if injection.id not in done]
    else:
        todo = injections
        if store is not None:
            store.write_header(spec.fingerprint(), spec.to_dict())

    records = list(prior)
    total = len(injections)
    if progress is not None and records:
        progress(len(records), total)

    def emit(record):
        records.append(record)
        if store is not None:
            store.append(record)
        if progress is not None:
            progress(len(records), total)

    # Fork mode reuses one trunk machine across injections; an attached
    # monitor would carry one strike's violations into the next run's
    # classification, so monitored campaigns always take the cold path.
    use_fork = options.fork and ctx.model.arm_is_pure and not spec.assertions
    try:
        if use_fork and todo:
            engine = ForkEngine(ctx)
            for injection in _fork_order(ctx, todo):
                emit(forked_injection(ctx, engine, injection))
        else:
            for injection in todo:
                emit(execute_injection(ctx, injection))
    finally:
        if store is not None:
            store.close()
    return CampaignRun(spec, records, options)


def resume_spec(store_path):
    """Reconstruct the :class:`CampaignSpec` a store was written by."""
    header, __ = ResultStore(store_path).load()
    return CampaignSpec.from_dict(header["spec"])


def replay(spec, run_id):
    """Re-execute one injection by id; returns its fresh record."""
    if not 0 <= run_id < spec.injections:
        raise ValueError("run id %d outside campaign of %d injections"
                         % (run_id, spec.injections))
    ctx = CampaignContext(spec)
    injections = sample_injections(ctx.model, ctx, spec.injections, spec.seed)
    return execute_injection(ctx, injections[run_id])
