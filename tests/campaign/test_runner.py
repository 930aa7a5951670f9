"""Campaign execution: determinism, parallelism, resume, replay."""

import json
import os

import pytest

from repro.campaign import (CampaignSpec, DEMO_WORKLOAD, ExecutionOptions,
                            Outcome, replay, resume_spec, run_campaign)
from repro.campaign.store import ResultStore, StoreMismatch

LOOP = """
    main:
        li $t0, 0
        li $t1, 25
        li $s0, 0
    loop:
        add $s0, $s0, $t0
        addi $t0, $t0, 1
        blt $t0, $t1, loop
        halt
"""


def spec_for(model="instr-flip", source=LOOP, **kwargs):
    kwargs.setdefault("injections", 12)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("max_cycles", 100_000)
    return CampaignSpec(source=source, model=model, **kwargs)


# ----------------------------------------------------------- determinism

def test_same_seed_same_records():
    """Regression: identical seed + config => identical per-run records."""
    one = run_campaign(spec_for())
    two = run_campaign(spec_for())
    assert one.records == two.records


def test_different_seed_different_records():
    one = run_campaign(spec_for(seed=1))
    two = run_campaign(spec_for(seed=2))
    assert [record["params"] for record in one.records] != \
        [record["params"] for record in two.records]


def test_mid_run_models_are_deterministic_too():
    spec = spec_for(model="reg-flip", protected=False)
    assert run_campaign(spec).records == run_campaign(spec).records


# ------------------------------------------------------------ protection

def test_icm_detects_all_instruction_flips():
    run = run_campaign(spec_for(injections=20))
    assert run.detection_rate == 1.0


def test_cf_corruption_detected_by_icm():
    run = run_campaign(spec_for(model="cf-corrupt", injections=10))
    assert run.detection_rate == 1.0


def test_unprotected_instruction_flips_do_damage():
    run = run_campaign(spec_for(protected=False, injections=20, seed=7))
    assert run.detection_rate == 0.0
    damage = (run.count(Outcome.FAULTED) + run.count(Outcome.CORRUPTED)
              + run.count(Outcome.HUNG))
    assert damage > 0


def test_non_icm_models_classify_outcomes():
    """Register-file and data-memory strikes yield classified outcomes."""
    for model in ("reg-flip", "mem-flip"):
        run = run_campaign(spec_for(model=model, source=DEMO_WORKLOAD,
                                    protected=False, injections=15, seed=11))
        assert len(run.records) == 15
        values = {outcome.value for outcome in Outcome}
        assert all(record["outcome"] in values for record in run.records)
        assert run.count(Outcome.DETECTED) == 0     # ICM doesn't cover these
    # Data strikes on the live array must corrupt at least one run.
    run = run_campaign(spec_for(model="mem-flip", source=DEMO_WORKLOAD,
                                protected=False, injections=15, seed=11))
    assert run.count(Outcome.CORRUPTED) > 0


# ------------------------------------------------------------- parallel

def test_parallel_records_match_serial():
    spec = spec_for(injections=12)
    serial = run_campaign(spec, options=ExecutionOptions(workers=1))
    parallel = run_campaign(spec, options=ExecutionOptions(workers=2))
    assert serial.records == parallel.records


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock speedup needs >= 4 cores")
def test_parallel_is_faster_on_multicore():
    import time

    spec = spec_for(source=DEMO_WORKLOAD, injections=200, seed=5,
                    max_cycles=200_000)
    start = time.time()
    run_campaign(spec, options=ExecutionOptions(workers=1))
    serial = time.time() - start
    start = time.time()
    run_campaign(spec, options=ExecutionOptions(workers=4))
    parallel = time.time() - start
    assert parallel < serial


# --------------------------------------------------------------- resume

def test_resume_completes_interrupted_campaign(tmp_path):
    spec = spec_for(injections=12)
    full_path = str(tmp_path / "full.jsonl")
    full = run_campaign(spec, options=ExecutionOptions(store=full_path))

    # Simulate a kill after 5 records, mid-write of the 6th.
    with open(full_path) as handle:
        lines = handle.readlines()
    part_path = str(tmp_path / "part.jsonl")
    with open(part_path, "w") as handle:
        handle.writelines(lines[:6])
        handle.write('{"kind": "run", "id": 99, "torn')

    resumed = run_campaign(spec, options=ExecutionOptions(store=part_path))
    assert resumed.records == full.records
    assert resumed.summary() == full.summary()
    # The store now holds every record and resuming again runs nothing.
    again = run_campaign(spec, options=ExecutionOptions(store=part_path))
    assert again.records == full.records


def test_resume_rejects_different_config(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    run_campaign(spec_for(seed=1, injections=4),
                 options=ExecutionOptions(store=path))
    with pytest.raises(StoreMismatch):
        run_campaign(spec_for(seed=2, injections=4),
                     options=ExecutionOptions(store=path))


def test_store_spec_round_trip(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    spec = spec_for(injections=4)
    run_campaign(spec, options=ExecutionOptions(store=path))
    recovered = resume_spec(path)
    assert recovered.fingerprint() == spec.fingerprint()


def test_serial_store_header_has_no_shard(tmp_path):
    """A serial run is one in-process range over every id: it writes a
    plain campaign store, not a shard store."""
    path = str(tmp_path / "campaign.jsonl")
    spec = spec_for(injections=4)
    run_campaign(spec, options=ExecutionOptions(store=path))
    header, __ = ResultStore(path).verify(spec.fingerprint())
    assert "shard" not in header


# --------------------------------------------------------------- replay

def test_replay_reproduces_stored_record(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    spec = spec_for(injections=8)
    run_campaign(spec, options=ExecutionOptions(store=path))
    stored = ResultStore(path).record_for(5)
    assert stored is not None
    assert replay(spec, 5) == stored


def test_replay_validates_id():
    with pytest.raises(ValueError):
        replay(spec_for(injections=4), 4)


# -------------------------------------------------------- not-triggered

class _LateTrigger:
    """Test-only model: arms a trigger *extra* cycles past the golden end.

    With ``extra`` small the workload halts before the trigger (fire()
    never runs); with ``extra`` huge the trigger falls outside the cycle
    budget and the run is skipped outright.  Either way the record must
    come back NOT_TRIGGERED and stay out of the detection denominator.
    """

    name = "test-late-trigger"
    arm_is_pure = True

    def __init__(self, extra=100):
        self.extra = int(extra)

    def build_space(self, ctx):
        return {"trigger": ctx.golden_cycles + self.extra}

    def sample(self, rng, space):
        rng.random()                      # keep the per-injection draw
        return {"cycle": space["trigger"]}

    def arm(self, machine, ctx, params):
        return params["cycle"]

    def fire(self, machine, ctx, params):
        machine.pipeline.regs[9] ^= 1     # must never run in these tests


@pytest.fixture
def late_trigger_model():
    from repro.campaign.models import MODELS

    MODELS[_LateTrigger.name] = _LateTrigger
    yield
    MODELS.pop(_LateTrigger.name, None)


def test_early_halt_reports_not_triggered(late_trigger_model):
    """Regression: a run that halts before the armed trigger is
    NOT_TRIGGERED (event records the halt), never BENIGN/CORRUPTED."""
    spec = spec_for(model="test-late-trigger", injections=6,
                    model_options={"extra": 100})
    run = run_campaign(spec)
    assert len(run.records) == 6
    for record in run.records:
        assert record["outcome"] == Outcome.NOT_TRIGGERED.value
        assert record["event"] == "halt"
        assert record["cycles"] > 0
    assert run.injected_runs == 0
    assert run.detection_rate == 0.0


def test_out_of_budget_trigger_reports_not_triggered(late_trigger_model):
    """Regression: a trigger past max_cycles must be skipped, not clamped
    into the budget (clamping used to fire the fault at a cycle the model
    never sampled)."""
    spec = spec_for(model="test-late-trigger", injections=4,
                    model_options={"extra": 10**9})
    run = run_campaign(spec)
    for record in run.records:
        assert record["outcome"] == Outcome.NOT_TRIGGERED.value
        assert record["event"] == "skipped"
        assert record["cycles"] == 0


def test_not_triggered_excluded_from_detection_rate():
    from repro.campaign.report import detection_stats

    records = [{"id": 0, "outcome": "detected"},
               {"id": 1, "outcome": "detected"},
               {"id": 2, "outcome": "not_triggered"},
               {"id": 3, "outcome": "not_triggered"}]
    detected, total, det_rate, __ = detection_stats(records)
    assert total == 2
    assert detected == 2
    assert det_rate == 1.0

    from repro.campaign.runner import CampaignRun
    synthetic = CampaignRun(spec_for(), records)
    assert synthetic.injected_runs == 2
    assert synthetic.detection_rate == 1.0


# ----------------------------------------------------------------- fork

@pytest.fixture
def fork_engines(monkeypatch):
    """Every :class:`ForkEngine` the test builds, in order."""
    from repro.campaign.runner import ForkEngine

    engines = []
    real_init = ForkEngine.__init__

    def init(engine, *args, **kwargs):
        real_init(engine, *args, **kwargs)
        engines.append(engine)

    monkeypatch.setattr(ForkEngine, "__init__", init)
    return engines


#: The fork/cold identity runs: source -> (injections, cycle budget,
#: seeds).  kmeans and vpr-route are the quick Table 4 sources.
FORK_RUNS = {
    "loop": (12, 10_000, (42, 5)),
    "demo": (16, 10_000, (1, 7)),
    "kmeans": (12, 8_000, (1, 2)),
    "vpr-route": (8, 12_000, (3, 5)),
}


def _fork_source(name):
    if name == "loop":
        return LOOP
    if name == "demo":
        return DEMO_WORKLOAD
    from repro.experiments.table4 import workload_sources

    return workload_sources(quick=True)[name]


def _fork_and_cold(name, protected, seed):
    injections, budget, __ = FORK_RUNS[name]
    spec = spec_for(model="reg-flip", source=_fork_source(name),
                    protected=protected, injections=injections, seed=seed,
                    max_cycles=budget)
    cold = run_campaign(spec, options=ExecutionOptions(fork=False))
    forked = run_campaign(spec, options=ExecutionOptions(fork=True))
    return cold, forked


def _record_bytes(run):
    """Each record as the store writes its line."""
    return [json.dumps(record, sort_keys=True) for record in run.records]


@pytest.mark.parametrize("name, protected, seed", [
    pytest.param(name, protected, seed, id="%s-%s-%d" % (
        name, "protected" if protected else "bare", seed))
    for name, (__, __, seeds) in FORK_RUNS.items()
    for protected in (True, False)
    for seed in seeds])
def test_fork_records_match_cold_serial(name, protected, seed, fork_engines):
    """--fork is an execution detail: byte-identical records, also for
    the register strikes the engine answers from the fault-free ending
    instead of simulating their tails (bare runs put a NullTap in the
    pipeline's rse slot to watch dispatch)."""
    cold, forked = _fork_and_cold(name, protected, seed)
    assert _record_bytes(forked) == _record_bytes(cold)
    engine, = fork_engines
    assert engine.ending is not None
    assert 0 < engine.replayed < len(forked.records)


@pytest.mark.parametrize("protected", [True, False],
                         ids=["protected", "bare"])
def test_fork_replay_canary_needs_the_naming_table(protected, monkeypatch):
    """With the naming table emptied every register counts as never
    named, so strikes on registers a later instruction reads are
    answered from the fault-free ending too: the records must differ."""
    from repro.campaign.runner import ForkEngine

    real_ending = ForkEngine._run_ending

    def blind_ending(engine):
        real_ending(engine)
        engine.named.clear()

    monkeypatch.setattr(ForkEngine, "_run_ending", blind_ending)
    cold, forked = _fork_and_cold("demo", protected, 1)
    changed = sum(one != other for one, other
                  in zip(_record_bytes(cold), _record_bytes(forked)))
    assert changed > 0


#: Straight-line code for each condition of the replay rule: ``$s1``
#: has a 20-cycle divide in flight, the last reader of ``$t1``
#: dispatches only once the ROB drains behind the divide, and ``$s2``
#: and ``$s0`` are written without being read.
SWEEP = """
    main:
        li $t1, 7
        li $t0, 91
        div $s1, $t0, $t1
        addi $t3, $zero, 1
""" + "        addi $t3, $t3, 1\n" * 12 + """
        addi $s2, $t1, 40
        li $s0, 5
        halt
"""


@pytest.mark.parametrize("protected", [True, False],
                         ids=["protected", "bare"])
def test_fork_strike_matches_cold_at_every_trigger(protected):
    """Every register the program names, and one it never names, struck
    at every cycle of the run: the fork engine's record, replayed or
    simulated, equals a fresh machine's.  Dropping any condition of the
    rule (no producer in flight, named strictly before the trigger,
    either side of the naming table) changes records here."""
    from repro.campaign.models import Injection
    from repro.campaign.runner import (CampaignContext, ForkEngine,
                                       execute_injection)

    spec = spec_for(model="reg-flip", source=SWEEP, protected=protected,
                    injections=1, seed=0, max_cycles=2_000,
                    result_regs=(16, 17, 18))
    ctx = CampaignContext(spec)
    engine = ForkEngine(ctx)
    regs = (8, 9, 11, 16, 17, 18, 20)
    mismatched = []
    for reg in regs:
        for cycle in range(1, ctx.golden_cycles):
            injection = Injection(0, "reg-flip", 0,
                                  {"reg": reg, "bit": 2, "cycle": cycle})
            if (engine.strike(injection, cycle)
                    != execute_injection(ctx, injection)):
                mismatched.append((reg, cycle))
    assert mismatched == []
    assert 0 < engine.replayed < len(regs) * (ctx.golden_cycles - 1)


@pytest.mark.parametrize("model, source, seed, repeated_triggers, replayed", [
    ("reg-flip", LOOP, 4, 4, 14),
    ("reg-flip", DEMO_WORKLOAD, 1, 0, 9),
    ("mem-flip", DEMO_WORKLOAD, 1, 1, 0),
], ids=["loop-reg-flip", "demo-reg-flip", "demo-mem-flip"])
def test_fork_restores_once_per_struck_injection(model, source, seed,
                                                 repeated_triggers, replayed,
                                                 monkeypatch, fork_engines):
    """A new trigger restores the nearest prefix, runs on and captures:
    the trunk already is the new prefix, so it strikes without a second
    restore.  A repeated trigger restores its shared prefix once.  A
    strike answered from the fault-free ending restores that too, and
    building the ending (on the first register strike) restores the
    base once."""
    from repro import checkpoint

    spec = spec_for(model=model, source=source, injections=16, seed=seed,
                    max_cycles=10_000)
    cold = run_campaign(spec, options=ExecutionOptions(fork=False))
    restores = []
    real_restore = checkpoint.restore

    def counting_restore(machine, point):
        restores.append(point.cycle)
        return real_restore(machine, point)

    monkeypatch.setattr(checkpoint, "restore", counting_restore)
    forked = run_campaign(spec, options=ExecutionOptions(fork=True))
    assert forked.records == cold.records
    triggers = [record["params"]["cycle"] for record in forked.records]
    assert len(triggers) - len(set(triggers)) == repeated_triggers
    struck = [record for record in forked.records
              if record["outcome"] != Outcome.NOT_TRIGGERED.value]
    assert struck
    engine, = fork_engines
    assert engine.replayed == replayed
    endings = 0 if engine.ending is None else 1
    assert endings == (model == "reg-flip")
    assert len(restores) == len(struck) + replayed + endings


def test_fork_parallel_matches_cold(tmp_path):
    spec = spec_for(model="mem-flip", source=DEMO_WORKLOAD, protected=False,
                    injections=10, seed=11, max_cycles=20_000)
    cold = run_campaign(
        spec, options=ExecutionOptions(workers=1, fork=False))
    for options in (ExecutionOptions(workers=2, fork=True),
                    ExecutionOptions(shards=2, workers=2, fork=True)):
        assert run_campaign(spec, options=options).records == cold.records


def test_fork_flag_is_safe_for_impure_models():
    """instr-flip arms by rewriting memory; fork silently stays cold."""
    spec = spec_for(injections=6)
    assert run_campaign(spec, options=ExecutionOptions(fork=True)).records == \
        run_campaign(spec, options=ExecutionOptions(fork=False)).records


#: Serial routes that run every injection on a fresh machine:
#: ``(spec keywords, fork flag)``.
COLD_ROUTES = {
    "assert": ({"model": "reg-flip", "assertions": True}, True),
    "instr-flip": ({"model": "instr-flip"}, True),
    "attack": ({"model": "attack", "source": "attack:stack-smash",
                "model_options": {"attack_class": "stack-smash",
                                  "config": "none"},
                "max_cycles": 300_000}, True),
    "no-fork": ({"model": "reg-flip"}, False),
}


@pytest.mark.parametrize("route", sorted(COLD_ROUTES))
def test_cold_routes_build_no_fork_engine(route, fork_engines):
    """Monitored campaigns, impure or self-executing models and runs
    without fork never build a :class:`ForkEngine`."""
    keywords, fork = COLD_ROUTES[route]
    spec = spec_for(**dict(keywords, injections=2))
    run = run_campaign(spec, options=ExecutionOptions(fork=fork))
    assert len(run.records) == 2
    assert fork_engines == []


def test_fork_route_builds_one_engine_from_the_image(monkeypatch,
                                                     fork_engines):
    """A forked pure-model campaign builds exactly one engine; given
    the service's shipped image, the engine's pristine machine is
    unpacked from it."""
    from repro.campaign.runner import CampaignContext, pick_engine
    from repro.campaign.service import build_campaign_image
    from repro.checkpoint import CampaignImage

    spec = spec_for(model="reg-flip", injections=6)
    run_campaign(spec, options=ExecutionOptions(fork=True))
    assert len(fork_engines) == 1
    image = build_campaign_image(spec)
    unpacked = []
    real_checkpoint = CampaignImage.checkpoint

    def checkpoint(bundle):
        unpacked.append(bundle)
        return real_checkpoint(bundle)

    monkeypatch.setattr(CampaignImage, "checkpoint", checkpoint)
    pick_engine(CampaignContext(spec), True, image)
    assert len(fork_engines) == 2
    assert unpacked == [image]


def test_run_carries_its_execution_options():
    options = ExecutionOptions(workers=1, fork=False)
    run = run_campaign(spec_for(injections=2), options=options)
    assert run.options == options
    assert run_campaign(spec_for(injections=2)).options == ExecutionOptions()


def test_full_store_short_circuits_to_pure_read(tmp_path, monkeypatch):
    """Resuming a fully-covered store must not build a context (no
    assembly, no golden run) — it is a pure store read."""
    import repro.campaign.runner as runner_mod

    path = str(tmp_path / "campaign.jsonl")
    spec = spec_for(injections=6)
    full = run_campaign(spec, options=ExecutionOptions(store=path))

    def boom(*args, **kwargs):
        raise AssertionError("CampaignContext built on a covered store")

    monkeypatch.setattr(runner_mod, "CampaignContext", boom)
    seen = []
    again = run_campaign(spec, options=ExecutionOptions(store=path),
                         progress=lambda done, total: seen.append((done,
                                                                   total)))
    assert again.records == full.records
    assert seen == [(6, 6)]
