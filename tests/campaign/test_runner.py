"""Campaign execution: determinism, parallelism, resume, replay."""

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

def test_fork_records_match_cold_serial():
    """--fork is an execution detail: byte-identical records."""
    spec = spec_for(model="reg-flip", injections=12, max_cycles=10_000)
    cold = run_campaign(spec, options=ExecutionOptions(fork=False))
    forked = run_campaign(spec, options=ExecutionOptions(fork=True))
    assert cold.records == forked.records


@pytest.mark.parametrize("model, source, seed, repeated_triggers", [
    ("reg-flip", LOOP, 4, 4),
    ("reg-flip", DEMO_WORKLOAD, 1, 0),
    ("mem-flip", DEMO_WORKLOAD, 1, 1),
], ids=["loop-reg-flip", "demo-reg-flip", "demo-mem-flip"])
def test_fork_restores_once_per_struck_injection(model, source, seed,
                                                 repeated_triggers,
                                                 monkeypatch):
    """A new trigger restores the nearest prefix, runs on and captures:
    the trunk already is the new prefix, so it strikes without a second
    restore.  A repeated trigger restores its shared prefix once."""
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
    assert len(restores) == len(struck)


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
