"""Sharded campaign service: planning, work stealing, crash recovery."""

import os

import pytest

from repro import checkpoint as checkpoint_layer
from repro.campaign import (CampaignSpec, DEMO_WORKLOAD, ExecutionOptions,
                            ForkEngine, ResultStore, StoreMismatch,
                            run_campaign)
from repro.campaign.runner import (CampaignContext, build_campaign_machine,
                                   forked_injection, pick_engine)
from repro.campaign.service import (ServiceError, _process_shard,
                                    build_campaign_image,
                                    merge_shards, plan_shards, run_service,
                                    shard_store_path)
from repro.campaign.space import sample_injections

#: A 41-cycle golden run: reg-flip triggers fall in [1, 40), so a shard
#: of more injections than that must repeat some trigger cycle.
SHORT = """
    main:
        li $t0, 3
        li $s0, 0
    loop:
        add $s0, $s0, $t0
        addi $t0, $t0, -1
        bnez $t0, loop
        halt
"""


def spec_for(**kwargs):
    kwargs.setdefault("model", "reg-flip")
    kwargs.setdefault("injections", 10)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("max_cycles", 30_000)
    return CampaignSpec(DEMO_WORKLOAD, **kwargs)


# ------------------------------------------------------------------ planning

def test_plan_shards_covers_range_exactly():
    plan = plan_shards(10, 3)
    assert plan == [(0, 0, 4), (1, 4, 7), (2, 7, 10)]
    covered = [index for __, start, stop in plan
               for index in range(start, stop)]
    assert covered == list(range(10))


def test_plan_shards_edges():
    assert plan_shards(0, 4) == []
    assert plan_shards(3, 8) == [(0, 0, 1), (1, 1, 2), (2, 2, 3)]  # clamped
    assert plan_shards(5, 1) == [(0, 0, 5)]
    assert plan_shards(5, 0) == [(0, 0, 5)]          # at least one shard


def test_shard_store_path_layout():
    assert shard_store_path("/tmp/camp.jsonl", 2) == "/tmp/camp.shard002.jsonl"
    assert shard_store_path("camp", 0) == "camp.shard000.jsonl"


# ------------------------------------------------------ sharded == serial

def test_sharded_records_match_serial_byte_identical(tmp_path):
    spec = spec_for()
    serial_path = str(tmp_path / "serial.jsonl")
    serial = run_campaign(spec, options=ExecutionOptions(store=serial_path))

    sharded_path = str(tmp_path / "sharded.jsonl")
    sharded = run_campaign(spec, options=ExecutionOptions(
        workers=2, shards=3, store=sharded_path))
    assert sharded.records == serial.records
    # The merged store is byte-identical to the single-process store.
    assert open(sharded_path, "rb").read() == \
        open(serial_path, "rb").read()
    # Shard stores exist beside it and are individually verifiable.
    for shard_id in range(3):
        path = shard_store_path(sharded_path, shard_id)
        header, records = ResultStore(path).verify(spec.fingerprint())
        shard = header["shard"]
        assert shard["id"] == shard_id
        assert all(shard["start"] <= record["id"] < shard["stop"]
                   for record in records)


def test_sharded_without_store_uses_tempdir(tmp_path):
    spec = spec_for(injections=6)
    serial = run_campaign(spec)
    sharded = run_campaign(spec, options=ExecutionOptions(shards=2))
    assert sharded.records == serial.records


# ----------------------------------------------------------- crash recovery

def test_service_survives_sigkilled_worker(tmp_path, monkeypatch):
    """Acceptance: SIGKILL a worker mid-flight; the service still
    converges to the exact single-process record set and consumes the
    kill flag (proving a worker really died)."""
    spec = spec_for(injections=12)
    serial = run_campaign(spec)

    flag = tmp_path / "kill.flag"
    flag.touch()
    monkeypatch.setenv("REPRO_CAMPAIGN_KILL_FILE", str(flag))
    monkeypatch.setenv("REPRO_CAMPAIGN_KILL_AFTER", "2")
    store = str(tmp_path / "camp.jsonl")
    sharded = run_campaign(spec, options=ExecutionOptions(
        workers=2, shards=4, store=store))
    assert not flag.exists(), "kill flag not consumed - no worker died"
    assert sharded.records == serial.records


def test_resume_from_truncated_shard_store(tmp_path):
    """Torn shard stores (worker killed mid-write) resume to the full
    record set."""
    spec = spec_for(injections=8)
    store = str(tmp_path / "camp.jsonl")
    full = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                       store=store))
    # Damage shard 0: drop its last record and leave a torn tail; remove
    # the merged store so the service has to re-merge.
    shard0 = shard_store_path(store, 0)
    lines = open(shard0).readlines()
    with open(shard0, "w") as handle:
        handle.writelines(lines[:-1])
        handle.write('{"kind": "run", "id": 3, "torn')
    os.remove(store)

    resumed = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                          store=store))
    assert resumed.records == full.records
    assert ResultStore(store).verify(spec.fingerprint())


def test_fully_covered_merged_store_short_circuits(tmp_path):
    spec = spec_for(injections=6)
    store = str(tmp_path / "camp.jsonl")
    full = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                       store=store))
    # Remove the shard stores: a covered merged store must be enough.
    for shard_id in range(2):
        os.remove(shard_store_path(store, shard_id))
    seen = []
    again = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                        store=store),
                         progress=lambda done, total: seen.append(done))
    assert again.records == full.records
    assert seen == [6]


# -------------------------------------------------------------- image engine

def test_image_engine_records_match_fresh_machines():
    spec = spec_for(injections=5)
    ctx = CampaignContext(spec)
    engine = ForkEngine(ctx, build_campaign_image(spec))
    injections = sample_injections(ctx.model, ctx, spec.injections,
                                   spec.seed)
    fresh = run_campaign(spec)
    assert [forked_injection(ctx, engine, injection)
            for injection in injections] == fresh.records


def test_image_engine_rejects_foreign_image():
    from repro.checkpoint import CheckpointError

    spec = spec_for(injections=4)
    other = spec_for(injections=4, seed=8)
    ctx = CampaignContext(spec)
    with pytest.raises(CheckpointError):
        ForkEngine(ctx, build_campaign_image(other))


def test_forked_shard_shares_trigger_prefixes(tmp_path, monkeypatch):
    """A forked shard simulates each distinct trigger prefix once, in
    ascending order, from the shipped image.  Its first capture is the
    fault-free ending, which the first register strike builds."""
    spec = CampaignSpec(SHORT, model="reg-flip", injections=48, seed=3,
                        max_cycles=2_000)
    image = build_campaign_image(spec)
    ctx = CampaignContext(spec, golden=image.meta["golden"])
    engine = pick_engine(ctx, True, image)
    prefixes = []
    capture = checkpoint_layer.capture

    def counting_capture(machine):
        prefixes.append(machine.cycle)
        return capture(machine)

    monkeypatch.setattr(checkpoint_layer, "capture", counting_capture)
    path = str(tmp_path / "shard.jsonl")
    _process_shard(ctx, engine, (0, 0, spec.injections), path)
    __, records = ResultStore(path).verify(spec.fingerprint())
    records.sort(key=lambda record: record["id"])
    assert records == run_campaign(spec).records
    fault_free, __ = build_campaign_machine(ctx.asm, spec.protected)
    fault_free.pipeline.run(max_cycles=spec.max_cycles)
    ending, *prefixes = prefixes
    assert ending == fault_free.cycle
    assert 0 < len(prefixes) < spec.injections
    assert prefixes == sorted(set(prefixes))


# -------------------------------------------------------------------- merge

def test_merge_rejects_foreign_shard(tmp_path):
    spec = spec_for(injections=6)
    other = spec_for(injections=6, seed=8)
    store = str(tmp_path / "camp.jsonl")
    run_campaign(spec, options=ExecutionOptions(shards=2, store=store))
    foreign = str(tmp_path / "foreign.jsonl")
    run_campaign(other, options=ExecutionOptions(store=foreign))
    with pytest.raises(StoreMismatch):
        merge_shards(spec, [shard_store_path(store, 0), foreign])


def test_merge_detects_missing_coverage(tmp_path):
    spec = spec_for(injections=6)
    store = str(tmp_path / "camp.jsonl")
    run_campaign(spec, options=ExecutionOptions(shards=2, store=store))
    with pytest.raises(ServiceError, match="missing"):
        merge_shards(spec, [shard_store_path(store, 0)])
    with pytest.raises(ServiceError, match="missing|store"):
        merge_shards(spec, [shard_store_path(store, 0),
                            str(tmp_path / "nope.jsonl")])


def test_run_service_requires_shards_option(tmp_path):
    spec = spec_for(injections=4)
    run = run_service(spec, ExecutionOptions(shards=1))
    assert len(run.records) == 4
    assert run.options.shards == 1
