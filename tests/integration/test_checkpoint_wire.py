"""Checkpoint wire format: serialize, ship, restore into a fresh machine.

The sharded campaign service's correctness rests on one property: a
checkpoint serialized with :meth:`MachineCheckpoint.to_bytes`, carried
across a process boundary, and restored into a *different* machine of
the same shape behaves exactly like the machine it was captured from.
These tests prove that over the Table 4 workloads (quick configuration)
on the full protected machine — kernel, out-of-order pipeline, RSE with
the ICM enabled — plus the loud-failure paths: stale format versions,
foreign blobs, truncated or bit-flipped images, bodies that do not
decode, and shape mismatches must all raise :class:`CheckpointError`
instead of corrupting anything.
"""

import pickle
import random
import struct

import pytest

from repro.checkpoint import (CampaignImage, CheckpointError, IMAGE_MAGIC,
                              IMAGE_VERSION, MachineCheckpoint, WIRE_MAGIC,
                              WIRE_VERSION, _HEADER, _seal)
from repro.experiments.table4 import workload_sources
from repro.program.layout import MemoryLayout
from repro.rse.modules.icm import arm_icm
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

BUDGET = 5_000_000


def build_workload_machine(source, protected=True):
    """Full machine (kernel + pipeline + RSE/ICM) running *source*."""
    machine = build_machine(with_rse=protected,
                            modules=("icm",) if protected else ())
    image, __ = build_workload_image(source, MemoryLayout())
    machine.kernel.load_process(image)
    if protected:
        text = image.segment(".text")
        arm_icm(machine, text.base, len(text.data))
    return machine


@pytest.mark.parametrize("name", sorted(workload_sources(quick=True)))
def test_wire_round_trip_matches_live_machine(name):
    """Serialized checkpoint -> fresh machine == the captured machine.

    Runs each Table 4 workload halfway, serializes the checkpoint,
    deserializes it into a brand-new machine, then runs both (and a
    cold reference) to completion.  Registers, cycle counts, guest
    output and the full telemetry snapshot must agree.
    """
    source = workload_sources(quick=True)[name]

    cold = build_workload_machine(source)
    cold_result = cold.kernel.run(max_cycles=BUDGET)
    assert cold_result.reason in ("halt", "all_exited")
    total = cold.pipeline.cycle
    split = total // 2

    donor = build_workload_machine(source)
    donor.kernel.run(max_cycles=split)
    assert donor.pipeline.cycle == split
    payload = donor.checkpoint().to_bytes()

    fresh = build_workload_machine(source)
    fresh.restore(MachineCheckpoint.from_bytes(payload))
    assert fresh.pipeline.cycle == split

    donor_result = donor.kernel.run(max_cycles=BUDGET - split)
    fresh_result = fresh.kernel.run(max_cycles=BUDGET - split)

    assert fresh_result.reason == donor_result.reason == cold_result.reason
    assert fresh.pipeline.cycle == donor.pipeline.cycle == total
    assert list(fresh.pipeline.regs) == list(donor.pipeline.regs) \
        == list(cold.pipeline.regs)
    assert fresh.kernel.output == donor.kernel.output == cold.kernel.output
    assert fresh.snapshot() == donor.snapshot()


def _full_rob_machine(source):
    """A protected machine stepped until its ROB is full and holds
    uops still waiting on producers, with CHECKs latched in Fetch_Out."""
    machine = build_workload_machine(source)
    pipeline = machine.pipeline
    for __ in range(20_000):
        machine.kernel.run_slice(1)
        rob = pipeline.rob
        if (len(rob) == pipeline.config.rob_entries
                and any(uop.wait_a is not None or uop.wait_b is not None
                        for uop in rob)
                and len(machine.rse.queues.fetch_out)):
            return machine
    pytest.fail("the workload never filled the ROB")


def _assert_uops_resolve_into_rob(machine):
    """Every in-flight uop reference is one of the machine's ROB uops."""
    rob = machine.pipeline.rob
    by_seq = {uop.seq: uop for uop in rob}
    assert len(by_seq) == len(rob)
    for uop in rob:
        for producer in (uop.wait_a, uop.wait_b):
            assert producer is None or by_seq.get(producer.seq) is producer
    for producer in machine.pipeline.rename.values():
        assert by_seq.get(producer.seq) is producer
    # The IOQ holds exactly the in-flight CHECKs, each with its uop.
    entries = machine.rse.ioq.entries()
    checks = [uop for uop in rob if uop.instr.is_check]
    assert checks
    assert [entry.seq for entry in entries] == [uop.seq for uop in checks]
    for uop in rob:
        entry = machine.rse.ioq.get(uop.seq)
        if uop.instr.is_check:
            assert entry.uop is uop
        else:
            assert entry is None
    for entry in entries:
        assert by_seq.get(entry.seq) is entry.uop
    items = list(machine.rse.queues.fetch_out._items)
    assert items
    for __, (seq, uop) in items:
        assert by_seq.get(seq) is uop


def _final_state(machine):
    result = machine.kernel.run(max_cycles=BUDGET)
    return (result.reason, machine.pipeline.cycle,
            list(machine.pipeline.regs), machine.snapshot()["rse"])


def test_restore_shares_instrs_and_keeps_uop_aliasing():
    """A checkpoint copies each in-flight uop once, keeps the ROB, the
    rename map, the IOQ and Fetch_Out pointing at the same clones, and
    shares the immutable decoded instructions instead of copying them."""
    source = workload_sources(quick=True)["kmeans"]
    expected = _final_state(build_workload_machine(source))

    donor = _full_rob_machine(source)
    captured_instrs = [uop.instr for uop in donor.pipeline.rob]
    checkpoint = donor.checkpoint()
    payload = checkpoint.to_bytes()
    assert _final_state(donor) == expected

    for __ in range(2):
        donor.restore(checkpoint)
        _assert_uops_resolve_into_rob(donor)
        assert all(uop.instr is instr for uop, instr
                   in zip(donor.pipeline.rob, captured_instrs))
        assert _final_state(donor) == expected

    fresh = build_workload_machine(source)
    fresh.restore(MachineCheckpoint.from_bytes(payload))
    _assert_uops_resolve_into_rob(fresh)
    assert [uop.instr.word for uop in fresh.pipeline.rob] == \
        [instr.word for instr in captured_instrs]
    assert _final_state(fresh) == expected


def test_wire_rejects_stale_version():
    machine = build_workload_machine(
        workload_sources(quick=True)["kmeans"])
    payload = machine.checkpoint().to_bytes()
    __, __, length, crc = _HEADER.unpack_from(payload)
    body = payload[_HEADER.size:]
    stale = _HEADER.pack(WIRE_MAGIC, 99, length, crc) + body
    with pytest.raises(CheckpointError, match="version"):
        MachineCheckpoint.from_bytes(stale)
    # A version-1 image put its two-field header straight before the
    # pickle; it is refused on the version, before anything unpickles.
    version1 = struct.pack("<4sH", WIRE_MAGIC, 1) + body
    with pytest.raises(CheckpointError, match="version 1"):
        MachineCheckpoint.from_bytes(version1)
    # Version 3 listed every cache set and version 4 held an IOQ entry
    # for every in-flight instruction; their images are refused intact.
    assert WIRE_VERSION == 5
    for old in (3, 4):
        with pytest.raises(CheckpointError, match="version %d" % old):
            MachineCheckpoint.from_bytes(_seal(WIRE_MAGIC, old, bytes(body)))


def test_wire_state_carries_only_resident_cache_sets():
    machine = build_workload_machine(
        workload_sources(quick=True)["kmeans"])
    machine.kernel.run(max_cycles=3_000)
    wire = MachineCheckpoint.from_bytes(machine.checkpoint().to_bytes())
    for name in ("il1", "dl1", "il2", "dl2"):
        live = getattr(machine.hierarchy, name)
        shipped = wire._state["hierarchy"][name]
        assert 0 < len(live._sets) < live.num_sets
        assert shipped._sets == live._sets


def test_wire_rejects_foreign_and_truncated_payloads():
    with pytest.raises(CheckpointError):
        MachineCheckpoint.from_bytes(b"\x00\x01")           # truncated
    with pytest.raises(CheckpointError):
        MachineCheckpoint.from_bytes(b"XXXX\x01\x00rest")   # wrong magic


def _corruptions(payload, rng, flips, truncations):
    """Seeded single-bit flips anywhere in *payload*, then truncations
    at seeded lengths (the empty image and one byte short included)."""
    for __ in range(flips):
        position = rng.randrange(len(payload))
        damaged = bytearray(payload)
        damaged[position] ^= 1 << rng.randrange(8)
        yield bytes(damaged)
    cuts = {0, len(payload) - 1}
    while len(cuts) < truncations:
        cuts.add(rng.randrange(len(payload)))
    for cut in sorted(cuts):
        yield payload[:cut]


def test_wire_fuzz_raises_only_checkpoint_error():
    """Every flipped or truncated image is refused with CheckpointError:
    the header's body length and CRC32 catch them before unpickling."""
    from repro.campaign import CampaignSpec, DEMO_WORKLOAD
    from repro.campaign.service import build_campaign_image

    protected = build_workload_machine(workload_sources(quick=True)["kmeans"])
    protected.kernel.run(max_cycles=500)
    spec = CampaignSpec(DEMO_WORKLOAD, model="reg-flip", injections=4,
                        seed=3, max_cycles=20_000)
    targets = ((protected.checkpoint().to_bytes(), MachineCheckpoint),
               (build_campaign_image(spec).to_bytes(), CampaignImage))
    rng = random.Random(19)
    for payload, reader in targets:
        reader.from_bytes(payload)
        for damaged in _corruptions(payload, rng, flips=300,
                                    truncations=100):
            with pytest.raises(CheckpointError):
                reader.from_bytes(damaged)


@pytest.mark.parametrize("body", [
    b"\x80\x04not a pickle",                     # the body does not unpickle
    pickle.dumps(["not", "a", "document"]),       # wrong document shape
    pickle.dumps({"state": b"\x80\x04junk", "blobs": [], "page_blob": {},
                  "cycle": 0, "versions": {}, "pin_count": 0}),  # bad state
])
def test_wire_rejects_undecodable_bodies(body):
    """A body whose header checks out but whose document or state does
    not decode is still a CheckpointError, never a stray exception."""
    with pytest.raises(CheckpointError):
        MachineCheckpoint.from_bytes(_seal(WIRE_MAGIC, WIRE_VERSION, body))
    with pytest.raises(CheckpointError):
        CampaignImage.from_bytes(_seal(IMAGE_MAGIC, IMAGE_VERSION, body))


def test_wire_rejects_shape_mismatch():
    """A protected-machine image must not graft onto a bare machine."""
    source = workload_sources(quick=True)["kmeans"]
    protected = build_workload_machine(source, protected=True)
    protected.kernel.run(max_cycles=500)
    payload = protected.checkpoint().to_bytes()

    bare = build_workload_machine(source, protected=False)
    with pytest.raises(CheckpointError):
        bare.restore(MachineCheckpoint.from_bytes(payload))


def test_campaign_image_round_trip():
    from repro.campaign import CampaignSpec, DEMO_WORKLOAD
    from repro.campaign.service import build_campaign_image

    spec = CampaignSpec(DEMO_WORKLOAD, model="reg-flip", injections=4,
                        seed=3, max_cycles=20_000)
    image = build_campaign_image(spec)
    clone = CampaignImage.from_bytes(image.to_bytes())
    assert clone.fingerprint == spec.fingerprint()
    assert clone.digest() == image.digest()
    assert clone.meta["golden"] == image.meta["golden"]
    assert clone.checkpoint().cycle == image.meta["cycle"]
    clone.verify(spec.fingerprint())
    with pytest.raises(CheckpointError, match="fingerprint"):
        clone.verify("0" * 16)
