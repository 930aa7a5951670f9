"""Probe attach/detach hygiene and the zero-cost-when-off contract.

Probes instrument by shadowing bound methods with instance attributes,
so "off" must mean *no wrapper anywhere* (the class methods run bare)
and "on" must be architecturally invisible (identical retired
instruction stream and cycle count).
"""

import pytest

from repro.system import build_machine
from repro.workloads import kmeans

ALL_PROBES = ("fetch_stall", "mispredict", "bus", "rse", "sched", "commit")


def build_loaded(with_rse=False, modules=()):
    image, __ = kmeans.program(pattern_count=20, clusters=4, iterations=1)
    machine = build_machine(with_rse=with_rse, modules=modules)
    machine.kernel.load_process(image)
    return machine


def run_to_halt(machine):
    result = machine.kernel.run()
    assert result.reason == "halt", result
    return result


def shadowed_attrs(machine):
    """Instance attributes that would indicate a live probe wrapper."""
    spots = [
        (machine.hierarchy, "ifetch"),
        (machine.pipeline.predictor, "record_hit"),
        (machine.hierarchy.bus, "cpu_transfer"),
        (machine.hierarchy.bus, "mau_transfer"),
        (machine.kernel, "_schedule"),
    ]
    if machine.rse is not None:
        spots += [(machine.rse, "on_dispatch"), (machine.rse, "on_commit"),
                  (machine.rse, "note_error_transition")]
    return [attr for obj, attr in spots if attr in vars(obj)]


def test_probes_on_off_equivalence():
    """Attaching every probe must not change architectural results."""
    baseline = build_loaded(with_rse=True)
    run_to_halt(baseline)

    probed = build_loaded(with_rse=True)
    for name in ALL_PROBES:
        probed.obs.attach(name)
    run_to_halt(probed)

    base_doc, probe_doc = baseline.snapshot(), probed.snapshot()
    assert probe_doc["pipeline"]["instret"] == base_doc["pipeline"]["instret"]
    assert probe_doc["pipeline"]["cycles"] == base_doc["pipeline"]["cycles"]
    assert probe_doc["memory"] == base_doc["memory"]


def test_detach_restores_bare_methods():
    machine = build_loaded(with_rse=True)
    assert shadowed_attrs(machine) == []        # nothing before attach
    for name in ALL_PROBES:
        machine.obs.attach(name)
    assert shadowed_attrs(machine) != []
    machine.obs.detach()                        # all probes
    assert shadowed_attrs(machine) == []
    assert machine.obs.attached() == []
    assert machine.snapshot()["obs"]["probes"] == []


def test_attach_is_idempotent_and_validates_names():
    machine = build_loaded()
    machine.obs.attach("fetch_stall")
    machine.obs.attach("fetch_stall")           # second attach is a no-op
    assert machine.obs.attached() == ["fetch_stall"]
    with pytest.raises(KeyError):
        machine.obs.attach("nonsense")


def test_rse_probe_requires_rse():
    machine = build_loaded()                    # bare machine
    with pytest.raises(ValueError):
        machine.obs.attach("rse")


def test_probes_populate_metrics_and_trace():
    machine = build_loaded(with_rse=True)
    machine.obs.attach("fetch_stall")
    machine.obs.attach("bus")
    machine.obs.attach("sched")
    run_to_halt(machine)
    doc = machine.snapshot()["obs"]
    assert sorted(doc["probes"]) == ["bus", "fetch_stall", "sched"]
    metrics = doc["metrics"]
    assert metrics["pipeline.fetch_miss_events"]["value"] > 0
    assert metrics["pipeline.fetch_miss_latency"]["count"] > 0
    assert metrics["bus.cpu_wait"]["count"] > 0
    assert doc["trace"]["emitted"] > 0


def test_commit_probe_exposes_tracer():
    machine = build_loaded(with_rse=True)
    machine.obs.attach("commit", limit=50)
    run_to_halt(machine)
    tracer = machine.obs.probe("commit").tracer
    assert len(tracer.entries) == 50
    machine.obs.detach("commit")


def test_reattach_with_conflicting_kwargs_raises():
    """Silently keeping the old configuration hid real bugs: a second
    attach("commit", limit=200) used to return the limit=50 probe."""
    machine = build_loaded(with_rse=True)
    first = machine.obs.attach("commit", limit=50)
    assert machine.obs.attach("commit", limit=50) is first   # same: no-op
    with pytest.raises(ValueError) as excinfo:
        machine.obs.attach("commit", limit=200)
    assert "commit" in str(excinfo.value)
    assert "detach" in str(excinfo.value)
    # The original probe stays attached and configured.
    assert machine.obs.attached() == ["commit"]
    assert machine.obs.probe("commit") is first


def test_attach_detach_reattach_cycle_accepts_new_kwargs():
    machine = build_loaded(with_rse=True)
    machine.obs.attach("commit", limit=50)
    machine.obs.detach("commit")
    probe = machine.obs.attach("commit", limit=200)   # fresh config is fine
    assert machine.obs.probe("commit") is probe
    machine.obs.detach("commit")
    machine.obs.attach("commit", limit=200)
    machine.obs.detach()
    assert machine.obs.attached() == []


def test_restore_carries_no_probe_shadows():
    """A checkpoint of a probed machine holds state, not the probes.

    Restoring into a fresh machine must leave it with bare methods, and
    running it must drive its own IOQ, not the one the capture machine's
    probe wrappers call into.
    """
    probed = build_loaded(with_rse=True)
    probed.obs.attach("rse")
    probed.obs.attach("mispredict")
    probed.obs.attach("fetch_stall")
    probed.obs.attach("sched")
    probed.kernel.run_slice(500)
    captured = probed.checkpoint()

    fresh = build_loaded(with_rse=True)
    fresh.restore(captured)
    assert [attr for attr in shadowed_attrs(fresh)
            if attr not in ("cpu_transfer", "mau_transfer")] == []
    probed_before = probed.snapshot()["rse"]["ioq"]["allocated"]
    fresh_before = fresh.snapshot()["rse"]["ioq"]["allocated"]
    fresh.kernel.run_slice(300)
    assert probed.snapshot()["rse"]["ioq"]["allocated"] == probed_before
    assert fresh.snapshot()["rse"]["ioq"]["allocated"] > fresh_before


def test_restore_keeps_predictor_and_bus_probes():
    """Restore refills the live predictor and bus in place, so the
    ``mispredict`` and ``bus`` probes attached before it keep counting:
    a machine restored onto its own checkpoint counts what an
    unrestored run counts."""
    def counts(restore):
        image, __ = kmeans.program(pattern_count=60, iterations=2)
        machine = build_machine()
        machine.kernel.load_process(image)
        machine.obs.attach("mispredict")
        machine.obs.attach("bus")
        assert machine.kernel.run(max_cycles=4_000).reason == "max_cycles"
        if restore:
            machine.restore(machine.checkpoint())
        run_to_halt(machine)
        metrics = machine.snapshot()["obs"]["metrics"]
        return (machine.pipeline.cycle,
                metrics["pipeline.mispredict_events"]["value"],
                metrics["bus.cpu_wait"]["count"])

    assert counts(restore=True) == counts(restore=False)
