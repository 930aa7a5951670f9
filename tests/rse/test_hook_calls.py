"""The pipeline calls an RSE hook for every instruction only while
something reads it.

The hooks are wrapped on the ``RSE`` class, as perfbench's traced mode
wraps them, which must not count as a reader.  Without a reader the
framework machine calls the per-instruction hooks for CHECKs only (or
never), the ICM asks Fetch_Out only for each CHECK's successor, and an
obs probe or assertion monitor that shadows a hook makes it fire for
every instruction from its attach to its detach.  Either way the
probe's metrics and trace and the monitor's events for a run slice do
not depend on when they attached.
"""

import pytest

from repro.assertions.monitor import AssertionMonitor
from repro.experiments import table4
from repro.program.layout import MemoryLayout
from repro.rse.engine import RSE
from repro.rse.modules.icm import arm_icm
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

SOURCE = table4.workload_sources(quick=True)["kmeans"]

HOOKS = ("on_dispatch", "on_operands", "on_execute", "on_mem_load",
         "on_commit", "on_squash")


@pytest.fixture
def calls(monkeypatch):
    """Every call of the wrapped hooks, in order, as ``(hook, uop)``
    (``on_squash`` logs its list of uops)."""
    log = []
    for hook in HOOKS:
        original = getattr(RSE, hook)

        def wrapper(self, uop, *args, _hook=hook, _original=original):
            log.append((_hook, uop))
            return _original(self, uop, *args)

        monkeypatch.setattr(RSE, hook, wrapper)
    return log


def kmeans_machine(icm):
    """The quick Table 4 kmeans cell's machine, loaded but not run."""
    machine = build_machine(with_rse=True, modules=("icm",) if icm else (),
                            cache_configs=table4.scaled_cache_configs())
    image, __ = build_workload_image(SOURCE, MemoryLayout())
    machine.kernel.load_process(image)
    if icm:
        text = image.segment(".text")
        arm_icm(machine, text.base, len(text.data))
    return machine


def by_hook(log):
    found = {hook: [] for hook in HOOKS}
    for hook, uop in log:
        found[hook].append(uop)
    return found


def pushed(machine, queue):
    return machine.snapshot()["rse"]["queues"][queue]["pushed"]


def test_wrapping_the_class_adds_no_reader(calls):
    machine = kmeans_machine(icm=False)
    assert machine.rse.reads == frozenset()


def test_framework_calls_hooks_only_for_checks(calls):
    table4.run_framework(SOURCE)
    found = by_hook(calls)
    assert found["on_execute"] == [] and found["on_mem_load"] == []
    for hook in ("on_dispatch", "on_operands", "on_commit"):
        assert all(uop.instr.is_check for uop in found[hook]), hook
    assert found["on_squash"]          # squash batches still arrive


def test_icm_reads_only_each_check_successor(calls):
    table4.run_framework_icm(SOURCE)
    found = by_hook(calls)
    assert found["on_execute"] == [] and found["on_mem_load"] == []
    checks = {uop.seq for uop in found["on_dispatch"] if uop.instr.is_check}
    others = [uop for uop in found["on_dispatch"] if not uop.instr.is_check]
    assert checks and others
    assert all(uop.seq - 1 in checks for uop in others)
    for hook in ("on_operands", "on_commit"):
        assert all(uop.instr.is_check for uop in found[hook]), hook


def test_rse_probe_makes_its_hooks_fire_for_every_instruction(calls):
    machine = kmeans_machine(icm=True)

    def run_slice():
        """Run 1,200 cycles; return the dispatch and commit calls made,
        and how many instructions dispatched and committed."""
        dispatched = pushed(machine, "Fetch_Out")
        carried = pushed(machine, "Commit_Out")
        calls.clear()
        assert machine.kernel.run(max_cycles=1_200).reason == "max_cycles"
        found = by_hook(calls)
        committed = (pushed(machine, "Commit_Out") - carried
                     - len(found["on_squash"]))
        return (found["on_dispatch"], found["on_commit"],
                pushed(machine, "Fetch_Out") - dispatched, committed)

    def only_checks_and_successors(dispatch, commit):
        checks = [uop for uop in dispatch if uop.instr.is_check]
        others = [uop for uop in dispatch if not uop.instr.is_check]
        assert checks and others
        # A successor's CHECK may have dispatched in the slice before.
        assert len(others) <= len(checks) + 1
        assert all(uop.instr.is_check for uop in commit)

    dispatch, commit, dispatched, committed = run_slice()
    only_checks_and_successors(dispatch, commit)
    assert len(dispatch) < dispatched and len(commit) < committed
    machine.obs.attach("rse")
    dispatch, commit, dispatched, committed = run_slice()
    assert len(dispatch) == dispatched > 0
    assert len(commit) == committed > 0
    machine.obs.detach("rse")
    dispatch, commit, dispatched, committed = run_slice()
    only_checks_and_successors(dispatch, commit)
    assert len(dispatch) < dispatched and len(commit) < committed


@pytest.fixture
def events(monkeypatch):
    """How often each assertion event reaches a checker."""
    counts = {}
    original = AssertionMonitor.handlers

    def handlers(self, event):
        def counted(handler):
            def call(*args):
                counts[event] = counts.get(event, 0) + 1
                return handler(*args)
            return call
        return tuple(counted(handler) for handler in original(self, event))

    monkeypatch.setattr(AssertionMonitor, "handlers", handlers)
    return counts


def test_second_slice_is_observed_the_same_whenever_readers_attach(
        events):
    def observed(early):
        machine = kmeans_machine(icm=True)
        if early:
            machine.obs.attach("rse")
            monitor = machine.assertions.attach()
        assert machine.kernel.run(max_cycles=1_500).reason == "max_cycles"
        if early:
            machine.obs.reset()
        else:
            machine.obs.attach("rse")
            monitor = machine.assertions.attach()
        events.clear()
        assert machine.kernel.run(max_cycles=2_000).reason == "max_cycles"
        return {"obs": machine.obs.snapshot(),
                "trace": machine.obs.tracer.events(),
                "events": dict(events),
                "monitor": monitor.snapshot(),
                "rse": machine.snapshot()["rse"]}

    early, late = observed(True), observed(False)
    assert early["events"]["retire"] > 1_000
    assert early["events"]["ioq_alloc"] and early["events"]["ioq_gate"]
    assert early["trace"] and early["obs"]["metrics"]
    assert early == late


@pytest.mark.parametrize("detach_order", ["reverse", "attach"])
@pytest.mark.parametrize("attach_order", ["probe-first", "monitor-first"])
def test_probe_and_monitor_shadows_come_off_in_reverse_order(
        events, attach_order, detach_order):
    """The obs RSE probe and the assertion hub shadow ``on_commit``
    through one chaining shadow set: either may attach first, detaching
    in reverse order leaves the RSE bare, and detaching the one
    underneath first raises and leaves both attached and observing."""
    machine = kmeans_machine(icm=True)
    rse = machine.rse
    bare = set(vars(rse))
    observers = {
        "probe": (lambda: machine.obs.attach("rse"), machine.obs.detach),
        "monitor": (machine.assertions.attach, machine.assertions.detach)}
    order = (["probe", "monitor"] if attach_order == "probe-first"
             else ["monitor", "probe"])
    for name in order:
        observers[name][0]()

    def observed():
        """Dispatches the probe saw and retirements the monitor saw in
        the next run slice."""
        def dispatches():
            metrics = machine.obs.metrics.snapshot()
            return metrics["rse.ioq_occupancy"]["count"]

        before = dispatches()
        events.clear()
        assert machine.kernel.run(max_cycles=600).reason == "max_cycles"
        return dispatches() - before, events.get("retire", 0)

    assert min(observed()) > 0
    if detach_order == "attach":
        with pytest.raises(RuntimeError, match="shadowed over"):
            observers[order[0]][1]()
        assert machine.obs.attached() == ["rse"]
        assert machine.assertions.is_attached()
        assert min(observed()) > 0
    for name in reversed(order):
        observers[name][1]()
    assert set(vars(rse)) == bare
    assert not {"checkpoint", "restore"} & set(vars(machine))
    assert rse.reads == {"successor"}
