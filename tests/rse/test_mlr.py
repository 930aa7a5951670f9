"""MLR: position-independent randomization and GOT/PLT relocation."""

import pytest

from repro.checkpoint import MachineCheckpoint
from repro.program.image import plt_entry_target
from repro.program.layout import MLR_RESULT_HEAP, MLR_RESULT_SHLIB, \
    MLR_RESULT_STACK, MemoryLayout
from repro.rse.check import MODULE_MLR
from repro.system import build_machine
from repro.workloads import gotplt


def run_image(image, machine=None, max_cycles=5_000_000):
    machine = machine or build_machine(with_rse=True, modules=("mlr",))
    result = machine.run_program(image, max_cycles=max_cycles)
    return machine, result


def read_words(memory, addr, count):
    return [memory.load_word(addr + 4 * i) for i in range(count)]


@pytest.mark.parametrize("entries", [8, 32])
def test_rse_version_copies_got(entries):
    image, asm = gotplt.rse_version(entries)
    machine, result = run_image(image)
    assert result.reason == "halt"
    old = read_words(machine.memory, asm.symbols["got_old"], entries)
    new = read_words(machine.memory, asm.symbols["got_new"], entries)
    assert old == new
    assert old[0] == MemoryLayout().shlib_base


@pytest.mark.parametrize("entries", [8, 32])
def test_rse_version_rewrites_plt(entries):
    image, asm = gotplt.rse_version(entries)
    machine, result = run_image(image)
    assert result.reason == "halt"
    got_new = asm.symbols["got_new"]
    plt = asm.symbols["plt"]
    for index in range(entries):
        words = read_words(machine.memory, plt + index * 16, 4)
        assert plt_entry_target(words) == got_new + index * 4


def test_software_version_matches_rse_version():
    entries = 16
    sw_image, sw_asm = gotplt.software_version(entries)
    rse_image, rse_asm = gotplt.rse_version(entries)
    sw_machine, sw_result = run_image(sw_image, build_machine())
    rse_machine, rse_result = run_image(rse_image)
    assert sw_result.reason == rse_result.reason == "halt"
    for symbols, machine in ((sw_asm, sw_machine), (rse_asm, rse_machine)):
        got_new = symbols.symbols["got_new"]
        plt = symbols.symbols["plt"]
        for index in range(entries):
            words = read_words(machine.memory, plt + index * 16, 4)
            assert plt_entry_target(words) == got_new + index * 4
    # The final PLT bytes are equal up to the different got_new addresses.
    assert (sw_asm.symbols["got_new"] == rse_asm.symbols["got_new"])
    sw_plt = sw_machine.memory.load_bytes(sw_asm.symbols["plt"], entries * 16)
    rse_plt = rse_machine.memory.load_bytes(rse_asm.symbols["plt"],
                                            entries * 16)
    assert sw_plt == rse_plt


def test_rse_version_is_faster_and_executes_fewer_instructions():
    """The Table 5 claim, at one size point."""
    entries = 256
    sw_image, __ = gotplt.software_version(entries)
    rse_image, __ = gotplt.rse_version(entries)
    sw_machine, sw_result = run_image(sw_image, build_machine())
    rse_machine, rse_result = run_image(rse_image)
    assert sw_result.reason == rse_result.reason == "halt"
    assert rse_machine.pipeline.stats.instret < sw_machine.pipeline.stats.instret
    assert rse_result.cycles < sw_result.cycles


def test_pi_randomization_writes_results():
    image, asm = gotplt.pi_rand_program()
    layout = image.layout
    machine, result = run_image(image)
    assert result.reason == "halt"
    base = layout.header_base
    shlib = machine.memory.load_word(base + MLR_RESULT_SHLIB)
    stack = machine.memory.load_word(base + MLR_RESULT_STACK)
    heap = machine.memory.load_word(base + MLR_RESULT_HEAP)
    assert shlib != layout.shlib_base and shlib % 4096 == 0
    assert stack != layout.stack_top and stack % 4096 == 0
    assert heap != layout.heap_base and heap % 4096 == 0
    assert shlib > layout.shlib_base          # offsets are added
    assert stack < layout.stack_top           # stack moves down
    # The guest read them back into s0..s2.
    assert machine.pipeline.regs[16] == shlib
    assert machine.pipeline.regs[17] == stack
    assert machine.pipeline.regs[18] == heap


def test_pi_randomization_differs_across_runs():
    """Entropy comes from the cycle counter: different timing, different
    layout (run the randomization at two different points in time)."""
    results = []
    for warmup in (0, 977):
        image, __ = gotplt.pi_rand_program()
        machine = build_machine(with_rse=True, modules=("mlr",))
        machine.pipeline.advance_cycles(warmup)
        machine, result = run_image(image, machine)
        assert result.reason == "halt"
        base = image.layout.header_base
        results.append(machine.memory.load_word(base + MLR_RESULT_SHLIB))
    assert results[0] != results[1]


def test_entropy_source_override():
    from repro.rse.modules.mlr import MLR

    machine = build_machine(with_rse=True)
    mlr = machine.rse.attach(MLR(entropy_source=lambda cycle: 0x5000))
    image, __ = gotplt.pi_rand_program()
    machine, result = run_image(image, machine)
    assert result.reason == "halt"
    assert mlr.randomized["shlib"] == image.layout.shlib_base + 0x5000


def test_mlr_stats():
    image, __ = gotplt.rse_version(8)
    machine, result = run_image(image)
    mlr = machine.module(MODULE_MLR)
    assert mlr.operations_done >= 5          # I5, I6, I7, I8, I10
    assert machine.rse.mau.requests_total >= 4


def wire_images_mid_transfer(machine):
    """Run *machine*'s process one cycle at a time; returns a wire image
    captured while each of the MLR's MAU transfers was in flight."""
    name = machine.module(MODULE_MLR).name
    seen = []
    images = []
    while machine.kernel.run_slice(1).reason == "max_cycles":
        active = machine.rse.mau._active
        if (active is not None and active.module_name == name
                and not any(active is request for request in seen)):
            seen.append(active)
            images.append(machine.checkpoint().to_bytes())
    return images


@pytest.mark.parametrize("program", ["table5-loader", "pi-rand"])
def test_checkpoint_restores_mlr_transfer_in_flight(program):
    """Every MLR MAU transfer survives capture, the wire and restore: the
    restored run finishes exactly like the uninterrupted one."""
    if program == "table5-loader":
        entries = 16
        image, asm = gotplt.rse_version(entries)
        regions = [(asm.symbols["got_new"], 4 * entries),
                   (asm.symbols["plt"], 16 * entries)]
        transfers = 4        # GOT load and store, PLT load and store
    else:
        image, __ = gotplt.pi_rand_program()
        regions = [(image.layout.header_base + MLR_RESULT_SHLIB, 12)]
        transfers = 2        # header load, randomized-bases store

    def loaded():
        machine = build_machine(with_rse=True, modules=("mlr",))
        machine.kernel.load_process(image)
        return machine

    def finish(machine):
        result = machine.kernel.run(max_cycles=2_000_000)
        return {"reason": result.reason, "cycles": machine.cycle,
                "regs": list(machine.pipeline.regs),
                "memory": [machine.memory.load_bytes(addr, size)
                           for addr, size in regions],
                "rse": machine.snapshot()["rse"]}

    expected = finish(loaded())
    assert expected["reason"] == "halt"
    images = wire_images_mid_transfer(loaded())
    assert len(images) == transfers
    for payload in images:
        machine = build_machine(with_rse=True, modules=("mlr",))
        machine.restore(MachineCheckpoint.from_bytes(payload))
        assert finish(machine) == expected
