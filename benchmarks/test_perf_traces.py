"""Trace-JIT throughput gate: jit vs predecode, batch vs step.

Measures steady-state throughput of the superblock trace JIT
(``repro.isa.traces``) against the predecode baseline on the Table 4
workloads, and the pipeline's batch fast-path against the
one-``step()``-per-cycle reference loop on kMeans (driven through a
shadowed ``step``, as :meth:`Pipeline.run` takes it), writing the
records to ``benchmarks/results/BENCH_traces.json``.

Unlike ``test_perf_interp.py`` these ARE thresholded: each ratio
compares the same process against itself, so it survives a noisy
shared CI runner (the same argument ``test_perf_campaign.py`` makes
for the fork speedup).  Absolute instrs/sec are recorded, not
asserted.

Steady state means warm caches: the predecode and trace caches are
shared per ``MainMemory`` (``cache_for`` / ``traces_for``), so one
warm-up run compiles every hot trace and the measured runs see the
amortised cost — the regime every long campaign, experiment rerun and
fuzz batch actually runs in.  ``PERF_TRACES_QUICK=1`` shrinks the
workloads to a CI-sized budget.
"""

import json
import os
import subprocess
import time

import pytest

from conftest import RESULTS_DIR
from repro.experiments import table4
from repro.funcsim import FuncSim, StepResult
from repro.isa.assembler import assemble
from repro.memory.mainmem import MainMemory
from repro.memory.bus import BASELINE_TIMING
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import Pipeline

QUICK = os.environ.get("PERF_TRACES_QUICK") == "1"
SOURCES = table4.workload_sources(quick=QUICK)
WORKLOADS = ["kmeans", "vpr-place", "vpr-route"]
JIT_SPEEDUP_FLOOR = 2.0
BATCH_SPEEDUP_FLOOR = 1.3
RECORDS = []


def commit_hash():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            text=True).strip()
    except Exception:
        return "unknown"


COMMIT = commit_hash()


def loaded_memory(source):
    asm = assemble(source)
    mem = MainMemory()
    mem.store_bytes(asm.text_base, asm.text)
    mem.store_bytes(asm.data_base, asm.data)
    return asm, mem


def record(engine, workload, **fields):
    entry = {"engine": engine, "workload": workload, "commit": COMMIT,
             "quick": QUICK}
    entry.update(fields)
    RECORDS.append(entry)
    return entry


def funcsim_rate(workload, jit, rounds=2):
    """Best instrs/sec over *rounds* warm-cache runs of *workload*."""
    asm, mem = loaded_memory(SOURCES[workload])
    warm = FuncSim(mem, entry=asm.entry, sp=0x7FFF0000, jit_enabled=jit)
    assert warm.run(50_000_000) is StepResult.HALTED
    golden = warm.instret
    best = 0.0
    for __ in range(rounds):
        # Restore the data segment the previous run dirtied; text pages
        # are untouched, so the shared predecode/trace caches stay warm.
        mem.store_bytes(asm.data_base, asm.data)
        sim = FuncSim(mem, entry=asm.entry, sp=0x7FFF0000, jit_enabled=jit)
        start = time.perf_counter()
        result = sim.run(50_000_000)
        elapsed = time.perf_counter() - start
        assert result is StepResult.HALTED
        assert sim.instret == golden
        best = max(best, sim.instret / elapsed)
    return golden, best


def pipeline_rate(workload, batch, rounds=2):
    """Best cycles/sec over *rounds* fresh pipeline runs of *workload*;
    without *batch* a shadowed ``step`` makes ``run`` take one
    ``step()`` per cycle."""
    best = 0.0
    cycles = 0
    for __ in range(rounds):
        asm, mem = loaded_memory(SOURCES[workload])
        pipeline = Pipeline(mem, MemoryHierarchy(BASELINE_TIMING))
        if not batch:
            step = pipeline.step
            pipeline.step = lambda: step()
        pipeline.reset_at(asm.entry)
        pipeline.regs[29] = 0x7FFF0000
        start = time.perf_counter()
        event = pipeline.run(max_cycles=50_000_000)
        elapsed = time.perf_counter() - start
        assert event.kind.value == "halt"
        cycles = pipeline.cycle
        best = max(best, pipeline.cycle / elapsed)
    return cycles, best


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jit_speedup(benchmark, workload):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    instrs, base = funcsim_rate(workload, jit=False)
    __, jitted = funcsim_rate(workload, jit=True)
    speedup = jitted / base
    record("funcsim", workload, instrs=instrs,
           instrs_per_sec=round(base))
    record("funcsim-jit", workload, instrs=instrs,
           instrs_per_sec=round(jitted), speedup=round(speedup, 2))
    assert speedup >= JIT_SPEEDUP_FLOOR, (
        "trace JIT only %.2fx over predecode on %s (floor %.1fx)"
        % (speedup, workload, JIT_SPEEDUP_FLOOR))


def test_pipeline_batch_speedup(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cycles, step_rate = pipeline_rate("kmeans", batch=False)
    __, batch_rate = pipeline_rate("kmeans", batch=True)
    speedup = batch_rate / step_rate
    record("pipeline", "kmeans", cycles=cycles,
           cycles_per_sec=round(step_rate))
    record("pipeline-batch", "kmeans", cycles=cycles,
           cycles_per_sec=round(batch_rate), speedup=round(speedup, 2))
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        "batch fast-path only %.2fx over the step loop (floor %.1fx)"
        % (speedup, BATCH_SPEEDUP_FLOOR))


def test_z_write_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert RECORDS, "no throughput records collected"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_traces.json")
    with open(path, "w") as handle:
        json.dump(RECORDS, handle, indent=2)
    print("\nwrote %s" % path)
    for entry in RECORDS:
        print(entry)
