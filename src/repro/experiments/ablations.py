"""Ablations of design choices the paper argues for in Table 3 / Section 4.

1. **Arbiter placement** — Table 3's rationale: putting the RSE memory
   arbiter on the hot L1<->CPU path would be "very prominent (Amdahl's
   law)"; on the L2<->memory path it is cheap.  We simulate both.
2. **ICM cache size** — Section 5.2 simulates a 256-entry Icm_Cache; the
   sweep shows how hit rate and check-stall cycles move with size.
3. **DDT logging lag** — Section 4.2.1 notes the module "may lag behind
   the pipeline by at most 1 cycle" and can miss a dependency that
   arrives inside the window; the ablation quantifies the miss rate.
"""

from repro.analysis.stats import RunRecord, overhead_pct
from repro.analysis.tables import format_table
from repro.kernel.kernel import KernelConfig
from repro.memory.bus import BASELINE_TIMING, FRAMEWORK_TIMING
from repro.program.layout import MemoryLayout
from repro.rse.check import MODULE_DDT
from repro.rse.modules.ddt import DDT
from repro.rse.modules.icm import ICM, arm_icm
from repro.system import build_machine
from repro.weak import weak_method
from repro.workloads.asmlib import build_workload_image


# ------------------------------------------------------ arbiter placement

def run_arbiter_placement(quick=False):
    """Cycles for: no arbiter, arbiter on the memory path, arbiter on L1.

    Each design point runs a short warm-up, then
    :meth:`~repro.system.Machine.reset_stats` zeroes every counter so
    the reported cycles measure the steady state all three share, not
    the identical cold-cache transient.

    Returns ``{"baseline": c0, "memory_path": c1, "l1_path": c2}``.
    """
    from repro.experiments.table4 import scaled_cache_configs, \
        workload_sources

    source = workload_sources(quick)["vpr-place"]
    warmup = 4_000 if quick else 100_000

    def run(timing, l1_extra):
        machine = build_machine(bus_timing=timing,
                                cache_configs=scaled_cache_configs())
        machine.hierarchy.l1_latency += l1_extra
        image, __ = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        warm = machine.kernel.run(max_cycles=warmup)
        assert warm.reason == "max_cycles", warm
        machine.reset_stats()
        result = machine.kernel.run(max_cycles=40_000_000)
        assert result.reason == "halt", result
        return result.snapshot["pipeline"]["cycles"]

    return {
        "baseline": run(BASELINE_TIMING, 0),
        "memory_path": run(FRAMEWORK_TIMING, 0),     # the paper's choice
        "l1_path": run(BASELINE_TIMING, 1),          # the rejected design
    }


def format_arbiter_placement(results):
    base = results["baseline"]
    rows = [
        ["no arbiter (baseline)", base, "-"],
        ["arbiter on L2<->memory path (paper)", results["memory_path"],
         "%.2f%%" % overhead_pct(base, results["memory_path"])],
        ["arbiter on L1<->CPU path (rejected)", results["l1_path"],
         "%.2f%%" % overhead_pct(base, results["l1_path"])],
    ]
    return format_table(["Design point", "Cycles", "Overhead"], rows,
                        title="Ablation: RSE memory-arbiter placement")


# --------------------------------------------------------- ICM cache size

def _icm_stress_source(sites, sweeps):
    """A workload with *sites* distinct checked branch PCs.

    Loop-heavy benchmarks have only a handful of control-flow sites, all
    of which fit even a tiny Icm_Cache; exercising capacity needs a
    large static branch footprint swept repeatedly (LRU thrashes below
    capacity and saturates above it).
    """
    lines = ["main:", "    li $s0, %d" % sweeps, "sweep:", "    li $t0, 1"]
    for index in range(sites):
        lines.append("    beqz $t0, site%d" % index)          # never taken
        lines.append("site%d:" % index)
        lines.append("    addi $t1, $t1, 1")
    lines += ["    addi $s0, $s0, -1", "    bnez $s0, sweep", "    halt"]
    return "\n".join(lines)


def run_icm_cache_sweep(sizes=(32, 64, 128, 256, 512), quick=False,
                        sites=384, sweeps=25):
    """Per-size: cycles, Icm_Cache hit rate, commit stalls on CHECKs."""
    if quick:
        sites, sweeps = 96, 6
    source = _icm_stress_source(sites, sweeps)
    rows = {}
    for size in sizes:
        machine = build_machine(with_rse=True)
        machine.rse.attach(ICM(cache_entries=size))
        image, __ = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        text = image.segment(".text")
        arm_icm(machine, text.base, len(text.data))
        result = machine.kernel.run(max_cycles=60_000_000)
        assert result.reason == "halt", result
        doc = result.snapshot
        rows[size] = {
            "cycles": doc["pipeline"]["cycles"],
            "hit_rate": doc["rse"]["modules"]["ICM"]["cache_hit_rate"],
            "check_wait_cycles": doc["pipeline"]["check_wait_cycles"],
        }
    return rows


def format_icm_cache_sweep(results):
    rows = [[size, data["cycles"], "%.1f%%" % (100 * data["hit_rate"]),
             data["check_wait_cycles"]]
            for size, data in sorted(results.items())]
    return format_table(
        ["Icm_Cache entries", "Cycles", "Hit rate", "Check-stall cycles"],
        rows, title="Ablation: ICM cache size")


# ------------------------------------------------------------ DDT lag

#: Worst-case stress for the 1-cycle logging window: PRODUCERS threads
#: each write one private page; a consumer then reads all those pages in
#: a straight unrolled burst, so dependency-creating loads commit in
#: adjacent cycles — exactly the case where the lagging module "fails to
#: log the dependency due to this instruction".
_LAG_PRODUCERS = 6

_LAG_STRESS = """
.data
.align 12
{page_decls}
ready: .space 4096

.text
main:
{spawns}
    li $s0, {producers} + 2          # settle turns before consuming
settle:
    li $v0, SYS_YIELD
    syscall
    addi $s0, $s0, -1
    bnez $s0, settle
    # consume: back-to-back reads of every producer page
{reads}
    halt

{producer_bodies}
"""


def _lag_source():
    page_decls = "\n".join("page%d: .space 4096" % i
                           for i in range(_LAG_PRODUCERS))
    spawns = "\n".join(
        "    la $a0, producer%d\n    li $v0, SYS_SPAWN\n    syscall" % i
        for i in range(_LAG_PRODUCERS))
    reads = "\n".join(
        "    la $t%d, page%d\n    lw $t%d, 0($t%d)" % (i % 8, i, i % 8, i % 8)
        for i in range(_LAG_PRODUCERS))
    bodies = "\n".join("""
producer%d:
    la $t0, page%d
    li $t1, %d
    sw $t1, 0($t0)
    li $v0, SYS_EXIT
    syscall""" % (i, i, i + 1) for i in range(_LAG_PRODUCERS))
    return _LAG_STRESS.format(page_decls=page_decls, spawns=spawns,
                              producers=_LAG_PRODUCERS, reads=reads,
                              producer_bodies=bodies)


def run_ddt_lag():
    """Dependencies logged vs missed when the 1-cycle lag is modelled."""
    out = {}
    for model_lag in (False, True):
        machine = build_machine(
            with_rse=True,
            kernel_config=KernelConfig(quantum_cycles=100_000))
        ddt = machine.rse.attach(DDT(model_lag=model_lag))
        ddt.save_page_handler = weak_method(machine.kernel.checkpoint_page)
        machine.rse.enable_module(MODULE_DDT)
        image, __ = build_workload_image(_lag_source(), MemoryLayout())
        machine.kernel.load_process(image)
        result = machine.kernel.run(max_cycles=20_000_000)
        assert result.reason == "halt", result
        doc = result.snapshot["rse"]["modules"]["DDT"]
        out["lagged" if model_lag else "ideal"] = {
            "logged": doc["dependencies_logged"],
            "missed": doc["dependencies_missed"],
        }
    return out


def format_ddt_lag(results):
    rows = [[name, data["logged"], data["missed"]]
            for name, data in sorted(results.items())]
    return format_table(["DDT model", "Dependencies logged", "Missed"],
                        rows, title="Ablation: DDT 1-cycle logging lag")


# ----------------------------------------------------- ICM coverage scope

def run_icm_coverage(quick=False):
    """Overhead of widening ICM coverage (Section 4.3's three classes).

    The checked instruction "can be a control flow, load/store or a
    critical code section"; checking everything maximises coverage and
    cost.  Returns ``{scope: {"cycles", "checks"}}`` including the
    unprotected baseline.
    """
    from repro.experiments.table4 import scaled_cache_configs
    from repro.rse.modules.icm import cover_all, cover_control, cover_memory
    from repro.workloads import kmeans

    source = kmeans.source(pattern_count=40, clusters=4, iterations=1) \
        if quick else kmeans.source()
    results = {}
    for scope, predicate in (("none", None),
                             ("control-flow", cover_control),
                             ("loads/stores", cover_memory),
                             ("all instructions", cover_all)):
        machine = build_machine(with_rse=True,
                                cache_configs=scaled_cache_configs())
        image, __ = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        checks = 0
        if predicate is not None:
            machine.rse.attach(ICM())
            text = image.segment(".text")
            arm_icm(machine, text.base, len(text.data), predicate=predicate)
        result = machine.kernel.run(max_cycles=100_000_000)
        assert result.reason == "halt", result
        doc = result.snapshot
        if predicate is not None:
            checks = doc["rse"]["modules"]["ICM"]["checks_completed"]
        results[scope] = {"cycles": doc["pipeline"]["cycles"],
                          "checks": checks}
    return results


def format_icm_coverage(results):
    base = results["none"]["cycles"]
    rows = []
    for scope in ("none", "control-flow", "loads/stores",
                  "all instructions"):
        data = results[scope]
        rows.append([scope, data["cycles"],
                     "-" if scope == "none"
                     else "%.2f%%" % overhead_pct(base, data["cycles"]),
                     data["checks"]])
    return format_table(
        ["ICM coverage", "Cycles", "Overhead", "Checks executed"],
        rows, title="Ablation: ICM coverage scope (Section 4.3 classes)")


def run_icm_footprint(site_counts=(96, 192, 320, 512, 768), sweeps=12):
    """Hit rate of the paper's 256-entry Icm_Cache vs branch footprint.

    The complementary view to :func:`run_icm_cache_sweep`: LRU over a
    straight-line sweep is all-or-nothing in cache size, so the
    interesting question is how big a static branch footprint the chosen
    256 entries can absorb.
    """
    results = {}
    for sites in site_counts:
        source = _icm_stress_source(sites, sweeps)
        machine = build_machine(with_rse=True)
        machine.rse.attach(ICM(cache_entries=256))
        image, __ = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        text = image.segment(".text")
        arm_icm(machine, text.base, len(text.data))
        result = machine.kernel.run(max_cycles=100_000_000)
        assert result.reason == "halt", result
        doc = result.snapshot
        results[sites] = {
            "cycles": doc["pipeline"]["cycles"],
            "hit_rate": doc["rse"]["modules"]["ICM"]["cache_hit_rate"],
        }
    return results


def format_icm_footprint(results):
    rows = [[sites, data["cycles"], "%.1f%%" % (100 * data["hit_rate"])]
            for sites, data in sorted(results.items())]
    return format_table(
        ["Checked branch sites", "Cycles", "Icm_Cache hit rate"],
        rows,
        title="Ablation: branch footprint vs the 256-entry Icm_Cache")


# ------------------------------------------------------- branch predictor

def run_predictor_comparison(quick=False):
    """Bimodal (the paper's sim-outorder default) vs gshare front ends.

    CHECK insertion rides the fetch stream, so front-end quality shifts
    both baseline performance and the relative cost of checking.
    Returns ``{predictor: {"cycles", "mispredicts", "accuracy"}}``.
    """
    from repro.experiments.table4 import scaled_cache_configs, \
        workload_sources
    from repro.pipeline.config import PipelineConfig

    source = workload_sources(quick)["vpr-place"]
    results = {}
    for kind in ("bimodal", "gshare"):
        machine = build_machine(
            cache_configs=scaled_cache_configs(),
            pipeline_config=PipelineConfig().copy(predictor=kind))
        image, __ = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        result = machine.kernel.run(max_cycles=100_000_000)
        assert result.reason == "halt", result
        doc = result.snapshot["pipeline"]
        results[kind] = {
            "cycles": doc["cycles"],
            "mispredicts": doc["mispredicts"],
            "accuracy": doc["predictor"]["accuracy"],
        }
    return results


def format_predictor_comparison(results):
    rows = [[kind, data["cycles"], data["mispredicts"],
             "%.1f%%" % (100 * data["accuracy"])]
            for kind, data in sorted(results.items())]
    return format_table(
        ["Predictor", "Cycles", "Mispredicts", "Direction accuracy"],
        rows, title="Ablation: branch predictor (vpr-place)")
