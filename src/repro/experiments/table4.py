"""Table 4: framework and ICM overhead; CHECK I-cache pressure.

Three machine configurations per benchmark (Section 5):

1. **Baseline** — no RSE; memory timing 18 cycles first chunk / 2 per
   chunk.
2. **Framework** — the RSE attached but no modules instantiated; the
   only effect is the memory arbiter (19/3 timing).
3. **Framework + ICM** — the ICM instantiated and "the benchmark is
   instrumented to check all control-flow instructions" (runtime CHECK
   insertion).

Plus the cache-overhead experiment: the baseline machine running the
NOP-rewritten binary, reporting il1/il2 accesses and miss rates with and
without the CHECK(=NOP) footprint.
"""

from repro.analysis.stats import RunRecord, overhead_pct
from repro.analysis.tables import format_table
from repro.memory.hierarchy import CacheConfig
from repro.program.layout import MemoryLayout
from repro.rse.modules.icm import arm_icm
from repro.system import build_machine
from repro.workloads import kmeans, vpr_place, vpr_route
from repro.workloads.asmlib import build_workload_image, \
    insert_nops_before_control

#: Cache geometry for the Table 4 runs, scaled 1/16 from Figure 1.
#:
#: Rationale: the paper's workloads run tens of millions of cycles over
#: working sets far larger than its 8 KB / 64 KB / 128 KB caches, so its
#: simulations have *sustained* L2-to-memory traffic — which is exactly
#: what the framework's arbiter perturbs.  A pure-Python cycle simulator
#: forces workloads scaled down by ~100x; scaling the cache hierarchy by
#: 1/16 restores the paper's miss behaviour (working set vs capacity) so
#: the framework-overhead experiment measures the same phenomenon.  The
#: library default (``default_cache_configs``) remains the Figure 1
#: geometry.
def scaled_cache_configs():
    # il1 is scaled harder (1/64) than the rest (1/16) because our
    # workload *code* footprints shrink more than their data footprints
    # relative to the SPEC originals; this preserves the paper's
    # code-to-il1 ratio and with it the Table 4 il1 miss-rate regime.
    return {
        "il1": CacheConfig("il1", 128, 1),
        "dl1": CacheConfig("dl1", 512, 1),
        "il2": CacheConfig("il2", 4 * 1024, 2),
        "dl2": CacheConfig("dl2", 8 * 1024, 2),
    }


def workload_sources(quick=False):
    """Assembly sources for the three Table 4 benchmarks.

    The full configuration is scaled for a pure-Python cycle simulator
    (the paper itself scaled kMeans down for simulation time); ``quick``
    shrinks further for the test suite.
    """
    if quick:
        return {
            "vpr-place": vpr_place.source(cells=24, nets=36, moves=200),
            "vpr-route": vpr_route.source(12, 12, routes=4),
            "kmeans": kmeans.source(pattern_count=40, clusters=4,
                                    iterations=1),
        }
    return {
        # Working sets sized to exceed the scaled dl2 (8 KB), as the
        # paper's full-size inputs exceed its 128 KB dl2.
        "vpr-place": vpr_place.source(cells=512, nets=768, moves=1500,
                                      grid=64),
        "vpr-route": vpr_route.source(36, 36, routes=18),
        "kmeans": kmeans.source(pattern_count=1600, clusters=16,
                                iterations=1),
    }


def _load_bare(machine, source):
    image, asm = build_workload_image(source, MemoryLayout())
    machine.kernel.load_process(image)
    return image, asm


def run_baseline(source, max_cycles=20_000_000):
    machine = build_machine(cache_configs=scaled_cache_configs())
    _load_bare(machine, source)
    result = machine.kernel.run(max_cycles=max_cycles)
    assert result.reason == "halt", result
    return RunRecord.from_machine("baseline", machine)


def run_framework(source, max_cycles=20_000_000):
    """RSE attached, no modules instantiated (arbiter effect only)."""
    machine = build_machine(with_rse=True,
                            cache_configs=scaled_cache_configs())
    _load_bare(machine, source)
    result = machine.kernel.run(max_cycles=max_cycles)
    assert result.reason == "halt", result
    return RunRecord.from_machine("framework", machine)


def run_framework_icm(source, max_cycles=40_000_000):
    """RSE + ICM checking every control-flow instruction."""
    machine = build_machine(with_rse=True, modules=("icm",),
                            cache_configs=scaled_cache_configs())
    image, asm = _load_bare(machine, source)
    text = image.segment(".text")
    arm_icm(machine, text.base, len(text.data))
    result = machine.kernel.run(max_cycles=max_cycles)
    assert result.reason == "halt", result
    record = RunRecord.from_machine("framework+icm", machine)
    icm_doc = record.snapshot["rse"]["modules"]["ICM"]
    record.extra.update(
        icm_hit_rate=icm_doc["cache_hit_rate"],
        icm_checks=icm_doc["checks_completed"],
        check_wait_cycles=record.pipeline_stats["check_wait_cycles"],
    )
    return record


def run_with_check_nops(source, max_cycles=20_000_000):
    """Baseline machine, NOP-rewritten binary (cache-pressure method)."""
    machine = build_machine(cache_configs=scaled_cache_configs())
    _load_bare(machine, insert_nops_before_control(source))
    result = machine.kernel.run(max_cycles=max_cycles)
    assert result.reason == "halt", result
    return RunRecord.from_machine("with-checks", machine)


def run_table4(quick=False):
    """Run every configuration; returns ``{benchmark: {config: record}}``."""
    results = {}
    for name, source in workload_sources(quick).items():
        results[name] = {
            "baseline": run_baseline(source),
            "framework": run_framework(source),
            "framework+icm": run_framework_icm(source),
            "with-checks": run_with_check_nops(source),
        }
    return results


def format_table4(results):
    """Render the paper-shaped Table 4 from :func:`run_table4` output."""
    names = list(results)
    M = 1e6

    def row(label, getter, fmt="%.4f"):
        return [label] + [fmt % getter(results[name]) for name in names]

    rows = [
        row("Baseline cycles (M)", lambda r: r["baseline"].cycles / M),
        row("Framework cycles (M)", lambda r: r["framework"].cycles / M),
        row("Framework+ICM cycles (M)",
            lambda r: r["framework+icm"].cycles / M),
        row("Framework %% overhead",
            lambda r: overhead_pct(r["baseline"].cycles,
                                   r["framework"].cycles), "%.2f%%"),
        row("Framework+ICM %% overhead",
            lambda r: overhead_pct(r["baseline"].cycles,
                                   r["framework+icm"].cycles), "%.2f%%"),
        row("#il1 accesses (M), baseline",
            lambda r: r["baseline"].cache("il1", "accesses") / M),
        row("#il1 accesses (M), with CHECKs",
            lambda r: r["with-checks"].cache("il1", "accesses") / M),
        row("il1 miss rate, baseline",
            lambda r: 100 * r["baseline"].cache("il1", "miss_rate"), "%.2f%%"),
        row("il1 miss rate, with CHECKs",
            lambda r: 100 * r["with-checks"].cache("il1", "miss_rate"),
            "%.2f%%"),
        row("#il2 accesses (K), baseline",
            lambda r: r["baseline"].cache("il2", "accesses") / 1e3),
        row("#il2 accesses (K), with CHECKs",
            lambda r: r["with-checks"].cache("il2", "accesses") / 1e3),
        row("il2 miss rate, baseline",
            lambda r: 100 * r["baseline"].cache("il2", "miss_rate"), "%.2f%%"),
        row("il2 miss rate, with CHECKs",
            lambda r: 100 * r["with-checks"].cache("il2", "miss_rate"),
            "%.2f%%"),
    ]
    return format_table(["Metric"] + names, rows,
                        title="Table 4: Framework Evaluation Results")


def average_overheads(results):
    """(avg framework %, avg framework+ICM %) across benchmarks."""
    framework = [overhead_pct(r["baseline"].cycles, r["framework"].cycles)
                 for r in results.values()]
    icm = [overhead_pct(r["baseline"].cycles, r["framework+icm"].cycles)
           for r in results.values()]
    return (sum(framework) / len(framework), sum(icm) / len(icm))
