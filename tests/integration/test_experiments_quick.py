"""Quick-mode smoke of every experiment harness (full runs live in
``benchmarks/``)."""

from repro.analysis.stats import overhead_pct
from repro.experiments import ablations, fig9, table4, table5


def test_table4_quick():
    results = table4.run_table4(quick=True)
    assert set(results) == {"vpr-place", "vpr-route", "kmeans"}
    for configs in results.values():
        base = configs["baseline"].cycles
        assert configs["framework"].cycles > base
        assert configs["framework+icm"].cycles > configs["framework"].cycles
        assert (configs["with-checks"].cache("il1", "accesses") >
                configs["baseline"].cache("il1", "accesses"))
    text = table4.format_table4(results)
    assert "vpr-place" in text
    fw_avg, icm_avg = table4.average_overheads(results)
    assert 0 < fw_avg < icm_avg


def test_table5_quick():
    results = table5.run_table5(quick=True)
    for entries, (trr, rse) in results.items():
        assert rse.cycles < trr.cycles, entries
    sizes = sorted(results)
    rse_instr = {results[s][1].instret for s in sizes}
    assert len(rse_instr) == 1          # constant instruction count
    assert "Table 5" in table5.format_table5(results)


def test_pi_rand_penalty_is_fixed():
    first = table5.measure_pi_rand_penalty()
    second = table5.measure_pi_rand_penalty()
    assert first == second          # a fixed penalty, as the paper says
    assert 20 <= first <= 200


def test_fig9_quick():
    results = fig9.run_fig9(quick=True)
    threads = sorted(results)
    plain = [results[t][0].cycles for t in threads]
    assert plain[-1] < plain[0]          # threads help
    ddt = [results[t][1] for t in threads]
    assert ddt[-1].saved_pages > ddt[0].saved_pages
    for t in threads:
        assert overhead_pct(results[t][0].cycles,
                            results[t][1].cycles) >= 0
    assert "Figure 9" in fig9.format_fig9(results)


def test_arbiter_ablation_quick():
    results = ablations.run_arbiter_placement(quick=True)
    assert results["memory_path"] > results["baseline"]
    assert results["l1_path"] > results["memory_path"]


def test_icm_cache_ablation_quick():
    results = ablations.run_icm_cache_sweep(sizes=(16, 256), quick=True)
    assert results[256]["hit_rate"] >= results[16]["hit_rate"]


def test_icm_checking_is_architecturally_transparent():
    """CHECK insertion must never change program results — only timing."""
    from repro.workloads import kmeans

    source = kmeans.source(pattern_count=30, clusters=4, iterations=1)
    baseline = table4.run_baseline(source)
    checked = table4.run_framework_icm(source)
    # Same retired instruction stream (CHECKs are counted separately).
    assert checked.instret == baseline.instret
    assert checked.pipeline_stats["committed_checks"] > 0

    # And byte-identical results: compare the assignment array.
    from repro.program.layout import MemoryLayout
    from repro.system import build_machine
    from repro.workloads.asmlib import build_workload_image

    outputs = []
    for with_icm in (False, True):
        machine = build_machine(
            with_rse=with_icm, modules=("icm",) if with_icm else ())
        image, asm = build_workload_image(source, MemoryLayout())
        machine.kernel.load_process(image)
        if with_icm:
            from repro.rse.modules.icm import arm_icm

            text = image.segment(".text")
            arm_icm(machine, text.base, len(text.data))
        result = machine.kernel.run(max_cycles=40_000_000)
        assert result.reason == "halt"
        outputs.append(machine.memory.load_bytes(asm.symbols["assign"],
                                                 30 * 4))
    assert outputs[0] == outputs[1]
