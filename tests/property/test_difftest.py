"""Unit tests for the differential fuzzer itself.

Covers: generator determinism and structural guarantees, oracle
divergence detection with a deliberately broken predecode closure
(correct pc, correct disassembly in the report), the idiom shrinker,
and the resumable runner.
"""

import json

import pytest

import repro.isa.predecode as predecode
from repro.campaign.store import StoreMismatch
from repro.difftest import MODES, fuzz, generate, run_source, shrink
from repro.difftest.runner import derive_seed
from repro.isa.assembler import assemble


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("mode", MODES)
def test_generator_is_deterministic(mode):
    a = generate(1234, mode=mode)
    b = generate(1234, mode=mode)
    assert a.source == b.source


def test_generator_seeds_differ():
    assert generate(1, mode="all").source != generate(2, mode="all").source


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(0, 40, 7))
def test_generated_programs_assemble_and_terminate(mode, seed):
    program = generate(seed, mode=mode)
    assemble(program.source)          # must not raise
    result = run_source(program.source)
    assert not result.limited, "seed %d did not terminate" % seed


def test_any_idiom_subset_assembles():
    program = generate(77, mode="all", size=20)
    for start in range(0, len(program.idioms), 5):
        subset = program.idioms[:start] + program.idioms[start + 5:]
        assemble(program.replace(idioms=subset).source)


def test_mode_gates_special_idioms():
    kinds = {idiom.kind
             for seed in range(30)
             for idiom in generate(seed, mode="basic").idioms}
    assert "chk" not in kinds and "smc_patch" not in kinds
    kinds = {idiom.kind
             for seed in range(30)
             for idiom in generate(seed, mode="all").idioms}
    assert "chk" in kinds and "smc_patch" in kinds


# ------------------------------------------------------------------- oracle
#
# Satellite: a deliberately broken closure must be caught at the correct
# pc with correct disassembly in the report.  The break is applied to
# the predecode compiler only, so the reference interpreter stays right.

BROKEN_XOR_SOURCE = """
main:
    li $t0, 5
    li $t1, 3
    li $t3, 7
    xor $t2, $t0, $t1      # 6 -- the broken closure produces 7
    beq $t2, $t3, wrong
    li $s0, 111
    halt
wrong:
    li $s0, 222
    halt
"""


@pytest.fixture
def broken_xor_closure(monkeypatch):
    real = predecode._compile_alu

    def broken(pc, instr, next_pc):
        fn = real(pc, instr, next_pc)
        if instr.name != "xor" or not instr.dest:
            return fn
        dest = instr.dest

        def bad(sim):
            nxt = fn(sim)
            sim.regs[dest] |= 1
            return nxt
        return bad

    monkeypatch.setattr(predecode, "_compile_alu", broken)


def test_oracle_catches_broken_closure_at_correct_pc(broken_xor_closure):
    result = run_source(BROKEN_XOR_SOURCE)
    divergence = result.divergence
    assert divergence is not None
    assert divergence.kind == "stream"
    assert divergence.engines == ("interp", "predecode")
    # The paths split right after the beq: the reference falls through
    # to `li $s0, 111` at main+0x14; the broken engine branches away.
    asm = assemble(BROKEN_XOR_SOURCE)
    split_pc = asm.entry + 0x14
    assert divergence.pc == split_pc
    report = divergence.report()
    assert "0x%08x" % split_pc in report
    # The disassembled window marks the split and shows real text.
    assert ">> %08x" % split_pc in report
    assert "addi $s0, $zero, 111" in report
    assert "beq" in report


def test_oracle_passes_when_closures_are_honest():
    assert run_source(BROKEN_XOR_SOURCE).ok


def test_oracle_reports_register_divergence(broken_xor_closure):
    # Without a branch on the poisoned value the streams agree and the
    # divergence surfaces at the register comparison instead.
    source = """
main:
    li $t0, 5
    li $t1, 3
    xor $t2, $t0, $t1
    halt
"""
    divergence = run_source(source).divergence
    assert divergence is not None
    assert divergence.kind == "regs"
    assert "r10" in divergence.detail          # $t2


def test_oracle_divergence_to_dict_roundtrips(broken_xor_closure):
    divergence = run_source(BROKEN_XOR_SOURCE).divergence
    payload = json.loads(json.dumps(divergence.to_dict()))
    assert payload["kind"] == "stream"
    assert payload["engines"] == ["interp", "predecode"]
    assert payload["index"] is not None


# ------------------------------------------------------------------ shrinker

def test_shrinker_minimizes_to_single_idiom(broken_xor_closure):
    # Find a generated program whose xor feeds a visible divergence,
    # then shrink: only idioms keeping the divergence may survive.
    program = None
    for seed in range(200):
        candidate = generate(seed, mode="basic", size=16)
        if any("xor" in line for idiom in candidate.idioms
               for line in idiom.body) \
                and run_source(candidate.source).divergence is not None:
            program = candidate
            break
    assert program is not None, "no diverging program found to shrink"
    result = shrink(program,
                    lambda p: run_source(p.source).divergence)
    assert result.divergence is not None
    assert len(result.program.idioms) < len(program.idioms)
    assert run_source(result.program.source).divergence is not None
    # 1-minimal: dropping any remaining idiom loses the divergence.
    if len(result.program.idioms) > 1:
        for index in range(len(result.program.idioms)):
            subset = (result.program.idioms[:index]
                      + result.program.idioms[index + 1:])
            candidate = result.program.replace(idioms=subset)
            assert run_source(candidate.source).divergence is None


# -------------------------------------------------------------------- runner

def test_fuzz_smoke_is_clean():
    report = fuzz(seed=4321, count=15, mode="all")
    assert report.ok
    assert report.executed == 15
    assert report.limited == 0


def test_fuzz_finds_shrinks_and_persists_divergence(tmp_path,
                                                    broken_xor_closure):
    corpus = tmp_path / "corpus"
    # Hunt a seed window guaranteed to contain xor-using programs.
    report = fuzz(seed=4321, count=15, mode="all",
                  corpus_dir=str(corpus))
    assert not report.ok
    entry = report.divergences[0]
    assert entry["shrunk_source"]
    path = entry["corpus_file"]
    with open(path) as handle:
        text = handle.read()
    assert text.startswith("# difftest repro")
    assert "DIVERGENCE" in text
    # The persisted repro still assembles.
    assemble("\n".join(line for line in text.splitlines()
                       if not line.startswith("#")))


def test_fuzz_store_resumes(tmp_path):
    store = str(tmp_path / "difftest.jsonl")
    first = fuzz(seed=11, count=6, mode="basic", store=store)
    assert first.executed == 6
    second = fuzz(seed=11, count=10, mode="basic", store=store)
    assert second.resumed == 6
    assert second.executed == 4
    with open(store) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert lines[0]["kind"] == "difftest"
    assert len(lines) == 11          # header + one record per program


def test_fuzz_store_rejects_mismatched_run(tmp_path):
    store = str(tmp_path / "difftest.jsonl")
    fuzz(seed=11, count=2, mode="basic", store=store)
    with pytest.raises(StoreMismatch):
        fuzz(seed=12, count=2, mode="basic", store=store)


def test_derived_seeds_are_distinct():
    seeds = {derive_seed(1234, index) for index in range(1000)}
    assert len(seeds) == 1000


# ----------------------------------------------------------- jit engine

HOT_XOR_SOURCE = """
main:
    li $t0, 0
    li $t1, 20
    li $s2, 0
loop:
    xor $s2, $s2, $t0
    addi $t0, $t0, 1
    bne $t0, $t1, loop
    halt
"""


@pytest.fixture
def broken_xor_trace(monkeypatch):
    """Corrupt xor only in the *trace* compiler; closures stay honest."""
    import repro.isa.traces as traces

    real = traces._Emitter._alu_expr

    def broken(self, instr):
        expr = real(self, instr)
        if instr.name == "xor":
            return "((%s) | 1)" % expr
        return expr

    monkeypatch.setattr(traces._Emitter, "_alu_expr", broken)


def test_jit_engine_runs_and_agrees():
    result = run_source(HOT_XOR_SOURCE, jit=True)
    assert result.ok
    assert set(result.runs) == {"interp", "predecode", "jit", "pipeline"}
    jit_run = result.runs["jit"]
    assert jit_run.stop == "halt"
    assert jit_run.stream == result.runs["interp"].stream


def test_oracle_catches_broken_trace_compiler(broken_xor_trace):
    # The predecode closures are untouched, so without the jit engine
    # the oracle is blind to the bug ...
    assert run_source(HOT_XOR_SOURCE).ok
    # ... and with it the divergence names the jit engine.
    divergence = run_source(HOT_XOR_SOURCE, jit=True).divergence
    assert divergence is not None
    assert divergence.engines == ("interp", "jit")


def test_fuzz_jit_smoke_is_clean():
    report = fuzz(seed=4321, count=10, mode="all", jit=True)
    assert report.ok
    assert report.executed == 10
    assert report.to_dict()["jit"] is True


def test_fuzz_store_separates_jit_runs(tmp_path):
    store = str(tmp_path / "difftest.jsonl")
    fuzz(seed=11, count=2, mode="basic", store=store)
    with pytest.raises(StoreMismatch):
        fuzz(seed=11, count=2, mode="basic", store=store, jit=True)
