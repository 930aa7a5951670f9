"""CLI smoke tests (in-process via cli.main for speed)."""

import json

import pytest

from repro.cli import main

LOOP_SOURCE = """
    main:
        li $t0, 5
    loop:
        addi $t0, $t0, -1
        bnez $t0, loop
        halt
"""


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "2560 flip-flops" in out and "12800 gates" in out


def test_run_program(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        main:
            li $v0, SYS_PRINT_INT
            li $a0, 99
            syscall
            halt
    """)
    assert main(["run", str(source)]) == 0
    out = capsys.readouterr().out
    assert "run ended: halt" in out
    assert "guest output: 99" in out


@pytest.mark.parametrize("engine", ["interp", "predecode", "jit"])
def test_run_engine_selector(tmp_path, capsys, engine):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    assert main(["run", "--engine", engine, str(source)]) == 0
    out = capsys.readouterr().out
    assert "functional run (%s): halted" % engine in out
    if engine == "jit":
        assert "trace JIT:" in out


def test_run_engine_jit_json_reports_trace_cache(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        main:
            li $t0, 0
            li $t1, 50
        loop:
            addi $t0, $t0, 1
            bne $t0, $t1, loop
            halt
    """)
    assert main(["run", "--engine", "jit", "--json", str(source)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "jit"
    assert payload["trace_cache"]["compiled"] >= 1


def test_run_with_icm(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        main:
            li $t0, 5
        loop:
            addi $t0, $t0, -1
            bnez $t0, loop
            halt
    """)
    assert main(["run", "--icm", str(source)]) == 0
    out = capsys.readouterr().out
    assert "ICM:" in out and "0 mismatches" in out


def test_run_faulting_program_exit_code(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main: li $t0, 1\n div $t1, $t0, $zero\n halt\n")
    assert main(["run", str(source)]) == 1
    assert "fault" in capsys.readouterr().out


def test_attack_commands(capsys):
    assert main(["attack", "run", "--class", "stack-smash",
                 "--config", "none"]) == 0
    assert "outcome: hijacked" in capsys.readouterr().out
    assert main(["attack", "run", "--class", "got-hijack",
                 "--config", "mlr"]) == 0
    assert "outcome: foiled" in capsys.readouterr().out


def test_attack_rejects_bad_combo(capsys):
    assert main(["attack", "run", "--config", "trr+trr"]) == 2
    assert_one_line_error(capsys, "duplicate token in module config")


def test_experiment_quick_table5(capsys):
    assert main(["experiment", "table5", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out and "penalty" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_disasm(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main: li $t0, 1\n loop: j loop\n halt\n")
    assert main(["disasm", str(source)]) == 0
    out = capsys.readouterr().out
    assert "main:" in out and "<loop>" in out


def test_trace(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main: li $t0, 7\n halt\n")
    assert main(["trace", str(source)]) == 0
    out = capsys.readouterr().out
    assert "$t0=0x00000007" in out
    assert "halt" in out


def test_report_collects_results(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "a.txt").write_text("Table A\n1 2 3\n")
    (results / "b.txt").write_text("Table B\n4 5 6\n")
    out_file = tmp_path / "report.md"
    assert main(["report", "--results-dir", str(results),
                 "--output", str(out_file)]) == 0
    report = out_file.read_text()
    assert "Table A" in report and "Table B" in report


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--results-dir", str(tmp_path)]) == 1


# ------------------------------------------------------ unified telemetry


def test_run_stats_json_then_stats(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    stats_file = tmp_path / "snap.json"
    assert main(["run", str(source), "--stats-json", str(stats_file)]) == 0
    capsys.readouterr()

    doc = json.loads(stats_file.read_text())
    assert doc["schema"] == "repro.obs/1"
    assert doc["pipeline"]["instret"] > 0

    assert main(["stats", str(stats_file)]) == 0
    out = capsys.readouterr().out
    assert "pipeline.instret" in out
    assert "memory.il1.accesses" in out


def test_stats_json_round_trip(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    stats_file = tmp_path / "snap.json"
    assert main(["run", str(source), "--stats-json", str(stats_file)]) == 0
    capsys.readouterr()
    assert main(["stats", str(stats_file), "--json"]) == 0
    reread = json.loads(capsys.readouterr().out)
    assert reread == json.loads(stats_file.read_text())


def test_stats_diff(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    bare, icm = tmp_path / "bare.json", tmp_path / "icm.json"
    assert main(["run", str(source), "--stats-json", str(bare)]) == 0
    assert main(["run", "--icm", str(source), "--stats-json", str(icm)]) == 0
    capsys.readouterr()
    assert main(["stats", str(bare), "--diff", str(icm)]) == 0
    out = capsys.readouterr().out
    assert "pipeline.cycles" in out       # ICM run takes more cycles


def test_run_json_carries_snapshot(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    assert main(["run", "--json", str(source)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "machine"
    assert doc["reason"] == "halt"
    assert doc["snapshot"]["schema"] == "repro.obs/1"


def test_run_functional_rejects_stats_json(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main: li $t0, 1\n halt\n")
    assert main(["run", "--engine", "predecode", str(source),
                 "--stats-json", str(tmp_path / "x.json")]) == 2


def test_info_json(capsys):
    assert main(["info", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "pipeline_config" in doc and "mlr_hardware_cost" in doc


def test_campaign_store_round_trips_through_stats(tmp_path, capsys):
    store = tmp_path / "campaign.jsonl"
    assert main(["campaign", "--injections", "4", "--max-cycles", "20000",
                 "--store", str(store), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 4
    assert summary["detection"]["detected"] == 4

    assert main(["stats", str(store)]) == 0
    assert "campaign" in capsys.readouterr().out.lower()

    assert main(["stats", str(store), "--json"]) == 0
    reread = json.loads(capsys.readouterr().out)
    assert reread["runs"] == 4
    assert reread["outcomes"] == summary["outcomes"]
    assert reread["spec"]["injections"] == 4


def test_campaign_run_subcommand_and_bare_spelling_agree(tmp_path, capsys):
    """``repro campaign <flags>`` still means ``campaign run <flags>``."""
    args = ["--model", "reg-flip", "--injections", "4",
            "--max-cycles", "20000", "--json"]
    assert main(["campaign"] + args) == 0
    bare = json.loads(capsys.readouterr().out)
    assert main(["campaign", "run"] + args) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert bare == explicit
    assert explicit["options"]["workers"] == 1


def test_campaign_sharded_run_and_serve(tmp_path, capsys):
    store = tmp_path / "camp.jsonl"
    assert main(["campaign", "run", "--model", "reg-flip",
                 "--injections", "6", "--max-cycles", "20000",
                 "--shards", "2", "--store", str(store), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 6
    assert summary["options"]["shards"] == 2

    out_path = tmp_path / "final.json"
    assert main(["campaign", "serve", str(store), "--json",
                 "--out", str(out_path)]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["schema"] == "repro.campaign.aggregate/1"
    assert snapshot["done"] == 6
    assert snapshot["complete"] is True
    assert "ci" in snapshot["matrix"]["detection"]
    assert json.loads(out_path.read_text()) == snapshot

    # Text mode prints the final campaign report once complete.
    assert main(["campaign", "serve", str(store)]) == 0
    out = capsys.readouterr().out
    assert "detection rate:" in out


def test_campaign_serve_watch_completes(tmp_path, capsys):
    store = tmp_path / "camp.jsonl"
    assert main(["campaign", "run", "--model", "reg-flip",
                 "--injections", "4", "--max-cycles", "20000",
                 "--store", str(store), "--json"]) == 0
    capsys.readouterr()
    # The stores are already complete, so --watch returns immediately.
    assert main(["campaign", "serve", str(store), "--watch",
                 "--interval", "0.1", "--timeout", "10", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["complete"] is True


def test_campaign_serve_incomplete_exits_nonzero(tmp_path, capsys):
    store = tmp_path / "camp.jsonl"
    assert main(["campaign", "run", "--model", "reg-flip",
                 "--injections", "4", "--max-cycles", "20000",
                 "--store", str(store), "--json"]) == 0
    capsys.readouterr()
    assert main(["campaign", "serve", str(store),
                 "--expect", "9"]) == 1
    assert "incomplete" in capsys.readouterr().out


def test_stats_rejects_unrecognised_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("not json at all\n")
    assert main(["stats", str(bogus)]) == 2
    assert_one_line_error(capsys, "unrecognized stats file", "bogus.txt")


# ------------------------------------------------------------ error boundary

def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repro: error: "), err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, err


def test_missing_input_file_is_one_line_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.s")
    assert main(["run", missing]) == 2
    assert_one_line_error(capsys, "missing.s")
    assert main(["stats", missing]) == 2
    assert_one_line_error(capsys, "missing.s")


@pytest.mark.parametrize("engine", ["interp", "predecode", "jit"])
def test_icm_on_a_functional_engine_is_one_line_error(tmp_path, capsys,
                                                       engine):
    # The ICM lives in the RSE, which only the pipeline has.
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    assert main(["run", "--engine", engine, "--icm", str(source)]) == 2
    assert_one_line_error(capsys, "--icm needs the full machine")


def test_malformed_program_is_one_line_error(tmp_path, capsys):
    source = tmp_path / "bad.s"
    source.write_text("main:\n    addi $t0, $t0\n    halt\n")
    assert main(["run", str(source)]) == 2
    assert_one_line_error(capsys, "addi takes 3 operands", "line 2")


def test_foreign_campaign_store_is_one_line_error(tmp_path, capsys):
    store = str(tmp_path / "camp.jsonl")
    args = ["campaign", "--model", "reg-flip", "--injections", "2",
            "--max-cycles", "20000", "--store", store]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--seed", "9"]) == 2
    assert_one_line_error(capsys, "different campaign configuration")


def _torn_difftest_store(tmp_path, capsys):
    """A 3-program difftest store whose run was killed mid-record."""
    store = str(tmp_path / "difftest.jsonl")
    assert main(["difftest", "--seed", "5", "--count", "3",
                 "--store", store]) == 0
    with open(store, "a") as handle:
        handle.write('{"index": 3, "se')
    capsys.readouterr()
    return store


def test_difftest_store_resumes_past_a_torn_line(tmp_path, capsys):
    store = _torn_difftest_store(tmp_path, capsys)
    assert main(["difftest", "--seed", "5", "--count", "6", "--json",
                 "--store", store]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["resumed"], report["executed"], report["ok"]) == \
        (3, 3, True)
    with open(store) as handle:
        lines = handle.read().splitlines()
    # The fragment is left on a line of its own, and index 3 ran again.
    assert lines[4] == '{"index": 3, "se'
    assert [json.loads(line)["index"] for line in lines[1:4] + lines[5:]] \
        == list(range(6))


def test_foreign_difftest_store_is_one_line_error(tmp_path, capsys):
    store = _torn_difftest_store(tmp_path, capsys)
    assert main(["difftest", "--seed", "6", "--count", "3",
                 "--store", store]) == 2
    assert_one_line_error(capsys, "written by a different run",
                          "seed=5, expected 6")


@pytest.mark.parametrize("argv, fragment", [
    (["run", "--class", "nosuch"], "unknown attack class 'nosuch'"),
    (["run", "--config", "bogus"], "unknown module config token 'bogus'"),
    (["run", "--class", "thread-smash", "--engine", "interp"],
     "'thread-smash' is threaded"),
    (["run", "--config", "icm", "--engine", "interp"],
     "module config 'icm' needs --engine pipeline"),
    (["matrix", "--classes", "nosuch"], "unknown attack class 'nosuch'"),
    (["matrix", "--configs", "bogus"], "unknown module config token"),
])
def test_bad_attack_input_is_one_line_error(capsys, argv, fragment):
    assert main(["attack"] + argv) == 2
    assert_one_line_error(capsys, fragment)


def test_internal_errors_keep_their_traceback(monkeypatch):
    import repro.cli as cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_info", broken)
    with pytest.raises(KeyError):
        main(["info"])
