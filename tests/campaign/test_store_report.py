"""JSONL store semantics and the report layer."""

import pytest

from repro.campaign.report import (detection_stats, format_campaign_report,
                                   format_comparison, outcome_counts)
from repro.campaign.store import ResultStore, StoreMismatch


def record(run_id, outcome):
    return {"id": run_id, "model": "instr-flip", "seed": run_id,
            "params": {"pc": 0x1000 + 4 * run_id, "bits": [run_id % 32]},
            "outcome": outcome, "event": "halt", "pc": 0, "cycles": 100}


# ----------------------------------------------------------------- store

def test_store_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "store.jsonl"))
    store.write_header("fp123", {"model": "instr-flip"})
    records = [record(0, "detected"), record(1, "benign")]
    for item in records:
        store.append(item)
    store.close()

    header, loaded = store.load()
    assert header["fingerprint"] == "fp123"
    assert loaded == records
    assert store.done_ids() == {0, 1}
    assert store.record_for(1) == records[1]
    assert store.record_for(7) is None


def test_store_tolerates_torn_tail(tmp_path):
    store = ResultStore(str(tmp_path / "store.jsonl"))
    store.write_header("fp", {})
    store.append(record(0, "detected"))
    store.close()
    with open(store.path, "a") as handle:
        handle.write('{"kind": "run", "id": 1, "outco')
    __, loaded = store.load()
    assert [item["id"] for item in loaded] == [0]


def test_store_verify_rejects_other_fingerprint(tmp_path):
    store = ResultStore(str(tmp_path / "store.jsonl"))
    store.write_header("fp-a", {})
    store.close()
    with pytest.raises(StoreMismatch):
        store.verify("fp-b")


def test_headerless_file_rejected(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"kind": "run", "id": 0, "outcome": "benign"}\n')
    with pytest.raises(StoreMismatch):
        ResultStore(str(path)).load()


def _store_with_two_records(tmp_path):
    store = ResultStore(str(tmp_path / "store.jsonl"))
    store.write_header("fp", {"model": "instr-flip"})
    store.append(record(0, "detected"))
    store.append(record(1, "benign"))
    store.close()
    return store


@pytest.mark.parametrize("line", [
    b"\xff\xfe not utf-8\n",            # invalid UTF-8
    b"[1, 2, 3]\n",                      # JSON, but not an object
    b"17\n",
    b'{"kind": "run", "outcome": "sdc"}\n',          # run without an id
    b'{"kind": "run", "id": [2], "outcome": "sdc"}\n',
])
def test_store_skips_unusable_lines_as_torn(tmp_path, line):
    store = _store_with_two_records(tmp_path)
    with open(store.path, "ab") as handle:
        handle.write(line)
    store.append(record(3, "hang"))
    store.close()
    __, loaded = store.load()
    assert [item["id"] for item in loaded] == [0, 1, 3]
    assert store.done_ids() == {0, 1, 3}
    assert store.record_for(3) == record(3, "hang")


def test_header_without_fingerprint_is_a_mismatch(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"kind": "campaign", "spec": {}}\n'
                    '{"kind": "run", "id": 0, "outcome": "benign"}\n')
    with pytest.raises(StoreMismatch):
        ResultStore(str(path)).verify("fp")


def test_damaged_stores_fail_only_with_store_mismatch(tmp_path):
    """Seeded bit flips, truncations and insertions of a small store."""
    import random

    pristine = open(_store_with_two_records(tmp_path).path, "rb").read()
    inserts = (b"\n", b"\xff", b"[]", b'{"kind": "run"}\n', b"{",
               b'{"kind": "campaign"}\n', b'"id"', b"\x00", b"null\n")
    path = str(tmp_path / "damaged.jsonl")
    rng = random.Random(19)
    mismatches = 0
    for __ in range(400):
        data = bytearray(pristine)
        kind = rng.randrange(3)
        if kind == 0:
            for __ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del data[rng.randrange(len(data)):]
        else:
            at = rng.randrange(len(data) + 1)
            data[at:at] = rng.choice(inserts)
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        store = ResultStore(path)
        try:
            __, loaded = store.verify("fp")
            assert {item["id"] for item in loaded} == store.done_ids()
            store.record_for(0)
        except StoreMismatch:
            mismatches += 1
    assert mismatches > 20


# ---------------------------------------------------------------- report

def test_outcome_counts_cover_every_outcome():
    counts = outcome_counts([record(0, "detected"), record(1, "detected"),
                             record(2, "hung")])
    assert counts["detected"] == 2
    assert counts["hung"] == 1
    assert counts["crashed"] == 0


def test_detection_stats_with_interval():
    records = [record(index, "detected") for index in range(40)]
    detected, total, det_rate, (low, high) = detection_stats(records)
    assert (detected, total, det_rate) == (40, 40, 1.0)
    assert high == 1.0
    assert 0.89 < low < 0.95        # Wilson: 40/40 is not "exactly 100%"


def test_campaign_report_mentions_rates():
    records = [record(0, "detected"), record(1, "corrupted"),
               record(2, "benign")]
    text = format_campaign_report(records, title="Unit campaign")
    assert "Unit campaign" in text
    assert "detection rate: 1/3" in text
    assert "Wilson" in text
    assert "damaging runs:  1/3" in text


def test_comparison_report_shows_both_sides():
    protected = [record(index, "detected") for index in range(10)]
    baseline = [record(index, "corrupted") for index in range(8)]
    baseline.append(record(8, "benign"))
    text = format_comparison(protected, baseline)
    assert "Protected" in text and "Unprotected" in text
    assert "10/10" in text
    assert "8/9" in text
