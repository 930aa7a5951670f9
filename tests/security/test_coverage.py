"""The module × attack-class coverage matrix and its campaign plumbing."""

import json

from repro.campaign import CampaignSpec, ExecutionOptions, run_campaign
from repro.security.coverage import (
    SCHEMA,
    attack_matrix,
    format_attack_matrix,
)

QUICK = dict(classes=("stack-smash", "got-hijack"),
             configs=("none", "mlr"), variants=4, seed=17)


def test_matrix_shape_and_schema():
    doc = attack_matrix(**QUICK)
    assert doc["schema"] == SCHEMA
    assert len(doc["cells"]) == 4
    for cell in doc["cells"]:
        assert sum(cell["outcomes"].values()) == cell["variants"] == 4
        assert cell["outcomes"]["unclassified"] == 0
        low, high = cell["stopped_ci"]
        assert 0.0 <= low <= cell["stopped_rate"] <= high <= 1.0


def test_matrix_reproduces_byte_identically():
    first = json.dumps(attack_matrix(**QUICK), sort_keys=True)
    second = json.dumps(attack_matrix(**QUICK), sort_keys=True)
    assert first == second


def test_matrix_consistent_with_handwritten_attacks():
    """The generated rows must give the paper's Section 4.1 verdicts:
    no defense -> hijacked corpus; MLR -> stopped corpus."""
    doc = attack_matrix(**QUICK)
    by_key = {(c["config"], c["class"]): c for c in doc["cells"]}
    assert by_key[("none", "stack-smash")]["outcomes"]["hijacked"] == 4
    assert by_key[("none", "got-hijack")]["outcomes"]["hijacked"] == 4
    assert by_key[("mlr", "stack-smash")]["outcomes"]["crashed"] == 4
    assert by_key[("mlr", "got-hijack")]["outcomes"]["foiled"] == 4
    for key in by_key:
        assert by_key[key]["stopped"] == (0 if key[0] == "none" else 4)


def test_format_matrix_mentions_every_axis():
    doc = attack_matrix(**QUICK)
    table = format_attack_matrix(doc)
    for token in ("none", "mlr", "stack-smash", "got-hijack"):
        assert token in table


def test_attack_campaign_records_identical_across_paths(tmp_path):
    """Serial, sharded-service and store-resumed runs of the attack
    model must produce the same records."""
    spec = CampaignSpec(source="attack:smc-patch", model="attack",
                        model_options={"attack_class": "smc-patch",
                                       "config": "icm"},
                        injections=6, seed=23, max_cycles=300_000)
    serial = run_campaign(spec)
    sharded = run_campaign(spec, options=ExecutionOptions(shards=2,
                                                          workers=2))
    assert serial.records == sharded.records
    store = str(tmp_path / "attack.jsonl")
    stored = run_campaign(spec, options=ExecutionOptions(store=store))
    resumed = run_campaign(spec, options=ExecutionOptions(store=store))
    assert stored.records == resumed.records == serial.records
    assert all(r["outcome"] == "detected" for r in serial.records)
