"""Bit-flip campaigns: ICM coverage on checked instructions."""

import pytest

from repro.campaign import CampaignSpec, Outcome, run_campaign

WORKLOAD = """
    main:
        li $t0, 0
        li $t1, 25
        li $s0, 0
    loop:
        add $s0, $s0, $t0
        addi $t0, $t0, 1
        blt $t0, $t1, loop
        halt
"""


def bitflip_campaign(source=WORKLOAD, injections=50, bits=1, protected=True,
                     seed=99, max_cycles=500_000):
    spec = CampaignSpec(source=source, model="instr-flip",
                        model_options={"bits": bits}, protected=protected,
                        injections=injections, seed=seed,
                        max_cycles=max_cycles)
    return run_campaign(spec)


def test_icm_detects_all_checked_bitflips():
    campaign = bitflip_campaign(injections=25, protected=True, seed=5)
    assert campaign.detection_rate == 1.0


def test_multibit_errors_also_detected():
    campaign = bitflip_campaign(injections=15, bits=3, protected=True,
                                seed=6)
    assert campaign.detection_rate == 1.0


def test_unprotected_baseline_shows_damage():
    campaign = bitflip_campaign(injections=30, protected=False, seed=7,
                                max_cycles=100_000)
    assert campaign.detection_rate == 0.0
    damage = (campaign.count(Outcome.FAULTED)
              + campaign.count(Outcome.CORRUPTED)
              + campaign.count(Outcome.HUNG))
    assert damage > 0          # some flips really do hurt


def test_campaign_is_deterministic():
    one = bitflip_campaign(injections=10, seed=42)
    two = bitflip_campaign(injections=10, seed=42)
    assert one.records == two.records


def test_campaign_requires_checked_instructions():
    with pytest.raises(ValueError):
        bitflip_campaign("main: halt\n", injections=1)
