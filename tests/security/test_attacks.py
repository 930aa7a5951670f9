"""Attack experiments: fixed layout falls, TRR/MLR defend.

The paper's Section 4.1 exploits are the corpus' ``stack-smash`` and
``got-hijack`` classes; each verdict must hold for every generated
variant, so each test runs a few seeds.
"""

import pytest

from repro.program.layout import MemoryLayout
from repro.security.attackgen import (
    _MLR_PROLOGUE,
    AttackOutcome,
    AttackVariant,
    generate_variant,
    parse_config,
    run_variant,
)
from repro.security.trr import trr_randomize_layout
from repro.workloads import vulnsvc
from repro.workloads.asmlib import build_workload_image

SEEDS = (0, 1, 2, 77)


def outcomes(attack_class, config, seeds=SEEDS):
    return {run_variant(generate_variant(attack_class, seed, config)).outcome
            for seed in seeds}


def test_stack_smash_succeeds_on_fixed_layout():
    assert outcomes("stack-smash", "none") == {AttackOutcome.HIJACKED}


def test_stack_smash_crashes_under_trr():
    assert outcomes("stack-smash", "trr") == {AttackOutcome.CRASHED}


def test_stack_smash_defeated_under_mlr():
    # The attack is converted into a crash (the paper's exact claim);
    # shellcode never runs.
    assert outcomes("stack-smash", "mlr") == {AttackOutcome.CRASHED}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_trr_defends_across_random_layouts(seed):
    variant = generate_variant("stack-smash", seed, config="trr")
    assert variant.layout.stack_top != MemoryLayout().stack_top
    assert run_variant(variant).outcome is not AttackOutcome.HIJACKED


def test_got_hijack_succeeds_on_fixed_layout():
    assert outcomes("got-hijack", "none") == {AttackOutcome.HIJACKED}


def test_got_hijack_foiled_under_mlr():
    # The stale GOT write hits abandoned memory: the service completes
    # and the legitimate logger ran.
    assert outcomes("got-hijack", "mlr") == {AttackOutcome.FOILED}


def test_benign_request_handled_everywhere():
    """A short, honest request never trips anything."""
    request = [int.from_bytes(b"hell", "little"),
               int.from_bytes(b"o\0\0\0", "little")]
    for config in ("none", "trr", "icm", "mlr", "cfc", "ddt", "mlr+icm"):
        tokens = parse_config(config)
        layout = (trr_randomize_layout(MemoryLayout(), seed=5)
                  if "trr" in tokens else MemoryLayout())
        source = vulnsvc.render_stack_smash(
            {"request": request}, 96, 16, 92,
            prologue=_MLR_PROLOGUE if "mlr" in tokens else "")
        image, asm = build_workload_image(source, layout)
        variant = AttackVariant("stack-smash", config, 0, source, image,
                                asm, layout, {})
        run = run_variant(variant)
        assert (run.reason, run.outcome, run.detections) == (
            "halt", AttackOutcome.FOILED, 0), config
