"""Engine-independent attack classification (interp/predecode/jit vs
pipeline): the same attack program must reach the same verdict on every
execution engine — outcomes are architectural, not engine artifacts."""

import pytest

from repro.security.attackgen import (
    FUNCSIM_CLASSES,
    AttackOutcome,
    generate_variant,
    run_variant,
)

ENGINES = ("pipeline", "interp", "predecode", "jit")


def engine_outcomes(attack_class, defense):
    variant = generate_variant(attack_class, 77, config=defense)
    return {engine: run_variant(variant, engine=engine).outcome
            for engine in ENGINES}


@pytest.mark.parametrize("defense", ["none", "trr", "mlr"])
def test_stack_smash_parity(defense):
    outcomes = engine_outcomes("stack-smash", defense)
    assert len(set(outcomes.values())) == 1, outcomes
    expected = (AttackOutcome.HIJACKED if defense == "none"
                else AttackOutcome.CRASHED)
    assert outcomes["pipeline"] is expected


@pytest.mark.parametrize("defense", ["none", "mlr"])
def test_got_hijack_parity(defense):
    outcomes = engine_outcomes("got-hijack", defense)
    assert len(set(outcomes.values())) == 1, outcomes
    expected = (AttackOutcome.HIJACKED if defense == "none"
                else AttackOutcome.FOILED)
    assert outcomes["pipeline"] is expected


@pytest.mark.parametrize("attack_class", FUNCSIM_CLASSES)
@pytest.mark.parametrize("config", ["none", "trr", "mlr"])
def test_generated_variant_parity(attack_class, config):
    variant = generate_variant(attack_class, 31, config=config)
    outcomes = {engine: run_variant(variant, engine=engine).outcome
                for engine in ENGINES}
    assert len(set(outcomes.values())) == 1, outcomes


def test_threaded_class_rejects_funcsim():
    variant = generate_variant("thread-smash", 1)
    with pytest.raises(ValueError):
        run_variant(variant, engine="interp")


def test_module_config_rejects_funcsim():
    variant = generate_variant("smc-patch", 1, config="icm")
    with pytest.raises(ValueError):
        run_variant(variant, engine="jit")
