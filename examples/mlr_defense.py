#!/usr/bin/env python3
"""Memory Layout Randomization vs real layout-dependent attacks.

Reproduces the security story of Section 4.1 on two concrete exploits
against a vulnerable network service:

* a **stack smash**: the attacker overflows a stack buffer, planting
  shellcode and overwriting the saved return address with the absolute
  buffer address the conventional layout predicts;
* a **GOT hijack**: an arbitrary-write bug redirects a GOT entry at its
  well-known address so the next PLT call lands in attacker code.

Both are variants of the generated attack corpus
(:mod:`repro.security.attackgen`) at one seed; ``repro attack run
--class stack-smash|got-hijack --config none|trr|mlr --seed 2026`` runs
each one alone.
The stack smash runs undefended, under software TRR and under the
hardware MLR module; the GOT hijack undefended and under the MLR.  The
undefended service is hijacked; the randomized ones turn the attack
into a crash (stack smash) or shrug it off entirely (GOT hijack against
a relocated GOT).

Run:  python examples/mlr_defense.py
"""

import _bootstrap  # noqa: F401  (sys.path for repo checkouts)

from repro.security.attackgen import (
    AttackOutcome,
    generate_variant,
    run_variant,
)

SEED = 2026


def attack(attack_class, config):
    return run_variant(generate_variant(attack_class, SEED, config=config))


def banner(text):
    print()
    print("== %s %s" % (text, "=" * max(0, 60 - len(text))))


def describe(label, result):
    flair = {
        AttackOutcome.HIJACKED: "ATTACKER CODE EXECUTED",
        AttackOutcome.CRASHED: "attack converted into a crash",
        AttackOutcome.FOILED: "service completed unharmed",
    }[result.outcome]
    print("%-34s %-10s (%s; run ended: %s)"
          % (label, result.outcome.value.upper(), flair, result.reason))


def main():
    banner("stack smashing (jump-to-shellcode on the stack)")
    smash_plain = attack("stack-smash", "none")
    describe("fixed layout:", smash_plain)
    smash_trr = attack("stack-smash", "trr")
    describe("TRR (software randomization):", smash_trr)
    smash_mlr = attack("stack-smash", "mlr")
    describe("MLR (hardware module):", smash_mlr)

    assert smash_plain.outcome is AttackOutcome.HIJACKED
    assert smash_trr.outcome is AttackOutcome.CRASHED
    assert smash_mlr.outcome is AttackOutcome.CRASHED

    banner("GOT hijack (arbitrary write to a well-known GOT slot)")
    got_plain = attack("got-hijack", "none")
    describe("fixed layout:", got_plain)
    got_mlr = attack("got-hijack", "mlr")
    describe("MLR (GOT relocated + PLT rewritten):", got_mlr)

    assert got_plain.outcome is AttackOutcome.HIJACKED
    assert got_mlr.outcome is AttackOutcome.FOILED

    banner("summary")
    print("The fixed-layout service is fully hijackable.  Randomizing the")
    print("layout (software TRR or the RSE's MLR module) breaks every")
    print("hardcoded address the exploits rely on: the stack smash becomes")
    print("a crash — 'essentially converts a security attack into a")
    print("program crash' — and the GOT hijack writes into abandoned")
    print("memory while the service keeps running.")


if __name__ == "__main__":
    main()
