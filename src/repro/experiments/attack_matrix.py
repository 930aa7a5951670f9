"""Standing experiment: the module × attack-class coverage matrix.

Tables 4 and 5 of the paper demonstrate each security module against
one hand-crafted exploit.  This harness is the generative extension:
a seeded corpus of randomized attack variants per (module
configuration, attack class) cell, with Wilson confidence intervals on
the stopped rate — the quantitative version of the paper's qualitative
"the attack was foiled" rows.  Thin wrapper over
:func:`repro.security.coverage.attack_matrix` so the CLI experiment
front-end and the test suite share one entry point.
"""

from repro.security.coverage import attack_matrix

#: Full-run corpus size per cell; ``quick`` shrinks it for the suite.
FULL_VARIANTS = 40
QUICK_VARIANTS = 6

#: The quick axes keep one representative per defense family.
QUICK_CLASSES = ("stack-smash", "got-hijack", "smc-patch")
QUICK_CONFIGS = ("none", "mlr", "cfc")


def run_attack_matrix(quick=False, seed=2004, options=None, progress=None):
    """Run the standing matrix; returns the coverage JSON document."""
    if quick:
        return attack_matrix(classes=QUICK_CLASSES, configs=QUICK_CONFIGS,
                             variants=QUICK_VARIANTS, seed=seed,
                             options=options, progress=progress)
    return attack_matrix(variants=FULL_VARIANTS, seed=seed,
                         options=options, progress=progress)
