"""Security substrate: attack models, fault injection, the TRR baseline.

The MLR module's security argument (Section 4.1) is that the attacks
responsible for ~60% of CERT advisories "are based on an attacker's
knowledge of the memory layout of a target application".  This package
provides that attacker:

* :mod:`repro.security.attackgen` — the seeded generative attack
  corpus (randomized stack smashes, GOT hijacks, self-modifying
  payloads, malicious threads, TOCTOU races) and its campaign model.
  Its stack-smash and GOT-hijack classes are the layout-dependent
  exploits, built against the layout the attacker assumes fixed;
* :mod:`repro.security.trr`     — the host-side Transparent Runtime
  Randomization baseline (the authors' earlier software system);
* :mod:`repro.security.coverage` — the module × attack-class
  detection-coverage matrix with Wilson confidence intervals.

Every attack runs under :class:`repro.kernel.Kernel`: on the pipeline
engine the full machine's, on interp/predecode/jit the same kernel
over a :class:`~repro.funcsim.core.FunctionalCore`.
"""

from repro.security.trr import trr_randomize_layout
from repro.security.rerandomize import (
    register_pointer_table,
    rerandomize_heap,
)
from repro.security.attackgen import (
    ATTACK_CLASSES,
    AttackCorpus,
    AttackOutcome,
    generate_variant,
    run_variant,
)
from repro.security.coverage import (
    attack_matrix,
    format_attack_matrix,
)

__all__ = [
    "trr_randomize_layout",
    "register_pointer_table",
    "rerandomize_heap",
    "ATTACK_CLASSES",
    "AttackCorpus",
    "AttackOutcome",
    "generate_variant",
    "run_variant",
    "attack_matrix",
    "format_attack_matrix",
]
