"""The paper's four RSE hardware modules.

* :mod:`~repro.rse.modules.icm`  — Instruction Checker Module (Section 4.3)
* :mod:`~repro.rse.modules.mlr`  — Memory Layout Randomization (Section 4.1)
* :mod:`~repro.rse.modules.ddt`  — Data Dependency Tracker (Section 4.2)
* :mod:`~repro.rse.modules.ahbm` — Adaptive Heartbeat Monitor (Section 4.4)

Plus one module of our own, demonstrating the framework's versatility:

* :mod:`~repro.rse.modules.cfc` — signature-style Control-Flow Checker
  (the Wilken & Kong technique the paper's Section 2 generalises).
"""

from repro.rse.modules.icm import (
    ICM,
    arm_icm,
    build_checker_memory,
    make_icm_injector,
)
from repro.rse.modules.mlr import MLR
from repro.rse.modules.ddt import DDT
from repro.rse.modules.ahbm import AHBM
from repro.rse.modules.cfc import CFC, MODULE_CFC, build_cfg

__all__ = [
    "ICM",
    "arm_icm",
    "build_checker_memory",
    "make_icm_injector",
    "MLR",
    "DDT",
    "AHBM",
    "CFC",
    "MODULE_CFC",
    "build_cfg",
]
