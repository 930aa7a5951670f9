"""Functional (in-order, one-instruction-per-step) reference simulator.

The reproduction's analogue of SimpleScalar's ``sim-safe``: no timing, no
speculation, just architectural semantics.  It serves three roles:

* differential-testing oracle for the out-of-order pipeline (every
  workload must produce identical architectural state on both engines);
* fast workload validation (the kMeans / vpr surrogates are checked for
  algorithmic correctness here before being timed on the pipeline);
* substrate for purely functional RSE experiments.

:class:`~repro.funcsim.core.FunctionalCore` puts a :class:`FuncSim`
under the kernel (:mod:`repro.kernel`) for guest programs that need an
OS: loading, page permissions, syscalls and threads.
"""

from repro.funcsim.interp import FuncSim, SimFault, StepResult

__all__ = ["FuncSim", "SimFault", "StepResult"]
