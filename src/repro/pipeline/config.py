"""Architectural parameters of the simulated superscalar processor.

Defaults follow Figure 1 of the paper (the DLX-like machine simulated
with an augmented sim-outorder): 4-instruction fetch/dispatch/issue
width, 16-entry RUU (ROB), 8-entry LSQ, 4-entry fetch buffer.
Functional-unit mix and latencies follow sim-outorder's defaults.
"""


class PipelineConfig:
    """Tunable machine parameters.  Instances are plain value objects."""

    def __init__(self,
                 fetch_width=4,
                 dispatch_width=4,
                 issue_width=4,
                 commit_width=4,
                 fetch_buffer_entries=4,
                 rob_entries=16,
                 lsq_entries=8,
                 int_alus=4,
                 mdus=1,
                 mem_ports=2,
                 alu_latency=1,
                 mul_latency=3,
                 div_latency=20,
                 bimodal_entries=2048,
                 btb_entries=512,
                 predictor="bimodal",
                 predecode=True):
        self.fetch_width = fetch_width
        self.dispatch_width = dispatch_width
        self.issue_width = issue_width
        self.commit_width = commit_width
        self.fetch_buffer_entries = fetch_buffer_entries
        self.rob_entries = rob_entries
        self.lsq_entries = lsq_entries
        self.int_alus = int_alus
        self.mdus = mdus
        self.mem_ports = mem_ports
        self.alu_latency = alu_latency
        self.mul_latency = mul_latency
        self.div_latency = div_latency
        self.bimodal_entries = bimodal_entries
        self.btb_entries = btb_entries
        self.predictor = predictor          # "bimodal" (paper) or "gshare"
        #: Fetch through the shared predecode cache (perf only — the
        #: decoded stream is bit-identical either way; False keeps the
        #: direct decode path for differential testing).
        self.predecode = predecode

    def copy(self, **overrides):
        """Return a new config with *overrides* applied."""
        fresh = PipelineConfig()
        for name, value in vars(self).items():
            setattr(fresh, name, value)
        for name, value in overrides.items():
            if not hasattr(fresh, name):
                raise AttributeError("unknown config field %r" % name)
            setattr(fresh, name, value)
        return fresh
