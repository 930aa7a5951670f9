"""Bimodal branch predictor with a branch target buffer.

The simulated processor (Figure 1) carries a conventional branch
predictor in its fetch engine.  We implement the sim-outorder default
style: a table of 2-bit saturating counters indexed by branch PC for
direction, plus a direct-mapped BTB for targets (needed by ``jr``/
``jalr``, whose targets are register values unknown at fetch).
"""


class BranchPredictor:
    """Direction (bimodal 2-bit counters) + target (BTB) prediction."""

    #: What a checkpoint carries (:mod:`repro.checkpoint`); the pipeline
    #: refills its live predictor with these, so probes on it stay.
    STATE = ("_counters", "_btb_tags", "_btb_targets", "lookups", "hits")

    def __init__(self, bimodal_entries=2048, btb_entries=512):
        if bimodal_entries & (bimodal_entries - 1):
            raise ValueError("bimodal table size must be a power of two")
        if btb_entries & (btb_entries - 1):
            raise ValueError("BTB size must be a power of two")
        self._counters = [2] * bimodal_entries      # weakly taken
        self._bimodal_mask = bimodal_entries - 1
        self._btb_tags = [None] * btb_entries
        self._btb_targets = [0] * btb_entries
        self._btb_mask = btb_entries - 1
        self.lookups = 0
        self.hits = 0

    @property
    def geometry(self):
        """The table sizes a checkpoint's state is indexed under (a
        clone holding only :attr:`STATE` has them too)."""
        return len(self._counters), len(self._btb_tags)

    def __deepcopy__(self, memo):
        """A clone holding only :attr:`STATE`, for checkpoints.  The
        tables are lists of ints and None, so generic deepcopy's
        per-element dispatch is pure overhead: copy them wholesale."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name in self.STATE:
            value = getattr(self, name)
            setattr(clone, name,
                    list(value) if isinstance(value, list) else value)
        return clone

    # --------------------------------------------------------------- predict

    def predict_direction(self, pc):
        """Predict taken/not-taken for the conditional branch at *pc*."""
        self.lookups += 1
        return self._counters[(pc >> 2) & self._bimodal_mask] >= 2

    def predict_target(self, pc):
        """BTB lookup: predicted target address or None on a BTB miss."""
        index = (pc >> 2) & self._btb_mask
        if self._btb_tags[index] == pc:
            return self._btb_targets[index]
        return None

    # ---------------------------------------------------------------- update

    def update(self, pc, taken, target):
        """Train the predictor with the resolved outcome of the branch at *pc*."""
        index = (pc >> 2) & self._bimodal_mask
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        elif counter > 0:
            self._counters[index] = counter - 1
        if taken:
            btb_index = (pc >> 2) & self._btb_mask
            self._btb_tags[btb_index] = pc
            self._btb_targets[btb_index] = target

    def record_hit(self, correct):
        """Book-keeping for prediction accuracy statistics."""
        if correct:
            self.hits += 1

    @property
    def accuracy(self):
        return self.hits / self.lookups if self.lookups else 0.0


class GsharePredictor(BranchPredictor):
    """Gshare: PC xor global-history indexed 2-bit counters.

    Not part of the paper's configuration (sim-outorder's default is the
    bimodal predictor modelled above) — provided for the predictor
    ablation, since CHECK-bandwidth effects interact with front-end
    quality.
    """

    STATE = BranchPredictor.STATE + ("_history",)

    def __init__(self, bimodal_entries=2048, btb_entries=512,
                 history_bits=10):
        super().__init__(bimodal_entries, btb_entries)
        self.history_bits = history_bits
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc):
        return ((pc >> 2) ^ self._history) & self._bimodal_mask

    def predict_direction(self, pc):
        self.lookups += 1
        return self._counters[self._index(pc)] >= 2

    def update(self, pc, taken, target):
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        elif counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask
        if taken:
            btb_index = (pc >> 2) & self._btb_mask
            self._btb_tags[btb_index] = pc
            self._btb_targets[btb_index] = target
