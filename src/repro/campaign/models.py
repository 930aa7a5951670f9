"""Fault-model registry for injection campaigns.

The paper evaluates every RSE module by injecting faults or attacks and
tabulating what the machine does.  A :class:`FaultModel` generalizes
that recipe beyond the original ICM bit-flip loop: each model describes

* a **sample space** — the set of places/times a fault can land, derived
  once per campaign from the assembled workload (:meth:`build_space`);
* a **sampler** — a deterministic draw of one injection's parameters
  from a seeded RNG (:meth:`sample`);
* an **armer** — how to mutate a freshly built machine before the run
  (:meth:`arm`), optionally returning a *trigger cycle* for faults that
  strike mid-execution;
* a **firer** — the mid-run perturbation applied at the trigger cycle
  (:meth:`fire`).

Models are registered by name in :data:`MODELS` so the CLI, the result
store and the resume path can reconstruct them from strings.
"""

import enum

from repro.isa.encoding import flip_bit

#: Upper bound used when a workload has no ``.data`` segment: the
#: mem-flip model then targets this many words just below the stack top.
STACK_FALLBACK_WORDS = 64


class Outcome(enum.Enum):
    """What one injected run did."""

    DETECTED = "detected"        # RSE CHECK_ERROR before any damage
    ASSERTION = "assertion"      # invariant suite flagged the corruption
    FAULTED = "faulted"          # architectural fault surfaced instead
    CORRUPTED = "corrupted"      # ran to completion with wrong results
    BENIGN = "benign"            # ran to completion, results intact
    HUNG = "hung"                # exceeded the per-run cycle budget
    CRASHED = "crashed"          # the simulator worker itself died
    NOT_TRIGGERED = "not_triggered"  # run ended before fire(); no fault landed


class Injection:
    """One fully specified injection, replayable by its id."""

    __slots__ = ("id", "model", "seed", "params")

    def __init__(self, injection_id, model, seed, params):
        self.id = injection_id
        self.model = model
        self.seed = seed
        self.params = params

    def to_dict(self):
        return {"id": self.id, "model": self.model, "seed": self.seed,
                "params": self.params}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["id"], payload["model"], payload["seed"],
                   payload["params"])

    def __repr__(self):
        return "Injection(#%d %s %r)" % (self.id, self.model, self.params)


MODELS = {}

#: Modules that register additional fault models on import.  Imported
#: lazily by :func:`get_model` so the campaign core never depends on the
#: layers above it (the attack corpus lives in ``repro.security``).
MODEL_PROVIDERS = ("repro.security.attackgen",)


def register(cls):
    MODELS[cls.name] = cls
    return cls


def get_model(name, **options):
    """Instantiate a registered fault model by name."""
    if name not in MODELS:
        import importlib

        for provider in MODEL_PROVIDERS:
            importlib.import_module(provider)
            if name in MODELS:
                break
    try:
        factory = MODELS[name]
    except KeyError:
        raise ValueError("unknown fault model %r (have: %s)"
                         % (name, ", ".join(sorted(MODELS))))
    return factory(**options)


class FaultModel:
    """Base class; subclasses define one way the hardware can break."""

    name = None

    #: True when :meth:`arm` never touches the machine (it only derives
    #: the trigger cycle from *params*), so it may be called with
    #: ``machine=None`` and the run up to the trigger is workload-pure.
    #: That purity is what lets the campaign runner share one simulated
    #: prefix across injections in ``--fork`` mode.
    arm_is_pure = False

    #: False when the model synthesises its own guest program per
    #: injection (the attack corpus): ``spec.source`` is then only a
    #: fingerprint tag, and the campaign context skips assembling it,
    #: the golden run and the target enumerations.
    needs_workload = True

    #: True when the model runs the whole injection itself through
    #: :meth:`execute` instead of the shared arm/run/fire/classify
    #: machinery — generated programs classify from their own
    #: architectural state, not against golden registers.
    owns_execution = False

    def build_space(self, ctx):
        """Derive the picklable sample space from a campaign context."""
        raise NotImplementedError

    def sample(self, rng, space):
        """Draw one injection's parameters from *space* using *rng*."""
        raise NotImplementedError

    def arm(self, machine, ctx, params):
        """Mutate *machine* before the run.  Returns a trigger cycle for
        mid-run faults, or None when the mutation is complete."""
        return None

    def fire(self, machine, ctx, params):
        """Apply the mid-run perturbation at the trigger cycle."""

    def struck_register(self, params):
        """The architectural register :meth:`fire` flips, or None.

        Naming it lets the fork engine skip the tail of a strike on a
        register that nothing reads or writes after the trigger
        (:meth:`repro.campaign.runner.ForkEngine.strike`).
        """
        return None

    def execute(self, ctx, injection):
        """Run one injection end to end (``owns_execution`` models only).

        Returns the record dict the shared runner would have produced;
        must be deterministic in ``injection.params`` alone.
        """
        raise NotImplementedError


def _trigger_window(ctx):
    """Cycles during which a mid-run fault can strike: [1, golden end)."""
    return max(2, min(ctx.golden_cycles, ctx.spec.max_cycles) - 1)


@register
class InstructionBitFlip(FaultModel):
    """Flip 1..k bits of a checked instruction word in memory — the ICM
    coverage model (Section 4.3): corruption anywhere on the
    memory -> cache -> fetch path."""

    name = "instr-flip"

    def __init__(self, bits=1):
        self.bits = bits

    def build_space(self, ctx):
        if not ctx.checked_pcs:
            raise ValueError("workload has no checked instructions")
        return {"pcs": ctx.checked_pcs, "bits": self.bits}

    def sample(self, rng, space):
        return {"pc": rng.choice(space["pcs"]),
                "bits": rng.sample(range(32), space["bits"])}

    def arm(self, machine, ctx, params):
        word = machine.memory.load_word(params["pc"])
        for bit in params["bits"]:
            word = flip_bit(word, bit)
        machine.memory.store_word(params["pc"], word)
        return None


@register
class RegisterFileBitFlip(FaultModel):
    """Flip one bit of an architectural register at a trigger cycle —
    a particle strike in the register file mid-execution.

    The strike hits wherever the register's current value physically
    lives: the architectural file, and — because the simulator's rename
    map bypasses the file for registers with an in-flight producer — the
    producer's computed result, so the flip is visible to consumers that
    would forward instead of reading the file."""

    name = "reg-flip"
    arm_is_pure = True

    def build_space(self, ctx):
        return {"regs": list(range(1, 32)), "max_cycle": _trigger_window(ctx)}

    def sample(self, rng, space):
        return {"reg": rng.choice(space["regs"]),
                "bit": rng.randrange(32),
                "cycle": rng.randrange(1, space["max_cycle"])}

    def arm(self, machine, ctx, params):
        return params["cycle"]

    def struck_register(self, params):
        return params["reg"]

    def fire(self, machine, ctx, params):
        mask = 1 << params["bit"]
        pipeline = machine.pipeline
        pipeline.regs[params["reg"]] ^= mask
        producer = pipeline.rename.get(params["reg"])
        if producer is not None and producer.value is not None:
            producer.value ^= mask


@register
class DataMemoryBitFlip(FaultModel):
    """Flip one bit of a data word at a trigger cycle — an upset in main
    memory under live data.  Targets the ``.data`` segment, or a window
    below the stack top when the workload has no data segment."""

    name = "mem-flip"
    arm_is_pure = True

    def build_space(self, ctx):
        addrs = list(ctx.data_words)
        if not addrs:
            top = ctx.stack_top
            addrs = [top - 4 * (i + 1) for i in range(STACK_FALLBACK_WORDS)]
        return {"addrs": addrs, "max_cycle": _trigger_window(ctx)}

    def sample(self, rng, space):
        return {"addr": rng.choice(space["addrs"]),
                "bit": rng.randrange(32),
                "cycle": rng.randrange(1, space["max_cycle"])}

    def arm(self, machine, ctx, params):
        return params["cycle"]

    def fire(self, machine, ctx, params):
        word = machine.memory.load_word(params["addr"])
        machine.memory.store_word(params["addr"],
                                  flip_bit(word, params["bit"]))


@register
class ControlFlowCorruption(FaultModel):
    """Corrupt the offset field of a control-flow instruction so it
    transfers to the wrong place while still decoding as control flow —
    the class of error the ICM's default (control-flow) coverage and the
    CFC module exist to catch."""

    name = "cf-corrupt"

    def __init__(self, bits=2):
        self.bits = bits

    def build_space(self, ctx):
        if not ctx.control_pcs:
            raise ValueError("workload has no control-flow instructions")
        return {"pcs": ctx.control_pcs, "bits": self.bits}

    def sample(self, rng, space):
        return {"pc": rng.choice(space["pcs"]),
                "bits": rng.sample(range(16), space["bits"])}

    def arm(self, machine, ctx, params):
        word = machine.memory.load_word(params["pc"])
        for bit in params["bits"]:
            word = flip_bit(word, bit)
        machine.memory.store_word(params["pc"], word)
        return None
