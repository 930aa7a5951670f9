"""Seeded generative attack corpus (InjectV-style attack taxonomy).

Every attack program :mod:`repro` runs comes from here.  The module
*generates* randomized attack variants the way the difftest generator
composes random programs: a variant seed drives every choice
(frame geometry, NOP-sled layout, shellcode placement and registers,
GOT width and victim entry, write primitive, patch filler, race delays),
and the result is a fully self-contained, **self-classifying** guest
program rendered from the :mod:`repro.workloads.vulnsvc` templates —
HIJACKED / CRASHED / FOILED / DETECTED are read from architectural
state, never from heuristics.

Attack classes (:data:`ATTACK_CLASSES`); the first two are the
layout-dependent exploits of the paper's Section 4.1, which succeed on
a fixed layout and which TRR or the MLR turn into a crash (stack
smash) or foil (GOT hijack):

* ``stack-smash``   — unbounded copy into a stack buffer; varied
  overflow depths, sled lengths, shellcode placement and entry points;
* ``got-hijack``    — arbitrary write over a randomized GOT entry with
  a randomized write primitive (word / byte-wise / indexed);
* ``smc-patch``     — self-modifying payload: an mprotect gadget opens
  .text and a baked patch rewrites a direct jump;
* ``thread-smash``  — a malicious sibling thread smashes the sleeping
  service thread's frame at assumed addresses;
* ``race-got``      — cross-thread TOCTOU: the service validates a GOT
  entry, yields, then calls it while a racer thread rewrites it.

Variants run under RSE module configurations
(:func:`parse_config`: ``none``/``trr``/``icm``/``mlr``/``cfc``/``ddt``
and ``+`` combinations), either directly (:func:`run_variant`) or as a
:mod:`repro.campaign` fault model (:class:`AttackCorpus`,
``model="attack"``) so corpora scale through the sharded service and
feed the :mod:`repro.security.coverage` detection matrix.
"""

import enum
import random
import struct

from repro.campaign.models import FaultModel, Outcome, register
from repro.funcsim.core import FunctionalCore
from repro.isa.encoding import encode
from repro.isa.instructions import SPEC_BY_NAME
from repro.kernel import Kernel
from repro.memory.mainmem import PAGE_SHIFT, MainMemory
from repro.program.image import build_image
from repro.program.layout import MemoryLayout
from repro.rse.modules.cfc import MODULE_CFC, build_cfg
from repro.rse.modules.icm import arm_icm
from repro.rse.modules.mlr import FunctionalMLR
from repro.security.trr import trr_randomize_layout
from repro.system import build_machine
from repro.weak import weak_method
from repro.workloads import vulnsvc
from repro.workloads.asmlib import assemble_workload

#: The corpus' attack-class vocabulary.
ATTACK_CLASSES = ("stack-smash", "got-hijack", "smc-patch",
                  "thread-smash", "race-got")

#: Classes the functional engines run (under the same kernel, see
#: :func:`_attack_kernel`): the single-threaded ones.  A malicious
#: thread's stray store under TRR is stopped by a data-access fault,
#: which engines that check only fetch never raise.
FUNCSIM_CLASSES = ("stack-smash", "got-hijack", "smc-patch")

#: The module config tokens the functional engines model (TRR is a
#: layout, the MLR a synchronous CHECK model); the rest need the RSE.
FUNCSIM_MODULES = ("trr", "mlr")

#: Classes that attack the stack (and so model the 2004 executable stack).
_STACK_CLASSES = ("stack-smash", "thread-smash")

#: RSE module configuration tokens :func:`parse_config` accepts.
CONFIG_TOKENS = ("none", "trr", "icm", "mlr", "cfc", "ddt")

#: Default per-variant cycle budget; every generated program finishes
#: (or faults) within a small fraction of this.
DEFAULT_MAX_CYCLES = 300_000

_SHELLCODE_REGS = ((8, 9), (10, 11), (24, 25))      # t0/t1, t2/t3, t8/t9

#: Value the shellcode / attacker function writes when the hijack works.
PWNED_MARKER = 0x31337


class AttackOutcome(enum.Enum):
    HIJACKED = "hijacked"          # attacker code ran
    CRASHED = "crashed"            # attack turned into a fault
    FOILED = "foiled"              # service completed unharmed
    DETECTED = "detected"          # an RSE module flagged the attack
    UNCLASSIFIED = "unclassified"  # none of the above (always a bug)


def parse_config(config):
    """``"mlr+icm"`` -> ordered tuple of validated module tokens."""
    tokens = tuple(token for token in config.split("+") if token)
    if not tokens:
        raise ValueError("empty module configuration")
    for token in tokens:
        if token not in CONFIG_TOKENS:
            raise ValueError("unknown module config token %r (have: %s)"
                             % (token, ", ".join(CONFIG_TOKENS)))
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate token in module config %r" % config)
    return tuple(token for token in tokens if token != "none")


def shellcode_words(flag_addr, rt0=8, rt1=9, marker=PWNED_MARKER):
    """Marker-write shellcode as instruction words, registers chosen."""
    lui = SPEC_BY_NAME["lui"]
    ori = SPEC_BY_NAME["ori"]
    sw = SPEC_BY_NAME["sw"]
    halt = SPEC_BY_NAME["halt"]
    return [
        encode(lui, rt=rt0, imm=(flag_addr >> 16) & 0xFFFF),
        encode(ori, rt=rt0, rs=rt0, imm=flag_addr & 0xFFFF),
        encode(lui, rt=rt1, imm=(marker >> 16) & 0xFFFF),
        encode(ori, rt=rt1, rs=rt1, imm=marker & 0xFFFF),
        encode(sw, rt=rt1, rs=rt0, imm=0),
        encode(halt),
    ]


#: MLR defense: the guest "loader library" randomizes the stack through
#: the module, maps the fresh region, and moves $sp there before any
#: request handling (Figure 3(A) I0..I3).
_MLR_PROLOGUE = """
    chk MLR, NBLK, OP_ENABLE, 0
    li $a0, HDR_BASE
    li $a1, HDR_SIZE
    chk MLR, BLK, OP_MLR_EXEC_HDR, 0
    chk MLR, BLK, OP_MLR_PI_RAND, 0
    li $t0, HDR_BASE
    lw $t9, 0x104($t0)         # randomized stack segment base
    li $v0, SYS_MMAP
    li $t1, 0x20000
    sub $a0, $t9, $t1
    li $a1, 0x20000
    syscall
    addi $sp, $t9, -64
"""


def _mlr_got_prologue(entries):
    """The MLR GOT-migration prologue, sized for *entries* GOT slots."""
    return """\
    chk MLR, NBLK, OP_ENABLE, 0
    la  $a0, got
    li  $a1, {got_bytes}
    chk MLR, BLK, OP_MLR_GOT_OLD, 0
    la  $a0, got_new
    li  $a1, 0
    chk MLR, BLK, OP_MLR_GOT_NEW, 0
    chk MLR, BLK, OP_MLR_COPY_GOT, 0
    la  $a0, plt0
    li  $a1, {plt_bytes}
    chk MLR, BLK, OP_MLR_PLT_INFO, 0
    li  $v0, SYS_MPROTECT
    la  $a0, plt0
    li  $a1, {plt_bytes}
    li  $a2, 7
    syscall
    chk MLR, BLK, OP_MLR_WRITE_PLT, 0
    li  $v0, SYS_MPROTECT
    la  $a0, plt0
    li  $a1, {plt_bytes}
    li  $a2, 5
    syscall
""".format(got_bytes=4 * entries, plt_bytes=16 * entries)


class AttackVariant:
    """One generated attack: program image + the choices that made it."""

    def __init__(self, attack_class, config, seed, source, image, asm,
                 layout, meta):
        self.attack_class = attack_class
        self.config = config
        self.seed = seed
        self.source = source
        self.image = image
        self.asm = asm
        self.layout = layout          # the *actual* (possibly TRR'd) layout
        self.meta = meta

    def __repr__(self):
        return ("AttackVariant(%s, config=%s, seed=%d)"
                % (self.attack_class, self.config, self.seed))


class AttackRun:
    """Outcome of one variant run, engine-independent fields only."""

    def __init__(self, variant, outcome, reason, detections, cycles,
                 machine=None):
        self.variant = variant
        self.outcome = outcome
        self.reason = reason
        self.detections = detections
        self.cycles = cycles
        self.machine = machine

    def __repr__(self):
        return "AttackRun(%s, %s)" % (self.outcome.value, self.reason)


# ------------------------------------------------------------- generation

def _assumed_frame(frame, stack_headroom=64):
    """Where the attacker believes the service frame's sp lands: under
    the assumed (conventional) layout, whatever the actual one."""
    initial_sp = (MemoryLayout().stack_top - stack_headroom) & ~0x7
    return initial_sp - frame


#: Words in the marker-write shellcode (:func:`shellcode_words`).
_SHELLCODE_LEN = 6


def _draw_stack_geometry(rng, buf_off, ra_off):
    """All random choices of a stack payload, drawn before the one
    assembly: they fix the payload's word count, and so every symbol
    after the request block, before the symbols are known."""
    rt0, rt1 = rng.choice(_SHELLCODE_REGS)
    room_words = (ra_off - buf_off) // 4
    max_sled = max(0, room_words - _SHELLCODE_LEN)
    sled = rng.randrange(0, min(max_sled, 8) + 1)
    entry = rng.randrange(0, sled + 1)          # land on sled or code start
    tail = rng.randrange(0, 4)
    return {"regs": (rt0, rt1), "room_words": room_words,
            "sled": sled, "entry": entry, "tail": tail}


def _stack_payload(geometry, flag_addr, frame, buf_off):
    """Materialize sled + shellcode + padding + return-address words."""
    rt0, rt1 = geometry["regs"]
    code = shellcode_words(flag_addr, rt0=rt0, rt1=rt1)
    sled = geometry["sled"]
    room = geometry["room_words"] - sled
    if len(code) > room:
        raise ValueError("shellcode is %d words but only %d fit between the "
                         "sled and the saved return address"
                         % (len(code), room))
    pad = room - len(code)
    buffer_addr = _assumed_frame(frame) + buf_off
    payload = ([0] * sled + code + [0] * pad
               + [buffer_addr + 4 * geometry["entry"]]
               + [0] * geometry["tail"])
    meta = dict(geometry, buffer_addr=buffer_addr)
    return payload, meta


# Each generator draws its variant's choices and returns
# ``(source, sizes, render)``: ``source(words)`` renders the program with
# the attacker's *words* (``.data`` label -> that block's words),
# ``sizes`` gives each block's word count, and ``render(symbols)``
# computes ``(words, meta)`` from the assembled symbol table.

#: The GOT services' write-bug operands: one word each.
_GOT_WRITE_SIZES = {"write_addr": 1, "write_index": 1, "write_value": 1}

def _gen_stack_smash(rng, mlr):
    frame = rng.choice((96, 112, 128))
    buf_off = rng.choice((16, 24, 32))
    ra_off = frame - 4
    prologue = _MLR_PROLOGUE if mlr else ""
    geometry = _draw_stack_geometry(rng, buf_off, ra_off)

    def source(words):
        return vulnsvc.render_stack_smash(words, frame, buf_off, ra_off,
                                          prologue=prologue)

    def render(symbols):
        payload, meta = _stack_payload(geometry, symbols["secret_flag"],
                                       frame, buf_off)
        meta.update(frame=frame, buf_off=buf_off)
        return {"request": payload}, meta

    count = geometry["room_words"] + 1 + geometry["tail"]
    return source, {"request": count}, render


def _gen_got_hijack(rng, mlr):
    entries = rng.randrange(2, 5)
    victim = rng.randrange(entries)
    primitive = rng.choice(vulnsvc.WRITE_PRIMITIVES)
    prologue = _mlr_got_prologue(entries) if mlr else ""

    def source(words):
        return vulnsvc.render_got_service(entries, primitive, words,
                                          PWNED_MARKER, prologue=prologue)

    def render(symbols):
        if primitive == "indexed":
            write_addr, write_index = symbols["got"], victim
        else:
            write_addr, write_index = symbols["got"] + 4 * victim, 0
        meta = {"entries": entries, "victim": victim,
                "primitive": primitive}
        return ({"write_addr": [write_addr], "write_index": [write_index],
                 "write_value": [symbols["attacker_fn"]]}, meta)

    return source, _GOT_WRITE_SIZES, render


def _gen_smc_patch(rng, mlr):
    filler_pre = rng.randrange(0, 7)
    filler_post = rng.randrange(0, 4)
    reprotect = rng.random() < 0.5
    prologue = _MLR_PROLOGUE if mlr else ""

    def source(words):
        return vulnsvc.render_smc_patch(
            words, PWNED_MARKER, filler_pre=filler_pre,
            filler_post=filler_post, reprotect=reprotect, prologue=prologue)

    def render(symbols):
        victim = symbols["victim_site"]
        patch = encode(SPEC_BY_NAME["j"],
                       target=(symbols["attacker_fn"] >> 2) & 0x03FFFFFF)
        meta = {"filler_pre": filler_pre, "filler_post": filler_post,
                "reprotect": reprotect, "victim_site": victim}
        return {"patch_addr": [victim], "patch_word": [patch]}, meta

    return source, {"patch_addr": 1, "patch_word": 1}, render


def _gen_thread_smash(rng, mlr):
    frame = rng.choice((96, 112, 128))
    buf_off = rng.choice((16, 24, 32))
    ra_off = frame - 4
    nap = 20_000
    delay = rng.randrange(200, 2_000)
    prologue = _MLR_PROLOGUE if mlr else ""
    geometry = _draw_stack_geometry(rng, buf_off, ra_off)

    def source(words):
        return vulnsvc.render_thread_smash(words, frame, ra_off, nap, delay,
                                           prologue=prologue)

    def render(symbols):
        payload, meta = _stack_payload(geometry, symbols["secret_flag"],
                                       frame, buf_off)
        # The cross-thread writer stores word-by-word: sled + shellcode
        # into the assumed buffer, the hijacked return address into the
        # assumed $ra slot.  Padding/tail words stay unwritten.
        frame_sp = _assumed_frame(frame)
        body = payload[:meta["sled"] + _SHELLCODE_LEN]
        addrs = [frame_sp + buf_off + 4 * i for i in range(len(body))]
        addrs.append(frame_sp + ra_off)
        values = body + [meta["buffer_addr"] + 4 * meta["entry"]]
        meta.update(frame=frame, buf_off=buf_off, nap=nap, delay=delay)
        return {"attack_addrs": addrs, "attack_words": values}, meta

    count = geometry["sled"] + _SHELLCODE_LEN + 1
    return source, {"attack_addrs": count, "attack_words": count}, render


def _gen_race_got(rng, mlr):
    entries = rng.randrange(2, 4)
    victim = rng.randrange(entries)
    main_delay = rng.randrange(0, 4)
    racer_delay = rng.randrange(0, 4)
    prologue = _mlr_got_prologue(entries) if mlr else ""
    racer = vulnsvc.render_racer_thread(racer_delay)

    def source(words):
        return vulnsvc.render_got_service(
            entries, "word", words, PWNED_MARKER, prologue=prologue,
            racer=racer, victim=victim, main_delay=main_delay)

    def render(symbols):
        meta = {"entries": entries, "victim": victim,
                "main_delay": main_delay, "racer_delay": racer_delay}
        return ({"write_addr": [symbols["got"] + 4 * victim],
                 "write_index": [0],
                 "write_value": [symbols["attacker_fn"]]}, meta)

    return source, _GOT_WRITE_SIZES, render


_GENERATORS = {"stack-smash": _gen_stack_smash,
               "got-hijack": _gen_got_hijack,
               "smc-patch": _gen_smc_patch,
               "thread-smash": _gen_thread_smash,
               "race-got": _gen_race_got}


def generate_variant(attack_class, seed, config="none"):
    """Deterministically generate one attack variant.

    The same ``(attack_class, seed, config)`` always yields a
    byte-identical program: every random choice comes from one
    ``random.Random(seed)`` stream consumed in a fixed order, and the
    attacker's baked addresses are derived from the *assumed*
    (conventional) layout regardless of the actual one.
    """
    if attack_class not in ATTACK_CLASSES:
        raise ValueError("unknown attack class %r (have: %s)"
                         % (attack_class, ", ".join(ATTACK_CLASSES)))
    tokens = parse_config(config)
    rng = random.Random(seed)
    # The TRR draw happens unconditionally so payload geometry for a
    # given seed is identical across module configurations.
    trr_seed = rng.getrandbits(31)
    layout = (trr_randomize_layout(MemoryLayout(), seed=trr_seed)
              if "trr" in tokens else MemoryLayout())
    source, sizes, render = _GENERATORS[attack_class](rng, "mlr" in tokens)

    # One assembly: the attacker's words fill .data blocks whose sizes
    # do not depend on them, so the zero-word program has the final
    # symbols.  The words computed from those symbols are written into
    # the assembled data at their labels, and the variant's source is
    # rendered from the same words.
    asm = assemble_workload(
        source({label: [0] * size for label, size in sizes.items()}), layout)
    words, meta = render(asm.symbols)
    for label, values in words.items():
        offset = asm.symbols[label] - asm.data_base
        struct.pack_into("<%dI" % len(values), asm.data, offset,
                         *(value & 0xFFFFFFFF for value in values))
    meta["trr_seed"] = trr_seed
    return AttackVariant(attack_class, config, seed, source(words),
                         build_image(asm, layout), asm, layout, meta)


# -------------------------------------------------------------- execution

def _make_stack_executable(kernel, layout):
    """Model the 2004-era executable stack the shellcode relies on.

    Two parts, because mapping *order* must not matter:

    * every page of the architectural stack range gets "rwx" outright —
      the old ``if page in kernel.page_perms`` guard silently left any
      not-yet-mapped stack page non-executable, misclassifying a
      working hijack as CRASHED;
    * stack-area pages mapped *after* this call (the MLR prologue's
      ``SYS_MMAP`` of the randomized region) come up executable too,
      via a map-policy wrapper, so the only thing standing between the
      attacker and the shellcode is the defense itself.
    """
    first = layout.stack_base >> PAGE_SHIFT
    last = (layout.stack_top - 1) >> PAGE_SHIFT
    for page in range(first, last + 1):
        kernel.page_perms[page] = "rwx"
    # The wrapper lives on the kernel, so it holds the kernel weakly.
    original_map = weak_method(kernel._map_range)

    def map_exec(addr, length, perms):
        original_map(addr, length, "rwx" if perms == "rw" else perms)

    kernel._map_range = map_exec


def _classify(flag, reason, completed, detections=0):
    """Shared, engine-independent outcome classification.

    Priority order: a module detection beats everything (the run was
    stopped *because of* the attack), then evidence the attacker's code
    ran, then a crash, then clean completion.  Anything else —
    typically a blown step budget — is UNCLASSIFIED, which the corpus
    treats as a generator/harness bug, never a legitimate result.
    """
    if detections:
        return AttackOutcome.DETECTED
    if flag == PWNED_MARKER:
        return AttackOutcome.HIJACKED
    if reason in ("fault", "recovery_impossible"):
        return AttackOutcome.CRASHED
    if reason in ("halt", "all_exited"):
        return (AttackOutcome.FOILED if completed
                else AttackOutcome.CRASHED)
    return AttackOutcome.UNCLASSIFIED


def _attack_kernel(engine, modules=()):
    """The kernel an attack runs under, and its machine (or None).

    ``engine="pipeline"`` builds the full machine with *modules* on its
    RSE.  The functional engines (``interp`` / ``predecode`` / ``jit``)
    run under the same :class:`~repro.kernel.Kernel` through a
    :class:`~repro.funcsim.core.FunctionalCore`; their only module is
    the MLR, as :class:`~repro.rse.modules.mlr.FunctionalMLR`.
    """
    if engine == "pipeline":
        machine = build_machine(with_rse=bool(modules), modules=modules)
        return machine.kernel, machine
    memory = MainMemory()
    core = FunctionalCore(memory, engine)
    if "mlr" in modules:
        core.sim.chk_handler = FunctionalMLR(core).chk
    return Kernel(core, memory), None


def _run_attack(kernel, image, max_cycles, stack_layout=None, plant=None):
    """Load *image*, set the attack up and run it; returns the RunResult.

    *stack_layout*, for attacks on the stack, gets the 2004-era
    executable stack (:func:`_make_stack_executable`); *plant*, if
    given, is called with the kernel after the load — the slot for the
    attacker's request payload and for module configuration.
    """
    kernel.load_process(image)
    if stack_layout is not None:
        _make_stack_executable(kernel, stack_layout)
    if plant is not None:
        plant(kernel)
    return kernel.run(max_cycles=max_cycles)


def _build_config_machine(machine, asm, modules):
    """Finish a module config's machine once the program is loaded:
    point the RSE modules that watch the program at its text.

    "mlr" needs nothing here: the variant's defense prologue issues the
    CHECK sequence itself, exactly like a real MLR-aware loader.  So a
    functional engine, whose configs hold only trr and mlr, passes no
    machine.
    """
    if "icm" in modules:
        arm_icm(machine, asm.text_base, len(asm.text))
    if "cfc" in modules:
        cfc = machine.module(MODULE_CFC)
        cfc.configure(*build_cfg(machine.memory, asm.text_base,
                                 len(asm.text)))
        machine.rse.enable_module(MODULE_CFC)
    if "ddt" in modules:
        from repro.rse.check import MODULE_DDT
        machine.rse.enable_module(MODULE_DDT)


def run_variant(variant, max_cycles=DEFAULT_MAX_CYCLES, engine="pipeline"):
    """Run a generated variant; returns an :class:`AttackRun`.

    ``engine="pipeline"`` is the full machine (required for module
    configurations beyond none/trr/mlr and for the threaded classes);
    the functional engines run single-threaded variants under the same
    kernel and must classify identically.
    """
    tokens = parse_config(variant.config)
    if engine != "pipeline":
        if variant.attack_class not in FUNCSIM_CLASSES:
            raise ValueError("attack class %r is threaded; it needs the "
                             "pipeline engine" % variant.attack_class)
        unsupported = [t for t in tokens if t not in FUNCSIM_MODULES]
        if unsupported:
            raise ValueError("module config %r needs the pipeline engine "
                             "(RSE modules: %s)"
                             % (variant.config, ", ".join(unsupported)))
    modules = tuple(token for token in tokens if token != "trr")
    kernel, machine = _attack_kernel(engine, modules)

    def plant(kernel):
        _build_config_machine(machine, variant.asm, modules)

    stack_layout = (variant.layout
                    if variant.attack_class in _STACK_CLASSES else None)
    result = _run_attack(kernel, variant.image, max_cycles, stack_layout,
                         plant)
    flag = kernel.memory.load_word(variant.asm.symbols["secret_flag"])
    done = kernel.memory.load_word(variant.asm.symbols["service_done"])
    detections = len(kernel.detections)
    if result.reason == "check_error":
        detections = max(detections, 1)
    if "cfc" in tokens:
        detections += len(machine.module(MODULE_CFC).violations)
    outcome = _classify(flag, result.reason, done, detections)
    return AttackRun(variant, outcome, result.reason, detections,
                     result.cycles, machine=machine)


# --------------------------------------------------------- campaign model

#: AttackOutcome -> campaign Outcome: DETECTED maps onto the module-
#: detection outcome, a successful hijack is (security) corruption, a
#: crash surfaces as an architectural fault, a foiled attack is a benign
#: completion, and UNCLASSIFIED — always a corpus bug — lands on HUNG.
OUTCOME_TO_CAMPAIGN = {
    AttackOutcome.DETECTED: Outcome.DETECTED,
    AttackOutcome.HIJACKED: Outcome.CORRUPTED,
    AttackOutcome.CRASHED: Outcome.FAULTED,
    AttackOutcome.FOILED: Outcome.BENIGN,
    AttackOutcome.UNCLASSIFIED: Outcome.HUNG,
}


@register
class AttackCorpus(FaultModel):
    """Campaign fault model running generated attack variants.

    One campaign = one (attack class, module configuration) cell; the
    per-injection derived seed is the variant seed, so the same campaign
    seed enumerates the same corpus whatever the configuration — that is
    what makes matrix columns comparable.
    """

    name = "attack"
    arm_is_pure = False
    needs_workload = False
    owns_execution = True

    def __init__(self, attack_class="stack-smash", config="none"):
        if attack_class not in ATTACK_CLASSES:
            raise ValueError("unknown attack class %r (have: %s)"
                             % (attack_class, ", ".join(ATTACK_CLASSES)))
        parse_config(config)          # validate early, worker-side too
        self.attack_class = attack_class
        self.config = config

    def build_space(self, ctx):
        return {"attack_class": self.attack_class, "config": self.config}

    def sample(self, rng, space):
        return {"attack_class": space["attack_class"],
                "config": space["config"],
                "variant_seed": rng.getrandbits(31)}

    def execute(self, ctx, injection):
        params = injection.params
        variant = generate_variant(params["attack_class"],
                                   params["variant_seed"],
                                   config=params["config"])
        run = run_variant(variant, max_cycles=ctx.spec.max_cycles)
        outcome = OUTCOME_TO_CAMPAIGN[run.outcome]
        return {"id": injection.id, "model": injection.model,
                "seed": injection.seed, "params": params,
                "outcome": outcome.value, "event": run.reason,
                "pc": 0, "cycles": run.cycles,
                "attack": {"class": variant.attack_class,
                           "config": variant.config,
                           "outcome": run.outcome.value,
                           "detections": run.detections,
                           "hijacked": run.outcome is AttackOutcome.HIJACKED}}
