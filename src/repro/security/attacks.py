"""Attack models: layout-dependent exploits against a vulnerable service.

Both attacks here belong to the class the MLR module targets — "these
attacks ... are based on an attacker's knowledge of the memory layout of
a target application":

* **Stack smashing** (:func:`run_stack_smash`): the service copies an
  attacker-controlled request into a fixed-size stack buffer without a
  bounds check.  The payload carries shellcode and overwrites the saved
  return address with the *absolute* address where the attacker expects
  the buffer to live.  2004-era executable stacks are modelled by
  mapping the stack rwx.
* **GOT hijack** (:func:`run_got_hijack`): a format-string-style
  arbitrary-write bug lets the attacker overwrite a GOT entry at its
  *well-known* address, redirecting the next PLT call to an
  attacker-chosen function.

Under a fixed layout both succeed; under TRR or the MLR module the
hardcoded addresses go stale — the stack smash becomes a crash
("essentially converts a security attack into a program crash") and the
GOT hijack writes to abandoned memory and is foiled outright.
"""

import enum

from repro.funcsim.core import FunctionalCore
from repro.isa.encoding import encode
from repro.isa.instructions import SPEC_BY_NAME
from repro.kernel import Kernel
from repro.kernel.kernel import weak_method
from repro.memory.mainmem import PAGE_SHIFT, MainMemory
from repro.program.layout import MemoryLayout
from repro.rse.modules.mlr import FunctionalMLR
from repro.security.trr import trr_randomize_layout
from repro.system import build_machine
from repro.workloads.asmlib import build_workload_image

#: Value the shellcode / attacker function writes when the hijack works.
PWNED_MARKER = 0x31337

REQUEST_CAPACITY = 256
BUFFER_BYTES = 64
FRAME_BYTES = 96
BUFFER_FRAME_OFFSET = 16
RA_FRAME_OFFSET = 92


class AttackOutcome(enum.Enum):
    HIJACKED = "hijacked"          # attacker code ran
    CRASHED = "crashed"            # attack turned into a fault
    FOILED = "foiled"              # service completed unharmed
    DETECTED = "detected"          # an RSE module flagged the attack
    UNCLASSIFIED = "unclassified"  # none of the above (always a bug)


class AttackResult:
    """Outcome plus the run's forensic details."""

    def __init__(self, outcome, result, machine, asm):
        self.outcome = outcome
        self.result = result
        self.machine = machine
        self.asm = asm

    def __repr__(self):
        return "AttackResult(%s, %s)" % (self.outcome.value,
                                         self.result.reason)


# --------------------------------------------------------- stack smashing

_STACK_SMASH_TEMPLATE = """
.data
request:     .space {request_capacity}
request_len: .word 0
secret_flag: .word 0

.text
main:
{defense_prologue}
    jal handle_request
    halt

handle_request:
    addi $sp, $sp, -{frame}
    sw $ra, {ra_off}($sp)
    # memcpy(request, buffer) with the attacker-controlled length: the bug.
    la $t0, request
    lw $t1, request_len
    addi $t2, $sp, {buf_off}
copy_loop:
    beqz $t1, copy_done
    lb $t3, 0($t0)
    sb $t3, 0($t2)
    addi $t0, $t0, 1
    addi $t2, $t2, 1
    addi $t1, $t1, -1
    j copy_loop
copy_done:
    lw $ra, {ra_off}($sp)
    addi $sp, $sp, {frame}
    jr $ra
"""

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


def _shellcode(flag_addr):
    """Attacker payload: set the marker flag, then halt cleanly."""
    lui = SPEC_BY_NAME["lui"]
    ori = SPEC_BY_NAME["ori"]
    sw = SPEC_BY_NAME["sw"]
    halt = SPEC_BY_NAME["halt"]
    t0, t1 = 8, 9
    words = [
        encode(lui, rt=t0, imm=(flag_addr >> 16) & 0xFFFF),
        encode(ori, rt=t0, rs=t0, imm=flag_addr & 0xFFFF),
        encode(lui, rt=t1, imm=(PWNED_MARKER >> 16) & 0xFFFF),
        encode(ori, rt=t1, rs=t1, imm=PWNED_MARKER & 0xFFFF),
        encode(sw, rt=t1, rs=t0, imm=0),
        encode(halt),
    ]
    return b"".join(word.to_bytes(4, "little") for word in words)


def expected_buffer_address(layout, stack_headroom=64):
    """The attacker's layout knowledge: where the victim's buffer lives.

    Derived from the (assumed fixed) conventional layout exactly the way
    an attacker derives it from a local copy of the binary.
    """
    initial_sp = (layout.stack_top - stack_headroom) & ~0x7
    frame_sp = initial_sp - FRAME_BYTES
    return frame_sp + BUFFER_FRAME_OFFSET


def build_stack_smash_payload(flag_addr, assumed_layout=None):
    """Shellcode + padding + return-address overwrite.

    Raises :class:`ValueError` when the shellcode no longer fits between
    the buffer start and the saved return address — padding would go
    negative and ``bytes * negative == b""`` silently truncates the
    payload into garbage instead of failing loudly.
    """
    assumed_layout = assumed_layout or MemoryLayout()
    buffer_addr = expected_buffer_address(assumed_layout)
    shellcode = _shellcode(flag_addr)
    room = RA_FRAME_OFFSET - BUFFER_FRAME_OFFSET
    if len(shellcode) > room:
        raise ValueError(
            "shellcode is %d bytes but only %d bytes fit between the "
            "buffer (frame+%d) and the saved return address (frame+%d)"
            % (len(shellcode), room, BUFFER_FRAME_OFFSET, RA_FRAME_OFFSET))
    payload = bytearray(shellcode)
    payload.extend(b"\x00" * (room - len(payload)))
    payload.extend(buffer_addr.to_bytes(4, "little"))
    return bytes(payload)


def vulnerable_service_program(layout, defense="none"):
    """Assemble the vulnerable service against *layout*."""
    prologue = _MLR_PROLOGUE if defense == "mlr" else "    # no defense"
    source = _STACK_SMASH_TEMPLATE.format(
        request_capacity=REQUEST_CAPACITY,
        frame=FRAME_BYTES,
        ra_off=RA_FRAME_OFFSET,
        buf_off=BUFFER_FRAME_OFFSET,
        defense_prologue=prologue,
    )
    return build_workload_image(source, layout)


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


def run_stack_smash(defense="none", seed=1234, max_cycles=3_000_000,
                    engine="pipeline"):
    """Run the stack-smashing attack under a defense; returns the result.

    defenses: ``"none"`` (fixed layout), ``"trr"`` (software layout
    randomization at load), ``"mlr"`` (hardware module randomization).
    engines: ``"pipeline"`` (the full machine, the default) or any of
    the functional engines (``interp`` / ``predecode`` / ``jit``) under
    the same kernel (:func:`_attack_kernel`) — the outcome is a property
    of the program and must not depend on this choice.
    """
    assumed = MemoryLayout()          # what the attacker believes
    if defense == "trr":
        layout = trr_randomize_layout(assumed, seed=seed)
    else:
        layout = MemoryLayout()
    image, asm = vulnerable_service_program(layout, defense=defense)
    flag_addr = asm.symbols["secret_flag"]
    payload = build_stack_smash_payload(flag_addr, assumed_layout=assumed)

    def plant(kernel):
        kernel.memory.store_bytes(asm.symbols["request"], payload)
        kernel.memory.store_word(asm.symbols["request_len"], len(payload))

    kernel, machine = _attack_kernel(
        engine, ("mlr",) if defense == "mlr" else ())
    result = _run_attack(kernel, image, max_cycles, layout, plant)
    flag = kernel.memory.load_word(flag_addr)
    outcome = _classify(flag, result.reason, 1)
    return AttackResult(outcome, result, machine, asm)


# ------------------------------------------------------------- GOT hijack

_GOT_HIJACK_TEMPLATE = """
.data
got:
    .word log_fn               # GOT entry 0: the logging function
got_new:
    .space 4
write_addr:  .word 0           # the format-string bug's target address
write_value: .word 0           # ... and value
secret_flag: .word 0
log_done:    .word 0

.text
plt0:
    lui $at, hi(got)
    ori $at, $at, lo(got)
    lw  $at, 0($at)
    jr  $at

main:
{defense_prologue}
    # --- the arbitrary-write bug (format-string analogue) ----------------
    lw $t0, write_addr
    beqz $t0, no_write
    lw $t1, write_value
    sw $t1, 0($t0)
no_write:
    # --- normal service work: call the logger through the PLT ------------
    jal plt0
    halt

log_fn:
    la $t0, log_done
    li $t1, 1
    sw $t1, 0($t0)
    jr $ra

attacker_fn:
    la $t0, secret_flag
    li $t1, {marker}
    sw $t1, 0($t0)
    jr $ra
"""

_MLR_GOT_PROLOGUE = """
    chk MLR, NBLK, OP_ENABLE, 0
    la  $a0, got
    li  $a1, 4
    chk MLR, BLK, OP_MLR_GOT_OLD, 0
    la  $a0, got_new
    li  $a1, 0
    chk MLR, BLK, OP_MLR_GOT_NEW, 0
    chk MLR, BLK, OP_MLR_COPY_GOT, 0
    la  $a0, plt0
    li  $a1, 16
    chk MLR, BLK, OP_MLR_PLT_INFO, 0
    li  $v0, SYS_MPROTECT
    la  $a0, plt0
    li  $a1, 16
    li  $a2, 7
    syscall
    chk MLR, BLK, OP_MLR_WRITE_PLT, 0
    li  $v0, SYS_MPROTECT
    la  $a0, plt0
    li  $a1, 16
    li  $a2, 5
    syscall
"""


def run_got_hijack(defense="none", max_cycles=3_000_000, engine="pipeline"):
    """GOT-overwrite attack; *defense* is ``"none"`` or ``"mlr"``.

    *engine* selects the execution engine exactly as in
    :func:`run_stack_smash`.
    """
    layout = MemoryLayout()
    with_mlr = defense == "mlr"
    prologue = _MLR_GOT_PROLOGUE if with_mlr else "    # no defense"
    source = _GOT_HIJACK_TEMPLATE.format(defense_prologue=prologue,
                                         marker=PWNED_MARKER)
    image, asm = build_workload_image(source, layout)

    def plant(kernel):
        # The attacker overwrites the *well-known* (static) GOT slot
        # with the address of attacker_fn.
        kernel.memory.store_word(asm.symbols["write_addr"],
                                 asm.symbols["got"])
        kernel.memory.store_word(asm.symbols["write_value"],
                                 asm.symbols["attacker_fn"])

    kernel, machine = _attack_kernel(engine, ("mlr",) if with_mlr else ())
    result = _run_attack(kernel, image, max_cycles, plant=plant)
    flag = kernel.memory.load_word(asm.symbols["secret_flag"])
    logged = kernel.memory.load_word(asm.symbols["log_done"])
    outcome = _classify(flag, result.reason, logged)
    return AttackResult(outcome, result, machine, asm)
