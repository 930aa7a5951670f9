"""Vulnerable-service program templates for the attack corpus.

:mod:`repro.security.attackgen` composes attack variants out of these
renderers the way :mod:`repro.difftest` composes random programs out of
idioms: each renderer takes the knobs a variant randomizes (frame
geometry, GOT width, delay counts, filler amounts, payload words) and
returns complete assembly source for one **self-classifying** guest
program.  Conventions every template follows:

* ``service_done`` is set to 1 immediately before the clean ``halt`` —
  "the service survived" is architectural state, not a heuristic;
* ``secret_flag`` receives the PWNED marker if and only if
  attacker-chosen code runs — "the hijack worked" is architectural
  state too;
* attacker inputs are **baked into .data as words** (no host-side pokes
  after load), so the identical program bytes run identically on the
  kernel/pipeline path and the functional-engine guest shim.  Each
  renderer takes them as one *words* mapping from the ``.data`` label
  of a block to the block's words, and a block's size never depends on
  the values, so the generator assembles once with zero words and
  writes the real ones at those labels;
* every function reached only through an indirect transfer has an
  unreachable ``jal`` registration stub after the final ``halt``: the
  CFC's static CFG derives legal indirect landing sites from ``jal``
  targets and return sites, and a benign service must not trip it.

These are the repo's only vulnerable-service templates: the paper's
Section 4.1 stack smash and GOT hijack are the ``stack-smash`` and
``got-hijack`` variants rendered from them.
"""

#: Service-completion / hijack-marker data block shared by all templates.
_COMMON_DATA = """\
service_done: .word 0
secret_flag:  .word 0
"""

_SET_DONE_AND_HALT = """\
    la $t0, service_done
    li $t1, 1
    sw $t1, 0($t0)
    halt
"""


def render_words(words, per_line=8):
    """``.word`` lines for a list of 32-bit values."""
    lines = []
    for index in range(0, len(words), per_line):
        chunk = words[index:index + per_line]
        lines.append("    .word " + ", ".join("0x%08X" % (w & 0xFFFFFFFF)
                                              for w in chunk))
    return "\n".join(lines) if lines else "    .word 0"


def registration_stub(names):
    """Unreachable ``jal`` block registering indirect-call targets."""
    if not names:
        return ""
    lines = ["cfc_register:"]
    lines += ["    jal %s" % name for name in names]
    return "\n".join(lines)


# ----------------------------------------------------------- stack smashing

_STACK_SMASH = """\
.data
request:
{request}
request_len:  .word {request_len}
{common_data}

.text
main:
{prologue}
    jal handle_request
{done_halt}

handle_request:
    addi $sp, $sp, -{frame}
    sw $ra, {ra_off}($sp)
    # memcpy(buffer, request, request_len): the planted bug — the copy
    # trusts the attacker-controlled length.
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


def render_stack_smash(words, frame, buf_off, ra_off, prologue=""):
    """The unbounded-copy service with the attack ``request`` baked in."""
    request = words["request"]
    return _STACK_SMASH.format(
        request=render_words(request),
        request_len=len(request) * 4,
        common_data=_COMMON_DATA,
        prologue=prologue or "    # no defense prologue",
        done_halt=_SET_DONE_AND_HALT,
        frame=frame, buf_off=buf_off, ra_off=ra_off)


# -------------------------------------------------------------- GOT hijack

_GOT_SERVICE = """\
.data
got:
{got_words}
got_new:
    .space {got_bytes}
write_addr:   .word {write_addr}
write_index:  .word {write_index}
write_value:  .word {write_value}
log_done:     .word 0
{common_data}

.text
{plt_entries}
main:
{prologue}
    # --- the arbitrary-write bug (format-string analogue) ---------------
{write_block}
    # --- normal service work: call every logger through its PLT entry ---
{service_calls}
{done_halt}

{log_fns}
attacker_fn:
    la $t0, secret_flag
    li $t1, {marker}
    sw $t1, 0($t0)
    jr $ra

{registration}
"""

#: The three write primitives a GOT-hijack variant randomizes over.
WRITE_PRIMITIVES = ("word", "bytes", "indexed")

_WRITE_BLOCKS = {
    # One aligned word store — the classic primitive.
    "word": """\
    lw $t0, write_addr
    lw $t1, write_value
    sw $t1, 0($t0)""",
    # Four byte stores, low byte first — a %hhn-style primitive.
    "bytes": """\
    lw $t0, write_addr
    lw $t1, write_value
    sb $t1, 0($t0)
    srl $t1, $t1, 8
    sb $t1, 1($t0)
    srl $t1, $t1, 8
    sb $t1, 2($t0)
    srl $t1, $t1, 8
    sb $t1, 3($t0)""",
    # Base + scaled index — an out-of-bounds table write.
    "indexed": """\
    lw $t0, write_addr
    lw $t2, write_index
    sll $t2, $t2, 2
    add $t0, $t0, $t2
    lw $t1, write_value
    sw $t1, 0($t0)""",
}


def _plt_entry(index):
    return """\
plt{i}:
    lui $at, hi(got)
    ori $at, $at, lo(got)
    lw  $at, {off}($at)
    jr  $at""".format(i=index, off=4 * index)


def _log_fn(index):
    return """\
log_fn{i}:
    la $t0, log_done
    lw $t1, log_done
    addi $t1, $t1, 1
    sw $t1, 0($t0)
    jr $ra""".format(i=index)


def render_got_service(entries, primitive, words, marker, prologue="",
                       racer=None, victim=0, main_delay=0):
    """The multi-entry GOT/PLT service with the write bug baked in: one
    word each at ``write_addr``, ``write_index`` and ``write_value``.

    With *racer* (assembly text for a second thread plus its spawn/
    validate/delay scaffolding rendered by the caller through
    :func:`render_race_main`), the same data/plt/log scaffolding hosts
    the TOCTOU variant; without it the write block runs inline in main.
    """
    got_words = "\n".join("    .word log_fn%d" % i for i in range(entries))
    plt_entries = "\n\n".join(_plt_entry(i) for i in range(entries))
    log_fns = "\n\n".join(_log_fn(i) for i in range(entries))
    if racer is None:
        write_block = _WRITE_BLOCKS[primitive]
        service_calls = "\n".join("    jal plt%d" % i for i in range(entries))
        tail = ""
    else:
        write_block = "    # (write primitive lives in the racer thread)"
        service_calls = render_race_main(entries, victim, main_delay)
        tail = racer
    source = _GOT_SERVICE.format(
        got_words=got_words,
        got_bytes=4 * entries,
        write_addr=words["write_addr"][0],
        write_index=words["write_index"][0],
        write_value=words["write_value"][0],
        common_data=_COMMON_DATA,
        plt_entries=plt_entries,
        prologue=prologue or "    # no defense prologue",
        write_block=write_block,
        service_calls=service_calls,
        done_halt=_SET_DONE_AND_HALT,
        log_fns=log_fns,
        marker=marker,
        registration=registration_stub(
            ["log_fn%d" % i for i in range(entries)]))
    return source + ("\n" + tail if tail else "")


def render_race_main(entries, victim, main_delay):
    """Main-thread body of the TOCTOU race: spawn, validate, delay, call.

    The service *does* validate the GOT entry before using it — the bug
    is the yield window between the check and the use.
    """
    return """\
    la $a0, racer
    li $v0, SYS_SPAWN
    syscall
    # validate the entry about to be called (time-of-check) ...
    la $t0, got
    lw $t0, {off}($t0)
    la $t1, log_fn{victim}
    bne $t0, $t1, refuse
    li $t5, {delay}
main_spin:
    beqz $t5, do_call
    li $v0, SYS_YIELD
    syscall
    addi $t5, $t5, -1
    j main_spin
do_call:
    # ... and use it (time-of-use), one yield window later.
    jal plt{victim}
refuse:""".format(off=4 * victim, victim=victim, delay=main_delay)


def render_racer_thread(racer_delay):
    """The malicious thread of the TOCTOU race: delay, write, exit."""
    return """\
racer:
    li $t5, {delay}
racer_spin:
    beqz $t5, racer_write
    li $v0, SYS_YIELD
    syscall
    addi $t5, $t5, -1
    j racer_spin
racer_write:
    lw $t0, write_addr
    lw $t1, write_value
    sw $t1, 0($t0)
    li $v0, SYS_EXIT
    syscall""".format(delay=racer_delay)


# ------------------------------------------------------- self-modifying code

_SMC_PATCH = """\
.data
patch_addr:   .word {patch_addr}
patch_word:   .word {patch_word}
{common_data}

.text
main:
{prologue}
    # Open the text page for writing (2004-era mprotect gadget), then
    # apply the baked patch: the planted arbitrary-write-to-text bug.
    li $v0, SYS_MPROTECT
    la $a0, victim_site
    li $a1, 4
    li $a2, 7
    syscall
    lw $t0, patch_addr
    lw $t1, patch_word
    sw $t1, 0($t0)
{reprotect}
    jal service_fn
{done_halt}

service_fn:
{filler_pre}
victim_site:
    j victim_return
{filler_post}
victim_return:
    jr $ra

attacker_fn:
    la $t0, secret_flag
    li $t1, {marker}
    sw $t1, 0($t0)
    halt

cfc_register:
    jal service_fn
"""

_REPROTECT = """\
    li $v0, SYS_MPROTECT
    la $a0, victim_site
    li $a1, 4
    li $a2, 5
    syscall"""


def render_smc_patch(words, marker, filler_pre=0, filler_post=0,
                     reprotect=False, prologue=""):
    """The self-patching service: overwrite a direct jump in .text with
    the ``patch_word`` baked for ``patch_addr``."""
    return _SMC_PATCH.format(
        patch_addr=words["patch_addr"][0],
        patch_word=words["patch_word"][0],
        common_data=_COMMON_DATA,
        prologue=prologue or "    # no defense prologue",
        reprotect=_REPROTECT if reprotect else "    # page left writable",
        done_halt=_SET_DONE_AND_HALT,
        filler_pre="\n".join(["    nop"] * filler_pre) or "    nop",
        filler_post="\n".join(["    nop"] * filler_post) or "    nop",
        marker=marker)


# --------------------------------------------------------- malicious thread

_THREAD_SMASH = """\
.data
attack_addrs:
{attack_addrs}
attack_words:
{attack_words}
attack_count: .word {count}
{common_data}

.text
main:
{prologue}
    la $a0, attacker_thread
    li $v0, SYS_SPAWN
    syscall
    jal service_wait
{done_halt}

service_wait:
    addi $sp, $sp, -{frame}
    sw $ra, {ra_off}($sp)
    li $a0, {nap_cycles}
    li $v0, SYS_SLEEP
    syscall
    lw $ra, {ra_off}($sp)
    addi $sp, $sp, {frame}
    jr $ra

attacker_thread:
    li $a0, {attacker_delay}
    li $v0, SYS_SLEEP
    syscall
    # Cross-thread smash: write shellcode + return address into where
    # the attacker *believes* the sleeping main thread's frame lives.
    la $t0, attack_addrs
    la $t1, attack_words
    lw $t2, attack_count
write_loop:
    beqz $t2, write_done
    lw $t3, 0($t0)
    lw $t4, 0($t1)
    sw $t4, 0($t3)
    addi $t0, $t0, 4
    addi $t1, $t1, 4
    addi $t2, $t2, -1
    j write_loop
write_done:
    li $v0, SYS_EXIT
    syscall
"""


def render_thread_smash(words, frame, ra_off, nap_cycles, attacker_delay,
                        prologue=""):
    """Service naps in a frame; a malicious sibling thread stores each of
    ``attack_words`` at the matching one of ``attack_addrs``."""
    addrs, values = words["attack_addrs"], words["attack_words"]
    if len(addrs) != len(values):
        raise ValueError("addrs/values length mismatch: %d != %d"
                         % (len(addrs), len(values)))
    return _THREAD_SMASH.format(
        attack_addrs=render_words(addrs),
        attack_words=render_words(values),
        count=len(addrs),
        common_data=_COMMON_DATA,
        prologue=prologue or "    # no defense prologue",
        done_halt=_SET_DONE_AND_HALT,
        frame=frame, ra_off=ra_off,
        nap_cycles=nap_cycles, attacker_delay=attacker_delay)
