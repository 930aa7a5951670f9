"""Multi-node port of the Figure 9 server workload (fleet runs).

Each fleet node runs one instance of this program: the Fig 9 server
(:mod:`repro.workloads.server`), rendered from its template with the
request path verbatim — SYS_RECV, LCG hash, shared per-class
accumulator page, batched stats flush, SYS_SEND — and its empty slots
filled with a gossip step over the simulated network: after every
response the worker

* ``SYS_NSEND``-s the response value to the node's ring peer
  (``(node + 1) % nodes``, baked into the image), and
* takes one non-blocking ``SYS_NRECV`` poll, folding any peer digest
  into a shared ``netstats`` page.

When its request source is exhausted the worker runs a bounded *drain*
loop, polling for stragglers from slower peers before exiting.  The
drain window is timed with SYS_CYCLE using the wrap-safe modular-delta
idiom (``sub`` then ``sltu`` on the 32-bit difference — see
``repro.kernel.syscalls``): fleet runs are long enough, and failover
jumps clocks far enough, that raw cycle comparison would break at the
2^32 wrap.  Datagrams still in flight when the whole program halts are
dropped; gossip is best-effort by design.
"""

from repro.program.layout import MemoryLayout
from repro.workloads import server
from repro.workloads.asmlib import build_workload_image

DEFAULT_WORK_ITERS = 60
DEFAULT_CLASSES = 4
DEFAULT_STATS_BATCH = 8
DEFAULT_DRAIN_CYCLES = 20_000
DEFAULT_DRAIN_POLL_GAP = 500

_NETSTATS = """
# Peer gossip fold: digests received over the network.
netstats:
    .word 0                    # digests folded
    .word 0                    # digest xor
"""

_GOSSIP = """
    # ---- gossip: digest to the ring peer, one poll for theirs -----------
    li $v0, SYS_NSEND
    li $a0, {peer}
    move $a1, $s1
    syscall
    li $v0, SYS_NRECV
    li $a0, 1                  # NRECV_POLL: never block the request path
    syscall
    li $t1, -1
    beq $v0, $t1, no_gossip
    jal fold_digest
no_gossip:
"""

_FOLD_DIGEST = """
# Fold one received digest ($a1, from node $v0) into netstats.
fold_digest:
    la  $t3, netstats
    lw  $t4, 0($t3)
    addi $t4, $t4, 1
    sw  $t4, 0($t3)
    lw  $t4, 4($t3)
    xor $t4, $t4, $a1
    sw  $t4, 4($t3)
    jr $ra

# ---- bounded drain: poll for straggler digests, then exit --------------
# The window is timed with the wrap-safe modular delta: sub gives the
# 32-bit difference (exact for any interval < 2^32 even across a wrap),
# sltu compares it unsigned against the window.  Comparing raw SYS_CYCLE
# values here would deadlock a worker that straddles the wrap.
"""

_DRAIN = """
    li $v0, SYS_CYCLE
    syscall
    move $s6, $v0              # drain window start (low 32 bits)
drain_loop:
    li $v0, SYS_NRECV
    li $a0, 1                  # poll
    syscall
    li $t1, -1
    beq $v0, $t1, drain_wait
    jal fold_digest
    j drain_loop
drain_wait:
    li $v0, SYS_CYCLE
    syscall
    sub  $t0, $v0, $s6         # modular elapsed (wrap-safe)
    li   $t2, {drain_cycles}
    sltu $t1, $t0, $t2
    beqz $t1, drain_over       # window expired
    li $v0, SYS_SLEEP
    li $a0, {drain_poll_gap}
    syscall
    j drain_loop
drain_over:
"""


def source(node, nodes, workers, work_iters=DEFAULT_WORK_ITERS,
           classes=DEFAULT_CLASSES, stats_batch=DEFAULT_STATS_BATCH,
           drain_cycles=DEFAULT_DRAIN_CYCLES,
           drain_poll_gap=DEFAULT_DRAIN_POLL_GAP):
    """Assembly source for fleet node *node* of *nodes*."""
    if not 0 <= node < nodes:
        raise ValueError("node %r outside fleet of %d" % (node, nodes))
    if drain_cycles < 1 or drain_poll_gap < 1:
        raise ValueError("drain window and poll gap must be >= 1")
    return server.source(
        workers, work_iters, classes, stats_batch, data=_NETSTATS,
        respond=_GOSSIP.format(peer=(node + 1) % nodes),
        routines=_FOLD_DIGEST,
        drain=_DRAIN.format(drain_cycles=drain_cycles,
                            drain_poll_gap=drain_poll_gap))


def program(node, nodes, workers, work_iters=DEFAULT_WORK_ITERS,
            classes=DEFAULT_CLASSES, stats_batch=DEFAULT_STATS_BATCH,
            drain_cycles=DEFAULT_DRAIN_CYCLES,
            drain_poll_gap=DEFAULT_DRAIN_POLL_GAP, layout=None):
    """Build the per-node server image; returns ``(image, asm)``."""
    return build_workload_image(
        source(node, nodes, workers, work_iters, classes, stats_batch,
               drain_cycles, drain_poll_gap),
        layout or MemoryLayout())
