"""Multithreaded network server workload (Section 5.4 / Figure 9).

"The performance overhead of the DDT is measured using a multithreaded
network server ... threads independently serve web requests, and
dependency occurs only when two threads read from and write to the same
memory page."  We reproduce that structure:

* a pool of worker threads, each looping: ``SYS_RECV`` (blocks for the
  simulated network latency — the source of the I/O parallelism that
  makes runtime drop as threads are added), per-request computation
  (an LCG hash loop), shared-state updates, ``SYS_SEND``;
* shared memory pages: a statistics page every worker read-modify-writes
  and a table of per-class accumulator pages (request id modulo N), so
  page ownership migrates between threads and produces both SavePage
  checkpoints and logged dependencies;
* the main thread spawns the pool and then polls a shared
  ``done_count`` page (with ``SYS_YIELD``) until every worker exits.

The template leaves empty slots for programs built on this server
(:mod:`repro.workloads.fleet_server`): ``data`` after the class pages,
``respond`` after each ``SYS_SEND``, ``routines`` after the stats
flush routine and ``drain`` between the worker's last flush and its
exit.

Each run handles a fixed number of requests (the paper: "we vary the
number of threads and measure the time for the server to handle one
hundred requests").
"""

from repro.program.layout import MemoryLayout
from repro.workloads.asmlib import build_workload_image

DEFAULT_WORK_ITERS = 120
DEFAULT_CLASSES = 6

_SOURCE_TEMPLATE = """
.data
# Shared statistics page: counters all workers read-modify-write.
stats:
    .word 0                    # total requests served
    .word 0                    # running response checksum
    .word 0                    # max request id seen
.align 12
# Per-class accumulator pages (request id % {classes}); page-aligned so
# each class is its own unit of DDT tracking.
class_pages:
{class_page_words}
{data}
done_count:
    .word 0

.text
main:
    li $s0, {workers}          # workers to spawn
    beqz $s0, all_spawned
spawn_loop:
    li $v0, SYS_SPAWN
    la $a0, worker
    move $a1, $s0
    syscall
    addi $s0, $s0, -1
    bnez $s0, spawn_loop
all_spawned:

wait_loop:
    li $v0, SYS_YIELD
    syscall
    lw $t0, done_count
    li $t1, {workers}
    bne $t0, $t1, wait_loop
    halt

# ---------------------------------------------------------------- worker
worker:
    li $s2, 0                  # locally served (since last stats flush)
    li $s3, 0                  # local checksum accumulator
    li $s5, 0                  # local max request id
worker_loop:
    li $v0, SYS_RECV
    syscall
    li $t1, -1
    beq $v0, $t1, worker_done
    move $s0, $v0              # request id

    # ---- per-request computation: LCG hash over the request -----------
    move $t0, $s0
    li $t2, {work_iters}
hash_loop:
    li  $t3, 1664525
    mul $t0, $t0, $t3
    li  $t3, 1013904223
    add $t0, $t0, $t3
    xor $t0, $t0, $s0
    addi $t2, $t2, -1
    bnez $t2, hash_loop
    move $s1, $t0              # response value

    # ---- shared per-class accumulator page ------------------------------
    li  $t1, {classes}
    remu $t2, $s0, $t1         # class index
    sll $t2, $t2, 12           # * page size
    la  $t3, class_pages
    add $t3, $t3, $t2
    lw  $t4, 0($t3)            # read the class accumulator (dependency!)
    add $t4, $t4, $s1
    sw  $t4, 0($t3)            # write it back (ownership migration)
    lw  $t4, 4($t3)
    addi $t4, $t4, 1
    sw  $t4, 4($t3)            # per-class request count

    # ---- local statistics, flushed to the shared page in batches --------
    addi $s2, $s2, 1
    xor  $s3, $s3, $s1
    slt  $at, $s5, $s0
    beqz $at, no_new_max
    move $s5, $s0
no_new_max:
    andi $t4, $s2, {stats_batch_mask}
    bnez $t4, no_flush
    jal  flush_stats
no_flush:

    # ---- respond ----------------------------------------------------------
    li $v0, SYS_SEND
    move $a0, $s0
    move $a1, $s1
    syscall
{respond}
    j worker_loop

# Merge the local counters into the shared statistics page.
flush_stats:
    beqz $s2, flush_ret
    la  $t3, stats
    lw  $t4, 0($t3)
    add $t4, $t4, $s2
    sw  $t4, 0($t3)            # total served
    lw  $t4, 4($t3)
    xor $t4, $t4, $s3
    sw  $t4, 4($t3)            # checksum
    lw  $t4, 8($t3)
    slt $at, $t4, $s5
    beqz $at, flush_no_max
    sw  $s5, 8($t3)
flush_no_max:
    li $s2, 0
    li $s3, 0
flush_ret:
    jr $ra
{routines}
worker_done:
    jal flush_stats
{drain}
    la $t0, done_count
    lw $t1, 0($t0)
    addi $t1, $t1, 1
    sw $t1, 0($t0)
    li $v0, SYS_EXIT
    li $a0, 0
    syscall
"""


DEFAULT_STATS_BATCH = 8


def source(workers, work_iters=DEFAULT_WORK_ITERS, classes=DEFAULT_CLASSES,
           stats_batch=DEFAULT_STATS_BATCH, data="", respond="", routines="",
           drain=""):
    """Assembly source for a pool of *workers*, with the slots filled."""
    if stats_batch & (stats_batch - 1):
        raise ValueError("stats_batch must be a power of two")
    class_page_words = "\n".join(
        "    .space 4096" for __ in range(classes))
    return _SOURCE_TEMPLATE.format(
        workers=workers,
        work_iters=work_iters,
        classes=classes,
        stats_batch_mask=stats_batch - 1,
        class_page_words=class_page_words,
        data=data,
        respond=respond,
        routines=routines,
        drain=drain,
    )


def program(workers, work_iters=DEFAULT_WORK_ITERS, classes=DEFAULT_CLASSES,
            stats_batch=DEFAULT_STATS_BATCH, layout=None):
    """Build the server image for a pool of *workers* threads."""
    return build_workload_image(
        source(workers, work_iters, classes, stats_batch),
        layout or MemoryLayout())
