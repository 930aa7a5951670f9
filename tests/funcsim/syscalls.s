# Every kernel service a single process uses without a network: sbrk,
# print_int, gettid, putc, yield, sleep, rand, spawn, exit and join.
# Prints 77, 1, A, the kernel PRNG's first value and the child's exit
# code (15) on every engine (tests/funcsim/test_kernel_core.py).
main:
    li $v0, SYS_SBRK
    li $a0, 64
    syscall
    move $s0, $v0
    li $t0, 77
    sw $t0, 0($s0)
    lw $a0, 0($s0)
    li $v0, SYS_PRINT_INT
    syscall
    li $v0, SYS_GETTID
    syscall
    move $a0, $v0
    li $v0, SYS_PRINT_INT
    syscall
    li $v0, SYS_PUTC
    li $a0, 65
    syscall
    li $v0, SYS_YIELD
    syscall
    li $v0, SYS_SLEEP
    li $a0, 100
    syscall
    li $v0, SYS_RAND
    syscall
    move $a0, $v0
    li $v0, SYS_PRINT_INT
    syscall
    li $v0, SYS_SPAWN
    la $a0, child
    li $a1, 5
    syscall
    move $a0, $v0
    li $v0, SYS_JOIN
    syscall
    move $a0, $v0
    li $v0, SYS_PRINT_INT
    syscall
    halt

child:
    li $t0, 3
    mul $a0, $a0, $t0
    li $v0, SYS_EXIT
    syscall
