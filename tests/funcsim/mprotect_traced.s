# The traced variant of mprotect.s: five r-x passes make `loop` hot
# enough for the trace JIT to compile a trace there, then pass 6 makes
# the text page rw.  The mprotect syscall returns straight into that
# trace's head, so the fetch check must be asked at a trace head too:
# every engine faults at `loop` (tests/funcsim/test_kernel_core.py).
main:
    li $s0, 0
    li $a2, 5
prot:
    li $v0, SYS_MPROTECT
    la $a0, main
    li $a1, 4096
    syscall
loop:
    addi $s0, $s0, 1
    li $t0, 7
    beq $s0, $t0, done
    li $t0, 6
    bne $s0, $t0, prot
    li $a2, 3
    j prot
done:
    halt
