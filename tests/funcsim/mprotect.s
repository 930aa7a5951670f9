# mprotect on code that already ran: pass 1 makes the text page r-x,
# pass 2 makes it rw and then jumps back into code that has already
# run.  Every engine must fault at the first fetch after the second
# mprotect, the `j loop` at 0x00400034, after 25 instructions
# (tests/funcsim/test_kernel_core.py).
main:
    li $s0, 0
loop:
    addi $s0, $s0, 1
    li $t0, 3
    beq $s0, $t0, done
    li $a2, 5
    li $t0, 2
    bne $s0, $t0, prot
    li $a2, 3
prot:
    li $v0, SYS_MPROTECT
    la $a0, main
    li $a1, 4096
    syscall
    j loop
done:
    halt
