"""Runtime re-randomization (the Section 4.1 extension).

For long-running programs a layout randomized once at load time becomes
a static target again; the paper proposes periodic *re-randomization*:

    "the compiler analyzes the source code to determine which data items
    are pointer variables ... places the information in a special data
    section ...  Periodically, the process is stopped for
    re-randomization.  The re-randomization routine first locates the
    special data section, then applies a new random offset to data
    pointed to by this section.  The routine then re-maps each memory
    segment to its new address ...  Finally, the routine resumes
    execution of the process."

Our realisation (documented in DESIGN.md as a reproduction of a
*proposed*, not evaluated, mechanism):

* the compiler's "special data section" is a pointer table the program
  registers with the kernel (``register_pointer_table``) — a list of
  addresses of pointer-typed variables;
* :func:`rerandomize_heap` runs with the pipeline drained (the kernel
  only regains control at event boundaries, which is exactly the
  "process is stopped" condition): it relocates every mapped heap page
  by a fresh page-aligned offset, patches each registered pointer that
  points into the heap, updates the kernel's brk/permissions, installs
  a :class:`~repro.program.loader.LoadedProcess` whose layout names the
  new heap base (the loaded image may be shared, so it is never changed
  in place), and charges the copy cost in cycles.
"""

import random

from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE


class RerandomizeReport:
    """What one re-randomization pass did."""

    def __init__(self, delta, pages_moved, pointers_patched, new_base):
        self.delta = delta
        self.pages_moved = pages_moved
        self.pointers_patched = pointers_patched
        self.new_base = new_base

    def __repr__(self):
        return ("RerandomizeReport(delta=0x%x, pages=%d, pointers=%d)"
                % (self.delta, self.pages_moved, self.pointers_patched))


class PointerTable:
    """The "special data section": addresses of pointer variables."""

    def __init__(self, table_addr, count):
        self.table_addr = table_addr
        self.count = count

    def pointer_slots(self, memory):
        """Addresses of the registered pointer variables."""
        return [memory.load_word(self.table_addr + 4 * index)
                for index in range(self.count)]


def register_pointer_table(kernel, table_addr, count):
    """Register the program's pointer table with the kernel."""
    kernel.pointer_table = PointerTable(table_addr, count)
    return kernel.pointer_table


def rerandomize_heap(kernel, rng=None, max_offset_pages=512,
                     copy_cost_per_page=1860):
    """Move the heap to a fresh random base and patch registered pointers.

    Must be called between kernel events (the pipeline is drained then).
    Returns a :class:`RerandomizeReport`.
    """
    if kernel.current is not None and kernel.pipeline.rob:
        raise RuntimeError("re-randomization requires a drained pipeline")
    rng = rng or random.Random(kernel.pipeline.cycle)
    old_base = kernel.loaded.image.layout.heap_base
    old_end = kernel.brk
    delta = rng.randrange(1, max_offset_pages) * PAGE_SIZE
    new_base = old_base + delta

    # Re-map: copy every mapped heap page to its new home, retire the old
    # mapping.  (Copying through the kernel models the remap; a hardware
    # MLR assist would stream it through the MAU.)
    memory = kernel.memory
    pages_moved = 0
    first = old_base >> PAGE_SHIFT
    last = (max(old_end, old_base + PAGE_SIZE) - 1) >> PAGE_SHIFT
    for page in range(first, last + 1):
        if page not in kernel.page_perms:
            continue
        payload = memory.snapshot_page(page)
        memory.restore_page(page + (delta >> PAGE_SHIFT), payload)
        memory.restore_page(page, b"\x00" * PAGE_SIZE)
        kernel.page_perms[page + (delta >> PAGE_SHIFT)] = \
            kernel.page_perms.pop(page)
        pages_moved += 1

    # Patch every registered pointer that pointed into the old heap.
    pointers_patched = 0
    table = getattr(kernel, "pointer_table", None)
    if table is not None:
        for slot in table.pointer_slots(memory):
            value = memory.load_word(slot)
            if old_base <= value < max(old_end, old_base + PAGE_SIZE):
                memory.store_word(slot, (value + delta) & 0xFFFFFFFF)
                pointers_patched += 1

    # The kernel's own view of the heap moves with it.
    kernel.loaded = kernel.loaded.with_heap_base(new_base)
    kernel.brk = old_end + delta
    kernel.pipeline.advance_cycles(copy_cost_per_page * pages_moved)
    return RerandomizeReport(delta, pages_moved, pointers_patched, new_base)
