"""Program loader: place a :class:`ProcessImage` into simulated memory.

Responsibilities (mirroring the split the paper describes in
Section 4.1, where "the randomization task is split between the program
loader and the MLR module"):

* copy segments into main memory;
* zero and map the stack, compute the initial stack pointer;
* assemble the *special header* at the layout's header staging area so
  guest code (or the MLR module) can find it;
* produce the page-permission map the kernel enforces (the PLT rewrite
  step needs an explicit permission grant, Figure 3(A) I9/I11).
"""

import copy

from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE
from repro.program.image import HEADER_BYTES


class LoadedProcess:
    """Result of loading: entry state plus the permission map.

    An immutable value: nothing changes it, or the image it names,
    after the load (the kernel keeps its own live permission map), so
    machine checkpoints share it and its deep copy is itself.  A
    change of layout installs a new one (:meth:`with_heap_base`).
    """

    def __init__(self, image, entry, initial_sp, initial_gp, page_perms):
        self.image = image
        self.entry = entry
        self.initial_sp = initial_sp
        self.initial_gp = initial_gp
        self.page_perms = page_perms      # page index -> perms string

    def __deepcopy__(self, memo):
        return self

    def with_heap_base(self, heap_base):
        """This process with its heap moved to *heap_base*.

        The image and its layout may be shared with other loads of the
        same program, so both are copied, never changed in place.
        """
        layout = copy.copy(self.image.layout)
        layout.heap_base = heap_base
        image = copy.copy(self.image)
        image.layout = layout
        return LoadedProcess(image, self.entry, self.initial_sp,
                             self.initial_gp, self.page_perms)

    def __repr__(self):
        return "LoadedProcess(entry=0x%08x, sp=0x%08x)" % (
            self.entry, self.initial_sp)


def _pages_spanning(base, length):
    if length <= 0:
        return range(0)
    first = base >> PAGE_SHIFT
    last = (base + length - 1) >> PAGE_SHIFT
    return range(first, last + 1)


class Loader:
    """Loads process images into a :class:`~repro.memory.mainmem.MainMemory`."""

    def __init__(self, memory):
        self.memory = memory

    def load(self, image, stack_headroom=64):
        """Load *image*; returns a :class:`LoadedProcess`.

        *stack_headroom* bytes are left unused above the initial stack
        pointer (room for a fake return frame, matching common ABIs).
        """
        layout = image.layout
        page_perms = {}

        for segment in image.segments:
            self.memory.store_bytes(segment.base, segment.data)
            for page in _pages_spanning(segment.base, len(segment.data)):
                page_perms[page] = segment.perms

        # Stack: zeroed, rw, grows down from stack_top.
        stack_base = layout.stack_base
        self.memory.store_bytes(stack_base, b"\x00" * layout.stack_bytes)
        for page in _pages_spanning(stack_base, layout.stack_bytes):
            page_perms[page] = "rw"

        # Heap: map one initial page; the sbrk syscall extends it.
        self.memory.store_bytes(layout.heap_base, b"\x00" * PAGE_SIZE)
        page_perms[layout.heap_base >> PAGE_SHIFT] = "rw"

        # Special header staging area (rw so guest loader code can build
        # headers itself, as the paper's library function does).
        self.memory.store_bytes(layout.header_base, image.header.pack())
        for page in _pages_spanning(layout.header_base,
                                    max(HEADER_BYTES, PAGE_SIZE)):
            page_perms[page] = "rw"

        initial_sp = (layout.stack_top - stack_headroom) & ~0x7
        initial_gp = layout.data_base
        return LoadedProcess(image, image.entry, initial_sp, initial_gp,
                             page_perms)
