"""Sparse, paged main memory with byte/half/word access.

A 32-bit physical address space backed lazily by 4 KB ``bytearray``
pages.  Little-endian, like the SimpleScalar host ISA.  The same object
serves the pipeline, the functional simulator, the kernel (page
checkpoints are literal copies of these pages) and the RSE's Memory
Access Unit.
"""

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_MASK = 0xFFFFFFFF


class MemoryFault(Exception):
    """An illegal memory access (bad alignment or a protection violation).

    The kernel turns these into thread faults; the MLR security argument
    is exactly that a foiled attack becomes such a fault (a crash) rather
    than a hijack.
    """

    def __init__(self, addr, reason):
        super().__init__("%s at 0x%08x" % (reason, addr))
        self.addr = addr
        self.reason = reason


class MainMemory:
    """Sparse 32-bit byte-addressable memory.

    Pages are materialised on first touch and zero-filled, so "fresh"
    memory reads as zero — convenient for ``.space`` data and stacks.

    Every store bumps a per-page counter in :attr:`write_versions`
    (pages never written do not appear; their version is 0).  Consumers
    that cache derived views of memory — the predecode cache in
    :mod:`repro.isa.predecode` is the canonical one — record the
    version at build time and revalidate against it, so self-modifying
    code, fault-injection corruption of the text segment, and page
    restores all invalidate correctly without the memory knowing who is
    caching.
    """

    def __init__(self):
        self._pages = {}
        self.write_versions = {}

    # ------------------------------------------------------------- pages

    def _page(self, addr):
        index = addr >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def page_numbers(self):
        """Page indices that have been materialised (for checkpoint tooling)."""
        return sorted(self._pages)

    def snapshot_page(self, page_index):
        """Return a copy of page *page_index* without materialising it.

        A never-touched page reads as zeros, and snapshotting one must
        not allocate it: a snapshot is an observation, and growing
        ``_pages`` as a side effect would make ``page_numbers()`` (and
        every consumer that iterates materialised pages, the checkpoint
        layer included) depend on snapshot history.
        """
        page = self._pages.get(page_index)
        if page is None:
            return bytes(PAGE_SIZE)
        return bytes(page)

    def zero_range(self, addr, length):
        """Make ``[addr, addr + length)`` read as zeros without
        materialising a page.

        A page never touched already reads as zero and stays absent, at
        version 0.  A page that exists has the overlapping bytes cleared
        and its write version bumped once, so a predecode entry cached
        from it cannot revalidate.  The loader maps stack and heap this
        way: a fresh process costs what it touches, not its stack size.
        """
        pages = self._pages
        versions = self.write_versions
        end = addr + length
        while addr < end:
            index = addr >> PAGE_SHIFT
            stop = min(end, (index + 1) << PAGE_SHIFT)
            page = pages.get(index)
            if page is not None:
                offset = addr & PAGE_MASK
                page[offset:offset + stop - addr] = bytes(stop - addr)
                versions[index] = versions.get(index, 0) + 1
            addr = stop

    def restore_page(self, page_index, payload):
        """Overwrite page *page_index* with *payload* (must be PAGE_SIZE long)."""
        if len(payload) != PAGE_SIZE:
            raise ValueError("page payload must be %d bytes" % PAGE_SIZE)
        self._pages[page_index] = bytearray(payload)
        versions = self.write_versions
        versions[page_index] = versions.get(page_index, 0) + 1

    # -------------------------------------------------- whole-memory capture

    def capture_state(self):
        """Snapshot every materialised page plus the version map.

        Returns ``(pages, versions)`` where *pages* maps page index to
        an immutable ``bytes`` copy and *versions* is a copy of
        :attr:`write_versions`.  Never-touched pages are not captured —
        they read as zeros before and after, which is the copy-on-write
        half of the checkpoint layer: a checkpoint costs one page copy
        per *materialised* page, not one per addressable page.
        """
        return ({index: bytes(page) for index, page in self._pages.items()},
                dict(self.write_versions))

    def restore_state(self, pages, versions):
        """Rewind memory to a :meth:`capture_state` snapshot.

        Version bookkeeping is what keeps cached derived views (the
        predecode cache) correct across a rewind:

        * a page whose version is unchanged since capture was never
          written in the discarded timeline — its bytes are already
          right, so it is left alone and cached views of it stay valid;
        * a changed page gets the captured bytes back and a version
          *strictly above* every version the discarded timeline used
          (never the captured number again), so stale cached views can
          never revalidate;
        * a page materialised only after the capture is dropped, with
          the same monotonic bump if it had been written.
        """
        live = self._pages
        current = self.write_versions
        for index in set(live) | set(pages):
            captured_version = versions.get(index, 0)
            current_version = current.get(index, 0)
            payload = pages.get(index)
            if payload is None:
                # Materialised after the capture: forget it entirely.
                del live[index]
                if current_version:
                    current[index] = current_version + 1
            elif current_version != captured_version or index not in live:
                live[index] = bytearray(payload)
                current[index] = max(current_version, captured_version) + 1

    # ------------------------------------------------------------- bytes

    def load_bytes(self, addr, length):
        addr &= ADDR_MASK
        out = bytearray()
        while length > 0:
            offset = addr & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            page = self._page(addr)
            out.extend(page[offset:offset + chunk])
            addr = (addr + chunk) & ADDR_MASK
            length -= chunk
        return bytes(out)

    def store_bytes(self, addr, payload):
        addr &= ADDR_MASK
        versions = self.write_versions
        view = memoryview(payload)
        while view:
            offset = addr & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            page = self._page(addr)
            page[offset:offset + chunk] = view[:chunk]
            index = addr >> PAGE_SHIFT
            versions[index] = versions.get(index, 0) + 1
            addr = (addr + chunk) & ADDR_MASK
            view = view[chunk:]

    # ----------------------------------------------------- scalar accesses

    def load_word(self, addr):
        """Load a naturally-aligned 32-bit little-endian word."""
        if addr & 3:
            raise MemoryFault(addr, "unaligned word load")
        page = self._page(addr)
        offset = addr & PAGE_MASK
        return int.from_bytes(page[offset:offset + 4], "little")

    def store_word(self, addr, value):
        if addr & 3:
            raise MemoryFault(addr, "unaligned word store")
        page = self._page(addr)
        offset = addr & PAGE_MASK
        page[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        index = addr >> PAGE_SHIFT
        versions = self.write_versions
        versions[index] = versions.get(index, 0) + 1

    def load_half(self, addr):
        if addr & 1:
            raise MemoryFault(addr, "unaligned halfword load")
        page = self._page(addr)
        offset = addr & PAGE_MASK
        return int.from_bytes(page[offset:offset + 2], "little")

    def store_half(self, addr, value):
        if addr & 1:
            raise MemoryFault(addr, "unaligned halfword store")
        page = self._page(addr)
        offset = addr & PAGE_MASK
        page[offset:offset + 2] = (value & 0xFFFF).to_bytes(2, "little")
        index = addr >> PAGE_SHIFT
        versions = self.write_versions
        versions[index] = versions.get(index, 0) + 1

    def load_byte(self, addr):
        return self._page(addr)[addr & PAGE_MASK]

    def store_byte(self, addr, value):
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF
        index = addr >> PAGE_SHIFT
        versions = self.write_versions
        versions[index] = versions.get(index, 0) + 1

    # ------------------------------------------------------------ strings

    def load_cstring(self, addr, limit=4096):
        """Read a NUL-terminated latin-1 string (debug / syscall helper).

        Scans whole page slices (one ``find`` per page) rather than one
        :meth:`load_byte` round trip per character.
        """
        out = bytearray()
        remaining = limit
        while remaining > 0:
            offset = addr & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            segment = self._page(addr)[offset:offset + chunk]
            nul = segment.find(0)
            if nul >= 0:
                out += segment[:nul]
                break
            out += segment
            addr = (addr + chunk) & ADDR_MASK
            remaining -= chunk
        return out.decode("latin-1")
