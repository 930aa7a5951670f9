"""Memory Access Unit (MAU) — Section 3.2.

The MAU performs memory accesses on behalf of RSE modules, eliminating a
per-module bus interface.  A request names the address, access type
(load/store), byte count and where the completion goes: the requesting
module plus a continuation tag (the hardware equivalent: a pointer to
the module's buffer).  Requests are plain data, so a machine with
transfers in flight can be checkpointed and restored.  Requests queue
and are serviced in cyclic (FIFO across modules) order; the MAU shares
the bus interface unit with the pipeline and always loses arbitration
to it (modelled by :meth:`MemoryHierarchy.mau_access`, which also keeps
MAU traffic out of the processor caches).
"""

from collections import deque


class MAURequest:
    """One queued module request.

    On completion the MAU calls ``module.on_mau_complete(request)`` with
    the finished request; *tag* is an opaque continuation token the
    module stashed at submit time (an in-flight check, an IOQ entry).
    A request without a module is fire-and-forget.
    """

    __slots__ = ("module_name", "kind", "addr", "nbytes", "data",
                 "module", "tag", "done_cycle", "result")

    def __init__(self, module_name, kind, addr, nbytes, data=None,
                 module=None, tag=None):
        if kind not in ("load", "store"):
            raise ValueError("kind must be 'load' or 'store'")
        self.module_name = module_name
        self.kind = kind
        self.addr = addr
        self.nbytes = nbytes
        self.data = data              # payload for stores
        self.module = module          # delivery target
        self.tag = tag                # opaque continuation token
        self.done_cycle = None
        self.result = None


class MemoryAccessUnit:
    """FIFO service of module memory requests over the shared bus."""

    #: What a checkpoint carries (:mod:`repro.checkpoint`).
    STATE = ("_queue", "_active", "requests_total", "bytes_loaded",
             "bytes_stored")

    def __init__(self, memory, hierarchy):
        self.memory = memory
        self.hierarchy = hierarchy
        self._queue = deque()
        self._active = None
        self.requests_total = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0

    # ---------------------------------------------------------------- submit

    def load(self, module_name, addr, nbytes, module=None, tag=None):
        """Queue a load of *nbytes* from *addr*; the bytes arrive as the
        finished request's ``result``."""
        request = MAURequest(module_name, "load", addr, nbytes,
                             module=module, tag=tag)
        self._queue.append(request)
        self.requests_total += 1
        return request

    def store(self, module_name, addr, data, module=None, tag=None):
        """Queue a store of *data* to *addr* (completion as for :meth:`load`)."""
        request = MAURequest(module_name, "store", addr, len(data),
                             data=bytes(data), module=module, tag=tag)
        self._queue.append(request)
        self.requests_total += 1
        return request

    # ------------------------------------------------------------------ step

    def step(self, cycle):
        """Advance the MAU one cycle: finish/start requests as the bus allows.

        Returns True when a transfer completed or started.
        """
        active = self._active
        worked = False
        if active is not None:
            if cycle < active.done_cycle:
                return False
            worked = True
            # Transfer completes this cycle: move the data functionally.
            if active.kind == "load":
                active.result = self.memory.load_bytes(active.addr,
                                                       active.nbytes)
                self.bytes_loaded += active.nbytes
            else:
                self.memory.store_bytes(active.addr, active.data)
                self.bytes_stored += active.nbytes
            self._active = None
            if active.module is not None:
                active.module.on_mau_complete(active)
        if self._active is None and self._queue:
            request = self._queue.popleft()
            request.done_cycle = self.hierarchy.mau_access(cycle,
                                                           request.nbytes)
            self._active = request
            worked = True
        return worked

    def next_event(self, cycle):
        """When :meth:`step` next acts: the transfer's completion, *cycle*
        while a request waits to start, None when idle."""
        if self._active is not None:
            return self._active.done_cycle
        return cycle if self._queue else None

    @property
    def busy(self):
        return self._active is not None or bool(self._queue)

    def pending(self):
        return len(self._queue) + (1 if self._active else 0)
