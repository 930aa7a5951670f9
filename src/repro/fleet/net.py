"""Simulated datagram network connecting the machines of a fleet.

One :class:`NetworkDevice` spans the fleet: each node's kernel gets a
:class:`NetworkInterface` (``kernel.netif``) backing the ``SYS_NSEND`` /
``SYS_NRECV`` syscalls.  Delivery is modelled per *directed link*: a
fixed latency, optional seeded jitter, and an optional seeded drop rate
— all integers, all driven by per-link LCGs, so the same seed produces
the same delivery schedule on every platform.

The device is fleet wiring, not machine state: checkpoints never capture
it (``Kernel.STATE`` does not name ``netif``), and a failover simply
re-``attach``-es the dead node's interface to the spare kernel —
datagrams queued for the node during its downtime are delivered to the
spare.
"""

import heapq
import weakref

from repro.kernel.syscalls import (NODE_ID_LIMIT, NSEND_OK,
                                   NSEND_UNREACHABLE)

MASK32 = 0xFFFFFFFF


class LinkConfig:
    """Delivery model of one directed link.

    All knobs are validated here, in one place (the same discipline as
    :class:`~repro.kernel.kernel.KernelConfig`):

    * ``latency`` must be >= 1: the cycle bridge's conservative
      lookahead is the fleet-wide minimum latency, and a zero-latency
      link would let a sender affect a receiver's *current* cycle.
    * ``jitter`` >= 0 extra cycles, drawn from the link's seeded LCG;
      0 means "no jitter" and the draw is skipped (no ``% 0``).
    * ``drop_permille`` in [0, 1000): that fraction out of 1000
      datagrams is silently dropped.  An integer permille instead of a
      float probability — float thresholds invite cross-platform
      rounding drift in a determinism-critical path.
    """

    def __init__(self, latency=40, jitter=0, drop_permille=0):
        if latency < 1:
            raise ValueError("link latency must be >= 1 cycle, got %r"
                             % (latency,))
        if jitter < 0:
            raise ValueError("link jitter must be >= 0, got %r" % (jitter,))
        if not 0 <= drop_permille < 1000:
            raise ValueError("drop_permille must be in [0, 1000), got %r"
                             % (drop_permille,))
        self.latency = latency
        self.jitter = jitter
        self.drop_permille = drop_permille

    def __repr__(self):
        return ("LinkConfig(latency=%d, jitter=%d, drop_permille=%d)"
                % (self.latency, self.jitter, self.drop_permille))


class NetworkConfig:
    """Fleet-wide topology: a default link plus per-pair overrides."""

    def __init__(self, default_link=None, links=None, seed=0xF1EE7):
        self.default_link = default_link or LinkConfig()
        self.links = dict(links or {})     # (src, dst) -> LinkConfig
        self.seed = seed

    def link(self, src, dst):
        return self.links.get((src, dst), self.default_link)

    def min_latency(self):
        """Smallest latency of any configured link — the bridge lookahead."""
        latencies = [self.default_link.latency]
        latencies.extend(link.latency for link in self.links.values())
        return min(latencies)


class NetworkInterface:
    """One node's view of the device: an ordered receive queue."""

    def __init__(self, device, node_id):
        # The device owns its interfaces (and, through the kernels it
        # wires, their machines): the way back is weak.
        self.device = weakref.proxy(device)
        self.node_id = node_id
        #: Min-heap of (deliver_cycle, seq, src, payload).  ``seq`` is a
        #: device-global monotonic counter: same-cycle deliveries pop in
        #: send order, never in heap-tiebreak order.
        self.rx = []
        self.sent = 0
        self.delivered = 0

    def send(self, dest, payload, cycle):
        self.sent += 1
        return self.device.send(self.node_id, dest, payload, cycle)

    def poll(self, cycle):
        """Pop the next datagram deliverable at *cycle*, or None."""
        if self.rx and self.rx[0][0] <= cycle:
            __, __, src, payload = heapq.heappop(self.rx)
            self.delivered += 1
            return src, payload
        return None

    def next_delivery(self):
        """Cycle of the earliest queued datagram, or None when empty."""
        return self.rx[0][0] if self.rx else None

    def snapshot(self):
        return {"node": self.node_id, "sent": self.sent,
                "delivered": self.delivered, "pending": len(self.rx)}


class NetworkDevice:
    """The fleet's shared network fabric."""

    def __init__(self, node_count, config=None):
        if not 1 <= node_count <= NODE_ID_LIMIT:
            # The ceiling is what keeps SYS_NRECV's NRECV_EMPTY sentinel
            # out of the source-id value space — same reservation rule
            # as RECV_EXHAUSTED for request ids.
            raise ValueError("node_count must be in [1, %d], got %r"
                             % (NODE_ID_LIMIT, node_count))
        self.config = config or NetworkConfig()
        self.node_count = node_count
        self.interfaces = [NetworkInterface(self, node)
                           for node in range(node_count)]
        self.kernels = [None] * node_count
        self.down = set()
        self._seq = 0
        self._link_rng = {}           # (src, dst) -> LCG state
        self.sent = 0
        self.dropped = 0
        self.unreachable = 0

    # --------------------------------------------------------------- wiring

    def attach(self, node_id, kernel):
        """Wire *kernel* as node *node_id* (initial boot or failover)."""
        kernel.netif = self.interfaces[node_id]
        self.kernels[node_id] = kernel
        self.down.discard(node_id)
        # A restored kernel may carry threads blocked in SYS_NRECV with
        # provisional wake cycles; re-aim them at whatever is queued.
        kernel.net_refresh()

    def mark_down(self, node_id):
        """Take a node off the fabric: sends to it become unreachable."""
        self.down.add(node_id)
        self.kernels[node_id] = None

    def lookahead(self):
        return self.config.min_latency()

    def has_pending(self):
        return any(iface.rx for iface in self.interfaces)

    # ------------------------------------------------------------- datapath

    def send(self, src, dst, payload, cycle):
        self.sent += 1
        if not 0 <= dst < self.node_count or dst in self.down:
            self.unreachable += 1
            return NSEND_UNREACHABLE
        link = self.config.link(src, dst)
        if link.drop_permille and self._draw(src, dst) % 1000 < \
                link.drop_permille:
            # Datagram semantics: the sender already got NSEND_OK-style
            # acceptance; the loss is silent, like the wire ate it.
            self.dropped += 1
            return NSEND_OK
        latency = link.latency
        if link.jitter:
            latency += self._draw(src, dst) % link.jitter
        self._seq += 1
        iface = self.interfaces[dst]
        heapq.heappush(iface.rx,
                       (cycle + latency, self._seq, src, payload & MASK32))
        kernel = self.kernels[dst]
        if kernel is not None:
            kernel.net_refresh()
        return NSEND_OK

    def _draw(self, src, dst):
        """Per-link LCG (seeded from the fleet seed and the endpoints)."""
        key = (src, dst)
        state = self._link_rng.get(key)
        if state is None:
            state = (self.config.seed ^ (src << 16) ^ (dst + 1)) & MASK32
            state = (state * 2654435761 + 1) & MASK32
        state = (state * 1103515245 + 12345) & MASK32
        self._link_rng[key] = state
        return state >> 8

    # ---------------------------------------------------------------- stats

    def snapshot(self):
        return {
            "nodes": self.node_count,
            "sent": self.sent,
            "dropped": self.dropped,
            "unreachable": self.unreachable,
            "pending": sum(len(iface.rx) for iface in self.interfaces),
            "down": sorted(self.down),
        }
