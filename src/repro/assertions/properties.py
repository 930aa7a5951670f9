"""The property catalog: microarchitectural invariants, written once.

Every property is a small state machine over **engine-neutral events**
(see :mod:`repro.assertions.adapters` for how each engine produces
them), so the same invariant text runs unchanged on the reference
interpreter, the predecode closure engine and the out-of-order
pipeline.  The event vocabulary:

=============  =========================================================
event          payload
=============  =========================================================
retire         ``pc``, ``observed_next`` (where the engine says control
               goes next; None for serializing instructions),
               ``derived_next`` (an independent recomputation from the
               ISA semantics tables, when the engine can afford one),
               ``serializing``, ``injected`` (runtime-inserted CHECK)
store          ``pc``, ``addr``, ``size``, ``value``, ``memory`` —
               emitted when a store takes architectural effect
jump           ``pc``, ``dest``, ``rs``, ``link``, ``rs_before`` (source
               register value before execution, None when the engine
               cannot observe it), ``target``, ``register_jump``,
               ``link_written`` (value left in the link register)
forward        ``pc``, ``addr``, ``size``, ``forwarded``, ``stores``
               (older in-window stores as ``(addr, size)`` pairs) —
               pipeline load-issue disambiguation decision
redirect       ``pc`` — a platform-sanctioned control discontinuity
               (context switch, fault handling, restore); resets any
               cross-retire expectations
ioq_alloc      ``entry`` — a CHECK's IOQ entry allocated
ioq_gate       ``entry``, ``verdict``, ``safe_mode`` — Table 1 commit
               gate consulted for a CHECK
checkpoint     ``pending_orphans`` — whole-machine capture
restore        ``memory``, ``checkpoint``, ``pre_versions``
finish         ``memory`` — end of monitoring (final sweeps)
=============  =========================================================

A property declares which engines can host it (``engines``); the
monitor instantiates one checker per supported property per run.
Properties observe *architectural* IOQ bits, never the stuck-at
effective bits: injected stuck-at faults are Table 2 territory and
belong to the self-checking watchdog, so a checker seeing a stuck-at
override on an entry stands down rather than double-reporting.
"""

import weakref

from repro.isa import predecode
from repro.memory.mainmem import PAGE_SHIFT, PAGE_SIZE

MASK32 = 0xFFFFFFFF

ALL_ENGINES = ("interp", "predecode", "pipeline")

#: property id -> checker class, in catalog order.
PROPERTIES = {}


def register(cls):
    if cls.id in PROPERTIES:
        raise ValueError("duplicate property id %r" % cls.id)
    PROPERTIES[cls.id] = cls
    return cls


def catalog():
    """``[(id, description, engines)]`` for every registered property."""
    return [(cls.id, cls.description, cls.engines)
            for cls in PROPERTIES.values()]


def select(engine, properties=None):
    """Checker classes for *engine*, optionally restricted to ids."""
    if properties is None:
        wanted = list(PROPERTIES)
    else:
        wanted = list(properties)
        unknown = [pid for pid in wanted if pid not in PROPERTIES]
        if unknown:
            raise KeyError("unknown assertion propert%s %s (available: %s)"
                           % ("y" if len(unknown) == 1 else "ies",
                              ", ".join(unknown), ", ".join(PROPERTIES)))
    return [PROPERTIES[pid] for pid in wanted
            if engine in PROPERTIES[pid].engines]


#: Monitored engines run the JIT funcsim deopted onto the predecode
#: closure path (per-instruction observation forces it), so its
#: property support is exactly the predecode engine's.
_ENGINE_ALIASES = {"jit": "predecode"}


def shared_properties(engine_a, engine_b):
    """Ids of properties both engines support (difftest comparability)."""
    engine_a = _ENGINE_ALIASES.get(engine_a, engine_a)
    engine_b = _ENGINE_ALIASES.get(engine_b, engine_b)
    return {pid for pid, cls in PROPERTIES.items()
            if engine_a in cls.engines and engine_b in cls.engines}


class PropertyChecker:
    """Base class: one instance per property per monitored run."""

    id = None
    description = ""
    engines = ALL_ENGINES

    def __init__(self, monitor):
        # The monitor owns its checkers and their handlers: weak back.
        self.monitor = weakref.proxy(monitor)

    def violate(self, detail, pc=None, operands=None):
        self.monitor.violation(self.id, detail, pc=pc, operands=operands)


def _store_mask(size):
    return (1 << (8 * size)) - 1


@register
class StoreReachesMemory(PropertyChecker):
    """Every committed store's bytes must be readable back from memory."""

    id = "store-reaches-memory"
    description = ("a store that takes architectural effect leaves "
                   "exactly its bytes in memory")
    engines = ALL_ENGINES

    def on_store(self, pc, addr, size, value, memory):
        expected = value & _store_mask(size)
        try:
            actual = int.from_bytes(memory.load_bytes(addr, size), "little")
        except Exception as exc:
            self.violate("store at 0x%08x unreadable after commit: %s"
                         % (addr, exc), pc=pc,
                         operands={"addr": addr, "size": size})
            return
        if actual != expected:
            self.violate(
                "store of 0x%x to 0x%08x reads back 0x%x"
                % (expected, addr, actual), pc=pc,
                operands={"addr": addr, "size": size,
                          "expected": expected, "actual": actual})


@register
class NoPartialForward(PropertyChecker):
    """A load may only forward from a fully containing older store."""

    id = "load-no-partial-forward"
    description = ("a load never issues past — and never forwards from — "
                   "an older store that only partially overlaps it")
    engines = ("pipeline",)

    def on_forward(self, pc, addr, size, forwarded, stores):
        lo, hi = addr, addr + size
        contained = False
        for store_addr, store_size in stores:
            s_lo, s_hi = store_addr, store_addr + store_size
            if s_lo < hi and lo < s_hi:          # any overlap
                if s_lo <= lo and hi <= s_hi:
                    contained = True
                else:
                    self.violate(
                        "load [0x%08x,+%d) issued past partial-overlap "
                        "store [0x%08x,+%d)" % (addr, size, store_addr,
                                                store_size),
                        pc=pc, operands={"load_addr": addr,
                                         "load_size": size,
                                         "store_addr": store_addr,
                                         "store_size": store_size})
                    return
        if forwarded and not contained:
            self.violate("load at 0x%08x forwarded with no containing "
                         "older store" % addr, pc=pc,
                         operands={"load_addr": addr, "load_size": size})


@register
class LinkBeforeTarget(PropertyChecker):
    """jal/jalr write the link register before the target is read."""

    id = "jalr-link-before-target"
    description = ("linking jumps write pc+4 to the link register before "
                   "reading the jump target (visible when rd == rs)")
    engines = ALL_ENGINES

    def on_jump(self, pc, dest, rs, link, rs_before, target, register_jump,
                link_written):
        if dest and link_written is not None and link_written != link:
            self.violate(
                "link register r%d holds 0x%08x, expected 0x%08x"
                % (dest, link_written, link), pc=pc,
                operands={"dest": dest, "link": link,
                          "written": link_written})
        if not register_jump or target is None:
            return
        if dest and dest == rs:
            expected = link          # the freshly written link value
        elif rs_before is not None:
            expected = rs_before
        else:
            return
        if target != expected:
            self.violate(
                "register jump went to 0x%08x, expected 0x%08x"
                % (target, expected), pc=pc,
                operands={"rs": rs, "dest": dest, "target": target,
                          "expected": expected})


@register
class RetireAlignment(PropertyChecker):
    """Only 4-aligned pcs — decoded instruction boundaries — retire."""

    id = "retire-alignment"
    description = "every retired instruction sits on a 4-byte boundary"
    engines = ALL_ENGINES

    def on_retire(self, pc, observed_next, derived_next, serializing,
                  injected):
        if pc & 3:
            self.violate("retired pc 0x%08x is not 4-aligned" % pc, pc=pc,
                         operands={"pc": pc})


@register
class RetireContiguity(PropertyChecker):
    """Control flow only lands where the previous retire said it would."""

    id = "retire-contiguity"
    description = ("each retired pc equals the previous instruction's "
                   "next-pc; engine-reported targets match an independent "
                   "recomputation from the ISA semantics when available")

    engines = ALL_ENGINES

    def __init__(self, monitor):
        super().__init__(monitor)
        self.expected = None

    def on_redirect(self, pc):
        self.expected = None

    def on_retire(self, pc, observed_next, derived_next, serializing,
                  injected):
        if self.expected is not None and pc != self.expected:
            self.violate(
                "control landed at 0x%08x, previous instruction "
                "retired toward 0x%08x" % (pc, self.expected), pc=pc,
                operands={"pc": pc, "expected": self.expected})
        if (derived_next is not None and observed_next is not None
                and observed_next != derived_next):
            self.violate(
                "engine says next pc 0x%08x, ISA semantics say 0x%08x"
                % (observed_next, derived_next), pc=pc,
                operands={"observed": observed_next,
                          "derived": derived_next})
        self.expected = observed_next


def _stuck(entry):
    return (entry.stuck_check_valid is not None
            or entry.stuck_check is not None)


@register
class IOQAllocEncoding(PropertyChecker):
    """Table 1 initial encoding: a CHECK's entry allocates '00'.

    Only CHECKs have IOQ entries (every other instruction's is the
    constant '10'), so only CHECK entries are shown.
    """

    id = "ioq-alloc-encoding"
    description = ("CHECK IOQ entries allocate in the Table 1 initial "
                   "state: checkValid/check = 00")
    engines = ("pipeline",)

    def on_ioq_alloc(self, entry):
        if _stuck(entry):
            return          # injected stuck-at: the watchdog's to report
        if entry.check_valid != 0 or entry.check != 0:
            self.violate(
                "entry seq=%d allocated as %d%d, expected 00"
                % (entry.seq, entry.check_valid, entry.check),
                pc=entry.uop.pc,
                operands={"seq": entry.seq,
                          "check_valid": entry.check_valid,
                          "check": entry.check})


@register
class IOQValidBeforeConsume(PropertyChecker):
    """Commit stalls on '00': checkValid is set before commit consumes it."""

    id = "ioq-valid-before-consume"
    description = ("the commit gate only answers ok/error once the "
                   "module wrote checkValid — a CHECK stalls until its "
                   "module answers (or the framework is decoupled)")
    engines = ("pipeline",)

    def on_ioq_gate(self, entry, verdict, safe_mode):
        if verdict not in ("ok", "error"):
            return
        if safe_mode or entry is None or _stuck(entry):
            return          # decoupled / squashed / watchdog territory
        if entry.check_valid != 1:
            self.violate(
                "commit consumed CHECK seq=%d with checkValid=%d "
                "(module never answered)" % (entry.seq, entry.check_valid),
                pc=entry.uop.pc,
                operands={"seq": entry.seq, "verdict": verdict,
                          "check_valid": entry.check_valid})
        elif entry.check == 1 and verdict != "error":
            self.violate(
                "CHECK seq=%d carries check=1 but the gate answered %r"
                % (entry.seq, verdict), pc=entry.uop.pc,
                operands={"seq": entry.seq, "verdict": verdict})


@register
class MAUQuiesceCheckpoint(PropertyChecker):
    """Every MAU request a checkpoint captures can be delivered on restore."""

    id = "mau-quiesce-before-checkpoint"
    description = ("a whole-machine checkpoint never captures a pending "
                   "MAU request for a module the RSE does not attach (a "
                   "restore would deliver it to an orphaned copy)")
    engines = ("pipeline",)

    def on_checkpoint(self, pending_orphans):
        if pending_orphans:
            self.violate("checkpoint captured while the MAU held requests "
                         "for a module the RSE does not attach",
                         operands={"pending_orphans": True})


@register
class PageVersionMonotonic(PropertyChecker):
    """Restore never rolls a page's write version backwards."""

    id = "page-version-monotonic"
    description = ("page write versions never decrease across a restore, "
                   "and restored pages read back the checkpoint's bytes")
    engines = ("pipeline",)

    def on_restore(self, memory, checkpoint, pre_versions):
        versions = memory.write_versions
        for page, old in pre_versions.items():
            new = versions.get(page, 0)
            if new < old:
                self.violate(
                    "page %d write version went %d -> %d across restore"
                    % (page, old, new),
                    operands={"page": page, "before": old, "after": new})
                return
        for page, payload in checkpoint.pages.items():
            base = page << PAGE_SHIFT
            actual = memory.load_bytes(base, PAGE_SIZE)
            if bytes(actual) != bytes(payload):
                offset = next(i for i in range(PAGE_SIZE)
                              if actual[i] != payload[i])
                self.violate(
                    "restored page %d differs from checkpoint at 0x%08x"
                    % (page, base + offset),
                    operands={"page": page, "offset": offset})
                return


@register
class PredecodeCoherence(PropertyChecker):
    """A cached closure whose version matches must match memory's word."""

    id = "predecode-coherence"
    description = ("a predecode cache entry that revalidates by version "
                   "equality decodes the word memory actually holds "
                   "(no false revalidation, e.g. after restore)")
    engines = ("predecode", "pipeline")

    def on_restore(self, memory, checkpoint, pre_versions):
        self._sweep(memory)

    def on_finish(self, memory):
        self._sweep(memory)

    def _sweep(self, memory):
        cache = predecode.cache_of(memory)
        if cache is None:
            return
        versions = memory.write_versions
        for pc, entry in cache.entries.items():
            if versions.get(pc >> PAGE_SHIFT, 0) != entry[0]:
                continue          # stale by version: will refill, fine
            try:
                word = memory.load_word(pc)
            except Exception:
                continue          # page vanished: entry cannot revalidate
            if word != entry[2]:
                self.violate(
                    "cache entry at pc=0x%08x revalidates against "
                    "word 0x%08x but memory holds 0x%08x"
                    % (pc, entry[2], word), pc=pc,
                    operands={"pc": pc, "cached": entry[2], "memory": word})
                return
