"""Whole-machine architectural checkpoint/restore.

Fault-injection campaigns re-simulate the same warmup prefix for every
injection: N injections over a workload whose triggers average T cycles
re-execute N*T redundant cycles.  The injection environments in the
related literature (InjectV, ISAAC) all converge on the same lever —
*snapshot once, fork per fault* — and this module is that lever for the
whole simulated machine:

``Machine.checkpoint()``
    returns a :class:`MachineCheckpoint` — an immutable, self-contained
    copy of every piece of mutable machine state;
``Machine.restore(cp)``
    rewinds the *same* machine to that point.  One checkpoint can be
    restored any number of times; execution after a restore is
    cycle-for-cycle identical to a cold run (`tests/integration/
    test_checkpoint.py` proves this against the difftest oracle).

Design notes
------------

**Memory is copy-on-write against the page table.**  `MainMemory` is
sparse (4 KB pages materialised on first touch) and already versions
every page on store for the predecode cache.  A checkpoint copies only
the materialised pages (:meth:`MainMemory.capture_state`); restore
(:meth:`MainMemory.restore_state`) compares versions and touches only
pages the discarded timeline actually wrote, giving every changed page
a version *strictly above* any it has ever had.  That monotonicity is
the predecode interplay: cached decode closures revalidate by version
equality, so entries for untouched pages stay hot across a restore
while entries for rewound pages can never falsely revalidate.

**Everything else is captured by component, as each class declares
it.**  Capture walks one ``(key, component)`` list — pipeline,
hierarchy, kernel, and with the RSE its engine, MAU, IOQ, self-checker,
input queues and modules — and takes from each only the fields its
class names in ``STATE``.  Wiring, config, callbacks and probe shadows
are not named, so they are never captured and a restore leaves the
target's own in place.  The components are *pinned* in one shared
deepcopy memo, so every cross-reference in the copied state (an
in-flight uop shared between the ROB, the rename map and an IOQ entry;
a thread shared between the kernel and the scheduler; a module named by
a queued MAU request) resolves to one consistent clone or to the
component itself.  Restore deep-copies the stored state again (so the
checkpoint stays pristine) and sets the fields back on the live
components; the fields a class names in ``REFILL`` (the predictor, the
bus and caches, the kernel's page permissions) are refilled in place,
so references to them — probes, the core's permission check — remain
valid across a restore.

**Only what can change is copied.**  Decoded instructions
(:class:`~repro.isa.instructions.Instr`) are immutable values whose
``__deepcopy__`` returns themselves, so the ROB, fetch buffer, IOQ,
input queues and module tables share them with the live machine.
In-flight uops and IOQ entries copy slot by slot, sending only their
object-valued slots (a uop's producers, an entry's uop) through the
memo; caches, predictor, bus and pipeline stats copy their flat
tables directly.

**Pending MAU work is plain data.**  Module->MAU requests carry a
``(module, tag)`` continuation instead of a Python closure, so a machine
with transfers in flight — an ICM fill, a DDT dump, any step of the
MLR's load-time sequence — captures and restores like any other state:
the module is a pinned component and the tag deep-copies with the rest.

The captured boundary is a plain cycle boundary — callers who want the
paper's "drained commit boundary" (architectural state only, empty
ROB) can simply checkpoint when the pipeline is idle; the campaign
runner checkpoints mid-flight and relies on full microarchitectural
capture so forked and cold runs retire identical streams.

Wire format
-----------

:meth:`MachineCheckpoint.to_bytes` / :meth:`MachineCheckpoint
.from_bytes` turn a checkpoint into a self-contained byte string that
can cross a process (or host) boundary — the lever the sharded campaign
service (:mod:`repro.campaign.service`) uses to simulate a warmup
prefix once and ship the warmed image to every worker:

* a fixed **checked header** (magic, format version 6, and the length
  and CRC32 of the pickled body) so a reader rejects foreign, stale,
  truncated or bit-flipped images *before* unpickling anything; a body
  or state that still fails to unpickle is a :class:`CheckpointError`
  too, never a stray exception;
* the **page store is deduplicated** by content — identical pages (the
  zero page under a sparse heap, replicated data segments) serialize
  once, and the page table references blobs by ordinal;
* component state is pickled with the machine's pinned components
  replaced by **pin references** (:class:`_PinRef` ordinal
  placeholders).  The swap happens in the pickler's
  ``reducer_override``, which CPython consults only for objects that
  are not of a builtin type, and unpickling yields the placeholders
  directly.  On restore into a machine of the same shape, each
  placeholder resolves to that machine's own component — the
  deserialized state grafts onto the target machine exactly like a
  live restore.  Restoring into a machine of a different shape
  (protected vs bare, another module set) is a loud
  :class:`CheckpointError` raised before anything changes, not silent
  corruption.

A :class:`CampaignImage` bundles one serialized checkpoint with the
campaign-spec fingerprint it was warmed for plus a metadata dict
(golden results, capture cycle), so a worker can verify it is striking
the campaign it thinks it is before restoring anything.
"""

import copy
import hashlib
import io
import pickle
import struct
import zlib

__all__ = ["CampaignImage", "CheckpointError", "MachineCheckpoint",
           "capture", "restore", "warm"]

#: Wire-format header: magic, little-endian u16 version, then the u32
#: length and CRC32 of the pickled body.  Bump the version whenever the
#: header or payload layout changes; readers reject any version they
#: were not built for, and any body whose length or checksum is off,
#: before unpickling anything.
WIRE_MAGIC = b"RPCP"
#: Version 6: a component's state holds only the fields its class
#: declares, and the pins are exactly the walked components.
#: Version 5: the IOQ holds only its in-flight CHECKs and no allocation
#: count (version 4 mapped every in-flight instruction, non-CHECKs to a
#: shared '10' entry).
#: Version 4 gave a cache's state only its resident sets.
WIRE_VERSION = 6
IMAGE_MAGIC = b"RPCI"
IMAGE_VERSION = 2
_HEADER = struct.Struct("<4sHII")


class CheckpointError(RuntimeError):
    """A checkpoint image cannot be read, or restored onto this machine."""


class _PinRef:
    """Placeholder for a pinned machine component inside wire state.

    Serialized checkpoints cannot carry the live components a capture's
    deepcopy memo preserved, so the wire pickler (:class:`_PinPickler`)
    replaces each with a placeholder holding its ordinal in the
    deterministic :func:`_components` walk; unpickling yields the
    placeholders themselves.  During :func:`restore` the placeholder's
    ``__deepcopy__`` resolves it to the *target* machine's component at
    the same ordinal — outside a restore it deep-copies to itself,
    keeping deserialized checkpoints inert and re-serializable.
    """

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __deepcopy__(self, memo):
        pins = _ACTIVE_PINS
        if pins is None:
            return self
        try:
            return pins[self.index]
        except IndexError:
            raise CheckpointError(
                "checkpoint references pin #%d but the target machine "
                "has only %d components" % (self.index, len(pins)))

    def __reduce__(self):
        return (_PinRef, (self.index,))

    def __repr__(self):
        return "_PinRef(%d)" % self.index


#: Pin list a restore is currently resolving against (single-threaded,
#: like the rest of the simulator).
_ACTIVE_PINS = None


class _PinPickler(pickle.Pickler):
    """Pickles checkpoint state with each pinned component swapped for a
    :class:`_PinRef`.

    CPython consults ``reducer_override`` only for objects that are not
    of a builtin type (never for the ints, strings, lists and dicts
    that make up most of the state), so only machine objects pay for
    the pin lookup.
    """

    def __init__(self, file, pin_ids):
        super().__init__(file, protocol=4)
        self._pin_ids = pin_ids       # id(pin) -> ordinal

    def reducer_override(self, obj):
        ordinal = self._pin_ids.get(id(obj))
        if ordinal is None:
            return NotImplemented
        return _PinRef, (ordinal,)


def _seal(magic, version, body):
    """Prefix *body* with the versioned, length- and CRC-checked header."""
    return _HEADER.pack(magic, version, len(body), zlib.crc32(body)) + body


def _open_wire(payload, magic, version, what):
    """Check a :func:`_seal` header; returns the unpickled body.

    Every way an image can be foreign, stale, truncated or corrupted
    surfaces as :class:`CheckpointError`.
    """
    if len(payload) < _HEADER.size:
        raise CheckpointError("truncated %s image" % what)
    found_magic, found_version, length, crc = _HEADER.unpack_from(payload)
    if found_magic != magic:
        raise CheckpointError(
            "not a %s image (bad magic %r)" % (what, found_magic))
    if found_version != version:
        raise CheckpointError(
            "%s image is format version %d; this build reads only "
            "version %d" % (what, found_version, version))
    body = memoryview(payload)[_HEADER.size:]
    if len(body) != length:
        raise CheckpointError(
            "%s image body is %d bytes; its header says %d (truncated "
            "or padded)" % (what, len(body), length))
    if zlib.crc32(body) != crc:
        raise CheckpointError("%s image fails its checksum" % what)
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(
            "%s image does not unpickle: %s: %s"
            % (what, type(exc).__name__, exc)) from exc


class MachineCheckpoint:
    """An immutable whole-machine snapshot (see module docstring)."""

    __slots__ = ("cycle", "pages", "versions", "_state", "_pins")

    def __init__(self, cycle, pages, versions, state, pins=None):
        self.cycle = cycle          # pipeline cycle at capture
        self.pages = pages          # page index -> bytes (materialised only)
        self.versions = versions    # page index -> write version at capture
        # component key -> {declared field: deep-copied value}, in the
        # order of the capture machine's component walk.
        self._state = state
        # Live captures remember their components so to_bytes() can
        # replace in-state references with ordinals; deserialized
        # checkpoints have none (their state holds _PinRef placeholders).
        self._pins = pins

    def __repr__(self):
        return "MachineCheckpoint(cycle=%d, pages=%d)" % (
            self.cycle, len(self.pages))

    # ------------------------------------------------------------ wire format

    def to_bytes(self):
        """Serialize to a self-contained byte string (versioned, checked
        header, deduplicated page store, pin-substituted component
        state)."""
        blobs = []
        blob_index = {}
        page_blob = {}
        for index in sorted(self.pages):
            payload = self.pages[index]
            ordinal = blob_index.get(payload)
            if ordinal is None:
                ordinal = blob_index[payload] = len(blobs)
                blobs.append(payload)
            page_blob[index] = ordinal

        pin_ids = ({id(pin): ordinal
                    for ordinal, pin in enumerate(self._pins)}
                   if self._pins is not None else {})
        buffer = io.BytesIO()
        _PinPickler(buffer, pin_ids).dump(self._state)
        document = {
            "cycle": self.cycle,
            "versions": self.versions,
            "blobs": blobs,
            "page_blob": page_blob,
            "state": buffer.getvalue(),
        }
        return _seal(WIRE_MAGIC, WIRE_VERSION,
                     pickle.dumps(document, protocol=4))

    @classmethod
    def from_bytes(cls, payload):
        """Deserialize a :meth:`to_bytes` image.

        Rejects anything that is not an intact checkpoint image of
        exactly :data:`WIRE_VERSION` before unpickling the body; any
        failure to decode the body or the state is a
        :class:`CheckpointError`.
        """
        document = _open_wire(payload, WIRE_MAGIC, WIRE_VERSION,
                              "checkpoint")
        try:
            state = pickle.loads(document["state"])
            blobs = document["blobs"]
            pages = {index: blobs[ordinal]
                     for index, ordinal in document["page_blob"].items()}
            return cls(document["cycle"], pages, document["versions"],
                       state)
        except Exception as exc:
            raise CheckpointError(
                "malformed checkpoint image: %s: %s"
                % (type(exc).__name__, exc)) from exc


class CampaignImage:
    """A serialized warmed machine image bound to a campaign fingerprint.

    The sharded campaign service simulates the warmup prefix once,
    captures the machine, and ships this bundle to every worker; a
    worker refuses to strike unless :attr:`fingerprint` matches the
    spec it was handed (:meth:`verify`), so an image can never be
    silently reused across campaign configurations.
    """

    __slots__ = ("fingerprint", "payload", "meta")

    def __init__(self, fingerprint, payload, meta=None):
        self.fingerprint = fingerprint   # CampaignSpec.fingerprint()
        self.payload = payload           # MachineCheckpoint.to_bytes()
        self.meta = dict(meta or {})     # golden results, capture cycle, ...

    def checkpoint(self):
        """Deserialize the bundled :class:`MachineCheckpoint`."""
        return MachineCheckpoint.from_bytes(self.payload)

    def verify(self, fingerprint):
        if self.fingerprint != fingerprint:
            raise CheckpointError(
                "campaign image was warmed for fingerprint %s, not %s"
                % (self.fingerprint, fingerprint))
        return self

    def digest(self):
        """Content digest of the machine image (shard-merge audits)."""
        return hashlib.sha256(self.payload).hexdigest()[:16]

    def to_bytes(self):
        document = {"fingerprint": self.fingerprint,
                    "payload": self.payload, "meta": self.meta}
        return _seal(IMAGE_MAGIC, IMAGE_VERSION,
                     pickle.dumps(document, protocol=4))

    @classmethod
    def from_bytes(cls, payload):
        document = _open_wire(payload, IMAGE_MAGIC, IMAGE_VERSION,
                              "campaign")
        try:
            return cls(document["fingerprint"], document["payload"],
                       document["meta"])
        except Exception as exc:
            raise CheckpointError(
                "malformed campaign document: %s: %s"
                % (type(exc).__name__, exc)) from exc

    def __repr__(self):
        return "CampaignImage(fingerprint=%s, %d bytes)" % (
            self.fingerprint, len(self.payload))


def _components(machine):
    """The ``(key, component)`` pairs a checkpoint walks, in pin order.

    Each component's class declares what a checkpoint carries of it: the
    field names in ``STATE``, and in ``REFILL`` those of them that
    restore refills in place rather than replaces (see :func:`restore`).
    Every other attribute — wiring, config, callbacks, probe shadows —
    is never captured and stays on the machine it belongs to.
    """
    components = [("pipeline", machine.pipeline),
                  ("hierarchy", machine.hierarchy),
                  ("kernel", machine.kernel)]
    rse = machine.rse
    if rse is not None:
        components += [("rse", rse), ("mau", rse.mau), ("ioq", rse.ioq),
                       ("selfcheck", rse.selfcheck)]
        components += [(queue.name, queue)
                       for queue in rse.queues.all_queues()]
        components += [("%s %d" % (type(module).__name__, module_id), module)
                       for module_id, module in rse.modules.items()]
    return components


def warm(machine):
    """Does nothing: a capture reads only declared fields, so there is
    no per-class cache left to fill.  Kept under its name because
    perfbench's span table wraps ``repro.checkpoint.warm``."""


def capture(machine):
    """Snapshot *machine*; returns a :class:`MachineCheckpoint`."""
    pages, versions = machine.memory.capture_state()
    components = _components(machine)
    pins = [component for __, component in components]
    state = {key: {name: getattr(component, name)
                   for name in component.STATE}
             for key, component in components}
    memo = {id(pin): pin for pin in pins}
    return MachineCheckpoint(machine.pipeline.cycle, pages, versions,
                             copy.deepcopy(state, memo), pins=pins)


def _describe(refilled):
    """A refilled object's class, and its geometry if it has one."""
    geometry = getattr(refilled, "geometry", None)
    return "a %s%s" % (type(refilled).__name__,
                       "" if geometry is None else " %s" % (geometry,))


def restore(machine, checkpoint):
    """Rewind *machine* to *checkpoint* (reusable; returns *machine*).

    Works for live checkpoints (captured in this process) and wire
    checkpoints (:meth:`MachineCheckpoint.from_bytes`) alike.  Either
    way each component of the capture machine maps to *machine*'s own
    component at the same ordinal — a wire checkpoint's pin references
    through :class:`_PinRef`, a live one's captured pins through the
    deepcopy memo — so the target must have the same components, and
    each object restore refills in place the same class and geometry (a
    cache's size, associativity and block size; a predictor's table
    sizes).  Both are checked before anything changes.  A live
    checkpoint restored onto another machine therefore grafts in that
    machine's modules, never a clone of the donor's.

    Each declared field is set on its live component, except those the
    class names in ``REFILL``: a dict (the kernel's page permissions,
    which the core's ``mem_check`` probe holds) takes the stored contents,
    and an object (predictor, bus, caches) takes the stored values of its
    own ``STATE``, so probes attached to it keep counting.
    """
    global _ACTIVE_PINS

    components = _components(machine)
    keys = [key for key, __ in components]
    if list(checkpoint._state) != keys:
        raise CheckpointError(
            "checkpoint was captured on a machine with components [%s]; "
            "this machine has [%s] — build the target with the same "
            "configuration (RSE and modules)"
            % (", ".join(checkpoint._state), ", ".join(keys)))
    for key, component in components:
        stored_fields = checkpoint._state[key]
        for name in getattr(component, "REFILL", ()):
            live, stored = getattr(component, name), stored_fields.get(name)
            if (type(stored) is not type(live)
                    or getattr(stored, "geometry", None)
                    != getattr(live, "geometry", None)):
                raise CheckpointError(
                    "checkpoint's %s.%s is %s; this machine's is %s — "
                    "build the target with the same configuration"
                    % (key, name, _describe(stored), _describe(live)))
    pins = [component for __, component in components]
    # Re-copy the stored state with the target's pins so the checkpoint
    # survives this restore untouched and can be restored again.
    captured = checkpoint._pins if checkpoint._pins is not None else pins
    memo = {id(old): pin for old, pin in zip(captured, pins)}
    _ACTIVE_PINS = pins
    try:
        state = copy.deepcopy(checkpoint._state, memo)
    finally:
        _ACTIVE_PINS = None
    machine.memory.restore_state(checkpoint.pages, checkpoint.versions)
    for key, component in components:
        refill = getattr(component, "REFILL", ())
        for name, value in state[key].items():
            if name not in refill:
                setattr(component, name, value)
                continue
            live = getattr(component, name)
            if type(value) is dict:
                live.clear()
                live.update(value)
            else:
                for field in live.STATE:
                    setattr(live, field, getattr(value, field))
    return machine
