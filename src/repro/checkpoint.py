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

**Everything else is captured by component, through one shared
``deepcopy``.**  The machine's singletons — memory, hierarchy, pipeline,
RSE engine, MAU, IOQ, input queues, self-checker, modules, kernel — are
*pinned* in the deepcopy memo, so the capture copies their mutable
fields while every cross-reference (an in-flight uop shared between the
ROB, the rename map and an IOQ entry; a thread shared between the
kernel and the scheduler) resolves to one consistent clone.  Restore
deep-copies the stored state again (so the checkpoint stays pristine)
and grafts the fields back onto the live objects — external references
to the machine's components, and to its branch predictor and bus,
remain valid across a restore.

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
the module is a pinned singleton and the tag deep-copies with the rest.

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

* a fixed **checked header** (magic, format version 4, and the length
  and CRC32 of the pickled body) so a reader rejects foreign, stale,
  truncated or bit-flipped images *before* unpickling anything; a body
  or state that still fails to unpickle is a :class:`CheckpointError`
  too, never a stray exception;
* the **page store is deduplicated** by content — identical pages (the
  zero page under a sparse heap, replicated data segments) serialize
  once, and the page table references blobs by ordinal;
* component state is pickled with the machine's pinned singletons
  replaced by **pin references** (:class:`_PinRef` ordinal
  placeholders).  The swap happens in the pickler's
  ``reducer_override``, which CPython consults only for objects that
  are not of a builtin type, and unpickling yields the placeholders
  directly.  On restore into a machine of the same shape, each
  placeholder resolves to that machine's own singleton — the
  deserialized state grafts onto the target machine exactly like a
  live restore.  Restoring into a machine of a different shape
  (protected vs bare) is a loud :class:`CheckpointError`, not silent
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
#: Version 4: a cache's state holds only its resident sets, keyed by
#: set index (version 3 had a list of every set).
WIRE_VERSION = 4
IMAGE_MAGIC = b"RPCI"
IMAGE_VERSION = 2
_HEADER = struct.Struct("<4sHII")


class CheckpointError(RuntimeError):
    """A checkpoint image cannot be read, or restored onto this machine."""


#: Per-component fields that are wiring or derived caches, not mutable
#: machine state: left untouched by restore.
_PIPELINE_SKIP = frozenset((
    "memory", "hierarchy", "config", "rse", "check_injector", "mem_check",
    "_predecode",
))
_ENGINE_SKIP = frozenset((
    "memory", "hierarchy", "queues", "ioq", "mau", "selfcheck",
    "modules", "_fetch_readers", "_execute_readers", "_mem_load_readers",
    "_commit_readers", "_squash_readers", "_store_readers", "_steppers",
))
_MAU_SKIP = frozenset(("memory", "hierarchy"))
_QUEUE_SKIP = frozenset(("name", "depth"))
_SELFCHECK_SKIP = frozenset(("engine",))
_MODULE_SKIP = frozenset(("engine", "name", "save_page_handler"))
_KERNEL_SKIP = frozenset((
    # "netif" is fleet wiring, not machine state: a checkpoint restored
    # onto a spare node must keep the *spare's* network interface, and a
    # NetworkInterface references the cross-machine device anyway.
    "pipeline", "memory", "rse", "config", "snapshot_provider", "netif",
))


class _PinRef:
    """Placeholder for a pinned machine singleton inside wire state.

    Serialized checkpoints cannot carry the live singletons a capture's
    deepcopy memo preserved, so the wire pickler (:class:`_PinPickler`)
    replaces each with a placeholder holding its ordinal in the
    deterministic :func:`_pins` list; unpickling yields the
    placeholders themselves.  During
    :func:`restore` the placeholder's ``__deepcopy__`` resolves it to
    the *target* machine's singleton at the same ordinal — outside a
    restore it deep-copies to itself, keeping deserialized checkpoints
    inert and re-serializable.
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
                "has only %d pinned components — it was captured on a "
                "differently shaped machine" % (self.index, len(pins)))

    def __reduce__(self):
        return (_PinRef, (self.index,))

    def __repr__(self):
        return "_PinRef(%d)" % self.index


#: Pin list a restore is currently resolving against (single-threaded,
#: like the rest of the simulator).
_ACTIVE_PINS = None


class _PinPickler(pickle.Pickler):
    """Pickles checkpoint state with each pinned singleton swapped for a
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

    __slots__ = ("cycle", "pages", "versions", "_state", "_pins",
                 "pin_count")

    def __init__(self, cycle, pages, versions, state, pins=None,
                 pin_count=None):
        self.cycle = cycle          # pipeline cycle at capture
        self.pages = pages          # page index -> bytes (materialised only)
        self.versions = versions    # page index -> write version at capture
        self._state = state         # per-component deep-copied field dicts
        # Live captures remember their pinned singletons so to_bytes()
        # can replace in-state references with ordinals; deserialized
        # checkpoints have no live pins (their state holds _PinRef
        # placeholders) but remember how many the capture machine had.
        self._pins = pins
        self.pin_count = (len(pins) if pin_count is None and pins is not None
                          else pin_count)

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
            "pin_count": self.pin_count,
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
                       state, pins=None, pin_count=document["pin_count"])
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


#: class -> tuple of instance attribute names, learned from the first
#: instance captured.  Reading ``obj.__dict__`` materialises a managed
#: dict on the instance, and CPython (3.11+) then permanently drops the
#: inline-values LOAD_ATTR fast path for that object — measured at ~20%
#: on the whole-pipeline simulation rate.  Caching the names per class
#: and walking them with ``getattr`` keeps every machine captured after
#: the first one (and the first one too, if :func:`warm` ran) at full
#: speed.  Safe because every captured class assigns all of its fields
#: in ``__init__``; a field that appears only on later instances would
#: be a bug this cache turns into a loud AttributeError on capture.
_FIELD_NAMES = {}


def state_fields(obj):
    """Names of *obj*'s state attributes, learned once per class.

    An instance attribute shadowing a method of the class (an obs
    probe's or assertion adapter's wrapper) instruments this one object
    and is left out, whichever instance the class is learned from.
    """
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            name for name in obj.__dict__
            if not callable(getattr(cls, name, None)))
    return names


def _fields(obj, skip=frozenset()):
    return {name: getattr(obj, name) for name in state_fields(obj)
            if name not in skip}


def _graft(obj, fields, refill=()):
    """Set *fields* on *obj*; the fields named in *refill* take their
    clone's contents in place instead of being replaced: a component a
    probe may instrument, so wrappers attached to it keep counting, or a
    dict a closure reads (the kernel's page permissions, which the
    core's ``mem_check`` probe holds)."""
    for key, value in fields.items():
        if key not in refill:
            setattr(obj, key, value)
        elif type(value) is dict:
            live = getattr(obj, key)
            live.clear()
            live.update(value)
        else:
            _graft(getattr(obj, key), _fields(value))


def _pins(machine):
    """The identity-preserved singletons (deepcopy memo seeds)."""
    pipeline = machine.pipeline
    kernel = machine.kernel
    pins = [machine, machine.memory, machine.hierarchy, pipeline, kernel,
            pipeline.config, kernel.config]
    if pipeline._predecode is not None:
        pins.append(pipeline._predecode)
    rse = machine.rse
    if rse is not None:
        pins.extend((rse, rse.mau, rse.ioq, rse.queues, rse.selfcheck))
        pins.extend(rse.queues.all_queues())
        pins.extend(rse.modules.values())
    return pins


def _collect(machine):
    state = {
        "pipeline": _fields(machine.pipeline, _PIPELINE_SKIP),
        "hierarchy": _fields(machine.hierarchy),
        "kernel": _fields(machine.kernel, _KERNEL_SKIP),
    }
    rse = machine.rse
    if rse is not None:
        state["rse"] = {
            "engine": _fields(rse, _ENGINE_SKIP),
            "mau": _fields(rse.mau, _MAU_SKIP),
            "ioq": _fields(rse.ioq),
            "selfcheck": _fields(rse.selfcheck, _SELFCHECK_SKIP),
            "queues": {queue.name: _fields(queue, _QUEUE_SKIP)
                       for queue in rse.queues.all_queues()},
            "modules": {module_id: _fields(module, _MODULE_SKIP)
                        for module_id, module in rse.modules.items()},
        }
    return state


def warm(machine):
    """Populate the field-name cache from a sacrificial *machine*.

    The first capture of each class reads ``__dict__`` to learn the
    field names, which permanently slows attribute access on that one
    instance (see :data:`_FIELD_NAMES`).  Callers that keep a long-lived
    trunk machine (the campaign fork engine) capture a same-shaped
    throwaway machine first so the trunk never pays that cost.
    """
    capture(machine)


def capture(machine):
    """Snapshot *machine*; returns a :class:`MachineCheckpoint`."""
    pages, versions = machine.memory.capture_state()
    pins = _pins(machine)
    memo = {id(pin): pin for pin in pins}
    state = copy.deepcopy(_collect(machine), memo)
    return MachineCheckpoint(machine.pipeline.cycle, pages, versions, state,
                             pins=pins)


def restore(machine, checkpoint):
    """Rewind *machine* to *checkpoint* (reusable; returns *machine*).

    Works for live checkpoints (captured in this process) and wire
    checkpoints (:meth:`MachineCheckpoint.from_bytes`) alike.  Either
    way each pinned singleton of the capture machine maps to *machine*'s
    own singleton at the same ordinal — a wire checkpoint's pin
    references through :class:`_PinRef`, a live one's captured pins
    through the deepcopy memo — which requires the target to have the
    same component shape as the capture machine.  So a live checkpoint
    restored onto another machine grafts in that machine's modules,
    never a clone of the donor's.
    """
    global _ACTIVE_PINS

    pins = _pins(machine)
    if checkpoint.pin_count is not None and checkpoint.pin_count != len(pins):
        raise CheckpointError(
            "checkpoint was captured on a machine with %d pinned "
            "components; this machine has %d — build the target with "
            "the same configuration (RSE, modules, predecode)"
            % (checkpoint.pin_count, len(pins)))
    machine.memory.restore_state(checkpoint.pages, checkpoint.versions)
    # Re-copy the stored state with the target's pins so the checkpoint
    # survives this restore untouched and can be restored again.
    captured = checkpoint._pins if checkpoint._pins is not None else pins
    memo = {id(old): pin for old, pin in zip(captured, pins)}
    _ACTIVE_PINS = pins
    try:
        state = copy.deepcopy(checkpoint._state, memo)
    finally:
        _ACTIVE_PINS = None
    _graft(machine.pipeline, state["pipeline"], refill=("predictor",))
    _graft(machine.hierarchy, state["hierarchy"], refill=("bus",))
    _graft(machine.kernel, state["kernel"], refill=("page_perms",))
    rse = machine.rse
    if rse is not None:
        if "rse" not in state:
            raise CheckpointError(
                "checkpoint was captured without an RSE attached")
        sub = state["rse"]
        _graft(rse, sub["engine"])
        _graft(rse.mau, sub["mau"])
        _graft(rse.ioq, sub["ioq"])
        _graft(rse.selfcheck, sub["selfcheck"])
        for queue in rse.queues.all_queues():
            _graft(queue, sub["queues"][queue.name])
        for module_id, fields in sub["modules"].items():
            _graft(rse.modules[module_id], fields)
    return machine
