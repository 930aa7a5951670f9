"""Sharded campaign service: warmed images, work stealing, merge.

:func:`~repro.campaign.runner.run_campaign` hands every campaign with
more than one worker (or any shards) to this module, which scales the
deterministic campaign along **shards**:

* the injection space ``[0, spec.injections)`` splits into contiguous
  **seed-range shards**.  Because every injection derives from
  ``(campaign_seed, id)`` alone (:func:`repro.campaign.space
  .injection_at`), a shard materialises exactly its own injections with
  no shared RNG stream and no coordination;
* the parent simulates the campaign's warmup exactly once — assembly,
  golden run, machine build — and ships the result to every worker as a
  :class:`~repro.checkpoint.CampaignImage` (serialized machine
  checkpoint + golden results + spec fingerprint): workers skip the
  golden run, and pick their engine with
  :func:`~repro.campaign.runner.pick_engine`, so with ``fork`` the
  image seeds a :class:`~repro.campaign.runner.ForkEngine` that shares
  trigger prefixes within a shard, and without it they use fresh
  machines;
* workers **steal shards** from a shared queue: a fast worker that
  drains its shard immediately pulls the next one, so stragglers never
  gate the campaign.  Each shard runs as one
  :func:`~repro.campaign.runner.run_range` over its ids, the loop a
  serial campaign runs over all of them, and appends to its **own
  JSONL store**
  (``<store>.shardNNN.jsonl``) whose header records the shard identity
  and id range — a shard store is self-describing and individually
  resumable, so SIGKILLing any worker loses at most one in-flight
  record;
* after the workers drain the queue the parent re-plans: shards left
  incomplete by dead workers are re-queued for another worker round,
  and whatever still remains after :data:`WORKER_ROUNDS` rounds is
  finished in-parent — the service always completes;
* :func:`merge_shards` folds the shard stores into one merged store,
  verifying every shard's fingerprint and deduplicating by injection
  id.  Records are deterministic, so the merged store is byte-identical
  (modulo order, and the merge sorts) to a single-process run's store.

Fault-injected testing rides on two environment hooks: when
``REPRO_CAMPAIGN_KILL_FILE`` names an existing file, the first worker
to append ``REPRO_CAMPAIGN_KILL_AFTER`` records (default 3) atomically
claims the file by deleting it and SIGKILLs itself — at most one kill
per flag file, injected without patching any production code path.
"""

import multiprocessing
import os
import queue as queue_mod
import shutil
import signal
import tempfile

from repro.campaign.runner import (CampaignContext, CampaignRun,
                                   CampaignSpec, build_campaign_machine,
                                   pick_engine, run_range)
from repro.campaign.store import ResultStore
from repro.checkpoint import CampaignImage

#: Worker rounds before the parent finishes remaining shards itself.
WORKER_ROUNDS = 2

#: How long an idle worker waits on the shard queue before exiting.
#: Also the recovery bound when a SIGKILLed worker dies holding the
#: queue's reader lock: ``Queue.get`` applies the timeout to the lock
#: acquisition, so surviving workers see ``Empty`` and return to the
#: parent instead of deadlocking.
STEAL_TIMEOUT = 0.5

KILL_FILE_ENV = "REPRO_CAMPAIGN_KILL_FILE"
KILL_AFTER_ENV = "REPRO_CAMPAIGN_KILL_AFTER"


class ServiceError(RuntimeError):
    """The sharded service cannot produce a complete, verified campaign."""


# ------------------------------------------------------------------ planning

def plan_shards(total, shards):
    """Split ``[0, total)`` into ``(shard_id, start, stop)`` ranges.

    Contiguous, non-empty, covering: the shard count clamps to *total*
    so no shard is empty, and the remainder spreads one extra injection
    over the leading shards.
    """
    if total <= 0:
        return []
    shards = max(1, min(int(shards), total))
    base, extra = divmod(total, shards)
    plan = []
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        plan.append((shard_id, start, start + size))
        start += size
    return plan


def shard_store_path(store_path, shard_id):
    """Per-shard store path derived from the merged store path."""
    root, ext = os.path.splitext(store_path)
    return "%s.shard%03d%s" % (root, shard_id, ext or ".jsonl")


# ---------------------------------------------------------------- kill switch

class _KillSwitch:
    """Deterministic worker-death injection for crash-recovery tests.

    Armed purely through the environment so production code paths stay
    untouched.  The flag file is the claim token: deleting it is atomic,
    so exactly one worker dies per armed file no matter how many race.
    """

    def __init__(self):
        self.path = os.environ.get(KILL_FILE_ENV)
        self.after = int(os.environ.get(KILL_AFTER_ENV, "3"))
        self.appended = 0

    def tick(self):
        """Called after each append; may not return."""
        if not self.path:
            return
        self.appended += 1
        if self.appended < self.after:
            return
        try:
            os.remove(self.path)        # atomic claim; losers keep running
        except OSError:
            self.path = None
            return
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------- warmed image

def build_campaign_image(spec):
    """Warm a machine for *spec* and bundle it as a CampaignImage.

    Runs the campaign's one-time work — assembly, the golden run, the
    protected machine build — and captures the pristine cycle-0 machine.
    The bundle carries the golden results in ``meta`` so receiving
    workers skip the golden run too, and the spec fingerprint so a
    worker can refuse an image warmed for a different campaign.
    """
    ctx = CampaignContext(spec)
    if getattr(ctx.model, "owns_execution", False):
        # Generative models build a fresh guest program per injection:
        # there is no shared machine to warm, so the image is just the
        # fingerprint + golden stub that lets workers skip the context's
        # golden run (which the context already skipped here too).
        return CampaignImage(spec.fingerprint(), b"",
                             {"cycle": 0,
                              "golden": {"regs": {},
                                         "cycles": ctx.golden_cycles}})
    machine, __ = build_campaign_machine(ctx.asm, spec.protected)
    checkpoint = machine.checkpoint()
    meta = {"cycle": checkpoint.cycle,
            "golden": {"regs": {str(reg): value
                                for reg, value in ctx.golden_regs.items()},
                       "cycles": ctx.golden_cycles}}
    return CampaignImage(spec.fingerprint(), checkpoint.to_bytes(), meta)


# ------------------------------------------------------------ shard execution

def _process_shard(ctx, engine, shard, path, kill=None):
    """Run (or resume) one shard against its own store."""
    shard_id, start, stop = shard
    run_range(ctx, engine, start, stop, ResultStore(path),
              extra={"shard": {"id": shard_id, "start": start,
                               "stop": stop}},
              kill=kill)


def _service_worker(spec_dict, image_bytes, task_queue, store_root, fork):
    """Worker loop: steal shards until the queue stays empty."""
    spec = CampaignSpec.from_dict(spec_dict)
    image = CampaignImage.from_bytes(image_bytes)
    ctx = CampaignContext(spec, golden=image.meta["golden"])
    engine = pick_engine(ctx, fork, image)
    kill = _KillSwitch()
    while True:
        try:
            shard = task_queue.get(timeout=STEAL_TIMEOUT)
        except queue_mod.Empty:
            return
        _process_shard(ctx, engine, shard, shard_store_path(store_root,
                                                            shard[0]),
                       kill=kill)


def _run_worker_round(spec, options, todo, image_bytes, store_root):
    """One worker round over the *todo* shards; survives worker death."""
    mp = multiprocessing.get_context()
    task_queue = mp.Queue()
    for shard in todo:
        task_queue.put(shard)
    count = max(1, min(options.workers, len(todo)))
    workers = [mp.Process(target=_service_worker,
                          args=(spec.to_dict(), image_bytes, task_queue,
                                store_root, options.fork),
                          daemon=True)
               for __ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    # Shards may remain enqueued (all workers died early); the parent
    # re-plans from the stores, so just detach from the queue cleanly.
    task_queue.cancel_join_thread()
    task_queue.close()


def _shard_done_ids(spec, shard, path):
    """Ids in ``[start, stop)`` that *path* already holds records for."""
    __, start, stop = shard
    store = ResultStore(path)
    if not store.exists():
        return set()
    __, records = store.verify(spec.fingerprint())
    return {record["id"] for record in records if start <= record["id"] < stop}


def _incomplete_shards(spec, shards, store_root):
    """The shards whose stores do not yet cover their full id range."""
    todo = []
    for shard in shards:
        __, start, stop = shard
        done = _shard_done_ids(spec, shard, shard_store_path(store_root,
                                                             shard[0]))
        if not set(range(start, stop)) <= done:
            todo.append(shard)
    return todo


# -------------------------------------------------------------------- merging

def merge_shards(spec, shard_paths, merged_path=None):
    """Fold shard stores into one verified, deduplicated record list.

    Every shard store's fingerprint is checked against *spec* (a foreign
    shard raises :class:`~repro.campaign.store.StoreMismatch`), records
    are deduplicated by injection id (first wins; records are
    deterministic so duplicates are identical), and missing coverage is
    a loud :class:`ServiceError`.  With *merged_path* the result is also
    written as a normal campaign store, indistinguishable from one a
    single-process run would have produced.
    """
    fingerprint = spec.fingerprint()
    records = []
    seen = set()
    for path in shard_paths:
        store = ResultStore(path)
        if not store.exists():
            raise ServiceError("shard store %s is missing" % path)
        __, shard_records = store.verify(fingerprint)
        for record in shard_records:
            if record["id"] in seen:
                continue
            seen.add(record["id"])
            records.append(record)
    missing = set(range(spec.injections)) - seen
    if missing:
        raise ServiceError("shard stores cover %d/%d injections "
                           "(first missing id: %d)"
                           % (len(seen), spec.injections, min(missing)))
    records.sort(key=lambda record: record["id"])
    if merged_path:
        merged = ResultStore(merged_path)
        merged.write_header(fingerprint, spec.to_dict())
        for record in records:
            merged.append(record)
        merged.close()
    return records


# ------------------------------------------------------------------- service

def run_service(spec, options, progress=None):
    """Execute *spec* as a sharded campaign; returns a CampaignRun.

    The orchestration loop: plan shards, warm one image, run worker
    rounds (re-queueing shards that dead workers left incomplete),
    finish any remainder in-parent, merge.  Reached via
    ``run_campaign`` whenever ``options.shards`` or ``options.workers >
    1`` is set, after it has answered a store that already covers the
    spec; ``shards or workers`` shards are planned.
    """
    total = spec.injections
    tempdir = None
    if options.store:
        store_root = options.store
    else:
        tempdir = tempfile.mkdtemp(prefix="repro-campaign-")
        store_root = os.path.join(tempdir, "campaign.jsonl")
    shards = plan_shards(total, options.shards or options.workers)
    try:
        image = build_campaign_image(spec)
        image_bytes = image.to_bytes()

        def report():
            if progress is not None:
                done = set()
                for shard in shards:
                    done |= _shard_done_ids(
                        spec, shard, shard_store_path(store_root, shard[0]))
                progress(len(done), total)

        rounds = 0
        while True:
            todo = _incomplete_shards(spec, shards, store_root)
            if not todo:
                break
            if rounds >= WORKER_ROUNDS:
                # Completion guarantee: whatever worker rounds could not
                # finish (repeated kills, a broken pool host) runs here,
                # in-process, where nothing can be stolen out from under
                # it.
                ctx = CampaignContext(spec, golden=image.meta["golden"])
                engine = pick_engine(ctx, options.fork, image)
                for shard in todo:
                    _process_shard(ctx, engine, shard,
                                   shard_store_path(store_root, shard[0]))
                report()
                break
            rounds += 1
            _run_worker_round(spec, options, todo, image_bytes, store_root)
            report()

        records = merge_shards(
            spec, [shard_store_path(store_root, shard[0])
                   for shard in shards],
            merged_path=options.store)
        if progress is not None:
            progress(total, total)
        return CampaignRun(spec, records, options)
    finally:
        if tempdir is not None:
            shutil.rmtree(tempdir, ignore_errors=True)
