"""Execution options: *how* a campaign runs, never *what* it computes.

A campaign's records are fully determined by its
:class:`~repro.campaign.runner.CampaignSpec`; everything about worker
processes, sharding, checkpoint forking and result storage is an
execution detail that must never leak into the spec
fingerprint — the same spec run serially, sharded across workers, or
resumed from a half-written store produces identical records.

This module holds those details in one frozen dataclass, so the one
signature is ``run_campaign(spec, options=ExecutionOptions(...))`` and
the CLI, the service and the benchmarks all build the same object in
one place.
"""

import dataclasses

__all__ = ["ExecutionOptions"]


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a campaign (not part of the spec fingerprint).

    Attributes:
        workers: >1 runs the campaign on that many worker processes
            through the sharded campaign service (one shard per worker
            unless ``shards`` says otherwise); 1 runs it in-process.
        fork: share trigger prefixes via machine checkpoints instead of
            re-simulating the warmup per injection (pure-arm models).
        shards: >0 routes execution through the sharded campaign
            service (:mod:`repro.campaign.service`): the injection
            space splits into that many seed-range shards with
            work-stealing workers and per-shard resumable stores.
        store: JSONL result store path; an existing store resumes the
            campaign.  When the service runs the campaign this is the
            merged store and the per-shard stores live beside it.
    """

    workers: int = 1
    fork: bool = False
    shards: int = 0
    store: str = None

    def replace(self, **changes):
        """A copy with *changes* applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in names})
