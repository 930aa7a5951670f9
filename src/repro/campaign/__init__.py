"""repro.campaign — parallel, resumable fault-injection campaigns.

The paper evaluates every RSE module by injecting faults and tabulating
outcomes; this package makes that a first-class subsystem:

* :mod:`repro.campaign.models` — the fault-model registry (instruction
  bit flips, register-file flips, data-memory flips, control-flow
  corruption), each producing deterministic injections;
* :mod:`repro.campaign.space` — seeded, order-independent sampling of
  the injection space;
* :mod:`repro.campaign.runner` — in-process execution with
  crash-isolated injections, per-run cycle budgets, and fork-at-trigger
  prefix sharing over :mod:`repro.checkpoint` machine snapshots;
* :mod:`repro.campaign.options` — :class:`ExecutionOptions`, the frozen
  how-to-run dataclass behind ``run_campaign(spec, options=...)``;
* :mod:`repro.campaign.service` — the multi-process executor: warmed
  :class:`~repro.checkpoint.CampaignImage` distribution, work-stealing
  shard workers, per-shard resumable stores, verified merge;
* :mod:`repro.campaign.aggregate` — incremental aggregation over live
  shard stores (``repro campaign serve``);
* :mod:`repro.campaign.store` — the append-only JSONL store campaigns
  resume from and single runs replay out of;
* :mod:`repro.campaign.report` — outcome tables, Wilson-interval
  detection rates, protected-vs-unprotected comparisons.
"""

from repro.campaign.aggregate import CampaignAggregator, StoreTail
from repro.campaign.models import (FaultModel, Injection, MODELS, Outcome,
                                   get_model, register)
from repro.campaign.options import ExecutionOptions
from repro.campaign.report import (detection_stats,
                                   detection_stats_from_counts,
                                   format_campaign_report, format_comparison,
                                   format_outcome_report, outcome_counts)
from repro.campaign.runner import (CampaignRun, CampaignSpec, DEMO_WORKLOAD,
                                   ForkEngine, replay, resume_spec,
                                   run_campaign, strike_injection)
from repro.campaign.service import (ServiceError, build_campaign_image,
                                    merge_shards, plan_shards, run_service,
                                    shard_store_path)
from repro.campaign.space import derive_seed, injection_at, sample_injections
from repro.campaign.store import ResultStore, StoreMismatch

__all__ = [
    "CampaignAggregator", "CampaignRun", "CampaignSpec", "DEMO_WORKLOAD",
    "ExecutionOptions", "FaultModel", "ForkEngine", "Injection", "MODELS",
    "Outcome", "ResultStore", "ServiceError", "StoreMismatch", "StoreTail",
    "build_campaign_image", "derive_seed", "detection_stats",
    "detection_stats_from_counts", "format_campaign_report",
    "format_comparison", "format_outcome_report", "get_model",
    "injection_at", "merge_shards", "outcome_counts", "plan_shards",
    "register", "replay", "resume_spec", "run_campaign", "run_service",
    "sample_injections", "shard_store_path", "strike_injection",
]
