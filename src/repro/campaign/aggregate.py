"""Incremental aggregation over live (or finished) campaign stores.

The sharded service writes records into per-shard JSONL stores *while
workers run*; this module is the read side: tail those stores as they
grow and keep live outcome counts, without ever holding the record set
in memory — a million-injection campaign aggregates into a counts dict
and a seen-id set, not a million dicts.

* :class:`StoreTail` — byte-offset tailer over one JSONL store.  Only
  complete (newline-terminated) lines are consumed; a torn line that a
  worker is mid-write on stays in the file until its newline lands, so
  polling during a crash never mis-parses a fragment.
* :class:`CampaignAggregator` — folds any number of store tails into
  outcome counts, deduplicated by injection id across stores (a record
  can legitimately appear in both a shard store and the merged store).
  The fingerprint of the first header seen is authoritative; records
  from a store with a different fingerprint are rejected loudly.

The aggregator publishes three views of the same counts:

* :meth:`CampaignAggregator.detection_matrix` — per-outcome counts with
  Wilson intervals plus the headline detection rate, the live
  equivalent of :func:`repro.campaign.report.detection_stats`;
* :meth:`CampaignAggregator.snapshot` — a schema-stable JSON document
  (:data:`SCHEMA`) including a :class:`repro.obs.MetricsRegistry`
  rollup, so campaign telemetry exports through the exact same
  counter/gauge/histogram shapes as machine telemetry;
* :meth:`CampaignAggregator.final_report` — the counts-based campaign
  report, character-identical to what a full record scan prints.

``repro campaign serve`` wraps this in a watch loop.
"""

import glob
import os

from repro.analysis.stats import rate, wilson_interval
from repro.campaign.models import Outcome
from repro.campaign.report import (damage_count_from_counts,
                                   detection_stats_from_counts,
                                   format_outcome_report)
from repro.campaign.store import StoreMismatch, parse_line
from repro.obs import MetricsRegistry

#: Version tag on every aggregator snapshot document.
SCHEMA = "repro.campaign.aggregate/1"


class StoreTail:
    """Incremental reader over one append-only JSONL store.

    Tracks a byte offset and consumes only newline-terminated lines, so
    a record a worker is mid-write on is never half-parsed — it is
    simply not consumed until its newline arrives.  A store that shrinks
    (header rewrite) resets the tail to the start; the aggregator's
    id-dedup makes the re-read harmless.
    """

    def __init__(self, path):
        self.path = path
        self.offset = 0

    def poll(self):
        """Parsed payloads of every complete line appended since last poll."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []                    # store not created yet
        if size < self.offset:
            self.offset = 0              # truncated / rewritten underneath us
        if size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read(size - self.offset)
        end = chunk.rfind(b"\n")
        if end < 0:
            return []                    # only a torn tail so far
        self.offset += end + 1
        payloads = []
        for line in chunk[:end].split(b"\n"):
            payload = parse_line(line)
            if payload is not None:          # else a torn line
                payloads.append(payload)
        return payloads


def discover_stores(store_path):
    """The merged store plus every sibling shard store, sorted.

    Given the path handed to ``--store``, finds ``<root>.shardNNN<ext>``
    beside it (the sharded service's layout) so ``repro campaign serve``
    can watch a whole campaign from the one path the user already has.
    """
    root, ext = os.path.splitext(store_path)
    paths = sorted(glob.glob("%s.shard*%s" % (root, ext or ".jsonl")))
    if os.path.exists(store_path):
        paths.append(store_path)
    return paths or [store_path]


class CampaignAggregator:
    """Fold growing campaign stores into live outcome counts."""

    def __init__(self, paths, expected=None):
        self.tails = [StoreTail(path) for path in paths]
        self.expected = expected
        self.fingerprint = None
        self.spec = None
        self.counts = {outcome.value: 0 for outcome in Outcome}
        self.seen = set()
        self.assertion_flags = 0
        self.metrics = MetricsRegistry()
        self._cycles = self.metrics.histogram(
            "campaign.run_cycles",
            bounds=(100, 300, 1000, 3000, 10000, 30000, 100000, 300000))
        self._records = self.metrics.counter("campaign.records")
        self._progress = self.metrics.gauge("campaign.progress")

    @classmethod
    def watch(cls, store_path, expected=None):
        """Aggregator over everything :func:`discover_stores` finds."""
        return cls(discover_stores(store_path), expected=expected)

    # ------------------------------------------------------------------- feed

    def poll(self):
        """Consume new lines from every tail; returns new-record count."""
        fresh = 0
        for tail in self.tails:
            for payload in tail.poll():
                fresh += self._consume(tail.path, payload)
        self._progress.set(self.done)
        return fresh

    def _consume(self, path, payload):
        kind = payload.get("kind")
        if kind == "campaign":
            fingerprint = payload.get("fingerprint")
            if self.fingerprint is None:
                self.fingerprint = fingerprint
                self.spec = payload.get("spec")
            elif fingerprint != self.fingerprint:
                raise StoreMismatch(
                    "%s belongs to campaign %s, aggregating %s"
                    % (path, fingerprint, self.fingerprint))
            return 0
        if kind != "run":
            return 0
        run_id = payload.get("id")
        if run_id in self.seen:
            return 0                     # shard + merged store overlap
        self.seen.add(run_id)
        outcome = payload.get("outcome")
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        self.assertion_flags += 1 if payload.get("assertions") else 0
        self._records.inc()
        self._cycles.observe(payload.get("cycles", 0))
        return 1

    # ------------------------------------------------------------------ state

    @property
    def done(self):
        return len(self.seen)

    @property
    def total(self):
        """Best known campaign size: --expect, else the stored spec's."""
        if self.expected is not None:
            return self.expected
        if self.spec:
            return self.spec.get("injections")
        return None

    def complete(self):
        total = self.total
        return total is not None and self.done >= total

    # ------------------------------------------------------------------ views

    def detection_matrix(self, z=1.96):
        """Per-outcome counts with Wilson intervals, plus the headline.

        Every outcome's share gets its own interval over all aggregated
        runs; the ``detection`` row is the paper's coverage number —
        DETECTED over runs whose fault actually fired — with its
        interval, computed exactly as the post-hoc report computes it.
        """
        total = self.done
        matrix = {}
        for outcome in Outcome:
            count = self.counts.get(outcome.value, 0)
            low, high = wilson_interval(count, total, z=z)
            matrix[outcome.value] = {"count": count,
                                     "share": rate(count, total),
                                     "ci": [low, high]}
        detected, injected, det_rate, (low, high) = \
            detection_stats_from_counts(self.counts, z=z)
        return {"outcomes": matrix,
                "detection": {"detected": detected, "injected": injected,
                              "rate": det_rate, "ci": [low, high]},
                "damaging": damage_count_from_counts(self.counts),
                "runs": total}

    def snapshot(self):
        """Schema-stable live document (the ``serve --json`` payload)."""
        return {"schema": SCHEMA,
                "fingerprint": self.fingerprint,
                "stores": [tail.path for tail in self.tails],
                "expected": self.total,
                "done": self.done,
                "complete": self.complete(),
                "counts": dict(self.counts),
                "matrix": self.detection_matrix(),
                "metrics": self.metrics.snapshot()}

    def render(self):
        """One-screen live text view for ``serve --watch``."""
        total = self.total
        header = ("campaign %s: %d/%s records"
                  % (self.fingerprint or "?", self.done,
                     total if total is not None else "?"))
        matrix = self.detection_matrix()
        det = matrix["detection"]
        lines = [header]
        for outcome in Outcome:
            cell = matrix["outcomes"][outcome.value]
            if not cell["count"]:
                continue
            lines.append("  %-14s %6d  %5.1f%%  (CI %.1f%% - %.1f%%)"
                         % (outcome.value, cell["count"],
                            100 * cell["share"], 100 * cell["ci"][0],
                            100 * cell["ci"][1]))
        lines.append("  detection: %d/%d = %.1f%%  (CI %.1f%% - %.1f%%)"
                     % (det["detected"], det["injected"], 100 * det["rate"],
                        100 * det["ci"][0], 100 * det["ci"][1]))
        return "\n".join(lines)

    def final_report(self, title="Fault-injection campaign"):
        """The counts-based campaign report (see module docstring)."""
        return format_outcome_report(self.counts, title=title)
