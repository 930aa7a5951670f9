"""The fuzz loop: generate, run the oracle, shrink, persist, report.

Program *i* of a run is generated from ``derive_seed(seed, i)``, so a
run is reproducible from ``(seed, mode, count)`` alone and any single
diverging index can be replayed in isolation.  Progress optionally
streams to a JSONL store (header line + one line per program), which a
rerun with the same store resumes instead of repeating — the same
discipline :mod:`repro.campaign` uses for fault-injection campaigns,
with its line reader and tail repair: a torn line (a killed run's
partial record) is skipped and its program runs again, and a store
another run wrote is a :class:`~repro.campaign.store.StoreMismatch`.
"""

import json
import os

from repro.campaign.store import StoreMismatch, parse_line, repair_tail
from repro.difftest.generator import generate
from repro.difftest.oracle import DEFAULT_MAX_STEPS, run_source
from repro.difftest.shrink import shrink

STORE_VERSION = 1


def derive_seed(seed, index):
    """Per-program seed: decorrelated from neighbours, reproducible."""
    return (seed * 1_000_003 + index * 7_919 + 0x9E3779B9) & 0x7FFFFFFF


class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    def __init__(self, seed, count, mode, assertions=False, jit=False):
        self.seed = seed
        self.count = count
        self.mode = mode
        self.assertions = assertions
        self.jit = jit
        self.executed = 0
        self.resumed = 0          # programs skipped via the store
        self.limited = 0          # every engine hit its step limit
        self.divergences = []     # dicts: index, seed, divergence, ...
        self.violations = []      # dicts: index, seed, engine violations
                                  # (only populated when assertions ran)

    @property
    def ok(self):
        return not self.divergences and not self.violations

    def add(self, record):
        """Fold one program's store record into the report, so a resumed
        program lands in it exactly as a freshly run one does."""
        if record.get("limited"):
            self.limited += 1
        entry = {key: value for key, value in record.items()
                 if key not in ("ok", "limited")}
        if "divergence" in record:
            self.divergences.append(entry)
        elif "violations" in record:
            self.violations.append(entry)

    def to_dict(self):
        doc = {
            "seed": self.seed, "count": self.count, "mode": self.mode,
            "executed": self.executed, "resumed": self.resumed,
            "limited": self.limited, "ok": self.ok,
            "divergences": self.divergences,
        }
        if self.assertions:
            doc["assertions"] = True
            doc["violations"] = self.violations
        if self.jit:
            doc["jit"] = True
        return doc


def _check_for(mode, max_steps, assertions=False, jit=False):
    """A shrinker predicate: rerun the oracle on a candidate program."""
    def check(program):
        return run_source(program.source, max_steps=max_steps,
                          assertions=assertions, jit=jit).divergence
    return check


def _store_header(seed, count, mode, assertions=False, jit=False):
    header = {"kind": "difftest", "version": STORE_VERSION,
              "seed": seed, "mode": mode, "count": count}
    if assertions:
        # Only stamped when on, so pre-existing stores stay resumable
        # for assertion-less runs (and are rejected for monitored ones,
        # which check more than they did).
        header["assertions"] = True
    if jit:
        # Same rationale: jit runs compare a fourth engine, so they
        # can't resume a three-engine store (and vice versa).
        header["jit"] = True
    return header


def _load_store(path, header):
    """Records of a compatible store by program index, or None."""
    if not path or not os.path.exists(path):
        return None
    done = {}
    with open(path, "rb") as handle:
        first = handle.readline()
        if not first.strip():
            return None
        existing = parse_line(first) or {}
        for key in ("kind", "seed", "mode", "assertions", "jit"):
            if existing.get(key) != header.get(key):
                raise StoreMismatch(
                    "difftest store %s was written by a different run "
                    "(%s=%r, expected %r)" % (path, key,
                                              existing.get(key),
                                              header.get(key)))
        for line in handle:
            record = parse_line(line)
            if record is not None and isinstance(record.get("index"), int):
                done[record["index"]] = record
    return done


def _corpus_path(corpus_dir, seed, index):
    return os.path.join(corpus_dir, "div_seed%d_i%d.s" % (seed, index))


def _persist_repro(corpus_dir, seed, index, result):
    """Write the shrunk diverging program as a commented .s corpus file."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = _corpus_path(corpus_dir, seed, index)
    divergence = result.divergence
    header = ["# difftest repro: seed=%d index=%d" % (seed, index)]
    if divergence is not None:
        for line in divergence.report().splitlines():
            header.append("# " + line)
    with open(path, "w") as handle:
        handle.write("\n".join(header) + "\n")
        handle.write(result.program.source)
    return path


def fuzz(seed=1234, count=100, mode="all", max_steps=DEFAULT_MAX_STEPS,
         shrink_diverging=True, corpus_dir=None, store=None,
         progress=None, assertions=False, jit=False):
    """Run *count* generated programs through the oracle.

    Returns a :class:`FuzzReport`.  With *store*, each program's record
    (its report entry and step-limit flag) is journalled to a JSONL file,
    and a rerun reports stored programs instead of running them; with
    *corpus_dir*, every diverging program is shrunk and persisted as a
    ``.s`` repro.
    With *assertions*, every engine runs under the invariant suite:
    asymmetric firings become ``assertion`` divergences and symmetric
    ones are reported per program in ``report.violations`` (either
    fails the run).  With *jit*, the trace-JIT funcsim runs as a
    fourth engine and is compared against the interpreter too.
    """
    report = FuzzReport(seed, count, mode, assertions=assertions, jit=jit)
    header = _store_header(seed, count, mode, assertions=assertions,
                           jit=jit)
    done = _load_store(store, header)
    handle = None
    if store:
        if done is None:
            done = {}
            handle = open(store, "w")
            handle.write(json.dumps(header) + "\n")
            handle.flush()
        else:
            repair_tail(store)
            handle = open(store, "a")
    try:
        for index in range(count):
            if done and index in done:
                report.resumed += 1
                report.add(done[index])
                continue
            program = generate(derive_seed(seed, index), mode=mode)
            result = run_source(program.source, max_steps=max_steps,
                                assertions=assertions, jit=jit)
            report.executed += 1
            record = {"index": index, "seed": program.seed,
                      "ok": result.ok}
            if result.limited:
                record["limited"] = True
            if not result.ok:
                record["divergence"] = result.divergence.to_dict()
                if shrink_diverging:
                    shrunk = shrink(program, _check_for(
                        mode, max_steps, assertions=assertions, jit=jit))
                    record["shrunk_idioms"] = len(shrunk.program.idioms)
                    record["shrunk_source"] = shrunk.program.source
                    if corpus_dir:
                        record["corpus_file"] = _persist_repro(
                            corpus_dir, seed, index, shrunk)
            elif assertions and result.violations:
                # No asymmetry, but the suite fired (identically) on
                # some engine(s): the invariant itself is broken.
                record["violations"] = result.violations
            report.add(record)
            if handle is not None:
                handle.write(json.dumps(record) + "\n")
                handle.flush()
            if progress is not None:
                progress(index, count, result)
    finally:
        if handle is not None:
            handle.close()
    return report
