"""Resumable JSONL result store.

One campaign maps to one append-only JSONL file:

* line 1 is a **header** record (``kind: "campaign"``) carrying the full
  campaign spec and its fingerprint;
* every following line is one **run** record (``kind: "run"``) appended
  the moment the injection finishes, so a killed campaign loses at most
  the in-flight chunk.

Resuming re-opens the file, verifies the fingerprint against the spec
being resumed (refusing to mix configurations), and skips every id that
already has a record.  Because injections are derived from the campaign
seed by id (see :mod:`repro.campaign.space`), the union of old and new
records is identical to an uninterrupted run.
"""

import json
import os


class StoreMismatch(RuntimeError):
    """The store on disk belongs to a different campaign configuration,
    or has no usable campaign header."""


def parse_line(line):
    """The JSON object on one store line (bytes), or None.

    A line that is blank, not UTF-8, not JSON or not a JSON object is a
    torn line: a killed campaign's partial record, or a fragment that a
    resume terminated.  Readers skip it.
    """
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line.decode())
    except (UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def repair_tail(path):
    """Terminate a torn final line of *path* before appending after a crash.

    A killed run can leave a partial record as the last line; appending
    straight after it would fuse the fragment and the new record into
    one corrupt line.  Writing the missing newline first turns the
    fragment into a lone unparsable line that readers skip
    (:func:`parse_line`), and the record that follows stays intact.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return
            handle.seek(-1, os.SEEK_END)
            torn = handle.read(1) != b"\n"
    except OSError:
        return
    if torn:
        with open(path, "ab") as handle:
            handle.write(b"\n")


class ResultStore:
    """Append-one-record-per-injection JSONL store."""

    def __init__(self, path):
        self.path = path
        self._handle = None

    # ----------------------------------------------------------------- write

    def write_header(self, fingerprint, spec_dict, extra=None):
        """Start a fresh store (truncates any existing file).

        *extra* merges additional header fields — the sharded service
        records its shard's identity and id range here (``"shard":
        {"id", "start", "stop"}``) so a shard store is
        self-describing and individually resumable.
        """
        self.close()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "w")
        header = {"kind": "campaign", "fingerprint": fingerprint,
                  "spec": spec_dict}
        if extra:
            header.update(extra)
        self._write(header)

    def append(self, record):
        """Append one run record; flushed immediately for crash safety."""
        if self._handle is None:
            repair_tail(self.path)
            self._handle = open(self.path, "a")
        self._write(dict(record, kind="run"))

    def _write(self, payload):
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------ read

    def exists(self):
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def load(self):
        """Parse the store; returns ``(header, run_records)``.

        Tolerates torn lines anywhere (a campaign killed mid-write
        leaves a partial record; resuming terminates it and appends
        after, so the fragment can sit mid-file) and deduplicates by
        injection id, first record winning — records are deterministic,
        so a duplicate is always byte-identical anyway.  A line is torn
        when :func:`parse_line` rejects it, and a run record without an
        integer ``id`` is torn too.  A store without a campaign header
        raises :class:`StoreMismatch`.
        """
        header = None
        records = []
        seen = set()
        with open(self.path, "rb") as handle:
            for line in handle:
                payload = parse_line(line)
                if payload is None:
                    continue
                kind = payload.get("kind")
                if kind == "campaign":
                    header = payload
                elif kind == "run":
                    run_id = payload.get("id")
                    if not isinstance(run_id, int) or run_id in seen:
                        continue
                    del payload["kind"]     # return records exactly as run
                    seen.add(run_id)
                    records.append(payload)
        if header is None:
            raise StoreMismatch("%s has no campaign header" % self.path)
        return header, records

    def verify(self, fingerprint):
        """Load and check the store belongs to *fingerprint*'s campaign."""
        header, records = self.load()
        if "fingerprint" not in header:
            raise StoreMismatch("%s has a campaign header without a "
                                "fingerprint" % self.path)
        if header["fingerprint"] != fingerprint:
            raise StoreMismatch(
                "%s was written by a different campaign configuration "
                "(fingerprint %s, expected %s)"
                % (self.path, header["fingerprint"], fingerprint))
        return header, records

    def done_ids(self):
        __, records = self.load()
        return {record["id"] for record in records}

    def record_for(self, run_id):
        """The stored record for one injection id, or None."""
        __, records = self.load()
        for record in records:
            if record["id"] == run_id:
                return record
        return None
