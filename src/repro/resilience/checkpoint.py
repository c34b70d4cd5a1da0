"""Per-location survey progress on disk: resume instead of re-bill.

A survey is an expensive artifact — every fetched image is billed —
so aborting at location 812 of 1,000 must not forfeit the first 811.
:class:`SurveyCheckpoint` persists an **append-only JSONL log** keyed
by the survey's identity; a rerun with the same identity skips every
completed location.  Line 1 is a header (``format_version`` and the
sorted key); every later line is one ``{index, payload}`` record.
Each line carries the SHA-256 of its own canonical JSON, so every
record is verified on load.  A record costs one appended line —
O(1) bytes, where rewriting the whole document per location made a
survey's checkpoint writes O(n²).

Crash safety: a process killed mid-append can only tear the *final*
line.  Loading drops such a torn tail (counted on
``checkpoint.torn_tail``) and keeps every whole record before it; the
file is truncated back to the last whole record just before the next
append, so new records never glue onto garbage.  Loading alone never
writes, except to quarantine.  A new log (and the one-time migration
of a legacy v1/v2 whole-JSON document) is written via temp file +
rename, so the path never holds a half-written header.

Damage anywhere else — a garbled header, or a bad record with another
line after it — is not a torn append but corruption: the file is
**quarantined** (renamed to ``<path>.corrupt``, counted on the
``checkpoint.corrupt`` metric) and the store cold-starts instead of
raising — losing a checkpoint must cost a re-fetch, not wedge the
survey.  A checkpoint whose *key* identifies a different survey is
still a hard :class:`CheckpointMismatchError`: silently mixing two
surveys' billing is worse than failing loudly.

The payload stored per location is an opaque JSON dict owned by the
caller (:class:`~repro.core.pipeline.NeighborhoodDecoder` stores the
decoded indicators plus the location's image count, which the daemon
bills from), which keeps this module free of pipeline imports.

Durability scope: appends deliberately do **not** fsync.  A record
that ``write`` returned survives the death of the process (the page
cache persists), which the daemon's SIGKILL drills exercise; a host
crash can lose the unsynced tail, which merely re-fetches those
locations.  Rare, high-value documents (the daemon's job manifest
and reports) do fsync — see :mod:`repro.durable`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..obs.metrics import get_metrics

#: Version 3 is the append-only log.  Whole-document versions 1 (no
#: checksum) and 2 still load, and migrate to the log on the first
#: :meth:`SurveyCheckpoint.record`.
FORMAT_VERSION = 3
_LEGACY_VERSIONS = (1, 2)


class CheckpointMismatchError(ValueError):
    """The checkpoint on disk belongs to a different survey."""


def _digest(body: dict) -> str:
    """SHA-256 of the canonical serialization of ``body``."""
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _line(body: dict) -> bytes:
    """One log line: ``body`` plus the checksum of its canonical form."""
    return (json.dumps({**body, "sha256": _digest(body)}) + "\n").encode()


def _verified(line: bytes) -> dict | None:
    """The body of one log line, or None if it fails its checksum."""
    try:
        body = json.loads(line)
    except ValueError:
        return None
    if not isinstance(body, dict) or body.pop("sha256", None) != _digest(
        body
    ):
        return None
    return body


class SurveyCheckpoint:
    """Append-only per-location progress store.

    Parameters
    ----------
    path:
        The log file.  Parent directories are created on first record.
    key:
        The survey's identity (county, n_locations, seed, ...).  A
        file whose key differs raises :class:`CheckpointMismatchError`
        instead of silently mixing two surveys' billing.
    """

    def __init__(self, path: str | Path, key: dict) -> None:
        self.path = Path(path)
        self.key = {k: key[k] for k in sorted(key)}
        self._records: dict[int, dict] = {}
        #: Length of the whole-record log prefix on disk, or None when
        #: the path holds no log yet (absent, quarantined or legacy).
        self._end: int | None = None
        #: Whether bytes past ``_end`` (a torn tail) await truncation.
        self._torn = False
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            self._quarantine_corrupt("unreadable")
            return
        head, newline, rest = data.partition(b"\n")
        try:
            header = json.loads(head)
        except ValueError:
            # Garbled or cut inside the header — cold start, not a crash.
            self._quarantine_corrupt("unparseable header")
            return
        if not isinstance(header, dict):
            self._quarantine_corrupt("not a JSON object")
            return
        version = header.get("format_version")
        if version in _LEGACY_VERSIONS:
            self._load_document(header, trailing=rest.strip())
            return
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format version: {version!r}"
            )
        if (
            not newline
            or header.pop("sha256", None) != _digest(header)
            or not isinstance(header.get("key"), dict)
        ):
            self._quarantine_corrupt("damaged header")
            return
        self._check_key(header["key"])

        records: dict[int, dict] = {}
        end = len(head) + 1
        # The element after the last newline is a partial line (empty
        # when the file ends cleanly); it never loads.
        *lines, partial = rest.split(b"\n")
        for position, line in enumerate(lines):
            body = _verified(line)
            if (
                body is None
                or not isinstance(body.get("index"), int)
                or not isinstance(body.get("payload"), dict)
            ):
                if position == len(lines) - 1 and not partial:
                    break  # the final line failed its checksum: torn
                self._quarantine_corrupt("damaged record")
                return
            records[body["index"]] = body["payload"]  # last one wins
            end += len(line) + 1
        self._records = records
        self._end = end
        if end < len(data):
            self._torn = True
            get_metrics().inc("checkpoint.torn_tail")

    def _load_document(self, payload: dict, trailing: bytes) -> None:
        """Load a legacy v1/v2 whole-JSON document (migrated on record)."""
        stored_key = payload.get("key", {})
        locations = payload.get("locations", {})
        if (
            trailing
            or not isinstance(stored_key, dict)
            or not isinstance(locations, dict)
        ):
            self._quarantine_corrupt("mangled structure")
            return
        if payload["format_version"] == 2 and payload.get(
            "checksum"
        ) != _digest({"key": stored_key, "locations": locations}):
            self._quarantine_corrupt("checksum mismatch")
            return
        self._check_key(stored_key)
        try:
            self._records = {
                int(index): record
                for index, record in locations.items()
            }
        except (TypeError, ValueError):
            self._quarantine_corrupt("non-integer location index")

    def _check_key(self, stored_key: dict) -> None:
        if stored_key != self.key:
            raise CheckpointMismatchError(
                f"checkpoint at {self.path} is for survey {stored_key!r}, "
                f"not {self.key!r}"
            )

    def _quarantine_corrupt(self, reason: str) -> None:
        """Count, preserve, and forget a corrupt checkpoint file.

        The damaged file is renamed to ``<path>.corrupt`` for
        forensics (the next record recreates the real path), the
        ``checkpoint.corrupt`` counter moves so dashboards see the
        event, and the store cold-starts.
        """
        get_metrics().inc("checkpoint.corrupt")
        try:
            self.path.replace(
                self.path.with_suffix(self.path.suffix + ".corrupt")
            )
        except OSError:  # pragma: no cover - best effort only
            pass
        self._records = {}

    def _rewrite(self) -> None:
        """Write the whole log afresh via temp file + rename.

        Used only when the path holds no log: the first record of a
        new (or quarantined) checkpoint, and the one-time migration of
        a legacy document.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        blob = _line({"format_version": FORMAT_VERSION, "key": self.key})
        blob += b"".join(
            _line({"index": index, "payload": payload})
            for index, payload in sorted(self._records.items())
        )
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(blob)
        tmp.replace(self.path)
        self._end = len(blob)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def has(self, index: int) -> bool:
        return index in self._records

    def get(self, index: int) -> dict:
        return self._records[index]

    @property
    def completed_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._records))

    def record(self, index: int, payload: dict) -> None:
        """Store one completed location and persist it immediately.

        Persisting per location (not per survey) is the point: a crash
        between locations loses at most the in-flight location.  The
        write is one appended line; no file handle outlives the call.
        """
        self._records[index] = payload
        if self._end is None:
            self._rewrite()
        else:
            if self._torn:
                os.truncate(self.path, self._end)
                self._torn = False
            line = _line({"index": index, "payload": payload})
            with open(self.path, "ab") as log:
                log.write(line)
            self._end += len(line)
        get_metrics().inc("checkpoint.writes")
