"""Append-only structured event log (the service's flight recorder).

Every externally visible decision the service makes — arrivals,
admissions, rejections, migrations, departures, QoS violations — is
appended here as a :class:`ServiceEvent`.  The log is the determinism
contract's witness: two runs of the same seeded traffic day must
produce **byte-identical** JSONL renderings, which is what the
``service_smoke`` CI job and the determinism tests compare.

Floats are rounded to six decimals before serialization so the bytes
do not depend on accumulated float formatting noise, and payload keys
are sorted so dict insertion order cannot leak into the output.

Crash safety: a log may be :meth:`attached <EventLog.attach>` to a
file, in which case every appended event is written, flushed and
fsync'd immediately — the on-disk log never lags the in-memory one by
more than the event being written.  :meth:`EventLog.recover` reads such
a file back after a crash, truncating a torn final line (a crash
mid-``write`` leaves at most one partial line, by construction).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro._util import atomic_write_text, round_floats
from repro.errors import ServiceError

#: Event kinds, in the order they can occur within an epoch.
#: The capacity block (``autoscale`` through ``job_requeue``) leads:
#: an elastic provider's pool changes are applied at the epoch
#: boundary before anything else, so the epoch's admission and
#: rescheduling see a consistent capacity picture (a run without a
#: provider — or with the static one — never emits any of them, so
#: flat-replay logs are unchanged).  ``job_requeue`` can also appear in
#: the admit phase, when a node vanishes between an admission decision
#: and its commit.  ``job_cancel`` then leads the tenant lifecycle
#: because cancellations requested since the last boundary are
#: honoured before anything else happens to tenants.  The final entry
#: is appended by the scale layer's global coordinator *after* the
#: per-cell epoch bodies (so it follows the cells' ``epoch_end``
#: events in a merged log); the flat service never emits it.
EVENT_KINDS = (
    "autoscale",
    "node_join",
    "node_leave",
    "preempt_warning",
    "preempt_reclaim",
    "job_requeue",
    "job_cancel",
    "depart",
    "arrival",
    "admit",
    "queue",
    "reject",
    "migrate",
    "measure_fault",
    "qos_violation",
    "epoch_end",
    "cell_migrate",
)


@dataclass(frozen=True)
class ServiceEvent:
    """One log entry: (epoch, sequence number, kind, payload)."""

    epoch: int
    seq: int
    kind: str
    payload: Tuple[Tuple[str, object], ...]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view (payload keys flattened in)."""
        entry: Dict[str, object] = {
            "epoch": self.epoch,
            "seq": self.seq,
            "kind": self.kind,
        }
        entry.update(dict(self.payload))
        return entry

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "ServiceEvent":
        """Rebuild an event from its :meth:`to_dict` form.

        Round-trips exactly: ``from_dict(e.to_dict()).to_json()`` is
        byte-identical to ``e.to_json()``.
        """
        try:
            epoch = int(entry["epoch"])
            seq = int(entry["seq"])
            kind = str(entry["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed event entry: {entry!r}") from exc
        if kind not in EVENT_KINDS:
            raise ServiceError(f"unknown event kind {kind!r} in {entry!r}")
        payload = tuple(sorted(
            (key, round_floats(value))
            for key, value in entry.items()
            if key not in ("epoch", "seq", "kind")
        ))
        return cls(epoch=epoch, seq=seq, kind=kind, payload=payload)

    def to_json(self) -> str:
        """Canonical single-line JSON rendering."""
        return json.dumps(self.to_dict(), sort_keys=True)


class EventLog:
    """Append-only, in-order event store.

    Optionally *attached* to a path: an attached log persists every
    event at append time (write + flush + fsync), which is what makes
    ``repro serve --resume`` possible — after a hard kill, the on-disk
    log holds every completed append plus at most one torn line.

    ``start_seq`` offsets the sequence numbering: a log created with
    ``start_seq=n`` holds no events but numbers its first append ``n``.
    That is how a pure epoch execution (restored from a checkpoint
    whose day already logged ``n`` events) stamps globally consistent
    sequence numbers without holding the day's history — the fresh
    events splice verbatim onto the durable log the daemon keeps.
    """

    def __init__(self, start_seq: int = 0) -> None:
        if start_seq < 0:
            raise ServiceError("start_seq must be non-negative")
        self._events: List[ServiceEvent] = []
        self._start_seq = start_seq
        self._handle = None
        self._path: Optional[str] = None
        self._source_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Incremental persistence
    # ------------------------------------------------------------------
    def attach(self, path: str) -> None:
        """Persist this log (current contents and all future appends) to ``path``.

        The file is rewritten atomically with the events held so far,
        then kept open in append mode; each subsequent :meth:`append`
        is durably on disk before it returns.
        """
        self.detach()
        atomic_write_text(path, self.to_jsonl())
        self._handle = open(path, "a", encoding="utf-8")
        self._path = path

    def detach(self) -> None:
        """Stop persisting; the file keeps everything appended so far."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._path = None

    def _persist(self, event: ServiceEvent) -> None:
        if self._handle is None:
            return
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @classmethod
    def recover(cls, path: str) -> "EventLog":
        """Rebuild a log from an incrementally persisted file.

        A crash mid-append leaves at most one partial final line; that
        torn tail is dropped.  Anything else malformed — a bad line in
        the middle, out-of-order sequence numbers — is corruption this
        writer cannot have produced, and raises :class:`ServiceError`.
        The recovered log is detached; call :meth:`attach` to continue
        appending (which also rewrites the file without the torn tail).
        """
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        lines = raw.split("\n")
        # Each append writes "<json>\n" in one buffer, so a torn write
        # is a proper prefix that never includes the final newline: the
        # torn tail is exactly the (non-empty) last piece of the split,
        # and every newline-terminated line must parse.
        complete = lines[:-1]
        for number, line in enumerate(complete):
            try:
                event = ServiceEvent.from_dict(json.loads(line))
            except (json.JSONDecodeError, ServiceError) as exc:
                raise ServiceError(
                    f"{path}:{number + 1}: corrupt event log line"
                ) from exc
            if event.seq != len(log._events):
                raise ServiceError(
                    f"{path}:{number + 1}: sequence {event.seq} != "
                    f"expected {len(log._events)}"
                )
            log._events.append(event)
        log._source_path = path
        return log

    def validate_tail(
        self,
        expected_length: int,
        boundary_epoch: int,
        *,
        path: Optional[str] = None,
    ) -> None:
        """Check this recovered log matches a checkpoint's tail.

        A resume adopts the recovered log truncated to the
        checkpoint's ``expected_length``; this validates — *before*
        anything is truncated — that the two artifacts are from the
        same run: the log is long enough, the event at the boundary is
        the ``epoch_end`` (or trailing ``cell_migrate``) of epoch
        ``boundary_epoch - 1``, and nothing beyond the boundary belongs
        to an already-completed epoch.  A mismatched pair (a checkpoint
        from one day next to another day's log) would otherwise replay
        into a silently diverged history; instead the error names the
        epoch, the path, and the reason.
        """
        where = path or self._source_path or self._path or "<in-memory log>"

        def fail(reason: str) -> None:
            raise ServiceError(
                f"{where}: event log does not match the resume checkpoint "
                f"at epoch boundary {boundary_epoch}: {reason}"
            )

        if len(self) < expected_length:
            fail(
                f"recovered log has {len(self)} event(s) but the "
                f"checkpoint expects at least {expected_length}"
            )
        if expected_length == 0 or expected_length <= self._start_seq:
            return
        boundary = self._events[expected_length - 1 - self._start_seq]
        if boundary.kind not in ("epoch_end", "cell_migrate"):
            fail(
                f"event {expected_length - 1} should close epoch "
                f"{boundary_epoch - 1} but is kind {boundary.kind!r}"
            )
        if boundary.epoch != boundary_epoch - 1:
            fail(
                f"event {expected_length - 1} closes epoch "
                f"{boundary.epoch}, not the checkpoint's epoch "
                f"{boundary_epoch - 1} — checkpoint and log are from "
                f"different runs or one is stale"
            )
        for event in self._events[expected_length - self._start_seq:]:
            if event.epoch < boundary_epoch:
                fail(
                    f"event {event.seq} beyond the boundary belongs to "
                    f"already-completed epoch {event.epoch}"
                )
                break

    # ------------------------------------------------------------------
    # Append-only store
    # ------------------------------------------------------------------
    def append(self, kind: str, epoch: int, **payload: object) -> ServiceEvent:
        """Record one event; returns the stamped entry."""
        if kind not in EVENT_KINDS:
            raise ServiceError(
                f"unknown event kind {kind!r}; known: {', '.join(EVENT_KINDS)}"
            )
        event = ServiceEvent(
            epoch=epoch,
            seq=len(self),
            kind=kind,
            payload=tuple(sorted(
                (key, round_floats(value)) for key, value in payload.items()
            )),
        )
        self._events.append(event)
        self._persist(event)
        return event

    def truncate(self, length: int) -> None:
        """Drop events beyond global sequence ``length`` (resume-to-checkpoint).

        On an attached log the file is rewritten atomically, so the
        truncation is itself crash-safe.
        """
        if not self._start_seq <= length <= len(self):
            raise ServiceError(
                f"cannot truncate log of {len(self)} events to {length}"
            )
        if length == len(self):
            return
        del self._events[length - self._start_seq:]
        if self._path is not None:
            path = self._path
            self.attach(path)

    def __len__(self) -> int:
        return self._start_seq + len(self._events)

    def since(self, seq: int) -> List[ServiceEvent]:
        """Held events with sequence number ``>= seq``, in log order."""
        return list(self._events[max(seq - self._start_seq, 0):])

    def __iter__(self) -> Iterator[ServiceEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[ServiceEvent]:
        """All events of one kind, in log order."""
        if kind not in EVENT_KINDS:
            raise ServiceError(f"unknown event kind {kind!r}")
        return [event for event in self._events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Events per kind (only kinds that occurred)."""
        result: Dict[str, int] = {}
        for event in self._events:
            result[event.kind] = result.get(event.kind, 0) + 1
        return result

    def to_jsonl(self) -> str:
        """The whole log as canonical JSON lines."""
        return "\n".join(event.to_json() for event in self._events) + (
            "\n" if self._events else ""
        )

    def write(self, path: str) -> None:
        """Write the JSONL rendering to ``path`` atomically."""
        if path == self._path:
            # The attached file is already up to date (and open).
            return
        atomic_write_text(path, self.to_jsonl())
