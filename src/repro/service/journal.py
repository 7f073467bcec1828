"""Write-ahead journal: crash durability for the allocation daemon.

The daemon's cluster state lives in memory and never leaves the process.
:class:`WriteAheadJournal` makes it durable: every *accepted* event is
appended to an on-disk JSONL segment before the daemon applies and
acknowledges it, and periodic *checkpoints* write the full cluster
snapshot so recovery replays a bounded tail instead of the whole history.

Layout of a journal directory::

    snapshot-000000000042.json   # cluster state with the first 42 events folded in
    segment-000000000042.jsonl   # events 43, 44, ... one JSON object per line

* A **segment** file is named by the sequence number *before* its first
  event; each line is ``{"seq": n, "k": kind, ...}`` with monotonically
  increasing ``seq``.  Lines are written through a buffered file and
  fsynced in *groups* (``fsync_batch`` appends or ``fsync_interval``
  seconds, whichever comes first) — the standard group-commit trade-off:
  an acknowledged-but-unsynced tail can be lost to a power cut, but no
  event that reached the disk is ever lost.  ``fsync_batch=1`` gives
  synchronous durability.
* A **checkpoint** (:meth:`WriteAheadJournal.checkpoint`) serializes the
  current :class:`~repro.service.state.ClusterState` at the journal's
  sequence number, fsyncs it into place via an atomic rename, starts a
  fresh segment, and deletes every older file.  The daemon applies each
  event to the state as soon as it is journaled, so whenever it
  checkpoints (at a solve, once ``checkpoint_every`` events accrued), a
  snapshot at ``seq`` contains the effect of every journaled event
  ``<= seq``.

Recovery (:func:`recover_journal` / :func:`recover_state`) loads the
newest readable snapshot, replays every following segment line in order,
and *discards the torn tail*: the first line that fails to parse (a crash
mid-write) ends the replay.  Replayed events go through the same
best-effort :meth:`ClusterState.apply_all` the live daemon uses, so an
event the live run rejected is rejected identically on replay — the
recovered state is bit-identical (same
:meth:`~repro.model.cluster.Cluster.fingerprint`) to the pre-crash state
after every acknowledged write, which ``tests/service/test_journal.py``
proves with hypothesis and the CI journal-smoke proves across a real
SIGKILL.

The journal is *not* internally locked: the daemon serializes every call
behind its own lock (append on accept, sync + checkpoint at a solve), and
the asyncio edge funnels all writes through one solver thread.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro._util import require
from repro.model.cluster import Cluster
from repro.model.serialize import cluster_from_dict, cluster_to_dict, job_from_dict, job_to_dict
from repro.service.state import (
    CapacityChanged,
    ClusterEvent,
    ClusterState,
    JobArrived,
    JobDeparted,
)

__all__ = [
    "JournalError",
    "JournalStats",
    "RecoveredJournal",
    "WriteAheadJournal",
    "event_to_json",
    "event_from_json",
    "recover_journal",
    "recover_state",
    "open_journal",
]

SNAPSHOT_FORMAT = "repro-journal-snapshot-v1"
_SNAPSHOT_PREFIX = "snapshot-"
_SEGMENT_PREFIX = "segment-"
_SEQ_DIGITS = 12


class JournalError(RuntimeError):
    """A journal directory whose contents cannot be interpreted safely."""


# ----------------------------------------------------------------------
# Event wire format (a job travels as repro.model.serialize's job dict)
# ----------------------------------------------------------------------
def event_to_json(event: ClusterEvent) -> dict[str, Any]:
    """One event as a JSON-compatible dict (``k`` discriminates the kind)."""
    if isinstance(event, JobArrived):
        out: dict[str, Any] = {"k": "arrive", "job": job_to_dict(event.job)}
    elif isinstance(event, JobDeparted):
        out = {"k": "depart", "name": event.name}
    elif isinstance(event, CapacityChanged):
        # A vector capacity journals as the map itself; scalar stays a number.
        cap = dict(event.capacity) if isinstance(event.capacity, Mapping) else event.capacity
        out = {"k": "capacity", "site": event.site, "capacity": cap}
    else:
        raise JournalError(f"unjournalable event type {type(event).__name__!r}")
    if event.time != 0.0:
        out["t"] = event.time
    return out


def event_from_json(data: dict[str, Any]) -> ClusterEvent:
    """Inverse of :func:`event_to_json` (exact float round-trip via repr)."""
    kind = data.get("k")
    t = float(data.get("t", 0.0))
    if kind == "arrive":
        return JobArrived(job_from_dict(data["job"]), t)
    if kind == "depart":
        return JobDeparted(str(data["name"]), t)
    if kind == "capacity":
        raw = data["capacity"]
        cap = {k: float(v) for k, v in raw.items()} if isinstance(raw, dict) else float(raw)
        return CapacityChanged(str(data["site"]), cap, t)
    raise JournalError(f"unknown journaled event kind {kind!r}")


# ----------------------------------------------------------------------
# Append side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class JournalStats:
    """Counters for ``/v1/stats`` and the benchmark report."""

    appends: int = 0  # events appended this boot
    fsyncs: int = 0
    checkpoints: int = 0
    bytes_written: int = 0
    recovered_events: int = 0  # events replayed into the boot state
    dropped_lines: int = 0  # torn tail discarded at recovery

    def to_dict(self) -> dict[str, int]:
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "checkpoints": self.checkpoints,
            "bytes_written": self.bytes_written,
            "recovered_events": self.recovered_events,
            "dropped_lines": self.dropped_lines,
        }


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadJournal:
    """Append-only event log with group-commit fsync and checkpoints.

    Parameters
    ----------
    directory:
        Journal home (created if missing).  Use :func:`recover_state`
        first when the directory may hold a previous incarnation, and pass
        its ``seq`` as ``start_seq`` so numbering continues.
    fsync_batch / fsync_interval:
        Group-commit policy: an append triggers ``fsync`` once this many
        events are unsynced, or this many seconds passed since the last
        sync — whichever comes first.  ``fsync_batch=1`` syncs every
        append before it returns (synchronous durability).
    checkpoint_every:
        :meth:`maybe_checkpoint` compacts once this many events were
        appended since the last checkpoint (bounds replay work).
    clock:
        Injectable monotone clock for the interval policy (virtual time in
        tests).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        start_seq: int = 0,
        fsync_batch: int = 64,
        fsync_interval: float = 0.05,
        checkpoint_every: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ):
        require(fsync_batch >= 1, "fsync_batch must be at least 1")
        require(fsync_interval >= 0.0, "fsync_interval must be non-negative")
        require(checkpoint_every >= 1, "checkpoint_every must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_batch = fsync_batch
        self.fsync_interval = fsync_interval
        self.checkpoint_every = checkpoint_every
        self._clock = clock
        self.seq = start_seq
        self.stats = JournalStats()
        self._unsynced = 0
        self._last_sync = clock()
        self._since_checkpoint = 0
        self._closed = False
        self._file = self._open_segment(start_seq)

    # -- plumbing ------------------------------------------------------
    def _segment_path(self, base_seq: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{base_seq:0{_SEQ_DIGITS}d}.jsonl"

    def _snapshot_path(self, seq: int) -> Path:
        return self.directory / f"{_SNAPSHOT_PREFIX}{seq:0{_SEQ_DIGITS}d}.json"

    def _open_segment(self, base_seq: int, *, truncate: bool = False):
        return open(self._segment_path(base_seq), "wb" if truncate else "ab")

    # -- append --------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, events: Sequence[ClusterEvent]) -> int:
        """Journal ``events`` in order; returns the sequence number after.

        The line hits the OS (buffered write + flush) before this returns;
        it hits the *platter* per the group-commit policy.  Callers that
        need an event durable right now follow up with :meth:`sync`.
        """
        require(not self._closed, "journal is closed")
        if not events:
            return self.seq
        chunks = []
        for event in events:
            self.seq += 1
            record = {"seq": self.seq, **event_to_json(event)}
            chunks.append(json.dumps(record, separators=(",", ":")).encode() + b"\n")
        blob = b"".join(chunks)
        self._file.write(blob)
        self._file.flush()
        self._unsynced += len(events)
        self.stats.appends += len(events)
        self.stats.bytes_written += len(blob)
        self._since_checkpoint += len(events)
        if self._unsynced >= self.fsync_batch or self._clock() - self._last_sync >= self.fsync_interval:
            self.sync()
        return self.seq

    def sync(self) -> None:
        """Force the group commit: fsync anything unsynced."""
        if self._closed or self._unsynced == 0:
            return
        os.fsync(self._file.fileno())
        self._unsynced = 0
        self._last_sync = self._clock()
        self.stats.fsyncs += 1

    # -- checkpointing -------------------------------------------------
    def checkpoint(self, state: ClusterState) -> None:
        """Snapshot ``state`` at the current sequence number and compact.

        MUST only be called when every journaled event is reflected in
        ``state`` — always so for the daemon, which applies each event as
        soon as it is journaled.  The snapshot is written to a temp file, fsynced, atomically
        renamed into place, and the directory entry fsynced; only then are
        older segments and snapshots unlinked, so a crash at any point
        leaves a recoverable directory.
        """
        require(not self._closed, "journal is closed")
        self.sync()
        payload = {
            "format": SNAPSHOT_FORMAT,
            "seq": self.seq,
            "cluster": cluster_to_dict(state.snapshot()),
        }
        target = self._snapshot_path(self.seq)
        tmp = target.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(payload).encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        # Start the fresh segment before dropping history: there is never
        # a moment without a valid (snapshot, segment) pair on disk.
        # Truncate, don't append: every event <= seq is in the snapshot we
        # just fsynced, and the path may already hold a torn first line
        # from a previous incarnation (crash mid-write of a fresh
        # segment's opening event leaves segment base == recovered seq) —
        # appending after that tear would make the next recovery drop
        # everything this incarnation journals.
        self._file.close()
        self._file = self._open_segment(self.seq, truncate=True)
        _fsync_dir(self.directory)
        for path in self.directory.iterdir():
            name = path.name
            if name == target.name or name == self._segment_path(self.seq).name:
                continue
            if name.startswith((_SNAPSHOT_PREFIX, _SEGMENT_PREFIX)):
                path.unlink(missing_ok=True)
        self._since_checkpoint = 0
        self.stats.checkpoints += 1

    def maybe_checkpoint(self, state: ClusterState) -> bool:
        """Checkpoint if ``checkpoint_every`` events accrued since the last."""
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint(state)
            return True
        return False

    def close(self) -> None:
        """Sync and close the live segment (idempotent)."""
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True

    def stats_dict(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "seq": self.seq,
            "fsync_batch": self.fsync_batch,
            "unsynced": self._unsynced,
            **self.stats.to_dict(),
        }


# ----------------------------------------------------------------------
# Recovery side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RecoveredJournal:
    """What :func:`recover_journal` found on disk."""

    cluster: Cluster | None  # newest readable snapshot (None = no snapshot)
    events: list[ClusterEvent] = field(default_factory=list)  # tail to replay
    seq: int = 0  # sequence number after the last replayable event
    snapshot_seq: int = 0
    dropped_lines: int = 0  # torn tail discarded


def _listed(directory: Path, prefix: str) -> list[tuple[int, Path]]:
    out = []
    for path in directory.iterdir():
        name = path.name
        if not name.startswith(prefix):
            continue
        stem = name[len(prefix):].split(".", 1)[0]
        if stem.isdigit():
            out.append((int(stem), path))
    out.sort()
    return out


def recover_journal(directory: str | os.PathLike) -> RecoveredJournal:
    """Read a journal directory back: newest snapshot + ordered event tail.

    Tolerates a torn final line (crash mid-append) by discarding it and
    everything after; raises :class:`JournalError` on structural damage a
    replay cannot paper over (a gap in the sequence numbers, i.e. a
    missing segment).
    """
    directory = Path(directory)
    rec = RecoveredJournal(cluster=None)
    if not directory.is_dir():
        return rec
    for seq, path in reversed(_listed(directory, _SNAPSHOT_PREFIX)):
        try:
            payload = json.loads(path.read_text())
            require(payload.get("format") == SNAPSHOT_FORMAT, f"unknown snapshot format in {path.name}")
            rec.cluster = cluster_from_dict(payload["cluster"])
            rec.snapshot_seq = rec.seq = int(payload["seq"])
            break
        except (OSError, ValueError, KeyError):
            # half-written snapshot (crash before the rename) — fall back
            # to an older one; the segments still cover the gap
            continue
    torn = False
    for base_seq, path in _listed(directory, _SEGMENT_PREFIX):
        if torn:
            # data after a torn line is unordered w.r.t. the tear: drop it
            with path.open("rb") as fh:
                rec.dropped_lines += sum(1 for _ in fh)
            continue
        with path.open("rb") as fh:
            for raw in fh:
                try:
                    record = json.loads(raw)
                    seq = int(record["seq"])
                    event = event_from_json(record)
                except (ValueError, KeyError, JournalError):
                    torn = True
                    rec.dropped_lines += 1
                    continue
                if torn:
                    rec.dropped_lines += 1
                    continue
                if seq <= rec.seq:
                    continue  # already folded into the snapshot
                if seq != rec.seq + 1:
                    raise JournalError(
                        f"journal gap: expected seq {rec.seq + 1}, found {seq} in {path.name}"
                    )
                rec.events.append(event)
                rec.seq = seq
    return rec


def recover_state(
    directory: str | os.PathLike,
    *,
    fallback_sites: Iterable = (),
) -> tuple[ClusterState | None, RecoveredJournal]:
    """Rebuild the pre-crash :class:`ClusterState` from a journal directory.

    The state starts from the snapshot's cluster (or from
    ``fallback_sites`` when the directory holds no snapshot — the very
    first boot), then replays the event tail through the same best-effort
    ``apply_all`` the live daemon uses.  Returns ``(None, rec)`` when
    there is neither a snapshot nor fallback sites to boot from.
    """
    rec = recover_journal(directory)
    if rec.cluster is not None:
        state = ClusterState(rec.cluster.sites, rec.cluster.jobs)
    else:
        sites = list(fallback_sites)
        if not sites:
            return None, rec
        state = ClusterState(sites)
    if rec.events:
        state.apply_all(rec.events)
    return state, rec


def open_journal(
    directory: str | os.PathLike,
    *,
    fallback_state: ClusterState | None = None,
    fallback_sites: Iterable = (),
    fsync_batch: int = 64,
    fsync_interval: float = 0.05,
    checkpoint_every: int = 4096,
    clock: Callable[[], float] = time.monotonic,
) -> tuple[ClusterState, WriteAheadJournal, RecoveredJournal]:
    """The boot path: recover, open for append, checkpoint immediately.

    The immediate checkpoint is load-bearing, not cosmetic: it compacts
    away any torn tail left by the crash, so old segment files can never
    shadow (or sequence-collide with) the events this incarnation is about
    to write.  When the directory holds no usable snapshot, the initial
    state comes from ``fallback_state`` (a freshly built store — the CLI's
    ``--load``/``--sites`` boot) or ``fallback_sites``; raises
    :class:`JournalError` when neither is given either.  A recovered
    snapshot always wins over the fallback: the journal is the durable
    truth of a previous incarnation.
    """
    state, rec = recover_state(directory, fallback_sites=fallback_sites)
    if state is None:
        state = fallback_state
        if state is not None and rec.events:
            # segments without a snapshot (crash before the first
            # checkpoint): the tail still replays into the fallback
            state.apply_all(rec.events)
    if state is None:
        raise JournalError(
            f"journal directory {directory} holds no snapshot and no fallback state was given"
        )
    journal = WriteAheadJournal(
        directory,
        start_seq=rec.seq,
        fsync_batch=fsync_batch,
        fsync_interval=fsync_interval,
        checkpoint_every=checkpoint_every,
        clock=clock,
    )
    journal.checkpoint(state)
    journal.stats.recovered_events = len(rec.events)
    journal.stats.dropped_lines = rec.dropped_lines
    return state, journal, rec
