"""Event coalescing: fold bursts of deltas into one re-solve.

Under churn, events arrive far faster than a solver should be invoked — a
burst of ten arrivals needs *one* allocation that reflects all ten, not ten
successive solves each rendered stale by the next event.
:class:`CoalescingQueue` implements the standard batching compromise:

* an event waits at most ``max_delay`` seconds before its batch is due
  (the service's staleness budget), and
* a batch never exceeds ``max_batch`` events (bounding how much state can
  shift between consecutive allocations).

The queue only groups events; it never rewrites them.  The daemon applies
a drained batch event by event with
:meth:`~repro.service.state.ClusterState.apply_all`, the call journal
recovery replays, so a live flush and a replay reach the same state with
the same rejections.

The queue takes an injectable ``clock`` so tests and the closed-loop
experiment X9 can drive it with virtual time; the HTTP daemon runs it against
``time.monotonic``.  Thread safety is the *caller's* job (the daemon holds
one lock around state + queue + cache), keeping this class trivially
testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro._util import require
from repro.service.state import ClusterEvent

__all__ = ["BatchStats", "CoalescingQueue"]


@dataclass(slots=True)
class BatchStats:
    """Batch-size accounting across the queue's lifetime."""

    events: int = 0
    batches: int = 0
    max_batch: int = 0

    @property
    def mean_batch(self) -> float:
        return self.events / self.batches if self.batches else 0.0

    def record(self, size: int) -> None:
        self.events += size
        self.batches += 1
        self.max_batch = max(self.max_batch, size)


class CoalescingQueue:
    """Accumulate :class:`ClusterEvent` deltas until a batch is due."""

    def __init__(
        self,
        max_delay: float = 0.05,
        max_batch: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        require(max_delay >= 0.0, "max_delay must be non-negative")
        require(max_batch >= 1, "max_batch must be at least 1")
        self.max_delay = max_delay
        self.max_batch = max_batch
        self._clock = clock
        self._pending: list[ClusterEvent] = []
        self._oldest: float | None = None  # enqueue time of the oldest pending event
        self.stats = BatchStats()

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, event: ClusterEvent) -> None:
        if not self._pending:
            self._oldest = self._clock()
        self._pending.append(event)

    def due(self) -> bool:
        """Whether the pending batch should be flushed *now*."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        assert self._oldest is not None
        return self._clock() - self._oldest >= self.max_delay

    def seconds_until_due(self) -> float | None:
        """Sleep budget for a polling daemon (``None`` = queue empty)."""
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return 0.0
        assert self._oldest is not None
        return max(0.0, self.max_delay - (self._clock() - self._oldest))

    def peek(self) -> tuple[ClusterEvent, ...]:
        """The pending batch without draining it (read-only snapshot)."""
        return tuple(self._pending)

    def drain(self) -> list[ClusterEvent]:
        """Take the whole pending batch (records its size; may be empty)."""
        batch, self._pending = self._pending, []
        self._oldest = None
        if batch:
            self.stats.record(len(batch))
        return batch
