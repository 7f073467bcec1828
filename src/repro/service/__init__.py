"""Online allocation service: incremental AMF behind a daemon that re-solves on a timer.

The offline library answers "what is the fair allocation of *this*
cluster?"; this package answers it continuously while the cluster churns.
See docs/service.md for the architecture and knobs.

* :mod:`repro.service.state` — :class:`ClusterState` delta store + events.
* :mod:`repro.service.solver` — warm-started incremental AMF.
* :mod:`repro.service.cache` — the solver's component memo.
* :mod:`repro.service.daemon` — :class:`AllocationService`, the composed
  pipeline: each accepted event is journaled and applied to the state at
  once; ``max_delay``/``max_batch`` decide only when the next solve runs.
* :mod:`repro.service.journal` — write-ahead journal + crash recovery.
* :mod:`repro.service.aio` — the HTTP/JSON v1 API: an asyncio edge with
  lock-free reads and admission control (``repro.cli serve``).
"""

from repro.service.daemon import AllocationService, BatchStats, ServedAllocation, ServiceClosed
from repro.service.journal import (
    RecoveredJournal,
    WriteAheadJournal,
    open_journal,
    recover_journal,
    recover_state,
)
from repro.service.solver import IncrementalAmfSolver, IncrementalStats
from repro.service.state import (
    CapacityChanged,
    ClusterEvent,
    ClusterState,
    JobArrived,
    JobDeparted,
    StateError,
    events_from_schedule,
)

__all__ = [
    "AllocationService",
    "BatchStats",
    "CapacityChanged",
    "ClusterEvent",
    "ClusterState",
    "IncrementalAmfSolver",
    "IncrementalStats",
    "JobArrived",
    "JobDeparted",
    "RecoveredJournal",
    "ServedAllocation",
    "ServiceClosed",
    "StateError",
    "WriteAheadJournal",
    "events_from_schedule",
    "open_journal",
    "recover_journal",
    "recover_state",
]
