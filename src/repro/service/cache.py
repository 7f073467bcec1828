"""The component memo: solved component matrices keyed by fingerprint.

AMF is separable over connected components (:mod:`repro.core.sharding`),
so the warm solver (:class:`~repro.service.solver.IncrementalAmfSolver`)
keeps each solved component's sub-matrix here, keyed by the component's
:meth:`~repro.model.cluster.Cluster.fingerprint` (plus the federation's
resource totals on vector clusters).  The fingerprint covers exactly the
solver inputs, so a hit is a proof of equal inputs and the stored block is
the answer.  A delta changes the key of the component it touched and no
other; a revisited state finds every component here and solves none.  This
is the service's only memory of solved states.

Bounded LRU; entries from component states the churn has left behind age
out, but never one the current call uses (:meth:`AllocationCache.trim`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro._util import require

__all__ = ["AllocationCache"]


class AllocationCache:
    """LRU of ``component key -> solved sub-matrix``."""

    def __init__(self, max_entries: int = 128):
        require(max_entries >= 1, "max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> np.ndarray | None:
        """The stored block for ``key`` (now the most recent entry), or ``None``."""
        matrix = self._entries.get(key)
        if matrix is not None:
            self._entries.move_to_end(key)
        return matrix

    def put(self, key: str, matrix: np.ndarray) -> None:
        self._entries[key] = matrix
        self._entries.move_to_end(key)

    def trim(self, keep: int) -> int:
        """Drop the least recent entries down to ``max(max_entries, keep)``.

        Every :meth:`get` hit and :meth:`put` moves its key to the recent
        end, so keeping the ``keep`` most recent entries keeps every block a
        call of ``keep`` components used: a state with more components than
        the bound is still answered from here when revisited.  Returns the
        number of entries dropped.
        """
        dropped = 0
        while len(self._entries) > max(self.max_entries, keep):
            self._entries.popitem(last=False)
            dropped += 1
        return dropped

    def clear(self) -> None:
        self._entries.clear()
