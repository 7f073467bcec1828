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

Each entry is checked once: the pipeline stores a block only after it
passed the allocation rule set against its component
(:func:`~repro.core.allocation.check_matrix`), held read-only, and the
entry records that (``checked``).  A replay is stitched from such blocks
with no second check.  Rebinding ``entry.matrix`` clears the record, so
:func:`~repro.core.policies.validate_allocation` checks that block, and
that block alone, before the replay is served.

Each entry also keeps its component's rendered jobs once the HTTP edge has
encoded them (:func:`repro.service.schema.allocation_payload`): the
fingerprint covers every job name, site name and solver input the encoding
reads, so a replayed component is not encoded again either.  The solver
drops them from entries its latest answer no longer uses, so rendered jobs
cost memory for the current state only, not for every entry the LRU holds.
A new entry of a component the last answer also held carries that
answer's rendering of it (``prior``) until its own render, which reuses
the encoding of every job whose cells did not move.

Bounded LRU; entries from component states the churn has left behind age
out, but never one the current call uses (:meth:`AllocationCache.trim`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro._util import require

__all__ = ["ComponentEntry", "AllocationCache"]


class ComponentEntry:
    """One memoized component: its solved sub-matrix (a read-only block that
    passed the rule set, ``checked``), its jobs as the renderer encoded
    them (a :class:`~repro.service.schema.RenderedBlock`, ``None`` until the
    first render), and the last answer's rendering of the same component
    key, until then (``prior``)."""

    __slots__ = ("_matrix", "checked", "rendered", "prior")

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix
        self.checked = True
        self.rendered = None
        self.prior = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @matrix.setter
    def matrix(self, matrix: np.ndarray) -> None:
        # a rebound block is not known-good, and its rendering is stale
        self._matrix = matrix
        self.checked = False
        self.rendered = None


class AllocationCache:
    """LRU of ``component key -> ComponentEntry``, counting its lookups'
    ``hits`` and ``misses`` (a :meth:`clear` keeps the counts)."""

    def __init__(self, max_entries: int = 128):
        require(max_entries >= 1, "max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, ComponentEntry] = OrderedDict()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> ComponentEntry | None:
        """The entry for ``key`` (now the most recent one), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, matrix: np.ndarray) -> ComponentEntry:
        """Store ``matrix``, a read-only block that passed the rule set."""
        entry = self._entries[key] = ComponentEntry(matrix)
        self._entries.move_to_end(key)
        return entry

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
