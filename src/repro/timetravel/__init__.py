"""Time-travel query engine over the checkpoint store.

Answers omniscient debugging queries — ``last-write``, ``first-write``,
``seek-transition``, ``seek-until``, ``value-at`` — by bisecting
recorded checkpoints and deterministically re-executing bounded windows
with a recorder-private shadow store log.  See :mod:`repro.timetravel.engine`
for the invariants; the supported entry point is
:func:`repro.api.timeline`.
"""

from repro.timetravel.engine import (QueryResult, TimelineError,
                                     TimelineQuery, TransitionEvent)
from repro.timetravel.store_log import (PendingStoreReader, StoreEvent,
                                        StoreLogRecorder)

__all__ = [
    "TimelineQuery",
    "QueryResult",
    "TransitionEvent",
    "TimelineError",
    "StoreEvent",
    "StoreLogRecorder",
    "PendingStoreReader",
]
