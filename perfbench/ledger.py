"""Per-QRPC outcome ledger, read off each client's notification hub.

Every QRPC an :class:`~repro.core.access_manager.AccessManager` logs is
announced as ``REQUEST_QUEUED`` and ends in exactly one
``RESPONSE_ARRIVED`` (real, synthetic, or inherited from the request
that absorbed it at compaction) or ``REQUEST_FAILED``.  The ledger
subscribes to those three events, so it sees imports, exports and
remote invocations alike without touching the program's code.

A QRPC's latency runs from the moment it *could first be sent* -- the
later of its invocation and its client's next scripted link-up -- to
its terminal notification, so scripted disconnection is not counted as
latency but every queueing and transmission delay after it is.
"""

from __future__ import annotations

import math

from repro.core.notification import EventType

#: Reply statuses that resolve the application's promise.  Anything
#: else that comes back (``conflict``, ``not-found``, ``locked``, ...)
#: rejects it and counts as a failed QRPC.
SUCCESS = frozenset({"ok", "ok-delta", "committed", "resolved"})


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class OpLedger:
    """Submission, due time and outcome of every QRPC in one run."""

    def __init__(self) -> None:
        #: request id -> virtual time it could first be sent
        self._due: dict[str, float] = {}
        self.latencies: list[float] = []
        self.submitted = 0
        self.acked = 0
        self.rejected = 0
        self.first_due = math.inf
        self.last_ack = 0.0

    def watch(self, access, policy) -> None:
        """Track every QRPC ``access`` issues; ``policy`` is the
        client's scripted connectivity (its links all share it)."""
        due = self._due

        def queued(note) -> None:
            at = note.time
            if not policy.is_up(at):
                up = policy.next_transition(at)
                at = math.inf if up is None else up
            due[note.details["request_id"]] = at
            self.submitted += 1
            if at < self.first_due:
                self.first_due = at

        def answered(note) -> None:
            self._finish(note, note.details.get("status") in SUCCESS)

        def failed(note) -> None:
            self._finish(note, False)

        hub = access.notifications
        hub.subscribe(EventType.REQUEST_QUEUED, queued)
        hub.subscribe(EventType.RESPONSE_ARRIVED, answered)
        hub.subscribe(EventType.REQUEST_FAILED, failed)

    def _finish(self, note, ok: bool) -> None:
        at = self._due.pop(note.details["request_id"], None)
        if at is None:
            return
        if not ok:
            self.rejected += 1
            return
        self.acked += 1
        self.latencies.append(note.time - at)
        if note.time > self.last_ack:
            self.last_ack = note.time

    @property
    def outstanding(self) -> int:
        return len(self._due)

    def summary(self) -> dict:
        """The virtual-time end-to-end figures of the run."""
        ordered = sorted(self.latencies)
        failed = self.rejected + self.outstanding
        return {
            "submitted": self.submitted,
            "acked": self.acked,
            "failed": failed,
            "qrpc_p50_s": percentile(ordered, 0.50),
            "qrpc_p99_s": percentile(ordered, 0.99),
            "makespan_s": (
                self.last_ack - self.first_due if self.acked else 0.0
            ),
            "failed_ratio": failed / self.submitted if self.submitted else 0.0,
        }
