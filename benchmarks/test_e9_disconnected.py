"""E9 — end-to-end disconnected operation across all three applications.

The paper's thesis experiment: hoard while connected, keep working
while disconnected (nothing blocks), reconcile on reconnection.  Shape
asserted: every offline operation is served locally, every queued QRPC
drains after reconnect, and tentative state fully converges.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e9_disconnected
from repro.bench.specs import EXPERIMENTS


def test_e9_disconnected_end_to_end(benchmark):
    result = benchmark.pedantic(run_e9_disconnected, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e9"].tables[0].render(result))
    assert result["offline_reads_served"] == 4          # every mail read hit cache
    assert result["offline_page_from_cache"] is True    # prefetched page displayed
    assert result["qrpcs_queued_while_down"] > 0        # work queued, none blocked
    assert result["pending_after_reconnect"] == 0       # the log fully drained
    assert result["calendar_event_committed"] is True   # tentative -> committed
    assert result["tentative_after_reconnect"] == 0     # no dirty state remains
