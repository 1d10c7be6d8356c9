"""E2b — group commit, the optimization the paper names but omits.

"Our prototype implementation favors simplicity over performance: it
does not ... employ efficient techniques for implementing stable
storage (e.g., Flash RAM or group commit)."  This ablation builds it:
a burst of 10 QRPCs on the Ethernet (where E2 shows the per-request
flush dominating) under per-request flushing and two group-commit
windows.  Shape asserted: a small window amortizes the flushes and
beats per-request flushing; an oversized window re-introduces latency
(the classic U-shape).
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e2b_group_commit
from repro.bench.specs import EXPERIMENTS


def test_e2b_group_commit(benchmark):
    rows = benchmark.pedantic(run_e2b_group_commit, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e2b"].tables[0].render(rows))
    per_request, small_window, large_window = rows
    # A modest window amortizes the serial disk and wins outright.
    assert small_window["burst_completion_s"] < 0.5 * per_request["burst_completion_s"]
    assert small_window["flushes"] < per_request["flushes"]
    # An oversized window gives the latency back (U-shape).
    assert large_window["burst_completion_s"] > small_window["burst_completion_s"]
    # Flush work is identical for both windows (one group flush).
    assert large_window["flushes"] == small_window["flushes"]
