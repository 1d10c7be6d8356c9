"""E8 — the network scheduler: priorities and SMTP relay fallback.

Shape asserted: with priority queues an urgent request issued behind a
parked bulk queue completes in link-time, not queue-time (the FIFO
ablation shows the queue-time outcome); and when the direct link is
down for ten minutes, the SMTP relay route delivers in ~1 s instead of
stalling until the link returns.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e8_priority, run_e8_relay_fallback
from repro.bench.specs import EXPERIMENTS


def test_e8_priority_vs_fifo(benchmark):
    priority = benchmark.pedantic(run_e8_priority, rounds=1, iterations=1)
    fifo = run_e8_priority(fifo_only=True)
    record_report(EXPERIMENTS["e8"].tables[0].render({"priority": priority, "fifo": fifo}))
    assert priority["all_done"] and fifo["all_done"]
    # Priority: the urgent request overtakes the parked bulk queue.
    assert priority["urgent_done_s"] < 0.1 * fifo["urgent_done_s"]
    # The bulk work is not starved: it finishes at about the same time.
    assert priority["last_bulk_done_s"] < 1.2 * fifo["last_bulk_done_s"]


def test_e8_relay_fallback(benchmark):
    result = benchmark.pedantic(run_e8_relay_fallback, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e8"].tables[1].render(result))
    # Without the relay the QRPC waits out the outage (~590 s);
    # with it, the mail path delivers while the link is still down.
    assert result["direct_only_latency_s"] > 400.0
    assert result["with_relay_latency_s"] < 10.0
