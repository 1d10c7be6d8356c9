"""E11 — batched draining of the queued log on reconnection.

The paper motivates channel-use optimization for intermittent links;
its prototype drains one QRPC per exchange.  This ablation batches
several queued requests into one wire exchange.  Shape asserted: on the
100 ms-RTT modem the drain time falls as batch size grows (round trips
amortized) while the number of exchanges drops to ~n/batch.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e11_batching
from repro.bench.specs import EXPERIMENTS


def test_e11_batching(benchmark):
    rows = benchmark.pedantic(run_e11_batching, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e11"].tables[0].render(rows))
    unbatched, mid, full = rows
    # Fewer exchanges...
    assert full["exchanges"] < mid["exchanges"] < unbatched["exchanges"]
    # ...and a faster drain, monotonically.
    assert full["drain_time_s"] < mid["drain_time_s"] < unbatched["drain_time_s"]
    # The fully-batched drain is one exchange.
    assert full["exchanges"] == 1
