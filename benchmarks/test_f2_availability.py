"""F2 — availability vs connectivity duty cycle.

The paper's thesis as a curve: "applications that isolate a user from
the loss of network connectivity".  Shape asserted: Rover's read
availability stays at 100% across duty cycles (hoarded cache + queued
flag updates), while the conventional client's availability roughly
tracks how often the link happens to be up.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_f2_availability
from repro.bench.specs import EXPERIMENTS


def test_f2_availability(benchmark):
    rows = benchmark.pedantic(run_f2_availability, rounds=1, iterations=1)
    record_report(EXPERIMENTS["f2"].tables[0].render(rows))
    for r in rows:
        # Rover never leaves the user waiting on the link.
        assert r["rover_availability_pct"] == 100.0
        assert r["rover_availability_pct"] >= r["blocking_availability_pct"]
    # The conventional client degrades with the duty cycle.
    blocking = [r["blocking_availability_pct"] for r in rows]
    assert blocking == sorted(blocking)
    assert blocking[0] < 30.0
    assert blocking[-1] == 100.0
