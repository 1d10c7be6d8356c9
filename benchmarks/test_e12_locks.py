"""E12 — optimistic concurrency vs check-out locks under contention.

Four clients repeatedly edit the *same field* of one object (an
unmergeable update pattern).  Shape asserted: optimistically, most
exports collide and surface as manual conflicts; with the paper's
application-level locks every edit commits exactly once, with zero
conflicts, paying for it in serialized lock waits.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e12_locking
from repro.bench.specs import EXPERIMENTS


def test_e12_locking(benchmark):
    results = benchmark.pedantic(run_e12_locking, rounds=1, iterations=1)
    optimistic, locked = results["optimistic"], results["locked"]
    record_report(EXPERIMENTS["e12"].tables[0].render(results))
    # Optimistic: real conflicts, lost updates (version << attempts+1).
    assert optimistic["manual_conflicts"] >= 1
    assert optimistic["server_version"] < 1 + optimistic["edits_attempted"]
    # Locks: every edit commits exactly once, zero conflicts.
    assert locked["manual_conflicts"] == 0
    assert locked["server_version"] == 1 + locked["edits_attempted"]
    assert locked["lock_denials"] >= 1  # contention really happened
    # The price: serialization costs time.
    assert locked["elapsed_s"] > optimistic["elapsed_s"]
