"""E13 — availability under seeded chaos (mail workload).

The acceptance scenario for the chaos subsystem: the mail workload
runs under the standard fault plan (two server outages, one client
crash with FileLogBackend recovery, always-on drop/dup/corrupt/reorder)
and is compared against a fault-free control run.  Shape asserted: both
configurations converge with zero invariant violations; the chaos run
actually injected and detected faults, paid for them in retransmissions,
and acknowledged (nearly) every send anyway — acks outstanding at the
moment of the client crash die with the process, which is the expected
application-visible cost.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e13_chaos
from repro.bench.specs import EXPERIMENTS


def test_e13_chaos(benchmark):
    rows = benchmark.pedantic(run_e13_chaos, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e13"].tables[0].render(rows))
    clean, chaos = rows
    # Both configurations converge: every invariant holds.
    assert clean["violations"] == 0
    assert chaos["violations"] == 0
    # The clean run acks every send without a single retransmission.
    assert clean["acked"] == clean["sends"]
    assert clean["retransmissions"] == 0
    assert clean["faults_injected"] == 0
    # The chaos run really was chaotic: faults injected, corruption
    # detected (never silently unmarshalled), retransmissions paid.
    assert chaos["faults_injected"] > 0
    assert chaos["corrupt_detected"] > 0
    assert chaos["retransmissions"] > 0
    # Availability: at most the acks in flight at the client crash are
    # lost to the application; the updates themselves are durable (the
    # invariant checkers verified that).
    assert chaos["acked"] >= chaos["sends"] - 2
    # Faults cost latency: the chaos run is no faster than the control.
    assert chaos["mean_ack_s"] >= clean["mean_ack_s"]
