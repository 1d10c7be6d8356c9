"""E15 — fleet telemetry: shipping overhead and aggregation exactness.

A thousand clients over the paper's mixed link population (Ethernet,
WaveLAN, 14.4K CSLIP, and a cycling 2.4K CSLIP class) each run a
foreground workload and ship delta telemetry reports through their
operation log at background priority.  Shape asserted: the attributed
telemetry tax stays at or below 5% of foreground wire bytes, and the
aggregator's per-client counter totals match every client's
ground-truth registry exactly — including under the chaos plan (lossy
link windows plus a server outage), where retransmission and same-seq
re-ship produce duplicates the (client, seq) idempotency must absorb.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e15_fleet
from repro.bench.specs import EXPERIMENTS


def test_e15_fleet(benchmark):
    rows = benchmark.pedantic(run_e15_fleet, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e15"].tables[0].render(rows))
    by_config = {r["config"]: r for r in rows}
    clean = by_config["clean"]
    telemetry = by_config["telemetry"]
    chaos = by_config["telemetry+chaos"]
    # The control ships nothing; the telemetry runs ship at scale.
    assert clean["telemetry_bytes"] == 0 and clean["reports_sent"] == 0
    assert telemetry["clients"] == 1000
    assert telemetry["reports_sent"] >= telemetry["clients"]
    # Acceptance bar: attributed telemetry tax <= 5% of foreground
    # bytes, with and without faults.
    assert telemetry["overhead_pct"] <= 5.0
    assert chaos["overhead_pct"] <= 5.0
    # Exactness: aggregated totals equal in-sim ground truth for every
    # client, clean and chaotic; no sequence gap is left open.
    for row in (telemetry, chaos):
        assert row["exact"], f"{row['mismatched']} mismatched clients"
        assert row["reports_acked"] == row["reports_sent"]
        assert row["open_gaps"] == 0
    # Chaos makes duplicate delivery real; idempotency absorbed it.
    assert chaos["duplicates"] > telemetry["duplicates"]
