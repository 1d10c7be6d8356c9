"""E14 — bytes-on-wire: log compaction + delta shipping on slow links.

The disconnected mail session (triage a 10-message folder, queue six
outgoing replies, refresh the index) drains over the paper's serial
links in three configurations: the clean queue, queue-time compaction,
and compaction plus delta object shipping.  Shape asserted: compaction
plus delta cuts bytes-on-wire by at least 2x (it lands near 17x) and
shrinks the reconnection drain accordingly, the counters attribute the
savings, no replication invariant is violated, and a same-seed rerun
reproduces every row bit-for-bit.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e14_wire
from repro.bench.specs import EXPERIMENTS


def test_e14_wire(benchmark):
    rows = benchmark.pedantic(run_e14_wire, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e14"].tables[0].render(rows))
    by_key = {(r["link"], r["config"]): r for r in rows}
    for link in ("cslip-14.4k", "cslip-2.4k"):
        clean = by_key[(link, "clean")]
        compacted = by_key[(link, "compaction")]
        both = by_key[(link, "compaction+delta")]
        # Every configuration drains completely and coherently.
        for row in (clean, compacted, both):
            assert row["violations"] == 0, row["violation_detail"]
        # The same disconnected session was queued in each run.
        assert clean["queued_at_reconnect"] == both["queued_at_reconnect"]
        # Compaction strictly helps; compaction+delta at least halves
        # bytes-on-wire (the acceptance bar) and cuts the drain.
        assert compacted["bytes_wire"] < clean["bytes_wire"]
        assert both["bytes_wire"] * 2 <= clean["bytes_wire"]
        assert both["drain_s"] < clean["drain_s"]
        # The counters attribute the savings to their mechanisms.
        assert clean["ops_compacted"] == 0
        assert compacted["ops_compacted"] > 0
        assert both["delta_bytes_saved"] > 0
        assert clean["marshal_cache_hits"] > 0

    # Determinism: a same-seed rerun reproduces every row exactly.
    rerun = run_e14_wire()
    assert rerun == rows
