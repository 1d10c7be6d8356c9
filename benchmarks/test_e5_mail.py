"""E5 — Rover Exmh mail reader performance (paper section 7).

Scan a folder and read every message under three regimes: Rover with a
cold cache (queued, pipelined), Rover after prefetching (cache hits),
and a conventional blocking reader.  Shape asserted: prefetched reads
are flat with respect to link speed while the other two degrade with
1/bandwidth; Rover-cold beats blocking (pipelining + one flag-export
round instead of per-message RPCs); disconnected, Rover keeps working
while the blocking reader fails outright.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e5_disconnected_mail, run_e5_mail
from repro.bench.specs import EXPERIMENTS


def test_e5_mail_read_performance(benchmark):
    rows = benchmark.pedantic(run_e5_mail, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e5"].tables[0].render(rows))
    by_link = {r["link"]: r for r in rows}
    warm_times = [r["rover_prefetched_s"] for r in rows]
    # Cache-hit reads are flat w.r.t. the link (local interpreter only).
    assert max(warm_times) < 1.5 * min(warm_times)
    # Cold Rover and blocking both degrade by orders of magnitude...
    assert by_link["cslip-2.4k"]["rover_cold_s"] > 100 * by_link["ethernet-10Mb"]["rover_cold_s"]
    assert by_link["cslip-2.4k"]["blocking_s"] > 100 * by_link["ethernet-10Mb"]["blocking_s"]
    # ...with Rover-cold at or below blocking on the slow links.
    for link in ("cslip-14.4k", "cslip-2.4k"):
        assert by_link[link]["rover_cold_s"] < by_link[link]["blocking_s"]
    # Prefetched Rover crushes blocking on dial-up.
    assert by_link["cslip-14.4k"]["warm_speedup_vs_blocking"] > 50


def test_e5_disconnected_operation(benchmark):
    result = benchmark.pedantic(run_e5_disconnected_mail, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e5"].tables[1].render(result))
    assert result["rover_reads_while_disconnected"] == result["n_messages"]
    assert result["blocking_reader_failed"] is True
    assert result["flag_updates_committed_after_reconnect"] == result["n_messages"]
    assert result["rover_disconnected_read_time_s"] < 2.0
