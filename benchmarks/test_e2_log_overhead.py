"""E2 — stable-log flush on the critical path (paper finding 2).

"For lower-bandwidth networks the overhead of writing the log is
dwarfed by the underlying communication costs."  Shape asserted: the
flush's share of end-to-end QRPC time falls from dominant on Ethernet
to under ~10% on the dial-up links.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e2_log_overhead
from repro.bench.specs import EXPERIMENTS


def test_e2_log_overhead(benchmark):
    rows = benchmark.pedantic(run_e2_log_overhead, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e2"].tables[0].render(rows))
    by_link = {r["link"]: r for r in rows}
    # Flushing always costs something...
    for r in rows:
        assert r["qrpc_with_flush_s"] > r["qrpc_without_flush_s"]
    # ...dominates on the LAN...
    assert by_link["ethernet-10Mb"]["flush_fraction_pct"] > 50.0
    # ...and is dwarfed by communication on dial-up (the paper's claim).
    assert by_link["cslip-14.4k"]["flush_fraction_pct"] < 10.0
    assert by_link["cslip-2.4k"]["flush_fraction_pct"] < 5.0
    # Monotonically decreasing share as links slow down.
    fractions = [r["flush_fraction_pct"] for r in rows]
    assert fractions == sorted(fractions, reverse=True)
