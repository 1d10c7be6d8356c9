"""E3 — cached-RDO invocation vs RPC (the paper's 56x claim).

"A local invocation on an RDO is 56 times faster than sending an RPC
over a TCP/CSLIP14.4 connection."  The client interpreter's base
dispatch cost is the single calibrated knob (~5 ms, a small Tcl script
on a ThinkPad 701C); the per-link ratios then fall out of the link
models.  Shape asserted: ~56x on CSLIP-14.4, larger on 2.4, and a
crossover near the LAN where a fast RPC beats local interpretation.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e3_local_vs_rpc
from repro.bench.specs import EXPERIMENTS


def test_e3_local_vs_rpc(benchmark):
    rows = benchmark.pedantic(run_e3_local_vs_rpc, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e3"].tables[0].render(rows))
    by_link = {r["link"]: r for r in rows}
    # The headline: ~56x over TCP/CSLIP14.4 (paper: 56x).
    assert 40.0 < by_link["cslip-14.4k"]["speedup"] < 75.0
    # Even bigger on the slower line.
    assert by_link["cslip-2.4k"]["speedup"] > by_link["cslip-14.4k"]["speedup"]
    # Crossover: on a fast LAN the RPC can beat local interpretation.
    assert by_link["ethernet-10Mb"]["speedup"] < 2.0
    # Speedup grows monotonically as the link slows.
    speedups = [r["speedup"] for r in rows]
    assert speedups == sorted(speedups)
