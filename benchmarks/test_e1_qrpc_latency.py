"""E1 — null-QRPC latency per network (paper section 7 latency table).

Shape asserted: latency strictly ordered ethernet < wavelan <<
cslip-14.4 << cslip-2.4; QRPC adds a near-constant overhead (log
append + flush) over blocking RPC, so its *relative* cost falls from
dominant on the LAN to small on dial-up.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e1_qrpc_latency
from repro.bench.specs import EXPERIMENTS


def test_e1_qrpc_latency(benchmark):
    rows = benchmark.pedantic(run_e1_qrpc_latency, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e1"].tables[0].render(rows))
    # Latency ordering follows bandwidth/latency ordering.
    qrpc_times = [r["qrpc_s"] for r in rows]
    assert qrpc_times == sorted(qrpc_times)
    rpc_times = [r["rpc_s"] for r in rows]
    assert rpc_times == sorted(rpc_times)
    # Dial-up is orders of magnitude slower than the LAN.
    assert qrpc_times[-1] > 20 * qrpc_times[0]
    # QRPC overhead is roughly constant (log flush dominated)...
    overheads = [r["overhead_s"] for r in rows]
    assert max(overheads) < 8 * min(overheads)
    # ...so its share shrinks as the link slows.
    fractions = [r["overhead_pct"] for r in rows]
    assert fractions[0] > 50.0
    assert fractions[-1] < 15.0
