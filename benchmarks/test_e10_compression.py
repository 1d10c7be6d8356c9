"""E10 — wire compression, the other optimization the paper omits.

"Our prototype implementation favors simplicity over performance: it
does not perform any compression on the log..."  This ablation adds
zlib framing to the transport and prefetches a mail folder with and
without it.  Shape asserted: on the 14.4/2.4 dial-up links compression
cuts both bytes and completion time by well over half; on the 2 Mb/s
WaveLAN the win shrinks (latency and flush costs dominate).
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e10_compression
from repro.bench.specs import EXPERIMENTS


def test_e10_compression(benchmark):
    rows = benchmark.pedantic(run_e10_compression, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e10"].tables[0].render(rows))
    by_link = {r["link"]: r for r in rows}
    for r in rows:
        assert r["compressed_bytes"] < r["raw_bytes"]
        assert r["compressed_time_s"] <= r["raw_time_s"]
    # Big wins on dial-up...
    assert by_link["cslip-14.4k"]["time_saved_pct"] > 50
    assert by_link["cslip-2.4k"]["time_saved_pct"] > 50
    # ...modest on the fast wireless LAN.
    assert by_link["wavelan-2Mb"]["time_saved_pct"] < 30
