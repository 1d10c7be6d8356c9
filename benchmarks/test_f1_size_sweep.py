"""F1 — import latency vs object size per link (figure-style series).

Shape asserted: latency is affine in payload size with slope
≈ 8/bandwidth (the simulated values track the analytic transfer time
within a small constant: log flush, request transmission, propagation).
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_f1_size_sweep
from repro.bench.specs import EXPERIMENTS


def test_f1_size_sweep(benchmark):
    rows = benchmark.pedantic(run_f1_size_sweep, rounds=1, iterations=1)
    record_report(EXPERIMENTS["f1"].tables[0].render(rows))
    by_link: dict[str, list[dict]] = {}
    for r in rows:
        by_link.setdefault(r["link"], []).append(r)
    for link, series in by_link.items():
        series.sort(key=lambda r: r["size_bytes"])
        # Monotone in size.
        times = [r["import_s"] for r in series]
        assert times == sorted(times)
        # The measured time exceeds the analytic transfer time by a
        # bounded constant (flush + request + latency), never less.
        for r in series:
            assert r["import_s"] > r["analytic_tx_s"]
            assert r["import_s"] - r["analytic_tx_s"] < 2.0
        # Affine: the marginal cost of extra bytes matches the link's
        # bandwidth within 20%.
        small, large = series[0], series[-1]
        slope = (large["import_s"] - small["import_s"]) / (
            large["size_bytes"] - small["size_bytes"]
        )
        analytic_slope = (large["analytic_tx_s"] - small["analytic_tx_s"]) / (
            large["size_bytes"] - small["size_bytes"]
        )
        assert 0.8 * analytic_slope < slope < 1.2 * analytic_slope
