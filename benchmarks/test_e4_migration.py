"""E4 — RDO migration: N round trips vs one shipped RDO (paper finding 4).

"Migrating RDOs provides Rover applications with excellent performance
over moderate bandwidth links (e.g., 14.4 Kbit/s dial-up lines) and in
disconnected operation."  Shape asserted: shipping loses slightly at
N=1 (the code costs more than it saves) and wins roughly linearly in N
after that, on every link.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e4_migration
from repro.bench.specs import EXPERIMENTS


def test_e4_migration(benchmark):
    rows = benchmark.pedantic(run_e4_migration, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e4"].tables[0].render(rows))
    by_key = {(r["link"], r["n_ops"]): r for r in rows}
    links = sorted({r["link"] for r in rows})
    for link in links:
        # Crossover near N=1: shipping costs about as much as one QRPC.
        assert by_key[(link, 1)]["speedup"] < 1.3
        # Clear win by N=4, growing with N.
        assert by_key[(link, 4)]["speedup"] > 2.0
        assert by_key[(link, 16)]["speedup"] > by_key[(link, 8)]["speedup"]
        # Shipped time is nearly flat in N (one exchange), per-op linear.
        assert (
            by_key[(link, 16)]["shipped_rdo_s"]
            < 2.0 * by_key[(link, 1)]["shipped_rdo_s"]
        )
        assert (
            by_key[(link, 16)]["per_op_qrpc_s"]
            > 10.0 * by_key[(link, 1)]["per_op_qrpc_s"]
        )
